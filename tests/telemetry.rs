//! Observability integration: a full-stack mail-scenario run must leave a
//! coherent telemetry record — nested spans covering planning, dRBAC proof
//! search, VIG view generation, deployment, and Switchboard handshakes,
//! plus a metrics registry with nonzero planner frontier counters and at
//! least one heartbeat round-trip sample. A second test drives the `psf`
//! binary itself (`--quiet --trace-out … metrics`).

use psf_core::Goal;
use psf_mail::MailWorld;
use psf_switchboard::{pair_in_memory_plain, ChannelConfig};
use psf_telemetry::SpanRecord;
use std::time::Duration;

fn find<'a>(spans: &'a [SpanRecord], target: &str, name: &str) -> Option<&'a SpanRecord> {
    spans.iter().find(|s| s.target == target && s.name == name)
}

#[test]
fn full_stack_run_emits_nested_spans_and_metrics() {
    let w = MailWorld::build(2);

    // Privacy across the insecure WAN: planner, proof search, secure
    // Switchboard channels, encryptor/decryptor middleware.
    let (plan, deployment) = w.deliver(&Goal::private("MailI", w.sites.sd[1])).unwrap();
    assert!(plan.deployments() >= 2, "plan: {}", plan.render());
    deployment.endpoint.call_remote("fetch", b"alice").unwrap();
    deployment.teardown(Some(&w.sites.network), &w.ny_guard);

    // A tight latency bound forces the cache view: VIG generation.
    let latency_goal = Goal {
        iface: "MailI".into(),
        client_node: w.sites.sd[0],
        max_latency_ms: Some(10.0),
        require_privacy: false,
        require_plaintext_delivery: true,
    };
    let (_, deployment) = w.deliver(&latency_goal).unwrap();
    deployment.teardown(Some(&w.sites.network), &w.ny_guard);

    // --- spans -----------------------------------------------------------
    let spans = psf_telemetry::tracer().snapshot();
    assert!(!spans.is_empty(), "tracer buffer must not be empty");
    let plan_span = find(&spans, "psf.planner", "plan").expect("planner span");
    let prove_span = find(&spans, "psf.drbac", "prove").expect("proof-search span");
    let vig_span = find(&spans, "psf.views", "vig.generate").expect("VIG span");
    let exec_span = find(&spans, "psf.deploy", "execute").expect("deploy span");
    let hs_span = find(&spans, "psf.swbd", "handshake").expect("handshake span");
    assert!(exec_span
        .fields
        .iter()
        .any(|(k, v)| *k == "ok" && v == "true"));
    assert!(plan_span.dur_us > 0 || prove_span.dur_us > 0);
    assert!(vig_span.fields.iter().any(|(k, _)| *k == "view"));
    assert!(hs_span.fields.iter().any(|(k, _)| *k == "role"));

    // Nesting: oracle proofs run inside planning; plan steps inside the
    // deployment; the whole pipeline inside the mail deliver span.
    let deliver_span = find(&spans, "psf.mail", "deliver").expect("deliver span");
    assert!(
        spans
            .iter()
            .filter(|s| s.target == "psf.drbac" && s.name == "prove")
            .any(|s| {
                s.parent.is_some_and(|p| {
                    spans
                        .iter()
                        .any(|q| q.id == p && q.target == "psf.planner" && q.name == "plan")
                })
            }),
        "at least one proof-search span must nest under a planner span"
    );
    let step_parent_of_execute = spans
        .iter()
        .filter(|s| s.target == "psf.deploy" && s.name == "step")
        .filter_map(|s| s.parent)
        .any(|p| spans.iter().any(|q| q.id == p && q.name == "execute"));
    assert!(
        step_parent_of_execute,
        "deploy steps must nest under execute"
    );
    assert!(
        spans
            .iter()
            .filter(|s| s.name == "plan" || s.name == "execute")
            .any(|s| s.parent == Some(deliver_span.id)),
        "planning/deployment must nest under the deliver span"
    );

    // --- JSONL export ----------------------------------------------------
    let jsonl = psf_telemetry::export_jsonl();
    assert_eq!(jsonl.lines().count(), spans.len());
    assert!(jsonl.contains("\"target\":\"psf.planner\""));
    assert!(jsonl.contains("\"target\":\"psf.swbd\""));
    let nested_lines = jsonl
        .lines()
        .filter(|l| l.contains("\"parent\":") && !l.contains("\"parent\":null"))
        .count();
    assert!(nested_lines > 0, "export must contain child spans");

    // --- metrics ---------------------------------------------------------
    let reg = psf_telemetry::registry();
    assert!(reg.counter_value("psf.planner.plans") >= 2);
    assert!(
        reg.counter_value("psf.planner.expanded") > 0,
        "frontier counter"
    );
    assert!(
        reg.counter_value("psf.planner.generated") > 0,
        "frontier counter"
    );
    assert!(reg.counter_value("psf.drbac.prove.calls") > 0);
    assert!(reg.counter_value("psf.drbac.repo.queries") > 0);
    assert!(reg.counter_value("psf.deploy.executions") >= 2);
    assert!(reg.counter_value("psf.deploy.steps") > 0);
    assert!(reg.counter_value("psf.views.vig.generated") >= 1);
    // The insecure NY→SD hop runs the secure handshake on both ends.
    assert!(reg.counter_value("psf.swbd.handshake.ok") >= 2);
    let plan_us = reg
        .histogram_snapshot("psf.planner.plan.us")
        .expect("plan duration histogram");
    assert!(plan_us.count >= 2);
}

#[test]
fn heartbeat_populates_rtt_histogram_and_channel_stats() {
    let before = psf_telemetry::registry()
        .histogram_snapshot("psf.swbd.hb.rtt.us")
        .map_or(0, |s| s.count);

    let cfg = ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    let (a, b) = pair_in_memory_plain(cfg);
    a.send_heartbeat().unwrap();
    for _ in 0..2000 {
        if a.last_rtt().is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let stats = a.stats();
    assert!(stats.last_rtt.is_some(), "heartbeat must round-trip");
    assert_eq!(stats.heartbeats_sent, 1);
    assert!(stats.traffic.frames_sent >= 1);
    assert!(stats.traffic.bytes_sent > 0);
    assert!(b.stats().heartbeats_received >= 1);

    let after = psf_telemetry::registry()
        .histogram_snapshot("psf.swbd.hb.rtt.us")
        .expect("hb rtt histogram");
    assert!(after.count > before, "RTT histogram must gain a sample");
    assert!(after.max >= 1);

    a.close();
    b.close();
}

#[test]
fn psf_binary_metrics_run_writes_trace_and_snapshot() {
    let trace_path =
        std::env::temp_dir().join(format!("psf-telemetry-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_psf"))
        .args(["--quiet", "--trace-out"])
        .arg(&trace_path)
        .arg("metrics")
        .output()
        .expect("run psf binary");
    assert!(
        output.status.success(),
        "psf metrics failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The Prometheus snapshot carries nonzero planner frontier counters
    // and a populated heartbeat RTT summary.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let counter_value = |name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(counter_value("psf_planner_expanded") > 0, "got:\n{stdout}");
    assert!(counter_value("psf_planner_generated") > 0);
    assert!(counter_value("psf_swbd_handshake_ok") >= 2);
    assert!(
        counter_value("psf_swbd_hb_rtt_us_count") >= 1,
        "got:\n{stdout}"
    );

    // The JSONL trace has the pipeline's spans, including nested ones.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(
        trace.lines().count() > 10,
        "trace: {} lines",
        trace.lines().count()
    );
    for target in [
        "psf.planner",
        "psf.drbac",
        "psf.views",
        "psf.deploy",
        "psf.swbd",
    ] {
        assert!(
            trace.contains(&format!("\"target\":\"{target}\"")),
            "trace missing {target}"
        );
    }
    assert!(
        trace
            .lines()
            .any(|l| l.contains("\"parent\":") && !l.contains("\"parent\":null")),
        "trace must contain nested spans"
    );
    let _ = std::fs::remove_file(&trace_path);
}

/// The CLI measures nothing (`bench` is not a command), and a numeric flag
/// whose value does not parse is a usage error naming the flag — never a
/// silent default.
#[test]
fn psf_binary_rejects_removed_bench_command_and_malformed_flag_values() {
    let dir = std::env::temp_dir().join(format!("psf-telemetry-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let psf = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_psf"))
            .args(args)
            .output()
            .expect("run psf binary")
    };

    // Neither the command nor the result files it wrote are advertised.
    let bench = psf(&["bench", "--json"]);
    let usage = String::from_utf8_lossy(&bench.stderr).to_lowercase();
    assert_eq!(
        bench.status.code(),
        Some(2),
        "removed command must be a usage error: {usage}"
    );
    assert!(usage.contains("usage: psf"), "got:\n{usage}");
    assert!(
        !usage.contains("bench"),
        "usage still advertises a bench command:\n{usage}"
    );

    // (arguments, the flag stderr must name)
    let malformed: [(&[&str], &str); 4] = [
        (&["chaos", "--seed", "x"], "--seed"),
        (&["plan", "sd-1", "--max-latency", "fast"], "--max-latency"),
        (&["repo", "--dir", dir_arg, "--fill", "1e6"], "--fill"),
        (&["repo", "--dir", dir_arg, "--shards", "abc"], "--shards"),
    ];
    for (args, flag) in malformed {
        let out = psf(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "psf {args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "psf {args:?} must name {flag}: {stderr}"
        );
    }
    assert!(
        !dir.exists(),
        "a rejected repo invocation must not create {dir:?}"
    );

    // A well-formed value still reaches the command.
    let out = psf(&["chaos", "--seed", "3", "--wal-dir", dir_arg]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "psf chaos --seed 3: {stdout}");
    assert!(
        stdout.contains("chaos: mail scenario, seed 3"),
        "got:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
