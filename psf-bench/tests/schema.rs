//! `BENCHMARK.json` and the report of a `--smoke` set keep to the schema
//! the driver and the readers of the report rely on.

mod parse;

use parse::parse;
use psf_bench::json::Value;
use psf_bench::metrics::{benchmark_json, END_TO_END, ISSUE_BOUND_LIMIT, PER_LAYER, RUN_SECONDS};
use psf_bench::stream::Workload;
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn read(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {v:?}"))
}

#[test]
fn benchmark_json_is_the_metric_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate it: psf-bench benchmark-json > BENCHMARK.json"
    );
    // What the text says, checked on the tree and not on the tables, so
    // that the generator is covered too.
    let doc = parse(&on_disk).unwrap();
    let names = |key: &str| -> Vec<String> {
        let list = doc.get(key).and_then(Value::as_arr).unwrap();
        list.iter().map(|m| text(m, "name").to_string()).collect()
    };
    assert_eq!(names("workloads"), Workload::GATED.map(Workload::name));
    assert_eq!(names("end_to_end").len(), END_TO_END.len());
    assert_eq!(names("per_layer").len(), PER_LAYER.len());
}

#[test]
fn the_tables_keep_to_the_contract() {
    let mut seen = HashSet::new();
    for name in Workload::ALL
        .map(Workload::name)
        .into_iter()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
    {
        assert!(name_ok(name), "bad name '{name}'");
        assert!(seen.insert(name), "name '{name}' used twice");
    }
    assert!((2..=8).contains(&Workload::GATED.len()));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!((1..=60).contains(&RUN_SECONDS));
    for workload in Workload::ALL {
        let why = workload.why();
        assert!(why.len() <= 200 && !why.contains(['\n', '"']), "{why}");
    }
    for (name, unit, better, _) in END_TO_END {
        assert!(
            !unit.is_empty() && ["higher", "lower"].contains(&better),
            "{name}"
        );
    }
    assert!(END_TO_END.contains(&("setup_s", "s", "lower", 0.25)));

    // The issue asked for bounds of at most a tenth. The metrics whose
    // spread on the measuring host does not support that are named here,
    // one by one, with the contract's limit; REPEATABILITY.md carries the
    // numbers. Nothing else may exceed the issue's limit.
    const WIDE: [&str; 5] = [
        "ops_per_s",
        "latency_p50_us",
        "latency_p90_us",
        "cpu_ms_per_op",
        "setup_s",
    ];
    for (name, _, _, bound) in END_TO_END {
        let limit = if WIDE.contains(&name) {
            0.25
        } else {
            ISSUE_BOUND_LIMIT
        };
        assert!(bound > 0.0 && bound <= limit, "{name}: bound {bound}");
    }
}

#[test]
fn smoke_set_report_passes_the_schema() {
    let exe = Path::new(env!("CARGO_BIN_EXE_psf-bench"));
    let started = Instant::now();
    let output = std::process::Command::new(exe)
        .arg("--smoke")
        .output()
        .expect("run psf-bench --smoke");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "--smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(took < Duration::from_secs(30), "--smoke took {took:?}");

    let data = exe.parent().unwrap().join("psf-bench-data");
    let report = read(&data.join("report.json"));
    let sets = report.get("sets").and_then(Value::as_arr).unwrap();
    assert_eq!(sets.len(), 1);
    let workloads = sets[0].get("workloads").and_then(Value::as_arr).unwrap();
    assert!(workloads.len() <= 8);
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (w, workload) in workloads.iter().zip(Workload::ALL) {
        let env = w.get("env").unwrap();
        assert_eq!(text(env, "workload"), workload.name());
        for key in [
            "nproc",
            "connections",
            "depth",
            "reactor_shards_server",
            "reactor_shards_generator",
            "heartbeat_ms",
            "rlimit_nofile",
            "fsync_policy",
            "wal_filesystem",
            "channel",
            "rustc",
            "commit",
            "seed",
            "rounds",
            "round_seconds",
        ] {
            assert!(
                env.get(key).is_some(),
                "{}: env lacks {key}",
                workload.name()
            );
        }
        assert_eq!(
            w.get("correct"),
            Some(&Value::Bool(true)),
            "{}: {:?}",
            workload.name(),
            w.get("problems")
        );
        let count = |key: &str| w.get(key).and_then(Value::as_f64).unwrap();
        assert!(count("attempted") >= 1.0 && count("failed") <= count("attempted"));
        assert!(count("latency_samples") <= count("attempted"));

        let end_to_end = w.get("end_to_end").and_then(Value::as_obj).unwrap();
        let per_layer = w.get("per_layer").and_then(Value::as_obj).unwrap();
        assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
        assert_eq!(end_to_end.len(), END_TO_END.len());
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (name, metric) in end_to_end.iter().chain(per_layer) {
            assert!(name_ok(name), "bad metric name '{name}'");
            assert!(
                !text(metric, "unit").is_empty()
                    && ["higher", "lower"].contains(&text(metric, "better"))
            );
            let value = metric.get("value").and_then(Value::as_f64).unwrap();
            // A difference of two noisy rates, so it may come out below zero.
            let signed = name == "trace.overhead_share";
            assert!(
                value.is_finite() && (signed || value >= 0.0),
                "{name} = {value}"
            );
        }
        for (name, metric) in end_to_end {
            assert!(
                metric.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                "{name} is zero"
            );
        }

        // No span without its parent, and none dropped.
        let layer = |name: &str| {
            w.get("per_layer")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Value::as_f64)
                .unwrap()
        };
        assert_eq!(layer("trace.orphan_spans"), 0.0);
        assert!(
            layer("trace.coverage") >= 0.9,
            "{}",
            layer("trace.coverage")
        );
        assert_eq!(layer("telemetry.spans_dropped"), 0.0);
        assert!(layer("trace.sampled_requests") > 0.0);
    }

    // The merged trace of the last workload run is on disk: check the tree
    // itself, not only the summary.
    let trace = std::fs::read_dir(&data)
        .unwrap()
        .flatten()
        .map(|e| e.path().join("trace.jsonl"))
        .find(|p| p.exists())
        .expect("a trace.jsonl under psf-bench-data");
    let spans: Vec<Value> = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .map(|l| parse(l).unwrap())
        .collect();
    let ids: HashSet<u64> = spans
        .iter()
        .map(|s| s.get("id").and_then(Value::as_f64).unwrap() as u64)
        .collect();
    for span in &spans {
        let parent = span.get("parent").and_then(Value::as_f64).unwrap() as u64;
        assert!(parent == 0 || ids.contains(&parent), "orphan span {span:?}");
    }
}
