//! The metric tables: every name the benchmark reports, with its unit,
//! which direction is better and, for the end-to-end metrics, the bound.
//! `BENCHMARK.json` is this module rendered by [`benchmark_json`]
//! (`psf-bench benchmark-json > BENCHMARK.json`); a test holds the file to
//! it, so there is one table, not two.

use crate::stream::Workload;

/// The command `BENCHMARK.json` gives the driver.
const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "psf-bench/Cargo.toml",
    "--bin",
    "psf-bench",
    "--",
];

/// Seconds of measured rounds in one run of the driver.
pub const RUN_SECONDS: u32 = 30;

/// The bound the issue asked every end-to-end metric to keep to. The
/// contract allows 0.25; a bound between the two is a deviation that
/// `REPEATABILITY.md` has to carry the numbers for.
pub const ISSUE_BOUND_LIMIT: f64 = 0.10;

/// `(name, unit, better, bound)` of the end-to-end metrics, the same six
/// on every workload. A bound is the share of the parent's median by
/// which the metric may get worse; each is taken from `REPEATABILITY.md`.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p90_us", "us", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of the per-layer metrics. A metric that does
/// not apply to a workload (a publish latency on a sign-on workload)
/// reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 73] = [
    // client: the load generator's own view.
    ("client.encode_us", "us", "lower"),
    ("client.unloaded_p50_us", "us", "lower"),
    ("client.ops_per_s_best_round", "1/s", "higher"),
    ("client.latency_p99_us", "us", "lower"),
    ("client.latency_max_us", "us", "lower"),
    ("client.round_spread", "ratio", "lower"),
    ("client.signon_p50_us", "us", "lower"),
    ("client.publish_p50_us", "us", "lower"),
    ("client.revoke_p50_us", "us", "lower"),
    ("client.cpu_ms_per_op", "ms", "lower"),
    ("client.inflight", "count", "higher"),
    // switchboard: channel, RPC codec, reactor.
    ("switchboard.call_self_us", "us", "lower"),
    ("switchboard.echo_call_us", "us", "lower"),
    ("switchboard.echo_plain_call_us", "us", "lower"),
    ("switchboard.queue_wait_us", "us", "lower"),
    ("switchboard.handshake_us", "us", "lower"),
    ("switchboard.accept_us", "us", "lower"),
    ("switchboard.close_us", "us", "lower"),
    ("switchboard.bytes_per_op", "B", "lower"),
    ("switchboard.frames_per_op", "count", "lower"),
    ("switchboard.reactor.wakeups_per_op", "count", "lower"),
    ("switchboard.pool.reuse_ratio", "ratio", "higher"),
    ("switchboard.rpc.timeouts", "count", "lower"),
    ("switchboard.reactor.shards", "count", "higher"),
    // crypto: primitives at the workload's frame size.
    ("crypto.aead.seal_us", "us", "lower"),
    ("crypto.aead.open_us", "us", "lower"),
    ("crypto.ed25519.verify_us", "us", "lower"),
    ("crypto.ed25519.sign_us", "us", "lower"),
    ("crypto.x25519.dh_us", "us", "lower"),
    // drbac: wire codec, engine, cache tiers, repository, WAL, revocation.
    ("drbac.wire.decode_us", "us", "lower"),
    ("drbac.wire.encode_us", "us", "lower"),
    ("drbac.proof.prove_cold_us", "us", "lower"),
    ("drbac.proof.prove_warm_us", "us", "lower"),
    ("drbac.proof.calls_per_op", "count", "lower"),
    ("drbac.proof.nodes_expanded_per_op", "count", "lower"),
    ("drbac.proof.creds_examined_per_op", "count", "lower"),
    ("drbac.cache.proof_hit_ratio", "ratio", "higher"),
    ("drbac.cache.cred_hit_ratio", "ratio", "higher"),
    ("drbac.cache.proof_invalidations_per_kop", "count", "lower"),
    ("drbac.repository.queries_per_op", "count", "lower"),
    ("drbac.repository.query_by_subject_us", "us", "lower"),
    ("drbac.repository.query_by_object_us", "us", "lower"),
    ("drbac.repository.publish_mem_us", "us", "lower"),
    ("drbac.wal.publish_us", "us", "lower"),
    ("drbac.wal.fsyncs_per_op", "count", "lower"),
    ("drbac.wal.appends_per_op", "count", "lower"),
    ("drbac.wal.bytes_per_op", "B", "lower"),
    ("drbac.wal.group_commit_batch", "count", "higher"),
    ("drbac.wal.recover_s", "s", "lower"),
    ("drbac.wal.compact_s", "s", "lower"),
    ("drbac.revocation.revoke_us", "us", "lower"),
    ("drbac.revocation.watchers_growth_b_per_op", "B", "lower"),
    ("drbac.certify.emit_us", "us", "lower"),
    // cert, views, core.
    ("cert.check_cold_us", "us", "lower"),
    ("cert.check_warm_us", "us", "lower"),
    ("views.select_view_us", "us", "lower"),
    ("views.rules_tried_per_op", "count", "lower"),
    ("views.mint_us", "us", "lower"),
    ("core.repo_service.publish_call_us", "us", "lower"),
    ("core.repo_service.query_call_us", "us", "lower"),
    // process, telemetry, the trace itself, input generation.
    ("process.sys_cpu_share", "ratio", "lower"),
    ("process.ctx_switches_per_op", "count", "lower"),
    ("process.rss_growth_b_per_op", "B", "lower"),
    ("process.peak_rss_mb", "MiB", "lower"),
    ("process.steal_share", "ratio", "lower"),
    ("telemetry.audit_records_per_op", "count", "lower"),
    ("telemetry.spans_dropped", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.sampled_requests", "count", "higher"),
    ("trace.orphan_spans", "count", "lower"),
    ("bench.worldgen_s", "s", "lower"),
    ("bench.bulk_load_s", "s", "lower"),
];

/// The unit of a metric by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, unit, ..)| (n, unit))
        .chain(PER_LAYER.iter().map(|(n, unit, _)| (n, unit)))
        .find(|(n, _)| **n == name)
        .map_or("", |(_, unit)| unit)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quote = |s: &&str| format!("\"{s}\"");
    let command: Vec<String> = COMMAND.iter().map(quote).collect();
    let workloads: Vec<String> = Workload::GATED
        .iter()
        .map(|w| format!(r#"    {{"name": "{}", "why": "{}"}}"#, w.name(), w.why()))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                r#"    {{"name": "{name}", "unit": "{unit}", "better": "{better}", "bound": {bound}}}"#
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(r#"    {{"name": "{name}", "unit": "{unit}", "better": "{better}"}}"#)
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"psf-bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
