//! One run of one workload: generate the inputs, bring the server up,
//! measure the rounds, (optionally) trace and probe, shut down, and check
//! what was written.

use crate::client::{self, Class, Connection, End, RoundPart, Server, Stats};
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stream::{self, Workload, ECHO};
use crate::trace::{self, Tracer};
use crate::world::{World, WorldParams};
use crate::{median, probes, procfs};
use psf_core::repo_service::RemoteRepository;
use psf_drbac::{
    verify_sharded_dir, CredentialSource, DiscoveryTag, FsyncPolicy, Repository, RevocationBus,
    ShardedDurableRepository, SignedDelegation, WalConfig, DEFAULT_SHARD_COUNT,
};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed server set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Target length of one measured round. A run measures `--seconds`
/// seconds split into rounds of about this length (at least five) and
/// reports each timing as the median over the rounds of that round's
/// statistic: the host's disturbances come in bursts of seconds, and a
/// burst costs the median nothing until it covers half the run.
const ROUND_TARGET_S: f64 = 0.25;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the world and the streams.
    pub seed: u64,
    /// Seconds of measured rounds.
    pub seconds: f64,
    /// Also run the traced round and the probes, and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// The shrunken world and short probe loops of `--smoke`, which
    /// checks that everything runs, not what it reads.
    pub smoke: bool,
    /// Directory for the WAL, the trace and the report (inside the
    /// checkout's build directory).
    pub scratch: PathBuf,
}

impl RunConfig {
    /// Timed set-ups in this run.
    fn setups(&self) -> usize {
        if self.smoke {
            3
        } else {
            SETUPS
        }
    }
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every reply was the expected one and the WAL check passed.
    pub correct: bool,
    /// Requests issued in the measured (and traced) rounds.
    pub attempted: u64,
    /// Wrong view, wrong id, error or timeout.
    pub failed: u64,
    /// Correct replies of the measured (and traced) rounds.
    pub latency_samples: u64,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
    /// The end-to-end metrics (from untraced rounds only).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs only; empty otherwise).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The environment block.
    pub env: Vec<(String, String)>,
    /// `(ops_per_s, latency_p50_us, latency_p90_us, cpu_ms_per_op)` of
    /// each measured round; each end-to-end timing is their median.
    pub rounds: Vec<[f64; 4]>,
    /// Seconds each timed set-up took; `setup_s` is their median.
    pub setups: Vec<f64>,
}

struct Round {
    ops: u64,
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    cpu_ms_per_op: f64,
}

fn percentile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
    f64::from(sorted[at]) / 1e3
}

fn delta(after: &Stats, before: &Stats, key: &str) -> f64 {
    after
        .get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(key).copied().unwrap_or(0)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Totals of every round of a run, measured and traced.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    rules_tried: u64,
    latency_ns: [Vec<u32>; 3],
}

impl Totals {
    fn absorb(&mut self, parts: Vec<RoundPart>) {
        for part in parts {
            self.attempted += part.attempted;
            self.failed += part.failed;
            self.rules_tried += part.rules_tried;
            for (all, one) in self.latency_ns.iter_mut().zip(part.latency_ns) {
                all.extend(one);
            }
        }
    }

    fn samples(&self) -> u64 {
        self.latency_ns.iter().map(|v| v.len() as u64).sum()
    }
}

fn summarize_round(parts: &[RoundPart], server_cpu_ns: f64) -> Round {
    let mut latencies: Vec<u32> = parts
        .iter()
        .flat_map(|p| p.latency_ns.iter().flatten().copied())
        .collect();
    latencies.sort_unstable();
    let ops = latencies.len() as u64;
    Round {
        ops,
        // Correct replies per second: each connection's own rate, summed.
        ops_per_s: parts
            .iter()
            .map(|p| {
                let ok: usize = p.latency_ns.iter().map(Vec::len).sum();
                ratio(ok as f64, p.elapsed.as_secs_f64())
            })
            .sum(),
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        cpu_ms_per_op: ratio(server_cpu_ns / 1e6, ops as f64),
    }
}

/// Bulk-load the world's `grants` into a fresh sharded WAL directory: the benchmark's
/// input generation, not the server's set-up. Returns
/// `(load seconds, compaction seconds)`.
pub fn bulk_load(grants: Vec<SignedDelegation>, dir: &Path) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let (durable, _) = ShardedDurableRepository::open(
        dir,
        DEFAULT_SHARD_COUNT,
        WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        },
    )
    .map_err(|e| format!("open {}: {e}", dir.display()))?;
    for grant in grants {
        durable.repository().publish_at_issuer(grant);
    }
    durable.sync().map_err(|e| format!("sync: {e}"))?;
    let load = t.elapsed().as_secs_f64();
    let t = Instant::now();
    durable.compact().map_err(|e| format!("compact: {e}"))?;
    Ok((load, t.elapsed().as_secs_f64()))
}

/// After the server has exited: recover the WAL directory read-only and
/// require every acknowledged publish and revocation to be there and no
/// segment to be damaged. Returns the seconds recovery took.
fn check_wal(
    wal_dir: &Path,
    publishes: &[String],
    revocations: &[String],
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let t = Instant::now();
    let (repo, bus, _) =
        Repository::recover_sharded(wal_dir).map_err(|e| format!("recover: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();
    let on_disk: HashSet<String> = repo.all_credentials().iter().map(|c| c.id()).collect();
    let lost = publishes.iter().filter(|id| !on_disk.contains(*id)).count();
    if lost > 0 {
        problems.push(format!(
            "{lost} acknowledged publish(es) missing after recovery"
        ));
    }
    let unrevoked = revocations.iter().filter(|id| !bus.is_revoked(id)).count();
    if unrevoked > 0 {
        problems.push(format!(
            "{unrevoked} acknowledged revocation(s) missing after recovery"
        ));
    }
    match verify_sharded_dir(wal_dir) {
        Ok(report) if report.is_clean() => {}
        Ok(report) => problems.push(format!("WAL segments damaged: {:?}", report.damaged())),
        Err(e) => problems.push(format!("verify: {e}")),
    }
    Ok(recover_s)
}

/// How `seconds` of measurement split into rounds: `(count, length)`.
fn round_plan(seconds: f64) -> (usize, Duration) {
    let rounds = ((seconds / ROUND_TARGET_S).round() as usize).max(5);
    (rounds, Duration::from_secs_f64(seconds / rounds as f64))
}

/// Run one workload once.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let wal_dir = cfg.scratch.join("wal");
    if cfg.scratch.exists() {
        std::fs::remove_dir_all(&cfg.scratch).map_err(|e| format!("clear scratch: {e}"))?;
    }
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("create scratch: {e}"))?;
    let result = run_in(cfg, &wal_dir);
    // Keep the trace and the report; the WAL directory is only input.
    let _ = std::fs::remove_dir_all(&wal_dir);
    result
}

fn run_in(cfg: &RunConfig, wal_dir: &Path) -> Result<Outcome, String> {
    let workload = cfg.workload;
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let depth = workload.depth();

    // Inputs.
    let t = Instant::now();
    let params = if cfg.smoke {
        WorldParams::smoke()
    } else {
        WorldParams::full()
    };
    let world = World::generate(cfg.seed, params);
    let grants = world.grants();
    let worldgen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (_, compact_s) = bulk_load(grants, wal_dir)?;
    let bulk_load_s = t.elapsed().as_secs_f64();

    // Set-up, timed SETUPS times, each in a server process of its own (a
    // restart inside one process leaves the previous repository behind:
    // README, findings); the last one stays up.
    let suite = world
        .principals
        .suite(false, Repository::new(), RevocationBus::new());
    let mut setups = Vec::with_capacity(cfg.setups());
    let (mut server, channels) = loop {
        let mut server = Server::spawn(wal_dir, cfg.seed)?;
        let (took, channels) = client::timed_setup(&mut server, &world, &suite, conns)?;
        setups.push(took.as_secs_f64());
        if setups.len() == cfg.setups() {
            break (server, channels);
        }
        drop(channels);
        server.stop()?;
        server.shutdown()?;
    };
    let mut connections: Vec<Connection<'_>> = channels
        .into_iter()
        .enumerate()
        .map(|(i, ch)| Connection::new(&world, workload, i, conns, depth, ch))
        .collect();

    // Warm-up, unmeasured: as many requests as the world has users (one
    // pass of the cold stream). It fills the pipeline and the caches, and
    // because it is a count and not a time, the server's peak memory after
    // it does not depend on how fast the host happened to be.
    let mut totals = Totals::default();
    let warmup_ops = (world.params.users / conns) as u64;
    totals.absorb(client::run_round(
        &mut connections,
        End::After(warmup_ops),
        None,
    )?);
    // Its requests count as attempted; its latencies are not the rounds'.
    totals.latency_ns.iter_mut().for_each(Vec::clear);
    let first = server.stats()?;

    // Measured rounds.
    let (rounds_n, round_len) = round_plan(cfg.seconds);
    let own_first = procfs::sample_self();
    let steal_first = procfs::machine_steal();
    let timeouts_first = psf_telemetry::registry().counter_value("psf.swbd.rpc.timeouts");
    let mut rounds = Vec::with_capacity(rounds_n);
    let mut before = first.clone();
    for _ in 0..rounds_n {
        let parts = client::timed_round(&mut connections, round_len, None)?;
        let after = server.stats()?;
        rounds.push(summarize_round(&parts, delta(&after, &before, "cpu_ns")));
        totals.absorb(parts);
        before = after;
    }
    let last = before;
    let own_last = procfs::sample_self();
    let steal_last = procfs::machine_steal();
    let measured_ops: f64 = rounds.iter().map(|r| r.ops as f64).sum();

    let over_rounds = |f: fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let hwm_mb = |stats: &Stats| stats.get("hwm_kb").copied().unwrap_or(0) as f64 / 1024.0;
    let end_to_end = BTreeMap::from([
        ("ops_per_s", over_rounds(|r| r.ops_per_s)),
        ("latency_p50_us", over_rounds(|r| r.p50_us)),
        ("latency_p90_us", over_rounds(|r| r.p90_us)),
        ("cpu_ms_per_op", over_rounds(|r| r.cpu_ms_per_op)),
        ("peak_rss_mb", hwm_mb(&first)),
        ("setup_s", median(setups.clone())),
    ]);

    // Traced round and probes.
    let mut per_layer = BTreeMap::new();
    let mut problems = Vec::new();
    if cfg.trace {
        let per_op = |key: &str| ratio(delta(&last, &first, key), measured_ops);
        let rates: Vec<f64> = rounds.iter().map(|r| r.ops_per_s).collect();
        let spread = ratio(
            rates.iter().copied().fold(f64::MIN, f64::max)
                - rates.iter().copied().fold(f64::MAX, f64::min),
            median(rates.clone()),
        );
        let mut sorted: [Vec<u32>; 3] = totals.latency_ns.clone();
        sorted.iter_mut().for_each(|v| v.sort_unstable());
        let mut all: Vec<u32> = sorted.iter().flatten().copied().collect();
        all.sort_unstable();
        let lookups = delta(&last, &first, "proof_hits") + delta(&last, &first, "proof_misses");
        let verdicts = delta(&last, &first, "cred_hits") + delta(&last, &first, "cred_misses");
        let pool = delta(&last, &first, "psf.switchboard.pool.reuse")
            + delta(&last, &first, "psf.switchboard.pool.alloc");
        let cpu_ticks = delta(&last, &first, "utime_ticks") + delta(&last, &first, "stime_ticks");
        let sign_ons = sorted[Class::SignOn as usize].len() as f64;
        per_layer.extend([
            (
                "client.ops_per_s_best_round",
                rates.iter().copied().fold(0.0, f64::max),
            ),
            ("client.latency_p99_us", percentile(&all, 0.99)),
            (
                "client.latency_max_us",
                all.last().map_or(0.0, |&v| f64::from(v) / 1e3),
            ),
            ("client.round_spread", spread),
            (
                "client.signon_p50_us",
                percentile(&sorted[Class::SignOn as usize], 0.5),
            ),
            (
                "client.publish_p50_us",
                percentile(&sorted[Class::Publish as usize], 0.5),
            ),
            (
                "client.revoke_p50_us",
                percentile(&sorted[Class::Revoke as usize], 0.5),
            ),
            // Generator threads end with their round and take their
            // schedstat with them; the process's tick counters keep it.
            (
                "client.cpu_ms_per_op",
                ratio(
                    (own_last.cpu_ticks() - own_first.cpu_ticks()) as f64 * 1e3
                        / procfs::TICKS_PER_S,
                    measured_ops,
                ),
            ),
            ("client.inflight", (conns * depth) as f64),
            ("switchboard.bytes_per_op", per_op("bytes")),
            ("switchboard.frames_per_op", per_op("frames")),
            (
                "switchboard.reactor.wakeups_per_op",
                per_op("psf.switchboard.reactor.wakeups"),
            ),
            (
                "switchboard.pool.reuse_ratio",
                ratio(delta(&last, &first, "psf.switchboard.pool.reuse"), pool),
            ),
            (
                "switchboard.reactor.shards",
                last.get("reactor_shards").copied().unwrap_or(0) as f64,
            ),
            ("drbac.proof.calls_per_op", per_op("psf.drbac.prove.calls")),
            (
                "drbac.proof.nodes_expanded_per_op",
                per_op("psf.drbac.nodes.expanded"),
            ),
            (
                "drbac.proof.creds_examined_per_op",
                per_op("psf.drbac.creds.examined"),
            ),
            (
                "drbac.cache.proof_hit_ratio",
                ratio(delta(&last, &first, "proof_hits"), lookups),
            ),
            (
                "drbac.cache.cred_hit_ratio",
                ratio(delta(&last, &first, "cred_hits"), verdicts),
            ),
            (
                "drbac.cache.proof_invalidations_per_kop",
                per_op("proof_invalidations") * 1e3,
            ),
            ("drbac.repository.queries_per_op", per_op("repo_queries")),
            ("drbac.wal.fsyncs_per_op", per_op("wal_fsyncs")),
            ("drbac.wal.appends_per_op", per_op("wal_appends")),
            ("drbac.wal.bytes_per_op", per_op("wal_bytes")),
            (
                "drbac.wal.group_commit_batch",
                ratio(
                    delta(&last, &first, "wal_appends"),
                    delta(&last, &first, "wal_fsyncs"),
                ),
            ),
            ("drbac.wal.compact_s", compact_s),
            (
                "views.rules_tried_per_op",
                ratio(totals.rules_tried as f64, sign_ons),
            ),
            (
                "process.sys_cpu_share",
                ratio(delta(&last, &first, "stime_ticks"), cpu_ticks),
            ),
            ("process.ctx_switches_per_op", per_op("ctx_switches")),
            ("process.rss_growth_b_per_op", per_op("rss_kb") * 1024.0),
            ("process.peak_rss_mb", hwm_mb(&last)),
            (
                "process.steal_share",
                ratio(
                    steal_last.0.saturating_sub(steal_first.0) as f64,
                    steal_last.1.saturating_sub(steal_first.1) as f64,
                ),
            ),
            ("telemetry.audit_records_per_op", per_op("audit_records")),
            ("bench.worldgen_s", worldgen_s),
            ("bench.bulk_load_s", bulk_load_s),
        ]);

        // The traced round: same load, one request in TRACE_SAMPLE traced
        // on both sides. End-to-end metrics never come from it.
        let tracer = Tracer::default();
        let traced_len = Duration::from_secs_f64((cfg.seconds / 4.0).max(round_len.as_secs_f64()));
        let parts = client::timed_round(&mut connections, traced_len, Some(&tracer))?;
        let traced = summarize_round(&parts, 0.0);
        totals.absorb(parts);
        let (mut spans, dropped) = tracer.finish();
        spans.extend(server.spans()?);
        let summary = trace::summarize(&spans);
        let trace_path = cfg.scratch.join("trace.jsonl");
        std::fs::write(&trace_path, trace::to_jsonl(&spans))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        if summary.orphans > 0 {
            problems.push(format!("{} span(s) without their parent", summary.orphans));
        }
        let span_us = |name: &str| summary.median_us.get(name).copied().unwrap_or(0.0);
        per_layer.extend([
            ("client.encode_us", span_us("client.encode")),
            ("views.select_view_us", span_us("views.select_view")),
            (
                "drbac.revocation.revoke_us",
                span_us("drbac.revocation.revoke"),
            ),
            ("telemetry.spans_dropped", dropped as f64),
            ("trace.coverage", summary.coverage),
            ("trace.sampled_requests", summary.requests as f64),
            ("trace.orphan_spans", summary.orphans as f64),
            (
                "trace.overhead_share",
                ratio(median(rates.clone()) - traced.ops_per_s, median(rates)),
            ),
        ]);

        // Probes against the live server, on connections of their own.
        let frame_len = ratio(
            per_layer["switchboard.bytes_per_op"],
            per_layer["switchboard.frames_per_op"],
        );
        let payload = vec![0u8; (frame_len as usize).saturating_sub(64).max(16)];
        let mut extra = server.start_extra(&suite)?;
        let echo = probes::call_us(&extra, ECHO, &payload, 2_000)?;
        per_layer.insert("switchboard.echo_call_us", echo);
        let plain = server.connect_plain()?;
        per_layer.insert(
            "switchboard.echo_plain_call_us",
            probes::call_us(&plain, ECHO, &payload, 2_000)?,
        );
        drop(plain);

        // The latency a lone user sees: one connection, one call in flight.
        let mut lone = Connection::new(&world, workload, conns, conns + 1, 1, extra);
        let lone_len = Duration::from_secs_f64((cfg.seconds / 2.0).min(2.0));
        let part = lone.run_round(End::At(Instant::now() + lone_len), None)?;
        let mut lone_latency: Vec<u32> = part.latency_ns.iter().flatten().copied().collect();
        lone_latency.sort_unstable();
        per_layer.insert("client.unloaded_p50_us", percentile(&lone_latency, 0.5));
        totals.absorb(vec![part]);
        let (lone_publishes, lone_revocations) =
            (lone.acked_publishes.clone(), lone.acked_revocations.clone());
        extra = lone.into_channel();

        // The library's own repository client against its own handlers.
        let remote = RemoteRepository::new(Arc::new(extra)).without_cache();
        let probe_user = world
            .users
            .iter()
            .find(|u| u.class.is_some())
            .expect("a granted user");
        let t = Instant::now();
        let queries = 500;
        for _ in 0..queries {
            if remote.credentials_by_subject(&probe_user.subject).len() != 1 {
                problems.push("repo.query_by_subject did not return the user's one grant".into());
                break;
            }
        }
        per_layer.insert(
            "core.repo_service.query_call_us",
            t.elapsed().as_secs_f64() * 1e6 / f64::from(queries),
        );
        let mut probe_publishes = lone_publishes;
        let mut publish_us = Vec::new();
        for i in 0..100 {
            let subject = crate::world::synthetic_subject(cfg.seed, &format!("probe-remote{i}"));
            let grant = world.principals.leaf_grant(&subject, i % 4, false);
            let t = Instant::now();
            let ack = remote.publish(&grant.body.issuer, DiscoveryTag::Both, &grant)?;
            publish_us.push(t.elapsed().as_secs_f64() * 1e6);
            if ack != grant.id() {
                problems.push(format!(
                    "repo.publish acknowledged '{ack}', expected '{}'",
                    grant.id()
                ));
            }
            probe_publishes.push(ack);
        }
        let probe_publish_us = median(publish_us);
        let publish_us = match span_us("core.repo_service.publish") {
            traced if traced > 0.0 => traced,
            _ => probe_publish_us,
        };
        per_layer.insert("core.repo_service.publish_call_us", publish_us);
        drop(remote);
        connections[0].acked_publishes.extend(probe_publishes);
        connections[0].acked_revocations.extend(lone_revocations);

        // Direct-call probes, in this process.
        let server_suite = world
            .principals
            .suite(true, Repository::new(), RevocationBus::new());
        let (handshake, accept, close) = probes::connection_cycles(&suite, &server_suite, 50)?;
        per_layer.extend([
            ("switchboard.handshake_us", handshake),
            ("switchboard.accept_us", accept),
            ("switchboard.close_us", close),
        ]);
        per_layer.extend(probes::local(
            &world,
            frame_len as usize,
            &cfg.scratch,
            cfg.smoke,
        )?);

        // What the trace leaves to the switchboard layer. A publish has no
        // handler span (the library's handler cannot be wrapped), so there
        // the handler's share is priced by the direct durable-publish probe.
        let call_self = if summary.call_self_us > 0.0 {
            summary.call_self_us
        } else {
            (publish_us
                - per_layer["drbac.wal.publish_us"]
                - per_layer["drbac.repository.publish_mem_us"])
                .max(0.0)
        };
        per_layer.insert("switchboard.call_self_us", call_self);
        per_layer.insert("switchboard.queue_wait_us", (call_self - echo).max(0.0));
        per_layer.insert(
            "switchboard.rpc.timeouts",
            (psf_telemetry::registry().counter_value("psf.swbd.rpc.timeouts") - timeouts_first)
                as f64,
        );
    }

    // Shut down, then check what the server left on disk.
    let acked_publishes: Vec<String> = connections
        .iter()
        .flat_map(|c| c.acked_publishes.iter().cloned())
        .collect();
    let acked_revocations: Vec<String> = connections
        .iter()
        .flat_map(|c| c.acked_revocations.iter().cloned())
        .collect();
    drop(connections);
    server.stop()?;
    server.shutdown()?;
    let recover_s = check_wal(wal_dir, &acked_publishes, &acked_revocations, &mut problems)?;
    if cfg.trace {
        per_layer.insert("drbac.wal.recover_s", recover_s);
    }
    if totals.failed > 0 {
        problems.push(format!(
            "{} of {} requests failed",
            totals.failed, totals.attempted
        ));
    }
    for (name, ..) in PER_LAYER.iter().filter(|_| cfg.trace) {
        if !per_layer.contains_key(name) {
            problems.push(format!("per-layer metric {name} was not measured"));
        }
    }
    debug_assert!(END_TO_END.iter().all(|(n, ..)| end_to_end.contains_key(n)));

    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: totals.attempted,
        failed: totals.failed,
        latency_samples: totals.samples(),
        problems,
        end_to_end,
        per_layer,
        env: environment(cfg, &world, conns, &last, wal_dir),
        rounds: rounds
            .iter()
            .map(|r| [r.ops_per_s, r.p50_us, r.p90_us, r.cpu_ms_per_op])
            .collect(),
        setups,
    })
}

fn environment(
    cfg: &RunConfig,
    world: &World,
    conns: usize,
    server: &Stats,
    wal_dir: &Path,
) -> Vec<(String, String)> {
    let (rounds, round_len) = round_plan(cfg.seconds);
    let heartbeat = psf_switchboard::ChannelConfig::default().heartbeat_interval;
    // `git` must not wander above the checkout looking for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
    };
    [
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("nproc", conns.to_string()),
        ("connections", conns.to_string()),
        ("depth", cfg.workload.depth().to_string()),
        (
            "load",
            "closed loop, fixed depth per connection, replies reaped in issue order".into(),
        ),
        ("rounds", rounds.to_string()),
        ("round_seconds", format!("{:.3}", round_len.as_secs_f64())),
        ("statistic", "median over the rounds".into()),
        ("warmup_requests", world.params.users.to_string()),
        ("setups", cfg.setups().to_string()),
        ("users", world.params.users.to_string()),
        ("hot_subjects", world.params.hot.to_string()),
        ("mix_hot_subjects", world.params.mix_hot.to_string()),
        ("mix_publish_every", stream::MIX_PUBLISH_EVERY.to_string()),
        ("mix_revoke_every", stream::MIX_REVOKE_EVERY.to_string()),
        (
            "reactor_shards_server",
            server
                .get("reactor_shards")
                .copied()
                .unwrap_or(0)
                .to_string(),
        ),
        (
            "reactor_shards_generator",
            psf_switchboard::reactor::shard_count().to_string(),
        ),
        (
            "heartbeat_ms",
            heartbeat.map_or_else(|| "off".into(), |d| d.as_millis().to_string()),
        ),
        ("rlimit_nofile", procfs::nofile_limit().to_string()),
        (
            "fsync_policy",
            "Always (bulk load: Never + sync + compact)".into(),
        ),
        ("wal_shards", DEFAULT_SHARD_COUNT.to_string()),
        (
            "wal_filesystem",
            procfs::filesystem_of(wal_dir.parent().unwrap_or(wal_dir)),
        ),
        (
            "channel",
            "loopback TCP, Mode::Secure, ChannelBackend::Reactor".into(),
        ),
        ("rustc", tool("rustc", &["--version"])),
        // "unknown" in a checkout that is not a git repository.
        ("commit", tool("git", &["rev-parse", "HEAD"])),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

impl Outcome {
    /// The one-line result the driver reads: end-to-end metrics of an
    /// untraced run, per-layer metrics of a traced one.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(metrics.iter().map(|(name, value)| {
                    (
                        *name,
                        Value::obj([
                            ("value", Value::Num(*value)),
                            ("unit", Value::str(crate::metrics::unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The full report of the run: environment, counts and every metric
    /// with unit and direction.
    pub fn report(&self) -> Value {
        let table = |defs: &mut dyn Iterator<Item = (&'static str, &'static str, &'static str)>,
                     values: &BTreeMap<&'static str, f64>| {
            Value::obj(defs.filter_map(|(name, unit, better)| {
                let value = values.get(name)?;
                Some((
                    name,
                    Value::obj([
                        ("value", Value::Num(*value)),
                        ("unit", Value::str(unit)),
                        ("better", Value::str(better)),
                    ]),
                ))
            }))
        };
        Value::obj([
            (
                "env",
                Value::obj(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
                ),
            ),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("latency_samples", Value::Num(self.latency_samples as f64)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
            (
                "setups",
                Value::Arr(self.setups.iter().map(|v| Value::Num(*v)).collect()),
            ),
            (
                "rounds",
                Value::Arr(
                    self.rounds
                        .iter()
                        .map(|r| Value::Arr(r.iter().map(|v| Value::Num(*v)).collect()))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                table(
                    &mut END_TO_END.iter().map(|&(n, u, b, _)| (n, u, b)),
                    &self.end_to_end,
                ),
            ),
            (
                "per_layer",
                table(&mut PER_LAYER.iter().copied(), &self.per_layer),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        for (k, v) in &self.env {
            println!("env {k} = {v}");
        }
        for (name, value) in self.end_to_end.iter().chain(&self.per_layer) {
            println!("{name} = {value:.6} {}", crate::metrics::unit_of(name));
        }
        println!(
            "attempted = {} failed = {} latency_samples = {} correct = {}",
            self.attempted, self.failed, self.latency_samples, self.correct
        );
        for problem in &self.problems {
            println!("PROBLEM: {problem}");
        }
    }
}
