//! Server mode: `psf-bench serve --dir <wal dir> --seed <n>`.
//!
//! The server is a child process of the load generator so that it owns
//! its reactor: when both ends of a channel register with one reactor,
//! which shard the two *server* endpoints land on differs from run to
//! run (see README, findings), and with inline handlers that halves or
//! doubles the server. Here connections are accepted one at a time, so
//! shard assignment is the same in every run, and the process's CPU time
//! and memory are the server's alone.
//!
//! The parent drives it over stdin/stdout, one line each way:
//!
//! | command          | reply                 | effect |
//! |------------------|-----------------------|--------|
//! | `start <conns>`  | `listening <port>` then `ready` | open the WAL directory, build registry/ACL/cache, listen, accept and handshake `conns` connections one after another |
//! | `accept`         | `ready`               | accept and handshake one more connection on the same listener (probes) |
//! | `plain`          | `listening <port>` then `ready` | accept one more connection without the secure record layer (echo probe) |
//! | `stats`          | `stats k=v …`         | counters and `/proc` readings of this process |
//! | `spans`          | `span …` lines, `end` | hand over and clear the traced requests' spans |
//! | `stop`           | `stopped`             | close every channel, the listener and the repository |
//! | EOF              |                       | exit |

use crate::procfs;
use crate::stream::{decode_subject, ECHO, REVOKE, SIGN_ON};
use crate::world::{Principals, DENIED};
use psf_drbac::{AuthCache, FsyncPolicy, ShardedDurableRepository, WalConfig, DEFAULT_SHARD_COUNT};
use psf_switchboard::{
    establish_plain, listen_tcp, AuthSuite, Channel, ChannelConfig, Listener, TcpTransport,
};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Nanoseconds on the clock both processes stamp spans with.
pub fn clock_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// One server-side span of a traced request: `(request, name, start, end)`.
type ServerSpan = (u64, &'static str, u64, u64);

/// What one `start` brings up and one `stop` tears down.
struct Live {
    durable: ShardedDurableRepository,
    cache: AuthCache,
    suite: AuthSuite,
    listener: Listener,
    channels: Vec<Channel>,
}

/// Run the control loop until stdin closes.
pub fn serve(dir: PathBuf, seed: u64) -> Result<(), String> {
    let principals = Principals::new(seed);
    let spans: Arc<Mutex<Vec<ServerSpan>>> = Arc::default();
    let mut live: Option<Live> = None;
    let stdout = std::io::stdout();
    let say = |line: String| {
        let mut out = stdout.lock();
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("control pipe: {e}"))
    };
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("control pipe: {e}"))?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["start", conns] => {
                let conns: usize = conns.parse().map_err(|_| "start: bad count".to_string())?;
                let (durable, _) = ShardedDurableRepository::open(
                    &dir,
                    DEFAULT_SHARD_COUNT,
                    WalConfig {
                        fsync: FsyncPolicy::Always,
                        auto_compact_appends: None,
                    },
                )
                .map_err(|e| format!("open {}: {e}", dir.display()))?;
                let live = live.insert(Live {
                    suite: principals.suite(
                        true,
                        durable.repository().clone(),
                        durable.bus().clone(),
                    ),
                    listener: listen_tcp("127.0.0.1:0").map_err(|e| e.to_string())?,
                    cache: AuthCache::new(),
                    durable,
                    channels: Vec::with_capacity(conns),
                });
                let port = live
                    .listener
                    .local_addr()
                    .map_err(|e| e.to_string())?
                    .port();
                say(format!("listening {port}"))?;
                for _ in 0..conns {
                    live.accept(&principals, &spans)?;
                }
                say("ready".into())?;
            }
            ["accept"] => {
                live.as_mut()
                    .ok_or("accept: not started")?
                    .accept(&principals, &spans)?;
                say("ready".into())?;
            }
            ["plain"] => {
                let live = live.as_mut().ok_or("plain: not started")?;
                let listener =
                    std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
                let port = listener.local_addr().map_err(|e| e.to_string())?.port();
                say(format!("listening {port}"))?;
                let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
                let transport = TcpTransport::new(stream).map_err(|e| e.to_string())?;
                let channel = establish_plain(Box::new(transport), ChannelConfig::default());
                channel.register_handler(ECHO, |_| Ok(Vec::new()));
                live.channels.push(channel);
                say("ready".into())?;
            }
            ["stats"] => {
                let live = live.as_ref().ok_or("stats: not started")?;
                say(stats_line(live))?;
            }
            ["spans"] => {
                let taken = std::mem::take(&mut *spans.lock().expect("span buffer poisoned"));
                for (request, name, start, end) in taken {
                    say(format!("span {request} {name} {start} {end}"))?;
                }
                say("end".into())?;
            }
            ["stop"] => {
                if let Some(live) = live.take() {
                    for channel in &live.channels {
                        channel.close();
                    }
                    drop(live);
                }
                say("stopped".into())?;
            }
            _ => return Err(format!("unknown command: {line}")),
        }
    }
    Ok(())
}

impl Live {
    /// Accept one secure connection, handshake, and serve it.
    fn accept(
        &mut self,
        principals: &Principals,
        spans: &Arc<Mutex<Vec<ServerSpan>>>,
    ) -> Result<(), String> {
        let channel = self
            .listener
            .accept(&self.suite, ChannelConfig::default())
            .map_err(|e| format!("accept: {e}"))?;
        register_handlers(&channel, principals, &self.durable, &self.cache, spans);
        self.channels.push(channel);
        Ok(())
    }
}

/// The sign-on, revocation and echo handlers of the benchmark beside the
/// library's own repository protocol (`repo.publish`, `repo.query_*`).
fn register_handlers(
    channel: &Channel,
    principals: &Principals,
    durable: &ShardedDurableRepository,
    cache: &AuthCache,
    spans: &Arc<Mutex<Vec<ServerSpan>>>,
) {
    psf_core::repo_service::serve_sharded_durable_repository(channel, durable);
    channel.register_handler(ECHO, |_| Ok(Vec::new()));

    let (acl, registry) = (principals.acl.clone(), principals.registry.clone());
    let (repo, bus) = (durable.repository().clone(), durable.bus().clone());
    let (cache, sink) = (cache.clone(), spans.clone());
    channel.register_handler(SIGN_ON, move |args| {
        // A non-zero request id marks a traced request; the others never
        // read the clock.
        let traced = args.get(..8).is_some_and(|id| id != [0u8; 8]);
        let entered = if traced { clock_ns() } else { 0 };
        let (request, subject) = decode_subject(args)?;
        let selecting = if traced { clock_ns() } else { 0 };
        let view = acl.select_view_cached(&subject, &[], &registry, &repo, &bus, 0, &cache);
        let reply = view.map_or_else(|| DENIED.as_bytes().to_vec(), |(v, _)| v.into_bytes());
        if traced {
            let selected = clock_ns();
            let mut sink = sink.lock().expect("span buffer poisoned");
            sink.push((request, "views.select_view", selecting, selected));
            sink.push((request, "handler.sign_on", entered, clock_ns()));
        }
        Ok(reply)
    });

    let (bus, sink) = (durable.bus().clone(), spans.clone());
    channel.register_handler(REVOKE, move |args| {
        let (request, id) = args.split_first_chunk::<8>().ok_or("short revoke args")?;
        let request = u64::from_le_bytes(*request);
        let traced = request != 0;
        let entered = if traced { clock_ns() } else { 0 };
        let id = std::str::from_utf8(id).map_err(|_| "credential id is not utf-8")?;
        let revoking = if traced { clock_ns() } else { 0 };
        bus.revoke(id);
        if traced {
            let revoked = clock_ns();
            let mut sink = sink.lock().expect("span buffer poisoned");
            sink.push((request, "drbac.revocation.revoke", revoking, revoked));
            sink.push((request, "handler.revoke", entered, clock_ns()));
        }
        Ok(id.as_bytes().to_vec())
    });
}

/// Every counter the report reads, as `stats key=value …`. Library
/// counters come from their public snapshots (`AuthCache::stats`,
/// `ShardedDurableRepository::stats`, `Channel::traffic`) and the
/// telemetry registry; the rest is `/proc/self`.
fn stats_line(live: &Live) -> String {
    let p = procfs::sample_self();
    let cache = live.cache.stats();
    let wal = live.durable.stats();
    let repo = live.durable.repository().stats();
    let (mut frames, mut bytes) = (0u64, 0u64);
    for channel in &live.channels {
        let t = channel.traffic();
        frames += t.frames_sent + t.frames_received;
        bytes += t.bytes_sent + t.bytes_received;
    }
    let wal_bytes: u64 = wal.shards.iter().map(|s| s.log_bytes).sum::<u64>() + wal.bus.log_bytes;
    let audit = psf_telemetry::audit::global();
    let mut line = format!(
        "stats cpu_ns={} utime_ticks={} stime_ticks={} rss_kb={} hwm_kb={} ctx_switches={} \
         proof_hits={} proof_misses={} proof_invalidations={} cred_hits={} cred_misses={} \
         wal_appends={} wal_fsyncs={} wal_bytes={wal_bytes} repo_queries={} frames={frames} \
         bytes={bytes} audit_records={} reactor_shards={}",
        p.cpu_ns,
        p.utime_ticks,
        p.stime_ticks,
        p.rss_kb,
        p.hwm_kb,
        p.ctx_switches,
        cache.proof_hits,
        cache.proof_misses,
        cache.proof_invalidations,
        cache.cred_hits,
        cache.cred_misses,
        wal.appends,
        wal.fsyncs,
        repo.queries,
        audit.len() as u64 + audit.dropped(),
        psf_switchboard::reactor::shard_count(),
    );
    let registry = psf_telemetry::registry();
    for name in TELEMETRY_COUNTERS {
        line.push_str(&format!(" {name}={}", registry.counter_value(name)));
    }
    line
}

/// Telemetry counters shipped verbatim in every `stats` reply.
pub const TELEMETRY_COUNTERS: [&str; 6] = [
    "psf.drbac.prove.calls",
    "psf.drbac.nodes.expanded",
    "psf.drbac.creds.examined",
    "psf.switchboard.reactor.wakeups",
    "psf.switchboard.pool.reuse",
    "psf.switchboard.pool.alloc",
];
