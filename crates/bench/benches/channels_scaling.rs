//! **Channel-count scaling** — how many live secure channels one process
//! holds once the Switchboard reactor services them (PR 9: epoll shards,
//! timer-wheel heartbeats, zero threads per TCP channel).
//!
//! The harness establishes a fleet of reactor-backed secure TCP channels
//! (both endpoints in-process, spread over loopback addresses), leaves
//! timer-wheel heartbeats running across the whole fleet, and then
//! measures the operations that matter at scale: RPC latency through one
//! channel while the rest idle-heartbeat, an explicit heartbeat
//! round-trip under fleet load, and the per-batch establishment rate.
//!
//! Full runs target 100k channels; `PSF_BENCH_QUICK=1` (CI's
//! `experiments` job) drops to 10k. Either way the fleet is clamped to
//! what `RLIMIT_NOFILE` permits — each in-process channel pair costs 4
//! fds — and the achieved count is printed so clamped runs are never
//! mistaken for full ones. This is the only harness that holds a fleet;
//! it does not measure RSS per channel, and nothing in the tree measures
//! the thread-per-connection baseline any more (EXPERIMENTS.md F4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_switchboard::{
    connect_tcp, listen_tcp, AuthSuite, Authorizer, Channel, ChannelBackend, ChannelConfig,
    ClockRef,
};
use std::time::Duration;

const LANES: usize = 8;

fn suites() -> (AuthSuite, AuthSuite) {
    let registry = EntityRegistry::new();
    let repository = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Dom", b"f9ch");
    let server = Entity::with_seed("Srv", b"f9ch");
    let client = Entity::with_seed("Cli", b"f9ch");
    for e in [&domain, &server, &client] {
        registry.register(e);
    }
    let client_cred = DelegationBuilder::new(&domain)
        .subject_entity(&client)
        .role(domain.role("Member"))
        .sign();
    let server_cred = DelegationBuilder::new(&domain)
        .subject_entity(&server)
        .role(domain.role("Service"))
        .sign();
    let auth = |role: &str| {
        Authorizer::new(
            registry.clone(),
            repository.clone(),
            bus.clone(),
            clock.clone(),
            domain.role(role),
        )
    };
    (
        AuthSuite::new(client, vec![client_cred], auth("Service")),
        AuthSuite::new(server, vec![server_cred], auth("Member")),
    )
}

fn config(heartbeat: Option<Duration>) -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: heartbeat,
        rpc_timeout: Duration::from_secs(10),
        backend: ChannelBackend::Reactor,
    }
}

/// Establish `n` secure reactor channel pairs across `LANES` loopback
/// listener addresses with one connector/acceptor thread pair per lane.
fn establish(
    n: usize,
    client_suite: &AuthSuite,
    server_suite: &AuthSuite,
    heartbeat: Option<Duration>,
) -> (Vec<Channel>, Vec<Channel>) {
    let lanes = LANES.min(n.max(1));
    let listeners: Vec<_> = (0..lanes)
        .map(|lane| listen_tcp(&format!("127.0.0.{}:0", lane + 1)).expect("listen"))
        .collect();
    std::thread::scope(|s| {
        let mut acceptors = Vec::new();
        let mut connectors = Vec::new();
        for (lane, listener) in listeners.iter().enumerate() {
            let count = n / lanes + usize::from(lane < n % lanes);
            let addr = listener.local_addr().expect("addr").to_string();
            acceptors.push(s.spawn(move || -> Vec<Channel> {
                (0..count)
                    .map(|_| listener.accept(server_suite, config(heartbeat)).unwrap())
                    .collect()
            }));
            connectors.push(s.spawn(move || -> Vec<Channel> {
                (0..count)
                    .map(|_| connect_tcp(&addr, client_suite, config(heartbeat)).unwrap())
                    .collect()
            }));
        }
        let mut servers = Vec::with_capacity(n);
        let mut clients = Vec::with_capacity(n);
        for a in acceptors {
            servers.extend(a.join().expect("acceptor"));
        }
        for c in connectors {
            clients.extend(c.join().expect("connector"));
        }
        (clients, servers)
    })
}

/// Channels the fd budget allows: 4 fds per in-process pair, headroom
/// for listeners/epoll/wakeups.
fn fd_clamp(target: usize) -> usize {
    let (soft, _hard) = psf_switchboard::reactor::raise_nofile_limit();
    target.min(((soft as usize).saturating_sub(1024) / 4).max(64))
}

fn bench_channels_scaling(c: &mut Criterion) {
    let quick = std::env::var_os("PSF_BENCH_QUICK").is_some();
    let target: usize = if quick { 10_000 } else { 100_000 };
    let fleet_size = fd_clamp(target);
    if fleet_size < target {
        eprintln!("channels_scaling: RLIMIT_NOFILE clamps the fleet to {fleet_size} channels");
    }
    let (client_suite, server_suite) = suites();
    let hb = Duration::from_secs(1);

    let mut group = c.benchmark_group("channels_scaling");
    group.sample_size(10);

    // Establishment rate, measured on small batches so iteration stays
    // inside the fd budget (channels torn down between iterations).
    group.bench_function(BenchmarkId::new("establish_batch", 64), |b| {
        b.iter(|| {
            let (clients, servers) = establish(64, &client_suite, &server_suite, None);
            for ch in clients.iter().chain(servers.iter()) {
                ch.close();
            }
            (clients, servers)
        });
    });

    // The fleet: every channel heartbeating off the shard timer wheels.
    let (clients, servers) = establish(fleet_size, &client_suite, &server_suite, Some(hb));
    for s in &servers {
        s.register_handler("echo", |args| Ok(args.to_vec()));
    }
    eprintln!(
        "channels_scaling: fleet of {fleet_size} secure channels live on {} reactor shard(s)",
        psf_switchboard::reactor::shard_count()
    );

    // RPC through one channel while `fleet_size - 1` others idle with
    // live heartbeats: the cost of sharing a shard with the fleet.
    let payload = vec![0xa5u8; 64];
    group.bench_with_input(
        BenchmarkId::new("rpc_64b_under_fleet", fleet_size),
        &payload,
        |b, p| {
            b.iter(|| clients[0].call("echo", p).unwrap());
        },
    );

    // Explicit heartbeat round-trip under fleet load.
    group.bench_with_input(
        BenchmarkId::new("heartbeat_rtt_under_fleet", fleet_size),
        &fleet_size,
        |b, _| {
            b.iter(|| {
                clients[1].send_heartbeat().unwrap();
            });
        },
    );

    group.finish();
    for ch in clients.iter().chain(servers.iter()) {
        ch.close();
    }
}

criterion_group!(benches, bench_channels_scaling);
criterion_main!(benches);
