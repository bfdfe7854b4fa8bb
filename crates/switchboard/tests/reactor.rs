//! Reactor torture coverage: the `tests/pipeline.rs` scenarios replayed
//! over reactor-backed TCP channels (epoll shards, zero threads per
//! channel), plus timer-wheel heartbeat integration — coalesced groups,
//! liveness, RTT — and prompt in-flight failure on close against a
//! server whose hanging handler parks a reader thread, not a shard.

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{DelegationBuilder, SignedDelegation};
use psf_switchboard::transport::{FrameReceiver, FrameSender};
use psf_switchboard::{
    connect_tcp, establish_secure, listen_tcp, AuthSuite, Authorizer, Channel, ChannelConfig,
    ClockRef, SwitchboardError, TcpTransport, Transport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TestWorld {
    registry: EntityRegistry,
    bus: RevocationBus,
    server: Entity,
    client: Entity,
    domain: Entity,
    client_cred: SignedDelegation,
    server_cred: SignedDelegation,
    repo: Repository,
    clock: ClockRef,
}

fn world() -> TestWorld {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Comp.NY", b"reactor-test");
    let server = Entity::with_seed("MailServer", b"reactor-test");
    let client = Entity::with_seed("Bob", b"reactor-test");
    for e in [&domain, &server, &client] {
        registry.register(e);
    }
    let client_cred = DelegationBuilder::new(&domain)
        .subject_entity(&client)
        .role(domain.role("Member"))
        .monitored()
        .sign();
    let server_cred = DelegationBuilder::new(&domain)
        .subject_entity(&server)
        .role(domain.role("Service"))
        .monitored()
        .sign();
    TestWorld {
        registry,
        bus,
        server,
        client,
        domain,
        client_cred,
        server_cred,
        repo,
        clock,
    }
}

impl TestWorld {
    fn suites(&self) -> (AuthSuite, AuthSuite) {
        let client_authorizer = Authorizer::new(
            self.registry.clone(),
            self.repo.clone(),
            self.bus.clone(),
            self.clock.clone(),
            self.domain.role("Service"),
        );
        let server_authorizer = Authorizer::new(
            self.registry.clone(),
            self.repo.clone(),
            self.bus.clone(),
            self.clock.clone(),
            self.domain.role("Member"),
        );
        (
            AuthSuite::new(
                self.client.clone(),
                vec![self.client_cred.clone()],
                client_authorizer,
            ),
            AuthSuite::new(
                self.server.clone(),
                vec![self.server_cred.clone()],
                server_authorizer,
            ),
        )
    }
}

fn reactor_config(heartbeat: Option<Duration>) -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: heartbeat,
        rpc_timeout: Duration::from_secs(10),
    }
}

/// TCP whose receiver declines `take_stream`, so the channel reads it on
/// a reader thread: a handler that hangs parks that thread, never a
/// reactor shard.
struct ReaderThreadTcp(TcpTransport);

struct KeepStream(Box<dyn FrameReceiver>);

impl FrameReceiver for KeepStream {
    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        self.0.recv()
    }

    fn recv_many(&mut self) -> std::io::Result<Vec<Vec<u8>>> {
        self.0.recv_many()
    }
}

impl Transport for ReaderThreadTcp {
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Box<dyn FrameReceiver>) {
        let (tx, rx) = Box::new(self.0).split();
        (tx, Box::new(KeepStream(rx)))
    }
}

/// Accept one connection on `listener` and serve it over
/// [`ReaderThreadTcp`] with a `hang` handler that blocks until `block_rx`
/// fires (or 5 s pass).
fn accept_hanging_server(
    listener: &std::net::TcpListener,
    suite: &AuthSuite,
    block_rx: std::sync::mpsc::Receiver<()>,
) -> Channel {
    let (stream, _) = listener.accept().unwrap();
    let transport = ReaderThreadTcp(TcpTransport::new(stream).unwrap());
    let server = establish_secure(Box::new(transport), suite, false, reactor_config(None)).unwrap();
    let block_rx = std::sync::Mutex::new(block_rx);
    server.register_handler("hang", move |_| {
        let _ = block_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(5));
        Ok(vec![])
    });
    server
}

fn install_echo(channel: &psf_switchboard::Channel) {
    channel.register_handler("echo", |args| Ok(args.to_vec()));
}

/// Live threads of this process, from /proc/self/status.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn torture_concurrent_pipelined_senders_over_reactor_tcp() {
    let w = world();
    let (cs, ss) = w.suites();
    let listener = listen_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        let server = listener.accept(&ss, reactor_config(None)).unwrap();
        install_echo(&server);
        ready_tx.send(()).unwrap();
        server
    });
    let client = Arc::new(connect_tcp(&addr.to_string(), &cs, reactor_config(None)).unwrap());
    ready_rx.recv().unwrap();

    // 8 threads, each keeping a sliding window of 8 requests in flight
    // over one reactor-serviced channel. The peer's strict record-layer
    // sequence check breaks the channel if the shard's edge-triggered
    // reads or the vectored flushes ever reorder frames, so completing
    // at all proves ordering; the echoed bodies prove responses route to
    // the right callers.
    let mut joins = Vec::new();
    for t in 0..8u64 {
        let c = client.clone();
        joins.push(std::thread::spawn(move || {
            let payloads: Vec<Vec<u8>> = (0..32u64)
                .map(|i| (t << 32 | i).to_le_bytes().to_vec())
                .collect();
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let results = c.call_many("echo", &refs, 8);
            for (i, r) in results.into_iter().enumerate() {
                assert_eq!(r.unwrap(), payloads[i], "thread {t} call {i}");
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(client.status(), psf_switchboard::ChannelStatus::Healthy);
    let _server = server_thread.join().unwrap();
}

#[test]
fn revocation_mid_stream_refuses_pipelined_senders_over_reactor_tcp() {
    let w = world();
    let (cs, ss) = w.suites();
    let listener = listen_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        let server = listener.accept(&ss, reactor_config(None)).unwrap();
        install_echo(&server);
        ready_tx.send(()).unwrap();
        server
    });
    let client = Arc::new(connect_tcp(&addr.to_string(), &cs, reactor_config(None)).unwrap());
    ready_rx.recv().unwrap();

    // Phase 1: 8 pipelined senders run clean while authorized.
    let mut joins = Vec::new();
    for t in 0..8u64 {
        let c = client.clone();
        joins.push(std::thread::spawn(move || {
            let payloads: Vec<Vec<u8>> = (0..32u64)
                .map(|i| (t << 32 | i).to_le_bytes().to_vec())
                .collect();
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            assert!(c.call_many("echo", &refs, 8).iter().all(|r| r.is_ok()));
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Mid-stream revocation: the server's credential dies, the client's
    // own AuthorizationMonitor invalidates, and every subsequent
    // pipelined issue from every thread is refused locally.
    w.bus.revoke(&w.server_cred.id());

    let mut joins = Vec::new();
    for _ in 0..8u64 {
        let c = client.clone();
        joins.push(std::thread::spawn(move || {
            let payloads: Vec<Vec<u8>> = (0..16u64).map(|i| i.to_le_bytes().to_vec()).collect();
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            assert!(
                c.call_many("echo", &refs, 8)
                    .iter()
                    .all(|r| matches!(r, Err(SwitchboardError::RevalidationRequired(_)))),
                "post-revocation issues must be refused"
            );
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // The refusal is a local monitor check, not a round trip: µs floor.
    let mut best = Duration::from_secs(1);
    for _ in 0..100 {
        let t = Instant::now();
        let r = client.call_pipelined("echo", b"x");
        let dt = t.elapsed();
        assert!(matches!(r, Err(SwitchboardError::RevalidationRequired(_))));
        best = best.min(dt);
    }
    assert!(
        best <= Duration::from_micros(24),
        "fastest refusal {best:?} exceeds the ~24 µs local-check budget"
    );
    let _server = server_thread.join().unwrap();
}

#[test]
fn close_fails_pending_calls_promptly_over_reactor_tcp() {
    // Reactor client; the server reads on a reader thread, so the
    // hanging handler parks that thread, never a reactor shard, and the
    // test isolates the client-side close path.
    let w = world();
    let (cs, ss) = w.suites();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
    let server_thread = std::thread::spawn(move || {
        let server = accept_hanging_server(&listener, &ss, block_rx);
        ready_tx.send(()).unwrap();
        server
    });
    let client = connect_tcp(&addr.to_string(), &cs, reactor_config(None)).unwrap();
    ready_rx.recv().unwrap();

    let start = Instant::now();
    let pending = client.call_pipelined("hang", b"").unwrap();
    let pending2 = client.call_pipelined("hang", b"").unwrap();
    std::thread::sleep(Duration::from_millis(20)); // let the requests land
    client.close();
    let r1 = pending.wait();
    let r2 = pending2.wait();
    let elapsed = start.elapsed();
    let _ = block_tx.send(());

    assert!(
        matches!(r1, Err(SwitchboardError::Closed)),
        "expected Closed, got {r1:?}"
    );
    assert!(
        matches!(r2, Err(SwitchboardError::Closed)),
        "expected Closed, got {r2:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "pending calls took {elapsed:?} to fail — leaked until rpc_timeout"
    );
    let _server = server_thread.join().unwrap();
}

#[test]
fn peer_death_fails_pending_calls_promptly_over_reactor_tcp() {
    // The server's reader thread parks in a hanging handler; dropping
    // the server closes the channel (FT_CLOSE + fd teardown) and the
    // reactor-backed client must fail its in-flight calls promptly.
    let w = world();
    let (cs, ss) = w.suites();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
    let server_thread = std::thread::spawn(move || {
        let server = accept_hanging_server(&listener, &ss, block_rx);
        ready_tx.send(()).unwrap();
        server
    });
    let client = connect_tcp(&addr.to_string(), &cs, reactor_config(None)).unwrap();
    ready_rx.recv().unwrap();

    let start = Instant::now();
    let pending = client.call_pipelined("hang", b"").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    drop(server_thread.join().unwrap()); // peer endpoint dies
    let r = pending.wait();
    let elapsed = start.elapsed();
    let _ = block_tx.send(());

    assert!(
        matches!(r, Err(SwitchboardError::Closed)),
        "expected Closed, got {r:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "pending call took {elapsed:?} to fail after peer death"
    );
}

#[test]
fn timer_wheel_heartbeats_coalesce_across_reactor_channels() {
    let w = world();
    const CHANNELS: usize = 24;
    let interval = Duration::from_millis(20);

    let listener = listen_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let threads_before = thread_count();

    let fires_before = psf_telemetry::registry()
        .counter("psf.switchboard.reactor.timer_fires")
        .get();
    let coalesced_before = psf_telemetry::registry()
        .counter("psf.switchboard.reactor.coalesced_heartbeats")
        .get();

    // All channels share a host pair and interval, so their heartbeats
    // land in shared wheel groups — one timer fire serves many channels.
    let mut clients = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..CHANNELS {
        let (cs, ss) = w.suites();
        let connect = std::thread::spawn({
            let addr = addr.to_string();
            let cfg = reactor_config(Some(interval));
            move || connect_tcp(&addr, &cs, cfg).unwrap()
        });
        servers.push(
            listener
                .accept(&ss, reactor_config(Some(interval)))
                .unwrap(),
        );
        clients.push(connect.join().unwrap());
    }

    let threads_after = thread_count();
    // Thread-per-connection would add 2 threads per endpoint (reader +
    // heartbeat) × 2 endpoints × CHANNELS ≈ 96 threads. The reactor adds
    // only its fixed shard pool (plus unrelated test-runner noise).
    assert!(
        threads_after.saturating_sub(threads_before) < CHANNELS,
        "reactor channels must not cost threads: {threads_before} -> {threads_after}"
    );

    // Several heartbeat intervals of wall time.
    std::thread::sleep(Duration::from_millis(300));

    for (i, c) in clients.iter().enumerate() {
        assert!(
            c.heartbeats_received() >= 2,
            "client {i} received {} heartbeats",
            c.heartbeats_received()
        );
        assert!(c.is_alive(Duration::from_millis(150)), "client {i} stale");
        assert!(c.last_rtt().is_some(), "client {i} never measured RTT");
    }

    let fires = psf_telemetry::registry()
        .counter("psf.switchboard.reactor.timer_fires")
        .get()
        - fires_before;
    let coalesced = psf_telemetry::registry()
        .counter("psf.switchboard.reactor.coalesced_heartbeats")
        .get()
        - coalesced_before;
    assert!(fires > 0, "timer wheel never fired");
    assert!(
        coalesced > 0,
        "channels sharing a host pair must coalesce heartbeats"
    );

    for c in &clients {
        c.close();
    }
}
