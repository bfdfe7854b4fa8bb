//! Reactor torture coverage: the `tests/pipeline.rs` scenarios replayed
//! over reactor-backed TCP channels (epoll shards, zero threads per
//! channel), plus timer-wheel heartbeat integration — coalesced groups,
//! liveness, RTT — and prompt in-flight failure on close against a
//! server whose hanging blocking handler parks its drain thread, not a
//! shard.

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{DelegationBuilder, SignedDelegation};
use psf_switchboard::{
    connect_tcp, establish_plain, establish_secure, listen_tcp, pair_in_memory_plain, AuthSuite,
    Authorizer, Channel, ChannelConfig, ClockRef, SwitchboardError, TcpTransport,
};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Accept one connection on `listener` and serve it with a blocking
/// `hang` handler that waits until `block_rx` fires (or 5 s pass).
fn accept_hanging_server(
    listener: &std::net::TcpListener,
    suite: &AuthSuite,
    block_rx: std::sync::mpsc::Receiver<()>,
) -> Channel {
    let (stream, _) = listener.accept().unwrap();
    let transport = TcpTransport::new(stream).unwrap();
    let server = establish_secure(Box::new(transport), suite, false, reactor_config(None)).unwrap();
    let block_rx = std::sync::Mutex::new(block_rx);
    server.register_blocking_handler("hang", move |_| {
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
    // The server's hanging handler is blocking, so it parks its drain
    // thread, never a reactor shard, and the test isolates the
    // client-side close path.
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
    // The server's drain thread parks in a hanging handler; dropping
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

fn quiet_config(rpc_timeout: Duration) -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout,
    }
}

#[test]
fn handler_calling_back_over_its_own_channel() {
    // In memory, a blocking handler on the server calls the client over
    // the same channel: the reply must be read while the handler waits,
    // so the handler cannot run where that channel's frames are read.
    let (client, server) = pair_in_memory_plain(quiet_config(Duration::from_millis(800)));
    client.register_handler("whoami", |_| Ok(b"client".to_vec()));
    let server = Arc::new(server);
    let back = Arc::downgrade(&server);
    server.register_blocking_handler("relay", move |_| {
        let server = back.upgrade().ok_or("server gone")?;
        server.call("whoami", b"").map_err(|e| e.to_string())
    });
    assert_eq!(client.call("relay", b"").unwrap(), b"client");
}

/// A plain channel pair over loopback TCP.
fn plain_tcp_pair(config: ChannelConfig) -> (Channel, Channel) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    let client = establish_plain(Box::new(TcpTransport::new(stream).unwrap()), config.clone());
    let server = establish_plain(Box::new(TcpTransport::new(accepted).unwrap()), config);
    (client, server)
}

#[test]
fn blocking_handler_does_not_stall_its_shard() {
    // One pair per shard: wherever the hanging server is pinned, another
    // pair's endpoint shares its shard, and must keep answering.
    let config = quiet_config(Duration::from_secs(10));
    let pairs: Vec<(Channel, Channel)> = (0..psf_switchboard::reactor::shard_count().max(2))
        .map(|_| plain_tcp_pair(config.clone()))
        .collect();
    let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
    let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
    let block_rx = std::sync::Mutex::new(block_rx);
    for (_, server) in &pairs {
        install_echo(server);
    }
    pairs[0].1.register_blocking_handler("hang", move |_| {
        parked_tx.send(()).unwrap();
        let _ = block_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(5));
        Ok(vec![])
    });
    let parked = pairs[0].0.call_pipelined("hang", b"").unwrap();
    parked_rx.recv_timeout(Duration::from_secs(5)).unwrap(); // the hang is parked
    for (i, (client, _)) in pairs.iter().enumerate().skip(1) {
        let reply = client.call_timeout("echo", b"ping", Duration::from_millis(500));
        assert_eq!(reply.unwrap(), b"ping", "pair {i} stalled behind the hang");
    }
    assert!(!parked.is_complete(), "the hang answered early");
    block_tx.send(()).unwrap();
    assert_eq!(parked.wait().unwrap(), b"");
}

#[test]
fn inline_handler_waiting_on_a_call_fails_fast() {
    // An inline handler runs on a shard; a wait there would park every
    // channel pinned to it until the RPC timeout. It fails at once, and
    // no request leaves, so no remote effect is orphaned.
    let config = quiet_config(Duration::from_secs(10));
    let (front, front_server) = pair_in_memory_plain(config.clone());
    let (back, back_server) = pair_in_memory_plain(config);
    let ran = Arc::new(AtomicUsize::new(0));
    let counter = ran.clone();
    back_server.register_handler("echo", move |args| {
        counter.fetch_add(1, Ordering::SeqCst);
        Ok(args.to_vec())
    });
    let back = Arc::new(back);
    let inner_back = back.clone();
    front_server.register_handler("forward", move |args| {
        let call = inner_back.call("echo", args);
        let wait = inner_back
            .call_pipelined("echo", args)
            .and_then(|pending| pending.wait());
        let many = inner_back.call_many("echo", &[args; 5], 2);
        let refused =
            |r: &Result<Vec<u8>, SwitchboardError>| matches!(r, Err(SwitchboardError::WaitOnShard));
        match (call, wait) {
            (Err(SwitchboardError::WaitOnShard), Err(SwitchboardError::WaitOnShard))
                if many.len() == 5 && many.iter().all(refused) =>
            {
                Ok(b"refused".to_vec())
            }
            other => Err(format!("{other:?} {many:?}")),
        }
    });
    let start = Instant::now();
    let reply = front.call("forward", b"x");
    let elapsed = start.elapsed();
    assert_eq!(reply.unwrap(), b"refused");
    assert!(elapsed < Duration::from_millis(50), "took {elapsed:?}");
    // Off the shard the same call simply works; it is the first to run.
    assert_eq!(back.call("echo", b"y").unwrap(), b"y");
    assert_eq!(ran.load(Ordering::SeqCst), 1, "a refused request ran");
}

#[test]
fn serial_blocking_requests_share_one_drain_thread() {
    // Back-to-back requests find the drain thread still lingering, so a
    // hop served serially does not start a thread per request; once the
    // channel goes idle, the thread exits.
    struct OnExit(std::sync::mpsc::Sender<()>);
    impl Drop for OnExit {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }
    thread_local! {
        static EXIT: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
    }
    let (client, server) = pair_in_memory_plain(quiet_config(Duration::from_secs(10)));
    let (exit_tx, exit_rx) = std::sync::mpsc::channel();
    let exit_tx = std::sync::Mutex::new(exit_tx);
    server.register_blocking_handler("thread", move |_| {
        EXIT.with(|e| {
            e.borrow_mut()
                .get_or_insert_with(|| OnExit(exit_tx.lock().unwrap().clone()));
        });
        Ok(format!("{:?}", std::thread::current().id()).into_bytes())
    });
    // A thread per request would give 21 ids; a scheduling stall longer
    // than the linger on a loaded machine may give a few.
    let threads: std::collections::HashSet<Vec<u8>> = (0..21)
        .map(|_| client.call("thread", b"").unwrap())
        .collect();
    assert!(threads.len() < 5, "{} threads for 21 calls", threads.len());
    exit_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the idle drain thread never exited");
}
