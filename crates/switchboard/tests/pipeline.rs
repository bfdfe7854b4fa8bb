//! Pipelined-RPC integration coverage: ordering and replay safety under
//! concurrent sliding-window senders (in-memory and real TCP), prompt
//! failure of in-flight calls on channel death, and µs-scale refusal of
//! pipelined traffic after mid-stream revocation.

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{DelegationBuilder, SignedDelegation};
use psf_switchboard::{
    pair_in_memory, pair_in_memory_plain, AuthSuite, Authorizer, ChannelConfig, ClockRef,
    SwitchboardError,
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
    let domain = Entity::with_seed("Comp.NY", b"pipeline-test");
    let server = Entity::with_seed("MailServer", b"pipeline-test");
    let client = Entity::with_seed("Bob", b"pipeline-test");
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

fn quiet_config() -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout: Duration::from_secs(10),
    }
}

/// The echo-with-index handler used by the ordering tests: replies with
/// its argument, so a misrouted response is immediately visible.
fn install_echo(channel: &psf_switchboard::Channel) {
    channel.register_handler("echo", |args| Ok(args.to_vec()));
}

#[test]
fn pipelined_batch_preserves_order_secure_in_memory() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    install_echo(&server);

    let payloads: Vec<Vec<u8>> = (0..256u32).map(|i| i.to_le_bytes().to_vec()).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let results = client.call_many("echo", &refs, 32);
    assert_eq!(results.len(), 256);
    for (i, r) in results.into_iter().enumerate() {
        assert_eq!(
            r.unwrap(),
            (i as u32).to_le_bytes().to_vec(),
            "response {i} out of order"
        );
    }
}

#[test]
fn pipelined_overlaps_instead_of_serializing() {
    // Serial calls pay a full request→wakeup→response→wakeup ping-pong
    // per call; a sliding window keeps the dispatch thread fed so the
    // per-call wait overlaps with in-flight work. With a trivial handler
    // the context-switch tax dominates, so the pipelined form must be
    // strictly faster over a large batch.
    let (client, server) = pair_in_memory_plain(quiet_config());
    install_echo(&server);
    let payloads: Vec<Vec<u8>> = (0..512u32).map(|i| i.to_le_bytes().to_vec()).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();

    // Warm-up (thread spin-up, pool population) outside the timed region.
    for r in refs.iter().take(16) {
        client.call("echo", r).unwrap();
    }

    let start = Instant::now();
    for r in &refs {
        client.call("echo", r).unwrap();
    }
    let serial = start.elapsed();

    let start = Instant::now();
    let results = client.call_many("echo", &refs, 64);
    let pipelined = start.elapsed();
    assert!(results.iter().all(|r| r.is_ok()));

    assert!(
        pipelined < serial,
        "pipelined {pipelined:?} not faster than serial {serial:?}"
    );
}

#[test]
fn concurrent_pipelined_senders_multiplex_in_memory() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    install_echo(&server);
    let client = Arc::new(client);

    // 8 threads, each keeping a sliding window of 8 requests in flight
    // over the same channel. The record layer's strict sequence check on
    // the peer breaks the channel if interleaved sends ever reorder, so
    // completing at all proves replay/ordering safety; the echoed bodies
    // prove responses route to the right callers.
    let mut joins = Vec::new();
    for t in 0..8u64 {
        let c = client.clone();
        joins.push(std::thread::spawn(move || {
            let payloads: Vec<Vec<u8>> = (0..64u64)
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
}

#[test]
fn concurrent_pipelined_senders_multiplex_over_tcp() {
    let w = world();
    let (cs, ss) = w.suites();
    let listener = psf_switchboard::listen_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        let server = listener.accept(&ss, quiet_config()).unwrap();
        install_echo(&server);
        ready_tx.send(()).unwrap();
        server
    });
    let client =
        Arc::new(psf_switchboard::connect_tcp(&addr.to_string(), &cs, quiet_config()).unwrap());
    ready_rx.recv().unwrap();

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
    let _server = server_thread.join().unwrap();
}

#[test]
fn close_fails_pending_calls_promptly() {
    // Regression: a pending call must fail with `Closed` as soon as the
    // channel dies, not idle out the full RPC timeout (10 s here).
    let (client, server) = pair_in_memory_plain(quiet_config());
    let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
    let block_rx = std::sync::Mutex::new(block_rx);
    server.register_blocking_handler("hang", move |_| {
        // Park the server's drain thread so the response never comes.
        let _ = block_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(5));
        Ok(vec![])
    });

    let start = Instant::now();
    let pending = client.call_pipelined("hang", b"").unwrap();
    let pending2 = client.call_pipelined("hang", b"").unwrap();
    std::thread::sleep(Duration::from_millis(20)); // let the request land
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
}

#[test]
fn peer_death_fails_pending_calls_promptly() {
    // Same regression via the other death mode: the peer endpoint drops
    // (transport gone) rather than a local close().
    let (client, server) = pair_in_memory_plain(quiet_config());
    let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
    let block_rx = std::sync::Mutex::new(block_rx);
    server.register_blocking_handler("hang", move |_| {
        let _ = block_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(5));
        Ok(vec![])
    });

    let start = Instant::now();
    let pending = client.call_pipelined("hang", b"").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    drop(server); // Drop closes the channel, notifying the peer
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
fn revocation_mid_pipeline_refuses_promptly() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    install_echo(&server);

    // Warm the pipeline while authorized.
    let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    assert!(client.call_many("echo", &refs, 8).iter().all(|r| r.is_ok()));

    // The server's credential is revoked mid-stream: the client's own
    // AuthorizationMonitor invalidates, so further pipelined issues are
    // refused locally — no round trip, no timeout.
    w.bus.revoke(&w.server_cred.id());

    let results = client.call_many("echo", &refs, 8);
    assert!(
        results
            .iter()
            .all(|r| matches!(r, Err(SwitchboardError::RevalidationRequired(_)))),
        "all post-revocation issues must be refused"
    );

    // The refusal is a local monitor check (two lock acquisitions), not a
    // network operation: its floor is microseconds. Use the minimum over
    // many probes so scheduler noise on shared CI cannot flake the bound.
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
}
