//! Integration tests for Switchboard channels: handshake, RPC,
//! encryption, heartbeats/RTT, and continuous authorization (F4
//! behaviours from DESIGN.md).

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{DelegationBuilder, SignedDelegation};
use psf_switchboard::{
    pair_in_memory, pair_in_memory_plain, AuthSuite, Authorizer, ChannelConfig, ChannelStatus,
    ClockRef, SwitchboardError,
};
use std::time::Duration;

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
    let domain = Entity::with_seed("Comp.NY", b"swbd-test");
    let server = Entity::with_seed("MailServer", b"swbd-test");
    let client = Entity::with_seed("Bob", b"swbd-test");
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
        // Client requires the peer to be a Service; server requires Member.
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
        let client_suite = AuthSuite::new(
            self.client.clone(),
            vec![self.client_cred.clone()],
            client_authorizer,
        );
        let server_suite = AuthSuite::new(
            self.server.clone(),
            vec![self.server_cred.clone()],
            server_authorizer,
        );
        (client_suite, server_suite)
    }
}

fn quiet_config() -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout: Duration::from_secs(5),
        ..Default::default()
    }
}

#[test]
fn secure_rpc_roundtrip_in_memory() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("getEmail", |args| {
        Ok(format!("{}@comp.example", String::from_utf8_lossy(args)).into_bytes())
    });
    let reply = client.call("getEmail", b"alice").unwrap();
    assert_eq!(reply, b"alice@comp.example");
    assert_eq!(client.status(), ChannelStatus::Healthy);
    assert_eq!(server.peer().unwrap().name.0, "Bob");
    assert_eq!(client.peer().unwrap().name.0, "MailServer");
}

#[test]
fn bidirectional_rpc() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("ping", |_| Ok(b"pong".to_vec()));
    client.register_handler("notify", |args| Ok(args.to_vec()));
    assert_eq!(client.call("ping", b"").unwrap(), b"pong");
    // The server can call back over the same channel (two-way RPC).
    assert_eq!(server.call("notify", b"new-mail").unwrap(), b"new-mail");
}

#[test]
fn handler_errors_propagate() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("boom", |_| Err("kaput".into()));
    match client.call("boom", b"") {
        Err(SwitchboardError::Remote(m)) => assert_eq!(m, "kaput"),
        other => panic!("expected Remote error, got {other:?}"),
    }
    match client.call("nope", b"") {
        Err(SwitchboardError::Remote(m)) => assert!(m.contains("no such method")),
        other => panic!("expected NoSuchMethod error, got {other:?}"),
    }
}

#[test]
fn unauthorized_peer_cannot_connect() {
    let w = world();
    let (mut cs, ss) = w.suites();
    cs.credentials.clear(); // client shows up with no credentials
    let err = pair_in_memory(cs, ss, quiet_config());
    assert!(err.is_err());
}

#[test]
fn stranger_with_own_key_rejected() {
    let w = world();
    let (mut cs, ss) = w.suites();
    // Mallory uses her own identity but presents Bob's credential.
    let mallory = Entity::with_seed("Mallory", b"elsewhere");
    w.registry.register(&mallory);
    cs.identity = mallory;
    let err = pair_in_memory(cs, ss, quiet_config());
    assert!(
        err.is_err(),
        "credential subject key must bind the channel identity"
    );
}

#[test]
fn revocation_mid_connection_blocks_requests_then_revalidation_restores() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("read", |_| Ok(b"mail".to_vec()));
    assert_eq!(client.call("read", b"").unwrap(), b"mail");

    // The client's credential is revoked mid-connection.
    w.bus.revoke(&w.client_cred.id());

    // The server now refuses service pending revalidation.
    match client.call("read", b"") {
        Err(SwitchboardError::RevalidationRequired(_)) => {}
        other => panic!("expected RevalidationRequired, got {other:?}"),
    }
    assert_eq!(
        server.status(),
        ChannelStatus::RevalidationRequired(w.client_cred.id())
    );

    // The domain issues a fresh credential; the client re-validates.
    let fresh = DelegationBuilder::new(&w.domain)
        .subject_entity(&w.client)
        .role(w.domain.role("Member"))
        .monitored()
        .serial(2) // re-issue: distinct credential id
        .sign();
    let accepted = client
        .offer_revalidation(&[fresh], Duration::from_secs(5))
        .unwrap();
    assert!(accepted);
    assert_eq!(client.call("read", b"").unwrap(), b"mail");
    assert_eq!(server.status(), ChannelStatus::Healthy);
}

#[test]
fn revalidation_with_bad_credentials_is_refused() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, _server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    w.bus.revoke(&w.client_cred.id());
    // Offer an unrelated credential that proves nothing.
    let unrelated = DelegationBuilder::new(&w.domain)
        .subject_entity(&w.client)
        .role(w.domain.role("SomethingElse"))
        .sign();
    let accepted = client
        .offer_revalidation(&[unrelated], Duration::from_secs(5))
        .unwrap();
    assert!(!accepted);
}

#[test]
fn heartbeats_measure_rtt_and_liveness() {
    let w = world();
    let (cs, ss) = w.suites();
    let config = ChannelConfig {
        heartbeat_interval: Some(Duration::from_millis(20)),
        rpc_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    let (client, server) = pair_in_memory(cs, ss, config).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        client.last_rtt().is_some(),
        "client should have an RTT sample"
    );
    assert!(server.heartbeats_received() >= 2);
    assert!(client.is_alive(Duration::from_secs(1)));
    client.close();
    std::thread::sleep(Duration::from_millis(50));
    assert!(!client.is_alive(Duration::from_secs(1)));
}

#[test]
fn plain_mode_carries_rpc_without_auth() {
    let (a, b) = pair_in_memory_plain(quiet_config());
    b.register_handler("echo", |args| Ok(args.to_vec()));
    assert_eq!(a.call("echo", b"rmi-style").unwrap(), b"rmi-style");
    assert!(a.peer().is_none());
}

#[test]
fn close_propagates() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("x", |_| Ok(vec![]));
    client.close();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.status(), ChannelStatus::Closed);
    assert!(matches!(
        server.call("x", b""),
        Err(SwitchboardError::Closed) | Err(SwitchboardError::Io(_))
    ));
}

#[test]
fn on_close_watchers_fire_exactly_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let (a, b) = pair_in_memory_plain(quiet_config());
    let fired = Arc::new(AtomicUsize::new(0));
    let f = fired.clone();
    a.on_close(move || {
        f.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(fired.load(Ordering::SeqCst), 0, "not fired while healthy");
    b.close();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(a.status(), ChannelStatus::Closed);
    assert_eq!(fired.load(Ordering::SeqCst), 1, "fires on peer close");
    a.close(); // double close must not re-fire drained watchers
    assert_eq!(fired.load(Ordering::SeqCst), 1);

    // Registering on an already-closed channel fires immediately.
    let late = Arc::new(AtomicUsize::new(0));
    let l = late.clone();
    a.on_close(move || {
        l.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(late.load(Ordering::SeqCst), 1);
}

#[test]
fn secure_rpc_over_real_tcp() {
    let w = world();
    let (cs, ss) = w.suites();
    let listener = psf_switchboard::listen_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The first call races the server thread's handler registration, so
    // the server signals readiness after registering.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        let server = listener.accept(&ss, quiet_config()).unwrap();
        server.register_handler("getPhone", |args| {
            Ok(format!("+1-212-{}", String::from_utf8_lossy(args)).into_bytes())
        });
        ready_tx.send(()).unwrap();
        server
    });
    let client = psf_switchboard::connect_tcp(&addr.to_string(), &cs, quiet_config()).unwrap();
    ready_rx.recv().unwrap();
    let phone = client.call("getPhone", b"5551212").unwrap();
    assert_eq!(phone, b"+1-212-5551212");
    let _server = server_thread.join().unwrap();
}

#[test]
fn concurrent_calls_multiplex() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("double", |args| {
        let n: u64 = String::from_utf8_lossy(args).parse().map_err(|_| "nan")?;
        Ok((n * 2).to_string().into_bytes())
    });
    let client = std::sync::Arc::new(client);
    let mut joins = Vec::new();
    for i in 0..16u64 {
        let c = client.clone();
        joins.push(std::thread::spawn(move || {
            let reply = c.call("double", i.to_string().as_bytes()).unwrap();
            assert_eq!(reply, (i * 2).to_string().into_bytes());
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn large_payload_roundtrip() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("sum", |args| {
        let s: u64 = args.iter().map(|&b| b as u64).sum();
        Ok(s.to_le_bytes().to_vec())
    });
    let big = vec![7u8; 1 << 20]; // 1 MiB through the AEAD record layer
    let reply = client.call("sum", &big).unwrap();
    assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 7 << 20);
}

#[test]
fn expired_credentials_rejected_at_handshake() {
    let w = world();
    let (mut cs, ss) = w.suites();
    let expired = DelegationBuilder::new(&w.domain)
        .subject_entity(&w.client)
        .role(w.domain.role("Member"))
        .expires(10)
        .sign();
    cs.credentials = vec![expired];
    w.clock.set(100); // both suites share the clock
    assert!(pair_in_memory(cs, ss, quiet_config()).is_err());
}

#[test]
fn traffic_counters_track_both_directions() {
    let w = world();
    let (cs, ss) = w.suites();
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("echo", |a| Ok(a.to_vec()));
    let before = client.traffic();
    client.call("echo", &[0u8; 1000]).unwrap();
    let after = client.traffic();
    assert_eq!(after.frames_sent, before.frames_sent + 1);
    assert_eq!(after.frames_received, before.frames_received + 1);
    assert!(after.bytes_sent >= before.bytes_sent + 1000);
    assert!(after.bytes_received >= before.bytes_received + 1000);
    // The server saw the mirror image.
    let sv = server.traffic();
    assert_eq!(sv.frames_received, after.frames_sent);
    assert_eq!(sv.frames_sent, after.frames_received);
}

#[test]
fn expired_peer_lapses_mid_connection() {
    // §3.1 "continuously over some duration": advance the shared clock
    // past the client credential's expiry — the server refuses service
    // with no revocation involved.
    let w = world();
    let (mut cs, ss) = w.suites();
    let expiring = psf_drbac::DelegationBuilder::new(&w.domain)
        .subject_entity(&w.client)
        .role(w.domain.role("Member"))
        .expires(1000)
        .sign();
    cs.credentials = vec![expiring];
    let (client, server) = pair_in_memory(cs, ss, quiet_config()).unwrap();
    server.register_handler("read", |_| Ok(b"ok".to_vec()));
    assert_eq!(client.call("read", b"").unwrap(), b"ok");
    w.clock.set(1000);
    match client.call("read", b"") {
        Err(SwitchboardError::RevalidationRequired(_)) => {}
        other => panic!("expected expiry-driven refusal, got {other:?}"),
    }
    assert_eq!(
        server.status(),
        ChannelStatus::RevalidationRequired("expired".into())
    );
}
