//! Concurrency stress: heartbeats, concurrent RPC, and revalidation all
//! racing on one channel — guards the sequence-number/transmission
//! atomicity invariant of the record layer.

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_switchboard::{
    connect_tcp, listen_tcp, AuthSuite, Authorizer, ChannelConfig, ChannelStatus, ClockRef,
};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn heartbeats_rpc_and_revalidation_race_safely_over_tcp() {
    let registry = EntityRegistry::new();
    let repository = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Dom", b"stress");
    let server_id = Entity::with_seed("Srv", b"stress");
    let client_id = Entity::with_seed("Cli", b"stress");
    for e in [&domain, &server_id, &client_id] {
        registry.register(e);
    }
    let client_cred = DelegationBuilder::new(&domain)
        .subject_entity(&client_id)
        .role(domain.role("Member"))
        .monitored()
        .sign();
    let server_cred = DelegationBuilder::new(&domain)
        .subject_entity(&server_id)
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
    let client_suite = AuthSuite::new(
        client_id.clone(),
        vec![client_cred.clone()],
        auth("Service"),
    );
    let server_suite = AuthSuite::new(server_id, vec![server_cred], auth("Member"));

    // Aggressive heartbeats to maximize interleaving.
    let config = ChannelConfig {
        heartbeat_interval: Some(Duration::from_millis(1)),
        rpc_timeout: Duration::from_secs(10),
    };

    let listener = listen_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let cfg = config.clone();
    let server_thread = std::thread::spawn(move || {
        let channel = listener.accept(&server_suite, cfg).unwrap();
        channel.register_handler("work", |args| Ok(args.to_vec()));
        channel
    });
    let channel = Arc::new(connect_tcp(&addr, &client_suite, config).unwrap());
    let server = server_thread.join().unwrap();

    // 8 caller threads × 50 calls each, racing the 1 ms heartbeats from
    // both sides, plus a revocation/revalidation cycle in the middle.
    let mut joins = Vec::new();
    for t in 0..8u64 {
        let ch = channel.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let payload = format!("{t}:{i}");
                loop {
                    match ch.call("work", payload.as_bytes()) {
                        Ok(echo) => {
                            assert_eq!(echo, payload.as_bytes());
                            break;
                        }
                        Err(psf_switchboard::SwitchboardError::RevalidationRequired(_)) => {
                            // Mid-revocation window: retry shortly.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(other) => panic!("channel broke: {other}"),
                    }
                }
            }
        }));
    }
    // Revoke + revalidate while the callers hammer.
    std::thread::sleep(Duration::from_millis(20));
    bus.revoke(&client_cred.id());
    std::thread::sleep(Duration::from_millis(10));
    let fresh = DelegationBuilder::new(&domain)
        .subject_entity(&client_id)
        .role(domain.role("Member"))
        .monitored()
        .serial(7)
        .sign();
    let accepted = channel
        .offer_revalidation(&[fresh], Duration::from_secs(5))
        .unwrap();
    assert!(accepted);

    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(channel.status(), ChannelStatus::Healthy);
    assert!(server.heartbeats_received() > 0);
    channel.close();
}
