//! Switchboard demo over real TCP (paper §4.3): mutual authentication,
//! encrypted RPC, heartbeat RTT, and continuous authorization — a
//! credential revoked mid-connection blocks service until the peer
//! re-validates with fresh credentials.
//!
//! ```sh
//! cargo run --example secure_channel
//! ```

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_switchboard::{
    connect_tcp, listen_tcp, AuthSuite, Authorizer, ChannelConfig, ClockRef, SwitchboardError,
};
use std::time::Duration;

fn main() {
    let registry = EntityRegistry::new();
    let repository = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();

    let domain = Entity::with_seed("Comp.NY", b"chan-demo");
    let server_id = Entity::with_seed("MailServer", b"chan-demo");
    let client_id = Entity::with_seed("Bob", b"chan-demo");
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
        .monitored()
        .sign();

    let authorizer = |role: &str| {
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
        authorizer("Service"), // the client requires a Service peer
    );
    let server_suite = AuthSuite::new(
        server_id.clone(),
        vec![server_cred],
        authorizer("Member"), // the server requires a Member peer
    );

    let config = ChannelConfig {
        heartbeat_interval: Some(Duration::from_millis(50)),
        rpc_timeout: Duration::from_secs(5),
    };

    // Real TCP on loopback.
    let listener = listen_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    println!("switchboard listening on {addr}");

    let cfg = config.clone();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        let channel = listener.accept(&server_suite, cfg).expect("accept");
        channel.register_handler("getEmail", |args| {
            Ok(format!("{}@comp.example", String::from_utf8_lossy(args)).into_bytes())
        });
        ready_tx.send(()).unwrap(); // handlers registered: serve
                                    // Serve until the client closes.
        while !matches!(channel.status(), psf_switchboard::ChannelStatus::Closed) {
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    let channel = connect_tcp(&addr, &client_suite, config).expect("connect + authorize");
    ready_rx.recv().unwrap();
    println!(
        "connected; authenticated peer = {} ({})",
        channel.peer().unwrap().name.0,
        channel.peer().unwrap().key.fingerprint()
    );

    let email = channel.call("getEmail", b"alice").unwrap();
    println!("rpc getEmail(alice) = {}", String::from_utf8_lossy(&email));

    std::thread::sleep(Duration::from_millis(200));
    println!(
        "heartbeats: RTT = {:?}, alive = {}",
        channel.last_rtt(),
        channel.is_alive(Duration::from_secs(1))
    );

    // --- continuous authorization ------------------------------------
    println!("\nrevoking the client's credential mid-connection…");
    bus.revoke(&client_cred.id());
    match channel.call("getEmail", b"alice") {
        Err(SwitchboardError::RevalidationRequired(msg)) => {
            println!("server refused service: revalidation required ({msg})")
        }
        other => println!("unexpected: {other:?}"),
    }

    println!("domain re-issues a fresh credential; client re-validates…");
    let fresh = DelegationBuilder::new(&domain)
        .subject_entity(&client_id)
        .role(domain.role("Member"))
        .monitored()
        .serial(2)
        .sign();
    let accepted = channel
        .offer_revalidation(&[fresh], Duration::from_secs(5))
        .unwrap();
    println!("revalidation accepted: {accepted}");
    let email = channel.call("getEmail", b"alice").unwrap();
    println!("rpc works again: {}", String::from_utf8_lossy(&email));

    channel.close();
    server_thread.join().unwrap();
}
