//! Count gate: threads per idle in-memory channel pair. Every channel is
//! read by a reactor shard, so once the shards run, opening 10³ plain
//! pairs and a few secure ones (each answering one inline echo) starts no
//! thread at all. One test in its own binary, so no other test's threads
//! enter the count.

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_switchboard::{
    pair_in_memory, pair_in_memory_plain, AuthSuite, Authorizer, Channel, ChannelConfig, ClockRef,
};

const PLAIN_PAIRS: usize = 1000;
const SECURE_PAIRS: usize = 8;

/// Live threads of this process, from /proc/self/status (0 where that
/// file does not exist, which makes the gate vacuous there).
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

fn secure_suites() -> (AuthSuite, AuthSuite) {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Dom", b"threads");
    let a = Entity::with_seed("A", b"threads");
    let b = Entity::with_seed("B", b"threads");
    for e in [&domain, &a, &b] {
        registry.register(e);
    }
    let grant = |e: &Entity| {
        DelegationBuilder::new(&domain)
            .subject_entity(e)
            .role(domain.role("Peer"))
            .sign()
    };
    let auth = || {
        Authorizer::new(
            registry.clone(),
            repo.clone(),
            bus.clone(),
            clock.clone(),
            domain.role("Peer"),
        )
    };
    (
        AuthSuite::new(a.clone(), vec![grant(&a)], auth()),
        AuthSuite::new(b.clone(), vec![grant(&b)], auth()),
    )
}

fn echo_once(client: &Channel, server: &Channel) {
    server.register_handler("echo", |args| Ok(args.to_vec()));
    assert_eq!(client.call("echo", b"idle").unwrap(), b"idle");
}

#[test]
fn idle_in_memory_pairs_cost_no_threads() {
    assert!(psf_switchboard::reactor::shard_count() >= 1); // starts the shards
    let before = thread_count();
    let mut pairs = Vec::with_capacity(PLAIN_PAIRS + SECURE_PAIRS);
    for _ in 0..PLAIN_PAIRS {
        let (client, server) = pair_in_memory_plain(ChannelConfig::default());
        echo_once(&client, &server);
        pairs.push((client, server));
    }
    for _ in 0..SECURE_PAIRS {
        let (a, b) = secure_suites();
        let (client, server) = pair_in_memory(a, b, ChannelConfig::default()).unwrap();
        echo_once(&client, &server);
        pairs.push((client, server));
    }
    // Each secure pair's handshake helper thread is joined, but the kernel
    // may count an exiting thread for a moment after the join returns.
    let settle = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let mut after = thread_count();
    while after != before && std::time::Instant::now() < settle {
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = thread_count();
    }
    assert_eq!(
        after,
        before,
        "{} idle in-memory pairs changed the thread count {before} -> {after}",
        pairs.len()
    );
}
