//! **F4 — Switchboard** (paper §4.3): handshake latency, RPC throughput
//! plaintext vs encrypted (the cost of the `switchboard` exposure type
//! over `rmi`), and revocation→notification latency — the continuous-
//! authorization property that "distinguishes Switchboard from
//! abstractions like SSL/TLS".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_switchboard::{
    pair_in_memory, pair_in_memory_plain, AuthSuite, Authorizer, Channel, ChannelConfig, ClockRef,
};
use std::time::{Duration, Instant};

struct Ctx {
    bus: RevocationBus,
    client_suite: AuthSuite,
    server_suite: AuthSuite,
    client_cred: psf_drbac::SignedDelegation,
}

fn ctx() -> Ctx {
    let registry = EntityRegistry::new();
    let repository = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Dom", b"f4");
    let server = Entity::with_seed("Srv", b"f4");
    let client = Entity::with_seed("Cli", b"f4");
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
    let client_suite = AuthSuite::new(client, vec![client_cred.clone()], auth("Service"));
    let server_suite = AuthSuite::new(server, vec![server_cred], auth("Member"));
    Ctx {
        bus,
        client_suite,
        server_suite,
        client_cred,
    }
}

fn quiet() -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout: Duration::from_secs(10),
    }
}

fn secure_pair(ctx: &Ctx) -> (Channel, Channel) {
    pair_in_memory(ctx.client_suite.clone(), ctx.server_suite.clone(), quiet()).unwrap()
}

fn print_shape_table() {
    let ctx = ctx();

    // Handshake latency.
    let t = Instant::now();
    let n = 20;
    for _ in 0..n {
        let _ = secure_pair(&ctx);
    }
    let handshake = t.elapsed() / n;

    // Revocation → notification latency over a live channel.
    let (client, server) = secure_pair(&ctx);
    server.register_handler("x", |_| Ok(vec![]));
    client.call("x", b"").unwrap();
    let t = Instant::now();
    ctx.bus.revoke(&ctx.client_cred.id());
    // The server-side monitor flips synchronously on the bus broadcast;
    // measure until a client call observes the refusal.
    let mut observed = None;
    for _ in 0..1000 {
        if client.call("x", b"").is_err() {
            observed = Some(t.elapsed());
            break;
        }
    }
    println!("\n# F4: switchboard properties");
    println!("  mutual-auth handshake (in-mem):    {handshake:?}");
    println!(
        "  revocation -> refusal observed in: {:?}",
        observed.expect("refusal")
    );
    println!("  (TLS has no in-band revocation path at all — this is the differentiator)\n");
}

fn bench(c: &mut Criterion) {
    print_shape_table();
    let ctx = ctx();

    let mut group = c.benchmark_group("f4_switchboard");
    group.sample_size(20);

    group.bench_function("handshake_secure", |b| {
        b.iter(|| secure_pair(&ctx));
    });

    // RPC cost: plaintext (rmi exposure) vs AEAD (switchboard exposure),
    // across payload sizes.
    for size in [64usize, 4 << 10, 64 << 10] {
        let payload = vec![0xa5u8; size];
        let (plain_a, plain_b) = pair_in_memory_plain(quiet());
        plain_b.register_handler("echo", |a| Ok(a.to_vec()));
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("rpc_plain", size), &payload, |b, p| {
            b.iter(|| plain_a.call("echo", p).unwrap());
        });

        let (sec_a, sec_b) = secure_pair(&ctx);
        sec_b.register_handler("echo", |a| Ok(a.to_vec()));
        group.bench_with_input(BenchmarkId::new("rpc_secure", size), &payload, |b, p| {
            b.iter(|| sec_a.call("echo", p).unwrap());
        });
    }

    // Heartbeat round trip.
    let (client, _server) = secure_pair(&ctx);
    group.bench_function("heartbeat", |b| {
        b.iter(|| client.send_heartbeat().unwrap());
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
