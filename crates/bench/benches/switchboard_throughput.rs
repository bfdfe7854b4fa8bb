//! **F4 (data plane)** — Switchboard record-layer throughput after the
//! PR 4 optimizations: pooled zero-copy frames, in-place wide
//! ChaCha20-Poly1305, and pipelined RPC.
//!
//! The grid is payload size (64 B – 64 KiB) × mode (plain/secure) ×
//! issue discipline (serial `call` vs windowed `call_many`), plus the
//! wide-vs-scalar AEAD comparison that isolates the crypto share of the
//! win. This file regenerates the EXPERIMENTS.md F4 table and gates
//! nothing; regressions on the same path are caught by `psf-bench/`
//! (`sso_warm` end to end, `switchboard.echo{,_plain}_call_us` and
//! `crypto.aead.*` per layer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_switchboard::{
    pair_in_memory, pair_in_memory_plain, AuthSuite, Authorizer, Channel, ChannelConfig, ClockRef,
};
use std::time::Duration;

const WINDOW: usize = 32;
const BATCH: usize = 64;

fn quiet() -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout: Duration::from_secs(10),
        ..Default::default()
    }
}

fn secure_pair() -> (Channel, Channel) {
    let registry = EntityRegistry::new();
    let repository = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Dom", b"f4tp");
    let server = Entity::with_seed("Srv", b"f4tp");
    let client = Entity::with_seed("Cli", b"f4tp");
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
    let client_suite = AuthSuite::new(client, vec![client_cred], auth("Service"));
    let server_suite = AuthSuite::new(server, vec![server_cred], auth("Member"));
    pair_in_memory(client_suite, server_suite, quiet()).unwrap()
}

fn bench_mode(
    group: &mut criterion::BenchmarkGroup<'_>,
    mode: &str,
    client: &Channel,
    size: usize,
) {
    let payload = vec![0xa5u8; size];
    group.throughput(Throughput::Bytes((size * BATCH) as u64));
    group.bench_with_input(
        BenchmarkId::new(format!("{mode}_serial"), size),
        &payload,
        |b, p| {
            b.iter(|| {
                for _ in 0..BATCH {
                    client.call("echo", p).unwrap();
                }
            });
        },
    );
    let batch: Vec<&[u8]> = (0..BATCH).map(|_| payload.as_slice()).collect();
    group.bench_with_input(
        BenchmarkId::new(format!("{mode}_pipelined"), size),
        &batch,
        |b, batch| {
            b.iter(|| {
                let results = client.call_many("echo", batch, WINDOW);
                assert!(results.iter().all(|r| r.is_ok()));
            });
        },
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f4_switchboard_throughput");
    group.sample_size(20);

    let (plain_client, plain_server) = pair_in_memory_plain(quiet());
    plain_server.register_handler("echo", |a| Ok(a.to_vec()));
    let (sec_client, sec_server) = secure_pair();
    sec_server.register_handler("echo", |a| Ok(a.to_vec()));

    for size in [64usize, 1 << 10, 4 << 10, 16 << 10, 64 << 10] {
        bench_mode(&mut group, "plain", &plain_client, size);
        bench_mode(&mut group, "secure", &sec_client, size);
    }
    group.finish();

    // Crypto share of the win: wide (multi-block) vs scalar seal on a
    // 16 KiB record, the largest chunk the stream layer moves by default.
    let mut group = c.benchmark_group("f4_aead_wide_vs_scalar");
    let aead = psf_crypto::ChaCha20Poly1305::new([7u8; 32]);
    let nonce = [1u8; 12];
    let payload = vec![0x3cu8; 16 << 10];
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("seal_16k_wide", |b| {
        b.iter(|| aead.seal(&nonce, b"swbd-record", &payload));
    });
    group.bench_function("seal_16k_scalar", |b| {
        b.iter(|| aead.seal_scalar(&nonce, b"swbd-record", &payload));
    });
    let mut buf = Vec::with_capacity(8 + payload.len() + 16);
    group.bench_function("seal_16k_in_place", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&[0u8; 8]);
            buf.extend_from_slice(&payload);
            aead.seal_in_place(&nonce, b"swbd-record", &mut buf, 8);
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
