//! **F5 — single sign-on** (paper §4.2): authorize-once-at-instantiation
//! (SSO token + monitor) vs re-authorizing every request (full proof
//! search). The shape table finds the request count where SSO's fixed
//! setup cost amortizes — it is tiny, which is the paper's point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_views::ViewAcl;
use std::time::Instant;

struct World {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    domain: Entity,
    user: Entity,
    creds: Vec<psf_drbac::SignedDelegation>,
    acl: ViewAcl,
}

fn world(depth: usize) -> World {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let domain = Entity::with_seed("D0", b"f5");
    let user = Entity::with_seed("User", b"f5");
    registry.register(&domain);
    registry.register(&user);
    let mut creds = Vec::new();
    let mut prev_role = domain.role("R0");
    let mut prev = domain.clone();
    for i in 1..depth {
        let d = Entity::with_seed(format!("D{i}"), b"f5");
        registry.register(&d);
        creds.push(
            DelegationBuilder::new(&prev)
                .subject_role(d.role(format!("R{i}")))
                .role(prev_role.clone())
                .sign(),
        );
        prev_role = d.role(format!("R{i}"));
        prev = d;
    }
    creds.push(
        DelegationBuilder::new(&prev)
            .subject_entity(&user)
            .role(prev_role)
            .sign(),
    );
    let acl = ViewAcl::new().rule(domain.role("R0"), "FullView");
    World {
        registry,
        repo,
        bus,
        domain,
        user,
        creds,
        acl,
    }
}

fn print_shape_table() {
    let w = world(5);
    let engine = ProofEngine::new(&w.registry, &w.repo, &w.bus, 0);

    // Cost of one full authorization.
    let t = Instant::now();
    let reps = 200;
    for _ in 0..reps {
        engine
            .prove(&w.user.as_subject(), &w.domain.role("R0"), &w.creds)
            .unwrap();
    }
    let per_auth = t.elapsed() / reps;

    // Cost of one token check.
    let token = w
        .acl
        .authorize_once(
            &w.user.as_subject(),
            &w.creds,
            &w.registry,
            &w.repo,
            &w.bus,
            0,
        )
        .unwrap();
    let t = Instant::now();
    let checks = 1_000_000u32;
    for _ in 0..checks {
        assert!(token.is_valid(0));
    }
    let per_check = t.elapsed() / checks;

    let ratio = per_auth.as_nanos().max(1) / per_check.as_nanos().max(1);
    println!("\n# F5: per-request authorization vs single sign-on (5-edge chain)");
    println!("  full proof search per request: {per_auth:?}");
    println!("  SSO token check per request:   {per_check:?}");
    println!("  ratio: ~{ratio}x  -> SSO amortizes after the very first request\n");
}

fn bench(c: &mut Criterion) {
    print_shape_table();
    let mut group = c.benchmark_group("f5_sso");
    group.sample_size(20);

    for depth in [2usize, 5, 10] {
        let w = world(depth);
        let engine = ProofEngine::new(&w.registry, &w.repo, &w.bus, 0);
        group.bench_with_input(
            BenchmarkId::new("per_request_proof", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    engine
                        .prove(&w.user.as_subject(), &w.domain.role("R0"), &w.creds)
                        .unwrap()
                });
            },
        );
        let token = w
            .acl
            .authorize_once(
                &w.user.as_subject(),
                &w.creds,
                &w.registry,
                &w.repo,
                &w.bus,
                0,
            )
            .unwrap();
        group.bench_with_input(BenchmarkId::new("sso_check", depth), &depth, |b, _| {
            b.iter(|| token.is_valid(0));
        });
        group.bench_with_input(BenchmarkId::new("sso_mint", depth), &depth, |b, _| {
            b.iter(|| {
                w.acl
                    .authorize_once(
                        &w.user.as_subject(),
                        &w.creds,
                        &w.registry,
                        &w.repo,
                        &w.bus,
                        0,
                    )
                    .unwrap()
            });
        });
        // Warm mint: repeat token issuance for the same (subject, role,
        // presented set) is answered from the proof cache — the cost a
        // Guard pays per reconnect once the first client signed on.
        let cache = psf_drbac::AuthCache::new();
        w.acl
            .authorize_once_cached(
                &w.user.as_subject(),
                &w.creds,
                &w.registry,
                &w.repo,
                &w.bus,
                0,
                &cache,
            )
            .unwrap();
        group.bench_with_input(BenchmarkId::new("sso_mint_warm", depth), &depth, |b, _| {
            b.iter(|| {
                w.acl
                    .authorize_once_cached(
                        &w.user.as_subject(),
                        &w.creds,
                        &w.registry,
                        &w.repo,
                        &w.bus,
                        0,
                        &cache,
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
