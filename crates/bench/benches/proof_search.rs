//! **F2 — proof-graph search** (paper §3.1): proof construction cost vs
//! delegation-chain depth and vs credential-set size (decoy credentials
//! in the repository), plus independent proof re-verification cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psf_drbac::entity::{Entity, EntityRegistry, RoleName, Subject};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{AuthCache, DelegationBuilder};

struct ProofWorld {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    user: Entity,
    target: RoleName,
}

/// Chain of `depth` role mappings + `decoys` irrelevant credentials.
fn build_world(depth: usize, decoys: usize) -> ProofWorld {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let user = Entity::with_seed("User", b"bench");
    registry.register(&user);
    let mut domains = Vec::new();
    for i in 0..depth {
        let d = Entity::with_seed(format!("D{i}"), b"bench");
        registry.register(&d);
        domains.push(d);
    }
    repo.publish_at_issuer(
        DelegationBuilder::new(&domains[depth - 1])
            .subject_entity(&user)
            .role(domains[depth - 1].role("R"))
            .sign(),
    );
    for i in 0..depth - 1 {
        repo.publish_at_issuer(
            DelegationBuilder::new(&domains[i])
                .subject_role(domains[i + 1].role("R"))
                .role(domains[i].role("R"))
                .sign(),
        );
    }
    for i in 0..decoys {
        let d = Entity::with_seed(format!("X{i}"), b"bench");
        registry.register(&d);
        repo.publish_at_issuer(
            DelegationBuilder::new(&d)
                .subject_role(RoleName::new("No.Where", "Z"))
                .role(d.role("Z"))
                .sign(),
        );
    }
    let target = domains[0].role("R");
    ProofWorld {
        registry,
        repo,
        bus,
        user,
        target,
    }
}

fn prove(w: &ProofWorld) -> psf_drbac::Proof {
    let engine = ProofEngine::new(&w.registry, &w.repo, &w.bus, 0);
    engine
        .prove(
            &Subject::Entity {
                name: w.user.name.clone(),
                key: w.user.public_key(),
            },
            &w.target,
            &[],
        )
        .unwrap()
        .0
}

fn print_shape_table() {
    println!("\n# F2: proof search work vs chain depth (credentials examined)");
    println!(
        "{:>6} | {:>10} {:>12} {:>12}",
        "depth", "edges", "examined", "expanded"
    );
    for depth in [1usize, 2, 4, 8, 16] {
        let w = build_world(depth, 50);
        let engine = ProofEngine::new(&w.registry, &w.repo, &w.bus, 0);
        let (proof, stats) = engine
            .prove(
                &Subject::Entity {
                    name: w.user.name.clone(),
                    key: w.user.public_key(),
                },
                &w.target,
                &[],
            )
            .unwrap();
        println!(
            "{:>6} | {:>10} {:>12} {:>12}",
            depth,
            proof.edges.len(),
            stats.credentials_examined,
            stats.nodes_expanded
        );
        assert_eq!(proof.edges.len(), depth);
    }
    println!("# shape: work grows linearly with chain depth, decoys pruned by indexing\n");
}

fn bench(c: &mut Criterion) {
    print_shape_table();

    let mut group = c.benchmark_group("f2_proof_search");
    group.sample_size(20);
    for depth in [2usize, 4, 8, 16] {
        let w = build_world(depth, 50);
        group.bench_with_input(BenchmarkId::new("prove_depth", depth), &w, |b, w| {
            b.iter(|| prove(w));
        });
    }
    for decoys in [0usize, 100, 1_000] {
        let w = build_world(4, decoys);
        group.bench_with_input(BenchmarkId::new("prove_decoys", decoys), &w, |b, w| {
            b.iter(|| prove(w));
        });
    }
    // The certificate-checker row: `Proof::verify` lowers the proof to a
    // certificate and runs the independent `psf-cert` check over it (what
    // a remote Guard pays for an already-built proof).
    let w = build_world(8, 0);
    let proof = prove(&w);
    group.bench_function("verify_depth_8", |b| {
        b.iter(|| proof.verify(&w.registry, &w.bus, 0).unwrap());
    });

    // Warm vs cold through the authorization fast path: cold pays the
    // full search + one Ed25519 verify per credential every call; warm
    // answers repeat decisions from the proof cache.
    let w = build_world(8, 100);
    let subject = Subject::Entity {
        name: w.user.name.clone(),
        key: w.user.public_key(),
    };
    group.bench_function("prove_cold_depth_8", |b| {
        b.iter(|| {
            let cache = AuthCache::new();
            let engine = ProofEngine::with_cache(&w.registry, &w.repo, &w.bus, 0, &cache);
            engine.prove(&subject, &w.target, &[]).unwrap()
        });
    });
    let cache = AuthCache::new();
    let engine = ProofEngine::with_cache(&w.registry, &w.repo, &w.bus, 0, &cache);
    engine.prove(&subject, &w.target, &[]).unwrap();
    group.bench_function("prove_warm_depth_8", |b| {
        b.iter(|| engine.prove(&subject, &w.target, &[]).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
