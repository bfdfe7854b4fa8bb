//! **F1 — storage scaling** (paper §5): GSI `P×U` vs CAS `C×(P+U)` vs
//! dRBAC `P+U+c`. The shape table shows the crossover structure (dRBAC
//! linear, CAS linear×C, GSI quadratic); the timed section measures the
//! cost of actually materializing dRBAC's credential set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psf_drbac::entity::{Entity, EntityName, Subject};
use psf_drbac::repository::{CredentialSource, Repository};
use psf_drbac::storage_model::{simulate_drbac, storage_comparison};
use psf_drbac::wal::{FsyncPolicy, ShardedDurableRepository, WalConfig};
use psf_drbac::{
    subject_key, AttrSet, Delegation, DelegationBuilder, DelegationKind, DiscoveryTag,
    SignedDelegation,
};
use std::path::PathBuf;

/// Build a WAL directory holding `n` committed publish records, ready for
/// a recovery-replay measurement.
fn fill_wal_dir(n: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psf-bench-recovery-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (d, _) = ShardedDurableRepository::open(
        &dir,
        psf_drbac::DEFAULT_SHARD_COUNT,
        WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        },
    )
    .unwrap();
    let issuer = Entity::with_seed("Issuer", b"f1-recovery");
    let user = Entity::with_seed("User", b"f1-recovery");
    for i in 0..n {
        d.repository().publish_at_issuer(
            DelegationBuilder::new(&issuer)
                .subject_entity(&user)
                .role(issuer.role(format!("R{i}")))
                .sign(),
        );
        if i.is_multiple_of(64) {
            d.bus().revoke(&format!("deadbeef{i:08x}"));
        }
    }
    d.sync().unwrap();
    dir
}

fn print_shape_table() {
    println!("\n# F1: storage entries by architecture (C=8, c=2P)");
    println!(
        "{:>6} {:>8} | {:>12} {:>12} {:>12} | winner",
        "P", "U", "GSI", "CAS", "dRBAC"
    );
    for (p, u) in [
        (5u64, 50u64),
        (10, 100),
        (50, 1_000),
        (100, 5_000),
        (500, 100_000),
    ] {
        let [gsi, cas, drbac] = storage_comparison(p, u, 8, 2 * p);
        let winner = if drbac.entries <= cas.entries && drbac.entries <= gsi.entries {
            "dRBAC"
        } else if cas.entries <= gsi.entries {
            "CAS"
        } else {
            "GSI"
        };
        println!(
            "{:>6} {:>8} | {:>12} {:>12} {:>12} | {winner}",
            p, u, gsi.entries, cas.entries, drbac.entries
        );
        // dRBAC wins everywhere; CAS overtakes GSI once P×U outgrows
        // C×(P+U) — the crossover the formulas predict.
        assert!(drbac.entries < cas.entries && drbac.entries < gsi.entries);
        if p * u > 8 * (p + u) {
            assert!(cas.entries < gsi.entries);
        }
    }
    println!("# shape: dRBAC (P+U+c) < min(CAS, GSI) at every size; CAS overtakes GSI");
    println!("# once P*U > C*(P+U) — exactly the paper's asymptotic ordering. OK\n");
}

fn bench(c: &mut Criterion) {
    print_shape_table();
    let mut group = c.benchmark_group("f1_storage");
    group.sample_size(10);
    for scale in [10u64, 100, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("drbac_materialize", scale),
            &scale,
            |b, &scale| {
                b.iter(|| simulate_drbac(scale, scale * 10, scale / 2));
            },
        );
    }

    // Repository query path: the `Arc`-sharing fast path vs the old
    // deep-clone behavior (reconstructed here by cloning every returned
    // credential out of its `Arc`).
    for n in [10usize, 100, 1_000] {
        let repo = Repository::new();
        let issuer = Entity::with_seed("Issuer", b"f1");
        let user = Entity::with_seed("User", b"f1");
        for i in 0..n {
            repo.publish_at_issuer(
                DelegationBuilder::new(&issuer)
                    .subject_entity(&user)
                    .role(issuer.role(format!("R{i}")))
                    .sign(),
            );
        }
        let subject = user.as_subject();
        group.bench_with_input(BenchmarkId::new("query_zero_copy", n), &n, |b, _| {
            b.iter(|| repo.credentials_by_subject(&subject));
        });
        group.bench_with_input(BenchmarkId::new("query_deep_clone", n), &n, |b, _| {
            b.iter(|| {
                repo.credentials_by_subject(&subject)
                    .iter()
                    .map(|c| (**c).clone())
                    .collect::<Vec<_>>()
            });
        });
    }

    // Sharded store at discovery scale: tag-directed and subject lookups
    // against the hash-sharded repository vs the single-shard (fully
    // serialized) layout, both holding the same credential set. Full runs
    // fill 10⁶ entries; `PSF_BENCH_QUICK=1` (CI `experiments`) drops to 10⁵
    // so the sweep stays inside the smoke budget. Dummy signatures keep
    // the fill CPU-bound on the store itself — nothing here verifies them.
    let quick = std::env::var_os("PSF_BENCH_QUICK").is_some();
    let entries: usize = if quick { 100_000 } else { 1_000_000 };
    let issuer = Entity::with_seed("BenchHome", b"f1-sharded");
    let key = issuer.public_key();
    let cred_for = |i: usize| SignedDelegation {
        body: Delegation {
            subject: Subject::Entity {
                name: EntityName(format!("U{i}")),
                key,
            },
            object: issuer.role(format!("R{}", i % 1024)),
            kind: DelegationKind::SelfCertifying,
            issuer: issuer.name.clone(),
            attrs: AttrSet::new(),
            expires: None,
            monitored: false,
            serial: i as u64,
        },
        signature: psf_crypto::ed25519::Signature([0u8; 64]),
    };
    for (label, shards) in [
        ("sharded", psf_drbac::repository::DEFAULT_SHARD_COUNT),
        ("single_shard", 1),
    ] {
        let repo = Repository::with_shard_count(shards);
        for i in 0..entries {
            repo.publish(
                EntityName(format!("H{}", i % 64)),
                cred_for(i),
                DiscoveryTag::Both,
            );
        }
        let mut probe = 0usize;
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_tag_lookup"), entries),
            &entries,
            |b, &entries| {
                b.iter(|| {
                    probe = (probe.wrapping_mul(6364136223846793005).wrapping_add(1)) % entries;
                    let skey = subject_key(&Subject::Entity {
                        name: EntityName(format!("U{probe}")),
                        key,
                    });
                    repo.query_by_subject_key(&skey).len()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_subject_lookup"), entries),
            &entries,
            |b, &entries| {
                b.iter(|| {
                    probe = (probe.wrapping_mul(6364136223846793005).wrapping_add(1)) % entries;
                    let subject = Subject::Entity {
                        name: EntityName(format!("U{probe}")),
                        key,
                    };
                    repo.query_by_subject(&subject).len()
                });
            },
        );
    }

    // Crash recovery: cold `Repository::recover_sharded` replay of an
    // `n`-record WAL, sized so the criterion sweep stays fast; psf-bench
    // times the same replay at world size (`drbac.wal.recover_s`, and
    // inside the gated `setup_s`).
    for n in [1_000u64, 10_000] {
        let dir = fill_wal_dir(n);
        group.bench_with_input(BenchmarkId::new("recovery_replay", n), &n, |b, &n| {
            b.iter(|| {
                let (repo, _bus, report) = Repository::recover_sharded(&dir).unwrap();
                assert_eq!(
                    report.records_replayed,
                    n as usize + n.div_ceil(64) as usize
                );
                repo.len()
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
