//! End-to-end durability tests for the crash-safe credential repository:
//! committed state surviving repeated reopen cycles, torn tails, partial
//! compactions, and epoch monotonicity across restarts — exercised
//! through the same public surfaces the Supervisor and `psf repo` use,
//! at both ends of the shard-count range (a single log is `shards = 1`).

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::wal::{self, FsyncPolicy, ShardedDurableRepository, WalConfig};
use psf_drbac::DelegationBuilder;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARD_COUNTS: [usize; 2] = [1, 8];

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "psf-durability-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn issue(dom: &Entity, user: &Entity, serial: u64) -> psf_drbac::SignedDelegation {
    DelegationBuilder::new(dom)
        .subject_entity(user)
        .role(dom.role("R"))
        .serial(serial)
        .sign()
}

fn open(dir: &Path, shards: usize, config: WalConfig) -> ShardedDurableRepository {
    ShardedDurableRepository::open(dir, shards, config)
        .unwrap()
        .0
}

/// The log of the first segment that holds any records.
fn populated_log(dir: &Path) -> PathBuf {
    wal::segment_dirs(dir)
        .unwrap()
        .into_iter()
        .map(|seg| seg.join(wal::LOG_FILE))
        .find(|log| std::fs::metadata(log).is_ok_and(|m| m.len() > 0))
        .expect("some segment holds records")
}

/// Five open → publish → revoke → drop cycles; every cycle's committed
/// records are visible to the next, and the final read-only recovery sees
/// all of them.
#[test]
fn committed_state_survives_reopen_cycles() {
    for shards in SHARD_COUNTS {
        let dir = tmpdir("cycles");
        let user = Entity::with_seed("User", b"durability");
        let dom = Entity::with_seed("Dom", b"durability");
        let mut revoked = Vec::new();
        for cycle in 0..5u64 {
            let (d, report) =
                ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
            assert_eq!(
                d.repository().len(),
                (cycle * 10) as usize,
                "cycle {cycle} must see every earlier publish"
            );
            for i in 0..10u64 {
                let cred = issue(&dom, &user, cycle * 10 + i);
                if i == 0 {
                    revoked.push(cred.id());
                    d.repository().publish_at_issuer(cred);
                    d.bus().revoke(revoked.last().unwrap());
                } else {
                    d.repository().publish_at_issuer(cred);
                }
            }
            assert_eq!(report.revocations_restored as u64, cycle);
        }
        let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(repo.len(), 50);
        assert_eq!(bus.revoked_count(), 5);
        assert_eq!(report.truncated_bytes, 0);
        for id in &revoked {
            assert!(bus.is_revoked(id));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Garbage appended after the last committed record (a torn final write)
/// is truncated on the next writable open; every committed record and the
/// resulting authorization decision survive.
#[test]
fn torn_tail_loses_no_committed_record() {
    for shards in SHARD_COUNTS {
        let dir = tmpdir("torn");
        let user = Entity::with_seed("User", b"durability");
        let dom = Entity::with_seed("Dom", b"durability");
        {
            let d = open(
                &dir,
                shards,
                WalConfig {
                    fsync: FsyncPolicy::Never,
                    auto_compact_appends: None,
                },
            );
            for i in 0..17u64 {
                d.repository().publish_at_issuer(issue(&dom, &user, i));
            }
            d.sync().unwrap();
        }
        // Simulate a crash mid-append: a length prefix promising more
        // bytes than were ever written.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(populated_log(&dir))
            .unwrap();
        f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3])
            .unwrap();
        drop(f);

        let (d, report) =
            ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
        assert_eq!(report.publishes, 17);
        assert_eq!(report.truncated_bytes, 11);
        let registry = EntityRegistry::new();
        registry.register(&user);
        registry.register(&dom);
        let engine = ProofEngine::new(&registry, d.repository(), d.bus(), 0);
        assert!(engine.check(&user.as_subject(), &dom.role("R"), &[]));
        // The writable open physically dropped the tail.
        assert!(wal::verify_sharded_dir(&dir).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash between snapshot rename and log truncation leaves the full log
/// alongside a snapshot that already contains it; recovery must
/// deduplicate rather than double-publish.
#[test]
fn interrupted_compaction_overlap_is_deduplicated() {
    for shards in SHARD_COUNTS {
        let dir = tmpdir("overlap");
        let user = Entity::with_seed("User", b"durability");
        let dom = Entity::with_seed("Dom", b"durability");
        let logs: Vec<PathBuf>;
        let pre_compact: Vec<Vec<u8>>;
        {
            let d = open(&dir, shards, WalConfig::default());
            for i in 0..12u64 {
                d.repository().publish_at_issuer(issue(&dom, &user, i));
            }
            d.bus().revoke(&issue(&dom, &user, 0).id());
            logs = wal::segment_dirs(&dir)
                .unwrap()
                .iter()
                .map(|seg| seg.join(wal::LOG_FILE))
                .collect();
            pre_compact = logs.iter().map(|l| std::fs::read(l).unwrap()).collect();
            d.compact().unwrap();
        }
        // Put every pre-compaction log back: exactly the state left behind
        // by a crash after the snapshot rename but before the truncate.
        for (log, image) in logs.iter().zip(&pre_compact) {
            std::fs::write(log, image).unwrap();
        }

        let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.snapshot_entries, 12);
        assert_eq!(report.duplicates_skipped, 12);
        assert_eq!(repo.len(), 12);
        assert_eq!(bus.revoked_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The repository epoch strictly increases across restarts, so any proof
/// cache keyed on a pre-crash epoch can never satisfy a post-crash query.
#[test]
fn epoch_is_strictly_monotonic_across_restarts() {
    for shards in SHARD_COUNTS {
        let dir = tmpdir("epoch");
        let user = Entity::with_seed("User", b"durability");
        let dom = Entity::with_seed("Dom", b"durability");
        let mut last = 0u64;
        for i in 0..4u64 {
            let (d, report) =
                ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
            assert!(
                report.epoch > last,
                "restart {i}: epoch {} must exceed pre-crash epoch {last}",
                report.epoch
            );
            d.repository().publish_at_issuer(issue(&dom, &user, i));
            last = d.repository().epoch();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Auto-compaction keeps every segment log bounded while never losing
/// state, and the live stats track the moving bytes.
#[test]
fn auto_compaction_preserves_state_and_bounds_log() {
    for shards in SHARD_COUNTS {
        let dir = tmpdir("autocompact");
        let user = Entity::with_seed("User", b"durability");
        let dom = Entity::with_seed("Dom", b"durability");
        {
            let d = open(
                &dir,
                shards,
                WalConfig {
                    fsync: FsyncPolicy::Never,
                    auto_compact_appends: Some(16),
                },
            );
            for i in 0..100u64 {
                d.repository().publish_at_issuer(issue(&dom, &user, i));
            }
            d.sync().unwrap();
            let stats = d.stats();
            assert!(
                stats.compactions >= 5,
                "expected compactions, got {stats:?}"
            );
            // Bounded: no segment log holds more than the threshold's
            // worth of ~250-byte publish frames.
            for seg in &stats.shards {
                assert!(seg.log_bytes < 16 * 512, "unbounded log: {seg:?}");
                assert!(seg.appends == 0 || seg.snapshot_bytes > 0);
            }
        }
        let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(repo.len(), 100);
        assert_eq!(bus.revoked_count(), 0);
        assert!(report.snapshot_entries > 0, "snapshot must carry the bulk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn psf(args: &[&str], dir: &Path) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_psf"))
        .args(["repo", "--dir"])
        .arg(dir)
        .args(args)
        .output()
        .expect("run psf binary")
}

/// `psf repo --stats` reports on a damaged directory without repairing it:
/// the torn shard is still torn for the `--verify` that follows, and the
/// last-compact column reads the snapshot headers rather than `never`.
#[test]
fn repo_stats_leaves_a_torn_directory_torn() {
    let dir = tmpdir("cli-stats");
    let user = Entity::with_seed("User", b"durability");
    let dom = Entity::with_seed("Dom", b"durability");
    {
        let d = open(&dir, 4, WalConfig::default());
        for i in 0..8u64 {
            d.repository().publish_at_issuer(issue(&dom, &user, i));
        }
        d.compact().unwrap();
        for i in 8..16u64 {
            d.repository().publish_at_issuer(issue(&dom, &user, i));
        }
    }
    let victim = populated_log(&dir);
    let len = std::fs::metadata(&victim).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let stats = psf(&["--stats"], &dir);
    assert!(stats.status.success(), "--stats alone exits 0");
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("last-compact"), "got:\n{text}");
    assert!(
        text.contains("epoch "),
        "last-compact from the headers:\n{text}"
    );
    assert!(
        !text.contains("never"),
        "every segment was compacted:\n{text}"
    );
    assert_eq!(
        std::fs::metadata(&victim).unwrap().len(),
        len - 3,
        "--stats must not truncate the torn tail"
    );

    let verify = psf(&["--verify"], &dir);
    assert_eq!(verify.status.code(), Some(1), "still damaged after --stats");
    assert!(String::from_utf8_lossy(&verify.stdout).contains("DAMAGED"));

    // A writable open is what repairs it.
    let compact = psf(&["--compact", "--verify"], &dir);
    assert!(compact.status.success());
    assert!(String::from_utf8_lossy(&compact.stdout).contains("verdict: clean"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction writes each segment's snapshot sorted by (home, credential
/// id). The sort reads the carried id, and the bytes it produces are the
/// ones the re-hashing comparator produced: the digests below were taken
/// from the commit before credentials carried their ids, over this same
/// seeded world (keys and signatures are deterministic). Two publishes of
/// one credential at one home with different tags pin the tie order too.
#[test]
fn compaction_snapshot_bytes_are_pinned() {
    use psf_drbac::DiscoveryTag;
    const GOLDEN: [(usize, &str); 2] = [
        (
            1,
            "4e4324cf551b022acab069b8549a58a9d8e476aa2e882236d3f91447c53a8134",
        ),
        (
            8,
            "6458f30f3b4156556fed69da64b0de4be1f63dbddf2b1fc7b146daad98dd77b8",
        ),
    ];
    for (shards, golden) in GOLDEN {
        let dir = tmpdir("pinned");
        let d = open(&dir, shards, WalConfig::default());
        let doms: Vec<Entity> = (0..3)
            .map(|i| Entity::with_seed(format!("Dom{i}"), b"pinned"))
            .collect();
        for i in 0..48u64 {
            let user = Entity::with_seed(format!("User{i}"), b"pinned");
            let dom = &doms[i as usize % doms.len()];
            let cred = issue(dom, &user, i);
            let home = doms[(i as usize / 5) % doms.len()].name.clone();
            if i % 7 == 0 {
                d.repository()
                    .publish(home.clone(), cred.clone(), DiscoveryTag::None);
                d.bus().revoke(&cred.id());
            }
            d.repository().publish(home, cred, DiscoveryTag::Both);
        }
        let report = d.compact().unwrap();
        assert_eq!(report.snapshot_entries, 48 + 7);
        let mut image = Vec::new();
        for seg in wal::segment_dirs(&dir).unwrap() {
            image.extend(std::fs::read(seg.join(wal::SNAPSHOT_FILE)).unwrap());
        }
        let digest: String = psf_crypto::sha256(&image)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(digest, golden, "{shards}-shard snapshot bytes moved");
        drop(d);
        let verdict = wal::verify_sharded_dir(&dir).unwrap();
        assert!(
            verdict.is_clean(),
            "{shards}-shard directory verifies clean"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
