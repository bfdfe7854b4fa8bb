//! The durable repository gives its file descriptors back. This is the
//! only test in its binary: the descriptor count is process-wide, and a
//! neighbour opening files would be counted too.
#![cfg(target_os = "linux")]

use psf_drbac::entity::Entity;
use psf_drbac::{DelegationBuilder, FsyncPolicy, ShardedDurableRepository, WalConfig};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn open_publish_drop_returns_every_descriptor() {
    let dir = std::env::temp_dir().join(format!("psf-fds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = WalConfig {
        fsync: FsyncPolicy::Never,
        auto_compact_appends: None,
    };
    let ny = Entity::with_seed("Comp.NY", b"fds");
    let before = open_descriptors();
    for round in 0..5 {
        let (d, report) = ShardedDurableRepository::open(&dir, 8, cfg).unwrap();
        assert_eq!(report.records_replayed, round * 10, "round {round}");
        // 9 segments, each a log handle and a sync handle.
        assert_eq!(open_descriptors(), before + 18);
        for i in 0..10 {
            let who = Entity::with_seed(format!("U{round}-{i}"), b"fds");
            let cred = DelegationBuilder::new(&ny)
                .subject_entity(&who)
                .role(ny.role("Member"))
                .sign();
            d.repository().publish_at_issuer(cred);
        }
        drop(d);
        assert_eq!(open_descriptors(), before, "round {round} leaked files");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
