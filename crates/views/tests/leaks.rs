//! Revocation monitoring leaves nothing behind: neither a dropped
//! `ValidityMonitor` nor a dropped single-sign-on token may cost the
//! process memory. Resident size is process-wide, so these tests have a
//! binary of their own and take turns.
#![cfg(target_os = "linux")]

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{AuthCache, DelegationBuilder};
use psf_views::ViewAcl;
use std::sync::Mutex;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The lock guards no data, so a failed neighbour's poison is ignored.
fn turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}
const CYCLES: usize = 200_000;
const BUDGET_KB: u64 = 8 * 1024;

fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Run `cycle` `CYCLES` times — after a tenth as many to fill whatever is
/// bounded (telemetry rings, allocator arenas) — and return the growth.
fn growth_kb(mut cycle: impl FnMut(usize)) -> u64 {
    (0..CYCLES / 10).for_each(&mut cycle);
    let before = resident_kb();
    (0..CYCLES).for_each(&mut cycle);
    resident_kb().saturating_sub(before)
}

#[test]
fn dropped_monitors_cost_the_bus_nothing() {
    let _turn = turn();
    let bus = RevocationBus::new();
    let ids: Vec<String> = (0..6).map(|i| format!("cred-{i}")).collect();
    let grown = growth_kb(|_| assert!(bus.monitor(ids.iter().cloned(), None).is_valid(0)));
    assert!(
        grown < BUDGET_KB,
        "{CYCLES} monitors left {grown} KiB behind"
    );
}

#[test]
fn dropped_sso_tokens_cost_the_bus_nothing() {
    let _turn = turn();
    let registry = EntityRegistry::new();
    let (repo, bus, cache) = (Repository::new(), RevocationBus::new(), AuthCache::new());
    // Comp.R0 ← D1.R1 ← … ← D5.R5 ← user: a six-credential proof.
    let mut issuer = Entity::with_seed("Comp", b"leak");
    registry.register(&issuer);
    let acl = ViewAcl::new().rule(issuer.role("R0"), "FullView");
    let mut role = issuer.role("R0");
    for i in 1..6 {
        let next = Entity::with_seed(format!("D{i}"), b"leak");
        registry.register(&next);
        let mapped = next.role(format!("R{i}"));
        let link = DelegationBuilder::new(&issuer)
            .subject_role(mapped.clone())
            .role(role);
        repo.publish_at_issuer(link.monitored().sign());
        (issuer, role) = (next, mapped);
    }
    let user = Entity::with_seed("User", b"leak");
    registry.register(&user);
    let grant = DelegationBuilder::new(&issuer)
        .subject_entity(&user)
        .role(role);
    repo.publish_at_issuer(grant.monitored().sign());

    let subject = user.as_subject();
    let grown = growth_kb(|_| {
        let token = acl
            .authorize_once_cached(&subject, &[], &registry, &repo, &bus, 0, &cache)
            .expect("authorized");
        assert!(token.is_valid(0));
    });
    assert!(grown < BUDGET_KB, "{CYCLES} mints left {grown} KiB behind");
}
