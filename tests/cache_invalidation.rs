//! Cache-invalidation coverage for the authorization fast path: a cached
//! proof must be dropped — and the next `prove()` must re-derive or fail
//! afresh — whenever any credential it depends on is revoked or expires,
//! including assignment-right *supports* of third-party delegations, and
//! whenever the repository or registry contents change under it.

use psf_drbac::entity::{Entity, EntityRegistry, RoleName, Subject};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{AuthCache, DelegationBuilder};

struct World {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    cache: AuthCache,
    user: Entity,
    target: RoleName,
}

impl World {
    /// `user -R-> d2 -R-> d1 -R-> d0`, all published.
    fn chain(depth: usize) -> World {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();
        let user = Entity::with_seed("User", b"inval");
        registry.register(&user);
        let mut domains = Vec::new();
        for i in 0..depth {
            let d = Entity::with_seed(format!("D{i}"), b"inval");
            registry.register(&d);
            domains.push(d);
        }
        repo.publish_at_issuer(
            DelegationBuilder::new(&domains[depth - 1])
                .subject_entity(&user)
                .role(domains[depth - 1].role("R"))
                .sign(),
        );
        for i in (0..depth - 1).rev() {
            repo.publish_at_issuer(
                DelegationBuilder::new(&domains[i])
                    .subject_role(domains[i + 1].role("R"))
                    .role(domains[i].role("R"))
                    .sign(),
            );
        }
        let target = domains[0].role("R");
        World {
            registry,
            repo,
            bus,
            cache: AuthCache::new(),
            user,
            target,
        }
    }

    fn engine(&self, now: u64) -> ProofEngine<'_> {
        ProofEngine::with_cache(&self.registry, &self.repo, &self.bus, now, &self.cache)
    }

    fn subject(&self) -> Subject {
        self.user.as_subject()
    }
}

/// Warm the cache, then revoke each credential in the cached proof's
/// `credential_ids()` set in turn (fresh world each time): the next
/// `prove()` must not serve the stale entry — it re-derives and fails.
#[test]
fn revoking_any_proof_credential_forces_a_miss() {
    let depth = 4;
    let probe = World::chain(depth);
    let (proof, _) = probe
        .engine(0)
        .prove(&probe.subject(), &probe.target, &[])
        .unwrap();
    let ids = proof.credential_ids();
    assert_eq!(ids.len(), depth);

    for victim in &ids {
        let w = World::chain(depth);
        w.engine(0).prove(&w.subject(), &w.target, &[]).unwrap();
        // Warm: the second call is a pure cache hit.
        w.engine(0).prove(&w.subject(), &w.target, &[]).unwrap();
        let warm = w.cache.stats();
        assert_eq!(warm.proof_hits, 1, "second prove must hit");

        w.bus.revoke(victim.as_str());
        let err = w
            .engine(0)
            .prove(&w.subject(), &w.target, &[])
            .expect_err("revoked chain credential must break the proof");
        // The failed search really ran (it examined credentials) rather
        // than echoing a cached verdict.
        assert!(err.stats.credentials_examined > 0);
        let after = w.cache.stats();
        assert_eq!(after.proof_hits, warm.proof_hits, "no hit after revoke");
        assert!(after.proof_invalidations > 0, "stale entry dropped");
    }
}

/// Revoking a credential that does *not* appear in the proof, and was
/// never examined by the search, leaves the cached entry intact.
#[test]
fn revoking_an_unrelated_credential_keeps_the_entry() {
    let w = World::chain(3);
    w.engine(0).prove(&w.subject(), &w.target, &[]).unwrap();
    w.bus.revoke("not-a-credential-the-search-ever-saw");
    w.engine(0).prove(&w.subject(), &w.target, &[]).unwrap();
    assert_eq!(w.cache.stats().proof_hits, 1);
}

/// Third-party delegation: the proof's top edge is issued by a domain
/// that only holds the *right of assignment* via a support credential.
/// Revoking that support — which never appears as a chain edge — must
/// still invalidate the cached proof.
#[test]
fn revoking_a_third_party_support_forces_a_miss() {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let cache = AuthCache::new();
    let ny = Entity::with_seed("Comp.NY", b"inval");
    let sd = Entity::with_seed("Comp.SD", b"inval");
    let bob = Entity::with_seed("Bob", b"inval");
    for e in [&ny, &sd, &bob] {
        registry.register(e);
    }
    // SD grants Bob NY.Partner — only valid because NY granted SD the
    // assignment right.
    let grant = DelegationBuilder::new(&sd)
        .subject_entity(&bob)
        .role(ny.role("Partner"))
        .sign();
    let assignment = DelegationBuilder::new(&ny)
        .subject_entity(&sd)
        .assignment()
        .role(ny.role("Partner"))
        .sign();
    repo.publish_at_issuer(grant.clone());
    repo.publish_at_issuer(assignment.clone());

    let engine = ProofEngine::with_cache(&registry, &repo, &bus, 0, &cache);
    let (proof, _) = engine
        .prove(&bob.as_subject(), &ny.role("Partner"), &[])
        .unwrap();
    let support = proof.edges[0].support.as_ref().expect("support proof");
    assert_eq!(support.edges[0].credential.id(), assignment.id());
    // The support's id is part of the dependency set…
    assert!(proof
        .credential_ids()
        .iter()
        .any(|id| *id == assignment.id()));
    engine
        .prove(&bob.as_subject(), &ny.role("Partner"), &[])
        .unwrap();
    assert_eq!(cache.stats().proof_hits, 1);

    // …so revoking it kills the cached entry and the re-derivation.
    bus.revoke(&assignment.id());
    assert!(engine
        .prove(&bob.as_subject(), &ny.role("Partner"), &[])
        .is_err());
    let s = cache.stats();
    assert_eq!(s.proof_hits, 1, "no stale hit after support revocation");
    assert!(s.proof_invalidations > 0);
}

/// A cached proof over an expiring credential must lapse exactly at its
/// expiry time — a hit at `expiry - 1`, a fresh failing search at
/// `expiry`.
#[test]
fn expiry_is_observed_through_the_cache() {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let cache = AuthCache::new();
    let d = Entity::with_seed("D", b"inval");
    let user = Entity::with_seed("User", b"inval");
    registry.register(&d);
    registry.register(&user);
    repo.publish_at_issuer(
        DelegationBuilder::new(&d)
            .subject_entity(&user)
            .role(d.role("R"))
            .expires(100)
            .sign(),
    );
    let engine = |now| ProofEngine::with_cache(&registry, &repo, &bus, now, &cache);
    engine(0)
        .prove(&user.as_subject(), &d.role("R"), &[])
        .unwrap();
    engine(99)
        .prove(&user.as_subject(), &d.role("R"), &[])
        .unwrap();
    assert_eq!(cache.stats().proof_hits, 1, "pre-expiry repeat hits");
    assert!(engine(100)
        .prove(&user.as_subject(), &d.role("R"), &[])
        .is_err());
    assert_eq!(cache.stats().proof_hits, 1, "no hit at expiry");
}

/// Publishing into the repository bumps its epoch, so a cached decision
/// can never hide newly granted credentials: after a publish the next
/// `prove()` re-searches and picks up the new, shorter proof.
#[test]
fn repository_publish_forces_rederivation() {
    let w = World::chain(3);
    let (proof, _) = w.engine(0).prove(&w.subject(), &w.target, &[]).unwrap();
    assert_eq!(proof.edges.len(), 3);
    // The target domain now grants the user membership directly.
    let d0 = Entity::with_seed("D0", b"inval");
    w.repo.publish_at_issuer(
        DelegationBuilder::new(&d0)
            .subject_entity(&w.user)
            .role(w.target.clone())
            .sign(),
    );
    let (proof, _) = w.engine(0).prove(&w.subject(), &w.target, &[]).unwrap();
    assert_eq!(proof.edges.len(), 1, "publish must be visible immediately");
    assert_eq!(w.cache.stats().proof_hits, 0);
}

/// Failed searches are cached too, and invalidated the same way: after a
/// repository publish that makes the role provable, the cached failure
/// must not stick.
#[test]
fn negative_entries_lift_after_publish() {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let cache = AuthCache::new();
    let d = Entity::with_seed("D", b"inval");
    let user = Entity::with_seed("User", b"inval");
    registry.register(&d);
    registry.register(&user);
    let engine = ProofEngine::with_cache(&registry, &repo, &bus, 0, &cache);
    assert!(engine.prove(&user.as_subject(), &d.role("R"), &[]).is_err());
    assert!(engine.prove(&user.as_subject(), &d.role("R"), &[]).is_err());
    assert_eq!(cache.stats().proof_hits, 1, "repeat failure is a hit");
    repo.publish_at_issuer(
        DelegationBuilder::new(&d)
            .subject_entity(&user)
            .role(d.role("R"))
            .sign(),
    );
    engine
        .prove(&user.as_subject(), &d.role("R"), &[])
        .expect("publish must lift the cached failure");
}

/// `purge_expired` sweeps shard by shard. A purge that removes a
/// credential the proof depends on moves that shard's high-water mark,
/// so the cached proof must re-derive (and fail — the credential is
/// gone). A purge that removes nothing leaves every shard mark
/// untouched, and the cached proof — derived from identical contents —
/// stays servable.
#[test]
fn purge_expired_invalidates() {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let cache = AuthCache::new();
    let d = Entity::with_seed("D", b"inval");
    let user = Entity::with_seed("User", b"inval");
    registry.register(&d);
    registry.register(&user);
    repo.publish_at_issuer(
        DelegationBuilder::new(&d)
            .subject_entity(&user)
            .role(d.role("R"))
            .expires(100)
            .sign(),
    );
    let engine = ProofEngine::with_cache(&registry, &repo, &bus, 0, &cache);
    engine.prove(&user.as_subject(), &d.role("R"), &[]).unwrap();
    assert_eq!(repo.purge_expired(0), 0);
    engine.prove(&user.as_subject(), &d.role("R"), &[]).unwrap();
    assert_eq!(
        cache.stats().proof_hits,
        1,
        "a purge that removed nothing keeps the entry (contents unchanged)"
    );
    assert_eq!(repo.purge_expired(150), 1);
    engine
        .prove(&user.as_subject(), &d.role("R"), &[])
        .expect_err("purging the proof's credential must force a failing re-search");
    assert_eq!(
        cache.stats().proof_hits,
        1,
        "no stale hit after the effective purge"
    );
}
