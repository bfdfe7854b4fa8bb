//! Cache-invalidation coverage for the authorization fast path: a cached
//! proof must be dropped — and the next `prove()` must re-derive or fail
//! afresh — whenever any credential it depends on is revoked or expires,
//! including assignment-right *supports* of third-party delegations, and
//! whenever the repository or registry contents change under it. Cached
//! failures obey the same rules, and a publish drops exactly the entries
//! whose search read a key in the publish's bucket.

use psf_drbac::entity::{Entity, EntityRegistry, RoleName, Subject};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{subject_key, AttrValue, AuthCache, DelegationBuilder, SignedDelegation};
use psf_views::ViewAcl;
use std::collections::HashSet;

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
/// credential the proof depends on moves the mark of that credential's
/// key bucket, so the cached proof must re-derive (and fail — the
/// credential is gone). A purge that removes nothing leaves every mark
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

/// The sign-on world in small: four view classes, each a chain of role
/// mappings `Leaf{class} → D2 → D1 → Org.{class}`, tried Admin first, so a
/// user of class `c` leaves `c` cached failures before its proof. Every
/// key a search can read lies in a bucket of its own.
struct SignOnWorld {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    cache: AuthCache,
    acl: ViewAcl,
    domains: [Entity; 3],
    /// `(user, class)`; class 4 holds no grant.
    users: Vec<(Entity, usize)>,
    /// Buckets of every key a search reads.
    read: HashSet<u32>,
}

const CLASSES: [&str; 4] = ["Admin", "Member", "Partner", "Guest"];

impl SignOnWorld {
    fn new() -> SignOnWorld {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let domains = ["Org", "D1", "D2"].map(|n| Entity::with_seed(n, b"signon"));
        let registrar = Entity::with_seed("Registrar", b"signon");
        for e in domains.iter().chain([&registrar]) {
            registry.register(e);
        }
        let mut read = HashSet::new();
        let mut fresh = |key: String| read.insert(repo.key_bucket(&key));
        assert!(fresh(subject_key(&registrar.as_subject())));
        let mut acl = ViewAcl::new();
        for class in CLASSES {
            acl = acl.rule(domains[0].role(class), format!("view.{class}"));
            // Org.{class} ← D1.{class}1 ← D2.{class}2 ← D2.Leaf{class}.
            let roles = [
                domains[0].role(class),
                domains[1].role(format!("{class}1")),
                domains[2].role(format!("{class}2")),
                domains[2].role(format!("Leaf{class}")),
            ];
            for (upper, lower) in roles.iter().zip(&roles[1..]) {
                let owner = domains.iter().find(|d| d.name == upper.owner).unwrap();
                repo.publish_at_issuer(
                    DelegationBuilder::new(owner)
                        .subject_role(lower.clone())
                        .role(upper.clone())
                        .sign(),
                );
            }
            for role in &roles {
                assert!(fresh(subject_key(&Subject::Role(role.clone()))));
            }
            repo.publish_at_issuer(
                DelegationBuilder::new(&domains[2])
                    .subject_entity(&registrar)
                    .assignment()
                    .role(domains[2].role(format!("Leaf{class}")))
                    .sign(),
            );
        }
        // Users whose key shares a bucket with an earlier key are skipped.
        let mut users = Vec::new();
        for i in 0..40 {
            let user = Entity::with_seed(format!("u{i}"), b"signon");
            if !fresh(subject_key(&user.as_subject())) {
                continue;
            }
            registry.register(&user);
            let class = i % 5;
            if class < 4 {
                let issuer = if i % 3 == 0 { &registrar } else { &domains[2] };
                repo.publish_at_issuer(
                    DelegationBuilder::new(issuer)
                        .subject_entity(&user)
                        .role(domains[2].role(format!("Leaf{}", CLASSES[class])))
                        .sign(),
                );
            }
            users.push((user, class));
        }
        SignOnWorld {
            registry,
            repo,
            bus: RevocationBus::new(),
            cache: AuthCache::new(),
            acl,
            domains,
            users,
            read,
        }
    }

    /// Sign every user on once, checking each view against the class.
    fn sign_on_all(&self) {
        for (user, class) in &self.users {
            let view = self.acl.select_view_cached(
                &user.as_subject(),
                &[],
                &self.registry,
                &self.repo,
                &self.bus,
                0,
                &self.cache,
            );
            let expected = CLASSES.get(*class).map(|c| format!("view.{c}"));
            assert_eq!(view.map(|(v, _)| v), expected);
        }
    }

    /// Cached decisions one pass makes: the failed rules, then the match.
    fn entries(&self) -> u64 {
        self.users.iter().map(|(_, c)| (*c + 1).min(4) as u64).sum()
    }
}

/// A publish drops exactly the cached decisions — proved *and* failed —
/// whose search read a key in the publish's bucket. Grants for fresh
/// subjects in buckets no search read drop nothing; one credential under
/// the Member chain's leaf role drops the two decisions (Admin failed,
/// Member proved) of each Member user and nothing else.
#[test]
fn a_publish_invalidates_only_the_proofs_that_read_its_key() {
    let w = SignOnWorld::new();
    w.sign_on_all();
    let warm = w.cache.stats();
    assert_eq!(warm.proof_misses, w.entries());

    let leaf = w.domains[2].role("LeafGuest");
    let fresh: Vec<Entity> = (0..)
        .map(|i| Entity::with_seed(format!("fresh{i}"), b"signon"))
        .filter(|e| {
            !w.read
                .contains(&w.repo.key_bucket(&subject_key(&e.as_subject())))
        })
        .take(24)
        .collect();
    for e in &fresh {
        w.repo.publish_at_issuer(
            DelegationBuilder::new(&w.domains[2])
                .subject_entity(e)
                .role(leaf.clone())
                .sign(),
        );
    }
    w.sign_on_all();
    let after = w.cache.stats();
    assert_eq!(
        after.proof_invalidations, 0,
        "unread buckets invalidate nothing"
    );
    assert_eq!(after.proof_hits - warm.proof_hits, w.entries());

    w.repo.publish_at_issuer(
        DelegationBuilder::new(&w.domains[2])
            .subject_role(w.domains[2].role("LeafMember"))
            .role(w.domains[2].role("Unrelated"))
            .sign(),
    );
    w.sign_on_all();
    let members = w.users.iter().filter(|(_, c)| *c == 1).count() as u64;
    assert!(members > 0);
    let last = w.cache.stats();
    assert_eq!(last.proof_invalidations, 2 * members);
    assert_eq!(
        last.proof_hits - after.proof_hits,
        w.entries() - 2 * members
    );
}

/// A cached failure is served while nothing it read changes — publishes
/// elsewhere included — and lifts the moment a publish lands on a key it
/// read.
#[test]
fn failed_searches_pin_marks_like_proved_ones() {
    let w = SignOnWorld::new();
    let (guest, _) = w.users.iter().find(|(_, c)| *c == 3).unwrap();
    let admin = w.domains[0].role("Admin");
    let engine = || ProofEngine::with_cache(&w.registry, &w.repo, &w.bus, 0, &w.cache);
    assert!(engine().prove(&guest.as_subject(), &admin, &[]).is_err());
    let (other, _) = w.users.iter().find(|(_, c)| *c == 0).unwrap();
    w.repo.publish_at_issuer(
        DelegationBuilder::new(&w.domains[2])
            .subject_entity(other)
            .role(w.domains[2].role("LeafGuest"))
            .sign(),
    );
    assert!(engine().prove(&guest.as_subject(), &admin, &[]).is_err());
    assert_eq!(
        w.cache.stats().proof_hits,
        1,
        "a publish elsewhere keeps the failure"
    );
    // The guest's own key gains an Admin grant: the failure must lift.
    w.repo.publish_at_issuer(
        DelegationBuilder::new(&w.domains[2])
            .subject_entity(guest)
            .role(w.domains[2].role("LeafAdmin"))
            .sign(),
    );
    engine()
        .prove(&guest.as_subject(), &admin, &[])
        .expect("a publish onto a read key lifts the cached failure");
    assert_eq!(w.cache.stats().proof_invalidations, 1);
}

/// Why a cached failure watches the credentials its search passed: the
/// walk expands a role once, with the attributes of its first arrival, so
/// a failure is not monotone in revocation or time. Here `X.R` is reached
/// first through `A` with `Trust (0,3)`, which the edge into `T.R`
/// (`Trust (5,9)`) annihilates; revoking — or outliving — the credential
/// into `A` lets the `B` arrival through, and the cache must follow.
#[test]
fn revoking_or_outliving_a_passed_credential_can_lift_a_failure() {
    for lift_by_expiry in [false, true] {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();
        let cache = AuthCache::new();
        let [user, d1, d2, x, t] =
            ["User", "D1", "D2", "X", "T"].map(|n| Entity::with_seed(n, b"arrival"));
        for e in [&user, &d1, &d2, &x, &t] {
            registry.register(e);
        }
        let trust = |lo, hi| AttrValue::Range(lo, hi);
        let mut via_a = DelegationBuilder::new(&d1)
            .subject_entity(&user)
            .role(d1.role("A"))
            .attr("Trust", trust(0, 3));
        if lift_by_expiry {
            via_a = via_a.expires(50);
        }
        let via_a = via_a.sign();
        let creds: [SignedDelegation; 5] = [
            via_a.clone(),
            DelegationBuilder::new(&d2)
                .subject_entity(&user)
                .role(d2.role("B"))
                .attr("Trust", trust(5, 9))
                .sign(),
            DelegationBuilder::new(&x)
                .subject_role(d1.role("A"))
                .role(x.role("R"))
                .sign(),
            DelegationBuilder::new(&x)
                .subject_role(d2.role("B"))
                .role(x.role("R"))
                .sign(),
            DelegationBuilder::new(&t)
                .subject_role(x.role("R"))
                .role(t.role("R"))
                .attr("Trust", trust(5, 9))
                .sign(),
        ];
        for c in creds {
            repo.publish_at_issuer(c);
        }
        let prove = |now, cache: Option<&AuthCache>| {
            let engine = match cache {
                Some(c) => ProofEngine::with_cache(&registry, &repo, &bus, now, c),
                None => ProofEngine::new(&registry, &repo, &bus, now),
            };
            engine.prove(&user.as_subject(), &t.role("R"), &[]).is_ok()
        };
        assert!(!prove(0, Some(&cache)) && !prove(0, Some(&cache)));
        assert_eq!(cache.stats().proof_hits, 1);
        let now = if lift_by_expiry {
            50
        } else {
            bus.revoke(&via_a.id());
            0
        };
        assert!(prove(now, None), "the uncached engine now proves it");
        assert!(prove(now, Some(&cache)), "the cached failure must lift");
    }
}

/// `RevocationBus::restore` — the durability layer re-seeding recovered
/// revocations — only ever adds ids; nothing un-revokes. So a cached
/// failure needs no rule of its own for it: ids its search rejected stay
/// rejected, and restoring an id it passed invalidates it through its
/// monitor like any revocation. Either way the cache agrees with a fresh
/// search.
#[test]
fn restore_only_adds_revocations_and_cached_failures_follow_it() {
    let w = SignOnWorld::new();
    let (guest, _) = w.users.iter().find(|(_, c)| *c == 3).unwrap();
    let admin = w.domains[0].role("Admin");
    let engine = || ProofEngine::with_cache(&w.registry, &w.repo, &w.bus, 0, &w.cache);
    let plain = || ProofEngine::new(&w.registry, &w.repo, &w.bus, 0);
    assert!(engine().prove(&guest.as_subject(), &admin, &[]).is_err());
    w.bus.restore(["not-a-credential-the-search-ever-saw"]);
    assert!(engine().prove(&guest.as_subject(), &admin, &[]).is_err());
    assert_eq!(
        w.cache.stats().proof_hits,
        1,
        "an unread restore keeps the failure"
    );
    let guest_leaf = w
        .repo
        .query_by_subject(&guest.as_subject())
        .pop()
        .expect("the guest's grant");
    assert_eq!(w.bus.restore([guest_leaf.cred_id().as_str()]), 1);
    for _ in 0..2 {
        let cached = engine().prove(&guest.as_subject(), &admin, &[]);
        let fresh = plain().prove(&guest.as_subject(), &admin, &[]);
        assert_eq!(cached.unwrap_err().error, fresh.unwrap_err().error);
    }
    let s = w.cache.stats();
    assert_eq!((s.proof_invalidations, s.proof_hits), (1, 2));
}

/// Eviction keeps what is used: a decision hit between every pair of
/// one-off decisions survives three table-fuls of them.
#[test]
fn a_hot_decision_survives_a_stream_of_one_off_decisions() {
    let w = World::chain(3);
    let engine = w.engine(0);
    engine.prove(&w.subject(), &w.target, &[]).unwrap();
    for i in 0..3_000 {
        let stranger = Subject::Role(RoleName::new("Nobody", format!("R{i}")));
        assert!(engine.prove(&stranger, &w.target, &[]).is_err());
        engine.prove(&w.subject(), &w.target, &[]).unwrap();
    }
    let s = w.cache.stats();
    assert_eq!(s.proof_hits, 3_000, "the hot entry was never evicted");
    assert!(w.cache.proof_entries() <= 1_024);
}
