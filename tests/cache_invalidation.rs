//! Cache-invalidation coverage for the authorization fast path: a cached
//! proof must be dropped — and the next `prove()` must re-derive or fail
//! afresh — whenever any credential it depends on is revoked or expires,
//! including assignment-right *supports* of third-party delegations, and
//! whenever the repository or registry contents change under it. Cached
//! failures obey the same rules, and a publish drops exactly the entries
//! whose search read a key in the publish's bucket.

use psf_drbac::entity::{Entity, EntityRegistry, RoleName, Subject};
use psf_drbac::proof::{Proof, ProofEngine, ProofError, SearchStats};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{subject_key, AttrSet, AttrValue, AuthCache, DelegationBuilder, SignedDelegation};
use psf_telemetry::audit::{self, AuditRecord, CacheOutcome, Decision, Verdict};
use psf_telemetry::Text;
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
            let expected = CLASSES.get(*class).map(|c| format!("view.{c}"));
            assert_eq!(self.sign_on(user), expected);
        }
    }

    /// Sign `user` on through the cache; the view must equal what the
    /// uncached `select_view` answers at the same instant.
    fn sign_on(&self, user: &Entity) -> Option<String> {
        let subject = user.as_subject();
        let (registry, repo, bus) = (&self.registry, &self.repo, &self.bus);
        let cached = self
            .acl
            .select_view_cached(&subject, &[], registry, repo, bus, 0, &self.cache)
            .map(|(v, _)| v);
        let plain = self.acl.select_view(&subject, &[], registry, repo, bus, 0);
        assert_eq!(cached, plain.map(|(v, _)| v));
        cached
    }

    /// The first user of `class`.
    fn first_of(&self, class: usize) -> &Entity {
        &self.users.iter().find(|(_, c)| *c == class).unwrap().0
    }

    /// Cached decisions one pass makes: the failed rules, then the match.
    fn entries(&self) -> u64 {
        self.users.iter().map(|(_, c)| (*c + 1).min(4) as u64).sum()
    }

    /// Rules a pass tries for users holding a leaf grant: each search
    /// expands the user, then asks the proof table for the walk beyond
    /// the leaf role, one more proof lookup.
    fn spliced(&self) -> u64 {
        self.users
            .iter()
            .filter(|(_, c)| *c < 4)
            .map(|(_, c)| *c as u64 + 1)
            .sum()
    }

    /// Distinct `(leaf role, target)` walks those lookups ask for; the
    /// first lookup of each misses and stores it.
    fn suffixes(&self) -> u64 {
        let classes: HashSet<usize> = self.users.iter().map(|(_, c)| *c).collect();
        classes
            .iter()
            .filter(|c| **c < 4)
            .map(|c| *c as u64 + 1)
            .sum()
    }

    /// A registered user holding a grant of each of `leaves`
    /// (`(leaf role, attributes)`), issued by the leaf roles' owner.
    fn user_with(&self, name: &str, leaves: &[(&str, AttrSet)]) -> Entity {
        let user = Entity::with_seed(name, b"signon");
        self.registry.register(&user);
        for (leaf, attrs) in leaves {
            let mut grant = DelegationBuilder::new(&self.domains[2])
                .subject_entity(&user)
                .role(self.domains[2].role(*leaf));
            for (name, value) in &attrs.0 {
                grant = grant.attr(name.clone(), value.clone());
            }
            self.repo.publish_at_issuer(grant.sign());
        }
        user
    }

    /// `prove` through the cache, which must equal (full `Debug`,
    /// statistics included) the uncached answer.
    fn prove(&self, user: &Entity, role: &RoleName) -> Result<(Proof, SearchStats), ProofError> {
        let (registry, repo, bus) = (&self.registry, &self.repo, &self.bus);
        let subject = user.as_subject();
        let cached =
            ProofEngine::with_cache(registry, repo, bus, 0, &self.cache).prove(&subject, role, &[]);
        let plain = ProofEngine::new(registry, repo, bus, 0).prove(&subject, role, &[]);
        assert_eq!(format!("{cached:?}"), format!("{plain:?}"));
        cached
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
    // Of the lookups of the walk beyond a leaf role, the first of each
    // misses and the rest hit.
    let walks = (warm.walk_misses, warm.walk_hits);
    assert_eq!(walks, (w.suffixes(), w.spliced() - w.suffixes()));

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
    // The second pass is every decision's second sighting: each rule
    // misses, is searched again and stored, and so is the decision.
    assert_eq!(after.proof_hits, warm.proof_hits);
    assert_eq!(after.proof_misses - warm.proof_misses, w.entries());
    assert_eq!(after.proof_inserts - warm.proof_inserts, w.entries());

    w.repo.publish_at_issuer(
        DelegationBuilder::new(&w.domains[2])
            .subject_role(w.domains[2].role("LeafMember"))
            .role(w.domains[2].role("Unrelated"))
            .sign(),
    );
    w.sign_on_all();
    // The second pass stored each user's whole decision: the third pass
    // asks the proof table only for the Member users, whose decisions
    // read the published key. Their keys were seen before, so each
    // decision is stored again with its two entries (Admin failed, Member
    // proved). Both rest on a walk beyond `LeafMember`, lifted as well:
    // the first Member user's searches store those two again, the others
    // splice from them.
    let members = w.users.iter().filter(|(_, c)| *c == 1).count() as u64;
    let users = w.users.len() as u64;
    assert!(members > 0);
    let last = w.cache.stats();
    assert_eq!(after.decision_inserts, users);
    assert_eq!(last.decision_invalidations, members);
    assert_eq!(last.decision_hits - after.decision_hits, users - members);
    assert_eq!(last.proof_invalidations, 2 * members + 2);
    assert_eq!(last.proof_hits, after.proof_hits);
    assert_eq!(last.proof_misses - after.proof_misses, 2 * members);
    assert_eq!(last.walk_misses - after.walk_misses, 2);
    assert_eq!(last.walk_hits - after.walk_hits, 2 * members - 2);
    assert_eq!(last.proof_inserts - after.proof_inserts, 2 * members + 2);
    assert_eq!(last.decision_inserts - after.decision_inserts, members);
}

/// Stores follow sightings of a decision key. The first pass stores
/// nothing but the walks beyond the leaf roles; the second stores every
/// rule's answer and every decision; the third is all decision hits.
#[test]
fn a_first_sighting_stores_only_its_shared_walks() {
    let w = SignOnWorld::new();
    let users = w.users.len() as u64;
    w.sign_on_all();
    let first = w.cache.stats();
    assert_eq!(w.cache.proof_entries() as u64, w.suffixes());
    assert_eq!(
        (first.proof_inserts, first.decision_inserts),
        (w.suffixes(), 0)
    );
    w.sign_on_all();
    let second = w.cache.stats();
    assert_eq!(w.cache.proof_entries() as u64, w.suffixes() + w.entries());
    assert_eq!(second.proof_inserts - first.proof_inserts, w.entries());
    assert_eq!(second.decision_inserts, users);
    assert_eq!(second.proof_hits, 0);
    w.sign_on_all();
    let third = w.cache.stats();
    assert_eq!(third.decision_hits, users);
    assert_eq!(third.proof_hits + third.proof_misses, second.proof_misses);
    assert_eq!(third.proof_inserts, second.proof_inserts);
}

/// A first sighting stores nothing: one pass over subjects never seen
/// before runs every rule as a fresh search, so the decision table stays
/// empty and each sign-on costs one missed lookup. The walks beyond a
/// leaf role that an earlier user's search stored are walk hits, not
/// proof hits.
#[test]
fn one_pass_over_fresh_subjects_stores_no_decision() {
    let w = SignOnWorld::new();
    w.sign_on_all();
    let s = w.cache.stats();
    let users = w.users.len() as u64;
    assert_eq!((s.decision_misses, s.decision_hits), (users, 0));
    assert_eq!(s.decision_inserts, 0);
    assert_eq!((s.proof_misses, s.proof_hits), (w.entries(), 0));
    let walks = (s.walk_misses, s.walk_hits);
    assert_eq!(walks, (w.suffixes(), w.spliced() - w.suffixes()));
}

/// A Member user's stored decision read the user's own key while its
/// Admin rule failed: an Admin grant published for the user lifts it, and
/// the next sign-on answers the Admin view.
#[test]
fn publishing_an_admin_grant_for_a_member_lifts_the_decision() {
    let w = SignOnWorld::new();
    let member = w.first_of(1);
    for _ in 0..3 {
        assert_eq!(w.sign_on(member).as_deref(), Some("view.Member"));
    }
    let s = w.cache.stats();
    assert_eq!((s.decision_inserts, s.decision_hits), (1, 1));
    w.repo.publish_at_issuer(
        DelegationBuilder::new(&w.domains[2])
            .subject_entity(member)
            .role(w.domains[2].role("LeafAdmin"))
            .sign(),
    );
    assert_eq!(w.sign_on(member).as_deref(), Some("view.Admin"));
    let s = w.cache.stats();
    assert_eq!((s.decision_invalidations, s.decision_hits), (1, 1));
}

/// A decision watches what its failed rules passed, not only its proof.
/// The mapping `Org.Member → Org.Alumni` is passed only by the Admin
/// search, which expands `Org.Member` before failing; the Member search
/// stops on reaching it. Revoking the mapping lifts the decision.
#[test]
fn revoking_a_credential_only_a_failed_rule_passed_lifts_the_decision() {
    let w = SignOnWorld::new();
    let member = w.first_of(1);
    let org = &w.domains[0];
    let beyond = DelegationBuilder::new(org)
        .subject_role(org.role("Member"))
        .role(org.role("Alumni"))
        .sign();
    w.repo.publish_at_issuer(beyond.clone());
    for _ in 0..3 {
        assert_eq!(w.sign_on(member).as_deref(), Some("view.Member"));
    }
    let warm = w.cache.stats();
    assert_eq!((warm.decision_inserts, warm.decision_hits), (1, 1));
    w.bus.revoke(&beyond.id());
    assert_eq!(w.sign_on(member).as_deref(), Some("view.Member"));
    let s = w.cache.stats();
    assert_eq!((s.decision_invalidations, s.decision_hits), (1, 1));
    // Only the failed Admin rule's proof entry watched the mapping, with
    // the walk beyond `LeafMember` it was spliced from.
    assert_eq!(s.proof_invalidations, 2);
    assert_eq!(s.proof_hits - warm.proof_hits, 1);
}

/// The users of a leaf role share one proof-table entry for the walk
/// beyond it, and each user's own entry rests on that entry's evidence.
/// Revoking a credential of the chain lifts the shared entry and every
/// entry spliced from it.
#[test]
fn revoking_a_chain_credential_lifts_the_suffix_and_every_entry_spliced_from_it() {
    let w = SignOnWorld::new();
    let member = w.domains[0].role("Member");
    let users: Vec<&Entity> = w
        .users
        .iter()
        .filter(|(_, c)| *c == 1)
        .map(|(u, _)| u)
        .take(3)
        .collect();
    assert_eq!(users.len(), 3);
    for user in &users {
        w.prove(user, &member).unwrap();
    }
    let s = w.cache.stats();
    // Three entries of their own and one beyond `LeafMember`, which the
    // first search stored and the other two spliced from.
    assert_eq!((s.proof_misses, s.proof_hits), (3, 0));
    assert_eq!((s.walk_misses, s.walk_hits), (1, 2));
    assert_eq!(w.cache.proof_entries(), 4);
    let mapping = w
        .repo
        .query_by_subject(&Subject::Role(w.domains[1].role("Member1")))
        .pop()
        .expect("D1.Member1 → Org.Member");
    w.bus.revoke(mapping.cred_id().as_str());
    for user in &users {
        w.prove(user, &member).expect_err("the chain is broken");
    }
    // Every entry lifts once. The first search stores the walk beyond
    // `LeafMember` again, as a failure, and the other two splice from it.
    let s = w.cache.stats();
    assert_eq!(s.proof_invalidations, 4);
    assert_eq!((s.proof_misses, s.proof_hits), (3 + 3, 0));
    assert_eq!((s.walk_misses, s.walk_hits), (1 + 1, 2 + 2));
}

/// A publish onto a leaf role's key lifts the walk beyond it and every
/// failure spliced from it: `LeafMember → Org.Admin` turns a Member
/// user's cached Admin failure into a grant, and a Member user not seen
/// before splices the grant from the entry stored again.
#[test]
fn a_publish_onto_a_leaf_role_lifts_the_suffix_and_grants_a_cached_failure() {
    let w = SignOnWorld::new();
    let admin = w.domains[0].role("Admin");
    let members: Vec<&Entity> = w
        .users
        .iter()
        .filter(|(_, c)| *c == 1)
        .map(|(u, _)| u)
        .take(2)
        .collect();
    for _ in 0..2 {
        w.prove(members[0], &admin)
            .expect_err("a Member user is no Admin");
    }
    let s = w.cache.stats();
    assert_eq!((s.proof_misses, s.proof_hits), (1, 1));
    assert_eq!((s.walk_misses, s.walk_hits), (1, 0));
    w.repo.publish_at_issuer(
        DelegationBuilder::new(&w.domains[0])
            .subject_role(w.domains[2].role("LeafMember"))
            .role(admin.clone())
            .sign(),
    );
    for user in &members {
        let (proof, _) = w.prove(user, &admin).expect("the mapping grants Admin");
        assert_eq!(proof.edges.len(), 2, "leaf grant, then the new mapping");
    }
    let s = w.cache.stats();
    assert_eq!(s.proof_invalidations, 2);
    assert_eq!((s.proof_misses, s.proof_hits), (1 + 2, 1));
    assert_eq!((s.walk_misses, s.walk_hits), (1 + 1, 1));
}

/// The walk beyond a leaf role stands in for the rest of a search only
/// when exactly one edge left the user. A user holding two leaf grants
/// walks the whole graph: one proof lookup, no walk lookup and one
/// entry, its own.
#[test]
fn a_subject_with_two_leaf_grants_takes_the_plain_walk() {
    let w = SignOnWorld::new();
    let guest = w.domains[0].role("Guest");
    let one = w.user_with("one-leaf", &[("LeafGuest", AttrSet::new())]);
    let two = w.user_with(
        "two-leaves",
        &[
            ("LeafMember", AttrSet::new()),
            ("LeafGuest", AttrSet::new()),
        ],
    );
    w.prove(&one, &guest).unwrap();
    let s = w.cache.stats();
    assert_eq!((s.proof_misses, s.walk_misses), (1, 1));
    assert_eq!(w.cache.proof_entries(), 2);
    w.prove(&two, &guest).unwrap();
    let s = w.cache.stats();
    assert_eq!((s.proof_misses, s.walk_misses), (2, 1));
    assert_eq!(s.proof_hits + s.walk_hits, 0);
    assert_eq!(w.cache.proof_entries(), 3);
}

/// Attributes on the one leaf grant attenuate every later edge, so the
/// walk beyond the leaf role, walked from the role with none, stands in
/// only when it followed no edge that conveyed attributes. Above
/// `LeafTrusted → D1.Trusted1`, which conveys `Trust (5,9)`, a grant with
/// `Trust (0,3)` annihilates and one with `Trust (0,7)` narrows to
/// `(5,7)`: both take the plain walk, though the entry beyond
/// `LeafTrusted` proves `Trust (5,9)`. Above the Guest chain, which
/// conveys nothing, an attributed grant splices and keeps its own.
#[test]
fn an_attributed_leaf_above_an_attribute_conveying_suffix_takes_the_plain_walk() {
    let w = SignOnWorld::new();
    let [org, d1, d2] = &w.domains;
    let trust = |lo, hi| AttrSet::new().with("Trust", AttrValue::Range(lo, hi));
    let trusted = org.role("Trusted");
    w.repo.publish_at_issuer(
        DelegationBuilder::new(d1)
            .subject_role(d2.role("LeafTrusted"))
            .role(d1.role("Trusted1"))
            .attr("Trust", AttrValue::Range(5, 9))
            .sign(),
    );
    w.repo.publish_at_issuer(
        DelegationBuilder::new(org)
            .subject_role(d1.role("Trusted1"))
            .role(trusted.clone())
            .sign(),
    );
    // Every grant is published before the first search, so no publish
    // lands in a bucket an entry has read.
    let plain = w.user_with("plain", &[("LeafTrusted", AttrSet::new())]);
    let narrow = w.user_with("narrow", &[("LeafTrusted", trust(0, 3))]);
    let wide = w.user_with("wide", &[("LeafTrusted", trust(0, 7))]);
    let guest_user = w.user_with("guest", &[("LeafGuest", AttrSet::new())]);
    let tagged = w.user_with("tagged", &[("LeafGuest", trust(0, 3))]);

    let (proof, _) = w.prove(&plain, &trusted).unwrap();
    assert_eq!(proof.attrs, trust(5, 9));
    w.prove(&narrow, &trusted)
        .expect_err("Trust (0,3) meets (5,9) nowhere");
    let (proof, _) = w.prove(&wide, &trusted).unwrap();
    assert_eq!(proof.attrs, trust(5, 7));

    let guest = org.role("Guest");
    w.prove(&guest_user, &guest).unwrap();
    let hits = w.cache.stats().walk_hits;
    let (proof, _) = w.prove(&tagged, &guest).unwrap();
    assert_eq!(proof.attrs, trust(0, 3));
    assert_eq!(w.cache.stats().walk_hits, hits + 1, "spliced");
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

/// Sign `subject` on through `acl` under a trace of its own, cached or
/// not, and return the `select_view` audit record and span view field it
/// left, with the view granted and its proof's chain digest.
fn audited_sign_on(
    w: &SignOnWorld,
    acl: &ViewAcl,
    subject: &Subject,
    cached: bool,
) -> (AuditRecord, String, Option<String>, Text) {
    let (registry, repo, bus) = (&w.registry, &w.repo, &w.bus);
    let root = psf_telemetry::span("psf.test", "sign_on");
    let trace = root.trace_id();
    let answer = if cached {
        acl.select_view_cached(subject, &[], registry, repo, bus, 0, &w.cache)
    } else {
        acl.select_view(subject, &[], registry, repo, bus, 0)
    };
    drop(root);
    let mut records = audit::global().query(None, false, Some(trace));
    records.retain(|r| r.decision == Decision::SelectView);
    assert_eq!(records.len(), 1, "one select_view record per sign-on");
    let spans = psf_telemetry::tracer().snapshot();
    let span = spans
        .iter()
        .find(|s| s.trace == Some(trace) && s.name == "select_view")
        .expect("the sign-on's select_view span");
    let view = span.fields.iter().find(|(k, _)| *k == "view").unwrap();
    let (view_granted, proof) = answer.unzip();
    let digest = proof
        .flatten()
        .map(|p| audit::chain_digest(&p.credential_ids()))
        .unwrap_or_default();
    (records.remove(0), view.1.to_string(), view_granted, digest)
}

/// A stored decision carries its audit record: the hit commits what the
/// storing miss committed, and both what a first sighting and an uncached
/// sign-on build, field for field but for the record's own sequence
/// number, time, trace and cache provenance. The span names the same view.
/// Checked for a role-rule grant, a catch-all grant and a denial.
#[test]
fn a_hit_audits_exactly_as_its_miss_did() {
    let w = SignOnWorld::new();
    let anyone = w.acl.clone().others("view.Anyone");
    let member = w.first_of(1).as_subject();
    let nobody = w.first_of(4).as_subject();
    let failed_all = "no proof of Org.Admin, Org.Member, Org.Partner, Org.Guest";
    for (acl, subject, allow, detail) in [
        (
            &w.acl,
            &member,
            true,
            "role Org.Member; no proof of Org.Admin".to_string(),
        ),
        (
            &anyone,
            &nobody,
            true,
            format!("catch-all rule; {failed_all}"),
        ),
        (
            &w.acl,
            &nobody,
            false,
            format!("no acl rule matched; {failed_all}"),
        ),
    ] {
        let decision_hits = w.cache.stats().decision_hits;
        // Uncached, first sighting, storing miss, hit.
        let sign_ons =
            [false, true, true, true].map(|cached| audited_sign_on(&w, acl, subject, cached));
        assert_eq!(w.cache.stats().decision_hits, decision_hits + 1);
        let (reference, view, granted, digest) = &sign_ons[0];
        assert_eq!(reference.verdict == Verdict::Allow, allow);
        assert_eq!(
            reference.detail, *detail,
            "the rule decided and each that failed"
        );
        assert_eq!(
            *reference.chain_digest, **digest,
            "the digest of the proof granted"
        );
        assert_eq!(view, granted.as_deref().unwrap_or("<denied>"));
        for (i, (record, span_view, _, _)) in sign_ons.iter().enumerate() {
            let provenance = (record.cache, record.epoch.is_some());
            let hit = if allow {
                CacheOutcome::Hit
            } else {
                CacheOutcome::NegativeHit
            };
            assert_eq!(
                provenance,
                if i < 3 {
                    (CacheOutcome::Uncached, false)
                } else {
                    (hit, true)
                }
            );
            assert!(
                record.trace.is_some(),
                "each record joins its own sign-on's trace"
            );
            let bare = AuditRecord {
                seq: reference.seq,
                t_us: reference.t_us,
                trace: reference.trace,
                cache: reference.cache,
                epoch: reference.epoch,
                ..record.clone()
            };
            assert_eq!(bare, *reference, "sign-on {i}");
            assert_eq!(span_view, view, "sign-on {i}");
        }
    }
}

/// A denial is explained by its one record: a user who fails every rule
/// leaves exactly one audit record in its sign-on's trace, the
/// `select_view` denial that `psf audit --subject S --deny-only` prints,
/// and it names every role the user failed. The rules' searches leave
/// spans but no records. The same record is committed uncached, on a first
/// sighting, on the storing miss and on a hit.
#[test]
fn a_denial_is_explained_by_its_one_record() {
    let w = SignOnWorld::new();
    let nobody = w.first_of(4);
    let name = nobody.name.to_string();
    let sign_ons = [false, true, true, true]
        .map(|cached| audited_sign_on(&w, &w.acl, &nobody.as_subject(), cached));
    for (i, (record, ..)) in sign_ons.iter().enumerate() {
        let trace = record.trace;
        assert_eq!(
            audit::global().query(Some(&name), true, trace),
            std::slice::from_ref(record),
            "sign-on {i}: the denial is the trace's one denial record"
        );
        assert_eq!(
            audit::global().query(None, false, trace).len(),
            1,
            "sign-on {i}: no rule's search left a record"
        );
        let rules_searched = psf_telemetry::tracer()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace && s.name == "prove")
            .count();
        let hit = i == 3;
        assert_eq!(rules_searched, if hit { 0 } else { 4 }, "sign-on {i}");
        assert_eq!(record.decision, Decision::SelectView);
        assert_eq!(record.verdict, Verdict::Deny);
        assert_eq!(*record.subject, *name);
        assert_eq!(
            record.detail,
            "no acl rule matched; no proof of Org.Admin, Org.Member, Org.Partner, Org.Guest"
        );
        let bare = AuditRecord {
            cache: CacheOutcome::Uncached,
            epoch: None,
            ..record.clone()
        };
        let reference = &sign_ons[0].0;
        assert_eq!(
            bare,
            AuditRecord {
                seq: record.seq,
                t_us: record.t_us,
                trace,
                ..reference.clone()
            },
            "sign-on {i}"
        );
    }
}

/// A decision lifted by a revocation is decided again, and the record its
/// hits commit is the new decision's: a Member user holding two leaf
/// grants loses the one its proof rested on, and the record carries the
/// other chain's digest.
#[test]
fn a_redecided_sign_on_audits_its_new_chain() {
    let w = SignOnWorld::new();
    let user = w.user_with("TwoGrants", &[("LeafMember", AttrSet::default())]);
    w.repo.publish_at_issuer(
        DelegationBuilder::new(&w.domains[2])
            .subject_entity(&user)
            .role(w.domains[2].role("LeafMember"))
            .expires(1_000_000)
            .sign(),
    );
    let subject = user.as_subject();
    let sign_ons = [0; 3].map(|_| audited_sign_on(&w, &w.acl, &subject, true));
    assert_eq!(sign_ons[2].0.cache, CacheOutcome::Hit);
    let old = sign_ons[2].0.chain_digest.clone();
    assert!(sign_ons.iter().all(|(r, ..)| r.chain_digest == old));
    let (registry, repo, bus) = (&w.registry, &w.repo, &w.bus);
    let (_, proof) = w
        .acl
        .select_view(&subject, &[], registry, repo, bus, 0)
        .unwrap();
    let leaf = proof.unwrap().credential_ids()[0];
    w.bus.revoke(leaf.as_str());
    let invalidations = w.cache.stats().decision_invalidations;
    let again = [0; 2].map(|_| audited_sign_on(&w, &w.acl, &subject, true));
    assert_eq!(w.cache.stats().decision_invalidations, invalidations + 1);
    assert_eq!(
        again.each_ref().map(|(r, ..)| r.cache),
        [CacheOutcome::Uncached, CacheOutcome::Hit]
    );
    for (record, _, view, digest) in &again {
        assert_eq!(view.as_deref(), Some("view.Member"));
        assert_ne!(
            record.chain_digest, old,
            "the revoked chain's digest is gone"
        );
        assert_eq!(
            *record.chain_digest, **digest,
            "the digest of the chain now granted"
        );
    }
}
