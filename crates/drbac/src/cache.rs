//! The authorization fast path: the proof and view-decision tables.
//!
//! `ProofEngine::prove` is on the hot path of every component interaction
//! (single sign-on, continuous authorization, planner oracle queries), yet
//! without caching it re-walks the delegation graph on every call.
//! SAFE-style trust systems make this tractable by caching proof results
//! and invalidating them through the credential-linkage graph; dRBAC's
//! [`RevocationBus`] already holds exactly the state such invalidation
//! needs. (Signature verdicts need no table: each [`Credential`] remembers
//! its own, see [`Credential::verify`].)
//!
//! [`AuthCache`] holds two memo tables. The proof table memoizes whole
//! `prove()` results, failures included, keyed by `(subject, role,
//! fingerprint of the presented credential set)`. An entry pins every
//! input its search read: the mark of each key bucket it queried (see
//! [`crate::repository`]), the registry epoch, and a [`ValidityMonitor`]
//! over every credential that passed its checks, which lapses at the
//! earliest expiry among them; it is served only at or after the time it
//! was derived. A hit is therefore *bit-identical* to a fresh search: BFS
//! is deterministic, and over unchanged inputs it reproduces the recorded
//! result. The walk beyond a role that many searches share is an entry
//! too (`ProofEngine::splice`), and an entry spliced from it links its
//! pins instead of copying them.
//!
//! The decision table (paper §4.2: the decision is "completed when the
//! view is first instantiated") remembers whole role→view decisions,
//! keyed by `(subject, rule table, presented fingerprint)`, so a repeat
//! sign-on costs one lookup instead of one per rule tried. Only a repeat
//! stores one: a doorkeeper table (TinyLFU) remembers the hashes of
//! decision keys that missed, a first sighting stores nothing but shared
//! walks, and the next stores its rules' answers and the decision, which
//! rests on the pins of all of them, failed rules included. The tables
//! gather what an entry rests on as one [`Evidence`], share one validity rule
//! (`Pins::current`), and evict by CLOCK (second chance), so a hot
//! working set is never flushed by a stream of one-off decisions.
//!
//! One `AuthCache` must only ever be used with a single
//! `(EntityRegistry, CredentialSource, RevocationBus)` triple — the
//! entries record marks and epochs of *those* structures.
//! [`Guard`](crate::Guard) and the planner's oracle own their cache for
//! exactly this reason.

use crate::clock_table::ClockTable;
use crate::delegation::Credential;
use crate::entity::{RoleName, Subject};
use crate::proof::{Proof, ProofError, SearchStats};
use crate::repository::{fnv1a, subject_key, CredentialSource, KeyMark};
use crate::revocation::{RevocationBus, ValidityMonitor};
use crate::Timestamp;
use parking_lot::Mutex;
use psf_telemetry::{counter, AuditRecord};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Proof entries kept; the CLOCK hand picks which one a new entry replaces.
const PROOF_CAP: usize = 1024;
/// View decisions kept, evicted the same way.
const DECISION_CAP: usize = 1024;

/// Key of a proof-cache entry: who is being authorized for what, under
/// which presented credential set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ProofKey {
    /// `subject_key` of the subject being authorized.
    pub subject: String,
    /// Rendered target role.
    pub role: String,
    /// Order-independent fingerprint of the presented credential ids.
    pub presented: PresentedFingerprint,
}

/// Order-independent fingerprint of a presented credential set: FNV-1a of
/// each credential id, combined commutatively (wrapping sum + xor) with
/// the set size. Collisions require two distinct id multisets agreeing on
/// all three 64-bit aggregates — negligible against sha256-derived ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PresentedFingerprint {
    sum: u64,
    xor: u64,
    len: u64,
}

impl PresentedFingerprint {
    /// Fingerprint a presented credential slice from the carried ids.
    pub fn of(presented: &[Arc<Credential>]) -> PresentedFingerprint {
        let mut sum = 0u64;
        let mut xor = 0u64;
        for c in presented {
            let h = fnv1a(c.cred_id().as_str().as_bytes());
            sum = sum.wrapping_add(h);
            xor ^= h;
        }
        PresentedFingerprint {
            sum,
            xor,
            len: presented.len() as u64,
        }
    }
}

/// What an answer rests on: the key buckets read, the credentials whose
/// status can still change, and the table entries it was built from. A
/// search gathers it as it walks; a splice or a view decision adds the
/// entries it uses through the one union. It decides how long an entry
/// built on it, a proof, a failure or a decision, stays exact.
#[derive(Default)]
pub struct Evidence {
    /// `(bucket, mark)` of every key queried, including keys that
    /// returned nothing: a later publish for such a key can change the
    /// answer, so its bucket is pinned too.
    marks: Vec<KeyMark>,
    /// Ids of every credential that passed signature, expiry and
    /// revocation checks. Only these can change the answer later, by
    /// being revoked or by expiring; a rejected credential stays rejected
    /// (the revoked set only grows, time only moves forward).
    ids: Vec<String>,
    /// Earliest expiry among `ids`, if any of them expires.
    expires: Option<Timestamp>,
    /// Some edge followed conveyed attributes.
    pub(crate) conveys: bool,
    /// Nothing resting on this evidence is stored: a query went to a
    /// source that keeps no marks, or it is a view decision's first
    /// sighting, whose rules' fresh answers are not stored either.
    pub(crate) discarded: bool,
    /// Pins of the table entries this answer was built from, shared.
    rests_on: Vec<Arc<Pins>>,
}

impl Evidence {
    /// Record one credential that passed its checks.
    pub(crate) fn note(&mut self, cred: &Credential) {
        self.ids.push(cred.cred_id().into());
        self.expires = self.expires.into_iter().chain(cred.body.expires).min();
    }

    /// Record the mark one subject-key query returned.
    pub(crate) fn note_query(&mut self, mark: Option<KeyMark>) {
        match mark {
            Some(mark) => self.marks.push(mark),
            None => self.discarded = true,
        }
    }

    /// Add everything `other` rests on: every mark, every id, the earlier
    /// expiry, whether an edge conveyed attributes, whether it may be
    /// stored, and every entry it was built from.
    pub(crate) fn union(&mut self, mut other: Evidence) {
        self.marks.append(&mut other.marks);
        self.ids.append(&mut other.ids);
        self.expires = self.expires.into_iter().chain(other.expires).min();
        self.conveys |= other.conveys;
        self.discarded |= other.discarded;
        self.rests_on.append(&mut other.rests_on);
    }

    /// Whether nothing resting on this evidence will be stored.
    pub fn discarded(&self) -> bool {
        self.discarded
    }

    /// The evidence of an answer taken whole from a table entry.
    fn entry(pins: &Arc<Pins>) -> Evidence {
        Evidence {
            conveys: pins.conveys,
            rests_on: vec![pins.clone()],
            ..Evidence::default()
        }
    }
}

/// A proof or a failure, with the statistics of the search behind it.
type ProveResult = Result<(Proof, SearchStats), ProofError>;

/// What a cached answer rests on, and the one rule for whether it still
/// holds. Both tables pin their entries this way: a proof entry with the
/// evidence of its own search (and a spliced one with its shared walk's
/// pins), a decision entry with the pins of every rule it tried.
pub(crate) struct Pins {
    /// `(bucket, mark)` of every key bucket read, sorted and deduplicated.
    marks: Box<[KeyMark]>,
    /// Watches every credential that passed a search's checks, up to the
    /// first instant at which one of them expires.
    monitor: ValidityMonitor,
    registry_epoch: u64,
    observed_now: Timestamp,
    /// Some edge a search behind it followed conveyed attributes: a splice
    /// onto a proof entry needs to know.
    conveys: bool,
    /// Pins of the entries the answer was built from, shared.
    rests_on: Box<[Arc<Pins>]>,
}

impl Pins {
    fn new(mut e: Evidence, bus: &RevocationBus, registry_epoch: u64, now: Timestamp) -> Pins {
        e.marks.sort_unstable();
        e.marks.dedup();
        e.ids.sort_unstable();
        e.ids.dedup();
        Pins {
            marks: e.marks.into(),
            monitor: bus.monitor(e.ids, e.expires),
            registry_epoch,
            observed_now: now,
            conveys: e.conveys,
            rests_on: e.rests_on.into(),
        }
    }

    /// Whether every input the pinned answer read, its own or through an
    /// entry it was built from, is unchanged. Cheap checks first; a
    /// monitor rescans its ids under the bus lock only after the revoked
    /// set has grown.
    fn current(&self, source: &dyn CredentialSource, now: Timestamp, registry_epoch: u64) -> bool {
        self.registry_epoch == registry_epoch
            && now >= self.observed_now
            && self
                .marks
                .iter()
                .all(|&(bucket, mark)| source.bucket_mark(bucket) == Some(mark))
            && self.monitor.is_valid(now)
            && self
                .rests_on
                .iter()
                .all(|pins| pins.current(source, now, registry_epoch))
    }
}

/// A table entry: the answer and what it rests on.
struct Entry<T> {
    answer: T,
    pins: Arc<Pins>,
}

/// The ordered `(role, view)` rules of a role→view table, shared by every
/// clone of the table and hashed once as it is built: the table's
/// identity in a [`DecisionKey`]. Two tables are one key only when their
/// rules are equal, whatever their hashes; the same table compares by
/// pointer.
#[derive(Debug, Clone, Default)]
pub struct AclRules {
    rules: Arc<Vec<(Option<RoleName>, String)>>,
    hash: u64,
}

impl AclRules {
    /// Append a rule: a role, or `None` for the catch-all, and its view.
    pub fn push(&mut self, role: Option<RoleName>, view: String) {
        Arc::make_mut(&mut self.rules).push((role, view));
        let mut h = std::hash::DefaultHasher::new();
        self.rules.hash(&mut h);
        self.hash = h.finish();
    }

    /// The rules, in the order they are tried.
    pub fn as_slice(&self) -> &[(Option<RoleName>, String)] {
        &self.rules
    }
}

impl PartialEq for AclRules {
    fn eq(&self, other: &AclRules) -> bool {
        Arc::ptr_eq(&self.rules, &other.rules)
            || (self.hash == other.hash && self.rules == other.rules)
    }
}

impl Eq for AclRules {}

impl Hash for AclRules {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Key of a view decision: who signs on, against which rule table, with
/// which presented credential set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    subject: String,
    acl: AclRules,
    presented: PresentedFingerprint,
}

impl DecisionKey {
    /// The key of `subject`'s decision under `acl` with `presented`.
    pub fn new(subject: &Subject, acl: &AclRules, presented: &[Arc<Credential>]) -> DecisionKey {
        DecisionKey {
            subject: subject_key(subject),
            acl: acl.clone(),
            presented: PresentedFingerprint::of(presented),
        }
    }
}

/// What a role→view table decided for one sign-on: the index of the rule
/// that matched (`None`: none did) and, for a role rule, its proof.
#[derive(Debug, Clone, Default)]
pub struct ViewDecision {
    /// Index of the matching rule in the table.
    pub rule: Option<usize>,
    /// The proof of the matching role rule (`None` for the catch-all).
    pub proof: Option<Proof>,
    /// Once stored, the decision's audit record without provenance, its
    /// text (its `object` the view) shared with every hit that commits it.
    pub audit: Option<Arc<AuditRecord>>,
}

/// Point-in-time counters for cache observability (mirrored into
/// `psf-telemetry` as `psf.drbac.cache.*`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Proof-cache lookups answered from the cache.
    pub proof_hits: u64,
    /// Proof-cache lookups that fell through to a full search.
    pub proof_misses: u64,
    /// Proof entries dropped because one of their pinned inputs changed.
    pub proof_invalidations: u64,
    /// Proof entries stored, shared walks included.
    pub proof_inserts: u64,
    /// Lookups of a shared walk (`ProofEngine::splice`) answered from the
    /// proof table; no request is answered by one alone.
    pub walk_hits: u64,
    /// Lookups of a shared walk that fell through to its search.
    pub walk_misses: u64,
    /// Signature checks answered from a credential's stored verdict.
    pub cred_hits: u64,
    /// Signature checks computed.
    pub cred_misses: u64,
    /// View decisions answered from the decision table.
    pub decision_hits: u64,
    /// View decisions that fell through to their rules.
    pub decision_misses: u64,
    /// Decision entries dropped because one of their pinned inputs changed.
    pub decision_invalidations: u64,
    /// Decisions stored: their key had missed before.
    pub decision_inserts: u64,
}

#[derive(Default)]
struct StatCells {
    proof_hits: AtomicU64,
    proof_misses: AtomicU64,
    proof_invalidations: AtomicU64,
    proof_inserts: AtomicU64,
    walk_hits: AtomicU64,
    walk_misses: AtomicU64,
    cred_hits: AtomicU64,
    cred_misses: AtomicU64,
    decision_hits: AtomicU64,
    decision_misses: AtomicU64,
    decision_invalidations: AtomicU64,
    decision_inserts: AtomicU64,
}

struct CacheInner {
    proofs: Mutex<ClockTable<ProofKey, Entry<ProveResult>>>,
    decisions: Mutex<ClockTable<DecisionKey, Entry<ViewDecision>>>,
    /// Hashes of the decision keys that missed: the doorkeeper.
    seen: Mutex<ClockTable<u64, ()>>,
    stats: StatCells,
}

/// Shared, thread-safe authorization cache (cheap to clone: `Arc` inner).
#[derive(Clone)]
pub struct AuthCache {
    inner: Arc<CacheInner>,
}

impl Default for AuthCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthCache {
    /// New empty cache.
    pub fn new() -> AuthCache {
        AuthCache {
            inner: Arc::new(CacheInner {
                proofs: Mutex::new(ClockTable::new(PROOF_CAP)),
                decisions: Mutex::new(ClockTable::new(DECISION_CAP)),
                seen: Mutex::new(ClockTable::new(DECISION_CAP)),
                stats: StatCells::default(),
            }),
        }
    }

    /// Count one signature check of a search through this cache:
    /// answered from the credential's stored verdict, or computed.
    pub(crate) fn note_verdict(&self, recalled: bool) {
        if recalled {
            self.inner.stats.cred_hits.fetch_add(1, Relaxed);
            counter!("psf.drbac.cache.cred.hits").inc();
        } else {
            self.inner.stats.cred_misses.fetch_add(1, Relaxed);
            counter!("psf.drbac.cache.cred.misses").inc();
        }
    }

    /// Look up a memoized `prove()` result. Returns `None` on a miss,
    /// including an entry dropped because an input it pinned changed:
    /// `source` answers the current mark of each bucket the entry pinned.
    /// A hit comes with the entry as evidence. A `walk` lookup is a
    /// splice's, of a shared walk, and counts as a walk hit or miss.
    pub(crate) fn lookup_proof(
        &self,
        key: &ProofKey,
        now: Timestamp,
        source: &dyn CredentialSource,
        registry_epoch: u64,
        walk: bool,
    ) -> Option<(ProveResult, Evidence)> {
        let s = &self.inner.stats;
        let mut proofs = self.inner.proofs.lock();
        let found = match proofs.get(key) {
            Some(e) if e.pins.current(source, now, registry_epoch) => {
                Some((e.answer.clone(), Evidence::entry(&e.pins)))
            }
            Some(_) => {
                proofs.remove(key);
                s.proof_invalidations.fetch_add(1, Relaxed);
                counter!("psf.drbac.cache.proof.invalidations").inc();
                None
            }
            None => None,
        };
        drop(proofs);
        let (cell, counted) = match (walk, found.is_some()) {
            (false, true) => (&s.proof_hits, counter!("psf.drbac.cache.proof.hits")),
            (false, false) => (&s.proof_misses, counter!("psf.drbac.cache.proof.misses")),
            (true, true) => (&s.walk_hits, counter!("psf.drbac.cache.walk.hits")),
            (true, false) => (&s.walk_misses, counter!("psf.drbac.cache.walk.misses")),
        };
        cell.fetch_add(1, Relaxed);
        counted.inc();
        found
    }

    /// Record a fresh `prove()` result — proof or failure — with the
    /// evidence of its search, `registry_epoch` read *before* the search
    /// (each mark was read under the lock of the query it pins): if every
    /// pin still holds at a later lookup, no input the search read has
    /// changed since. Returns what an answer built from this one rests
    /// on: the stored entry, or `evidence` when nothing was stored.
    pub(crate) fn insert_proof(
        &self,
        key: ProofKey,
        answer: ProveResult,
        evidence: Evidence,
        bus: &RevocationBus,
        registry_epoch: u64,
        now: Timestamp,
    ) -> Evidence {
        // A source without marks (a remote repository) could change
        // content silently: nothing read from it is cached.
        if evidence.discarded {
            return evidence;
        }
        let pins = Arc::new(Pins::new(evidence, bus, registry_epoch, now));
        let stored = Evidence::entry(&pins);
        self.inner.proofs.lock().insert(key, Entry { answer, pins });
        self.inner.stats.proof_inserts.fetch_add(1, Relaxed);
        counter!("psf.drbac.cache.proof.inserts").inc();
        stored
    }

    /// Look up a remembered view decision. A miss, including an entry
    /// dropped because an input it pinned changed (`source` answers the
    /// current mark of each bucket the entry pinned), returns the evidence
    /// the decision starts from: discarded on a first sighting, whose key
    /// hash is noted, clean once the hash is known (a collision only
    /// admits early: a decision is found by its whole key).
    pub fn lookup_decision(
        &self,
        key: &DecisionKey,
        now: Timestamp,
        source: &dyn CredentialSource,
        registry_epoch: u64,
    ) -> Result<ViewDecision, Evidence> {
        let s = &self.inner.stats;
        let mut decisions = self.inner.decisions.lock();
        let found = match decisions.get(key) {
            Some(e) if e.pins.current(source, now, registry_epoch) => Some(e.answer.clone()),
            Some(_) => {
                decisions.remove(key);
                s.decision_invalidations.fetch_add(1, Relaxed);
                counter!("psf.drbac.cache.decision.invalidations").inc();
                None
            }
            None => None,
        };
        drop(decisions);
        if let Some(decision) = found {
            s.decision_hits.fetch_add(1, Relaxed);
            counter!("psf.drbac.cache.decision.hits").inc();
            return Ok(decision);
        }
        s.decision_misses.fetch_add(1, Relaxed);
        counter!("psf.drbac.cache.decision.misses").inc();
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        let hash = h.finish();
        let mut seen = self.inner.seen.lock();
        let first = seen.get(&hash).is_none();
        if first {
            seen.insert(hash, ());
        }
        Err(Evidence {
            discarded: first,
            ..Evidence::default()
        })
    }

    /// Remember a decision derived at `now` from its rules' answers, with
    /// `registry_epoch` read before the first rule, unless `evidence` is
    /// discarded (a first sighting: [`lookup_decision`](Self::lookup_decision)).
    /// It rests on every rule's entry, failed rules included: each was
    /// current at `now`, so it was observed no later and under
    /// `registry_epoch`, unless the registry moved meanwhile, which
    /// `registry_epoch` then no longer matches at any lookup.
    pub fn insert_decision(
        &self,
        key: DecisionKey,
        decision: &ViewDecision,
        evidence: Evidence,
        bus: &RevocationBus,
        registry_epoch: u64,
        now: Timestamp,
    ) {
        if evidence.discarded {
            return;
        }
        let entry = Entry {
            answer: decision.clone(),
            pins: Arc::new(Pins::new(evidence, bus, registry_epoch, now)),
        };
        self.inner.decisions.lock().insert(key, entry);
        self.inner.stats.decision_inserts.fetch_add(1, Relaxed);
        counter!("psf.drbac.cache.decision.inserts").inc();
    }

    /// Number of live proof entries.
    pub fn proof_entries(&self) -> usize {
        self.inner.proofs.lock().len()
    }

    /// Snapshot of hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        let s = &self.inner.stats;
        CacheStats {
            proof_hits: s.proof_hits.load(Relaxed),
            proof_misses: s.proof_misses.load(Relaxed),
            proof_invalidations: s.proof_invalidations.load(Relaxed),
            proof_inserts: s.proof_inserts.load(Relaxed),
            walk_hits: s.walk_hits.load(Relaxed),
            walk_misses: s.walk_misses.load(Relaxed),
            cred_hits: s.cred_hits.load(Relaxed),
            cred_misses: s.cred_misses.load(Relaxed),
            decision_hits: s.decision_hits.load(Relaxed),
            decision_misses: s.decision_misses.load(Relaxed),
            decision_invalidations: s.decision_invalidations.load(Relaxed),
            decision_inserts: s.decision_inserts.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegation::{DelegationBuilder, SignedDelegation};
    use crate::entity::{Entity, EntityRegistry};
    use crate::proof::ProofEngine;
    use crate::repository::Repository;

    /// Alice → Dept.Member → Org.Staff, both grants in the repository.
    fn chain() -> (EntityRegistry, Repository, RevocationBus, Entity, Entity) {
        let (org, dept, alice) = (
            Entity::with_seed("Org", b"v"),
            Entity::with_seed("Dept", b"v"),
            Entity::with_seed("Alice", b"v"),
        );
        let registry = EntityRegistry::new();
        for e in [&org, &dept, &alice] {
            registry.register(e);
        }
        let repo = Repository::new();
        repo.publish_at_issuer(
            DelegationBuilder::new(&dept)
                .subject_entity(&alice)
                .role(dept.role("Member"))
                .sign(),
        );
        repo.publish_at_issuer(
            DelegationBuilder::new(&org)
                .subject_role(dept.role("Member"))
                .role(org.role("Staff"))
                .sign(),
        );
        (registry, repo, RevocationBus::new(), org, alice)
    }

    fn verdicts(cache: &AuthCache) -> (u64, u64) {
        let s = cache.stats();
        (s.cred_misses, s.cred_hits)
    }

    #[test]
    fn a_second_cache_reuses_the_verdicts_of_the_first() {
        let (registry, repo, bus, org, alice) = chain();
        let staff = org.role("Staff");
        let (first, second) = (AuthCache::new(), AuthCache::new());
        for cache in [&first, &second] {
            ProofEngine::with_cache(&registry, &repo, &bus, 0, cache)
                .prove(&alice.as_subject(), &staff, &[])
                .unwrap();
        }
        assert_eq!(verdicts(&first), (2, 0));
        assert_eq!(verdicts(&second), (0, 2));
    }

    #[test]
    fn a_forged_grant_is_signature_checked_once() {
        let (registry, repo, bus, org, alice) = chain();
        let mut forged = DelegationBuilder::new(&org)
            .subject_entity(&alice)
            .role(org.role("Admin"))
            .sign();
        forged.body.serial += 1;
        repo.publish_at_issuer(forged);
        let admin = org.role("Admin");
        let (first, second) = (AuthCache::new(), AuthCache::new());
        for cache in [&first, &second] {
            let engine = ProofEngine::with_cache(&registry, &repo, &bus, 0, cache);
            assert!(engine.prove(&alice.as_subject(), &admin, &[]).is_err());
        }
        // Alice's leaf grant, the forgery, then Dept.Member → Org.Staff.
        assert_eq!(verdicts(&first), (3, 0));
        assert_eq!(verdicts(&second), (0, 3));
    }

    #[test]
    fn a_rebound_issuer_key_is_checked_afresh_both_ways() {
        let (registry, repo, bus, org, alice) = chain();
        let staff = org.role("Staff");
        let cache = AuthCache::new();
        let (proof, _) = ProofEngine::new(&registry, &repo, &bus, 0)
            .prove(&alice.as_subject(), &staff, &[])
            .unwrap();
        let impostor = Entity::with_seed("Impostor", b"v");
        for (key, holds) in [
            (impostor.public_key(), false),
            (org.public_key(), true),
            (impostor.public_key(), false),
        ] {
            registry.register_key(org.name.clone(), key);
            let cached = ProofEngine::with_cache(&registry, &repo, &bus, 0, &cache);
            let plain = ProofEngine::new(&registry, &repo, &bus, 0);
            assert_eq!(
                cached.prove(&alice.as_subject(), &staff, &[]).is_ok(),
                holds
            );
            assert_eq!(plain.prove(&alice.as_subject(), &staff, &[]).is_ok(), holds);
            assert_eq!(proof.verify(&registry, &bus, 0).is_ok(), holds);
        }
    }

    #[test]
    fn acls_share_a_decision_key_only_when_their_rules_are_equal() {
        let org = Entity::with_seed("Org", b"acl-key");
        let acl = |role: &str, view: &str| {
            let mut rules = AclRules::default();
            rules.push(Some(org.role(role)), view.to_string());
            rules.push(None, "Anonymous".to_string());
            rules
        };
        let member = acl("Member", "Full");
        assert_eq!(member, member.clone(), "a clone is the same table");
        assert_eq!(member, acl("Member", "Full"), "equal rules are one key");
        let mut partner = acl("Partner", "Full");
        partner.hash = member.hash;
        assert_ne!(member, partner, "a colliding hash does not merge tables");
    }

    #[test]
    fn a_key_is_admitted_only_when_asked_again_within_the_doorkeepers_reach() {
        let (cache, repo, acl) = (AuthCache::new(), Repository::new(), AclRules::default());
        let admitted = |i: usize| {
            let subject = Subject::Role(RoleName::new("Nobody", format!("R{i}")));
            let key = DecisionKey::new(&subject, &acl, &[]);
            let evidence = cache.lookup_decision(&key, 0, &repo, 0).unwrap_err();
            !evidence.discarded
        };
        assert!(!admitted(0), "a first sighting");
        assert!((1..DECISION_CAP).all(|i| !admitted(i)));
        assert!(
            admitted(0),
            "asked again after DECISION_CAP - 1 one-off keys"
        );
        // The cold stream's shape: each key comes back only after more
        // than twice as many other keys as the doorkeeper holds.
        let cycle = 2 * DECISION_CAP + 1;
        for i in 0..3 * cycle {
            assert!(!admitted(DECISION_CAP + i % cycle), "step {i}");
        }
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let ny = Entity::with_seed("Comp.NY", b"c");
        let alice = Entity::with_seed("Alice", b"c");
        let bob = Entity::with_seed("Bob", b"c");
        let a = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        let b = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .sign();
        let of =
            |creds: &[SignedDelegation]| PresentedFingerprint::of(&Credential::wrap_all(creds));
        let fwd = of(&[a.clone(), b.clone()]);
        let rev = of(&[b.clone(), a.clone()]);
        assert_eq!(fwd, rev);
        assert_ne!(fwd, of(&[a]));
        assert_ne!(fwd, of(&[b]));
    }
}
