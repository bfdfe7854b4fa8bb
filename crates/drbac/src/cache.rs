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
//! result, a proof or a failure alike.
//!
//! The decision table sits one level up (paper §4.2: the decision is
//! "completed when the view is first instantiated"). It remembers whole
//! role→view decisions, keyed by `(subject, rule table,
//! fingerprint of the presented set)`, so a repeat sign-on costs one
//! lookup instead of one per rule tried. A decision entry is pinned by
//! the union of the pins of every rule it tried, failed rules included,
//! and is stored only when every one of those rules was itself a proof
//! hit: a decision seen for the first time is not stored. Both tables
//! share one validity rule (`Pins::current`).
//!
//! Both tables are bounded and evict by CLOCK (second chance): an entry
//! hit since the hand last passed it survives, so a hot working set is
//! never flushed by a stream of one-off decisions.
//!
//! One `AuthCache` must only ever be used with a single
//! `(EntityRegistry, CredentialSource, RevocationBus)` triple — the
//! entries record marks and epochs of *those* structures.
//! [`Guard`](crate::Guard) and the planner's oracle own their cache for
//! exactly this reason.

use crate::clock_table::ClockTable;
use crate::delegation::{CredId, Credential};
use crate::entity::{RoleName, Subject};
use crate::proof::{Proof, SearchStats};
use crate::repository::{fnv1a, subject_key, CredentialSource, KeyMark};
use crate::revocation::{RevocationBus, ValidityMonitor};
use crate::{DrbacError, Timestamp};
use parking_lot::Mutex;
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

/// What a search read, recorded on a cache miss: the key buckets it
/// queried and the credentials whose status can still change. It decides
/// how long the resulting entry, proof or failure, stays exact.
#[derive(Debug, Default, Clone)]
pub struct Frontier {
    /// Ids of every credential that passed signature, expiry and
    /// revocation checks. Only these can change the outcome later — by
    /// being revoked or by expiring; a rejected credential stays rejected
    /// (the revoked set only grows, time only moves forward).
    pub ids: Vec<CredId>,
    /// `(bucket, mark)` of every key the search queried, including keys
    /// that returned nothing: a later publish for such a key can change
    /// the result, so its bucket is pinned too.
    pub marks: Vec<KeyMark>,
    /// Some query came from a source that keeps no marks: the result is
    /// not cached.
    pub unmarked: bool,
    /// Earliest expiry among `ids`, if any of them expires.
    pub next_expiry: Option<Timestamp>,
}

impl Frontier {
    /// Record one credential that passed its checks.
    pub fn note(&mut self, cred: &Credential) {
        self.ids.push(cred.cred_id());
        self.next_expiry = self.next_expiry.into_iter().chain(cred.body.expires).min();
    }

    /// Record the mark one subject-key query returned.
    pub fn note_query(&mut self, mark: Option<KeyMark>) {
        match mark {
            Some(mark) => self.marks.push(mark),
            None => self.unmarked = true,
        }
    }
}

type ProveResult = Result<(Proof, SearchStats), (DrbacError, SearchStats)>;

/// What a cached answer rests on, and the one rule for whether it still
/// holds. Both tables pin their entries this way: a proof entry with the
/// pins of its own search, a decision entry with the union of the pins of
/// every rule it tried.
pub(crate) struct Pins {
    /// `(bucket, mark)` of every key bucket read, sorted and deduplicated.
    marks: Box<[KeyMark]>,
    /// Watches every credential that passed a search's checks, up to the
    /// first instant at which one of them expires.
    monitor: ValidityMonitor,
    registry_epoch: u64,
    observed_now: Timestamp,
}

impl Pins {
    fn new(
        mut marks: Vec<KeyMark>,
        monitor: ValidityMonitor,
        registry_epoch: u64,
        observed_now: Timestamp,
    ) -> Pins {
        marks.sort_unstable();
        marks.dedup();
        Pins {
            marks: marks.into(),
            monitor,
            registry_epoch,
            observed_now,
        }
    }

    /// Whether every input the pinned answer read is unchanged. Cheap
    /// checks first; the monitor rescans its ids under the bus lock only
    /// after the revoked set has grown.
    fn current(&self, source: &dyn CredentialSource, now: Timestamp, registry_epoch: u64) -> bool {
        self.registry_epoch == registry_epoch
            && now >= self.observed_now
            && self
                .marks
                .iter()
                .all(|&(bucket, mark)| source.bucket_mark(bucket) == Some(mark))
            && self.monitor.is_valid(now)
    }
}

struct ProofEntry {
    result: ProveResult,
    pins: Pins,
}

/// The union of the pins of every proof-table entry that answered one
/// rule of a view decision, gathered by
/// [`ProofEngine::prove_noting`](crate::ProofEngine::prove_noting): every
/// mark any of them read, every credential any of them watches, and the
/// earliest of their expiries. Once a rule needed a fresh search the
/// evidence is *fresh*: the decision is a first sighting and is not
/// stored.
#[derive(Default)]
pub struct Evidence {
    marks: Vec<KeyMark>,
    ids: Vec<String>,
    expires: Option<Timestamp>,
    fresh: bool,
}

impl Evidence {
    /// A rule was answered from the proof table by an entry with `pins`.
    fn note_hit(&mut self, pins: &Pins) {
        if !self.fresh {
            self.marks.extend_from_slice(&pins.marks);
            self.ids.extend_from_slice(pins.monitor.watched_ids());
            self.expires = self.expires.into_iter().chain(pins.monitor.expires()).min();
        }
    }

    /// A rule needed a fresh search.
    pub(crate) fn note_search(&mut self) {
        *self = Evidence {
            fresh: true,
            ..Evidence::default()
        };
    }
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
#[derive(Debug, Clone)]
pub struct ViewDecision {
    /// Index of the matching rule in the table.
    pub rule: Option<usize>,
    /// The proof of the matching role rule (`None` for the catch-all).
    pub proof: Option<Proof>,
}

struct DecisionEntry {
    decision: ViewDecision,
    pins: Pins,
}

/// Point-in-time counters for cache observability (mirrored into
/// `psf-telemetry` as `psf.drbac.cache.*`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Proof-cache lookups answered from the cache.
    pub proof_hits: u64,
    /// Proof-cache lookups that fell through to a full search.
    pub proof_misses: u64,
    /// Entries dropped because one of their pinned inputs changed.
    pub proof_invalidations: u64,
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
    /// Decisions stored: every rule they tried was a proof-table hit.
    pub decision_inserts: u64,
}

#[derive(Default)]
struct StatCells {
    proof_hits: AtomicU64,
    proof_misses: AtomicU64,
    proof_invalidations: AtomicU64,
    cred_hits: AtomicU64,
    cred_misses: AtomicU64,
    decision_hits: AtomicU64,
    decision_misses: AtomicU64,
    decision_invalidations: AtomicU64,
    decision_inserts: AtomicU64,
}

struct CacheInner {
    proofs: Mutex<ClockTable<ProofKey, ProofEntry>>,
    decisions: Mutex<ClockTable<DecisionKey, DecisionEntry>>,
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
                stats: StatCells::default(),
            }),
        }
    }

    /// Count one signature check of a search through this cache:
    /// answered from the credential's stored verdict, or computed.
    pub(crate) fn note_verdict(&self, recalled: bool) {
        if recalled {
            self.inner.stats.cred_hits.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.cred.hits").inc();
        } else {
            self.inner.stats.cred_misses.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.cred.misses").inc();
        }
    }

    /// Look up a memoized `prove()` result. Returns `None` on a miss,
    /// including an entry dropped because an input it pinned changed:
    /// `source` answers the current mark of each bucket the entry pinned.
    /// A hit adds the entry's pins to `evidence`.
    pub(crate) fn lookup_proof(
        &self,
        key: &ProofKey,
        now: Timestamp,
        source: &dyn CredentialSource,
        registry_epoch: u64,
        evidence: Option<&mut Evidence>,
    ) -> Option<ProveResult> {
        let s = &self.inner.stats;
        let mut proofs = self.inner.proofs.lock();
        let Some(e) = proofs.get(key) else {
            s.proof_misses.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.proof.misses").inc();
            return None;
        };
        if !e.pins.current(source, now, registry_epoch) {
            proofs.remove(key);
            s.proof_invalidations.fetch_add(1, Relaxed);
            s.proof_misses.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.proof.invalidations").inc();
            psf_telemetry::counter!("psf.drbac.cache.proof.misses").inc();
            return None;
        }
        if let Some(evidence) = evidence {
            evidence.note_hit(&e.pins);
        }
        s.proof_hits.fetch_add(1, Relaxed);
        psf_telemetry::counter!("psf.drbac.cache.proof.hits").inc();
        Some(e.result.clone())
    }

    /// Record a fresh `prove()` result — proof or failure — together with
    /// the frontier of the search that produced it. `registry_epoch` is
    /// the epoch read *before* the search; the marks in `frontier` were
    /// each read under the lock of the query they pin. Soundness: if every
    /// pin still holds at a later lookup, no input the search read has
    /// changed since it read it.
    pub(crate) fn insert_proof(
        &self,
        key: ProofKey,
        result: ProveResult,
        frontier: Frontier,
        bus: &RevocationBus,
        registry_epoch: u64,
        now: Timestamp,
    ) {
        // A source without marks (a remote repository) could change
        // content silently: nothing read from it is cached.
        if frontier.unmarked {
            return;
        }
        let monitor = bus.monitor(frontier.ids, frontier.next_expiry);
        let pins = Pins::new(frontier.marks, monitor, registry_epoch, now);
        self.inner
            .proofs
            .lock()
            .insert(key, ProofEntry { result, pins });
    }

    /// Look up a remembered view decision. Returns `None` on a miss,
    /// including an entry dropped because an input it pinned changed:
    /// `source` answers the current mark of each bucket the entry pinned.
    pub fn lookup_decision(
        &self,
        key: &DecisionKey,
        now: Timestamp,
        source: &dyn CredentialSource,
        registry_epoch: u64,
    ) -> Option<ViewDecision> {
        let s = &self.inner.stats;
        let mut decisions = self.inner.decisions.lock();
        let Some(e) = decisions.get(key) else {
            s.decision_misses.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.decision.misses").inc();
            return None;
        };
        if !e.pins.current(source, now, registry_epoch) {
            decisions.remove(key);
            s.decision_invalidations.fetch_add(1, Relaxed);
            s.decision_misses.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.decision.invalidations").inc();
            psf_telemetry::counter!("psf.drbac.cache.decision.misses").inc();
            return None;
        }
        s.decision_hits.fetch_add(1, Relaxed);
        psf_telemetry::counter!("psf.drbac.cache.decision.hits").inc();
        Some(e.decision.clone())
    }

    /// Remember a decision derived at `now` from its rules' answers, with
    /// `registry_epoch` read before the first rule. Only a decision seen
    /// before is stored: every rule it tried must have been answered from
    /// the proof table. A rule that needed a fresh search (a first
    /// sighting) leaves the table untouched, so traffic that never
    /// repeats pays one missed lookup and nothing else. The entry is
    /// pinned by the union of those entries' pins, failed rules included:
    /// each was current at `now`, so it was observed no later and under
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
        let Evidence {
            marks,
            mut ids,
            expires,
            fresh,
        } = evidence;
        if fresh {
            return;
        }
        ids.sort_unstable();
        ids.dedup();
        let monitor = bus.monitor(ids, expires);
        let entry = DecisionEntry {
            decision: decision.clone(),
            pins: Pins::new(marks, monitor, registry_epoch, now),
        };
        self.inner.decisions.lock().insert(key, entry);
        self.inner.stats.decision_inserts.fetch_add(1, Relaxed);
        psf_telemetry::counter!("psf.drbac.cache.decision.inserts").inc();
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
