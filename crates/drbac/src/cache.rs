//! The authorization fast path: the proof cache.
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
//! [`AuthCache`] holds one memo table. It memoizes whole `prove()`
//! results, failures included, keyed by `(subject, role, fingerprint of
//! the presented credential set)`. An entry pins every input its search
//! read: the mark of each key bucket it queried (see
//! [`crate::repository`]), the registry epoch, and a [`ValidityMonitor`]
//! over every credential that passed its checks, which lapses at the
//! earliest expiry among them; it is served only at or after the time it
//! was derived. A hit is therefore *bit-identical* to a fresh search: BFS
//! is deterministic, and over unchanged inputs it reproduces the recorded
//! result, a proof or a failure alike.
//!
//! The table is bounded and evicts by CLOCK (second chance): an entry hit
//! since the hand last passed it survives, so a hot working set is never
//! flushed by a stream of one-off decisions.
//!
//! One `AuthCache` must only ever be used with a single
//! `(EntityRegistry, CredentialSource, RevocationBus)` triple — the
//! entries record marks and epochs of *those* structures.
//! [`Guard`](crate::Guard) and the planner's oracle own their cache for
//! exactly this reason.

use crate::clock_table::ClockTable;
use crate::delegation::{CredId, Credential};
use crate::proof::{Proof, SearchStats};
use crate::repository::{fnv1a, CredentialSource, KeyMark};
use crate::revocation::{RevocationBus, ValidityMonitor};
use crate::{DrbacError, Timestamp};
use parking_lot::Mutex;
use std::sync::Arc;

/// Proof entries kept; the CLOCK hand picks which one a new entry replaces.
const PROOF_CAP: usize = 1024;

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

struct ProofEntry {
    result: ProveResult,
    /// `(bucket, mark)` of every key bucket the search queried, sorted and
    /// deduplicated.
    marks: Box<[KeyMark]>,
    /// Watches every credential that passed the search's checks, up to
    /// the first instant at which one of them expires.
    monitor: ValidityMonitor,
    registry_epoch: u64,
    observed_now: Timestamp,
}

impl ProofEntry {
    /// Whether every input the recorded search read is unchanged. Cheap
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
}

#[derive(Default)]
struct StatCells {
    proof_hits: std::sync::atomic::AtomicU64,
    proof_misses: std::sync::atomic::AtomicU64,
    proof_invalidations: std::sync::atomic::AtomicU64,
    cred_hits: std::sync::atomic::AtomicU64,
    cred_misses: std::sync::atomic::AtomicU64,
}

struct CacheInner {
    proofs: Mutex<ClockTable<ProofKey, ProofEntry>>,
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

use std::sync::atomic::Ordering::Relaxed;

impl AuthCache {
    /// New empty cache.
    pub fn new() -> AuthCache {
        AuthCache {
            inner: Arc::new(CacheInner {
                proofs: Mutex::new(ClockTable::new(PROOF_CAP)),
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
    pub(crate) fn lookup_proof(
        &self,
        key: &ProofKey,
        now: Timestamp,
        source: &dyn CredentialSource,
        registry_epoch: u64,
    ) -> Option<ProveResult> {
        let mut proofs = self.inner.proofs.lock();
        let hit = match proofs.get(key) {
            None => {
                self.inner.stats.proof_misses.fetch_add(1, Relaxed);
                psf_telemetry::counter!("psf.drbac.cache.proof.misses").inc();
                return None;
            }
            Some(e) => e
                .current(source, now, registry_epoch)
                .then(|| e.result.clone()),
        };
        if hit.is_none() {
            proofs.remove(key);
            self.inner.stats.proof_invalidations.fetch_add(1, Relaxed);
            self.inner.stats.proof_misses.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.proof.invalidations").inc();
            psf_telemetry::counter!("psf.drbac.cache.proof.misses").inc();
        } else {
            self.inner.stats.proof_hits.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.proof.hits").inc();
        }
        hit
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
        let mut marks = frontier.marks;
        marks.sort_unstable();
        marks.dedup();
        let entry = ProofEntry {
            result,
            marks: marks.into(),
            monitor: bus.monitor(frontier.ids, frontier.next_expiry),
            registry_epoch,
            observed_now: now,
        };
        self.inner.proofs.lock().insert(key, entry);
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
