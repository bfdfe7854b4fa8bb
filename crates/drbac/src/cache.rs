//! The authorization fast path: verified-credential and proof caches.
//!
//! `ProofEngine::prove` is on the hot path of every component interaction
//! (single sign-on, continuous authorization, planner oracle queries), yet
//! without caching it re-verifies every Ed25519 signature and re-walks the
//! delegation graph on every call. SAFE-style trust systems make this
//! tractable by caching proof results and invalidating them through the
//! credential-linkage graph; dRBAC's [`RevocationBus`] already holds
//! exactly the state such invalidation needs.
//!
//! [`AuthCache`] bundles two memo tables:
//!
//! 1. **Verified-credential cache** — memoizes *signature verification
//!    only*, keyed by `(credential id, issuer key)`. The id is a hash of
//!    the signed body plus signature, and Ed25519 verification is a pure
//!    function of `(body bytes, signature, issuer key)`, so a cached
//!    verdict never goes stale. Structural and expiry checks are re-run on
//!    every use (they depend on `now`), preserving the uncached engine's
//!    exact error precedence.
//!
//! 2. **Proof cache** — memoizes whole `prove()` results, failures
//!    included, keyed by `(subject, role, fingerprint of the presented
//!    credential set)`. An entry pins every input its search read: the
//!    mark of each key bucket it queried (see [`crate::repository`]), the
//!    registry epoch, and a [`ValidityMonitor`] over every credential that
//!    passed its checks, which lapses at the earliest expiry among them;
//!    it is served only at or after the time it was derived. A hit is
//!    therefore *bit-identical* to a fresh search: BFS is deterministic,
//!    and over unchanged inputs it reproduces the recorded result, a proof
//!    or a failure alike.
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
use crate::proof::{Proof, SearchStats};
use crate::repository::{fnv1a, CredentialSource, KeyMark};
use crate::revocation::{RevocationBus, ValidityMonitor};
use crate::{DrbacError, Timestamp};
use parking_lot::Mutex;
use std::sync::Arc;

/// Proof entries kept; the CLOCK hand picks which one a new entry replaces.
const PROOF_CAP: usize = 1024;
/// Credential verdicts kept, evicted the same way.
const CRED_CAP: usize = 8192;

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
    /// The proof-carrying certificate emitted for a proved entry, attached
    /// lazily by `ProofEngine::prove_certified`. It shares the entry's
    /// validity window exactly: whenever the entry is a legal hit the
    /// certificate is the one a fresh emission would produce (emission is
    /// deterministic in the proof and the pinned epochs).
    cert: Option<Arc<psf_cert::AuthCertificate>>,
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

struct CredVerdict {
    issuer_key: [u8; 32],
    result: Result<(), DrbacError>,
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
    /// Signature verifications answered from the credential cache.
    pub cred_hits: u64,
    /// Signature verifications computed and memoized.
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
    creds: Mutex<ClockTable<CredId, CredVerdict>>,
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
                creds: Mutex::new(ClockTable::new(CRED_CAP)),
                proofs: Mutex::new(ClockTable::new(PROOF_CAP)),
                stats: StatCells::default(),
            }),
        }
    }

    /// Verify `cred` exactly as [`SignedDelegation::verify`] would, but
    /// answer the (pure, expensive) signature check from the memo table
    /// when the same `(id, issuer key)` pair has been verified before.
    /// Check order — structure, expiry, signature — matches the uncached
    /// path so error precedence is identical.
    ///
    /// [`SignedDelegation::verify`]: crate::SignedDelegation::verify
    pub fn verify_credential(
        &self,
        cred: &Credential,
        issuer_key: &psf_crypto::ed25519::VerifyingKey,
        now: Timestamp,
    ) -> Result<(), DrbacError> {
        cred.check_structure()?;
        cred.check_expiry(now)?;
        let id = cred.cred_id();
        if let Some(v) = self.inner.creds.lock().get(&id) {
            if v.issuer_key == issuer_key.0 {
                self.inner.stats.cred_hits.fetch_add(1, Relaxed);
                psf_telemetry::counter!("psf.drbac.cache.cred.hits").inc();
                return v.result.clone();
            }
        }
        self.inner.stats.cred_misses.fetch_add(1, Relaxed);
        psf_telemetry::counter!("psf.drbac.cache.cred.misses").inc();
        let result = cred.verify_signature(issuer_key);
        self.inner.creds.lock().insert(
            id,
            CredVerdict {
                issuer_key: issuer_key.0,
                result: result.clone(),
            },
        );
        result
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
            cert: None,
            marks: marks.into(),
            monitor: bus.monitor(frontier.ids, frontier.next_expiry),
            registry_epoch,
            observed_now: now,
        };
        self.inner.proofs.lock().insert(key, entry);
    }

    /// Certificate stored alongside a proved entry, if one has been
    /// attached. Callers must only use this immediately after a validated
    /// `lookup_proof` hit for the same key (the certificate shares the
    /// entry's validity window).
    pub(crate) fn lookup_certificate(
        &self,
        key: &ProofKey,
    ) -> Option<Arc<psf_cert::AuthCertificate>> {
        self.inner.proofs.lock().get(key)?.cert.clone()
    }

    /// Attach an emitted certificate to the proved entry for `key` (a
    /// no-op if the entry has been evicted or replaced meanwhile).
    pub(crate) fn attach_certificate(&self, key: &ProofKey, cert: Arc<psf_cert::AuthCertificate>) {
        if let Some(entry) = self.inner.proofs.lock().get(key) {
            if entry.result.is_ok() {
                entry.cert = Some(cert);
            }
        }
    }

    /// Number of proved entries carrying a certificate.
    pub fn cert_entries(&self) -> usize {
        self.inner
            .proofs
            .lock()
            .values()
            .filter(|e| e.cert.is_some())
            .count()
    }

    /// Drop every cached proof and credential verdict.
    pub fn clear(&self) {
        self.inner.proofs.lock().clear();
        self.inner.creds.lock().clear();
    }

    /// Number of live proof entries.
    pub fn proof_entries(&self) -> usize {
        self.inner.proofs.lock().len()
    }

    /// Number of memoized credential verdicts.
    pub fn cred_entries(&self) -> usize {
        self.inner.creds.lock().len()
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
    use crate::entity::Entity;

    #[test]
    fn cred_cache_memoizes_signature_only() {
        let ny = Entity::with_seed("Comp.NY", b"c");
        let alice = Entity::with_seed("Alice", b"c");
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .expires(100)
            .sign();
        let cred = Credential::new(cred);
        let cache = AuthCache::new();
        let key = ny.public_key();
        cache.verify_credential(&cred, &key, 0).unwrap();
        cache.verify_credential(&cred, &key, 0).unwrap();
        let s = cache.stats();
        assert_eq!((s.cred_misses, s.cred_hits), (1, 1));
        // Expiry is still enforced fresh on every call.
        assert!(matches!(
            cache.verify_credential(&cred, &key, 200),
            Err(DrbacError::Expired { .. })
        ));
        // A wrong key is not answered from the memo table.
        let mallory = Entity::with_seed("Mallory", b"c");
        assert_eq!(
            cache.verify_credential(&cred, &mallory.public_key(), 0),
            Err(DrbacError::BadSignature)
        );
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
