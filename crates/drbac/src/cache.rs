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
//! 2. **Proof cache** — memoizes whole `prove()` results, keyed by
//!    `(subject, role, fingerprint of the presented credential set)`.
//!    Entries pin the repository and registry epochs they were computed
//!    under and are checked against them on lookup, so repository
//!    publishes/purges and registry registrations invalidate. Positive
//!    entries additionally carry a [`ValidityMonitor`] over **every
//!    credential examined by the search** (a superset of
//!    `Proof::credential_ids`) plus the earliest future expiry among
//!    them; negative entries are valid only while logical time moves
//!    forward. Together these make a cache hit *bit-identical* to a fresh
//!    search: under pinned epochs, an unchanged frontier, and an unexpired
//!    window, BFS is deterministic and must reproduce the recorded result.
//!
//! One `AuthCache` must only ever be used with a single
//! `(EntityRegistry, CredentialSource, RevocationBus)` triple — the
//! entries record epochs of *those* structures. [`Guard`](crate::Guard)
//! and the planner's oracle own their cache for exactly this reason.

use crate::delegation::{CredId, Credential};
use crate::proof::{Proof, SearchStats};
use crate::repository::fnv1a;
use crate::revocation::{RevocationBus, ValidityMonitor};
use crate::{DrbacError, Timestamp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum cached proof entries before the table is flushed.
const PROOF_CAP: usize = 1024;
/// Maximum cached credential verdicts before the table is flushed.
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

/// What the search touched: every credential id examined, every subject
/// key queried against the repository, plus the earliest expiry (strictly
/// after the evaluation time) among the examined credentials. Recorded on
/// a cache miss; decides how long the resulting entry stays exact.
#[derive(Debug, Default, Clone)]
pub struct Frontier {
    /// Ids of every credential the search examined.
    pub ids: Vec<CredId>,
    /// Canonical subject keys the search queried the repository for —
    /// including keys that returned nothing (a later publish for such a
    /// key can change the result, so its shard must be pinned too).
    pub subjects: Vec<String>,
    /// Earliest expiry strictly after the evaluation time, if any.
    pub next_expiry: Option<Timestamp>,
}

impl Frontier {
    /// Record one examined credential.
    pub fn note(&mut self, cred: &Credential, now: Timestamp) {
        self.ids.push(cred.cred_id());
        if let Some(exp) = cred.body.expires {
            if exp > now && self.next_expiry.is_none_or(|e| exp < e) {
                self.next_expiry = Some(exp);
            }
        }
    }

    /// Record one repository subject-key query.
    pub fn note_subject(&mut self, subject_key: &str) {
        self.subjects.push(subject_key.to_string());
    }
}

struct PositiveEntry {
    proof: Proof,
    stats: SearchStats,
    /// The proof-carrying certificate emitted for this entry, attached
    /// lazily by `ProofEngine::prove_certified`. It shares the entry's
    /// validity window exactly: the certificate pins the same epochs the
    /// entry does, so whenever the entry is a legal hit the certificate
    /// is still the one a fresh emission would produce (modulo nothing —
    /// emission is deterministic in the proof and the pinned epochs).
    cert: Option<Arc<psf_cert::AuthCertificate>>,
    /// Watches every credential the search examined — any revocation in
    /// the frontier (not just the proof chain) invalidates.
    monitor: ValidityMonitor,
    /// First instant at which some examined credential's expiry status
    /// changes; the entry is exact only strictly before it.
    next_expiry: Option<Timestamp>,
    repo_epoch: Option<u64>,
    /// Per-shard pins `(shard, high-water mark)` for every shard the
    /// search queried, captured **before** the search read any data. When
    /// present, the entry stays valid while those shards' current marks
    /// are unchanged — publishes into other shards don't evict it. When
    /// absent (unsharded source), the global `repo_epoch` pin applies.
    shard_marks: Option<Vec<(u32, u64)>>,
    registry_epoch: u64,
    observed_now: Timestamp,
}

struct NegativeEntry {
    error: DrbacError,
    stats: SearchStats,
    repo_epoch: Option<u64>,
    registry_epoch: u64,
    observed_now: Timestamp,
}

enum ProofEntry {
    Proved(PositiveEntry),
    Failed(NegativeEntry),
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
    /// Entries dropped because revocation/expiry/epoch checks failed.
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
    creds: Mutex<HashMap<CredId, CredVerdict>>,
    proofs: Mutex<HashMap<ProofKey, ProofEntry>>,
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
                creds: Mutex::new(HashMap::new()),
                proofs: Mutex::new(HashMap::new()),
                stats: StatCells::default(),
            }),
        }
    }

    /// Verify `cred` exactly as [`SignedDelegation::verify`] would, but
    /// answer the (pure, expensive) signature check from the memo table
    /// when the same `(id, issuer key)` pair has been verified before.
    /// Check order — structure, expiry, signature — matches the uncached
    /// path so error precedence is identical.
    pub fn verify_credential(
        &self,
        cred: &Credential,
        issuer_key: &psf_crypto::ed25519::VerifyingKey,
        now: Timestamp,
    ) -> Result<(), DrbacError> {
        cred.check_structure()?;
        cred.check_expiry(now)?;
        let id = cred.cred_id();
        {
            let creds = self.inner.creds.lock();
            if let Some(v) = creds.get(&id) {
                if v.issuer_key == issuer_key.0 {
                    self.inner.stats.cred_hits.fetch_add(1, Relaxed);
                    psf_telemetry::counter!("psf.drbac.cache.cred.hits").inc();
                    return v.result.clone();
                }
            }
        }
        self.inner.stats.cred_misses.fetch_add(1, Relaxed);
        psf_telemetry::counter!("psf.drbac.cache.cred.misses").inc();
        let result = cred.verify_signature(issuer_key);
        let mut creds = self.inner.creds.lock();
        if creds.len() >= CRED_CAP {
            creds.clear();
        }
        creds.insert(
            id,
            CredVerdict {
                issuer_key: issuer_key.0,
                result: result.clone(),
            },
        );
        result
    }

    /// Look up a memoized `prove()` result. Returns `None` on a miss
    /// (including entries that had to be invalidated). `shard_marks` is
    /// the source's *current* high-water snapshot (captured by the engine
    /// at the start of this authorization), used to validate per-shard
    /// pins on positive entries.
    pub(crate) fn lookup_proof(
        &self,
        key: &ProofKey,
        now: Timestamp,
        repo_epoch: Option<u64>,
        shard_marks: Option<&[u64]>,
        registry_epoch: u64,
    ) -> Option<Result<(Proof, SearchStats), (DrbacError, SearchStats)>> {
        let mut proofs = self.inner.proofs.lock();
        let hit = match proofs.get(key) {
            None => {
                self.inner.stats.proof_misses.fetch_add(1, Relaxed);
                psf_telemetry::counter!("psf.drbac.cache.proof.misses").inc();
                return None;
            }
            Some(ProofEntry::Proved(p)) => {
                // Per-shard pins beat the global epoch when both sides
                // are sharded: unchanged marks on every queried shard ⇒
                // the search's entire read set is unchanged.
                let universe_pinned = match (&p.shard_marks, shard_marks) {
                    (Some(pins), Some(current)) => pins
                        .iter()
                        .all(|&(s, m)| current.get(s as usize) == Some(&m)),
                    _ => p.repo_epoch.is_some() && p.repo_epoch == repo_epoch,
                };
                universe_pinned
                    && p.registry_epoch == registry_epoch
                    && now >= p.observed_now
                    && p.next_expiry.is_none_or(|e| now < e)
                    && p.monitor.is_valid()
            }
            Some(ProofEntry::Failed(n)) => {
                // A failure stays a failure while the credential universe
                // is pinned and time only moves forward: validity is
                // monotone-decreasing in `now` and revocations only grow.
                n.repo_epoch.is_some()
                    && n.repo_epoch == repo_epoch
                    && n.registry_epoch == registry_epoch
                    && now >= n.observed_now
            }
        };
        if !hit {
            proofs.remove(key);
            self.inner.stats.proof_invalidations.fetch_add(1, Relaxed);
            self.inner.stats.proof_misses.fetch_add(1, Relaxed);
            psf_telemetry::counter!("psf.drbac.cache.proof.invalidations").inc();
            psf_telemetry::counter!("psf.drbac.cache.proof.misses").inc();
            return None;
        }
        self.inner.stats.proof_hits.fetch_add(1, Relaxed);
        psf_telemetry::counter!("psf.drbac.cache.proof.hits").inc();
        match proofs.get(key) {
            Some(ProofEntry::Proved(p)) => Some(Ok((p.proof.clone(), p.stats))),
            Some(ProofEntry::Failed(n)) => Some(Err((n.error.clone(), n.stats))),
            None => unreachable!("entry checked above"),
        }
    }

    /// Record a fresh `prove()` result together with the search frontier
    /// that produced it. `shard_pins` are the `(shard, high-water mark)`
    /// pairs for every shard the search queried, with marks captured
    /// **before** the search read any data (soundness: if a mark is still
    /// unchanged at a later lookup, no mutation became visible to the
    /// recorded search).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_proof(
        &self,
        key: ProofKey,
        result: &Result<(Proof, SearchStats), (DrbacError, SearchStats)>,
        frontier: &Frontier,
        bus: &RevocationBus,
        repo_epoch: Option<u64>,
        shard_pins: Option<Vec<(u32, u64)>>,
        registry_epoch: u64,
        now: Timestamp,
    ) {
        // No caching at all without a repository epoch: a versionless
        // (remote) source could change content silently, and both entry
        // kinds pin the credential universe for their exactness argument.
        if repo_epoch.is_none() {
            return;
        }
        let entry = match result {
            Ok((proof, stats)) => ProofEntry::Proved(PositiveEntry {
                proof: proof.clone(),
                stats: *stats,
                cert: None,
                monitor: bus.monitor(frontier.ids.iter().copied()),
                next_expiry: frontier.next_expiry,
                repo_epoch,
                shard_marks: shard_pins,
                registry_epoch,
                observed_now: now,
            }),
            Err((error, stats)) => ProofEntry::Failed(NegativeEntry {
                error: error.clone(),
                stats: *stats,
                repo_epoch,
                registry_epoch,
                observed_now: now,
            }),
        };
        let mut proofs = self.inner.proofs.lock();
        if proofs.len() >= PROOF_CAP {
            proofs.clear();
        }
        proofs.insert(key, entry);
    }

    /// Certificate stored alongside a positive proof entry, if one has
    /// been attached. Callers must only use this immediately after a
    /// validated `lookup_proof` hit for the same key (the certificate
    /// shares the entry's validity window).
    pub(crate) fn lookup_certificate(
        &self,
        key: &ProofKey,
    ) -> Option<Arc<psf_cert::AuthCertificate>> {
        match self.inner.proofs.lock().get(key) {
            Some(ProofEntry::Proved(p)) => p.cert.clone(),
            _ => None,
        }
    }

    /// Attach an emitted certificate to the positive entry for `key` (a
    /// no-op if the entry has been evicted or replaced meanwhile).
    pub(crate) fn attach_certificate(&self, key: &ProofKey, cert: Arc<psf_cert::AuthCertificate>) {
        if let Some(ProofEntry::Proved(p)) = self.inner.proofs.lock().get_mut(key) {
            p.cert = Some(cert);
        }
    }

    /// Number of positive proof entries carrying a certificate.
    pub fn cert_entries(&self) -> usize {
        self.inner
            .proofs
            .lock()
            .values()
            .filter(|e| matches!(e, ProofEntry::Proved(p) if p.cert.is_some()))
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
