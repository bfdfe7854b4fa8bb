//! # psf-cert — proof-carrying authorization certificates
//!
//! "Untrusted engines compute; a small trusted checker verifies."
//! `ProofEngine::prove` is a breadth-first search over a mutable,
//! distributed credential repository — thousands of lines of engine,
//! cache, and sharding code sit between a delegation and a verdict. This
//! crate is the other half of that bargain: a **certificate** is the exact
//! evidence the engine found (the delegation chain, its third-party
//! assignment supports, and the attribute-attenuation trace), carried as
//! the *literal signed bytes* of every credential, and a **checker** is a
//! few hundred lines of straight-line code that re-validates the evidence
//! with no repository access and no search:
//!
//! * Ed25519 signature checks over the embedded canonical bytes,
//! * chain-rule application (subject linkage, issuer authorization via
//!   assignment chains terminating at the role owner),
//! * attenuation monotonicity (ranges/sets intersect, capacities take the
//!   minimum — a chain can only narrow),
//! * expiry windows at the caller's clock and revocation via a caller
//!   -supplied probe,
//! * an epoch window against the repository version the certificate
//!   pinned.
//!
//! The checker is deny-by-default: an unknown tag, a truncated field, a
//! trailing byte, an oversized count, a digest mismatch — anything it does
//! not positively recognize — is a typed [`CertError`], never an accept
//! and never a panic.
//!
//! ## Trusted-base argument
//!
//! This crate depends on `psf-crypto` only. It has **no** access to the
//! repository, the proof engine, or the caches; it re-implements
//! delegation parsing and attribute attenuation from the canonical wire
//! encoding rather than importing them, so a bug in the engine cannot
//! silently become a bug in the checker. The environment the caller must
//! supply is three small facts: a name → key directory
//! ([`KeyDirectory`]), a revocation predicate ([`RevocationProbe`]), and
//! the current logical time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use psf_crypto::ed25519::{Signature, VerifyingKey};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Magic prefix of the certificate wire encoding.
pub const CERT_MAGIC: &[u8; 15] = b"PSF-authcert-v1";
/// The (only) supported certificate format version.
pub const CERT_VERSION: u8 = 1;
/// Hard cap on the certificate wire size the checker will even look at.
pub const MAX_WIRE: usize = 1 << 20;
/// Magic prefix of the embedded canonical delegation encoding.
const DELEGATION_MAGIC: &[u8; 19] = b"dRBAC-delegation-v1";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Every way a certificate can fail to check. The variants are stable:
/// tests (and callers that branch on them) rely on a given tampering
/// producing the same typed reason across releases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The wire bytes do not start with [`CERT_MAGIC`].
    BadMagic,
    /// The version byte is not [`CERT_VERSION`].
    UnsupportedVersion(u8),
    /// The wire bytes end before a declared field does.
    Truncated,
    /// Bytes remain after the last declared field.
    TrailingBytes,
    /// A structural rule of the encoding was violated (unknown tag,
    /// non-UTF-8 string, oversized input, malformed role name, …).
    Malformed(&'static str),
    /// The integrity digest over the payload does not match: the bytes
    /// were corrupted or tampered after emission.
    DigestMismatch,
    /// The certificate pins a repository epoch later than the one the
    /// verifier observes — it claims evidence from the future.
    EpochAhead {
        /// Epoch pinned inside the certificate.
        pinned: u64,
        /// Epoch the verifier currently observes.
        current: u64,
    },
    /// A membership certificate with no edges proves nothing.
    EmptyChain,
    /// An edge's Ed25519 signature does not verify under its issuer key.
    BadSignature {
        /// Credential id of the offending edge.
        edge: String,
    },
    /// An edge's issuer is not in the verifier's key directory.
    UnknownIssuer(String),
    /// An edge is expired at the verifier's clock.
    Expired {
        /// Credential id of the expired edge.
        edge: String,
    },
    /// An edge's credential id is revoked.
    Revoked(String),
    /// A self-certifying edge was not issued by its role's owner.
    NotOwner {
        /// Credential id of the offending edge.
        edge: String,
    },
    /// An edge's subject does not follow the previous edge's object role
    /// (or the claimed subject, for the first edge).
    BrokenLink {
        /// Credential id of the offending edge.
        edge: String,
    },
    /// An edge has the wrong delegation kind for its position (assignment
    /// edge in a membership chain, or vice versa).
    WrongKind {
        /// Credential id of the offending edge.
        edge: String,
    },
    /// A third-party edge carries no assignment-right support chain.
    MissingSupport {
        /// Credential id of the offending edge.
        edge: String,
    },
    /// A support edge does not belong to its membership edge's assignment
    /// chain (wrong object role, or the chain does not reach the owner).
    SupportMismatch {
        /// Credential id of the offending edge.
        edge: String,
    },
    /// Attribute attenuation along the chain annihilated (an empty
    /// intersection), so the chain conveys nothing.
    AttrAnnihilation {
        /// Credential id of the edge at which attributes annihilated.
        edge: String,
    },
    /// The chain does not end at the role the certificate claims.
    WrongTarget,
    /// The attributes the certificate claims are not what the chain
    /// actually conveys.
    AttrMismatch,
    /// A chain edge is missing from the certificate's watch set, so a
    /// revocation monitor built from the certificate would not cover it.
    UnwatchedEdge(String),
    /// The zero-edge assignment certificate's subject key does not match
    /// the directory key for the role owner.
    OwnerKeyMismatch,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::BadMagic => write!(f, "not an authorization certificate"),
            CertError::UnsupportedVersion(v) => write!(f, "unsupported certificate version {v}"),
            CertError::Truncated => write!(f, "certificate truncated"),
            CertError::TrailingBytes => write!(f, "trailing bytes after certificate"),
            CertError::Malformed(what) => write!(f, "malformed certificate: {what}"),
            CertError::DigestMismatch => write!(f, "certificate integrity digest mismatch"),
            CertError::EpochAhead { pinned, current } => write!(
                f,
                "certificate pins repository epoch {pinned} ahead of current {current}"
            ),
            CertError::EmptyChain => write!(f, "membership certificate has no edges"),
            CertError::BadSignature { edge } => write!(f, "edge {edge}: signature check failed"),
            CertError::UnknownIssuer(name) => write!(f, "unknown issuer '{name}'"),
            CertError::Expired { edge } => write!(f, "edge {edge}: credential expired"),
            CertError::Revoked(id) => write!(f, "edge {id}: credential revoked"),
            CertError::NotOwner { edge } => {
                write!(
                    f,
                    "edge {edge}: self-certifying but not issued by role owner"
                )
            }
            CertError::BrokenLink { edge } => {
                write!(f, "edge {edge}: subject does not follow the chain")
            }
            CertError::WrongKind { edge } => {
                write!(f, "edge {edge}: wrong delegation kind for its position")
            }
            CertError::MissingSupport { edge } => {
                write!(
                    f,
                    "edge {edge}: third-party delegation without support chain"
                )
            }
            CertError::SupportMismatch { edge } => {
                write!(
                    f,
                    "edge {edge}: support chain does not authorize its issuer"
                )
            }
            CertError::AttrAnnihilation { edge } => {
                write!(f, "edge {edge}: attributes annihilate")
            }
            CertError::WrongTarget => write!(f, "chain does not end at the claimed role"),
            CertError::AttrMismatch => {
                write!(f, "claimed attributes do not match the chain")
            }
            CertError::UnwatchedEdge(id) => {
                write!(f, "chain edge {id} missing from the watch set")
            }
            CertError::OwnerKeyMismatch => {
                write!(f, "owner key mismatch in assignment certificate")
            }
        }
    }
}

impl std::error::Error for CertError {}

// ---------------------------------------------------------------------------
// Verifier environment
// ---------------------------------------------------------------------------

/// Name → Ed25519 public key directory (the verifier's PKI stand-in).
pub trait KeyDirectory {
    /// The 32-byte public key registered for `name`, if any.
    fn key_of(&self, name: &str) -> Option<[u8; 32]>;
}

impl KeyDirectory for BTreeMap<String, [u8; 32]> {
    fn key_of(&self, name: &str) -> Option<[u8; 32]> {
        self.get(name).copied()
    }
}

impl KeyDirectory for std::collections::HashMap<String, [u8; 32]> {
    fn key_of(&self, name: &str) -> Option<[u8; 32]> {
        self.get(name).copied()
    }
}

/// Revocation predicate over credential ids.
pub trait RevocationProbe {
    /// True if the credential with this id has been revoked.
    fn is_revoked(&self, id: &str) -> bool;
}

impl RevocationProbe for BTreeSet<String> {
    fn is_revoked(&self, id: &str) -> bool {
        self.contains(id)
    }
}

impl RevocationProbe for std::collections::HashSet<String> {
    fn is_revoked(&self, id: &str) -> bool {
        self.contains(id)
    }
}

/// Memo of certificates this checker has already structurally verified.
///
/// Continuous authorization re-runs the checker on the *same* certificate
/// every time a watched credential is revoked or a validity horizon
/// passes. A certificate's *structural* validity — signatures over the
/// embedded bytes, chain linkage, issuer authorization, attenuation
/// monotonicity, target and watch coverage — is a pure function of the
/// certificate payload and the key directory, so re-deriving it on
/// identical inputs proves nothing new. After each fully **successful**
/// check the memo records, keyed by the payload's SHA-256 digest:
///
/// * every `(name, key)` the key directory was consulted for, and
/// * every chain edge's `(id, expiry)` in traversal order.
///
/// A later check of the same payload replays only the *environment*: the
/// epoch window, the recorded key bindings against the live directory
/// (any drift falls back to the full check), and expiry/revocation of
/// every recorded edge at the caller's clock — so a hit can never mask a
/// revocation, an expiry, or a re-keyed issuer. Failed checks are never
/// recorded: a forged certificate pays the full check on every attempt.
///
/// The memo is bounded: at `cap` entries it resets rather than evicting,
/// keeping the worst case simple and the structure small.
pub struct CheckMemo {
    entries: std::sync::Mutex<std::collections::HashMap<[u8; 32], std::sync::Arc<MemoEntry>>>,
    cap: usize,
}

/// What a successful full check recorded (see [`CheckMemo`]).
struct MemoEntry {
    /// Every key-directory consultation the check made, in order.
    consulted: Vec<(String, [u8; 32])>,
    /// `(credential id, expiry)` of every chain edge, traversal order.
    facts: Vec<(String, Option<u64>)>,
}

impl CheckMemo {
    /// A memo holding at most `cap` verified certificates.
    pub fn new(cap: usize) -> CheckMemo {
        CheckMemo {
            entries: std::sync::Mutex::new(std::collections::HashMap::new()),
            cap: cap.max(1),
        }
    }

    /// Number of certificates currently memoized.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("check memo poisoned").len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, digest: &[u8; 32]) -> Option<std::sync::Arc<MemoEntry>> {
        self.entries
            .lock()
            .expect("check memo poisoned")
            .get(digest)
            .cloned()
    }

    fn insert(&self, digest: [u8; 32], entry: MemoEntry) {
        let mut entries = self.entries.lock().expect("check memo poisoned");
        if entries.len() >= self.cap && !entries.contains_key(&digest) {
            entries.clear();
        }
        entries.insert(digest, std::sync::Arc::new(entry));
    }
}

/// [`KeyDirectory`] adapter that logs every successful consultation, so
/// the memo can re-validate exactly the bindings a check depended on.
struct RecordingKeys<'a> {
    inner: &'a dyn KeyDirectory,
    log: std::cell::RefCell<Vec<(String, [u8; 32])>>,
}

impl KeyDirectory for RecordingKeys<'_> {
    fn key_of(&self, name: &str) -> Option<[u8; 32]> {
        let r = self.inner.key_of(name);
        if let Some(k) = r {
            self.log.borrow_mut().push((name.to_string(), k));
        }
        r
    }
}

/// Everything the checker needs from its environment: keys, revocations,
/// the clock, and (optionally) the repository epoch currently observed.
pub struct CheckContext<'a> {
    /// Issuer name → public key directory.
    pub keys: &'a dyn KeyDirectory,
    /// Revocation predicate.
    pub revoked: &'a dyn RevocationProbe,
    /// Logical time at which validity is evaluated.
    pub now: u64,
    /// The repository epoch the verifier currently observes, if it knows
    /// one. A certificate pinning a *later* epoch is rejected
    /// ([`CertError::EpochAhead`]); an earlier pin is fine — positive
    /// proofs are monotone under publishes, and revocation/expiry are
    /// re-checked live.
    pub repo_epoch: Option<u64>,
    /// Optional [`CheckMemo`] so repeated checks of the same certificate
    /// (the continuous-authorization re-check path) skip re-deriving the
    /// structural verdict. `None` re-derives everything in full.
    pub memo: Option<&'a CheckMemo>,
}

// ---------------------------------------------------------------------------
// Certificate data model
// ---------------------------------------------------------------------------

/// Whether the certificate proves role membership or the assignment right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertKind {
    /// Subject holds the role.
    Membership,
    /// Subject holds the *right of assignment* for the role.
    Assignment,
}

/// The subject a certificate speaks for: a keyed entity or a role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertSubject {
    /// A keyed principal.
    Entity {
        /// The entity's name.
        name: String,
        /// Its Ed25519 public key.
        key: [u8; 32],
    },
    /// A role (`Owner.Role`), for role→role chains.
    Role(String),
}

impl CertSubject {
    /// Display string (bare names, like the paper syntax).
    pub fn render(&self) -> String {
        match self {
            CertSubject::Entity { name, .. } => name.clone(),
            CertSubject::Role(r) => r.clone(),
        }
    }
}

/// One attribute value; attenuation semantics mirror the engine exactly:
/// capacities take the minimum, ranges and sets intersect, a capacity
/// meets a range as `[0, cap]`, and a set never meets a numeric kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertAttr {
    /// Capacity-style number; attenuates by minimum.
    Capacity(i64),
    /// Inclusive numeric range; attenuates by intersection.
    Range(i64, i64),
    /// Admissible symbolic values; attenuates by intersection.
    Set(BTreeSet<String>),
}

impl CertAttr {
    fn attenuate(&self, other: &CertAttr) -> Option<CertAttr> {
        match (self, other) {
            (CertAttr::Capacity(a), CertAttr::Capacity(b)) => Some(CertAttr::Capacity(*a.min(b))),
            (CertAttr::Range(lo1, hi1), CertAttr::Range(lo2, hi2)) => {
                let lo = *lo1.max(lo2);
                let hi = *hi1.min(hi2);
                if lo <= hi {
                    Some(CertAttr::Range(lo, hi))
                } else {
                    None
                }
            }
            (CertAttr::Set(a), CertAttr::Set(b)) => {
                let i: BTreeSet<String> = a.intersection(b).cloned().collect();
                if i.is_empty() {
                    None
                } else {
                    Some(CertAttr::Set(i))
                }
            }
            (CertAttr::Capacity(a), CertAttr::Range(lo, hi))
            | (CertAttr::Range(lo, hi), CertAttr::Capacity(a)) => {
                CertAttr::Range(0, *a).attenuate(&CertAttr::Range(*lo, *hi))
            }
            _ => None,
        }
    }

    fn satisfies(&self, required: &CertAttr) -> bool {
        match (self, required) {
            (CertAttr::Capacity(have), CertAttr::Capacity(need)) => have >= need,
            (CertAttr::Range(_, hi), CertAttr::Capacity(need)) => hi >= need,
            _ => self.attenuate(required).is_some(),
        }
    }

    fn render(&self) -> String {
        match self {
            CertAttr::Capacity(v) => v.to_string(),
            CertAttr::Range(lo, hi) => format!("({lo},{hi})"),
            CertAttr::Set(s) => {
                let items: Vec<&str> = s.iter().map(String::as_str).collect();
                format!("{{{}}}", items.join(","))
            }
        }
    }
}

/// An ordered attribute map, canonical under its BTree ordering.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CertAttrs(pub BTreeMap<String, CertAttr>);

impl CertAttrs {
    /// The empty attribute set.
    pub fn new() -> CertAttrs {
        CertAttrs::default()
    }

    /// Attenuate by the next hop: shared keys must intersect non-emptily,
    /// unshared keys carry over.
    pub fn attenuate(&self, next: &CertAttrs) -> Option<CertAttrs> {
        let mut out = self.0.clone();
        for (k, v) in &next.0 {
            match out.get(k) {
                Some(existing) => {
                    let narrowed = existing.attenuate(v)?;
                    out.insert(k.clone(), narrowed);
                }
                None => {
                    out.insert(k.clone(), v.clone());
                }
            }
        }
        Some(CertAttrs(out))
    }

    /// Whether every required attribute is present and compatible.
    pub fn satisfies(&self, required: &CertAttrs) -> bool {
        required.0.iter().all(|(k, req)| {
            self.0
                .get(k)
                .map(|have| have.satisfies(req))
                .unwrap_or(false)
        })
    }

    /// Paper-syntax rendering (`" with CPU=100 Trust=(0,10)"`).
    pub fn render(&self) -> String {
        if self.0.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        format!(" with {}", parts.join(" "))
    }
}

/// A support edge: one assignment delegation of a third-party edge's
/// authorization chain — the literal signed bytes plus the signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportEdge {
    /// The canonical delegation encoding the issuer signed.
    pub signed: Vec<u8>,
    /// The issuer's Ed25519 signature over `signed`.
    pub signature: [u8; 64],
}

impl SupportEdge {
    /// Stable credential id (same derivation the engine uses).
    pub fn id(&self) -> String {
        edge_id(&self.signed, &self.signature)
    }
}

/// One edge of the certified chain: the credential's signed bytes, its
/// signature, and — for third-party delegations — the assignment-right
/// chain authorizing its issuer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertEdge {
    /// The canonical delegation encoding the issuer signed.
    pub signed: Vec<u8>,
    /// The issuer's Ed25519 signature over `signed`.
    pub signature: [u8; 64],
    /// Assignment chain authorizing this edge's issuer (third-party
    /// edges). `Some(vec![])` means "the issuer *is* the role owner".
    pub support: Option<Vec<SupportEdge>>,
}

impl CertEdge {
    /// Stable credential id (same derivation the engine uses).
    pub fn id(&self) -> String {
        edge_id(&self.signed, &self.signature)
    }
}

/// A proof-carrying authorization certificate: everything needed to
/// re-validate an engine verdict with no repository and no search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthCertificate {
    /// Membership or assignment-right.
    pub kind: CertKind,
    /// The subject the verdict authorizes.
    pub subject: CertSubject,
    /// The role proven (`Owner.Role`).
    pub role: String,
    /// The attributes the chain conveys after attenuation.
    pub attrs: CertAttrs,
    /// Repository epoch the proof search was computed against, if the
    /// source was versioned.
    pub repo_epoch: Option<u64>,
    /// Registry epoch at emission time.
    pub registry_epoch: u64,
    /// The delegation chain, subject-side first.
    pub edges: Vec<CertEdge>,
    /// Revocation frontier: every credential id whose revocation must
    /// invalidate this certificate (a superset of the chain ids).
    pub watch: Vec<String>,
}

impl AuthCertificate {
    /// Canonical wire encoding: payload followed by a 32-byte SHA-256
    /// integrity digest. The digest is tamper-*evidence*, not a
    /// signature — unforgeability comes from the per-edge Ed25519
    /// signatures the checker verifies.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.encode_payload();
        let digest = psf_crypto::sha256(&out);
        out.extend_from_slice(&digest);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(CERT_MAGIC);
        out.push(CERT_VERSION);
        out.push(match self.kind {
            CertKind::Membership => 0,
            CertKind::Assignment => 1,
        });
        match &self.subject {
            CertSubject::Entity { name, key } => {
                out.push(0);
                put_str(&mut out, name);
                out.extend_from_slice(key);
            }
            CertSubject::Role(r) => {
                out.push(1);
                put_str(&mut out, r);
            }
        }
        put_str(&mut out, &self.role);
        encode_attrs(&self.attrs, &mut out);
        match self.repo_epoch {
            Some(e) => {
                out.push(1);
                out.extend_from_slice(&e.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.registry_epoch.to_le_bytes());
        out.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        for e in &self.edges {
            put_bytes(&mut out, &e.signed);
            out.extend_from_slice(&e.signature);
            match &e.support {
                Some(chain) => {
                    out.push(1);
                    out.extend_from_slice(&(chain.len() as u32).to_le_bytes());
                    for s in chain {
                        put_bytes(&mut out, &s.signed);
                        out.extend_from_slice(&s.signature);
                    }
                }
                None => out.push(0),
            }
        }
        out.extend_from_slice(&(self.watch.len() as u32).to_le_bytes());
        for id in &self.watch {
            put_str(&mut out, id);
        }
        out
    }

    /// Strict decode of [`encode`](Self::encode) output: integrity digest
    /// first, then every field, with anything unrecognized rejected.
    pub fn decode(bytes: &[u8]) -> Result<AuthCertificate, CertError> {
        if bytes.len() > MAX_WIRE {
            return Err(CertError::Malformed("oversized certificate"));
        }
        if bytes.len() < CERT_MAGIC.len() + 1 + 32 {
            return Err(CertError::Truncated);
        }
        let (payload, digest) = bytes.split_at(bytes.len() - 32);
        if psf_crypto::sha256(payload) != digest {
            return Err(CertError::DigestMismatch);
        }
        let mut r = Reader::new(payload);
        if r.take(CERT_MAGIC.len())? != CERT_MAGIC {
            return Err(CertError::BadMagic);
        }
        let version = r.u8()?;
        if version != CERT_VERSION {
            return Err(CertError::UnsupportedVersion(version));
        }
        let kind = match r.u8()? {
            0 => CertKind::Membership,
            1 => CertKind::Assignment,
            _ => return Err(CertError::Malformed("certificate kind tag")),
        };
        let subject = read_subject(&mut r)?;
        let role = r.str()?;
        let attrs = read_attrs(&mut r)?;
        let repo_epoch = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return Err(CertError::Malformed("epoch option tag")),
        };
        let registry_epoch = r.u64()?;
        let n_edges = r.u32()? as usize;
        let mut edges = Vec::new();
        for _ in 0..n_edges {
            let signed = r.bytes()?;
            let signature = r.sig()?;
            let support = match r.u8()? {
                0 => None,
                1 => {
                    let n = r.u32()? as usize;
                    let mut chain = Vec::new();
                    for _ in 0..n {
                        let s_signed = r.bytes()?;
                        let s_sig = r.sig()?;
                        chain.push(SupportEdge {
                            signed: s_signed,
                            signature: s_sig,
                        });
                    }
                    Some(chain)
                }
                _ => return Err(CertError::Malformed("support option tag")),
            };
            edges.push(CertEdge {
                signed,
                signature,
                support,
            });
        }
        let n_watch = r.u32()? as usize;
        let mut watch = Vec::new();
        for _ in 0..n_watch {
            watch.push(r.str()?);
        }
        r.finish()?;
        Ok(AuthCertificate {
            kind,
            subject,
            role,
            attrs,
            repo_epoch,
            registry_epoch,
            edges,
            watch,
        })
    }

    /// Full SHA-256 integrity digest of the payload.
    pub fn digest(&self) -> [u8; 32] {
        psf_crypto::sha256(&self.encode_payload())
    }

    /// Truncated hex digest (16 chars), the form audit records carry.
    pub fn digest_hex(&self) -> String {
        self.digest()[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Credential ids of every edge, supports included, chain order.
    pub fn chain_ids(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in &self.edges {
            out.push(e.id());
            if let Some(chain) = &e.support {
                for s in chain {
                    out.push(s.id());
                }
            }
        }
        out
    }

    /// Total number of edges including supports.
    pub fn total_edges(&self) -> usize {
        self.edges
            .iter()
            .map(|e| 1 + e.support.as_ref().map_or(0, Vec::len))
            .sum()
    }

    /// Earliest expiry among all edges (best effort: unparseable edges
    /// contribute nothing; [`check`] is the authority on validity).
    pub fn min_expiry(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut note = |signed: &[u8]| {
            if let Ok(p) = parse_delegation(signed) {
                if let Some(e) = p.expires {
                    min = Some(min.map_or(e, |m: u64| m.min(e)));
                }
            }
        };
        for e in &self.edges {
            note(&e.signed);
            if let Some(chain) = &e.support {
                for s in chain {
                    note(&s.signed);
                }
            }
        }
        min
    }

    /// Human-readable summary for CLI output.
    pub fn render(&self) -> String {
        let kind = match self.kind {
            CertKind::Membership => "membership",
            CertKind::Assignment => "assignment-right",
        };
        let mut out = format!(
            "certificate {} ({kind}) that {} holds {}{}\n",
            self.digest_hex(),
            self.subject.render(),
            self.role,
            self.attrs.render()
        );
        out.push_str(&format!(
            "  epochs: repo={} registry={}  edges={}  watch={}\n",
            self.repo_epoch
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
            self.registry_epoch,
            self.total_edges(),
            self.watch.len()
        ));
        for (i, e) in self.edges.iter().enumerate() {
            let line = match parse_delegation(&e.signed) {
                Ok(p) => p.render(),
                Err(_) => "<unparseable delegation>".to_string(),
            };
            out.push_str(&format!("  ({}) {} [{}]\n", i + 1, line, e.id()));
            if let Some(chain) = &e.support {
                for s in chain {
                    let line = match parse_delegation(&s.signed) {
                        Ok(p) => p.render(),
                        Err(_) => "<unparseable delegation>".to_string(),
                    };
                    out.push_str(&format!("      | {} [{}]\n", line, s.id()));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Embedded delegation parsing
// ---------------------------------------------------------------------------

/// Delegation kind byte, as parsed from the canonical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegationClass {
    /// Issued by the role owner directly.
    SelfCertifying,
    /// Issued by a third party holding the assignment right.
    ThirdParty,
    /// Grants the right of assignment.
    Assignment,
}

/// A delegation decoded from its canonical signed bytes — the checker's
/// independent view of what the issuer actually signed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedDelegation {
    /// Who receives the rights.
    pub subject: CertSubject,
    /// The role conveyed (`Owner.Role`).
    pub object: String,
    /// Which of the three delegation forms this is.
    pub kind: DelegationClass,
    /// The issuer's name.
    pub issuer: String,
    /// Attribute attenuations on this edge.
    pub attrs: CertAttrs,
    /// Optional expiry (logical seconds).
    pub expires: Option<u64>,
    /// Whether online validity monitoring was requested.
    pub monitored: bool,
    /// Issuer-chosen serial.
    pub serial: u64,
}

impl ParsedDelegation {
    /// Paper bracket-syntax rendering.
    pub fn render(&self) -> String {
        let prime = if self.kind == DelegationClass::Assignment {
            " '"
        } else {
            ""
        };
        format!(
            "[ {} -> {}{} ] {}{}",
            self.subject.render(),
            self.object,
            prime,
            self.issuer,
            self.attrs.render()
        )
    }
}

/// Strictly parse a canonical delegation encoding. Every byte must be
/// accounted for; unknown tags reject.
pub fn parse_delegation(bytes: &[u8]) -> Result<ParsedDelegation, CertError> {
    let mut r = Reader::new(bytes);
    if r.take(DELEGATION_MAGIC.len())? != DELEGATION_MAGIC {
        return Err(CertError::Malformed("delegation magic"));
    }
    let subject = read_subject(&mut r)?;
    let object = r.str()?;
    let kind = match r.u8()? {
        0 => DelegationClass::SelfCertifying,
        1 => DelegationClass::ThirdParty,
        2 => DelegationClass::Assignment,
        _ => return Err(CertError::Malformed("delegation kind tag")),
    };
    let issuer = r.str()?;
    let attrs = read_attrs(&mut r)?;
    let expires = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(CertError::Malformed("expiry option tag")),
    };
    let monitored = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CertError::Malformed("monitored flag")),
    };
    let serial = r.u64()?;
    r.finish()?;
    Ok(ParsedDelegation {
        subject,
        object,
        kind,
        issuer,
        attrs,
        expires,
        monitored,
        serial,
    })
}

/// `Owner` of an `Owner.Role` string (rightmost dot splits).
fn role_owner(role: &str) -> Result<&str, CertError> {
    match role.rsplit_once('.') {
        Some((owner, r)) if !owner.is_empty() && !r.is_empty() => Ok(owner),
        _ => Err(CertError::Malformed("role name")),
    }
}

/// Stable credential id: hex SHA-256 (truncated) of signed bytes plus
/// signature — byte-identical to the engine's `SignedDelegation::id`.
fn edge_id(signed: &[u8], sig: &[u8; 64]) -> String {
    let mut data = Vec::with_capacity(signed.len() + 64);
    data.extend_from_slice(signed);
    data.extend_from_slice(sig);
    let digest = psf_crypto::sha256(&data);
    digest[..8].iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// Decode and fully check certificate wire bytes.
pub fn check_bytes(bytes: &[u8], ctx: &CheckContext<'_>) -> Result<AuthCertificate, CertError> {
    let cert = AuthCertificate::decode(bytes)?;
    check(&cert, ctx)?;
    Ok(cert)
}

/// Check a certificate against the verifier's environment: the epoch
/// window, every signature over the embedded bytes, chain-rule linkage,
/// issuer authorization (assignment chains to the owner), attenuation
/// monotonicity, expiry at `ctx.now`, and revocation of every edge.
///
/// Accepts every certificate the engine emits for a proof it found, and
/// nothing the chain rules forbid — the differential property the test
/// suite pins. (The engine's `Proof::verify` is this function.)
///
/// With a [`CheckMemo`] in the context, a certificate whose payload was
/// already fully verified replays only the environment-dependent half
/// (epoch window, key bindings, expiry, revocation); see [`CheckMemo`]
/// for the soundness argument.
pub fn check(cert: &AuthCertificate, ctx: &CheckContext<'_>) -> Result<(), CertError> {
    let Some(memo) = ctx.memo else {
        return check_full(cert, ctx);
    };
    let digest = cert.digest();
    if let Some(entry) = memo.lookup(&digest) {
        // The structural verdict holds as long as every key binding the
        // check consulted is unchanged; any drift (re-keyed or dropped
        // issuer) falls back to the full check below.
        if entry
            .consulted
            .iter()
            .all(|(name, key)| ctx.keys.key_of(name) == Some(*key))
        {
            return check_recorded(&entry, cert, ctx);
        }
    }
    let recorder = RecordingKeys {
        inner: ctx.keys,
        log: std::cell::RefCell::new(Vec::new()),
    };
    let full_ctx = CheckContext {
        keys: &recorder,
        revoked: ctx.revoked,
        now: ctx.now,
        repo_epoch: ctx.repo_epoch,
        memo: None,
    };
    check_full(cert, &full_ctx)?;
    memo.insert(
        digest,
        MemoEntry {
            consulted: recorder.log.into_inner(),
            facts: edge_facts(cert)?,
        },
    );
    Ok(())
}

/// The environment-only replay of a memoized structural verdict: epoch
/// window, then expiry and revocation of every recorded edge — the same
/// order the full check evaluates them, so error precedence matches.
fn check_recorded(
    entry: &MemoEntry,
    cert: &AuthCertificate,
    ctx: &CheckContext<'_>,
) -> Result<(), CertError> {
    if let (Some(pinned), Some(current)) = (cert.repo_epoch, ctx.repo_epoch) {
        if pinned > current {
            return Err(CertError::EpochAhead { pinned, current });
        }
    }
    for (id, expires) in &entry.facts {
        if let Some(e) = expires {
            if ctx.now >= *e {
                return Err(CertError::Expired { edge: id.clone() });
            }
        }
        if ctx.revoked.is_revoked(id) {
            return Err(CertError::Revoked(id.clone()));
        }
    }
    Ok(())
}

/// `(credential id, expiry)` of every chain edge in the exact order the
/// full check visits them — each edge, then its support chain.
fn edge_facts(cert: &AuthCertificate) -> Result<Vec<(String, Option<u64>)>, CertError> {
    let mut out = Vec::with_capacity(cert.total_edges());
    for e in &cert.edges {
        out.push((e.id(), parse_delegation(&e.signed)?.expires));
        if let Some(chain) = &e.support {
            for s in chain {
                out.push((s.id(), parse_delegation(&s.signed)?.expires));
            }
        }
    }
    Ok(out)
}

fn check_full(cert: &AuthCertificate, ctx: &CheckContext<'_>) -> Result<(), CertError> {
    if let (Some(pinned), Some(current)) = (cert.repo_epoch, ctx.repo_epoch) {
        if pinned > current {
            return Err(CertError::EpochAhead { pinned, current });
        }
    }
    // Every chain edge must be covered by the watch set, or a revocation
    // monitor built from this certificate would silently miss an edge.
    let watched: BTreeSet<&str> = cert.watch.iter().map(String::as_str).collect();
    for id in cert.chain_ids() {
        if !watched.contains(id.as_str()) {
            return Err(CertError::UnwatchedEdge(id));
        }
    }
    match cert.kind {
        CertKind::Assignment => {
            for e in &cert.edges {
                if e.support.is_some() {
                    return Err(CertError::Malformed("support chain on assignment edge"));
                }
            }
            let flat: Vec<SupportEdge> = cert
                .edges
                .iter()
                .map(|e| SupportEdge {
                    signed: e.signed.clone(),
                    signature: e.signature,
                })
                .collect();
            check_assignment_chain(&cert.subject, &cert.role, &flat, ctx)?;
            if !cert.attrs.0.is_empty() {
                // The engine never claims attributes on assignment proofs.
                return Err(CertError::AttrMismatch);
            }
            Ok(())
        }
        CertKind::Membership => check_membership(cert, ctx),
    }
}

fn check_membership(cert: &AuthCertificate, ctx: &CheckContext<'_>) -> Result<(), CertError> {
    if cert.edges.is_empty() {
        return Err(CertError::EmptyChain);
    }
    let mut attrs = CertAttrs::new();
    let mut expected = cert.subject.clone();
    for edge in &cert.edges {
        let (parsed, id) = check_edge(&edge.signed, &edge.signature, ctx)?;
        if parsed.subject != expected {
            return Err(CertError::BrokenLink { edge: id });
        }
        let effective = effective_attrs(edge, &parsed, &id, ctx)?;
        attrs = attrs
            .attenuate(&effective)
            .ok_or(CertError::AttrAnnihilation { edge: id })?;
        expected = CertSubject::Role(parsed.object);
    }
    let last = parse_delegation(&cert.edges.last().expect("non-empty").signed)?;
    if last.object != cert.role {
        return Err(CertError::WrongTarget);
    }
    if attrs != cert.attrs {
        return Err(CertError::AttrMismatch);
    }
    Ok(())
}

/// The attributes a membership edge actually conveys: its own, attenuated
/// by its supporting assignment chain's bounds.
fn effective_attrs(
    edge: &CertEdge,
    parsed: &ParsedDelegation,
    id: &str,
    ctx: &CheckContext<'_>,
) -> Result<CertAttrs, CertError> {
    match parsed.kind {
        DelegationClass::SelfCertifying => {
            if parsed.issuer != role_owner(&parsed.object)? {
                return Err(CertError::NotOwner {
                    edge: id.to_string(),
                });
            }
            Ok(parsed.attrs.clone())
        }
        DelegationClass::ThirdParty => {
            let chain = edge.support.as_ref().ok_or(CertError::MissingSupport {
                edge: id.to_string(),
            })?;
            let issuer_key = ctx
                .keys
                .key_of(&parsed.issuer)
                .ok_or(CertError::UnknownIssuer(parsed.issuer.clone()))?;
            let holder = CertSubject::Entity {
                name: parsed.issuer.clone(),
                key: issuer_key,
            };
            check_assignment_chain(&holder, &parsed.object, chain, ctx).map_err(|e| match e {
                // Keep environment errors precise; relabel pure chain-shape
                // failures as support mismatches of this edge.
                CertError::BrokenLink { .. }
                | CertError::WrongKind { .. }
                | CertError::WrongTarget
                | CertError::OwnerKeyMismatch => CertError::SupportMismatch {
                    edge: id.to_string(),
                },
                other => other,
            })?;
            let mut bound = CertAttrs::new();
            for s in chain {
                let s_parsed = parse_delegation(&s.signed)?;
                bound = bound
                    .attenuate(&s_parsed.attrs)
                    .ok_or(CertError::AttrAnnihilation { edge: s.id() })?;
            }
            parsed
                .attrs
                .attenuate(&bound)
                .ok_or(CertError::AttrAnnihilation {
                    edge: id.to_string(),
                })
        }
        DelegationClass::Assignment => Err(CertError::WrongKind {
            edge: id.to_string(),
        }),
    }
}

/// Verify an assignment-right chain: `subject` holds the right of
/// assignment for `role` because it is the owner (zero edges) or a chain
/// of assignment delegations links it back to the owner.
fn check_assignment_chain(
    subject: &CertSubject,
    role: &str,
    chain: &[SupportEdge],
    ctx: &CheckContext<'_>,
) -> Result<(), CertError> {
    let owner = role_owner(role)?;
    if chain.is_empty() {
        return match subject {
            CertSubject::Entity { name, key } if name == owner => {
                let expected = ctx
                    .keys
                    .key_of(name)
                    .ok_or(CertError::UnknownIssuer(name.clone()))?;
                if expected != *key {
                    return Err(CertError::OwnerKeyMismatch);
                }
                Ok(())
            }
            _ => Err(CertError::OwnerKeyMismatch),
        };
    }
    let mut expected = subject.clone();
    let mut last_issuer = String::new();
    for s in chain {
        let (parsed, id) = check_edge(&s.signed, &s.signature, ctx)?;
        if parsed.kind != DelegationClass::Assignment {
            return Err(CertError::WrongKind { edge: id });
        }
        if parsed.object != role {
            return Err(CertError::WrongTarget);
        }
        if parsed.subject != expected {
            return Err(CertError::BrokenLink { edge: id });
        }
        let issuer_key = ctx
            .keys
            .key_of(&parsed.issuer)
            .ok_or(CertError::UnknownIssuer(parsed.issuer.clone()))?;
        expected = CertSubject::Entity {
            name: parsed.issuer.clone(),
            key: issuer_key,
        };
        last_issuer = parsed.issuer;
    }
    if last_issuer != owner {
        return Err(CertError::BrokenLink {
            edge: chain.last().expect("non-empty").id(),
        });
    }
    Ok(())
}

/// The per-credential checks every edge passes: issuer key lookup,
/// structure (self-certifying ⇒ owner-issued), expiry at `ctx.now`,
/// signature over the embedded bytes, and revocation — in the same order
/// as the engine, so error precedence matches.
fn check_edge(
    signed: &[u8],
    sig: &[u8; 64],
    ctx: &CheckContext<'_>,
) -> Result<(ParsedDelegation, String), CertError> {
    let id = edge_id(signed, sig);
    let parsed = parse_delegation(signed)?;
    let issuer_key = ctx
        .keys
        .key_of(&parsed.issuer)
        .ok_or(CertError::UnknownIssuer(parsed.issuer.clone()))?;
    if parsed.kind == DelegationClass::SelfCertifying
        && parsed.issuer != role_owner(&parsed.object)?
    {
        return Err(CertError::NotOwner { edge: id });
    }
    if let Some(expires) = parsed.expires {
        if ctx.now >= expires {
            return Err(CertError::Expired { edge: id });
        }
    }
    let key = VerifyingKey(issuer_key);
    if key.verify(signed, &Signature(*sig)).is_err() {
        return Err(CertError::BadSignature { edge: id });
    }
    if ctx.revoked.is_revoked(&id) {
        return Err(CertError::Revoked(id));
    }
    Ok((parsed, id))
}

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn encode_attrs(attrs: &CertAttrs, out: &mut Vec<u8>) {
    out.extend_from_slice(&(attrs.0.len() as u32).to_le_bytes());
    for (k, v) in &attrs.0 {
        put_str(out, k);
        match v {
            CertAttr::Capacity(n) => {
                out.push(0);
                out.extend_from_slice(&n.to_le_bytes());
            }
            CertAttr::Range(lo, hi) => {
                out.push(1);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
            CertAttr::Set(items) => {
                out.push(2);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    put_str(out, item);
                }
            }
        }
    }
}

fn read_subject(r: &mut Reader<'_>) -> Result<CertSubject, CertError> {
    match r.u8()? {
        0 => {
            let name = r.str()?;
            let key_bytes = r.take(32)?;
            let mut key = [0u8; 32];
            key.copy_from_slice(key_bytes);
            Ok(CertSubject::Entity { name, key })
        }
        1 => Ok(CertSubject::Role(r.str()?)),
        _ => Err(CertError::Malformed("subject tag")),
    }
}

fn read_attrs(r: &mut Reader<'_>) -> Result<CertAttrs, CertError> {
    let n = r.u32()? as usize;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let k = r.str()?;
        let v = match r.u8()? {
            0 => CertAttr::Capacity(r.i64()?),
            1 => CertAttr::Range(r.i64()?, r.i64()?),
            2 => {
                let m = r.u32()? as usize;
                let mut items = BTreeSet::new();
                for _ in 0..m {
                    items.insert(r.str()?);
                }
                CertAttr::Set(items)
            }
            _ => return Err(CertError::Malformed("attribute value tag")),
        };
        out.insert(k, v);
    }
    Ok(CertAttrs(out))
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CertError> {
        if self.buf.len() - self.pos < n {
            return Err(CertError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CertError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CertError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CertError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, CertError> {
        Ok(self.u64()? as i64)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CertError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, CertError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CertError::Malformed("non-UTF-8 string"))
    }

    fn sig(&mut self) -> Result<[u8; 64], CertError> {
        let b = self.take(64)?;
        let mut out = [0u8; 64];
        out.copy_from_slice(b);
        Ok(out)
    }

    fn finish(&self) -> Result<(), CertError> {
        if self.pos != self.buf.len() {
            return Err(CertError::TrailingBytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psf_crypto::ed25519::SigningKey;

    /// Test-local delegation encoder mirroring the engine's canonical
    /// layout — kept here so the crate's tests need no engine dependency.
    struct TestDelegation {
        subject: CertSubject,
        object: String,
        kind: u8,
        issuer: String,
        attrs: CertAttrs,
        expires: Option<u64>,
        monitored: bool,
        serial: u64,
    }

    impl TestDelegation {
        fn encode(&self) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(DELEGATION_MAGIC);
            match &self.subject {
                CertSubject::Entity { name, key } => {
                    out.push(0);
                    put_str(&mut out, name);
                    out.extend_from_slice(key);
                }
                CertSubject::Role(r) => {
                    out.push(1);
                    put_str(&mut out, r);
                }
            }
            put_str(&mut out, &self.object);
            out.push(self.kind);
            put_str(&mut out, &self.issuer);
            encode_attrs(&self.attrs, &mut out);
            match self.expires {
                Some(t) => {
                    out.push(1);
                    out.extend_from_slice(&t.to_le_bytes());
                }
                None => out.push(0),
            }
            out.push(self.monitored as u8);
            out.extend_from_slice(&self.serial.to_le_bytes());
            out
        }
    }

    fn keypair(seed: u8) -> (SigningKey, [u8; 32]) {
        let sk = SigningKey::from_seed([seed; 32]);
        let pk = sk.verifying_key();
        (sk, pk.0)
    }

    struct World {
        owner_sk: SigningKey,
        keys: BTreeMap<String, [u8; 32]>,
        alice_key: [u8; 32],
    }

    fn world() -> World {
        let (owner_sk, owner_pk) = keypair(1);
        let (_, alice_pk) = keypair(2);
        let mut keys = BTreeMap::new();
        keys.insert("Comp.NY".to_string(), owner_pk);
        keys.insert("Alice".to_string(), alice_pk);
        World {
            owner_sk,
            keys,
            alice_key: alice_pk,
        }
    }

    fn direct_cert(w: &World) -> AuthCertificate {
        let body = TestDelegation {
            subject: CertSubject::Entity {
                name: "Alice".into(),
                key: w.alice_key,
            },
            object: "Comp.NY.Member".into(),
            kind: 0,
            issuer: "Comp.NY".into(),
            attrs: CertAttrs::new(),
            expires: None,
            monitored: false,
            serial: 0,
        };
        let signed = body.encode();
        let sig = w.owner_sk.sign(&signed).to_bytes();
        let edge = CertEdge {
            signed,
            signature: sig,
            support: None,
        };
        let watch = vec![edge.id()];
        AuthCertificate {
            kind: CertKind::Membership,
            subject: CertSubject::Entity {
                name: "Alice".into(),
                key: w.alice_key,
            },
            role: "Comp.NY.Member".into(),
            attrs: CertAttrs::new(),
            repo_epoch: Some(3),
            registry_epoch: 2,
            edges: vec![edge],
            watch,
        }
    }

    fn ctx<'a>(
        keys: &'a BTreeMap<String, [u8; 32]>,
        revoked: &'a BTreeSet<String>,
    ) -> CheckContext<'a> {
        CheckContext {
            keys,
            revoked,
            now: 0,
            repo_epoch: Some(10),
            memo: None,
        }
    }

    #[test]
    fn roundtrip_and_accept() {
        let w = world();
        let cert = direct_cert(&w);
        let wire = cert.encode();
        let back = AuthCertificate::decode(&wire).unwrap();
        assert_eq!(back, cert);
        let none = BTreeSet::new();
        check(&back, &ctx(&w.keys, &none)).unwrap();
        assert_eq!(check_bytes(&wire, &ctx(&w.keys, &none)).unwrap(), cert);
    }

    #[test]
    fn check_memo_speeds_rechecks_without_masking_revocation() {
        let w = world();
        let cert = direct_cert(&w);
        let memo = CheckMemo::new(1024);
        let none = BTreeSet::new();
        let mut c = ctx(&w.keys, &none);
        c.memo = Some(&memo);
        check(&cert, &c).unwrap();
        assert_eq!(memo.len(), 1, "the structural verdict is memoized");
        // A second check hits the memo — and still accepts.
        check(&cert, &c).unwrap();
        assert_eq!(memo.len(), 1);
        // Revocation is evaluated live on every check: the memo caches
        // only the structural verdict, so a revoked edge is rejected even
        // though the certificate is memoized.
        let id = cert.edges[0].id();
        let revoked: BTreeSet<String> = [id.clone()].into_iter().collect();
        let mut c2 = ctx(&w.keys, &revoked);
        c2.memo = Some(&memo);
        assert_eq!(check(&cert, &c2), Err(CertError::Revoked(id)));
        // A re-keyed issuer invalidates the memoized verdict: the check
        // falls back to the full path, where the old signature no longer
        // verifies under the new key.
        let mut rekeyed = w.keys.clone();
        rekeyed.insert("Comp.NY".into(), [0x55; 32]);
        let mut c3 = ctx(&rekeyed, &none);
        c3.memo = Some(&memo);
        assert!(matches!(
            check(&cert, &c3),
            Err(CertError::BadSignature { .. })
        ));
        // A forged certificate has a different payload digest — it never
        // hits the memo, is never memoized, and never accepted.
        let mut forged = cert.clone();
        forged.edges[0].signature[0] ^= 1;
        forged.watch = vec![forged.edges[0].id()];
        let before = memo.len();
        for _ in 0..2 {
            assert!(matches!(
                check(&forged, &c),
                Err(CertError::BadSignature { .. })
            ));
        }
        assert_eq!(memo.len(), before);
    }

    #[test]
    fn any_byte_flip_is_digest_mismatch() {
        let w = world();
        let wire = direct_cert(&w).encode();
        let none = BTreeSet::new();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            let err = check_bytes(&bad, &ctx(&w.keys, &none)).unwrap_err();
            assert!(
                matches!(
                    err,
                    CertError::DigestMismatch | CertError::Truncated | CertError::Malformed(_)
                ),
                "flip at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let w = world();
        let wire = direct_cert(&w).encode();
        for n in 0..wire.len() {
            assert!(AuthCertificate::decode(&wire[..n]).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let w = world();
        let cert = direct_cert(&w);
        // Rebuild a wire with an extra payload byte and a fresh digest:
        // strict parsing must still reject it.
        let mut payload = cert.encode_payload();
        payload.push(0);
        let digest = psf_crypto::sha256(&payload);
        payload.extend_from_slice(&digest);
        assert_eq!(
            AuthCertificate::decode(&payload),
            Err(CertError::TrailingBytes)
        );
    }

    #[test]
    fn revoked_edge_rejected() {
        let w = world();
        let cert = direct_cert(&w);
        let mut revoked = BTreeSet::new();
        revoked.insert(cert.edges[0].id());
        assert!(matches!(
            check(&cert, &ctx(&w.keys, &revoked)),
            Err(CertError::Revoked(_))
        ));
    }

    #[test]
    fn epoch_ahead_rejected() {
        let w = world();
        let mut cert = direct_cert(&w);
        cert.repo_epoch = Some(99);
        let none = BTreeSet::new();
        assert_eq!(
            check(&cert, &ctx(&w.keys, &none)),
            Err(CertError::EpochAhead {
                pinned: 99,
                current: 10
            })
        );
        // Without a current-epoch observation the window check is skipped.
        let mut c = ctx(&w.keys, &none);
        c.repo_epoch = None;
        check(&cert, &c).unwrap();
    }

    #[test]
    fn swapped_subject_rejected() {
        let w = world();
        let mut cert = direct_cert(&w);
        let (_, mallory_pk) = keypair(9);
        cert.subject = CertSubject::Entity {
            name: "Mallory".into(),
            key: mallory_pk,
        };
        let none = BTreeSet::new();
        assert!(matches!(
            check(&cert, &ctx(&w.keys, &none)),
            Err(CertError::BrokenLink { .. })
        ));
    }

    #[test]
    fn widened_attrs_rejected() {
        let w = world();
        let mut cert = direct_cert(&w);
        cert.attrs = CertAttrs::new();
        cert.attrs.0.insert("CPU".into(), CertAttr::Capacity(999));
        let none = BTreeSet::new();
        assert_eq!(
            check(&cert, &ctx(&w.keys, &none)),
            Err(CertError::AttrMismatch)
        );
    }

    #[test]
    fn dropped_link_rejected() {
        let w = world();
        let mut cert = direct_cert(&w);
        cert.edges.clear();
        let none = BTreeSet::new();
        assert_eq!(
            check(&cert, &ctx(&w.keys, &none)),
            Err(CertError::EmptyChain)
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let w = world();
        let mut cert = direct_cert(&w);
        cert.edges[0].signature[5] ^= 1;
        // The id changes with the signature, so re-watch the new id to
        // isolate the signature check itself.
        cert.watch = vec![cert.edges[0].id()];
        let none = BTreeSet::new();
        assert!(matches!(
            check(&cert, &ctx(&w.keys, &none)),
            Err(CertError::BadSignature { .. })
        ));
    }

    #[test]
    fn unwatched_chain_edge_rejected() {
        let w = world();
        let mut cert = direct_cert(&w);
        cert.watch.clear();
        let none = BTreeSet::new();
        assert!(matches!(
            check(&cert, &ctx(&w.keys, &none)),
            Err(CertError::UnwatchedEdge(_))
        ));
    }

    #[test]
    fn expired_edge_rejected() {
        let w = world();
        let body = TestDelegation {
            subject: CertSubject::Entity {
                name: "Alice".into(),
                key: w.alice_key,
            },
            object: "Comp.NY.Member".into(),
            kind: 0,
            issuer: "Comp.NY".into(),
            attrs: CertAttrs::new(),
            expires: Some(50),
            monitored: false,
            serial: 0,
        };
        let signed = body.encode();
        let sig = w.owner_sk.sign(&signed).to_bytes();
        let edge = CertEdge {
            signed,
            signature: sig,
            support: None,
        };
        let watch = vec![edge.id()];
        let cert = AuthCertificate {
            kind: CertKind::Membership,
            subject: CertSubject::Entity {
                name: "Alice".into(),
                key: w.alice_key,
            },
            role: "Comp.NY.Member".into(),
            attrs: CertAttrs::new(),
            repo_epoch: None,
            registry_epoch: 0,
            edges: vec![edge],
            watch,
        };
        let none = BTreeSet::new();
        let mut c = ctx(&w.keys, &none);
        c.now = 49;
        check(&cert, &c).unwrap();
        c.now = 50;
        assert!(matches!(check(&cert, &c), Err(CertError::Expired { .. })));
        assert_eq!(cert.min_expiry(), Some(50));
    }

    #[test]
    fn attenuation_mirrors_engine_rules() {
        let cap = CertAttr::Capacity(100);
        assert_eq!(
            cap.attenuate(&CertAttr::Capacity(80)),
            Some(CertAttr::Capacity(80))
        );
        assert_eq!(
            CertAttr::Range(0, 10).attenuate(&CertAttr::Range(11, 20)),
            None
        );
        assert_eq!(
            CertAttr::Capacity(7).attenuate(&CertAttr::Range(3, 10)),
            Some(CertAttr::Range(3, 7))
        );
        let s = CertAttr::Set(["x".to_string()].into_iter().collect());
        assert_eq!(s.attenuate(&CertAttr::Capacity(1)), None);
    }

    #[test]
    fn digest_is_stable_and_content_bound() {
        let w = world();
        let cert = direct_cert(&w);
        assert_eq!(cert.digest_hex().len(), 16);
        assert_eq!(cert.digest_hex(), cert.digest_hex());
        let mut other = cert.clone();
        other.registry_epoch += 1;
        assert_ne!(cert.digest_hex(), other.digest_hex());
    }
}
