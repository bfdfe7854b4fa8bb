//! # psf-drbac
//!
//! A from-scratch implementation of **dRBAC** — the decentralized,
//! PKI-based trust-management and role-based access-control system used by
//! the Partitionable Services Framework (HPDC'03, §3; originally
//! Freudenthal et al., ICDCS'01).
//!
//! dRBAC encodes *statements* within and across administrative domains as
//! cryptographically signed credentials called **delegations**. A
//! delegation maps a *subject* (an entity or another role) to a role
//! `Entity.Role`, optionally attenuating valued attributes (`CPU=100`,
//! `Trust=(0,10)`, `Secure={true,false}`). Three delegation types exist
//! (paper Table 1):
//!
//! * **self-certifying** — `[ Subject → Issuer.Role ] Issuer`: the role's
//!   owning entity grants it directly;
//! * **third-party** — `[ Subject → Entity.Role ] Issuer` with
//!   `Issuer ≠ Entity`: valid only if the issuer holds the *right of
//!   assignment* for `Entity.Role`;
//! * **assignment** — `[ Subject → Entity.Role' ] Issuer`: grants the
//!   right of assignment itself (the trailing `'`), transitively.
//!
//! Delegations chain into **proof graphs** ([`proof`]): a subject holds a
//! role if a path of valid delegations connects them, and the attributes
//! along the path attenuate by intersection (ranges intersect, sets
//! intersect, capacities take the minimum).
//!
//! Credentials live in a sharded, distributed [`repository`] searched with
//! **discovery tags** ("searchable from subject" / "searchable from
//! object"), carry optional expirations, and may require online validity
//! monitoring — [`revocation`] implements the home-node revocation bus and
//! the `ValidityMonitor`s that Switchboard polls for continuous
//! authorization.
//!
//! [`guard`] packages the per-domain *Guard* module from the paper's §3.3
//! (role definition, credential issuance, authorization);
//! [`storage_model`] reproduces the §5 storage comparison against GSI and
//! CAS (`P×U` vs `C×(P+U)` vs `P+U+c`); and [`translator`] implements the
//! §6 future-work policy-translation service (capability lists and group
//! policies compiled into dRBAC delegations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod cache;
pub mod certify;
mod clock_table;
pub mod delegation;
pub mod entity;
pub mod guard;
pub mod proof;
pub mod repository;
pub mod revocation;
pub mod storage_model;
pub mod translator;
pub mod wal;
pub mod wire;

pub use attr::{AttrSet, AttrValue};
pub use cache::{AclRules, AuthCache, CacheStats, DecisionKey, Evidence, ViewDecision};
pub use certify::{
    attrs_to_cert, certify, check_certificate, check_certificate_memo, subject_to_cert,
};
pub use delegation::{
    CredId, Credential, Delegation, DelegationBuilder, DelegationKind, SignedDelegation,
};
pub use entity::{Entity, EntityName, EntityRegistry, RoleName, Subject};
pub use guard::Guard;
pub use proof::{Proof, ProofEngine, ProofError, SearchStats};
pub use repository::{
    subject_key, CredentialSource, DiscoveryTag, RepoEvent, RepoObserver, Repository, ShardInfo,
    DEFAULT_SHARD_COUNT,
};
pub use revocation::{RevocationBus, RevocationObserver, ValidityMonitor};
pub use wal::{
    segment_dirs, shard_dir_name, verify_sharded_dir, CompactReport, DurabilityStats, FsyncPolicy,
    RecoveryReport, ShardSegmentStats, ShardedDurableRepository, ShardedVerifyReport, VerifyReport,
    WalConfig,
};

/// Logical timestamp used for credential expiration (seconds; the netsim
/// clock and the wall clock both map onto it).
pub type Timestamp = u64;

/// Errors surfaced by dRBAC operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrbacError {
    /// A delegation signature failed to verify.
    BadSignature,
    /// The issuer of a delegation is not known to the registry.
    UnknownIssuer(String),
    /// A credential has expired at the evaluation time.
    Expired {
        /// The credential id.
        id: String,
        /// Its expiration time.
        expires: Timestamp,
        /// The evaluation time.
        now: Timestamp,
    },
    /// A credential has been revoked.
    Revoked(String),
    /// A third-party delegation's issuer lacks the right of assignment.
    UnauthorizedIssuer {
        /// The offending credential id.
        id: String,
        /// The issuer that lacked assignment rights.
        issuer: String,
        /// The role it tried to assign.
        role: String,
    },
    /// No proof could be constructed.
    NoProof {
        /// The subject that could not be authorized.
        subject: String,
        /// The role sought.
        role: String,
    },
    /// A proof chain is malformed (links don't connect).
    BrokenChain(String),
    /// A role string could not be parsed (`Entity.Role` required).
    BadRoleName(String),
}

impl core::fmt::Display for DrbacError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DrbacError::BadSignature => write!(f, "delegation signature invalid"),
            DrbacError::UnknownIssuer(e) => write!(f, "unknown issuer entity '{e}'"),
            DrbacError::Expired { id, expires, now } => {
                write!(f, "credential {id} expired at {expires} (now {now})")
            }
            DrbacError::Revoked(id) => write!(f, "credential {id} has been revoked"),
            DrbacError::UnauthorizedIssuer { id, issuer, role } => write!(
                f,
                "credential {id}: issuer '{issuer}' lacks assignment right for '{role}'"
            ),
            DrbacError::NoProof { subject, role } => {
                write!(f, "no proof that '{subject}' holds role '{role}'")
            }
            DrbacError::BrokenChain(m) => write!(f, "malformed proof chain: {m}"),
            DrbacError::BadRoleName(r) => {
                write!(f, "'{r}' is not a valid role name (expected Entity.Role)")
            }
        }
    }
}

impl std::error::Error for DrbacError {}
