//! Certificate emission: turning an engine [`Proof`] into a
//! [`psf_cert::AuthCertificate`] the independent checker can validate
//! without repository access.
//!
//! The split of trust runs through this module: everything *here* (the
//! engine, the repository, the caches) is the untrusted computing half;
//! `psf-cert` is the trusted checking half and depends on nothing in this
//! crate. Emission therefore only ever *lowers* a proof into the
//! certificate wire model — the exact signed bytes of every credential,
//! the support chains, the attenuated attributes, and the repository /
//! registry epochs the search was computed against. The checker re-derives
//! everything else from scratch.

use crate::attr::{AttrSet, AttrValue};
use crate::cache::{PresentedFingerprint, ProofKey};
use crate::delegation::{Credential, SignedDelegation};
use crate::entity::{EntityName, EntityRegistry, RoleName, Subject};
use crate::proof::{Proof, ProofEngine, ProofError, SearchStats};
use crate::repository::subject_key;
use crate::revocation::RevocationBus;
use crate::Timestamp;
use psf_cert::{
    AuthCertificate, CertAttr, CertAttrs, CertEdge, CertError, CertKind, CertSubject, CheckContext,
    CheckMemo, KeyDirectory, RevocationProbe, SupportEdge,
};
use std::sync::Arc;

/// Lower an engine subject into the certificate subject model.
pub fn subject_to_cert(s: &Subject) -> CertSubject {
    match s {
        Subject::Entity { name, key } => CertSubject::Entity {
            name: name.0.clone(),
            key: key.0,
        },
        Subject::Role(r) => CertSubject::Role(r.to_string()),
    }
}

/// Lower an engine attribute set into the certificate attribute model.
pub fn attrs_to_cert(a: &AttrSet) -> CertAttrs {
    let mut out = CertAttrs::new();
    for (k, v) in &a.0 {
        let cv = match v {
            AttrValue::Capacity(n) => CertAttr::Capacity(*n),
            AttrValue::Range(lo, hi) => CertAttr::Range(*lo, *hi),
            AttrValue::Set(items) => CertAttr::Set(items.clone()),
        };
        out.0.insert(k.clone(), cv);
    }
    out
}

fn cert_edge(cred: &SignedDelegation, support: Option<&Proof>) -> CertEdge {
    CertEdge {
        signed: cred.body.encode(),
        signature: cred.signature.to_bytes(),
        support: support.map(|s| {
            s.edges
                .iter()
                .map(|e| SupportEdge {
                    signed: e.credential.body.encode(),
                    signature: e.credential.signature.to_bytes(),
                })
                .collect()
        }),
    }
}

/// Emit the certificate for a verified [`Proof`]: the exact delegation
/// chain (as the literal signed bytes), third-party supports, the
/// attenuated attributes, and the repository/registry epochs the proof
/// search pinned. The watch set is the proof's full credential-id set —
/// the same ids a [`ValidityMonitor`](crate::ValidityMonitor) covers.
pub fn certify(proof: &Proof, repo_epoch: Option<u64>, registry_epoch: u64) -> AuthCertificate {
    AuthCertificate {
        kind: if proof.assignment {
            CertKind::Assignment
        } else {
            CertKind::Membership
        },
        subject: subject_to_cert(&proof.subject),
        role: proof.role.to_string(),
        attrs: attrs_to_cert(&proof.attrs),
        repo_epoch,
        registry_epoch,
        edges: proof
            .edges
            .iter()
            .map(|e| cert_edge(&e.credential, e.support.as_deref()))
            .collect(),
        watch: proof
            .credential_ids()
            .into_iter()
            .map(String::from)
            .collect(),
    }
}

impl KeyDirectory for EntityRegistry {
    fn key_of(&self, name: &str) -> Option<[u8; 32]> {
        self.lookup(&EntityName::new(name)).map(|k| k.0)
    }
}

impl RevocationProbe for RevocationBus {
    fn is_revoked(&self, id: &str) -> bool {
        RevocationBus::is_revoked(self, id)
    }
}

/// Run the independent checker against live registry/revocation state —
/// the repository-free re-validation path. `repo_epoch` is the current
/// repository version if the caller observes one (used only for the
/// epoch window; pass `None` on repository-free paths).
pub fn check_certificate(
    cert: &AuthCertificate,
    registry: &EntityRegistry,
    bus: &RevocationBus,
    now: Timestamp,
    repo_epoch: Option<u64>,
) -> Result<(), CertError> {
    check_certificate_memo(cert, registry, bus, now, repo_epoch, None)
}

/// As [`check_certificate`], threading an optional [`CheckMemo`] so a
/// caller that re-checks the *same* certificate repeatedly (continuous
/// authorization after revocation events) skips redundant Ed25519 scalar
/// math. Revocation, expiry, and the epoch window stay live per check.
pub fn check_certificate_memo(
    cert: &AuthCertificate,
    registry: &EntityRegistry,
    bus: &RevocationBus,
    now: Timestamp,
    repo_epoch: Option<u64>,
    memo: Option<&CheckMemo>,
) -> Result<(), CertError> {
    psf_cert::check(
        cert,
        &CheckContext {
            keys: registry,
            revoked: bus,
            now,
            repo_epoch,
            memo,
        },
    )
}

impl ProofEngine<'_> {
    /// As [`prove`](Self::prove), additionally emitting the
    /// [`AuthCertificate`] that carries the verdict's evidence. When the
    /// engine runs with an [`AuthCache`](crate::AuthCache), the
    /// certificate is stored alongside the cached proof entry and reused
    /// on hits, so the emission overhead is paid once per distinct query.
    pub fn prove_certified(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[SignedDelegation],
    ) -> Result<(Proof, Arc<AuthCertificate>, SearchStats), ProofError> {
        let presented = Credential::wrap_all(presented);
        let repo_epoch = self.source().version();
        let (proof, stats) = self.prove_carried(subject, target, &presented)?;
        let cert = match self.auth_cache() {
            Some(cache) => {
                let key = ProofKey {
                    subject: subject_key(subject),
                    role: target.to_string(),
                    presented: PresentedFingerprint::of(&presented),
                };
                match cache.lookup_certificate(&key) {
                    Some(cert) => cert,
                    None => {
                        let cert = Arc::new(certify(&proof, repo_epoch, self.registry_epoch()));
                        cache.attach_certificate(&key, cert.clone());
                        cert
                    }
                }
            }
            None => Arc::new(certify(&proof, repo_epoch, self.registry_epoch())),
        };
        Ok((proof, cert, stats))
    }

    /// As [`prove_with`](Self::prove_with), emitting the certificate: the
    /// attribute requirement is checked against the proven chain exactly
    /// as the plain path does.
    pub fn prove_with_certified(
        &self,
        subject: &Subject,
        target: &RoleName,
        required: &AttrSet,
        presented: &[SignedDelegation],
    ) -> Result<(Proof, Arc<AuthCertificate>, SearchStats), ProofError> {
        let (proof, cert, stats) = self.prove_certified(subject, target, presented)?;
        if proof.attrs.satisfies(required) {
            Ok((proof, cert, stats))
        } else {
            Err(ProofError {
                error: crate::DrbacError::NoProof {
                    subject: subject.render(),
                    role: format!("{target}{}", required.render()),
                },
                stats,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AuthCache;
    use crate::delegation::DelegationBuilder;
    use crate::entity::Entity;
    use crate::repository::{CredentialSource, Repository};

    struct World {
        registry: EntityRegistry,
        repo: Repository,
        bus: RevocationBus,
        ny: Entity,
        sd: Entity,
        alice: Entity,
        bob: Entity,
    }

    fn world() -> World {
        let registry = EntityRegistry::new();
        let ny = Entity::with_seed("Comp.NY", b"cert");
        let sd = Entity::with_seed("Comp.SD", b"cert");
        let alice = Entity::with_seed("Alice", b"cert");
        let bob = Entity::with_seed("Bob", b"cert");
        for e in [&ny, &sd, &alice, &bob] {
            registry.register(e);
        }
        World {
            registry,
            repo: Repository::new(),
            bus: RevocationBus::new(),
            ny,
            sd,
            alice,
            bob,
        }
    }

    impl World {
        fn engine(&self) -> ProofEngine<'_> {
            ProofEngine::new(&self.registry, &self.repo, &self.bus, 0)
        }

        fn check(&self, cert: &AuthCertificate) -> Result<(), CertError> {
            check_certificate(cert, &self.registry, &self.bus, 0, self.repo.version())
        }
    }

    #[test]
    fn emitted_certificate_checks_clean() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (proof, cert, _) = w
            .engine()
            .prove_certified(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        assert_eq!(cert.watch, proof.credential_ids());
        w.check(&cert).unwrap();
        // And the wire round-trip checks too.
        let wire = cert.encode();
        let decoded = AuthCertificate::decode(&wire).unwrap();
        w.check(&decoded).unwrap();
    }

    #[test]
    fn third_party_support_carried_and_checked() {
        let w = world();
        let a = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .attr("CPU", AttrValue::Capacity(50))
            .sign();
        let m = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .attr("CPU", AttrValue::Capacity(100))
            .sign();
        let (proof, cert, _) = w
            .engine()
            .prove_certified(&w.bob.as_subject(), &w.ny.role("Partner"), &[a, m])
            .unwrap();
        assert_eq!(proof.attrs.get("CPU"), Some(&AttrValue::Capacity(50)));
        assert_eq!(
            cert.attrs.0.get("CPU"),
            Some(&CertAttr::Capacity(50)),
            "attenuated attributes carry into the certificate"
        );
        assert_eq!(cert.total_edges(), 2);
        w.check(&cert).unwrap();
    }

    #[test]
    fn revocation_invalidates_emitted_certificate() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let id = c.id();
        let (_, cert, _) = w
            .engine()
            .prove_certified(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        w.check(&cert).unwrap();
        w.bus.revoke(&id);
        assert_eq!(w.check(&cert), Err(CertError::Revoked(id)));
    }

    #[test]
    fn cache_stores_certificate_alongside_proof() {
        let w = world();
        let cache = AuthCache::new();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let engine = ProofEngine::with_cache(&w.registry, &w.repo, &w.bus, 0, &cache);
        let (_, cert1, _) = engine
            .prove_certified(
                &w.alice.as_subject(),
                &w.ny.role("Member"),
                std::slice::from_ref(&c),
            )
            .unwrap();
        let (_, cert2, _) = engine
            .prove_certified(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        assert!(
            Arc::ptr_eq(&cert1, &cert2),
            "second query must reuse the cached certificate"
        );
        assert_eq!(cache.cert_entries(), 1);
        w.check(&cert2).unwrap();
    }

    #[test]
    fn stale_epoch_certificate_rejected() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (proof, _, _) = w
            .engine()
            .prove_certified(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        // Forge a certificate claiming an epoch from the future.
        let forged = certify(&proof, Some(u64::MAX), w.registry.epoch());
        assert!(matches!(
            w.check(&forged),
            Err(CertError::EpochAhead { .. })
        ));
    }
}
