//! Authorization suites, Authorizers, and AuthorizationMonitors
//! (paper §4.3).

use psf_cert::{AuthCertificate, CertError, CertKind, CertSubject};
use psf_crypto::ed25519::VerifyingKey;
use psf_drbac::certify::{attrs_to_cert, check_certificate_memo};
use psf_drbac::entity::{Entity, EntityName, EntityRegistry, Subject};
use psf_drbac::proof::{Proof, ProofEngine};
use psf_drbac::repository::{CredentialSource, Repository};
use psf_drbac::revocation::{RevocationBus, ValidityMonitor};
use psf_drbac::{AttrSet, AuthCache, RoleName, SignedDelegation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared logical clock source for credential expiry evaluation. The
/// framework advances it from its simulation clock; real deployments
/// would feed wall time.
#[derive(Clone, Default)]
pub struct ClockRef(Arc<AtomicU64>);

impl ClockRef {
    /// New clock at zero.
    pub fn new() -> ClockRef {
        ClockRef::default()
    }

    /// Current logical seconds.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Advance to an absolute time.
    pub fn set(&self, secs: u64) {
        self.0.store(secs, Ordering::SeqCst);
    }
}

/// Evaluates a partner's credentials against a required dRBAC role
/// and generates [`AuthorizationMonitor`]s.
#[derive(Clone)]
pub struct Authorizer {
    registry: EntityRegistry,
    repository: Repository,
    bus: RevocationBus,
    clock: ClockRef,
    /// Fast path for repeat authorizations (handshakes, rekeys,
    /// continuous re-validation); shared across clones.
    cache: AuthCache,
    /// Checker memo: re-checking the same certificate after a revocation
    /// event replays only the environment half (revocation, expiry, the
    /// epoch window, key bindings) instead of re-deriving signatures.
    memo: Arc<psf_cert::CheckMemo>,
    /// The role the partner must prove.
    pub required_role: RoleName,
    /// Attributes the partner's proof must satisfy.
    pub required_attrs: AttrSet,
}

impl Authorizer {
    /// Create an authorizer requiring `required_role` of the partner.
    pub fn new(
        registry: EntityRegistry,
        repository: Repository,
        bus: RevocationBus,
        clock: ClockRef,
        required_role: RoleName,
    ) -> Authorizer {
        Authorizer {
            registry,
            repository,
            bus,
            clock,
            cache: AuthCache::new(),
            memo: Arc::new(psf_cert::CheckMemo::new(4096)),
            required_role,
            required_attrs: AttrSet::new(),
        }
    }

    /// The authorizer's proof/credential cache.
    pub fn auth_cache(&self) -> &AuthCache {
        &self.cache
    }

    /// Require attributes on the partner's proof.
    pub fn with_attrs(mut self, attrs: AttrSet) -> Authorizer {
        self.required_attrs = attrs;
        self
    }

    /// Evaluate the partner: build a dRBAC proof from its presented
    /// credentials, and spawn the monitor that watches every credential in
    /// the proof.
    pub fn authorize(
        &self,
        peer_name: &EntityName,
        peer_key: &VerifyingKey,
        presented: &[SignedDelegation],
    ) -> Result<AuthorizationMonitor, String> {
        let subject = Subject::Entity {
            name: peer_name.clone(),
            key: *peer_key,
        };
        let engine = ProofEngine::with_cache(
            &self.registry,
            &self.repository,
            &self.bus,
            self.clock.now(),
            &self.cache,
        );
        let result = engine.prove_with_certified(
            &subject,
            &self.required_role,
            &self.required_attrs,
            presented,
        );
        // Channel admission is an authorize decision in its own right (the
        // underlying proof search audits itself as `prove`).
        {
            use psf_telemetry::audit::{self, Decision, Verdict};
            let rec = audit::record(
                Decision::Authorize,
                peer_name.to_string(),
                self.required_role.to_string(),
                match result {
                    Ok(_) => Verdict::Allow,
                    Err(_) => Verdict::Deny,
                },
            )
            .detail("switchboard admission");
            match &result {
                Ok((proof, cert, _)) => rec
                    .chain(&proof.credential_ids())
                    .cert(cert.digest_hex())
                    .commit(),
                Err(e) => rec.detail(format!("switchboard admission: {e}")).commit(),
            }
        }
        let (proof, cert, _stats) = result.map_err(|e| e.to_string())?;
        Ok(AuthorizationMonitor {
            monitor: proof.monitor(&self.bus),
            proof: Some(proof),
            certificate: Some(cert),
            clock: self.clock.clone(),
            rechecked: false,
        })
    }

    /// Re-validate a previously emitted certificate with the **independent
    /// checker**: signatures, chain rules, attenuation, expiry, and the
    /// epoch window are re-derived from the certificate bytes against live
    /// registry and revocation state. No repository access and no proof
    /// search happen here — this is the continuous-authorization fast path
    /// the channel runs when it finds its monitor invalidated.
    /// The decision is audited under cache provenance `cert-verified`
    /// with the certificate digest.
    pub fn recheck_certificate(&self, cert: &AuthCertificate) -> Result<(), CertError> {
        let result = check_certificate_memo(
            cert,
            &self.registry,
            &self.bus,
            self.clock.now(),
            self.repository.version(),
            Some(&self.memo),
        );
        use psf_telemetry::audit::{self, CacheOutcome, Decision, Verdict};
        let rec = audit::record(
            Decision::Authorize,
            cert.subject.render(),
            cert.role.clone(),
            match &result {
                Ok(()) => Verdict::Allow,
                Err(CertError::Revoked(_)) => Verdict::Revoked,
                Err(_) => Verdict::Deny,
            },
        )
        .chain(&cert.chain_ids())
        .cache(CacheOutcome::CertVerified, cert.repo_epoch)
        .cert(cert.digest_hex());
        match &result {
            Ok(()) => rec.detail("certificate re-check").commit(),
            Err(e) => rec.detail(format!("certificate re-check: {e}")).commit(),
        }
        result
    }

    /// Admit a peer from a presented certificate alone. The independent
    /// checker validates the certificate and this authorizer's policy is
    /// matched against what it *claims* (subject identity = the
    /// authenticated peer, role = the required role, attributes satisfy
    /// the requirement). No repository access and no proof search happen
    /// on this path; the resulting monitor watches the certificate's
    /// watch set, so continuous authorization covers the same chain the
    /// checker accepted.
    pub fn admit_certificate(
        &self,
        peer_name: &EntityName,
        peer_key: &VerifyingKey,
        cert: Arc<AuthCertificate>,
    ) -> Result<AuthorizationMonitor, String> {
        let identity_ok = matches!(
            &cert.subject,
            CertSubject::Entity { name, key } if *name == peer_name.0 && *key == peer_key.0
        );
        if !identity_ok {
            return Err("certificate subject is not the authenticated peer".into());
        }
        if cert.kind != CertKind::Membership {
            return Err("certificate does not prove role membership".into());
        }
        if cert.role != self.required_role.to_string() {
            return Err(format!(
                "certificate proves '{}', required '{}'",
                cert.role, self.required_role
            ));
        }
        if !cert.attrs.satisfies(&attrs_to_cert(&self.required_attrs)) {
            return Err("certificate attributes do not satisfy the requirement".into());
        }
        self.recheck_certificate(&cert).map_err(|e| e.to_string())?;
        Ok(AuthorizationMonitor {
            monitor: self.bus.monitor(cert.watch.clone(), cert.min_expiry()),
            proof: None,
            certificate: Some(cert),
            clock: self.clock.clone(),
            rechecked: false,
        })
    }

    /// The revocation bus this authorizer watches.
    pub fn bus(&self) -> &RevocationBus {
        &self.bus
    }
}

/// "Authorizers generate AuthorizationMonitors, which inform either
/// partner when the trust relationship changes." Wraps the dRBAC proof of
/// the partner's authorization and the validity monitor over its
/// credentials.
pub struct AuthorizationMonitor {
    /// The proof under which the partner was admitted (`None` when
    /// admission was checker-only from a presented certificate).
    pub proof: Option<Proof>,
    /// The certificate carrying the admission's evidence (emitted by the
    /// engine, or presented by the peer and validated by the checker).
    certificate: Option<Arc<AuthCertificate>>,
    monitor: ValidityMonitor,
    clock: ClockRef,
    /// One-shot latch: the channel re-checks the certificate once per
    /// invalidation, not once per refused packet.
    rechecked: bool,
}

impl AuthorizationMonitor {
    /// The admission certificate, if one was emitted or presented.
    pub fn certificate(&self) -> Option<Arc<AuthCertificate>> {
        self.certificate.clone()
    }

    /// Claim the one-shot certificate re-check for the current
    /// invalidation. Returns true exactly once per monitor.
    pub(crate) fn take_recheck(&mut self) -> bool {
        !std::mem::replace(&mut self.rechecked, true)
    }

    /// Whether the trust relationship still holds now: no credential the
    /// admission rests on has been revoked or has expired.
    pub fn is_valid(&self) -> bool {
        self.monitor.is_valid(self.clock.now())
    }

    /// Why traffic must stop, if it must: the id of the revoked credential,
    /// or `"expired"` when only `valid_until` has passed.
    pub(crate) fn refusal(&self) -> Option<String> {
        if self.is_valid() {
            return None;
        }
        Some(self.revocation_notice().unwrap_or_else(|| "expired".into()))
    }

    /// When the authorization lapses by expiry, if bounded.
    pub fn valid_until(&self) -> Option<u64> {
        self.monitor.expires()
    }

    /// Which credential was revoked, if the monitor died of a revocation
    /// (`None` while valid, and when only `valid_until` has passed).
    pub fn revocation_notice(&self) -> Option<String> {
        self.monitor.revoked_id().map(str::to_string)
    }

    /// Credential ids under watch.
    pub fn watched_ids(&self) -> &[String] {
        self.monitor.watched_ids()
    }
}

/// Everything one endpoint brings to a Switchboard connection: "PKI
/// identities (including private keys for authentication), dRBAC
/// credentials to be supplied to the partner, and Authorizer objects for
/// evaluating the partner's credentials."
#[derive(Clone)]
pub struct AuthSuite {
    /// This endpoint's keyed identity.
    pub identity: Entity,
    /// Credentials to present to the partner.
    pub credentials: Vec<SignedDelegation>,
    /// Evaluates the partner.
    pub authorizer: Authorizer,
}

impl AuthSuite {
    /// Bundle an identity, its credentials, and an authorizer.
    pub fn new(
        identity: Entity,
        credentials: Vec<SignedDelegation>,
        authorizer: Authorizer,
    ) -> AuthSuite {
        AuthSuite {
            identity,
            credentials,
            authorizer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psf_drbac::DelegationBuilder;

    fn setup() -> (
        EntityRegistry,
        Repository,
        RevocationBus,
        ClockRef,
        Entity,
        Entity,
    ) {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();
        let clock = ClockRef::new();
        let ny = Entity::with_seed("Comp.NY", b"suite");
        let bob = Entity::with_seed("Bob", b"suite");
        registry.register(&ny);
        registry.register(&bob);
        (registry, repo, bus, clock, ny, bob)
    }

    #[test]
    fn authorize_success_and_monitoring() {
        let (registry, repo, bus, clock, ny, bob) = setup();
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .monitored()
            .sign();
        let auth = Authorizer::new(registry, repo, bus.clone(), clock, ny.role("Member"));
        let monitor = auth
            .authorize(&bob.name, &bob.public_key(), std::slice::from_ref(&cred))
            .unwrap();
        assert!(monitor.is_valid());
        bus.revoke(&cred.id());
        assert!(!monitor.is_valid());
        assert_eq!(monitor.revocation_notice(), Some(cred.id()));
    }

    #[test]
    fn authorize_rejects_without_proof() {
        let (registry, repo, bus, clock, ny, bob) = setup();
        let auth = Authorizer::new(registry, repo, bus, clock, ny.role("Member"));
        assert!(auth.authorize(&bob.name, &bob.public_key(), &[]).is_err());
    }

    #[test]
    fn authorize_rejects_stolen_credentials() {
        let (registry, repo, bus, clock, ny, bob) = setup();
        let mallory = Entity::with_seed("Mallory", b"suite");
        registry.register(&mallory);
        // Bob's credential presented under Mallory's identity/key.
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .sign();
        let auth = Authorizer::new(registry, repo, bus, clock, ny.role("Member"));
        assert!(auth
            .authorize(&mallory.name, &mallory.public_key(), &[cred])
            .is_err());
    }

    #[test]
    fn expiry_lapses_mid_connection() {
        // The §3.1 "continuously over some duration" property: an
        // authorization granted from an expiring credential lapses when
        // the clock passes the expiry, with no revocation involved.
        let (registry, repo, bus, clock, ny, bob) = setup();
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .expires(100)
            .sign();
        let auth = Authorizer::new(registry, repo, bus, clock.clone(), ny.role("Member"));
        let monitor = auth
            .authorize(&bob.name, &bob.public_key(), &[cred])
            .unwrap();
        assert!(monitor.is_valid());
        assert_eq!(monitor.valid_until(), Some(100));
        clock.set(99);
        assert!(monitor.is_valid());
        clock.set(100);
        assert!(!monitor.is_valid());
    }

    #[test]
    fn channel_lapses_with_its_third_party_support() {
        // Bob holds Comp.NY.Member through SD's grant (expires 100), which
        // rests on NY's assignment right to SD (expires 50): the admission
        // lapses with the support, not with the grant.
        let (registry, repo, bus, clock, ny, bob) = setup();
        let sd = Entity::with_seed("Comp.SD", b"suite");
        registry.register(&sd);
        let assignment = DelegationBuilder::new(&ny)
            .subject_entity(&sd)
            .assignment()
            .role(ny.role("Member"))
            .expires(50)
            .sign();
        let grant = DelegationBuilder::new(&sd)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .expires(100)
            .sign();
        let auth = Authorizer::new(registry, repo, bus, clock.clone(), ny.role("Member"));
        let monitor = auth
            .authorize(&bob.name, &bob.public_key(), &[grant, assignment])
            .unwrap();
        assert_eq!(monitor.valid_until(), Some(50));
        clock.set(49);
        assert!(monitor.is_valid());
        assert_eq!(monitor.refusal(), None);
        clock.set(50);
        assert!(!monitor.is_valid());
        assert_eq!(monitor.refusal().as_deref(), Some("expired"));
        let cert = monitor.certificate().unwrap();
        assert!(auth.recheck_certificate(&cert).is_err());
    }

    #[test]
    fn admit_certificate_checker_only() {
        let (registry, repo, bus, clock, ny, bob) = setup();
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .sign();
        let auth = Authorizer::new(registry, repo, bus.clone(), clock, ny.role("Member"));
        // Emit a certificate via the engine, then admit from it alone.
        let first = auth
            .authorize(&bob.name, &bob.public_key(), &[cred])
            .unwrap();
        let cert = first.certificate().expect("admission emits a certificate");
        let monitor = auth
            .admit_certificate(&bob.name, &bob.public_key(), cert.clone())
            .unwrap();
        assert!(monitor.proof.is_none(), "no proof search ran");
        assert!(monitor.is_valid());
        assert_eq!(monitor.watched_ids(), &cert.watch[..]);
        // Revocation of a chain edge invalidates both the monitor and the
        // certificate itself.
        bus.revoke(&cert.watch[0]);
        assert!(!monitor.is_valid());
        assert!(matches!(
            auth.recheck_certificate(&cert),
            Err(CertError::Revoked(_))
        ));
    }

    #[test]
    fn admit_certificate_enforces_policy() {
        let (registry, repo, bus, clock, ny, bob) = setup();
        let mallory = Entity::with_seed("Mallory", b"suite");
        registry.register(&mallory);
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .sign();
        let auth = Authorizer::new(registry, repo, bus, clock, ny.role("Member"));
        let cert = auth
            .authorize(&bob.name, &bob.public_key(), &[cred])
            .unwrap()
            .certificate()
            .unwrap();
        // Bob's certificate does not admit Mallory.
        assert!(auth
            .admit_certificate(&mallory.name, &mallory.public_key(), cert.clone())
            .is_err());
        // A different required role refuses it too.
        let other = Authorizer::new(
            auth.registry.clone(),
            auth.repository.clone(),
            auth.bus.clone(),
            auth.clock.clone(),
            ny.role("Admin"),
        );
        assert!(other
            .admit_certificate(&bob.name, &bob.public_key(), cert)
            .is_err());
    }

    #[test]
    fn clock_gates_expiry() {
        let (registry, repo, bus, clock, ny, bob) = setup();
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .expires(100)
            .sign();
        let auth = Authorizer::new(registry, repo, bus, clock.clone(), ny.role("Member"));
        assert!(auth
            .authorize(&bob.name, &bob.public_key(), std::slice::from_ref(&cred))
            .is_ok());
        clock.set(200);
        assert!(auth
            .authorize(&bob.name, &bob.public_key(), &[cred])
            .is_err());
    }
}
