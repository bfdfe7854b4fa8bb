//! The per-domain **Guard** module (paper §3.3).
//!
//! "Beside the main modules — registrar, monitor, planner, deployer — the
//! framework has a security module (*Guard*) that manages the site
//! security by generating certificates, defining roles, creating access
//! control lists, authenticating, and authorizing."

use crate::attr::AttrSet;
use crate::cache::AuthCache;
use crate::delegation::{Credential, DelegationBuilder, SignedDelegation};
use crate::entity::{Entity, EntityRegistry, RoleName, Subject};
use crate::proof::{Proof, ProofEngine, ProofError};
use crate::repository::Repository;
use crate::revocation::RevocationBus;
use crate::Timestamp;
use parking_lot::{Mutex, RwLock};

/// One access-control rule: subjects proven to hold `role` receive
/// `level` (in the paper, the level names the view to instantiate —
/// Table 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclRule {
    /// Role required; `None` is the catch-all "others" rule.
    pub role: Option<RoleName>,
    /// Required attributes on the proof (usually empty).
    pub required: AttrSet,
    /// Service level granted (e.g. `ViewMailClient_Member`).
    pub level: String,
}

/// A domain's security module: issues credentials, maintains the ACL,
/// authenticates and authorizes.
pub struct Guard {
    entity: Entity,
    registry: EntityRegistry,
    repository: Repository,
    bus: RevocationBus,
    acl: RwLock<Vec<AclRule>>,
    issued: Mutex<Vec<SignedDelegation>>,
    /// Authorization fast path, dedicated to this guard's
    /// (registry, repository, bus) triple.
    cache: AuthCache,
}

impl Guard {
    /// Create a guard for a domain entity, wiring it to the shared
    /// registry, repository, and revocation bus.
    pub fn new(
        entity: Entity,
        registry: EntityRegistry,
        repository: Repository,
        bus: RevocationBus,
    ) -> Guard {
        registry.register(&entity);
        Guard {
            entity,
            registry,
            repository,
            bus,
            acl: RwLock::new(Vec::new()),
            issued: Mutex::new(Vec::new()),
            cache: AuthCache::new(),
        }
    }

    /// Create a guard backed by a [`crate::wal::ShardedDurableRepository`]:
    /// the guard's repository and bus are the durable pair's shared
    /// handles, so every credential it issues and every revocation it
    /// performs is written to the crash-safe log transparently.
    pub fn sharded_durable(
        entity: Entity,
        registry: EntityRegistry,
        durable: &crate::wal::ShardedDurableRepository,
    ) -> Guard {
        Guard::new(
            entity,
            registry,
            durable.repository().clone(),
            durable.bus().clone(),
        )
    }

    /// The guard's authorization cache (hit/miss stats, manual clear).
    pub fn auth_cache(&self) -> &AuthCache {
        &self.cache
    }

    /// The domain identity this guard speaks for.
    pub fn entity(&self) -> &Entity {
        &self.entity
    }

    /// The shared entity registry.
    pub fn registry(&self) -> &EntityRegistry {
        &self.registry
    }

    /// The shared credential repository.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// The shared revocation bus.
    pub fn bus(&self) -> &RevocationBus {
        &self.bus
    }

    /// Create and register a principal managed by this domain (client,
    /// component instance, node). Keys are derived from the domain entity
    /// name so scenarios are reproducible.
    pub fn create_principal(&self, name: impl Into<String>) -> Entity {
        let e = Entity::with_seed(name, self.entity.name.0.as_bytes());
        self.registry.register(&e);
        e
    }

    /// A role in this domain's namespace.
    pub fn role(&self, role: impl Into<String>) -> RoleName {
        self.entity.role(role)
    }

    /// Begin issuing a delegation signed by this domain.
    pub fn issue(&self) -> DelegationBuilder<'_> {
        DelegationBuilder::new(&self.entity)
    }

    /// Sign, record, and publish a credential built with
    /// [`issue`](Self::issue).
    pub fn publish(&self, cred: SignedDelegation) -> SignedDelegation {
        self.issued.lock().push(cred.clone());
        self.repository.publish_at_issuer(cred.clone());
        cred
    }

    /// Revoke a previously issued credential.
    pub fn revoke(&self, cred: &SignedDelegation) {
        self.bus.revoke(&cred.id());
    }

    /// Renew a credential this guard issued: revoke the old one and
    /// publish a serial-bumped copy with a new expiry. The single-sign-on
    /// story stays intact — existing monitors on the old credential fire,
    /// and the holder re-validates with the renewal.
    pub fn renew(
        &self,
        cred: &SignedDelegation,
        new_expires: Option<Timestamp>,
    ) -> SignedDelegation {
        assert_eq!(
            cred.body.issuer, self.entity.name,
            "only the issuer renews a credential"
        );
        let mut body = cred.body.clone();
        body.expires = new_expires;
        body.serial = body.serial.wrapping_add(1);
        let signature = self.entity.sign(&body.encode());
        let renewed = SignedDelegation { body, signature };
        self.bus.revoke(&cred.id());
        self.publish(renewed)
    }

    /// All credentials this guard has issued and published.
    pub fn issued(&self) -> Vec<SignedDelegation> {
        self.issued.lock().clone()
    }

    /// Append an ACL rule (checked in order; first match wins).
    pub fn add_acl_rule(&self, rule: AclRule) {
        self.acl.write().push(rule);
    }

    /// The current ACL.
    pub fn acl(&self) -> Vec<AclRule> {
        self.acl.read().clone()
    }

    /// Authorize `subject` for `role` at time `now` using presented
    /// credentials plus repository discovery.
    pub fn authorize(
        &self,
        subject: &Subject,
        role: &RoleName,
        presented: &[SignedDelegation],
        now: Timestamp,
    ) -> Result<Proof, ProofError> {
        let engine = self.engine(now);
        engine.prove(subject, role, presented).map(|(p, _)| p)
    }

    fn engine(&self, now: Timestamp) -> ProofEngine<'_> {
        ProofEngine::with_cache(
            &self.registry,
            &self.repository,
            &self.bus,
            now,
            &self.cache,
        )
    }

    /// Authorize with required attributes (node/component authorization).
    pub fn authorize_with(
        &self,
        subject: &Subject,
        role: &RoleName,
        required: &AttrSet,
        presented: &[SignedDelegation],
        now: Timestamp,
    ) -> Result<Proof, ProofError> {
        let engine = self.engine(now);
        engine
            .prove_with(subject, role, required, presented)
            .map(|(p, _)| p)
    }

    /// Evaluate the ACL for a subject: returns the service level of the
    /// first rule whose role the subject can prove (cross-domain requests
    /// are translated into local roles by the proof search itself), or the
    /// catch-all rule's level, or `None` if no rule applies.
    ///
    /// On success also returns the proof when a role rule matched
    /// (catch-all grants carry no proof).
    pub fn service_level(
        &self,
        subject: &Subject,
        presented: &[SignedDelegation],
        now: Timestamp,
    ) -> Option<(String, Option<Proof>)> {
        use psf_telemetry::audit::{self, Decision, Verdict};
        let engine = self.engine(now);
        let rules = self.acl.read().clone();
        let presented = Credential::wrap_all(presented);
        for rule in &rules {
            match &rule.role {
                Some(role) => {
                    if let Ok((proof, _)) =
                        engine.prove_with_carried(subject, role, &rule.required, &presented)
                    {
                        audit::record(
                            Decision::Authorize,
                            subject.render(),
                            rule.level.clone(),
                            Verdict::Allow,
                        )
                        .chain(&proof.credential_ids())
                        .detail(format!("acl role {role}"))
                        .commit();
                        return Some((rule.level.clone(), Some(proof)));
                    }
                }
                None => {
                    audit::record(
                        Decision::Authorize,
                        subject.render(),
                        rule.level.clone(),
                        Verdict::Allow,
                    )
                    .detail("acl catch-all")
                    .commit();
                    return Some((rule.level.clone(), None));
                }
            }
        }
        audit::record(Decision::Authorize, subject.render(), "", Verdict::Deny)
            .detail("no acl rule matched")
            .commit();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infra() -> (EntityRegistry, Repository, RevocationBus) {
        (
            EntityRegistry::new(),
            Repository::new(),
            RevocationBus::new(),
        )
    }

    fn guard(name: &str) -> Guard {
        let (reg, repo, bus) = infra();
        Guard::new(Entity::with_seed(name, b"g"), reg, repo, bus)
    }

    #[test]
    fn guard_issues_and_authorizes() {
        let g = guard("Comp.NY");
        let alice = g.create_principal("Alice");
        let cred = g.publish(
            g.issue()
                .subject_entity(&alice)
                .role(g.role("Member"))
                .sign(),
        );
        let proof = g
            .authorize(&alice.as_subject(), &g.role("Member"), &[], 0)
            .unwrap();
        assert_eq!(**proof.edges[0].credential, cred);
    }

    #[test]
    fn revocation_takes_effect() {
        let g = guard("Comp.NY");
        let alice = g.create_principal("Alice");
        let cred = g.publish(
            g.issue()
                .subject_entity(&alice)
                .role(g.role("Member"))
                .monitored()
                .sign(),
        );
        assert!(g
            .authorize(&alice.as_subject(), &g.role("Member"), &[], 0)
            .is_ok());
        g.revoke(&cred);
        assert!(g
            .authorize(&alice.as_subject(), &g.role("Member"), &[], 0)
            .is_err());
    }

    #[test]
    fn acl_first_match_wins() {
        let g = guard("Comp.NY");
        let alice = g.create_principal("Alice");
        g.publish(
            g.issue()
                .subject_entity(&alice)
                .role(g.role("Member"))
                .sign(),
        );
        g.add_acl_rule(AclRule {
            role: Some(g.role("Member")),
            required: AttrSet::new(),
            level: "ViewMailClient_Member".into(),
        });
        g.add_acl_rule(AclRule {
            role: None,
            required: AttrSet::new(),
            level: "ViewMailClient_Anonymous".into(),
        });
        let (level, proof) = g.service_level(&alice.as_subject(), &[], 0).unwrap();
        assert_eq!(level, "ViewMailClient_Member");
        assert!(proof.is_some());

        // A stranger falls through to the catch-all.
        let mallory = Entity::with_seed("Mallory", b"elsewhere");
        let (level, proof) = g.service_level(&mallory.as_subject(), &[], 0).unwrap();
        assert_eq!(level, "ViewMailClient_Anonymous");
        assert!(proof.is_none());
    }

    #[test]
    fn no_rules_no_service() {
        let g = guard("Comp.NY");
        let alice = g.create_principal("Alice");
        assert!(g.service_level(&alice.as_subject(), &[], 0).is_none());
    }

    #[test]
    fn renew_rotates_credential_and_restores_authorization() {
        let g = guard("Comp.NY");
        let alice = g.create_principal("Alice");
        let original = g.publish(
            g.issue()
                .subject_entity(&alice)
                .role(g.role("Member"))
                .expires(100)
                .monitored()
                .sign(),
        );
        // A monitor on the original credential…
        let monitor = g.bus().monitor(vec![original.id()], original.body.expires);
        let renewed = g.renew(&original, Some(500));
        // …fires on renewal (the old credential is revoked)…
        assert!(!monitor.is_valid(0));
        assert_ne!(renewed.id(), original.id());
        assert_eq!(renewed.body.expires, Some(500));
        // …and authorization continues via the renewal, even past the
        // original expiry.
        let proof = g
            .authorize(&alice.as_subject(), &g.role("Member"), &[], 200)
            .unwrap();
        assert_eq!(proof.edges[0].credential.id(), renewed.id());
    }

    #[test]
    #[should_panic(expected = "only the issuer")]
    fn renew_refuses_foreign_credentials() {
        let g = guard("Comp.NY");
        let other = guard("Comp.SD");
        let alice = other.create_principal("Alice");
        let cred = other.publish(
            other
                .issue()
                .subject_entity(&alice)
                .role(other.role("Member"))
                .sign(),
        );
        g.renew(&cred, None);
    }

    #[test]
    fn cross_shard_publish_keeps_unrelated_proofs_cached() {
        use crate::repository::subject_key;
        let repo = Repository::with_shard_count(64);
        let g = Guard::new(
            Entity::with_seed("Comp.NY", b"g"),
            EntityRegistry::new(),
            repo.clone(),
            RevocationBus::new(),
        );
        let alice = g.create_principal("Alice");
        // Key buckets the proof search will read (and therefore pin): the
        // entity node and the target-role node.
        let pinned: Vec<u32> = [
            subject_key(&alice.as_subject()),
            subject_key(&Subject::Role(g.role("Member"))),
        ]
        .iter()
        .map(|k| repo.key_bucket(k))
        .collect();
        // Registered up front: registering later would bump the registry
        // epoch and invalidate the cache for the right reason but the
        // wrong test. The first stranger sharing Alice's *shard* but not
        // a pinned bucket: a publish for it reads as unrelated.
        let alice_shard = repo.shard_index(&subject_key(&alice.as_subject()));
        let stranger = (0..)
            .map(|i| g.create_principal(format!("Stranger{i}")))
            .find(|s| {
                let key = subject_key(&s.as_subject());
                repo.shard_index(&key) == alice_shard && !pinned.contains(&repo.key_bucket(&key))
            })
            .unwrap();
        g.publish(
            g.issue()
                .subject_entity(&alice)
                .role(g.role("Member"))
                .sign(),
        );
        // Warm the cache: miss, then hit.
        g.authorize(&alice.as_subject(), &g.role("Member"), &[], 0)
            .unwrap();
        g.authorize(&alice.as_subject(), &g.role("Member"), &[], 0)
            .unwrap();
        assert_eq!(g.auth_cache().stats().proof_hits, 1);

        // Publish for a principal whose key bucket the proof never read:
        // the cached entry must survive.
        g.publish(
            g.issue()
                .subject_entity(&stranger)
                .role(g.role("Member"))
                .sign(),
        );
        g.authorize(&alice.as_subject(), &g.role("Member"), &[], 0)
            .unwrap();
        assert_eq!(
            g.auth_cache().stats().proof_hits,
            2,
            "publish to an unread bucket of the same shard must not evict the cached proof"
        );

        // Publish under Alice's own key: the entry must be re-derived.
        g.publish(
            g.issue()
                .subject_entity(&alice)
                .role(g.role("Admin"))
                .sign(),
        );
        g.authorize(&alice.as_subject(), &g.role("Member"), &[], 0)
            .unwrap();
        assert_eq!(
            g.auth_cache().stats().proof_hits,
            2,
            "publish to a pinned bucket must invalidate the cached proof"
        );
    }

    #[test]
    fn cross_guard_authorization() {
        // Two guards sharing infrastructure: SD issues, NY maps the role.
        let (reg, repo, bus) = infra();
        let ny = Guard::new(
            Entity::with_seed("Comp.NY", b"g"),
            reg.clone(),
            repo.clone(),
            bus.clone(),
        );
        let sd = Guard::new(Entity::with_seed("Comp.SD", b"g"), reg, repo, bus);
        let bob = sd.create_principal("Bob");
        // (11) issued by SD-Guard, (2) issued by NY-Guard.
        sd.publish(
            sd.issue()
                .subject_entity(&bob)
                .role(sd.role("Member"))
                .sign(),
        );
        ny.publish(
            ny.issue()
                .subject_role(sd.role("Member"))
                .role(ny.role("Member"))
                .sign(),
        );
        let proof = ny
            .authorize(&bob.as_subject(), &ny.role("Member"), &[], 0)
            .unwrap();
        assert_eq!(proof.edges.len(), 2);
    }
}
