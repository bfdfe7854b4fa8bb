//! Role→view access control with single sign-on (paper §4.2, Table 4).
//!
//! "Access control lists can be established, per component, which
//! specify the level of service (the view) associated with a given dRBAC
//! role. … Views permit single sign-on usage, because authentication and
//! authorization decisions can be completed when the view is first
//! instantiated. After that clients are free to access the view they
//! receive, without additional access control."

use psf_drbac::entity::{EntityRegistry, RoleName, Subject};
use psf_drbac::proof::{Proof, ProofEngine};
use psf_drbac::repository::{CredentialSource, Repository};
use psf_drbac::revocation::{RevocationBus, ValidityMonitor};
use psf_drbac::{
    AclRules, AuthCache, Credential, DecisionKey, Evidence, SignedDelegation, Timestamp,
    ViewDecision,
};
use psf_telemetry::audit::CacheOutcome;
use psf_telemetry::trace::SpanGuard;
use std::sync::Arc;

/// Table 4 as data: ordered rules mapping a role (or the catch-all
/// "others") to a view name.
#[derive(Debug, Clone, Default)]
pub struct ViewAcl {
    rules: AclRules,
}

impl ViewAcl {
    /// Empty ACL.
    pub fn new() -> ViewAcl {
        ViewAcl::default()
    }

    /// Add a role rule (checked in order, first match wins).
    pub fn rule(mut self, role: RoleName, view: impl Into<String>) -> Self {
        self.rules.push(Some(role), view.into());
        self
    }

    /// Add the catch-all "others" rule.
    pub fn others(mut self, view: impl Into<String>) -> Self {
        self.rules.push(None, view.into());
        self
    }

    /// The rules, for display (Table 4 rendering).
    pub fn rules(&self) -> &[(Option<RoleName>, String)] {
        self.rules.as_slice()
    }

    /// The distinct view names this ACL can ever grant, in rule order —
    /// the reachability roots for the unreachable-view lint.
    pub fn view_names(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (_, view) in self.rules() {
            if !out.contains(&view.as_str()) {
                out.push(view.as_str());
            }
        }
        out
    }

    /// Render the Table 4 layout.
    pub fn render(&self) -> String {
        let mut out = String::from("Role                 | View name\n");
        for (role, view) in self.rules() {
            let r = role
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "others".to_string());
            out.push_str(&format!("{r:<20} | {view}\n"));
        }
        out
    }

    /// Decide the view for a subject: "cross-domain requests are first
    /// translated by dRBAC into local roles before any access control
    /// decisions are made" — the proof search does exactly that
    /// translation. Returns the view name plus the proof when a role rule
    /// matched.
    pub fn select_view(
        &self,
        subject: &Subject,
        presented: &[SignedDelegation],
        registry: &EntityRegistry,
        repository: &Repository,
        bus: &RevocationBus,
        now: Timestamp,
    ) -> Option<(String, Option<Proof>)> {
        let mut span = psf_telemetry::span("psf.views", "select_view");
        let engine = ProofEngine::new(registry, repository, bus, now);
        let presented = Credential::wrap_all(presented);
        let decision = self.decide(&engine, subject, &presented, &mut Evidence::default());
        self.answer(&mut span, subject, decision, None)
    }

    /// As [`select_view`](Self::select_view), with repeat decisions
    /// answered from `cache` (which must be dedicated to this
    /// registry/repository/bus triple). A decision seen before is answered
    /// by one lookup of `cache`'s decision table and runs no proof search;
    /// otherwise each rule is asked of the proof table, and the decision
    /// is remembered once every rule it tried was a proof-table hit.
    #[allow(clippy::too_many_arguments)]
    pub fn select_view_cached(
        &self,
        subject: &Subject,
        presented: &[SignedDelegation],
        registry: &EntityRegistry,
        repository: &Repository,
        bus: &RevocationBus,
        now: Timestamp,
        cache: &AuthCache,
    ) -> Option<(String, Option<Proof>)> {
        let mut span = psf_telemetry::span("psf.views", "select_view");
        let presented = Credential::wrap_all(presented);
        // Read before any rule is tried, like a search's epoch.
        let registry_epoch = registry.epoch();
        let key = DecisionKey::new(subject, &self.rules, &presented);
        if let Some(decision) = cache.lookup_decision(&key, now, repository, registry_epoch) {
            let outcome = match decision.rule {
                Some(_) => CacheOutcome::Hit,
                None => CacheOutcome::NegativeHit,
            };
            let cached = Some((outcome, repository.version()));
            return self.answer(&mut span, subject, decision, cached);
        }
        let engine = ProofEngine::with_cache(registry, repository, bus, now, cache);
        let mut evidence = Evidence::default();
        let decision = self.decide(&engine, subject, &presented, &mut evidence);
        cache.insert_decision(key, &decision, evidence, bus, registry_epoch, now);
        self.answer(&mut span, subject, decision, None)
    }

    /// Try the rules in order; the first that `engine` proves (or the
    /// catch-all) wins.
    fn decide(
        &self,
        engine: &ProofEngine<'_>,
        subject: &Subject,
        presented: &[Arc<Credential>],
        evidence: &mut Evidence,
    ) -> ViewDecision {
        for (i, (role, _)) in self.rules().iter().enumerate() {
            let proof = match role {
                Some(role) => match engine.prove_noting(subject, role, presented, evidence) {
                    Ok((proof, _)) => Some(proof),
                    Err(_) => continue,
                },
                None => None,
            };
            return ViewDecision {
                rule: Some(i),
                proof,
            };
        }
        ViewDecision {
            rule: None,
            proof: None,
        }
    }

    /// Audit `decision` (with its cache provenance, when it came from the
    /// decision table) and turn it into the view it grants.
    fn answer(
        &self,
        span: &mut SpanGuard<'_>,
        subject: &Subject,
        decision: ViewDecision,
        cached: Option<(CacheOutcome, Option<u64>)>,
    ) -> Option<(String, Option<Proof>)> {
        use psf_telemetry::audit::{self, Decision, Verdict};
        let (outcome, epoch) = cached.unwrap_or_default();
        let Some(i) = decision.rule else {
            span.field("view", "<denied>");
            audit::record(Decision::SelectView, subject.render(), "", Verdict::Deny)
                .cache(outcome, epoch)
                .detail("no acl rule matched")
                .commit();
            return None;
        };
        let (role, view) = &self.rules()[i];
        span.field("view", view);
        let record = audit::record(
            Decision::SelectView,
            subject.render(),
            view.clone(),
            Verdict::Allow,
        )
        .cache(outcome, epoch);
        match (role, &decision.proof) {
            (Some(role), Some(proof)) => record
                .chain(&proof.credential_ids())
                .detail(format!("role {role}")),
            _ => record.detail("catch-all rule"),
        }
        .commit();
        Some((view.clone(), decision.proof))
    }

    /// Full single-sign-on authorization: select the view and mint a
    /// token whose monitor keeps the session alive until any underlying
    /// credential is revoked or expires.
    #[allow(clippy::too_many_arguments)]
    pub fn authorize_once(
        &self,
        subject: &Subject,
        presented: &[SignedDelegation],
        registry: &EntityRegistry,
        repository: &Repository,
        bus: &RevocationBus,
        now: Timestamp,
    ) -> Option<SsoToken> {
        let (view, proof) = self.select_view(subject, presented, registry, repository, bus, now)?;
        Some(Self::mint(subject, view, proof, bus, now))
    }

    /// As [`authorize_once`](Self::authorize_once), with the proof search
    /// answered from `cache` — the warm single-sign-on path.
    #[allow(clippy::too_many_arguments)]
    pub fn authorize_once_cached(
        &self,
        subject: &Subject,
        presented: &[SignedDelegation],
        registry: &EntityRegistry,
        repository: &Repository,
        bus: &RevocationBus,
        now: Timestamp,
        cache: &AuthCache,
    ) -> Option<SsoToken> {
        let (view, proof) =
            self.select_view_cached(subject, presented, registry, repository, bus, now, cache)?;
        Some(Self::mint(subject, view, proof, bus, now))
    }

    fn mint(
        subject: &Subject,
        view: String,
        proof: Option<Proof>,
        bus: &RevocationBus,
        now: Timestamp,
    ) -> SsoToken {
        let monitor = match &proof {
            Some(proof) => proof.monitor(bus),
            None => bus.monitor(Vec::<String>::new(), None),
        };
        SsoToken {
            subject: subject.clone(),
            view,
            proof,
            monitor,
            issued_at: now,
        }
    }
}

/// A single-sign-on token: the outcome of the one authorization decision
/// made at view-instantiation time. Subsequent requests check only the
/// monitor — no proof search, no signature verification.
pub struct SsoToken {
    /// Who was authorized.
    pub subject: Subject,
    /// The view granted.
    pub view: String,
    /// The proof (None for catch-all grants).
    pub proof: Option<Proof>,
    monitor: ValidityMonitor,
    /// When the token was minted.
    pub issued_at: Timestamp,
}

impl SsoToken {
    /// The O(1) per-request check: still authorized at `now`?
    pub fn is_valid(&self, now: Timestamp) -> bool {
        self.monitor.is_valid(now)
    }

    /// Which credential was revoked, if the token died.
    pub fn revocation_notice(&self) -> Option<String> {
        self.monitor.revoked_id().map(str::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psf_drbac::entity::Entity;
    use psf_drbac::DelegationBuilder;

    struct World {
        registry: EntityRegistry,
        repo: Repository,
        bus: RevocationBus,
        ny: Entity,
        sd: Entity,
        alice: Entity,
        bob: Entity,
        charlie: Entity,
    }

    fn world() -> World {
        let registry = EntityRegistry::new();
        let ny = Entity::with_seed("Comp.NY", b"acl");
        let sd = Entity::with_seed("Comp.SD", b"acl");
        let alice = Entity::with_seed("Alice", b"acl");
        let bob = Entity::with_seed("Bob", b"acl");
        let charlie = Entity::with_seed("Charlie", b"acl");
        for e in [&ny, &sd, &alice, &bob, &charlie] {
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
            charlie,
        }
    }

    fn table4(w: &World) -> ViewAcl {
        ViewAcl::new()
            .rule(w.ny.role("Member"), "ViewMailClient_Member")
            .rule(w.ny.role("Partner"), "ViewMailClient_Partner")
            .others("ViewMailClient_Anonymous")
    }

    #[test]
    fn t4_member_partner_others() {
        let w = world();
        let acl = table4(&w);
        // Alice is a member.
        let alice_cred = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        // Bob (SD) maps to Partner via a role mapping.
        let bob_cred = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.sd.role("Member"))
            .sign();
        let mapping = DelegationBuilder::new(&w.ny)
            .subject_role(w.sd.role("Member"))
            .role(w.ny.role("Partner"))
            .sign();

        let (view, proof) = acl
            .select_view(
                &w.alice.as_subject(),
                &[alice_cred],
                &w.registry,
                &w.repo,
                &w.bus,
                0,
            )
            .unwrap();
        assert_eq!(view, "ViewMailClient_Member");
        assert!(proof.is_some());

        let (view, proof) = acl
            .select_view(
                &w.bob.as_subject(),
                &[bob_cred, mapping],
                &w.registry,
                &w.repo,
                &w.bus,
                0,
            )
            .unwrap();
        assert_eq!(view, "ViewMailClient_Partner");
        assert_eq!(proof.unwrap().edges.len(), 2);

        // Charlie has nothing: catch-all.
        let (view, proof) = acl
            .select_view(
                &w.charlie.as_subject(),
                &[],
                &w.registry,
                &w.repo,
                &w.bus,
                0,
            )
            .unwrap();
        assert_eq!(view, "ViewMailClient_Anonymous");
        assert!(proof.is_none());
    }

    #[test]
    fn first_match_wins_in_order() {
        let w = world();
        // Alice holds both roles; Member rule comes first.
        let m = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let p = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Partner"))
            .sign();
        let acl = table4(&w);
        let (view, _) = acl
            .select_view(
                &w.alice.as_subject(),
                &[m, p],
                &w.registry,
                &w.repo,
                &w.bus,
                0,
            )
            .unwrap();
        assert_eq!(view, "ViewMailClient_Member");
    }

    #[test]
    fn no_rules_means_no_service() {
        let w = world();
        let acl = ViewAcl::new().rule(w.ny.role("Member"), "V");
        assert!(acl
            .select_view(
                &w.charlie.as_subject(),
                &[],
                &w.registry,
                &w.repo,
                &w.bus,
                0
            )
            .is_none());
    }

    #[test]
    fn sso_token_lives_until_revocation() {
        let w = world();
        let cred = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .monitored()
            .sign();
        let acl = table4(&w);
        let token = acl
            .authorize_once(
                &w.alice.as_subject(),
                std::slice::from_ref(&cred),
                &w.registry,
                &w.repo,
                &w.bus,
                0,
            )
            .unwrap();
        assert_eq!(token.view, "ViewMailClient_Member");
        // Many requests: only the O(1) monitor check.
        for _ in 0..1000 {
            assert!(token.is_valid(0));
        }
        w.bus.revoke(&cred.id());
        assert!(!token.is_valid(0));
        assert_eq!(token.revocation_notice(), Some(cred.id()));
    }

    #[test]
    fn sso_token_lapses_with_its_membership() {
        let w = world();
        let cred = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .expires(100)
            .sign();
        let token = table4(&w)
            .authorize_once(
                &w.alice.as_subject(),
                std::slice::from_ref(&cred),
                &w.registry,
                &w.repo,
                &w.bus,
                0,
            )
            .unwrap();
        assert_eq!(token.view, "ViewMailClient_Member");
        assert!(token.is_valid(99));
        assert!(!token.is_valid(100));
        assert_eq!(token.revocation_notice(), None, "expired, not revoked");
    }

    #[test]
    fn render_table4() {
        let w = world();
        let text = table4(&w).render();
        assert!(text.contains("Comp.NY.Member"));
        assert!(text.contains("ViewMailClient_Member"));
        assert!(text.contains("others"));
        assert!(text.contains("ViewMailClient_Anonymous"));
    }
}
