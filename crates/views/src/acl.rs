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
use psf_drbac::repository::Repository;
use psf_drbac::revocation::{RevocationBus, ValidityMonitor};
use psf_drbac::{AuthCache, Credential, SignedDelegation, Timestamp};

/// Table 4 as data: ordered rules mapping a role (or the catch-all
/// "others") to a view name.
#[derive(Debug, Clone, Default)]
pub struct ViewAcl {
    rules: Vec<(Option<RoleName>, String)>,
}

impl ViewAcl {
    /// Empty ACL.
    pub fn new() -> ViewAcl {
        ViewAcl::default()
    }

    /// Add a role rule (checked in order, first match wins).
    pub fn rule(mut self, role: RoleName, view: impl Into<String>) -> Self {
        self.rules.push((Some(role), view.into()));
        self
    }

    /// Add the catch-all "others" rule.
    pub fn others(mut self, view: impl Into<String>) -> Self {
        self.rules.push((None, view.into()));
        self
    }

    /// The rules, for display (Table 4 rendering).
    pub fn rules(&self) -> &[(Option<RoleName>, String)] {
        &self.rules
    }

    /// The distinct view names this ACL can ever grant, in rule order —
    /// the reachability roots for the unreachable-view lint.
    pub fn view_names(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (_, view) in &self.rules {
            if !out.contains(&view.as_str()) {
                out.push(view.as_str());
            }
        }
        out
    }

    /// Render the Table 4 layout.
    pub fn render(&self) -> String {
        let mut out = String::from("Role                 | View name\n");
        for (role, view) in &self.rules {
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
        let engine = ProofEngine::new(registry, repository, bus, now);
        self.select_with_engine(&engine, subject, presented)
    }

    /// As [`select_view`](Self::select_view), with repeat decisions
    /// answered from `cache` (which must be dedicated to this
    /// registry/repository/bus triple).
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
        let engine = ProofEngine::with_cache(registry, repository, bus, now, cache);
        self.select_with_engine(&engine, subject, presented)
    }

    fn select_with_engine(
        &self,
        engine: &ProofEngine<'_>,
        subject: &Subject,
        presented: &[SignedDelegation],
    ) -> Option<(String, Option<Proof>)> {
        use psf_telemetry::audit::{self, Decision, Verdict};
        let mut span = psf_telemetry::span("psf.views", "select_view");
        // Hashed once per decision, not once per rule tried.
        let presented = Credential::wrap_all(presented);
        for (role, view) in &self.rules {
            match role {
                Some(role) => {
                    if let Ok((proof, _)) = engine.prove_carried(subject, role, &presented) {
                        span.field("view", view);
                        audit::record(
                            Decision::SelectView,
                            subject.render(),
                            view.clone(),
                            Verdict::Allow,
                        )
                        .chain(&proof.credential_ids())
                        .detail(format!("role {role}"))
                        .commit();
                        return Some((view.clone(), Some(proof)));
                    }
                }
                None => {
                    span.field("view", view);
                    audit::record(
                        Decision::SelectView,
                        subject.render(),
                        view.clone(),
                        Verdict::Allow,
                    )
                    .detail("catch-all rule")
                    .commit();
                    return Some((view.clone(), None));
                }
            }
        }
        span.field("view", "<denied>");
        audit::record(Decision::SelectView, subject.render(), "", Verdict::Deny)
            .detail("no acl rule matched")
            .commit();
        None
    }

    /// Full single-sign-on authorization: select the view and mint a
    /// token whose monitor keeps the session alive until any underlying
    /// credential is revoked.
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
        let monitor = bus.monitor(
            proof
                .as_ref()
                .map(|p| p.credential_ids())
                .unwrap_or_default(),
        );
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
    /// The O(1) per-request check: still authorized?
    pub fn is_valid(&self) -> bool {
        self.monitor.is_valid()
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
            assert!(token.is_valid());
        }
        w.bus.revoke(&cred.id());
        assert!(!token.is_valid());
        assert_eq!(token.revocation_notice(), Some(cred.id()));
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
