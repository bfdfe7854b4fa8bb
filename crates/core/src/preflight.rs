//! Static plan pre-flight: report every rule a deployment plan breaks
//! *before* [`Deployer::execute`](crate::deploy::Deployer::execute)
//! acquires anything. psf-analysis maps each [`PreflightViolation`] onto
//! its PSF011–PSF013 lint codes.
//!
//! Pre-flight is not a second statement of the rules: it is the
//! deployer's own plan walk run with the `Record` effects below, which
//! reserve nothing, publish nothing and connect nothing, and which note a
//! violation and walk on where `execute` would stop. The first violation
//! is the step and message `execute` fails with; an authorization message
//! differs only in its trailing proof error, which names the probe.
//!
//! Authorization checks are *genuine proofs*, not heuristics: a probe
//! identity is signed by the deployer's guard exactly as the deployer
//! signs the identities it issues, and the guard's prover is asked to
//! authorize it against the live registry, repository and revocation bus
//! — the only difference from runtime is that nothing is published.

use crate::deploy::PlanEffects;
use psf_drbac::entity::Entity;
use psf_drbac::guard::Guard;
use psf_drbac::Timestamp;
use psf_netsim::{Network, NodeId};
use std::collections::HashMap;

/// What a pre-flight violation would have failed as at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreflightViolationKind {
    /// The step chain itself is malformed: wrong-node transitions,
    /// endpoints used before they exist, sources not running, unknown
    /// templates, missing represented classes, VIG rejections, down nodes,
    /// CPU shortfalls, plans that do not end at the client's node.
    InvalidStepChain,
    /// A component identity issued at deploy time would fail dRBAC
    /// authorization for the guard's `Component` role.
    DeployAuthorization,
    /// An insecure hop's channel endpoint pair would fail Switchboard
    /// mutual authorization.
    ChannelAuthorization,
}

impl PreflightViolationKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            PreflightViolationKind::InvalidStepChain => "invalid-step-chain",
            PreflightViolationKind::DeployAuthorization => "deploy-authorization",
            PreflightViolationKind::ChannelAuthorization => "channel-authorization",
        }
    }
}

/// One would-be runtime denial, anchored to the plan step that would
/// have raised it (`None` for whole-plan violations).
#[derive(Debug, Clone)]
pub struct PreflightViolation {
    /// Violation category.
    pub kind: PreflightViolationKind,
    /// Index of the offending [`PlanStep`](crate::planner::PlanStep), if
    /// step-specific.
    pub step: Option<usize>,
    /// The message `execute` fails with.
    pub message: String,
}

/// Pre-flight's effects: acquire nothing, note every violation. CPU is a
/// per-node demand ledger against live capacity. One probe proof — an
/// unpublished `[probe → Guard.Component] Guard` credential — stands in
/// for every identity the deployer would issue, component or channel
/// endpoint, since each authorizes by that same guard-signed edge.
pub(crate) struct Record {
    probe: Result<(), String>,
    cpu_demand: HashMap<NodeId, u64>,
    pub(crate) violations: Vec<PreflightViolation>,
}

impl Record {
    /// Recording effects for `guard`'s identities, proved at `now`.
    pub(crate) fn new(guard: &Guard, now: Timestamp) -> Record {
        let role = guard.role("Component");
        let probe = Entity::with_seed("preflight-probe", guard.entity().name.0.as_bytes());
        let cred = guard
            .issue()
            .subject_entity(&probe)
            .role(role.clone())
            .sign();
        let proved = guard.authorize(&probe.as_subject(), &role, &[cred], now);
        Record {
            probe: proved.map(drop).map_err(|e| e.to_string()),
            cpu_demand: HashMap::new(),
            violations: Vec::new(),
        }
    }
}

impl PlanEffects for Record {
    type Identity = ();

    fn violation(
        &mut self,
        kind: PreflightViolationKind,
        step: Option<usize>,
        message: String,
    ) -> Result<(), crate::PsfError> {
        self.violations.push(PreflightViolation {
            kind,
            step,
            message,
        });
        Ok(())
    }

    fn reserve_cpu(&mut self, net: &Network, node: NodeId, cost: u32) -> bool {
        let demanded = self.cpu_demand.entry(node).or_insert(0);
        *demanded += u64::from(cost);
        *demanded <= net.node(node).map_or(0, |n| u64::from(n.cpu_available()))
    }

    fn identify(&mut self, _template: &str, _node: NodeId) -> ((), Result<(), String>) {
        ((), self.probe.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{AppBundle, Deployer};
    use crate::model::{Goal, IfaceProps};
    use crate::planner::{Plan, PlanStep};
    use psf_drbac::entity::EntityRegistry;
    use psf_drbac::guard::Guard;
    use psf_drbac::repository::Repository;
    use psf_drbac::revocation::RevocationBus;
    use psf_netsim::{three_site_scenario, ThreeSites};
    use psf_switchboard::ClockRef;
    use psf_views::{ComponentClass, ExposureType, ViewSpec};
    use std::sync::Arc;

    fn kv_class() -> Arc<ComponentClass> {
        ComponentClass::builder("KvStore")
            .interface("KvI", ["put", "get"])
            .field("data", "Map")
            .method("put", "void put(kv)", &["data"], true, |st, args| {
                st.set("data", String::from_utf8_lossy(args).to_string());
                Ok(vec![])
            })
            .method("get", "String get()", &["data"], false, |st, _| {
                Ok(st.get("data"))
            })
            .build()
            .unwrap()
    }

    // use KvStore@ny[0] → insecure WAN hop → deploy the view at sd[0].
    fn plan_for(s: &ThreeSites) -> Plan {
        Plan {
            steps: vec![
                PlanStep::UseDeployed {
                    spec: "KvStore".into(),
                    node: s.ny[0],
                    iface: "KvI".into(),
                },
                PlanStep::Move {
                    iface: "KvI".into(),
                    from: s.ny[0],
                    to: s.sd[0],
                    latency_ms: 40.0,
                    secure_path: false,
                },
                PlanStep::Deploy {
                    spec: "KvView".into(),
                    node: s.sd[0],
                    iface_in: Some("KvI".into()),
                    iface_out: "KvI".into(),
                },
            ],
            delivered: IfaceProps::at_source(),
            cost: 0.0,
        }
    }

    fn goal_at(node: psf_netsim::NodeId) -> Goal {
        Goal {
            iface: "KvI".into(),
            client_node: node,
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: true,
        }
    }

    fn world() -> (ThreeSites, Deployer) {
        let s = three_site_scenario(2);
        let bundle = AppBundle::new()
            .class("KvStore", kv_class())
            .view(
                "KvView",
                ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
            )
            .cpu_cost("KvView", 5);
        let guard = Arc::new(Guard::new(
            Entity::with_seed("Deploy.Domain", b"pre"),
            EntityRegistry::new(),
            Repository::new(),
            RevocationBus::new(),
        ));
        let deployer =
            Deployer::new(guard, ClockRef::new(), bundle).with_network(s.network.clone());
        deployer.start_source("KvStore", s.ny[0]).unwrap();
        (s, deployer)
    }

    #[test]
    fn clean_plan_passes_preflight() {
        let (s, deployer) = world();
        let violations = deployer.preflight(&plan_for(&s), &goal_at(s.sd[0]));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn missing_source_is_flagged() {
        let (s, deployer) = world();
        let mut bad = plan_for(&s);
        if let Some(PlanStep::UseDeployed { node, .. }) = bad.steps.first_mut() {
            *node = s.se[1];
        }
        let violations = deployer.preflight(&bad, &goal_at(s.sd[0]));
        assert!(violations
            .iter()
            .any(|v| v.kind == PreflightViolationKind::InvalidStepChain
                && v.message.contains("not running")));
    }

    #[test]
    fn broken_guard_flags_channel_and_deploy_auth() {
        let (s, _deployer) = world();
        // Simulate the registry losing the guard's key (e.g. a stale
        // cross-site replica): re-register a different key under the same
        // name. Every identity this guard issues is then unprovable.
        let registry = EntityRegistry::new();
        let guard = Arc::new(Guard::new(
            Entity::with_seed("Rogue.Domain", b"pre"),
            registry.clone(),
            Repository::new(),
            RevocationBus::new(),
        ));
        registry.register(&Entity::with_seed("Rogue.Domain", b"other-key"));
        let bundle = AppBundle::new().class("KvStore", kv_class()).view(
            "KvView",
            ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
        );
        let deployer =
            Deployer::new(guard, ClockRef::new(), bundle).with_network(s.network.clone());
        deployer.start_source("KvStore", s.ny[0]).unwrap();
        let violations = deployer.preflight(&plan_for(&s), &goal_at(s.sd[0]));
        assert!(violations
            .iter()
            .any(|v| v.kind == PreflightViolationKind::DeployAuthorization));
        assert!(violations
            .iter()
            .any(|v| v.kind == PreflightViolationKind::ChannelAuthorization));
    }

    #[test]
    fn cpu_shortfall_is_flagged() {
        let (s, deployer) = world();
        // Drain the target node's CPU first.
        assert!(s.network.reserve_cpu(s.sd[0], 98));
        let violations = deployer.preflight(&plan_for(&s), &goal_at(s.sd[0]));
        assert!(violations.iter().any(|v| v.message.contains("lacks 5 CPU")));
    }

    #[test]
    fn wrong_terminal_node_is_flagged() {
        let (s, deployer) = world();
        let violations = deployer.preflight(&plan_for(&s), &goal_at(s.se[0]));
        assert!(violations
            .iter()
            .any(|v| v.message.contains("terminates at node")));
    }
}
