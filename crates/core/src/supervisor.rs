//! End-to-end failover: a [`Supervisor`] owns a live [`Deployment`] and
//! keeps its goal satisfied as the environment fails underneath it.
//!
//! The paper's framework "adapts applications to their runtime
//! environment" (§2.1); the supervisor closes that loop for *running*
//! deployments. It consumes [`AdaptationLoop`] outcomes plus channel-death
//! signals and reacts:
//!
//! * **Replanned** (or a dead channel with an unchanged plan) → *failover*:
//!   execute the new plan (make-before-break), swap it in, then tear the
//!   old deployment down — releasing its CPU reservations and revoking its
//!   credentials on the `RevocationBus` so nothing lingers authorized.
//! * **NoLongerSatisfiable** → *degrade*: tear down what exists (the goal
//!   cannot be served; keeping a broken deployment alive would leak
//!   authority) and wait for the environment to heal.
//! * **PlanError** → keep serving; an internal planner failure is not
//!   proof the goal is unsatisfiable.

use crate::deploy::{Deployer, Deployment};
use crate::model::Goal;
use crate::monitor::{AdaptationLoop, AdaptationOutcome};
use crate::oracle::AuthOracle;
use crate::planner::{Plan, PlannerConfig};
use crate::registrar::Registrar;
use crate::PsfError;
use psf_drbac::guard::Guard;
use psf_netsim::Network;
use psf_views::binding::RemoteCall;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Where the supervisor currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorState {
    /// A deployment is live and believed healthy.
    Serving,
    /// The goal is unsatisfiable; the deployment has been torn down and
    /// the supervisor is waiting for the environment to heal.
    Degraded,
    /// `shutdown` was called; terminal.
    Stopped,
}

/// What one [`tick`](Supervisor::tick) did.
#[derive(Debug)]
pub enum TickOutcome {
    /// Nothing to do.
    Idle,
    /// A new deployment was executed and the old one torn down.
    FailedOver {
        /// Steps in the newly executed plan.
        steps: usize,
    },
    /// Recovered from `Degraded` back to `Serving`.
    Recovered,
    /// The goal became unsatisfiable; the deployment was torn down.
    Degraded(String),
    /// Replan succeeded but executing it failed; the previous deployment
    /// (if any) is kept.
    FailoverFailed(String),
    /// The planner failed internally; the current deployment is kept.
    PlanError(String),
}

/// Supervises one goal: plans, deploys, watches, and fails over.
pub struct Supervisor<'a> {
    adapt: AdaptationLoop<'a>,
    deployer: &'a Deployer,
    guard: Arc<Guard>,
    network: &'a Network,
    goal: Goal,
    deployment: Option<Deployment>,
    /// Set by `on_close` watchers of the *current* deployment's channels.
    /// Replaced wholesale on adoption so watchers of a torn-down
    /// deployment flip a stale flag, not a live one.
    death_flag: Arc<AtomicBool>,
    state: SupervisorState,
}

impl<'a> Supervisor<'a> {
    /// Plan and execute the initial deployment, then start supervising.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        registrar: &'a Registrar,
        network: &'a Network,
        oracle: &'a dyn AuthOracle,
        config: PlannerConfig,
        goal: Goal,
        deployer: &'a Deployer,
        guard: Arc<Guard>,
    ) -> Result<Supervisor<'a>, PsfError> {
        let adapt = AdaptationLoop::start(registrar, network, oracle, config, goal.clone());
        let plan = adapt
            .current_plan()
            .cloned()
            .ok_or_else(|| PsfError::NoPlan("goal unsatisfiable at supervisor start".into()))?;
        let deployment = deployer.execute(&plan, &goal)?;
        let mut sup = Supervisor {
            adapt,
            deployer,
            guard,
            network,
            goal,
            deployment: None,
            death_flag: Arc::new(AtomicBool::new(false)),
            state: SupervisorState::Serving,
        };
        sup.adopt(deployment);
        psf_telemetry::counter!("psf.supervisor.starts").inc();
        Ok(sup)
    }

    /// Current state.
    pub fn state(&self) -> SupervisorState {
        self.state
    }

    /// The live deployment, if serving.
    pub fn deployment(&self) -> Option<&Deployment> {
        self.deployment.as_ref()
    }

    /// The client-facing endpoint of the live deployment.
    pub fn endpoint(&self) -> Option<Arc<dyn RemoteCall>> {
        self.deployment.as_ref().map(|d| d.endpoint.clone())
    }

    /// Whether a channel of the live deployment has died since adoption.
    pub fn channel_died(&self) -> bool {
        self.death_flag.load(Ordering::SeqCst)
    }

    /// One supervision pass: drain monitoring events, consult the
    /// adaptation loop and the channel death flag, and react.
    pub fn tick(&mut self) -> TickOutcome {
        if self.state == SupervisorState::Stopped {
            return TickOutcome::Idle;
        }
        psf_telemetry::counter!("psf.supervisor.ticks").inc();
        match self.adapt.check() {
            AdaptationOutcome::NoChange | AdaptationOutcome::PlanUnchanged => {
                if self.deployment.is_some() && self.channel_died() {
                    // The environment looks unchanged but a transport is
                    // dead: redeploy the current plan in place.
                    match self.adapt.current_plan().cloned() {
                        Some(plan) => self.failover(&plan, "channel_death"),
                        None => self.enter_degraded("channel died with no current plan"),
                    }
                } else {
                    TickOutcome::Idle
                }
            }
            AdaptationOutcome::Replanned(plan) => self.failover(&plan, "replanned"),
            AdaptationOutcome::NoLongerSatisfiable => {
                self.enter_degraded("goal no longer satisfiable")
            }
            AdaptationOutcome::PlanError(e) => {
                psf_telemetry::counter!("psf.supervisor.plan_errors").inc();
                TickOutcome::PlanError(e)
            }
        }
    }

    /// Tear down the live deployment and stop supervising.
    pub fn shutdown(&mut self) {
        if let Some(dep) = self.deployment.take() {
            dep.teardown(Some(self.network), &self.guard);
        }
        self.state = SupervisorState::Stopped;
        psf_telemetry::counter!("psf.supervisor.shutdowns").inc();
    }

    /// Execute `plan`, adopt the result, then tear down the displaced
    /// deployment (make-before-break). On execution failure the previous
    /// deployment is kept untouched.
    fn failover(&mut self, plan: &Plan, reason: &str) -> TickOutcome {
        let was_degraded = self.state == SupervisorState::Degraded;
        let mut span = psf_telemetry::span("psf.supervisor", "failover");
        span.field("reason", reason)
            .field("steps", plan.steps.len());
        match self.deployer.execute(plan, &self.goal) {
            Ok(new_dep) => {
                let old = self.deployment.take();
                self.adopt(new_dep);
                if let Some(old) = old {
                    old.teardown(Some(self.network), &self.guard);
                }
                self.state = SupervisorState::Serving;
                psf_telemetry::counter!("psf.supervisor.failovers").inc();
                span.field("ok", true);
                psf_telemetry::event(
                    "psf.supervisor",
                    "failover",
                    vec![
                        ("reason", reason.to_string()),
                        ("goal_iface", self.goal.iface.clone()),
                    ],
                );
                if was_degraded {
                    psf_telemetry::counter!("psf.supervisor.recoveries").inc();
                    TickOutcome::Recovered
                } else {
                    TickOutcome::FailedOver {
                        steps: plan.steps.len(),
                    }
                }
            }
            Err(e) => {
                psf_telemetry::counter!("psf.supervisor.failover_failures").inc();
                span.field("ok", false);
                TickOutcome::FailoverFailed(e.to_string())
            }
        }
    }

    fn enter_degraded(&mut self, reason: &str) -> TickOutcome {
        if let Some(dep) = self.deployment.take() {
            dep.teardown(Some(self.network), &self.guard);
        }
        self.state = SupervisorState::Degraded;
        psf_telemetry::counter!("psf.supervisor.degraded").inc();
        psf_telemetry::event(
            "psf.supervisor",
            "degraded",
            vec![
                ("reason", reason.to_string()),
                ("goal_iface", self.goal.iface.clone()),
            ],
        );
        TickOutcome::Degraded(reason.to_string())
    }

    /// Install watchers on every channel of `dep`, then make it live. A
    /// fresh flag per adoption keeps teardown of the *old* deployment
    /// (which closes its channels) from signalling death of the new one.
    fn adopt(&mut self, dep: Deployment) {
        let flag = Arc::new(AtomicBool::new(false));
        for (client, server) in &dep.channels {
            let f = flag.clone();
            client.on_close(move || f.store(true, Ordering::SeqCst));
            let f = flag.clone();
            server.on_close(move || f.store(true, Ordering::SeqCst));
        }
        self.death_flag = flag;
        self.deployment = Some(dep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::AppBundle;
    use crate::model::{ComponentSpec, Effect};
    use crate::oracle::PermissiveOracle;
    use psf_drbac::entity::{Entity, EntityRegistry};
    use psf_drbac::repository::Repository;
    use psf_drbac::revocation::RevocationBus;
    use psf_netsim::three_site_scenario;
    use psf_switchboard::ClockRef;
    use psf_views::{ComponentClass, ExposureType, ViewSpec};

    fn counter_class() -> Arc<ComponentClass> {
        ComponentClass::builder("KvStore")
            .interface("KvI", ["put", "get"])
            .field("data", "Map")
            .method("put", "void put(kv)", &["data"], true, |st, args| {
                let kv = String::from_utf8_lossy(args).to_string();
                let mut data = st.get_str("data");
                data.push_str(&kv);
                st.set("data", data);
                Ok(vec![])
            })
            .method("get", "String get()", &["data"], false, |st, _| {
                Ok(st.get("data"))
            })
            .build()
            .unwrap()
    }

    struct World {
        scenario: psf_netsim::ThreeSites,
        registrar: Registrar,
        guard: Arc<Guard>,
        deployer: Deployer,
    }

    fn world() -> World {
        world_with_guard(Arc::new(Guard::new(
            Entity::with_seed("Sup.Domain", b"sup"),
            EntityRegistry::new(),
            Repository::new(),
            RevocationBus::new(),
        )))
    }

    fn world_with_guard(guard: Arc<Guard>) -> World {
        let scenario = three_site_scenario(2);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(
            ComponentSpec::processor("KvView", "KvI", "KvI", Effect::Cache)
                .view_of("KvStore")
                .cpu(20),
        );
        registrar.record_deployed("KvStore", scenario.ny[0]);
        let bundle = AppBundle::new()
            .class("KvStore", counter_class())
            .view(
                "KvView",
                ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
            )
            .cpu_cost("KvView", 20);
        let deployer = Deployer::new(guard.clone(), ClockRef::new(), bundle)
            .with_network(scenario.network.clone());
        deployer.start_source("KvStore", scenario.ny[0]).unwrap();
        World {
            scenario,
            registrar,
            guard,
            deployer,
        }
    }

    fn goal(w: &World) -> Goal {
        Goal {
            iface: "KvI".into(),
            client_node: w.scenario.sd[1],
            max_latency_ms: Some(60.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        }
    }

    /// Everything a torn-down deployment was granted stays revoked across
    /// a restart of the durable repository, whatever the shard count.
    fn teardown_revocations_persist(shards: usize) {
        use psf_drbac::wal::{ShardedDurableRepository, WalConfig};
        let dir = std::env::temp_dir().join(format!("psf-sup-wal-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let issued_ids: Vec<String>;
        {
            let (durable, _) =
                ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
            let guard = Arc::new(Guard::sharded_durable(
                Entity::with_seed("Sup.Domain", b"sup"),
                EntityRegistry::new(),
                &durable,
            ));
            let w = world_with_guard(guard);
            let mut sup = Supervisor::start(
                &w.registrar,
                &w.scenario.network,
                &PermissiveOracle,
                PlannerConfig::default(),
                goal(&w),
                &w.deployer,
                w.guard.clone(),
            )
            .unwrap();
            issued_ids = sup
                .deployment()
                .unwrap()
                .issued_credentials
                .iter()
                .map(|c| c.id())
                .collect();
            assert!(!issued_ids.is_empty(), "deployment issues credentials");
            // Shutdown revokes everything the deployment was granted; the
            // bus observer writes each revocation to the WAL.
            sup.shutdown();
            for id in &issued_ids {
                assert!(w.guard.bus().is_revoked(id));
            }
            durable.sync().unwrap();
        } // "crash": only the durable directory survives

        let (_, bus, report) = Repository::recover_sharded(&dir).unwrap();
        assert!(
            report.revocations_restored >= issued_ids.len(),
            "restored {} < issued {}",
            report.revocations_restored,
            issued_ids.len()
        );
        for id in &issued_ids {
            assert!(bus.is_revoked(id), "revocation of {id} lost across restart");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn teardown_revocations_persist_across_restart() {
        teardown_revocations_persist(1);
    }

    #[test]
    fn teardown_revocations_persist_across_restart_sharded() {
        teardown_revocations_persist(8);
    }

    #[test]
    fn wan_collapse_fails_over_and_revokes_old_credentials() {
        let w = world();
        let mut sup = Supervisor::start(
            &w.registrar,
            &w.scenario.network,
            &PermissiveOracle,
            PlannerConfig::default(),
            goal(&w),
            &w.deployer,
            w.guard.clone(),
        )
        .unwrap();
        assert_eq!(sup.state(), SupervisorState::Serving);
        let old_ids: Vec<String> = sup
            .deployment()
            .unwrap()
            .issued_credentials
            .iter()
            .map(|c| c.id())
            .collect();
        assert!(!old_ids.is_empty(), "WAN hops issue connection creds");

        // The WAN degrades past the goal's latency bound: the supervisor
        // must deploy the cache view near the client and drop the old
        // deployment's authority.
        w.scenario.network.set_latency(w.scenario.wan_ny_sd, 200.0);
        match sup.tick() {
            TickOutcome::FailedOver { steps } => assert!(steps >= 2),
            other => panic!("expected failover, got {other:?}"),
        }
        for id in &old_ids {
            assert!(w.guard.bus().is_revoked(id), "old cred {id} not revoked");
        }
        let dep = sup.deployment().unwrap();
        assert!(
            dep.placements.iter().any(|(t, _, _)| t == "KvView"),
            "failover plan deploys the cache view"
        );
        // The new endpoint serves.
        dep.endpoint.call_remote("put", b"x").unwrap();
        sup.shutdown();
        assert_eq!(sup.state(), SupervisorState::Stopped);
    }

    #[test]
    fn channel_death_triggers_in_place_redeploy() {
        let w = world();
        let mut sup = Supervisor::start(
            &w.registrar,
            &w.scenario.network,
            &PermissiveOracle,
            PlannerConfig::default(),
            goal(&w),
            &w.deployer,
            w.guard.clone(),
        )
        .unwrap();
        assert!(sup.deployment().unwrap().channel_count() >= 1);
        assert!(matches!(sup.tick(), TickOutcome::Idle));

        // Kill a transport out from under the deployment: no network
        // event fires, but the death watcher does.
        sup.deployment().unwrap().channels[0].0.close();
        assert!(sup.channel_died());
        match sup.tick() {
            TickOutcome::FailedOver { .. } => {}
            other => panic!("expected redeploy, got {other:?}"),
        }
        assert!(!sup.channel_died(), "fresh deployment, fresh flag");
        sup.deployment()
            .unwrap()
            .endpoint
            .call_remote("put", b"y")
            .unwrap();
        sup.shutdown();
    }

    #[test]
    fn node_failure_degrades_then_restore_recovers() {
        let w = world();
        let mut sup = Supervisor::start(
            &w.registrar,
            &w.scenario.network,
            &PermissiveOracle,
            PlannerConfig::default(),
            goal(&w),
            &w.deployer,
            w.guard.clone(),
        )
        .unwrap();
        let cpu_before: Vec<u32> = w
            .scenario
            .network
            .node_ids()
            .iter()
            .map(|&n| w.scenario.network.node(n).unwrap().cpu_available())
            .collect();

        // sd-0 carries every WAN link into San Diego: failing it isolates
        // the client at sd-1 entirely.
        w.scenario.network.fail_node(w.scenario.sd[0]);
        match sup.tick() {
            TickOutcome::Degraded(_) => {}
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(sup.state(), SupervisorState::Degraded);
        assert!(sup.deployment().is_none(), "degraded ⇒ torn down");

        // Healing the node brings the goal back; the supervisor recovers.
        w.scenario.network.restore_node(w.scenario.sd[0]);
        match sup.tick() {
            TickOutcome::Recovered => {}
            other => panic!("expected recovery, got {other:?}"),
        }
        assert_eq!(sup.state(), SupervisorState::Serving);
        sup.endpoint().unwrap().call_remote("put", b"z").unwrap();

        // After shutdown every reservation is back where it started.
        sup.shutdown();
        let cpu_after: Vec<u32> = w
            .scenario
            .network
            .node_ids()
            .iter()
            .map(|&n| w.scenario.network.node(n).unwrap().cpu_available())
            .collect();
        assert_eq!(cpu_before, cpu_after, "no leaked CPU reservations");
    }
}
