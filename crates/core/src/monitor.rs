//! Adaptation: the monitoring module feeds environment changes back into
//! planning (paper §2.1: "the planning module … factor\[s\] in application
//! and network-level constraints, updates to which are tracked by the
//! monitoring module").

use crate::model::Goal;
use crate::oracle::AuthOracle;
use crate::planner::{Plan, Planner, PlannerConfig};
use crate::registrar::Registrar;
use crate::PsfError;
use psf_netsim::{Network, NetworkMonitor};

/// Watches the network and replans a goal when the environment changes.
pub struct AdaptationLoop<'a> {
    registrar: &'a Registrar,
    network: &'a Network,
    oracle: &'a dyn AuthOracle,
    config: PlannerConfig,
    monitor: NetworkMonitor,
    goal: Goal,
    current: Option<Plan>,
}

/// What a [`check`](AdaptationLoop::check) pass concluded.
#[derive(Debug, PartialEq)]
pub enum AdaptationOutcome {
    /// No environment changes observed.
    NoChange,
    /// Changes observed but the existing plan is still the best one.
    PlanUnchanged,
    /// The plan changed; the new plan is returned for redeployment.
    Replanned(Plan),
    /// The goal can no longer be satisfied at all.
    NoLongerSatisfiable,
    /// The planner failed for an internal reason (budget exhaustion,
    /// inconsistent registry, …) — NOT proof the goal is unsatisfiable.
    /// The previous plan is kept; callers should not tear anything down.
    PlanError(String),
}

impl<'a> AdaptationLoop<'a> {
    /// Start the loop: computes the initial plan.
    pub fn start(
        registrar: &'a Registrar,
        network: &'a Network,
        oracle: &'a dyn AuthOracle,
        config: PlannerConfig,
        goal: Goal,
    ) -> AdaptationLoop<'a> {
        let monitor = network.monitor();
        let mut this = AdaptationLoop {
            registrar,
            network,
            oracle,
            config,
            monitor,
            goal,
            current: None,
        };
        this.current = this.plan_now().ok();
        this
    }

    /// Run the planner. `Err(NoPlan)` means the goal is genuinely
    /// unsatisfiable; any other error is an internal planner failure and
    /// must not be conflated with unsatisfiability.
    fn plan_now(&self) -> Result<Plan, PsfError> {
        let planner = Planner::new(
            self.registrar,
            self.network,
            self.oracle,
            self.config.clone(),
        );
        planner.plan(&self.goal).map(|(p, _)| p)
    }

    /// The currently adopted plan.
    pub fn current_plan(&self) -> Option<&Plan> {
        self.current.as_ref()
    }

    /// Drain monitoring events; replan if anything changed.
    pub fn check(&mut self) -> AdaptationOutcome {
        psf_telemetry::counter!("psf.monitor.checks").inc();
        let events = self.monitor.drain();
        if events.is_empty() {
            return AdaptationOutcome::NoChange;
        }
        psf_telemetry::counter!("psf.monitor.changes").add(events.len() as u64);
        let mut check_span = psf_telemetry::span("psf.monitor", "check");
        check_span
            .field("events", events.len())
            .field("goal_iface", &self.goal.iface);
        match self.plan_now() {
            Err(PsfError::NoPlan(reason)) => {
                self.current = None;
                psf_telemetry::counter!("psf.monitor.unsatisfiable").inc();
                check_span.field("outcome", "unsatisfiable");
                psf_telemetry::event(
                    "psf.monitor",
                    "goal.unsatisfiable",
                    vec![("goal_iface", self.goal.iface.clone()), ("reason", reason)],
                );
                AdaptationOutcome::NoLongerSatisfiable
            }
            Err(e) => {
                // Internal failure: keep the current plan; surface the
                // error instead of silently reporting "unsatisfiable".
                psf_telemetry::counter!("psf.monitor.plan_errors").inc();
                check_span.field("outcome", "plan_error");
                psf_telemetry::event(
                    "psf.monitor",
                    "plan_error",
                    vec![
                        ("goal_iface", self.goal.iface.clone()),
                        ("error", e.to_string()),
                    ],
                );
                AdaptationOutcome::PlanError(e.to_string())
            }
            Ok(new_plan) => {
                if Some(&new_plan) == self.current.as_ref() {
                    check_span.field("outcome", "unchanged");
                    AdaptationOutcome::PlanUnchanged
                } else {
                    self.current = Some(new_plan.clone());
                    psf_telemetry::counter!("psf.monitor.replans").inc();
                    check_span.field("outcome", "replanned");
                    psf_telemetry::event(
                        "psf.monitor",
                        "replan",
                        vec![
                            ("goal_iface", self.goal.iface.clone()),
                            ("deployments", new_plan.deployments().to_string()),
                        ],
                    );
                    AdaptationOutcome::Replanned(new_plan)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ComponentSpec, Effect};
    use crate::oracle::PermissiveOracle;
    use psf_netsim::three_site_scenario;

    fn registrar() -> Registrar {
        let r = Registrar::new();
        r.register(ComponentSpec::source("MailServer", "MailI"));
        r.register(
            ComponentSpec::processor("ViewMailServer", "MailI", "MailI", Effect::Cache)
                .cpu(20)
                .view_of("MailServer"),
        );
        r
    }

    #[test]
    fn bandwidth_collapse_triggers_cache_redeployment() {
        let s = three_site_scenario(2);
        let r = registrar();
        r.record_deployed("MailServer", s.ny[0]);
        // The goal tolerates the WAN initially (latency bound 60 ms: the
        // 40 ms WAN qualifies; no privacy needed).
        let goal = Goal {
            iface: "MailI".into(),
            client_node: s.sd[1],
            max_latency_ms: Some(60.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let mut adapt = AdaptationLoop::start(
            &r,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
            goal,
        );
        let initial = adapt.current_plan().unwrap().clone();
        assert_eq!(initial.deployments(), 0);
        assert_eq!(adapt.check(), AdaptationOutcome::NoChange);

        // The WAN degrades badly: latency shoots past the bound.
        s.network.set_latency(s.wan_ny_sd, 200.0);
        match adapt.check() {
            AdaptationOutcome::Replanned(p) => {
                assert!(p.deployments() >= 1, "expected a cache: {}", p.render());
                assert!(p.delivered.latency_ms <= 60.0);
            }
            other => panic!("expected replan, got {other:?}"),
        }
    }

    #[test]
    fn irrelevant_change_keeps_plan() {
        let s = three_site_scenario(2);
        let r = registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let goal = Goal {
            iface: "MailI".into(),
            client_node: s.ny[1],
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let mut adapt = AdaptationLoop::start(
            &r,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
            goal,
        );
        // A change far away (SD↔SE link) does not affect the NY-local plan.
        s.network.set_latency(s.wan_sd_se, 500.0);
        assert_eq!(adapt.check(), AdaptationOutcome::PlanUnchanged);
    }

    #[test]
    fn internal_planner_failure_is_not_reported_as_unsatisfiable() {
        let s = three_site_scenario(2);
        let r = registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let goal = Goal {
            iface: "MailI".into(),
            client_node: s.sd[1],
            max_latency_ms: Some(60.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        // An absurdly small expansion budget makes the planner abort
        // internally; that must surface as PlanError, never as
        // NoLongerSatisfiable (which would trigger a teardown).
        let config = PlannerConfig {
            max_expansions: 0,
            ..PlannerConfig::default()
        };
        let mut adapt = AdaptationLoop::start(&r, &s.network, &PermissiveOracle, config, goal);
        s.network.set_latency(s.wan_ny_sd, 200.0);
        match adapt.check() {
            AdaptationOutcome::PlanError(msg) => {
                assert!(msg.contains("budget"), "unexpected error: {msg}")
            }
            other => panic!("expected PlanError, got {other:?}"),
        }
    }

    #[test]
    fn goal_can_become_unsatisfiable() {
        let s = three_site_scenario(1);
        let r = Registrar::new();
        r.register(ComponentSpec::source("MailServer", "MailI"));
        r.record_deployed("MailServer", s.ny[0]);
        let goal = Goal {
            iface: "MailI".into(),
            client_node: s.sd[0],
            max_latency_ms: Some(60.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let mut adapt = AdaptationLoop::start(
            &r,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
            goal,
        );
        assert!(adapt.current_plan().is_some());
        // Without a cache template, degraded WANs are fatal (both the
        // direct link and the detour through Seattle).
        s.network.set_latency(s.wan_ny_sd, 500.0);
        s.network.set_latency(s.wan_sd_se, 500.0);
        assert_eq!(adapt.check(), AdaptationOutcome::NoLongerSatisfiable);
        assert!(adapt.current_plan().is_none());
    }
}
