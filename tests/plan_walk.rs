//! One plan walk: `Deployer::preflight` and `Deployer::execute` are the
//! same walk over a plan with different effects, so they cannot disagree
//! on a rule. Each case takes a mail-world planner plan, applies one
//! mutation, and checks with faults off and a single attempt:
//! - pre-flight is clean exactly when `execute` succeeds;
//! - otherwise `execute` fails at pre-flight's first violation, with its
//!   message (the authorization rules may differ in the trailing proof
//!   error: pre-flight proves a probe, `execute` the issued credential);
//!   a whole-plan violation is a failure after the last step;
//! - an unmutated plan the planner accepts pre-flights clean.

use proptest::prelude::*;
use psf_core::{Goal, Plan, PlanStep, PreflightViolationKind, PsfError, RetryPolicy};
use psf_drbac::entity::Entity;
use psf_mail::MailWorld;
use psf_netsim::NodeId;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    None,
    DropStep,
    SwapNode,
    DrainCpu,
    FailNode,
    BreakGuard,
    UnknownTemplate,
    UnstartedSource,
}

const MUTATIONS: [Mutation; 8] = [
    Mutation::None,
    Mutation::DropStep,
    Mutation::SwapNode,
    Mutation::DrainCpu,
    Mutation::FailNode,
    Mutation::BreakGuard,
    Mutation::UnknownTemplate,
    Mutation::UnstartedSource,
];

fn goal(client: NodeId, privacy: bool, max_latency_ms: Option<f64>) -> Goal {
    Goal {
        iface: "MailI".into(),
        client_node: client,
        max_latency_ms,
        require_privacy: privacy,
        require_plaintext_delivery: true,
    }
}

/// Replace the deploying guard's key in the shared registry: every
/// identity the guard issues from then on is unprovable.
fn break_guard(w: &MailWorld) {
    let name = w.ny_guard.entity().name.0.clone();
    w.registry
        .register(&Entity::with_seed(name, b"another key"));
}

/// Every node a plan step names.
fn plan_nodes(plan: &Plan) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for step in &plan.steps {
        match step {
            PlanStep::UseDeployed { node, .. } | PlanStep::Deploy { node, .. } => nodes.push(*node),
            PlanStep::Move { from, to, .. } => nodes.extend([*from, *to]),
        }
    }
    nodes
}

/// Apply `mutation` to the world or the plan; `pick` chooses the step or
/// node it hits.
fn mutate(w: &MailWorld, plan: &mut Plan, mutation: Mutation, pick: usize) {
    let net = &w.sites.network;
    let all = net.node_ids();
    let touched = plan_nodes(plan);
    let step = pick % plan.steps.len();
    match mutation {
        Mutation::None => {}
        Mutation::DropStep => {
            plan.steps.remove(step);
        }
        Mutation::SwapNode => {
            let other = all[pick / 8 % all.len()];
            match &mut plan.steps[step] {
                PlanStep::UseDeployed { node, .. } | PlanStep::Deploy { node, .. } => *node = other,
                PlanStep::Move { to, .. } => *to = other,
            }
        }
        Mutation::DrainCpu => {
            let node = touched[pick % touched.len()];
            let free = net.node(node).unwrap().cpu_available();
            assert!(net.reserve_cpu(node, free));
        }
        Mutation::FailNode => net.fail_node(touched[pick % touched.len()]),
        Mutation::BreakGuard => break_guard(w),
        Mutation::UnknownTemplate => {
            let named: Vec<usize> = (0..plan.steps.len())
                .filter(|&i| !matches!(plan.steps[i], PlanStep::Move { .. }))
                .collect();
            match &mut plan.steps[named[pick % named.len()]] {
                PlanStep::UseDeployed { spec, .. } | PlanStep::Deploy { spec, .. } => {
                    *spec = "NoSuchTemplate".into()
                }
                PlanStep::Move { .. } => unreachable!(),
            }
        }
        Mutation::UnstartedSource => {
            // Recorded as deployed, never started.
            let idle: Vec<NodeId> = all.into_iter().filter(|&n| n != w.sites.ny[0]).collect();
            let node = idle[pick % idle.len()];
            w.registrar.record_deployed("MailServer", node);
            if let Some(PlanStep::UseDeployed { node: n, .. }) = plan.steps.first_mut() {
                *n = node;
            }
        }
    }
}

/// `message` up to and including the proved role, for the two
/// authorization rules whose trailing cause names the identity proved.
fn without_cause(kind: PreflightViolationKind, message: &str, role: &str) -> String {
    let anchor = format!("'{role}': ");
    match message.find(&anchor) {
        Some(i) if kind != PreflightViolationKind::InvalidStepChain => {
            message[..i + anchor.len()].to_string()
        }
        _ => message.to_string(),
    }
}

/// Pre-flight `plan`, then execute it once without faults, and check the
/// two agree. Returns pre-flight's first violation, if any.
fn differential(
    w: &MailWorld,
    plan: &Plan,
    goal: &Goal,
) -> Result<Option<psf_core::PreflightViolation>, TestCaseError> {
    let violations = w.deployer.preflight(plan, goal);
    w.deployer.set_retry_policy(RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    });
    let first = violations.first().cloned();
    match (&first, w.deployer.execute(plan, goal)) {
        (None, Ok(deployment)) => deployment.teardown(Some(&w.sites.network), &w.ny_guard),
        (None, Err(e)) => {
            return Err(TestCaseError::fail(format!(
                "pre-flight is clean but execute failed: {e}\nplan: {plan:?}"
            )))
        }
        (Some(v), Ok(deployment)) => {
            deployment.teardown(Some(&w.sites.network), &w.ny_guard);
            return Err(TestCaseError::fail(format!(
                "pre-flight reports {v:?} but execute succeeded\nplan: {plan:?}"
            )));
        }
        (Some(v), Err(_)) => {
            let report = w
                .deployer
                .last_rollback()
                .expect("a failed attempt rolls back");
            let role = w.ny_guard.role("Component").to_string();
            let expected = PsfError::DeployFailed(v.message.clone()).to_string();
            prop_assert_eq!(
                report.failed_step,
                v.step.unwrap_or(plan.steps.len()),
                "failed step vs first violation {:?}\nplan: {:?}",
                v,
                plan
            );
            prop_assert_eq!(
                without_cause(v.kind, &report.error, &role),
                without_cause(v.kind, &expected, &role),
                "plan: {:?}",
                plan
            );
        }
    }
    Ok(first)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn preflight_and_execute_are_one_walk(
        client in 0usize..6,
        privacy in any::<bool>(),
        bounded in any::<bool>(),
        mutation in 0usize..MUTATIONS.len(),
        pick in 0usize..1_000,
    ) {
        let w = MailWorld::build(2);
        let client = w.sites.network.node_ids()[client];
        let goal = goal(client, privacy, bounded.then_some(10.0));
        let planned = w.plan_service(&goal);
        prop_assume!(planned.is_ok());
        let (mut plan, _) = planned.unwrap();
        let mutation = MUTATIONS[mutation];
        mutate(&w, &mut plan, mutation, pick);
        let first = differential(&w, &plan, &goal)?;
        if mutation == Mutation::None {
            prop_assert!(first.is_none(), "planner-accepted plan pre-flights {:?}", first);
        }
    }
}

fn run(w: &MailWorld, plan: &Plan, goal: &Goal) -> Option<psf_core::PreflightViolation> {
    differential(w, plan, goal).unwrap_or_else(|e| panic!("{e}"))
}

/// A source the registrar lists but the deployer never started is not
/// running, for pre-flight as for `execute`.
#[test]
fn registrar_only_source_is_not_running() {
    let w = MailWorld::build(2);
    let goal = goal(w.sites.ny[1], false, None);
    let (mut plan, _) = w.plan_service(&goal).unwrap();
    mutate(&w, &mut plan, Mutation::UnstartedSource, 0);
    let v = run(&w, &plan, &goal).expect("the unstarted source is a violation");
    assert_eq!(v.step, Some(0));
    assert!(v.message.contains("not running"), "{}", v.message);
}

/// A down node is one violation with one message, whether or not the
/// step would also reserve CPU there.
#[test]
fn down_node_reports_down_both_ways() {
    let w = MailWorld::build(2);
    let goal = goal(w.sites.se[0], true, None);
    let (plan, _) = w.plan_service(&goal).unwrap();
    let decryptor = plan
        .steps
        .iter()
        .rposition(|s| matches!(s, PlanStep::Deploy { .. }))
        .unwrap();
    w.sites.network.fail_node(w.sites.se[0]);
    let v = run(&w, &plan, &goal).expect("deploying onto a down node is a violation");
    assert_eq!(v.step, Some(decryptor));
    assert_eq!(v.message, format!("node {} is down", w.sites.se[0].0));
    let report = w.deployer.last_rollback().unwrap();
    assert!(report.error.ends_with("is down"), "{}", report.error);
}

/// With the guard's key broken and every hop on a secure path, no
/// channel handshake can catch the unprovable identity: `execute` must
/// prove it, and fail where pre-flight reports PSF012.
#[test]
fn broken_guard_fails_a_secure_path_deploy_at_psf012() {
    let w = MailWorld::build(2);
    let (ny0, ny1) = (w.sites.ny[0], w.sites.ny[1]);
    let plan = Plan {
        steps: vec![
            PlanStep::UseDeployed {
                spec: "MailServer".into(),
                node: ny0,
                iface: "MailI".into(),
            },
            PlanStep::Deploy {
                spec: "Encryptor".into(),
                node: ny0,
                iface_in: Some("MailI".into()),
                iface_out: "MailI".into(),
            },
            PlanStep::Move {
                iface: "MailI".into(),
                from: ny0,
                to: ny1,
                latency_ms: 1.0,
                secure_path: true,
            },
            PlanStep::Deploy {
                spec: "Decryptor".into(),
                node: ny1,
                iface_in: Some("MailI".into()),
                iface_out: "MailI".into(),
            },
        ],
        delivered: psf_core::IfaceProps::at_source(),
        cost: 0.0,
    };
    let goal = goal(ny1, true, None);
    assert!(
        run(&w, &plan, &goal).is_none(),
        "the plan deploys while the key holds"
    );

    break_guard(&w);
    let v = run(&w, &plan, &goal).expect("an unprovable identity is a violation");
    assert_eq!(v.kind, PreflightViolationKind::DeployAuthorization);
    assert_eq!(v.step, Some(1));
    assert_eq!(w.deployer.last_rollback().unwrap().failed_step, 1);
}
