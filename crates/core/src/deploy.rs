//! The deployment infrastructure (paper §2.1/§4.3): "securely
//! instantiates, links, and executes the components on the given nodes";
//! "once the views are generated, the deployment infrastructure issues to
//! the generated view its own set of credentials, downloads them onto
//! their target nodes, and connects them to other components using secure
//! channels".
//!
//! One walk over a plan, `Deployer::walk_plan`, states every rule a plan
//! must pass and the message each broken rule reports. Its side effects
//! come from a `PlanEffects` value: [`Deployer::execute`] walks with
//! effects that acquire (CPU, published identities proved through the
//! guard, channels, instances) and stop at the first violation;
//! [`Deployer::preflight`] walks with [`crate::preflight`]'s recording
//! effects, which acquire nothing and note every violation.

use crate::model::Goal;
use crate::planner::{Plan, PlanStep};
use crate::preflight::{PreflightViolation, PreflightViolationKind, Record};
use crate::PsfError;
use parking_lot::Mutex;
use psf_drbac::entity::Entity;
use psf_drbac::guard::Guard;
use psf_drbac::SignedDelegation;
use psf_netsim::{Network, NodeId};
use psf_switchboard::{
    pair_in_memory, pair_in_memory_plain, AuthSuite, Authorizer, Channel, ChannelConfig, ClockRef,
};
use psf_telemetry::SpanGuard;
use psf_views::binding::{InProcessRemote, RemoteCall};
use psf_views::{
    CoherencePolicy, ComponentClass, ComponentInstance, GeneratedView, MethodLibrary, ViewInstance,
    ViewSpec, Vig,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic 64-bit mixer (splitmix64 finalizer): the source of all
/// "randomness" in fault injection and retry jitter, so a seed fully
/// determines behavior — no wall-clock entropy.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bounded retry with exponential backoff and deterministic jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total execution attempts (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff, jitter included.
    pub max_backoff: Duration,
    /// Seed for the jitter mixer: same seed → same backoff sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep after failed `attempt` (1-indexed):
    /// `base * 2^(attempt-1)` plus up to +50% deterministic jitter,
    /// capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
        let jitter_pct = mix64(self.jitter_seed ^ u64::from(attempt)) % 50;
        let jitter = Duration::from_nanos((exp.as_nanos() as u64 / 100).saturating_mul(jitter_pct));
        (exp + jitter).min(self.max_backoff)
    }
}

/// A deterministic schedule of injected deployment failures, addressed by
/// (attempt, step index). Two combinable modes: explicit
/// [`fail_at`](DeployFaultPlan::fail_at) entries, and a seeded pseudo-random mode
/// ([`seeded`](DeployFaultPlan::seeded)) that fails each step with a fixed
/// probability, capped at `max_faults` total so a bounded retry can always
/// recover.
#[derive(Clone, Debug, Default)]
pub struct DeployFaultPlan {
    scheduled: Vec<(u32, usize)>,
    seed: Option<u64>,
    probability_pct: u64,
    max_faults: u32,
}

impl DeployFaultPlan {
    /// Fail step `step` (0-indexed) of attempt `attempt` (1-indexed).
    pub fn fail_at(attempt: u32, step: usize) -> DeployFaultPlan {
        DeployFaultPlan::default().and_fail_at(attempt, step)
    }

    /// Add another scheduled failure.
    pub fn and_fail_at(mut self, attempt: u32, step: usize) -> DeployFaultPlan {
        self.scheduled.push((attempt, step));
        self
    }

    /// Seeded random mode: each (attempt, step) fails with
    /// `probability_pct`% probability, derived purely from `seed` — the
    /// same seed always yields the same failures. At most `max_faults`
    /// faults fire per `execute` call; keep it below the retry policy's
    /// `max_attempts` to guarantee an eventually clean attempt.
    pub fn seeded(seed: u64, probability_pct: u64, max_faults: u32) -> DeployFaultPlan {
        DeployFaultPlan {
            scheduled: Vec::new(),
            seed: Some(seed),
            probability_pct: probability_pct.min(100),
            max_faults,
        }
    }

    fn should_fail(&self, attempt: u32, step: usize, fired: u32) -> bool {
        if self
            .scheduled
            .iter()
            .any(|&(a, s)| a == attempt && s == step)
        {
            return true;
        }
        if let Some(seed) = self.seed {
            if fired < self.max_faults {
                let roll = mix64(seed ^ (u64::from(attempt) << 32) ^ step as u64) % 100;
                return roll < self.probability_pct;
            }
        }
        false
    }
}

/// What a rollback undid — the observable proof that a failed attempt
/// released everything it had acquired.
#[derive(Clone, Debug)]
pub struct RollbackReport {
    /// Which attempt failed (1-indexed).
    pub attempt: u32,
    /// The step index at which the attempt failed.
    pub failed_step: usize,
    /// The error that triggered the rollback.
    pub error: String,
    /// Total CPU units released back to their nodes.
    pub released_cpu: u32,
    /// Channels closed (both halves each).
    pub closed_channels: usize,
    /// Credential ids revoked on the `RevocationBus`.
    pub revoked_credential_ids: Vec<String>,
}

/// Factory turning an upstream endpoint into a transformed endpoint
/// (encryptors/decryptors are endpoint middleware in the data plane).
pub type MiddlewareFactory = Arc<dyn Fn(Arc<dyn RemoteCall>) -> Arc<dyn RemoteCall> + Send + Sync>;

/// Everything the deployer needs to turn plan steps into running code.
#[derive(Clone, Default)]
pub struct AppBundle {
    /// Source component classes by template name.
    pub classes: HashMap<String, Arc<ComponentClass>>,
    /// View definitions by template name (templates with `view_of`).
    pub view_specs: HashMap<String, ViewSpec>,
    /// Method bodies for VIG.
    pub library: MethodLibrary,
    /// Data-plane middleware by template name.
    pub middleware: HashMap<String, MiddlewareFactory>,
    /// CPU cost per template (from its
    /// [`ComponentSpec`](crate::model::ComponentSpec)); used for node reservation at
    /// deployment time.
    pub cpu_costs: HashMap<String, u32>,
}

impl AppBundle {
    /// Empty bundle.
    pub fn new() -> AppBundle {
        AppBundle::default()
    }

    /// Register a source class.
    pub fn class(mut self, name: impl Into<String>, class: Arc<ComponentClass>) -> Self {
        self.classes.insert(name.into(), class);
        self
    }

    /// Register a view template.
    pub fn view(mut self, name: impl Into<String>, spec: ViewSpec) -> Self {
        self.view_specs.insert(name.into(), spec);
        self
    }

    /// Register middleware.
    pub fn middleware_factory(
        mut self,
        name: impl Into<String>,
        factory: MiddlewareFactory,
    ) -> Self {
        self.middleware.insert(name.into(), factory);
        self
    }

    /// Set the VIG method library.
    pub fn with_library(mut self, library: MethodLibrary) -> Self {
        self.library = library;
        self
    }

    /// Record a template's CPU cost (usually from its spec).
    pub fn cpu_cost(mut self, name: impl Into<String>, cost: u32) -> Self {
        self.cpu_costs.insert(name.into(), cost);
        self
    }
}

/// A running artifact produced by one plan step.
pub enum Deployed {
    /// A source component instance.
    Component(Arc<ComponentInstance>),
    /// A VIG-generated view instance.
    View(Arc<ViewInstance>),
    /// A data-plane middleware endpoint.
    Middleware(Arc<dyn RemoteCall>),
}

impl Deployed {
    /// Short kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            Deployed::Component(_) => "component",
            Deployed::View(_) => "view",
            Deployed::Middleware(_) => "middleware",
        }
    }
}

/// The realized deployment: running components + the client's endpoint.
pub struct Deployment {
    /// CPU reservations made on nodes: (node, units).
    pub reservations: Vec<(NodeId, u32)>,
    /// What ran where: (template, node, artifact).
    pub placements: Vec<(String, NodeId, Deployed)>,
    /// Identities issued to instantiated components.
    pub issued_identities: Vec<Entity>,
    /// Credentials issued to instantiated components.
    pub issued_credentials: Vec<SignedDelegation>,
    /// Channels created between nodes (kept alive by the deployment):
    /// (client half — also in use as an endpoint — and server half).
    pub channels: Vec<(Arc<Channel>, Channel)>,
    /// The endpoint the client invokes.
    pub endpoint: Arc<dyn RemoteCall>,
}

impl Deployment {
    /// Number of cross-node channels established.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Tear the deployment down: close every channel, release CPU
    /// reservations, and revoke the credentials issued to its components
    /// (instances die with their credentials — nothing lingers
    /// authorized).
    pub fn teardown(self, network: Option<&Network>, guard: &Guard) {
        for (client, server) in &self.channels {
            client.close();
            server.close();
        }
        if let Some(net) = network {
            for (node, units) in &self.reservations {
                net.release_cpu(*node, *units);
            }
        }
        guard
            .bus()
            .revoke_all(self.issued_credentials.iter().map(|c| c.id()));
    }
}

/// Wraps a [`ViewInstance`] as a callable endpoint.
pub struct ViewEndpoint(pub Arc<ViewInstance>);

impl RemoteCall for ViewEndpoint {
    fn call_remote(&self, method: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        self.0.invoke(method, args)
    }
    fn transport_label(&self) -> &'static str {
        "view"
    }
}

/// The deployment infrastructure.
pub struct Deployer {
    guard: Arc<Guard>,
    clock: ClockRef,
    bundle: AppBundle,
    network: Option<Network>,
    config: ChannelConfig,
    /// Already-running source instances (shared with the registrar's
    /// `record_deployed` bookkeeping).
    running: Mutex<HashMap<(String, NodeId), Arc<ComponentInstance>>>,
    serial: std::sync::atomic::AtomicU64,
    retry: Mutex<RetryPolicy>,
    fault_plan: Mutex<Option<DeployFaultPlan>>,
    last_rollback: Mutex<Option<RollbackReport>>,
}

/// Everything a single execution attempt has acquired so far; on failure
/// the whole state is rolled back as one transaction.
#[derive(Default)]
struct TxState {
    reservations: Vec<(NodeId, u32)>,
    placements: Vec<(String, NodeId, Deployed)>,
    issued_identities: Vec<Entity>,
    issued_credentials: Vec<SignedDelegation>,
    channels: Vec<(Arc<Channel>, Channel)>,
    /// The endpoint the steps run so far deliver.
    endpoint: Option<Arc<dyn RemoteCall>>,
    /// The step being run; the step count once every step has run.
    step: usize,
}

/// What a plan step does besides passing the walk's rules.
/// [`Deployer::walk_plan`] owns every rule and every message; the effects
/// decide what a step acquires and what a broken rule costs. [`Acquire`]
/// builds the deployment and stops at the first violation; pre-flight's
/// [`Record`] acquires nothing and notes every violation. A default
/// method is that effect switched off.
pub(crate) trait PlanEffects {
    /// An identity issued by [`identify`](Self::identify).
    type Identity;
    /// A rule is broken at `step` (`None`: the whole plan); `Err` ends the
    /// walk.
    fn violation(
        &mut self,
        kind: PreflightViolationKind,
        step: Option<usize>,
        message: String,
    ) -> Result<(), PsfError>;
    /// Take `cost` CPU units on `node`, which is up; `false` if it lacks
    /// them.
    fn reserve_cpu(&mut self, net: &Network, node: NodeId, cost: u32) -> bool;
    /// Issue an identity for `template` on `node`, with the verdict on
    /// whether it proves `Guard.Component`.
    fn identify(&mut self, template: &str, node: NodeId) -> (Self::Identity, Result<(), String>);
    /// Step `idx` begins.
    fn begin(&mut self, _idx: usize, _step: &PlanStep) -> Result<(), PsfError> {
        Ok(())
    }
    /// The step that began last passed every rule.
    fn end(&mut self) {}
    /// Serve a running source instance.
    fn use_source(&mut self, _source: Arc<ComponentInstance>) {}
    /// Carry the endpoint across a hop: a plain channel when `ends` is
    /// `None`, else Switchboard mutual authorization between the two.
    fn link(&mut self, _ends: Option<(Self::Identity, Self::Identity)>) -> Result<(), PsfError> {
        Ok(())
    }
    /// Bind a generated view over the endpoint.
    fn place_view(
        &mut self,
        _spec: &str,
        _node: NodeId,
        _view: &Arc<GeneratedView>,
    ) -> Result<(), PsfError> {
        Ok(())
    }
    /// Wrap the endpoint in middleware.
    fn place_middleware(&mut self, _spec: &str, _node: NodeId, _factory: &MiddlewareFactory) {}
    /// Instantiate a component class as the new endpoint.
    fn place_component(&mut self, _spec: &str, _node: NodeId, _class: &Arc<ComponentClass>) {}
}

/// `execute`'s effects: reserve, issue and publish, link, instantiate —
/// all recorded on the attempt's [`TxState`] — and fail at the first
/// violation.
struct Acquire<'a> {
    deployer: &'a Deployer,
    attempt: u32,
    faults: Option<&'a DeployFaultPlan>,
    fired: &'a mut u32,
    tx: TxState,
    /// The running step's span and start time.
    step: Option<(SpanGuard<'static>, Instant)>,
}

impl Acquire<'_> {
    /// The endpoint a link or layer consumes.
    fn upstream(&self) -> Arc<dyn RemoteCall> {
        let endpoint = self.tx.endpoint.clone();
        endpoint.expect("walk_plan checks that an endpoint exists before it links or layers")
    }
}

impl PlanEffects for Acquire<'_> {
    type Identity = (Entity, SignedDelegation);

    fn violation(
        &mut self,
        _kind: PreflightViolationKind,
        _step: Option<usize>,
        message: String,
    ) -> Result<(), PsfError> {
        Err(PsfError::DeployFailed(message))
    }

    fn reserve_cpu(&mut self, net: &Network, node: NodeId, cost: u32) -> bool {
        let reserved = net.reserve_cpu(node, cost);
        if reserved {
            self.tx.reservations.push((node, cost));
        }
        reserved
    }

    /// Issue and publish, then prove the credential through the guard:
    /// an identity that cannot authorize fails the deployment closed.
    fn identify(&mut self, template: &str, node: NodeId) -> (Self::Identity, Result<(), String>) {
        let d = self.deployer;
        let (entity, cred) = d.issue_identity(template, node);
        self.tx.issued_identities.push(entity.clone());
        self.tx.issued_credentials.push(cred.clone());
        let (subject, role) = (entity.as_subject(), d.guard.role("Component"));
        let presented = std::slice::from_ref(&cred);
        let verdict = d.guard.authorize(&subject, &role, presented, d.clock.now());
        ((entity, cred), verdict.map(drop).map_err(|e| e.to_string()))
    }

    fn begin(&mut self, idx: usize, step: &PlanStep) -> Result<(), PsfError> {
        self.tx.step = idx;
        if let Some(fp) = self.faults {
            if fp.should_fail(self.attempt, idx, *self.fired) {
                *self.fired += 1;
                psf_telemetry::counter!("psf.deploy.faults.injected").inc();
                return Err(PsfError::DeployFailed(format!(
                    "injected fault: attempt {}, step {idx}",
                    self.attempt
                )));
            }
        }
        let mut span = psf_telemetry::span("psf.deploy", "step");
        match step {
            PlanStep::UseDeployed { spec, node, .. } => span
                .field("kind", "use_deployed")
                .field("template", spec)
                .field("node", node.0),
            PlanStep::Move {
                from,
                to,
                secure_path,
                ..
            } => span
                .field("kind", "move")
                .field("from", from.0)
                .field("to", to.0)
                .field("secure_path", secure_path),
            PlanStep::Deploy { spec, node, .. } => span
                .field("kind", "deploy")
                .field("template", spec)
                .field("node", node.0),
        };
        self.step = Some((span, Instant::now()));
        Ok(())
    }

    fn end(&mut self) {
        if let Some((_span, start)) = self.step.take() {
            psf_telemetry::counter!("psf.deploy.steps").inc();
            psf_telemetry::histogram!("psf.deploy.step.us").record_duration(start.elapsed());
        }
        self.tx.step += 1;
    }

    fn use_source(&mut self, source: Arc<ComponentInstance>) {
        self.tx.endpoint = Some(InProcessRemote::switchboard(source));
    }

    fn link(&mut self, ends: Option<(Self::Identity, Self::Identity)>) -> Result<(), PsfError> {
        let d = self.deployer;
        let (client_side, server_side) = match ends {
            None => {
                psf_telemetry::counter!("psf.deploy.channels.plain").inc();
                pair_in_memory_plain(d.config.clone())
            }
            Some(((client, client_cred), (server, server_cred))) => {
                let suite = |entity, cred| {
                    let authorizer = Authorizer::new(
                        d.guard.registry().clone(),
                        d.guard.repository().clone(),
                        d.guard.bus().clone(),
                        d.clock.clone(),
                        d.guard.role("Component"),
                    );
                    AuthSuite::new(entity, vec![cred], authorizer)
                };
                let pair = pair_in_memory(
                    suite(client, client_cred),
                    suite(server, server_cred),
                    d.config.clone(),
                )
                .map_err(|e| PsfError::DeployFailed(format!("channel handshake: {e}")))?;
                psf_telemetry::counter!("psf.deploy.channels.secure").inc();
                pair
            }
        };
        // Serve the upstream endpoint on the provider side. The catch-all
        // runs off-shard, so a forwarded call may wait on the next hop.
        let served = self.upstream();
        server_side.register_default_handler(move |method, args| served.call_remote(method, args));
        let client = Arc::new(client_side);
        self.tx.endpoint = Some(client.clone());
        // Keep both halves alive for the deployment's lifetime.
        self.tx.channels.push((client, server_side));
        Ok(())
    }

    fn place_view(
        &mut self,
        spec: &str,
        node: NodeId,
        view: &Arc<GeneratedView>,
    ) -> Result<(), PsfError> {
        let inst = view
            .instantiate(Some(self.upstream()), CoherencePolicy::WriteThrough, 8, b"")
            .map_err(PsfError::DeployFailed)?;
        self.tx.endpoint = Some(Arc::new(ViewEndpoint(inst.clone())));
        self.tx
            .placements
            .push((spec.to_string(), node, Deployed::View(inst)));
        Ok(())
    }

    fn place_middleware(&mut self, spec: &str, node: NodeId, factory: &MiddlewareFactory) {
        let wrapped = factory(self.upstream());
        self.tx.endpoint = Some(wrapped.clone());
        self.tx
            .placements
            .push((spec.to_string(), node, Deployed::Middleware(wrapped)));
    }

    fn place_component(&mut self, spec: &str, node: NodeId, class: &Arc<ComponentClass>) {
        let inst = class.instantiate();
        self.tx.endpoint = Some(InProcessRemote::switchboard(inst.clone()));
        self.tx
            .placements
            .push((spec.to_string(), node, Deployed::Component(inst)));
    }
}

impl Deployer {
    /// Create a deployer issuing credentials through `guard`.
    pub fn new(guard: Arc<Guard>, clock: ClockRef, bundle: AppBundle) -> Deployer {
        Deployer {
            guard,
            clock,
            bundle,
            network: None,
            config: ChannelConfig {
                heartbeat_interval: None,
                rpc_timeout: std::time::Duration::from_secs(10),
            },
            running: Mutex::new(HashMap::new()),
            serial: std::sync::atomic::AtomicU64::new(1),
            retry: Mutex::new(RetryPolicy::default()),
            fault_plan: Mutex::new(None),
            last_rollback: Mutex::new(None),
        }
    }

    /// Replace the retry policy. Interior mutability so callers that
    /// receive an already-built deployer (e.g. from a scenario builder)
    /// can still tune it.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Install (or clear) a fault plan applied to subsequent
    /// [`execute`](Deployer::execute) calls.
    pub fn set_fault_plan(&self, plan: Option<DeployFaultPlan>) {
        *self.fault_plan.lock() = plan;
    }

    /// Report from the most recent rollback, if any attempt has failed.
    pub fn last_rollback(&self) -> Option<RollbackReport> {
        self.last_rollback.lock().clone()
    }

    /// Attach the network so deployments reserve (and teardown releases)
    /// node CPU.
    pub fn with_network(mut self, network: Network) -> Deployer {
        self.network = Some(network);
        self
    }

    /// Pre-start a source instance on a node (pairs with
    /// `Registrar::record_deployed`).
    pub fn start_source(
        &self,
        template: &str,
        node: NodeId,
    ) -> Result<Arc<ComponentInstance>, PsfError> {
        let class = self
            .bundle
            .classes
            .get(template)
            .ok_or_else(|| PsfError::Unknown(format!("no class for '{template}'")))?;
        let inst = class.instantiate();
        self.running
            .lock()
            .insert((template.to_string(), node), inst.clone());
        Ok(inst)
    }

    /// Fetch a running source instance.
    pub fn source(&self, template: &str, node: NodeId) -> Option<Arc<ComponentInstance>> {
        self.running
            .lock()
            .get(&(template.to_string(), node))
            .cloned()
    }

    /// Issue an identity + component credential for a freshly deployed
    /// artifact ("instantiated components receive their own set of
    /// credentials").
    fn issue_identity(&self, template: &str, node: NodeId) -> (Entity, SignedDelegation) {
        let serial = self
            .serial
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let entity = self
            .guard
            .create_principal(format!("{template}@node{}#{serial}", node.0));
        let cred = self.guard.publish(
            self.guard
                .issue()
                .subject_entity(&entity)
                .role(self.guard.role("Component"))
                .monitored()
                .serial(serial)
                .sign(),
        );
        (entity, cred)
    }

    /// Pre-flight: walk `plan` with effects that acquire nothing and
    /// return every rule it breaks, first failure first. A clean plan
    /// passes every rule [`execute`](Deployer::execute) enforces; only an
    /// effect itself (a handshake, a view binding) or an injected fault
    /// can still fail it. Authorization is one probe proof at this
    /// deployer's clock time.
    pub fn preflight(&self, plan: &Plan, goal: &Goal) -> Vec<PreflightViolation> {
        let mut record = Record::new(&self.guard, self.clock.now());
        // Record's hooks never stop the walk.
        let _ = self.walk_plan(plan, goal, &mut record);
        record.violations
    }

    /// Execute a plan: instantiate every step, wire channels across
    /// nodes, and return the client's endpoint.
    ///
    /// Cross-node hops over insecure paths use full Switchboard channels
    /// (mutual auth + AEAD); secure-path hops use plain channels,
    /// mirroring the paper's rmi/switchboard distinction.
    /// Execution is **transactional**: a failed attempt rolls back every
    /// acquisition it made (CPU reservations released, channels closed,
    /// issued credentials revoked) before the deployer retries under its
    /// [`RetryPolicy`] with deterministic exponential backoff + jitter.
    /// An installed [`DeployFaultPlan`] can fail any (attempt, step) pair
    /// to exercise this path.
    pub fn execute(&self, plan: &Plan, goal: &Goal) -> Result<Deployment, PsfError> {
        let policy = self.retry.lock().clone();
        let fault_plan = self.fault_plan.lock().clone();
        let mut fired = 0u32;
        let mut attempt = 1u32;
        loop {
            let exec_start = Instant::now();
            let mut exec_span = psf_telemetry::span("psf.deploy", "execute");
            exec_span
                .field("steps", plan.steps.len())
                .field("goal_iface", &goal.iface)
                .field("attempt", attempt);
            psf_telemetry::counter!("psf.deploy.executions").inc();
            let mut fx = Acquire {
                deployer: self,
                attempt,
                faults: fault_plan.as_ref(),
                fired: &mut fired,
                tx: TxState::default(),
                step: None,
            };
            let walked = self.walk_plan(plan, goal, &mut fx);
            fx.step = None; // a failure leaves its step's span open
            let tx = fx.tx;
            match walked {
                Ok(()) => {
                    psf_telemetry::histogram!("psf.deploy.execute.us")
                        .record_duration(exec_start.elapsed());
                    psf_telemetry::histogram!("psf.deploy.attempts").record(u64::from(attempt));
                    exec_span
                        .field("placements", tx.placements.len())
                        .field("channels", tx.channels.len())
                        .field("ok", true);
                    return Ok(Deployment {
                        reservations: tx.reservations,
                        placements: tx.placements,
                        issued_identities: tx.issued_identities,
                        issued_credentials: tx.issued_credentials,
                        channels: tx.channels,
                        endpoint: tx.endpoint.expect("a plan that passes the walk delivers"),
                    });
                }
                Err(e) => {
                    psf_telemetry::counter!("psf.deploy.failures").inc();
                    psf_telemetry::event(
                        "psf.deploy",
                        "execute.failed",
                        vec![("error", e.to_string()), ("attempt", attempt.to_string())],
                    );
                    exec_span.field("ok", false);
                    let report = self.rollback(tx, attempt, &e);
                    *self.last_rollback.lock() = Some(report);
                    if attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    let backoff = policy.backoff_for(attempt);
                    psf_telemetry::counter!("psf.deploy.retries").inc();
                    psf_telemetry::histogram!("psf.deploy.backoff.us").record_duration(backoff);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
            }
        }
    }

    /// Undo a partially executed attempt: close its channels, release its
    /// CPU reservations, and revoke every credential it issued — nothing
    /// acquired by a failed attempt outlives it.
    fn rollback(&self, tx: TxState, attempt: u32, error: &PsfError) -> RollbackReport {
        psf_telemetry::counter!("psf.deploy.rollbacks").inc();
        let mut span = psf_telemetry::span("psf.deploy", "rollback");
        for (client, server) in &tx.channels {
            client.close();
            server.close();
        }
        let mut released = 0u32;
        if let Some(net) = &self.network {
            for (node, units) in &tx.reservations {
                net.release_cpu(*node, *units);
                released += units;
            }
        }
        let ids: Vec<String> = tx.issued_credentials.iter().map(|c| c.id()).collect();
        self.guard.bus().revoke_all(&ids);
        span.field("attempt", attempt)
            .field("failed_step", tx.step)
            .field("released_cpu", released)
            .field("closed_channels", tx.channels.len())
            .field("revoked", ids.len());
        RollbackReport {
            attempt,
            failed_step: tx.step,
            error: error.to_string(),
            released_cpu: released,
            closed_channels: tx.channels.len(),
            revoked_credential_ids: ids,
        }
    }

    /// The one plan walk. It owns every rule a plan must pass and the
    /// message each broken rule reports, in the order they are checked;
    /// `fx` decides what a step acquires and whether a violation ends the
    /// walk. `execute` walks with [`Acquire`] and `preflight` with
    /// [`Record`], so the two cannot disagree on a rule.
    fn walk_plan<E: PlanEffects>(
        &self,
        plan: &Plan,
        goal: &Goal,
        fx: &mut E,
    ) -> Result<(), PsfError> {
        use PreflightViolationKind::{ChannelAuthorization, DeployAuthorization, InvalidStepChain};
        let role = self.guard.role("Component");
        let at = |n: Option<NodeId>| n.map_or("∅".to_string(), |n| n.0.to_string());
        let mut current: Option<NodeId> = None;
        let mut has_endpoint = false;
        for (idx, step) in plan.steps.iter().enumerate() {
            fx.begin(idx, step)?;
            let chain =
                |fx: &mut E, message: String| fx.violation(InvalidStepChain, Some(idx), message);
            match step {
                PlanStep::UseDeployed { spec, node, .. } => {
                    match self.source(spec, *node) {
                        Some(source) => fx.use_source(source),
                        None => chain(
                            fx,
                            format!("source '{spec}' not running on node {}", node.0),
                        )?,
                    }
                    has_endpoint = true;
                    current = Some(*node);
                }
                PlanStep::Move {
                    from,
                    to,
                    secure_path,
                    ..
                } => {
                    if current != Some(*from) {
                        let message = format!(
                            "plan moves an interface from node {} but the service is at {}",
                            from.0,
                            at(current)
                        );
                        chain(fx, message)?;
                    }
                    if !has_endpoint {
                        chain(fx, "move before any endpoint".into())?;
                    }
                    let ends = if *secure_path {
                        None
                    } else {
                        let (client, client_ok) = fx.identify("conn-client", *to);
                        let (server, server_ok) = fx.identify("conn-server", *from);
                        if let Err(e) = client_ok.and(server_ok) {
                            let message = format!(
                                "insecure hop {}→{} requires Switchboard mutual auth, but a \
                                 guard-issued endpoint identity cannot prove '{role}': {e}",
                                from.0, to.0
                            );
                            fx.violation(ChannelAuthorization, Some(idx), message)?;
                        }
                        Some((client, server))
                    };
                    fx.link(ends)?;
                    current = Some(*to);
                }
                PlanStep::Deploy { spec, node, .. } => {
                    if current != Some(*node) {
                        let message = format!(
                            "plan deploys '{spec}' on node {} away from its input at {}",
                            node.0,
                            at(current)
                        );
                        chain(fx, message)?;
                    }
                    if let Some(net) = &self.network {
                        let cost = self.bundle.cpu_costs.get(spec).copied().unwrap_or(0);
                        if !net.node_is_up(*node) {
                            chain(fx, format!("node {} is down", node.0))?;
                        } else if cost > 0 && !fx.reserve_cpu(net, *node, cost) {
                            chain(fx, format!("node {} lacks {cost} CPU for '{spec}'", node.0))?;
                        }
                    }
                    if let (_, Err(e)) = fx.identify(spec, *node) {
                        let message =
                            format!("identity issued for '{spec}' could not prove '{role}': {e}");
                        fx.violation(DeployAuthorization, Some(idx), message)?;
                    }
                    if let Some(vspec) = self.bundle.view_specs.get(spec) {
                        let view = match self.bundle.classes.get(&vspec.represents) {
                            None => Err(format!(
                                "view '{spec}' represents unknown class '{}'",
                                vspec.represents
                            )),
                            Some(class) => Vig::new(self.bundle.library.clone())
                                .generate(class, vspec)
                                .map_err(|e| format!("VIG rejects view '{spec}': {e}")),
                        };
                        match view {
                            Err(message) => chain(fx, message)?,
                            Ok(view) if has_endpoint => fx.place_view(spec, *node, &view)?,
                            Ok(_) => {}
                        }
                        if !has_endpoint {
                            chain(fx, "view deployed before source".into())?;
                        }
                    } else if let Some(factory) = self.bundle.middleware.get(spec) {
                        if has_endpoint {
                            fx.place_middleware(spec, *node, factory);
                        } else {
                            chain(fx, "middleware before source".into())?;
                        }
                    } else if let Some(class) = self.bundle.classes.get(spec) {
                        fx.place_component(spec, *node, class);
                    } else {
                        chain(fx, format!("no artifact registered for template '{spec}'"))?;
                    }
                    has_endpoint = true;
                }
            }
            fx.end();
        }
        if plan.steps.is_empty() {
            fx.violation(InvalidStepChain, None, "empty plan".into())
        } else if current != Some(goal.client_node) {
            let (at, client) = (at(current), goal.client_node.0);
            let message =
                format!("plan terminates at node {at} instead of the client's node {client}");
            fx.violation(InvalidStepChain, None, message)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ComponentSpec, Effect, Goal};
    use crate::oracle::PermissiveOracle;
    use crate::planner::{Planner, PlannerConfig};
    use crate::registrar::Registrar;
    use psf_drbac::entity::EntityRegistry;
    use psf_drbac::repository::Repository;
    use psf_drbac::revocation::RevocationBus;
    use psf_netsim::three_site_scenario;
    use psf_views::ExposureType;

    fn counter_class() -> Arc<ComponentClass> {
        ComponentClass::builder("KvStore")
            .interface("KvI", ["put", "get"])
            .field("data", "Map")
            .method("put", "void put(kv)", &["data"], true, |st, args| {
                let kv = String::from_utf8_lossy(args).to_string();
                let mut data = st.get_str("data");
                data.push_str(&kv);
                data.push('\n');
                st.set("data", data);
                Ok(vec![])
            })
            .method("get", "String get()", &["data"], false, |st, _| {
                Ok(st.get("data"))
            })
            .build()
            .unwrap()
    }

    fn test_guard() -> Arc<Guard> {
        Arc::new(Guard::new(
            Entity::with_seed("Deploy.Domain", b"dep"),
            EntityRegistry::new(),
            Repository::new(),
            RevocationBus::new(),
        ))
    }

    #[test]
    fn deploy_simple_plan_end_to_end() {
        let s = three_site_scenario(2);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(
            ComponentSpec::processor("KvView", "KvI", "KvI", Effect::Cache)
                .view_of("KvStore")
                .cpu(5),
        );
        registrar.record_deployed("KvStore", s.ny[0]);

        let bundle = AppBundle::new().class("KvStore", counter_class()).view(
            "KvView",
            ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
        );
        let deployer = Deployer::new(test_guard(), ClockRef::new(), bundle);
        deployer.start_source("KvStore", s.ny[0]).unwrap();

        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        // Low-latency demand in SD forces the view cache there.
        let goal = Goal {
            iface: "KvI".into(),
            client_node: s.sd[0],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        let deployment = deployer.execute(&plan, &goal).unwrap();

        // The client endpoint works: write through the view, read back.
        deployment.endpoint.call_remote("put", b"k=v").unwrap();
        let got = deployment.endpoint.call_remote("get", b"").unwrap();
        assert_eq!(got, b"k=v\n");

        // The write propagated to the original KvStore in NY (coherence).
        let origin = deployer.source("KvStore", s.ny[0]).unwrap();
        assert_eq!(origin.field("data"), b"k=v\n");

        // Credentials were issued to the instantiated artifacts.
        assert!(!deployment.issued_credentials.is_empty());
        // A cross-node hop exists.
        assert!(deployment.channel_count() >= 1);
    }

    /// CPU available on every node, for leak accounting across attempts.
    fn cpu_snapshot(net: &Network) -> Vec<u32> {
        net.node_ids()
            .into_iter()
            .map(|id| net.node(id).unwrap().cpu_available())
            .collect()
    }

    #[test]
    fn injected_fault_rolls_back_then_retry_succeeds() {
        let s = three_site_scenario(2);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(
            ComponentSpec::processor("KvView", "KvI", "KvI", Effect::Cache)
                .view_of("KvStore")
                .cpu(5),
        );
        registrar.record_deployed("KvStore", s.ny[0]);

        let bundle = AppBundle::new()
            .class("KvStore", counter_class())
            .view(
                "KvView",
                ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
            )
            .cpu_cost("KvView", 5);
        let guard = test_guard();
        let deployer =
            Deployer::new(guard.clone(), ClockRef::new(), bundle).with_network(s.network.clone());
        deployer.start_source("KvStore", s.ny[0]).unwrap();

        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "KvI".into(),
            client_node: s.sd[0],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        assert!(plan.steps.len() >= 2, "need a multi-step plan to fault");

        let before = cpu_snapshot(&s.network);
        // Fail the last step of the first attempt: everything acquired by
        // the earlier steps must be rolled back before the retry.
        deployer.set_fault_plan(Some(DeployFaultPlan::fail_at(1, plan.steps.len() - 1)));
        let deployment = deployer.execute(&plan, &goal).unwrap();

        let report = deployer.last_rollback().expect("a rollback happened");
        assert_eq!(report.attempt, 1);
        assert_eq!(report.failed_step, plan.steps.len() - 1);
        for id in &report.revoked_credential_ids {
            assert!(guard.bus().is_revoked(id), "rollback revokes {id}");
        }
        // The successful attempt's credentials are NOT revoked.
        for cred in &deployment.issued_credentials {
            assert!(!guard.bus().is_revoked(&cred.id()));
        }
        // The endpoint works after recovery.
        deployment.endpoint.call_remote("put", b"k=v").unwrap();

        // Teardown returns the network exactly to its pre-deploy state.
        deployment.teardown(Some(&s.network), &guard);
        assert_eq!(cpu_snapshot(&s.network), before, "no leaked reservations");
    }

    #[test]
    fn exhausted_retries_fail_with_no_leaks() {
        let s = three_site_scenario(2);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(
            ComponentSpec::processor("KvView", "KvI", "KvI", Effect::Cache)
                .view_of("KvStore")
                .cpu(5),
        );
        registrar.record_deployed("KvStore", s.ny[0]);
        let bundle = AppBundle::new()
            .class("KvStore", counter_class())
            .view(
                "KvView",
                ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
            )
            .cpu_cost("KvView", 5);
        let guard = test_guard();
        let deployer =
            Deployer::new(guard.clone(), ClockRef::new(), bundle).with_network(s.network.clone());
        deployer.start_source("KvStore", s.ny[0]).unwrap();
        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "KvI".into(),
            client_node: s.sd[0],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        let last = plan.steps.len() - 1;

        let before = cpu_snapshot(&s.network);
        // Fault every attempt: execution must give up after max_attempts,
        // leaving zero residue.
        deployer.set_fault_plan(Some(
            DeployFaultPlan::fail_at(1, last)
                .and_fail_at(2, last)
                .and_fail_at(3, last),
        ));
        deployer.set_retry_policy(RetryPolicy {
            base_backoff: Duration::from_micros(100),
            ..RetryPolicy::default()
        });
        let err = match deployer.execute(&plan, &goal) {
            Err(e) => e,
            Ok(_) => panic!("all attempts faulted — execute must fail"),
        };
        assert!(matches!(err, PsfError::DeployFailed(_)));
        assert_eq!(deployer.last_rollback().unwrap().attempt, 3);
        assert_eq!(cpu_snapshot(&s.network), before, "no leaked reservations");
    }

    #[test]
    fn seeded_fault_plan_is_deterministic_and_bounded() {
        let a = DeployFaultPlan::seeded(42, 100, 2);
        let b = DeployFaultPlan::seeded(42, 100, 2);
        for attempt in 1..4u32 {
            for step in 0..5usize {
                assert_eq!(
                    a.should_fail(attempt, step, 0),
                    b.should_fail(attempt, step, 0),
                    "same seed, same verdict"
                );
            }
        }
        // At 100% probability every step fails — until the cap is hit.
        assert!(a.should_fail(1, 0, 0));
        assert!(a.should_fail(1, 0, 1));
        assert!(!a.should_fail(1, 0, 2), "max_faults caps random faults");
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(1), p.backoff_for(1), "deterministic");
        assert!(p.backoff_for(1) >= p.base_backoff);
        // Jitter adds at most +50% to the exponential base.
        assert!(p.backoff_for(2) <= Duration::from_millis(3));
        for attempt in 1..20u32 {
            assert!(p.backoff_for(attempt) <= p.max_backoff, "capped");
        }
        let other = RetryPolicy {
            jitter_seed: 0xfeed,
            ..RetryPolicy::default()
        };
        // Different seeds de-synchronize retry storms (usually differ).
        let differs = (1..8u32).any(|a| p.backoff_for(a) != other.backoff_for(a));
        assert!(differs);
    }

    #[test]
    fn deploy_fails_for_unknown_template() {
        let s = three_site_scenario(1);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("Ghost", "GhostI"));
        registrar.record_deployed("Ghost", s.ny[0]);
        let deployer = Deployer::new(test_guard(), ClockRef::new(), AppBundle::new());
        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "GhostI".into(),
            client_node: s.ny[0],
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: false,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        // Ghost is recorded with the registrar but never started: it is
        // not running for pre-flight either.
        let violations = deployer.preflight(&plan, &goal);
        assert!(
            violations[0].message.contains("not running"),
            "{violations:?}"
        );
        assert!(deployer.execute(&plan, &goal).is_err());
    }

    #[test]
    fn middleware_is_wired_into_the_endpoint_chain() {
        let s = three_site_scenario(1);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(ComponentSpec::processor(
            "Shouter",
            "KvI",
            "LoudKvI",
            Effect::Identity,
        ));
        registrar.record_deployed("KvStore", s.ny[0]);

        struct Upper(Arc<dyn RemoteCall>);
        impl RemoteCall for Upper {
            fn call_remote(&self, m: &str, a: &[u8]) -> Result<Vec<u8>, String> {
                let out = self.0.call_remote(m, a)?;
                Ok(out.to_ascii_uppercase())
            }
            fn transport_label(&self) -> &'static str {
                "middleware"
            }
        }
        let bundle = AppBundle::new()
            .class("KvStore", counter_class())
            .middleware_factory("Shouter", Arc::new(|up| Arc::new(Upper(up))));
        let deployer = Deployer::new(test_guard(), ClockRef::new(), bundle);
        deployer.start_source("KvStore", s.ny[0]).unwrap();

        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "LoudKvI".into(),
            client_node: s.ny[0],
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: false,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        let deployment = deployer.execute(&plan, &goal).unwrap();
        deployment
            .endpoint
            .call_remote("put", b"hello=world")
            .unwrap();
        let got = deployment.endpoint.call_remote("get", b"").unwrap();
        assert_eq!(got, b"HELLO=WORLD\n");
    }
}
