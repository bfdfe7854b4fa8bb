//! # psf-core
//!
//! The **Partitionable Services Framework** (HPDC'03 §2.1): "PSF relies
//! on four elements: (1) a declarative specification of application and
//! environment characteristics, (2) a monitoring module, (3) a planning
//! module, and (4) a deployment infrastructure."
//!
//! * [`model`] — the declarative component model: components *implement*
//!   and *require* typed interfaces with properties; property transforms
//!   (encrypt / decrypt / cache / gateway) describe how a deployed
//!   component changes interface properties, and nodes/links influence
//!   them in transit.
//! * [`registrar`] — where applications register component specs (and
//!   their *views*, which "enrich the set of components available for
//!   dynamic deployment") and where base interface availability is
//!   recorded.
//! * [`planner`] — a Sekitei-style planner (IPDPS'03) combining
//!   *regression* (backward relevance pruning from the goal) with
//!   *progression* (forward Dijkstra search over interface states),
//!   subject to network properties, node capacity, and dRBAC
//!   authorization; a parallel variant expands the frontier on
//!   `std::thread::scope` worker threads.
//! * [`oracle`] — the authorization constraint oracle: the paper's node
//!   authorization ("map node credentials onto application policy
//!   roles"), and component authorization ("a node accepts a component
//!   only if it recognizes the chain of credentials"), both answered by
//!   dRBAC proof search.
//! * [`deploy`] — the deployment infrastructure: "securely instantiates,
//!   links, and executes the components on the given nodes"; issues each
//!   instantiated component its own credentials and connects pairs with
//!   Switchboard channels. One plan walk states every deployment rule;
//!   execution and pre-flight are that walk with different effects.
//! * [`monitor`] — adaptation: watches netsim events and replans when the
//!   environment changes.
//! * [`preflight`] — static plan pre-flight: the deployer's plan walk with
//!   recording effects, reporting every rule a plan breaks (step chain,
//!   templates, CPU, deploy and channel authorization) before anything is
//!   acquired; feeds psf-analysis PSF011–PSF013.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod model;
pub mod monitor;
pub mod oracle;
pub mod planner;
pub mod preflight;
pub mod registrar;
pub mod repo_service;
pub mod supervisor;

pub use deploy::{
    AppBundle, DeployFaultPlan, Deployed, Deployer, Deployment, RetryPolicy, RollbackReport,
};
pub use model::{ComponentSpec, Effect, Goal, IfaceProps, Provided};
pub use monitor::{AdaptationLoop, AdaptationOutcome};
pub use oracle::{AuthOracle, DrbacOracle, PermissiveOracle};
pub use planner::{Plan, PlanStep, Planner, PlannerConfig, PlannerStats};
pub use preflight::{PreflightViolation, PreflightViolationKind};
pub use registrar::Registrar;
pub use repo_service::{serve_repository, RemoteRepository};
pub use supervisor::{Supervisor, SupervisorState, TickOutcome};

/// Errors surfaced by PSF operations.
#[derive(Debug)]
pub enum PsfError {
    /// The planner found no deployment satisfying the goal.
    NoPlan(String),
    /// The planner aborted for an internal reason (expansion budget
    /// exhausted, …): the goal may still be satisfiable.
    PlannerInternal(String),
    /// Deployment failed mid-way.
    DeployFailed(String),
    /// A referenced spec/node/interface does not exist.
    Unknown(String),
}

impl core::fmt::Display for PsfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PsfError::NoPlan(m) => write!(f, "no valid plan: {m}"),
            PsfError::PlannerInternal(m) => write!(f, "planner aborted: {m}"),
            PsfError::DeployFailed(m) => write!(f, "deployment failed: {m}"),
            PsfError::Unknown(m) => write!(f, "unknown reference: {m}"),
        }
    }
}

impl std::error::Error for PsfError {}
