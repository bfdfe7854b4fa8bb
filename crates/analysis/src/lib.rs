//! # psf-analysis
//!
//! Static policy analyzer for the PSF stack. Three passes over a
//! deployment's *policy artifacts* — run before anything executes:
//!
//! 1. **Delegation-graph analysis** ([`graph`], PSF001–PSF005): computes
//!    the role-reachability closure of a credential repository snapshot
//!    (`ProofEngine::reachable_roles` from every entity subject) and reports
//!    privilege escalations against an intent matrix, role-mapping
//!    cycles, dangling third-party credentials, expired credentials, and
//!    expiring single points of failure.
//! 2. **View/ACL lint** ([`viewlint`], PSF006–PSF010): view specs must
//!    represent real classes, restrict real interfaces, and resolve
//!    every method; role→view ACLs must be subsumption-monotone,
//!    shadow-free, and leave no view unreachable.
//! 3. **Plan pre-flight** ([`preflight`], PSF011–PSF013): adapts
//!    `psf_core::preflight` violations (step chain, CPU, deploy/channel
//!    authorization) onto stable lint codes.
//! 4. **Certificate replay** ([`certlint`], PSF014): every published
//!    authorization certificate must still replay through the independent
//!    `psf-cert` checker against the world's current registry, revocation
//!    and epoch state.
//!
//! Diagnostics carry stable codes (`PSF001`…) and severities and render
//! as human text or JSON ([`diag`]); `psf analyze` exposes them on the
//! command line and CI gates on `--deny warnings`. Scenario fixtures for
//! the defect corpus load from XML ([`fixtures`]).
//!
//! ## Soundness
//!
//! The closure is the engine's own search run to exhaustion, so graph
//! findings are *faithful* by construction: a pair is in the closure
//! exactly when the engine proves it (a differential property test
//! additionally holds both to the independent certificate checker and
//! to a naive fixpoint). PSF001 is only as good as the supplied intent matrix
//! — with no intent the pass is skipped, not silently approximated. ACL
//! monotonicity assumes rule order encodes privilege order (the runtime
//! picks the first matching rule), and exposed-method comparison ignores
//! constructor and coherence-protocol methods, which every generated
//! view carries by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certlint;
pub mod diag;
pub mod fixtures;
pub mod graph;
pub mod preflight;
pub mod viewlint;

pub use certlint::{analyze_certificates, CertLintInput};
pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use fixtures::FixtureWorld;
pub use graph::{analyze_graph, closure, GraphInput};
pub use preflight::{analyze_plan, violation_code, violations_to_diagnostics};
pub use viewlint::{analyze_views, ViewLintInput};

/// Record one analysis run in the metrics registry
/// (`psf.analysis.runs`, `psf.analysis.diagnostics`,
/// `psf.analysis.escalations`) and return the report sorted.
///
/// Call once per `Report` produced, after all passes have merged into
/// it — the CLI and tests both route through here so `psf metrics`
/// reflects analyzer activity.
pub fn record_run(mut report: Report) -> Report {
    report.sort();
    psf_telemetry::counter!("psf.analysis.runs").inc();
    psf_telemetry::counter!("psf.analysis.diagnostics").add(report.diagnostics.len() as u64);
    let escalations = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::PrivilegeEscalation)
        .count();
    psf_telemetry::counter!("psf.analysis.escalations").add(escalations as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_run_sorts_and_counts() {
        let mut report = Report::new();
        report.push(Diagnostic::new(LintCode::UnreachableView, "V", "unused"));
        report.push(Diagnostic::new(LintCode::PrivilegeEscalation, "A", "bad"));
        let before_runs = psf_telemetry::registry().counter_value("psf.analysis.runs");
        let report = record_run(report);
        assert_eq!(report.diagnostics[0].code, LintCode::PrivilegeEscalation);
        assert_eq!(
            psf_telemetry::registry().counter_value("psf.analysis.runs"),
            before_runs + 1
        );
        assert!(psf_telemetry::registry().counter_value("psf.analysis.escalations") >= 1);
    }
}
