//! Pass 3: deployment-plan pre-flight (PSF011–PSF013).
//!
//! Thin adapter over [`psf_core::preflight`]: the deployer walks a plan
//! with recording effects (step chain, artifacts, CPU, channel/deploy
//! authorization) without acquiring anything; this module maps each
//! violation onto a stable lint code so plan problems surface through the
//! same gate as policy problems.

use crate::diag::{Diagnostic, LintCode, Report};
use psf_core::preflight::{PreflightViolation, PreflightViolationKind};
use psf_core::{Deployer, Goal, Plan};

/// Map a core pre-flight violation onto its lint code.
pub fn violation_code(kind: PreflightViolationKind) -> LintCode {
    match kind {
        PreflightViolationKind::InvalidStepChain => LintCode::InvalidStepChain,
        PreflightViolationKind::DeployAuthorization => LintCode::DeployAuthorization,
        PreflightViolationKind::ChannelAuthorization => LintCode::ChannelAuthorization,
    }
}

/// Convert core pre-flight violations into diagnostics.
pub fn violations_to_diagnostics(violations: &[PreflightViolation], report: &mut Report) {
    for v in violations {
        let code = violation_code(v.kind);
        match v.step {
            Some(step) => report.push(Diagnostic::new(
                code,
                format!("step {step}"),
                v.message.clone(),
            )),
            None => report.push(Diagnostic::global(code, v.message.clone())),
        }
    }
}

/// Run the deployer's static pre-flight over `plan` and append the
/// findings to `report`.
pub fn analyze_plan(deployer: &Deployer, plan: &Plan, goal: &Goal, report: &mut Report) {
    let violations = deployer.preflight(plan, goal);
    violations_to_diagnostics(&violations, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_stable_codes() {
        assert_eq!(
            violation_code(PreflightViolationKind::InvalidStepChain).code(),
            "PSF011"
        );
        assert_eq!(
            violation_code(PreflightViolationKind::DeployAuthorization).code(),
            "PSF012"
        );
        assert_eq!(
            violation_code(PreflightViolationKind::ChannelAuthorization).code(),
            "PSF013"
        );
    }

    #[test]
    fn violations_carry_step_anchors() {
        let violations = vec![
            PreflightViolation {
                kind: PreflightViolationKind::InvalidStepChain,
                step: Some(2),
                message: "move before any endpoint".into(),
            },
            PreflightViolation {
                kind: PreflightViolationKind::ChannelAuthorization,
                step: None,
                message: "guard cannot prove its own Component role".into(),
            },
        ];
        let mut report = Report::new();
        violations_to_diagnostics(&violations, &mut report);
        assert_eq!(report.diagnostics.len(), 2);
        assert_eq!(report.diagnostics[0].subject.as_deref(), Some("step 2"));
        assert!(report.diagnostics[1].subject.is_none());
        assert_eq!(report.errors(), 2);
    }
}
