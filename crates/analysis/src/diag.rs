//! Stable lint codes, severities, and diagnostic reports.
//!
//! Codes are append-only: a code, once published, never changes meaning.
//! CI gates on them (`psf analyze --deny warnings`), so renderings are
//! deterministic — diagnostics sort by (code, subject, message).

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily a runtime failure.
    Warning,
    /// Would (or could) produce a wrong authorization or a runtime denial.
    Error,
}

impl Severity {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The stable lint-code table (see DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// PSF001 — a subject statically reaches a role no explicit grant
    /// intended.
    PrivilegeEscalation,
    /// PSF002 — the role→role delegation graph contains a cycle.
    DelegationCycle,
    /// PSF003 — a third-party credential whose issuer has no assignment
    /// support chain (the credential can never authorize anything).
    DanglingThirdParty,
    /// PSF004 — a credential already expired at analysis time.
    ExpiredCredential,
    /// PSF005 — a credential expiring within the horizon whose removal
    /// disconnects at least one proof (single point of failure).
    ExpiringSpof,
    /// PSF006 — a view references an unknown class, interface, or view.
    UnknownViewTarget,
    /// PSF007 — an added/customized/coherence method does not resolve
    /// (missing library body or customization of a nonexistent method).
    UnresolvedViewMethod,
    /// PSF008 — ACL subsumption monotonicity violated: a lower-privilege
    /// rule maps to a view exposing methods a higher-privilege rule's
    /// view does not.
    NonMonotoneAcl,
    /// PSF009 — a view spec no ACL rule (or deployment root) can reach.
    UnreachableView,
    /// PSF010 — an ACL rule shadowed by an earlier rule (duplicate role
    /// or unreachable after a catch-all).
    ShadowedAclRule,
    /// PSF011 — a deployment plan's step chain is malformed.
    InvalidStepChain,
    /// PSF012 — deploy-time identity issuance would fail authorization.
    DeployAuthorization,
    /// PSF013 — a channel endpoint pair would fail Switchboard mutual
    /// authorization.
    ChannelAuthorization,
    /// PSF014 — a published authorization certificate no longer replays
    /// through the independent checker (revocation, expiry, or key
    /// change since emission).
    CertificateReplay,
}

impl LintCode {
    /// The stable code string (`PSF001`…).
    pub fn code(&self) -> &'static str {
        match self {
            LintCode::PrivilegeEscalation => "PSF001",
            LintCode::DelegationCycle => "PSF002",
            LintCode::DanglingThirdParty => "PSF003",
            LintCode::ExpiredCredential => "PSF004",
            LintCode::ExpiringSpof => "PSF005",
            LintCode::UnknownViewTarget => "PSF006",
            LintCode::UnresolvedViewMethod => "PSF007",
            LintCode::NonMonotoneAcl => "PSF008",
            LintCode::UnreachableView => "PSF009",
            LintCode::ShadowedAclRule => "PSF010",
            LintCode::InvalidStepChain => "PSF011",
            LintCode::DeployAuthorization => "PSF012",
            LintCode::ChannelAuthorization => "PSF013",
            LintCode::CertificateReplay => "PSF014",
        }
    }

    /// Default severity for the code.
    pub fn severity(&self) -> Severity {
        match self {
            LintCode::PrivilegeEscalation
            | LintCode::UnknownViewTarget
            | LintCode::UnresolvedViewMethod
            | LintCode::NonMonotoneAcl
            | LintCode::InvalidStepChain
            | LintCode::DeployAuthorization
            | LintCode::ChannelAuthorization
            | LintCode::CertificateReplay => Severity::Error,
            LintCode::DelegationCycle
            | LintCode::DanglingThirdParty
            | LintCode::ExpiredCredential
            | LintCode::ExpiringSpof
            | LintCode::UnreachableView
            | LintCode::ShadowedAclRule => Severity::Warning,
        }
    }

    /// Short human title.
    pub fn title(&self) -> &'static str {
        match self {
            LintCode::PrivilegeEscalation => "privilege escalation",
            LintCode::DelegationCycle => "delegation cycle",
            LintCode::DanglingThirdParty => "dangling third-party credential",
            LintCode::ExpiredCredential => "expired credential",
            LintCode::ExpiringSpof => "expiring single point of failure",
            LintCode::UnknownViewTarget => "unknown view target",
            LintCode::UnresolvedViewMethod => "unresolved view method",
            LintCode::NonMonotoneAcl => "non-monotone ACL",
            LintCode::UnreachableView => "unreachable view",
            LintCode::ShadowedAclRule => "shadowed ACL rule",
            LintCode::InvalidStepChain => "invalid plan step chain",
            LintCode::DeployAuthorization => "deploy authorization failure",
            LintCode::ChannelAuthorization => "channel authorization failure",
            LintCode::CertificateReplay => "certificate does not replay",
        }
    }
}

/// One finding: a code plus the artifact it anchors to and a message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// The artifact the finding anchors to (credential id, view name,
    /// `step N`, …), when there is one.
    pub subject: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic anchored to an artifact.
    pub fn new(code: LintCode, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            subject: Some(subject.into()),
            message: message.into(),
        }
    }

    /// Build an unanchored diagnostic.
    pub fn global(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            subject: None,
            message: message.into(),
        }
    }
}

/// An analysis report: the collected diagnostics of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in insertion order until [`sort`](Report::sort).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merge another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Deterministic order: by code, then subject, then message.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.code, &a.subject, &a.message).cmp(&(b.code, &b.subject, &b.message))
        });
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether this report should fail a gate: errors always fail,
    /// warnings fail only under `deny_warnings`.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }

    /// The distinct lint codes present, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code.code()).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    /// Render for humans: one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let sev = d.code.severity().label();
            match &d.subject {
                Some(s) => out.push_str(&format!(
                    "{sev}[{}] {} ({}): {}\n",
                    d.code.code(),
                    d.code.title(),
                    s,
                    d.message
                )),
                None => out.push_str(&format!(
                    "{sev}[{}] {}: {}\n",
                    d.code.code(),
                    d.code.title(),
                    d.message
                )),
            }
        }
        out.push_str(&format!(
            "analysis: {} error(s), {} warning(s)\n",
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// Render as a JSON document (no external dependencies; the workspace
    /// formats JSON by hand throughout).
    pub fn render_json(&self) -> String {
        let escaped = |s: &str| {
            let mut out = String::with_capacity(s.len());
            psf_telemetry::escape_into(s, &mut out);
            out
        };
        let mut out = String::from("{\n  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let subject = match &d.subject {
                Some(s) => format!("\"{}\"", escaped(s)),
                None => "null".into(),
            };
            out.push_str(&format!(
                "    {{\"code\": \"{}\", \"severity\": \"{}\", \"title\": \"{}\", \"subject\": {subject}, \"message\": \"{}\"}}{comma}\n",
                d.code.code(),
                d.code.severity().label(),
                escaped(d.code.title()),
                escaped(&d.message)
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"errors\": {},\n  \"warnings\": {}\n}}\n",
            self.errors(),
            self.warnings()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            LintCode::PrivilegeEscalation,
            LintCode::DelegationCycle,
            LintCode::DanglingThirdParty,
            LintCode::ExpiredCredential,
            LintCode::ExpiringSpof,
            LintCode::UnknownViewTarget,
            LintCode::UnresolvedViewMethod,
            LintCode::NonMonotoneAcl,
            LintCode::UnreachableView,
            LintCode::ShadowedAclRule,
            LintCode::InvalidStepChain,
            LintCode::DeployAuthorization,
            LintCode::ChannelAuthorization,
            LintCode::CertificateReplay,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        codes.sort();
        let mut deduped = codes.clone();
        deduped.dedup();
        assert_eq!(codes, deduped);
        assert_eq!(codes[0], "PSF001");
        assert_eq!(codes[12], "PSF013");
        assert_eq!(codes[13], "PSF014");
    }

    #[test]
    fn report_gate_semantics() {
        let mut r = Report::new();
        assert!(!r.fails(true));
        r.push(Diagnostic::global(LintCode::DelegationCycle, "cycle"));
        assert!(!r.fails(false));
        assert!(r.fails(true));
        r.push(Diagnostic::new(LintCode::PrivilegeEscalation, "Alice", "x"));
        assert!(r.fails(false));
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn json_escapes_and_sorts() {
        let mut r = Report::new();
        r.push(Diagnostic::new(LintCode::UnreachableView, "V2", "b\"quote"));
        r.push(Diagnostic::new(
            LintCode::DelegationCycle,
            "A",
            "line\nbreak",
        ));
        r.sort();
        assert_eq!(r.diagnostics[0].code, LintCode::DelegationCycle);
        let json = r.render_json();
        assert!(json.contains("b\\\"quote"));
        assert!(json.contains("line\\nbreak"));
    }
}
