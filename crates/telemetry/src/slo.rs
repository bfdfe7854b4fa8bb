//! Declarative service-level objectives over the metrics registry.
//!
//! An [`SloTable`] is a list of `(histogram metric, target percentile,
//! threshold µs)` rows. [`SloTable::evaluate`] snapshots each metric and
//! reports, per row, the observed percentile, whether it met the
//! objective, and the **burn rate** — observed ÷ threshold, so `1.0` is
//! exactly at budget, `0.25` is comfortable headroom, and `3.0` means the
//! tail is three times over. Rows whose metric has no samples evaluate to
//! "no data" and do not fail the table (a workload that never exercised a
//! path has not violated its latency objective).
//!
//! `psf slo [--check]` renders the table; `psf slo --check` and the
//! chaos harness gate on [`SloReport::ok`].

use crate::metrics::{HistogramSnapshot, Registry};
use crate::trace::TraceId;
use std::fmt::Write as _;

/// Which summary percentile an objective targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Percentile {
    P50,
    P90,
    P99,
}

impl Percentile {
    /// Stable label used in CLI and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Percentile::P50 => "p50",
            Percentile::P90 => "p90",
            Percentile::P99 => "p99",
        }
    }

    fn pick(self, snap: &HistogramSnapshot) -> u64 {
        match self {
            Percentile::P50 => snap.p50,
            Percentile::P90 => snap.p90,
            Percentile::P99 => snap.p99,
        }
    }
}

/// One objective: `metric`'s `percentile` must stay at or below
/// `threshold_us`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSpec {
    /// Histogram name in the registry (e.g. `psf.drbac.prove.us`).
    pub metric: String,
    /// Target percentile.
    pub percentile: Percentile,
    /// Latency budget in microseconds.
    pub threshold_us: u64,
}

impl SloSpec {
    pub fn new(metric: impl Into<String>, percentile: Percentile, threshold_us: u64) -> Self {
        SloSpec {
            metric: metric.into(),
            percentile,
            threshold_us,
        }
    }
}

/// The evaluation of one [`SloSpec`] against a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEval {
    pub spec: SloSpec,
    /// Observed percentile value, `None` when the metric has no samples.
    pub observed_us: Option<u64>,
    /// Samples behind the observation.
    pub count: u64,
    /// observed ÷ threshold (0.0 when no data).
    pub burn_rate: f64,
    /// Objective met (vacuously true with no data).
    pub ok: bool,
    /// Exemplar trace behind the histogram's max bucket, when available —
    /// the tree to render when this objective burns.
    pub exemplar: Option<(TraceId, u64)>,
}

/// Evaluation of a whole table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloReport {
    pub evals: Vec<SloEval>,
}

impl SloReport {
    /// Number of objectives over budget.
    pub fn violations(&self) -> usize {
        self.evals.iter().filter(|e| !e.ok).count()
    }

    /// True when every objective with data is within budget.
    pub fn ok(&self) -> bool {
        self.violations() == 0
    }

    /// Human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>4} {:>12} {:>12} {:>8} {:>6}  status",
            "metric", "pct", "observed_us", "budget_us", "samples", "burn"
        );
        for e in &self.evals {
            let observed = e
                .observed_us
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string());
            let status = if e.observed_us.is_none() {
                "no-data"
            } else if e.ok {
                "ok"
            } else {
                "VIOLATED"
            };
            let _ = writeln!(
                out,
                "{:<28} {:>4} {:>12} {:>12} {:>8} {:>6.2}  {}",
                e.spec.metric,
                e.spec.percentile.as_str(),
                observed,
                e.spec.threshold_us,
                e.count,
                e.burn_rate,
                status
            );
            if !e.ok {
                if let Some((trace, value)) = e.exemplar {
                    let _ = writeln!(out, "    exemplar: trace {trace} sample {value}us");
                }
            }
        }
        let _ = writeln!(
            out,
            "{} objective(s), {} violation(s)",
            self.evals.len(),
            self.violations()
        );
        out
    }

    /// JSON lines, one object per objective.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.evals {
            let _ = write!(
                out,
                "{{\"metric\":\"{}\",\"percentile\":\"{}\",\"threshold_us\":{},\"observed_us\":",
                e.spec.metric,
                e.spec.percentile.as_str(),
                e.spec.threshold_us
            );
            match e.observed_us {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"count\":{},\"burn_rate\":{:.4},\"ok\":{}",
                e.count, e.burn_rate, e.ok
            );
            if let Some((trace, value)) = e.exemplar {
                let _ = write!(
                    out,
                    ",\"exemplar\":{{\"trace\":\"{trace}\",\"value_us\":{value}}}"
                );
            }
            out.push_str("}\n");
        }
        out
    }
}

/// An ordered list of objectives.
#[derive(Debug, Clone, Default)]
pub struct SloTable {
    specs: Vec<SloSpec>,
}

impl SloTable {
    pub fn new() -> Self {
        SloTable::default()
    }

    /// Add an objective (builder style).
    pub fn objective(
        mut self,
        metric: impl Into<String>,
        percentile: Percentile,
        threshold_us: u64,
    ) -> Self {
        self.specs
            .push(SloSpec::new(metric, percentile, threshold_us));
        self
    }

    /// The rows, in declaration order.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Evaluate every objective against `registry`.
    pub fn evaluate(&self, registry: &Registry) -> SloReport {
        let evals = self
            .specs
            .iter()
            .map(|spec| {
                let snap = registry
                    .histogram_snapshot(&spec.metric)
                    .filter(|s| s.count > 0);
                match snap {
                    Some(s) => {
                        let observed = spec.percentile.pick(&s);
                        SloEval {
                            spec: spec.clone(),
                            observed_us: Some(observed),
                            count: s.count,
                            burn_rate: observed as f64 / spec.threshold_us.max(1) as f64,
                            ok: observed <= spec.threshold_us,
                            exemplar: s.exemplar,
                        }
                    }
                    None => SloEval {
                        spec: spec.clone(),
                        observed_us: None,
                        count: 0,
                        burn_rate: 0.0,
                        ok: true,
                        exemplar: None,
                    },
                }
            })
            .collect();
        SloReport { evals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_ok_violation_and_no_data() {
        let reg = Registry::new();
        let h = reg.histogram("psf.test.slo.us");
        for _ in 0..100 {
            h.record(100);
        }
        let table = SloTable::new()
            .objective("psf.test.slo.us", Percentile::P99, 1_000)
            .objective("psf.test.slo.us", Percentile::P99, 50)
            .objective("psf.test.slo.absent.us", Percentile::P50, 10);
        let report = table.evaluate(&reg);
        assert_eq!(report.evals.len(), 3);

        let ok = &report.evals[0];
        assert!(ok.ok);
        assert_eq!(ok.observed_us, Some(100));
        assert!((ok.burn_rate - 0.1).abs() < 1e-9);

        let violated = &report.evals[1];
        assert!(!violated.ok);
        assert!(violated.burn_rate > 1.0);

        let no_data = &report.evals[2];
        assert!(no_data.ok);
        assert_eq!(no_data.observed_us, None);
        assert_eq!(no_data.burn_rate, 0.0);

        assert_eq!(report.violations(), 1);
        assert!(!report.ok());

        let text = report.render_text();
        assert!(text.contains("VIOLATED"));
        assert!(text.contains("no-data"));
        assert!(text.contains("3 objective(s), 1 violation(s)"));

        let json = report.render_jsonl();
        assert_eq!(json.lines().count(), 3);
        assert!(json.contains("\"observed_us\":null"));
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\"burn_rate\":2.0000"));
    }

    #[test]
    fn empty_table_is_vacuously_ok() {
        let reg = Registry::new();
        let report = SloTable::new().evaluate(&reg);
        assert!(report.ok());
        assert_eq!(report.violations(), 0);
    }
}
