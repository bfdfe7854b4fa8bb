//! # psf-telemetry
//!
//! Observability substrate for the PSF workspace: a structured tracing
//! layer and a metrics registry, both designed to be cheap enough to leave
//! enabled in hot paths (planner frontier expansion, proof search,
//! Switchboard heartbeats).
//!
//! ## Tracing
//!
//! [`span`] opens a named span under a dotted target (`psf.planner`,
//! `psf.drbac`, `psf.swbd`, …); the returned RAII guard records
//! `(target, name, fields, start, duration)` into a bounded in-memory ring
//! buffer when dropped. Spans nest: a span opened while another is live on
//! the same thread records it as its parent, so exported traces reconstruct
//! the call tree (planning → proof search → deployment → handshake).
//! [`event`] records a zero-duration span for point-in-time facts (replan
//! triggered, link flapped, CLI milestones). [`export_jsonl`] serializes
//! the buffer one JSON object per line.
//!
//! ## Metrics
//!
//! [`metrics::Registry`] holds named counters, gauges, and log₂-bucketed
//! latency histograms, all updated with relaxed atomics — no locks on the
//! hot path. The [`counter!`]/[`gauge!`]/[`histogram!`] macros cache the
//! `Arc` handle in a per-call-site static so steady-state cost is a single
//! atomic add. [`metrics::Registry::render_prometheus`] emits a
//! Prometheus-text-format snapshot with p50/p90/p99 summaries.
//!
//! ## Naming conventions
//!
//! Dotted lowercase names, `psf.<subsystem>.<thing>[.<unit>]`:
//! `psf.planner.expanded`, `psf.drbac.prove.us`, `psf.swbd.hb.rtt.us`,
//! `psf.deploy.step.us`. Histograms that measure time carry a `.us`
//! (microseconds) suffix.

//! ## Causal tracing, audit, SLOs
//!
//! Every span belongs to a 128-bit [`trace::TraceId`]; [`TraceContext`]
//! carries the ambient trace across thread hops and RPC envelopes so one
//! request yields one causal tree. The [`audit`] module keeps a bounded
//! append-only log of every authorization decision (subject, object,
//! verdict, delegation-chain digest, cache provenance, trace id), and the
//! [`slo`] module evaluates declarative latency objectives — with
//! histogram exemplars linking a burning p99 back to the trace behind it.

#![forbid(unsafe_code)]

pub mod audit;
pub mod metrics;
pub mod slo;
pub mod trace;

pub use audit::{AuditLog, AuditRecord, AuditSink, CacheOutcome, Decision, Verdict};
pub use metrics::{global as registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use slo::{Percentile, SloReport, SloSpec, SloTable};
pub use trace::{
    current_trace_id, event, export_jsonl, global as tracer, read_jsonl, span, span_with_context,
    untraced, ContextGuard, ExportedSpan, SpanGuard, SpanRecord, TraceContext, TraceId, Tracer,
    UntracedGuard,
};
