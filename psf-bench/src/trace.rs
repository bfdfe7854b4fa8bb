//! The benchmark's own tracer: spans around the calls into each layer,
//! recorded from outside the library, kept in memory during the traced
//! round and merged with the server's into one JSONL file at exit.
//!
//! A sampled request yields this tree (ids are derived from the request
//! id, so the two processes agree on them without talking):
//!
//! ```text
//! client.request                      client, issue → reply
//! ├─ client.encode                    client, building the arguments
//! └─ switchboard.call                 client, call_pipelined → reply
//!    └─ handler.sign_on | handler.revoke        server, handler entry → exit
//!       └─ views.select_view | drbac.revocation.revoke
//! ```
//!
//! Publishes reach the library's own `repo.publish` handler, which the
//! benchmark cannot wrap, so their call span is named
//! `core.repo_service.publish` and has no server child.

use crate::client::Class;
use std::collections::HashMap;
use std::sync::Mutex;

/// Spans the in-memory buffer holds before it starts counting drops.
const CAPACITY: usize = 1 << 20;

/// Span names, indexed by their offset from the request's id base.
const NAMES: [&str; 8] = [
    "client.request",
    "client.encode",
    "switchboard.call",
    "core.repo_service.publish",
    "handler.sign_on",
    "views.select_view",
    "handler.revoke",
    "drbac.revocation.revoke",
];

/// Offset of each span's parent in [`NAMES`] (the root is its own).
const PARENT: [usize; 8] = [0, 0, 0, 0, 2, 4, 2, 6];

/// The sets of span kinds (bit `i` = `NAMES[i]`) a complete request has:
/// a publish, a sign-on, a revocation.
const COMPLETE: [u8; 3] = [0b0000_1011, 0b0011_0111, 0b1100_0111];

/// One span on the clock both processes share (`server::clock_ns`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request id (shared by all spans of a request).
    pub request: u64,
    /// Index into [`NAMES`].
    kind: usize,
    /// Start, nanoseconds.
    pub start_ns: u64,
    /// End, nanoseconds.
    pub end_ns: u64,
    /// Which process recorded it.
    pub server: bool,
}

impl Span {
    /// A span the server reported by name.
    pub fn server(request: u64, name: &str, start_ns: u64, end_ns: u64) -> Result<Span, String> {
        let kind = NAMES
            .iter()
            .position(|n| *n == name)
            .ok_or_else(|| format!("unknown span name '{name}'"))?;
        Ok(Span {
            request,
            kind,
            start_ns,
            end_ns,
            server: true,
        })
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        NAMES[self.kind]
    }

    /// `(id, parent id)`; the root's parent is 0.
    pub fn ids(&self) -> (u64, u64) {
        let base = self.request * NAMES.len() as u64;
        let parent = if self.kind == 0 {
            0
        } else {
            base + PARENT[self.kind] as u64 + 1
        };
        (base + self.kind as u64 + 1, parent)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The client-side span buffer of one traced round.
#[derive(Default)]
pub struct Tracer {
    /// The spans, and how many were dropped for lack of room.
    buffer: Mutex<(Vec<Span>, u64)>,
}

impl Tracer {
    /// Record the three client spans of one sampled request.
    pub fn client_request(
        &self,
        request: u64,
        class: Class,
        started: u64,
        encoded: u64,
        replied: u64,
    ) {
        let mut buffer = self.buffer.lock().expect("span buffer poisoned");
        let (spans, dropped) = &mut *buffer;
        if spans.len() + 3 > CAPACITY {
            *dropped += 3;
            return;
        }
        let call = if class == Class::Publish { 3 } else { 2 };
        for (kind, start_ns, end_ns) in [
            (0, started, replied),
            (1, started, encoded),
            (call, encoded, replied),
        ] {
            spans.push(Span {
                request,
                kind,
                start_ns,
                end_ns,
                server: false,
            });
        }
    }

    /// Take the recorded spans and the number dropped for lack of room.
    pub fn finish(self) -> (Vec<Span>, u64) {
        self.buffer.into_inner().expect("span buffer poisoned")
    }
}

/// What the merged trace of one round says.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    /// Sampled requests (root spans).
    pub requests: u64,
    /// Spans whose parent is not in the trace.
    pub orphans: u64,
    /// Share of the sampled requests whose tree is complete: the three
    /// client spans and, unless the request was a publish, the handler
    /// span with its child from the server.
    pub coverage: f64,
    /// Median duration by span name, microseconds.
    pub median_us: HashMap<&'static str, f64>,
    /// Median of (call span − handler span) over requests with a handler
    /// span, microseconds.
    pub call_self_us: f64,
}

/// Median of nanosecond durations, in microseconds.
fn median_us(ns: Vec<u64>) -> f64 {
    crate::median(ns.into_iter().map(|v| v as f64 / 1e3).collect())
}

/// Check the tree and derive the per-layer timings.
pub fn summarize(spans: &[Span]) -> TraceSummary {
    let durations: HashMap<u64, u64> = spans.iter().map(|s| (s.ids().0, s.duration_ns())).collect();
    let mut children: HashMap<u64, u64> = HashMap::new();
    let mut summary = TraceSummary::default();
    for s in spans {
        let (_, parent) = s.ids();
        if parent == 0 {
            summary.requests += 1;
        } else if durations.contains_key(&parent) {
            *children.entry(parent).or_default() += s.duration_ns();
        } else {
            summary.orphans += 1;
        }
    }
    let mut by_name: HashMap<&'static str, Vec<u64>> = HashMap::new();
    let mut call_self = Vec::new();
    let mut kinds: HashMap<u64, u8> = HashMap::new();
    for s in spans {
        let covered = children.get(&s.ids().0).copied().unwrap_or(0);
        by_name.entry(s.name()).or_default().push(s.duration_ns());
        if s.name() == "switchboard.call" && covered > 0 {
            call_self.push(s.duration_ns().saturating_sub(covered));
        }
        *kinds.entry(s.request).or_default() |= 1 << s.kind;
    }
    let complete = kinds.values().filter(|k| COMPLETE.contains(k)).count();
    summary.coverage = if kinds.is_empty() {
        0.0
    } else {
        complete as f64 / kinds.len() as f64
    };
    summary.median_us = by_name
        .into_iter()
        .map(|(name, v)| (name, median_us(v)))
        .collect();
    summary.call_self_us = median_us(call_self);
    summary
}

/// One JSON object per span, client and server interleaved by start time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.ids().0));
    let mut out = String::new();
    for s in sorted {
        let (id, parent) = s.ids();
        out.push_str(&format!(
            "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"process\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.request,
            s.name(),
            if s.server { "server" } else { "client" },
            s.start_ns,
            s.end_ns,
        ));
    }
    out
}
