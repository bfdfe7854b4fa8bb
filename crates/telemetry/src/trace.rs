//! Structured tracing: RAII spans with parent/child nesting recorded into a
//! bounded in-memory ring buffer, exported as JSON lines.
//!
//! A span is opened with [`span`] (or [`Tracer::span`]) and recorded when
//! its guard drops. Nesting is tracked with a thread-local stack, so
//! same-thread nesting (plan → prove → deploy → handshake) is captured as
//! parent links. Every span belongs to a 128-bit [`TraceId`]: a span opened
//! with no enclosing span starts a fresh trace, and the ambient trace can be
//! carried across thread hops (or process boundaries) explicitly:
//!
//! * [`TraceContext::current`] captures the calling thread's trace id and
//!   innermost live span id;
//! * [`TraceContext::attach`] installs a captured context on another thread
//!   (an RAII guard restores the previous context), so spans opened there
//!   join the original tree instead of starting orphan roots;
//! * [`Tracer::span_with_context`] opens a span whose parent comes from an
//!   explicit context rather than the thread-local stack — the remote half
//!   of an RPC uses this to parent its dispatch span under the caller's
//!   span.
//!
//! [`event`] records a zero-duration span for point-in-time facts. The
//! buffer holds the most recent [`DEFAULT_CAPACITY`] spans, dropping the
//! oldest under pressure; the global tracer publishes its eviction count as
//! the `psf.trace.dropped` gauge. [`export_jsonl`] serializes the buffer one
//! JSON object per line, in span-creation order; [`read_jsonl`] reads that
//! text back, so the line format is known to this module only.

use crate::audit::Text;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Ring-buffer capacity of the global tracer.
pub const DEFAULT_CAPACITY: usize = 8192;

/// A 128-bit trace identifier shared by every span in one causal tree.
///
/// Ids are never zero; the all-zero value is reserved as the wire encoding
/// of "no trace context" in the Switchboard RPC envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Allocate a fresh process-unique trace id.
    pub fn fresh() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(process_seed().wrapping_add(n));
        let lo = splitmix64(hi ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let v = ((hi as u128) << 64) | lo as u128;
        TraceId(if v == 0 { 1 } else { v })
    }

    /// Render as 32 lowercase hex characters.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse a hex trace id (as printed by [`TraceId::to_hex`]).
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 32 {
            return None;
        }
        u128::from_str_radix(s, 16)
            .ok()
            .filter(|&v| v != 0)
            .map(TraceId)
    }

    /// Big-endian wire encoding (16 bytes).
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Decode the wire encoding; all-zero bytes mean "no trace".
    pub fn from_bytes(b: [u8; 16]) -> Option<TraceId> {
        let v = u128::from_be_bytes(b);
        (v != 0).then_some(TraceId(v))
    }
}

impl std::str::FromStr for TraceId {
    type Err = ();

    fn from_str(s: &str) -> Result<TraceId, ()> {
        TraceId::from_hex(s).ok_or(())
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ ((std::process::id() as u64) << 32) | 1)
    })
}

/// A captured trace context: which trace the current work belongs to and
/// which span is its causal parent. `Copy`, 24 bytes — cheap to capture at
/// a spawn site and move into a worker closure or an RPC envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span opened under this context joins.
    pub trace: TraceId,
    /// The span new roots are parented under (the innermost live span at
    /// capture time), if any.
    pub parent: Option<u64>,
}

impl TraceContext {
    /// Capture the calling thread's ambient context, if any trace is live.
    pub fn current() -> Option<TraceContext> {
        CTX.with(|c| {
            let c = c.borrow();
            c.trace.map(|trace| TraceContext {
                trace,
                parent: c.stack.last().copied().or(c.base_parent),
            })
        })
    }

    /// Install this context on the calling thread. Spans opened while the
    /// returned guard is live (and no enclosing span exists) join
    /// `self.trace` with `self.parent` as their parent. The previous
    /// context is restored when the guard drops.
    pub fn attach(self) -> ContextGuard {
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            let prev = SavedCtx {
                trace: c.trace,
                base_parent: c.base_parent,
                auto: c.auto,
            };
            c.trace = Some(self.trace);
            c.base_parent = self.parent;
            c.auto = false;
            ContextGuard { prev }
        })
    }
}

/// The calling thread's current trace id, if any span or attached context
/// is live. Cheap (one thread-local read): hot paths use it for histogram
/// exemplars and audit records.
pub fn current_trace_id() -> Option<TraceId> {
    CTX.with(|c| c.borrow().trace)
}

/// Suppress trace capture on the calling thread while the returned guard
/// is live: the ambient context and live-span stack are stashed and
/// restored on drop. [`current_trace_id`] returns `None` meanwhile, so hot
/// paths that gate per-call span creation on a live trace (the Switchboard
/// RPC client and dispatcher) skip it entirely. Benchmark loops use this
/// so measured throughput reflects the untraced fast path rather than the
/// CLI's ambient command span.
pub fn untraced() -> UntracedGuard {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let guard = UntracedGuard {
            prev: SavedCtx {
                trace: c.trace,
                base_parent: c.base_parent,
                auto: c.auto,
            },
            stack: std::mem::take(&mut c.stack),
        };
        c.trace = None;
        c.base_parent = None;
        c.auto = false;
        guard
    })
}

/// RAII guard restoring the context stashed by [`untraced`].
pub struct UntracedGuard {
    prev: SavedCtx,
    stack: Vec<u64>,
}

impl Drop for UntracedGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            c.trace = self.prev.trace;
            c.base_parent = self.prev.base_parent;
            c.auto = self.prev.auto;
            c.stack = std::mem::take(&mut self.stack);
        });
    }
}

/// RAII guard restoring the previously attached context (see
/// [`TraceContext::attach`]).
pub struct ContextGuard {
    prev: SavedCtx,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            c.trace = self.prev.trace;
            c.base_parent = self.prev.base_parent;
            c.auto = self.prev.auto;
        });
    }
}

#[derive(Clone, Copy)]
struct SavedCtx {
    trace: Option<TraceId>,
    base_parent: Option<u64>,
    auto: bool,
}

#[derive(Default)]
struct ThreadCtx {
    /// The trace spans on this thread currently join.
    trace: Option<TraceId>,
    /// Parent for spans opened with an empty stack (set by `attach`).
    base_parent: Option<u64>,
    /// True when `trace` was auto-allocated by a root span (cleared when
    /// the stack empties), false when installed by `attach`.
    auto: bool,
    /// Ids of live spans, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// A completed span (or zero-duration event) as stored in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (1-based; 0 is never issued). Ids are
    /// allocated at span *open*, so sorting by id recovers creation order.
    pub id: u64,
    /// The causal tree this span belongs to. `None` only for events
    /// recorded outside any span or attached context.
    pub trace: Option<TraceId>,
    /// Id of the enclosing span (same thread, or explicit via context).
    pub parent: Option<u64>,
    /// Dotted subsystem target, e.g. `psf.planner`.
    pub target: &'static str,
    /// Span name, e.g. `plan` or `deploy.step`.
    pub name: &'static str,
    /// Key/value annotations attached while the span was live.
    pub fields: Vec<(&'static str, Text)>,
    /// Start time in µs since the process tracing epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs (0 for events).
    pub dur_us: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Collects span records into a bounded ring buffer.
pub struct Tracer {
    buf: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    next_id: AtomicU64,
    dropped: AtomicU64,
    /// When set, evictions are mirrored to the `psf.trace.dropped` gauge in
    /// the global metrics registry (enabled for the global tracer only, so
    /// test-local tracers don't pollute the registry).
    drop_gauge: OnceLock<Arc<crate::metrics::Gauge>>,
    report_drops: bool,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            // Pre-allocate the full ring so steady-state pushes never
            // reallocate, even for capacities above DEFAULT_CAPACITY.
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            drop_gauge: OnceLock::new(),
            report_drops: false,
        }
    }

    /// Open a span; it is recorded when the returned guard drops. The span
    /// joins the thread's current trace (starting a fresh one if none) and
    /// is parented under the innermost live span, if any.
    pub fn span(&self, target: &'static str, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, trace) = CTX.with(|c| {
            let mut c = c.borrow_mut();
            let parent = c.stack.last().copied().or(c.base_parent);
            let trace = match c.trace {
                Some(t) => t,
                None => {
                    let t = TraceId::fresh();
                    c.trace = Some(t);
                    c.auto = true;
                    t
                }
            };
            c.stack.push(id);
            (parent, trace)
        });
        SpanGuard {
            tracer: self,
            id,
            trace,
            parent,
            restore: None,
            target,
            name,
            fields: Vec::new(),
            start: Instant::now(),
            start_us: epoch().elapsed().as_micros() as u64,
        }
    }

    /// Open a span whose trace and parent come from an explicit
    /// [`TraceContext`] instead of the thread-local stack — the receiving
    /// half of an RPC or a failover worker uses this to join the caller's
    /// tree. While the guard is live the context is also installed as the
    /// thread's current one (so nested spans and events join the same
    /// trace); the previous context is restored on drop.
    pub fn span_with_context(
        &self,
        target: &'static str,
        name: &'static str,
        ctx: TraceContext,
    ) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let restore = CTX.with(|c| {
            let mut c = c.borrow_mut();
            let prev = SavedCtx {
                trace: c.trace,
                base_parent: c.base_parent,
                auto: c.auto,
            };
            c.trace = Some(ctx.trace);
            c.auto = false;
            c.stack.push(id);
            prev
        });
        SpanGuard {
            tracer: self,
            id,
            trace: ctx.trace,
            parent: ctx.parent,
            restore: Some(restore),
            target,
            name,
            fields: Vec::new(),
            start: Instant::now(),
            start_us: epoch().elapsed().as_micros() as u64,
        }
    }

    /// Record a zero-duration event under the current span, if any.
    pub fn event(
        &self,
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, trace) = CTX.with(|c| {
            let c = c.borrow();
            (c.stack.last().copied().or(c.base_parent), c.trace)
        });
        self.push(SpanRecord {
            id,
            trace,
            parent,
            target,
            name,
            fields: fields
                .into_iter()
                .map(|(k, v)| (k, Text::Owned(v)))
                .collect(),
            start_us: epoch().elapsed().as_micros() as u64,
            dur_us: 0,
        });
    }

    fn push(&self, record: SpanRecord) {
        let mut buf = self.buf.lock();
        if buf.len() >= self.capacity {
            buf.pop_front();
            let dropped = self.dropped.fetch_add(1, Ordering::Relaxed) + 1;
            if self.report_drops {
                self.drop_gauge
                    .get_or_init(|| crate::metrics::global().gauge("psf.trace.dropped"))
                    .set(dropped as i64);
            }
        }
        buf.push_back(record);
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted due to capacity pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the buffered records in span-creation order (ids are
    /// allocated at open, so sorting by id restores sibling order even
    /// when guards dropped out of order).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut records: Vec<SpanRecord> = self.buf.lock().iter().cloned().collect();
        records.sort_by_key(|r| r.id);
        records
    }

    /// Clear the buffer (tests, or after exporting).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }

    /// Serialize the buffer as JSON lines, one span object per line, in
    /// span-creation order.
    pub fn export_jsonl(&self) -> String {
        let records = self.snapshot();
        let mut out = String::with_capacity(records.len() * 128);
        for r in &records {
            let _ = write!(out, "{{\"id\":{},\"trace\":", r.id);
            match r.trace {
                Some(t) => {
                    let _ = write!(out, "\"{t}\"");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"parent\":");
            match r.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"target\":\"");
            escape_into(r.target, &mut out);
            out.push_str("\",\"name\":\"");
            escape_into(r.name, &mut out);
            let _ = write!(
                out,
                "\",\"start_us\":{},\"dur_us\":{}",
                r.start_us, r.dur_us
            );
            if !r.fields.is_empty() {
                out.push_str(",\"fields\":{");
                for (i, (k, v)) in r.fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, &mut out);
                    out.push_str("\":\"");
                    escape_into(v, &mut out);
                    out.push('"');
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }

    #[cfg(test)]
    fn buf_capacity(&self) -> usize {
        self.buf.lock().capacity()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

/// Append `s` to `out` escaped for a JSON string literal.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One [`Tracer::export_jsonl`] line read back: a [`SpanRecord`] with owned
/// strings, minus `start_us` and the free-form `fields`, which no reader
/// consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedSpan {
    pub id: u64,
    pub trace: Option<TraceId>,
    pub parent: Option<u64>,
    pub target: String,
    pub name: String,
    pub dur_us: u64,
}

impl From<SpanRecord> for ExportedSpan {
    fn from(r: SpanRecord) -> Self {
        ExportedSpan {
            id: r.id,
            trace: r.trace,
            parent: r.parent,
            target: r.target.to_string(),
            name: r.name.to_string(),
            dur_us: r.dur_us,
        }
    }
}

/// Read [`Tracer::export_jsonl`] output back, one span per line. A line
/// that is not a whole span object through `dur_us` — foreign text, or the
/// last line of a file whose writer was cut off — is skipped, not an error.
pub fn read_jsonl(text: &str) -> Vec<ExportedSpan> {
    text.lines().filter_map(read_span).collect()
}

/// The inverse of one `export_jsonl` iteration: keys are matched in the
/// order the writer emits them, so no string value can pose as a key.
fn read_span(line: &str) -> Option<ExportedSpan> {
    let (id, rest) = take_u64(line.strip_prefix("{\"id\":")?)?;
    let rest = rest.strip_prefix(",\"trace\":")?;
    let (trace, rest) = match rest.strip_prefix("null") {
        Some(rest) => (None, rest),
        None => {
            let (hex, rest) = take_string(rest.strip_prefix('"')?)?;
            (Some(TraceId::from_hex(&hex)?), rest)
        }
    };
    let rest = rest.strip_prefix(",\"parent\":")?;
    let (parent, rest) = match rest.strip_prefix("null") {
        Some(rest) => (None, rest),
        None => {
            let (parent, rest) = take_u64(rest)?;
            (Some(parent), rest)
        }
    };
    let (target, rest) = take_string(rest.strip_prefix(",\"target\":\"")?)?;
    let (name, rest) = take_string(rest.strip_prefix(",\"name\":\"")?)?;
    let (_start_us, rest) = take_u64(rest.strip_prefix(",\"start_us\":")?)?;
    let (dur_us, rest) = take_u64(rest.strip_prefix(",\"dur_us\":")?)?;
    // The number is whole only if the object continues: a line cut inside
    // the digits must not read back as a shorter duration.
    (rest.starts_with('}') || rest.starts_with(",\"fields\":{")).then_some(ExportedSpan {
        id,
        trace,
        parent,
        target,
        name,
        dur_us,
    })
}

/// Split a leading run of decimal digits off `s`.
fn take_u64(s: &str) -> Option<(u64, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Undo [`escape_into`]: `s` starts just inside a string's opening quote;
/// returns the value and what follows the closing quote.
fn take_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some((out, chars.as_str())),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(
                        u32::from_str_radix(&hex, 16)
                            .ok()
                            .and_then(char::from_u32)?,
                    );
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
    None
}

/// RAII handle for a live span; records on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    trace: TraceId,
    parent: Option<u64>,
    restore: Option<SavedCtx>,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, Text)>,
    start: Instant,
    start_us: u64,
}

impl SpanGuard<'_> {
    /// Attach a key/value annotation (value formatted via `Display`, held
    /// in place when short: see [`Text::display`]).
    pub fn field(&mut self, key: &'static str, value: impl std::fmt::Display) -> &mut Self {
        self.fields.push((key, Text::display(value)));
        self
    }

    /// Attach a key/value annotation as it is, copying no shared text.
    pub fn field_text(&mut self, key: &'static str, value: impl Into<Text>) -> &mut Self {
        self.fields.push((key, value.into()));
        self
    }

    /// This span's id, usable as a correlation key in logs.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// The context a child of this span would inherit — capture before
    /// handing work to another thread or serializing into an RPC envelope.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            parent: Some(self.id),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            // Usually the top of the stack; defensive against out-of-order
            // drops of sibling guards held simultaneously.
            if let Some(pos) = c.stack.iter().rposition(|&id| id == self.id) {
                c.stack.remove(pos);
            }
            if let Some(prev) = self.restore.take() {
                c.trace = prev.trace;
                c.base_parent = prev.base_parent;
                c.auto = prev.auto;
            } else if c.stack.is_empty() && c.auto {
                // The auto-allocated root trace ends with its last span.
                c.trace = None;
                c.auto = false;
            }
        });
        self.tracer.push(SpanRecord {
            id: self.id,
            trace: Some(self.trace),
            parent: self.parent,
            target: self.target,
            name: self.name,
            fields: std::mem::take(&mut self.fields),
            start_us: self.start_us,
            dur_us: self.start.elapsed().as_micros() as u64,
        });
    }
}

/// The process-wide tracer all PSF instrumentation reports to.
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer {
        report_drops: true,
        ..Tracer::default()
    })
}

/// Open a span on the global tracer.
pub fn span(target: &'static str, name: &'static str) -> SpanGuard<'static> {
    global().span(target, name)
}

/// Open a span on the global tracer under an explicit context.
pub fn span_with_context(
    target: &'static str,
    name: &'static str,
    ctx: TraceContext,
) -> SpanGuard<'static> {
    global().span_with_context(target, name, ctx)
}

/// Record a zero-duration event on the global tracer.
pub fn event(target: &'static str, name: &'static str, fields: Vec<(&'static str, String)>) {
    global().event(target, name, fields)
}

/// Export the global tracer's buffer as JSON lines.
pub fn export_jsonl() -> String {
    global().export_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_on_drop() {
        let tracer = Tracer::default();
        {
            let mut outer = tracer.span("psf.test", "outer");
            outer.field("k", 42);
            {
                let _inner = tracer.span("psf.test", "inner");
            }
        }
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        // Snapshot is in creation order: outer first.
        let outer = &spans[0];
        let inner = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.fields, vec![("k", Text::from("42"))]);
        assert!(outer.start_us <= inner.start_us);
        // Same auto-allocated trace for the whole tree.
        assert!(outer.trace.is_some());
        assert_eq!(outer.trace, inner.trace);
    }

    #[test]
    fn events_attach_to_current_span() {
        let tracer = Tracer::default();
        {
            let guard = tracer.span("psf.test", "parent");
            let parent_id = guard.id();
            tracer.event("psf.test", "ping", vec![("n", "1".into())]);
            let spans = tracer.snapshot();
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].name, "ping");
            assert_eq!(spans[0].parent, Some(parent_id));
            assert_eq!(spans[0].dur_us, 0);
            assert_eq!(spans[0].trace, Some(guard.trace_id()));
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tracer = Tracer::with_capacity(4);
        for _ in 0..10 {
            let _g = tracer.span("psf.test", "s");
        }
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        let ids: Vec<u64> = tracer.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn with_capacity_preallocates_full_ring() {
        let want = DEFAULT_CAPACITY * 2;
        let tracer = Tracer::with_capacity(want);
        assert!(
            tracer.buf_capacity() >= want,
            "pre-allocation {} below requested capacity {}",
            tracer.buf_capacity(),
            want
        );
    }

    #[test]
    fn jsonl_escapes_and_shapes() {
        let tracer = Tracer::default();
        tracer.event(
            "psf.test",
            "evt",
            vec![("msg", "say \"hi\"\n\\done".to_string())],
        );
        let text = tracer.export_jsonl();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with("{\"id\":"));
        assert!(line.contains("\"trace\":null"));
        assert!(line.contains("\"parent\":null"));
        assert!(line.contains("\"target\":\"psf.test\""));
        assert!(line.contains("say \\\"hi\\\"\\n\\\\done"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn jsonl_reads_back_what_it_wrote_and_survives_any_cut() {
        // Every escape class, plus text that looks like one of our keys.
        const NASTY: &str = "q\" b\\ n\n r\r t\t c\u{1} \"name\":\"x\",\"dur_us\":7}";
        let tracer = Tracer::default();
        // Id 1: no trace, no parent, no fields.
        tracer.event("psf.test", "bare", Vec::new());
        let trace = TraceId::fresh();
        for (id, trace, parent) in [
            (2, None, None),
            (3, Some(trace), None),
            (4, Some(trace), Some(3)),
        ] {
            tracer.push(SpanRecord {
                id,
                trace,
                parent,
                target: NASTY,
                name: NASTY,
                // Field keys named like span keys must not shadow them.
                fields: vec![("trace", NASTY.to_string().into()), ("dur_us", "9".into())],
                start_us: 1_000 * id,
                dur_us: 12_345 * id,
            });
        }

        let text = tracer.export_jsonl();
        let wrote: Vec<ExportedSpan> = tracer.snapshot().into_iter().map(Into::into).collect();
        assert_eq!(wrote.len(), 4);
        assert_eq!(read_jsonl(&text), wrote);

        // A file cut at any byte yields a prefix of the spans written —
        // never a panic, never a span with a shortened number.
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let read = read_jsonl(&text[..cut]);
            assert_eq!(read, wrote[..read.len()], "cut at byte {cut}");
        }
    }

    #[test]
    fn worker_threads_start_fresh_trees() {
        let tracer = std::sync::Arc::new(Tracer::default());
        let _outer = tracer.span("psf.test", "outer");
        let t2 = std::sync::Arc::clone(&tracer);
        std::thread::spawn(move || {
            let _s = t2.span("psf.test", "worker");
        })
        .join()
        .unwrap();
        let worker = &tracer.snapshot()[0];
        assert_eq!(worker.name, "worker");
        assert_eq!(worker.parent, None);
        assert_ne!(worker.trace, Some(_outer.trace_id()));
    }

    #[test]
    fn attached_context_joins_worker_to_tree() {
        let tracer = std::sync::Arc::new(Tracer::default());
        let outer = tracer.span("psf.test", "outer");
        let ctx = TraceContext::current().expect("outer span is live");
        assert_eq!(ctx.trace, outer.trace_id());
        assert_eq!(ctx.parent, Some(outer.id()));
        let t2 = std::sync::Arc::clone(&tracer);
        std::thread::spawn(move || {
            let _attached = ctx.attach();
            let _s = t2.span("psf.test", "worker");
        })
        .join()
        .unwrap();
        let worker = &tracer.snapshot()[0];
        assert_eq!(worker.name, "worker");
        assert_eq!(worker.parent, Some(outer.id()));
        assert_eq!(worker.trace, Some(outer.trace_id()));
    }

    #[test]
    fn span_with_context_parents_explicitly_and_restores() {
        let tracer = Tracer::default();
        let remote_ctx = TraceContext {
            trace: TraceId::fresh(),
            parent: Some(4242),
        };
        {
            let dispatch = tracer.span_with_context("psf.test", "dispatch", remote_ctx);
            assert_eq!(dispatch.trace_id(), remote_ctx.trace);
            // A nested span joins the remote trace via the stack.
            let _child = tracer.span("psf.test", "child");
        }
        // Context restored: a new span starts its own trace again.
        {
            let _fresh = tracer.span("psf.test", "fresh");
        }
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 3);
        let dispatch = &spans[0];
        let child = &spans[1];
        let fresh = &spans[2];
        assert_eq!(dispatch.parent, Some(4242));
        assert_eq!(dispatch.trace, Some(remote_ctx.trace));
        assert_eq!(child.parent, Some(dispatch.id));
        assert_eq!(child.trace, Some(remote_ctx.trace));
        assert_ne!(fresh.trace, Some(remote_ctx.trace));
        assert_eq!(fresh.parent, None);
    }

    #[test]
    fn out_of_order_sibling_drops_keep_creation_order() {
        let tracer = Tracer::default();
        let root_ctx = TraceContext {
            trace: TraceId::fresh(),
            parent: None,
        };
        let a = tracer.span_with_context("psf.test", "a", root_ctx);
        let b = tracer.span_with_context("psf.test", "b", root_ctx);
        let c = tracer.span_with_context("psf.test", "c", root_ctx);
        // Drop out of creation order: c, a, b.
        drop(c);
        drop(a);
        drop(b);
        let names: Vec<&str> = tracer.snapshot().iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn untraced_suppresses_and_restores_context() {
        let tracer = Tracer::default();
        let outer = tracer.span("psf.test", "outer");
        assert!(TraceContext::current().is_some());
        {
            let _quiet = untraced();
            assert_eq!(current_trace_id(), None);
            assert!(TraceContext::current().is_none());
            // A span opened meanwhile starts its own tree, not outer's.
            let inner = tracer.span("psf.test", "inner");
            assert_ne!(inner.trace_id(), outer.trace_id());
        }
        let restored = TraceContext::current().expect("context restored");
        assert_eq!(restored.trace, outer.trace_id());
        assert_eq!(restored.parent, Some(outer.id()));
    }

    #[test]
    fn trace_id_hex_round_trip() {
        let t = TraceId::fresh();
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        assert_eq!(t.to_hex().len(), 32);
        assert_eq!(TraceId::from_bytes(t.to_bytes()), Some(t));
        assert_eq!(TraceId::from_bytes([0u8; 16]), None);
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("zz"), None);
        // Distinct across calls.
        assert_ne!(TraceId::fresh(), TraceId::fresh());
    }
}
