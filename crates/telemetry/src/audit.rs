//! Authorization audit trail: an append-only, bounded log of every
//! authorize / prove / select_view / revocation decision made anywhere in
//! the process.
//!
//! Each [`AuditRecord`] captures who asked for what, the verdict, a digest
//! of the delegation chain the decision rested on, where the answer came
//! from (fresh proof search vs. positive/negative cache hit, and at which
//! repository epoch), and the trace id of the causal tree the decision
//! belongs to — so `psf audit` can replay the decision history behind any
//! trace and `psf trace --tree` can show where its latency went.
//!
//! The log is a ring buffer like the span tracer: bounded, lock-guarded,
//! oldest-evicted, with an eviction counter mirrored to the
//! `psf.audit.dropped` gauge (global log only). Export is JSONL with the
//! same escaping rules as span export.

use crate::trace::{escape_into, TraceId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Text of an audit record or a span field: a literal, an owned string,
/// a string shared between records, so a stored decision's record is
/// committed again without copying its text, or short text held in place.
#[derive(Clone)]
pub enum Text {
    /// A literal.
    Static(&'static str),
    /// Built for one record.
    Owned(String),
    /// Shared between records; cloning it copies no text.
    Shared(Arc<str>),
    /// Up to [`Text::INLINE`] bytes of UTF-8 without a NUL, padded with
    /// NULs: no allocation, and a clone is a copy. Made by
    /// [`Text::inline`] and [`Text::display`].
    Inline([u8; Text::INLINE]),
}

impl Text {
    /// The most bytes held in place; `Text` stays the size of a `String`.
    pub const INLINE: usize = 16;

    /// `s` held in place, if it fits and has no NUL.
    pub fn inline(s: &str) -> Option<Text> {
        if s.len() > Text::INLINE || s.contains('\0') {
            return None;
        }
        let mut buf = [0; Text::INLINE];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Some(Text::Inline(buf))
    }

    /// `value` formatted: in place when it fits, owned otherwise. A value
    /// that outgrows the place is formatted again, into a `String`.
    pub fn display(value: impl std::fmt::Display) -> Text {
        let mut buf = [0; Text::INLINE];
        let mut rest = &mut buf[..];
        let fits = std::io::Write::write_fmt(&mut rest, format_args!("{value}")).is_ok();
        let len = Text::INLINE - rest.len();
        if fits && !buf[..len].contains(&0) {
            Text::Inline(buf)
        } else {
            Text::Owned(value.to_string())
        }
    }

    /// This text, cheap to clone: owned text moves behind an `Arc`.
    pub fn share(self) -> Text {
        match self {
            Text::Owned(s) => Text::Shared(s.into()),
            text => text,
        }
    }
}

/// The text in place in `buf`, up to its first NUL. Only whole UTF-8
/// strings are kept in place, so the check never fails.
fn inline_str(buf: &[u8]) -> &str {
    let len = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
    std::str::from_utf8(&buf[..len]).unwrap_or_default()
}

impl Default for Text {
    fn default() -> Text {
        Text::Static("")
    }
}

impl std::ops::Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Text::Static(s) => s,
            Text::Owned(s) => s,
            Text::Shared(s) => s,
            Text::Inline(buf) => inline_str(buf),
        }
    }
}

/// Text is made from a literal or an owned string, and compares and
/// prints as the `str` it derefs to.
macro_rules! text_impls {
    (from $($src:ty => $form:ident),*; eq $($other:ty),*; fmt $($tr:ident),*) => {
        $(impl From<$src> for Text {
            fn from(s: $src) -> Text {
                Text::$form(s)
            }
        })*
        $(impl PartialEq<$other> for Text {
            fn eq(&self, other: &$other) -> bool {
                self[..] == other[..]
            }
        })*
        impl Eq for Text {}
        $(impl std::fmt::$tr for Text {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::$tr::fmt(&**self, f)
            }
        })*
    };
}

text_impls!(from &'static str => Static, String => Owned;
    eq Text, str, &str, String; fmt Debug, Display);

/// Ring-buffer capacity of the global audit log.
pub const DEFAULT_CAPACITY: usize = 8192;

/// What kind of decision an [`AuditRecord`] documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A dRBAC proof search (`ProofEngine::prove`).
    Prove,
    /// A role→view ACL selection (`ViewAcl::select_view`).
    SelectView,
    /// A method/service-level authorization (`Guard`, Switchboard
    /// `Authorizer`).
    Authorize,
    /// A credential revocation (`RevocationBus::revoke`).
    Revocation,
}

impl Decision {
    /// Stable lowercase name used in JSONL and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            Decision::Prove => "prove",
            Decision::SelectView => "select_view",
            Decision::Authorize => "authorize",
            Decision::Revocation => "revocation",
        }
    }
}

/// The outcome of a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The request was granted.
    Allow,
    /// The request was denied.
    Deny,
    /// A credential was revoked (revocation records only).
    Revoked,
}

impl Verdict {
    /// Stable lowercase name used in JSONL and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Allow => "allow",
            Verdict::Deny => "deny",
            Verdict::Revoked => "revoked",
        }
    }
}

/// Where the answer came from: cache provenance of the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// No cache was consulted (uncached engine, or not applicable).
    #[default]
    Uncached,
    /// Answered from a cached positive proof.
    Hit,
    /// Answered from a cached negative result.
    NegativeHit,
    /// Cache consulted but missed; a fresh search ran.
    Miss,
    /// Decided by the independent certificate checker — no proof search
    /// and no repository access; the verdict rests on a presented or
    /// cached `AuthCertificate`.
    CertVerified,
}

impl CacheOutcome {
    /// Stable lowercase name used in JSONL and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Hit => "hit",
            CacheOutcome::NegativeHit => "negative",
            CacheOutcome::Miss => "miss",
            CacheOutcome::CertVerified => "cert-verified",
        }
    }
}

/// One audited decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotonic sequence number (1-based), assigned at record time.
    pub seq: u64,
    /// Microseconds since the Unix epoch at record time.
    pub t_us: u64,
    /// The causal trace the decision belongs to, if one was live.
    pub trace: Option<TraceId>,
    /// What kind of decision this is.
    pub decision: Decision,
    /// The requesting subject (entity or role), rendered.
    pub subject: Text,
    /// What was decided about: a role for proofs, a view name for view
    /// selections, a method/service for authorizations, a credential id
    /// for revocations.
    pub object: Text,
    /// The outcome.
    pub verdict: Verdict,
    /// FNV-1a digest (16 hex chars) over the ordered credential ids of the
    /// delegation chain the verdict rested on; empty when no chain was
    /// involved (catch-all grants, denials, revocations).
    pub chain_digest: Text,
    /// Cache provenance of the answer.
    pub cache: CacheOutcome,
    /// Repository epoch the answer is pinned to, when a cache was
    /// consulted.
    pub epoch: Option<u64>,
    /// Truncated hex digest of the authorization certificate the decision
    /// rested on (emission or checker verdicts); empty when no
    /// certificate was involved.
    pub cert_digest: Text,
    /// Free-form detail (error text for denials, rule matched, …).
    pub detail: Text,
}

/// Digest an ordered delegation chain (credential ids) into the compact
/// hex form stored in [`AuditRecord::chain_digest`]. FNV-1a over the ids
/// separated by `\n` — stable across processes, and its 16 hex characters
/// are held in place, so a digest allocates nothing.
pub fn chain_digest<S: AsRef<str>>(credential_ids: &[S]) -> Text {
    if credential_ids.is_empty() {
        return Text::default();
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in credential_ids {
        for b in id.as_ref().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let hex: [u8; 16] =
        std::array::from_fn(|i| b"0123456789abcdef"[(h >> (60 - 4 * i)) as usize & 0xf]);
    Text::Inline(hex)
}

/// Append-only bounded audit log (ring buffer, oldest evicted).
pub struct AuditLog {
    buf: Mutex<VecDeque<AuditRecord>>,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
    drop_gauge: OnceLock<Arc<crate::metrics::Gauge>>,
    report_drops: bool,
}

impl AuditLog {
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        AuditLog {
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            next_seq: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            drop_gauge: OnceLock::new(),
            report_drops: false,
        }
    }

    /// Append a decision. `seq` and `t_us` on the passed record are
    /// overwritten; callers fill in the decision fields only.
    pub fn record(&self, mut record: AuditRecord) {
        record.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        record.t_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut buf = self.buf.lock();
        if buf.len() >= self.capacity {
            buf.pop_front();
            let dropped = self.dropped.fetch_add(1, Ordering::Relaxed) + 1;
            if self.report_drops {
                self.drop_gauge
                    .get_or_init(|| crate::metrics::global().gauge("psf.audit.dropped"))
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

    /// Copy out the buffered records, oldest first.
    pub fn snapshot(&self) -> Vec<AuditRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Clear the buffer (tests, or after exporting).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }

    /// Snapshot filtered: by subject substring, denials only, and/or
    /// trace id. `None` filters match everything.
    pub fn query(
        &self,
        subject: Option<&str>,
        deny_only: bool,
        trace: Option<TraceId>,
    ) -> Vec<AuditRecord> {
        self.snapshot()
            .into_iter()
            .filter(|r| subject.is_none_or(|s| r.subject.contains(s)))
            .filter(|r| !deny_only || r.verdict != Verdict::Allow)
            .filter(|r| trace.is_none_or(|t| r.trace == Some(t)))
            .collect()
    }

    /// Serialize the buffer as JSON lines, one record per line.
    pub fn export_jsonl(&self) -> String {
        let records = self.snapshot();
        let mut out = String::with_capacity(records.len() * 160);
        for r in &records {
            Self::write_jsonl(r, &mut out);
        }
        out
    }

    /// Serialize one record as a JSON line (no trailing newline).
    pub fn render_jsonl(record: &AuditRecord) -> String {
        let mut out = String::with_capacity(160);
        Self::write_jsonl(record, &mut out);
        out.pop(); // trailing '\n'
        out
    }

    fn write_jsonl(r: &AuditRecord, out: &mut String) {
        let _ = write!(out, "{{\"seq\":{},\"t_us\":{},\"trace\":", r.seq, r.t_us);
        match r.trace {
            Some(t) => {
                let _ = write!(out, "\"{t}\"");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"decision\":\"{}\",\"subject\":\"",
            r.decision.as_str()
        );
        escape_into(&r.subject, out);
        out.push_str("\",\"object\":\"");
        escape_into(&r.object, out);
        let _ = write!(
            out,
            "\",\"verdict\":\"{}\",\"chain_digest\":\"{}\",\"cache\":\"{}\",\"epoch\":",
            r.verdict.as_str(),
            r.chain_digest,
            r.cache.as_str()
        );
        match r.epoch {
            Some(e) => {
                let _ = write!(out, "{e}");
            }
            None => out.push_str("null"),
        }
        if !r.cert_digest.is_empty() {
            out.push_str(",\"cert\":\"");
            escape_into(&r.cert_digest, out);
            out.push('"');
        }
        if !r.detail.is_empty() {
            out.push_str(",\"detail\":\"");
            escape_into(&r.detail, out);
            out.push('"');
        }
        out.push_str("}\n");
    }
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

/// The process-wide audit log all PSF decision points report to.
pub fn global() -> &'static AuditLog {
    static GLOBAL: OnceLock<AuditLog> = OnceLock::new();
    GLOBAL.get_or_init(|| AuditLog {
        report_drops: true,
        ..AuditLog::default()
    })
}

/// Convenience builder for the common "record on the global log" path.
/// The trace id is captured from the calling thread's current context.
pub fn record(
    decision: Decision,
    subject: impl Into<Text>,
    object: impl Into<Text>,
    verdict: Verdict,
) -> AuditRecordBuilder {
    AuditRecordBuilder {
        record: AuditRecord {
            seq: 0,
            t_us: 0,
            trace: crate::trace::current_trace_id(),
            decision,
            subject: subject.into(),
            object: object.into(),
            verdict,
            chain_digest: Text::default(),
            cache: CacheOutcome::Uncached,
            epoch: None,
            cert_digest: Text::default(),
            detail: Text::default(),
        },
    }
}

/// A builder holding a clone of a stored record (see
/// [`AuditRecordBuilder::into_stored`]) and the calling thread's trace id.
pub fn record_from(stored: &AuditRecord) -> AuditRecordBuilder {
    AuditRecordBuilder {
        record: AuditRecord {
            trace: crate::trace::current_trace_id(),
            ..stored.clone()
        },
    }
}

/// Builder returned by [`record`]; commits to the global log on
/// [`AuditRecordBuilder::commit`] (or silently on drop).
pub struct AuditRecordBuilder {
    record: AuditRecord,
}

impl AuditRecordBuilder {
    /// Set the delegation-chain digest from the ordered credential ids.
    pub fn chain<S: AsRef<str>>(mut self, credential_ids: &[S]) -> Self {
        self.record.chain_digest = chain_digest(credential_ids);
        self
    }

    /// Set cache provenance.
    pub fn cache(mut self, outcome: CacheOutcome, epoch: Option<u64>) -> Self {
        self.record.cache = outcome;
        self.record.epoch = epoch;
        self
    }

    /// Attach the digest of the authorization certificate the decision
    /// rested on.
    pub fn cert(mut self, digest: impl Into<Text>) -> Self {
        self.record.cert_digest = digest.into();
        self
    }

    /// Attach free-form detail (error text, matched rule, …).
    pub fn detail(mut self, detail: impl Into<Text>) -> Self {
        self.record.detail = detail.into();
        self
    }

    /// The record built so far, its text shared and its trace cleared, for
    /// a decision to store and commit again through [`record_from`].
    pub fn into_stored(self) -> AuditRecord {
        let r = self.record;
        AuditRecord {
            trace: None,
            subject: r.subject.share(),
            object: r.object.share(),
            chain_digest: r.chain_digest.share(),
            cert_digest: r.cert_digest.share(),
            detail: r.detail.share(),
            ..r
        }
    }

    /// Append to the global audit log.
    pub fn commit(self) {
        global().record(self.record);
        crate::counter!("psf.audit.records").inc();
    }
}

/// A JSONL audit export target with optional crash-durability: when
/// `fsync_on_drop` is set, the file is fsynced before the handle closes,
/// so the audit trail survives the same `kill -9` the repository WAL
/// does. Off by default — export paths that only feed dashboards should
/// not pay the sync.
pub struct AuditSink {
    file: std::fs::File,
    path: std::path::PathBuf,
    fsync_on_drop: bool,
}

impl AuditSink {
    /// Create (truncate) the sink file.
    pub fn create(path: impl Into<std::path::PathBuf>) -> std::io::Result<AuditSink> {
        let path = path.into();
        Ok(AuditSink {
            file: std::fs::File::create(&path)?,
            path,
            fsync_on_drop: false,
        })
    }

    /// Opt in to fsync-on-drop durability.
    pub fn fsync_on_drop(mut self, on: bool) -> AuditSink {
        self.fsync_on_drop = on;
        self
    }

    /// Where the sink writes.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Write a log's current buffer as JSON lines. Returns the number of
    /// records written.
    pub fn write_log(&mut self, log: &AuditLog) -> std::io::Result<usize> {
        use std::io::Write as _;
        let jsonl = log.export_jsonl();
        let n = jsonl.lines().count();
        self.file.write_all(jsonl.as_bytes())?;
        Ok(n)
    }

    /// Append a single record as one JSON line.
    pub fn write_record(&mut self, record: &AuditRecord) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut line = AuditLog::render_jsonl(record);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Flush and fsync immediately (independent of the drop policy).
    pub fn sync(&mut self) -> std::io::Result<()> {
        use std::io::Write as _;
        self.file.flush()?;
        self.file.sync_data()
    }
}

impl Drop for AuditSink {
    fn drop(&mut self) {
        if self.fsync_on_drop {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(subject: &str, verdict: Verdict) -> AuditRecord {
        AuditRecord {
            seq: 0,
            t_us: 0,
            trace: None,
            decision: Decision::Prove,
            subject: subject.to_string().into(),
            object: "Comp.NY.Member".into(),
            verdict,
            chain_digest: Text::default(),
            cache: CacheOutcome::Uncached,
            epoch: None,
            cert_digest: Text::default(),
            detail: Text::default(),
        }
    }

    #[test]
    fn every_form_reads_compares_and_prints_as_its_str() {
        let forms = [
            Text::from("view.Admin"),
            Text::from("view.Admin".to_string()),
            Text::Shared("view.Admin".into()),
            Text::inline("view.Admin").unwrap(),
        ];
        for t in &forms {
            assert_eq!(&**t, "view.Admin");
            assert_eq!(*t, "view.Admin");
            assert_eq!(*t, "view.Admin".to_string());
            for other in &forms {
                assert_eq!(t, other);
            }
            assert_eq!(t.to_string(), "view.Admin");
            assert_eq!(format!("{t:>12}|{t:?}"), "  view.Admin|\"view.Admin\"");
        }
        assert_ne!(forms[3], Text::inline("view.Admi").unwrap());
        assert!(matches!(forms[1].clone().share(), Text::Shared(_)));
        assert!(matches!(forms[0].clone().share(), Text::Static(_)));
        assert!(matches!(forms[3].clone().share(), Text::Inline(_)));
        assert!(Text::default().is_empty());
    }

    #[test]
    fn text_is_the_size_of_a_string() {
        assert_eq!(std::mem::size_of::<Text>(), 24);
        assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<String>());
    }

    #[test]
    fn short_text_round_trips_in_place_and_long_text_is_owned() {
        for n in [0, 1, 15, 16, 17, 40] {
            let s = "x".repeat(n);
            let inline = Text::inline(&s);
            assert_eq!(inline.is_some(), n <= Text::INLINE, "{n} bytes");
            let shown = Text::display(&s);
            assert_eq!(matches!(shown, Text::Inline(_)), n <= Text::INLINE);
            assert_eq!(matches!(shown, Text::Owned(_)), n > Text::INLINE);
            for t in inline.iter().chain([&shown]) {
                assert_eq!(**t, *s, "{n} bytes");
                assert_eq!(t.len(), n);
            }
        }
        // Written in several pieces, owned when a later piece overflows.
        let role = format_args!("{}.{}", "Org", "Member");
        assert!(matches!(Text::display(role), Text::Inline(_)));
        let long = Text::display(format_args!("{}.{}", "Organisation", "Member"));
        assert!(matches!(long, Text::Owned(_)));
        assert_eq!(long, "Organisation.Member");
        assert_eq!(Text::display(true), "true");
        assert_eq!(Text::display(1_234_567u64), "1234567");
    }

    #[test]
    fn a_character_is_never_split_across_the_boundary() {
        // 15 ASCII bytes and a 2-byte character: 17 bytes, owned whole.
        let s = format!("{}é", "a".repeat(15));
        assert_eq!(s.len(), 17);
        assert!(Text::inline(&s).is_none());
        let shown = Text::display(&s);
        assert!(matches!(shown, Text::Owned(_)));
        assert_eq!(shown, *s);
        // 14 and the same character: 16 bytes, in place whole.
        let s = format!("{}é", "a".repeat(14));
        assert_eq!(Text::inline(&s).unwrap(), *s);
        assert!(matches!(Text::display(&s), Text::Inline(_)));
        // A character written after 15 bytes makes the text owned.
        let split = Text::display(format_args!("{}{}", "a".repeat(15), 'é'));
        assert!(matches!(split, Text::Owned(_)));
        assert_eq!(split, format!("{}é", "a".repeat(15)));
    }

    #[test]
    fn text_with_a_nul_is_owned() {
        assert!(Text::inline("a\0b").is_none());
        assert!(Text::inline("\0").is_none());
        let shown = Text::display("a\0b");
        assert!(matches!(shown, Text::Owned(_)));
        assert_eq!(shown, "a\0b");
        assert_eq!(shown.len(), 3);
        let late = Text::display(format_args!("{}{}", "ab", "\0"));
        assert!(matches!(late, Text::Owned(_)));
        assert_eq!(late, "ab\0");
    }

    #[test]
    fn sink_writes_and_syncs_jsonl() {
        let path = std::env::temp_dir().join(format!("psf-audit-sink-{}", std::process::id()));
        let log = AuditLog::with_capacity(8);
        log.record(rec("Alice", Verdict::Allow));
        log.record(rec("Bob", Verdict::Deny));
        {
            let mut sink = AuditSink::create(&path).unwrap().fsync_on_drop(true);
            assert_eq!(sink.write_log(&log).unwrap(), 2);
            sink.write_record(&log.snapshot()[0]).unwrap();
            assert_eq!(sink.path(), path.as_path());
        } // drop fsyncs
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_are_sequenced_and_bounded() {
        let log = AuditLog::with_capacity(3);
        for i in 0..5 {
            log.record(rec(&format!("S{i}"), Verdict::Allow));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let seqs: Vec<u64> = log.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
    }

    #[test]
    fn query_filters_subject_verdict_trace() {
        let log = AuditLog::default();
        let t = TraceId::fresh();
        log.record(rec("Alice", Verdict::Allow));
        log.record(rec("Bob", Verdict::Deny));
        let mut with_trace = rec("Alice", Verdict::Deny);
        with_trace.trace = Some(t);
        log.record(with_trace);

        assert_eq!(log.query(Some("Alice"), false, None).len(), 2);
        assert_eq!(log.query(None, true, None).len(), 2);
        assert_eq!(log.query(None, false, Some(t)).len(), 1);
        assert_eq!(log.query(Some("Alice"), true, Some(t)).len(), 1);
        assert_eq!(log.query(Some("Carol"), false, None).len(), 0);
    }

    #[test]
    fn jsonl_shape_and_escaping() {
        let log = AuditLog::default();
        let mut r = rec("Alice \"A\"", Verdict::Deny);
        r.cache = CacheOutcome::NegativeHit;
        r.epoch = Some(7);
        r.detail = "no path\nfound".into();
        r.chain_digest = chain_digest(&["cred-1", "cred-2"]);
        log.record(r);
        let text = log.export_jsonl();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with("{\"seq\":1,"));
        assert!(line.contains("\"decision\":\"prove\""));
        assert!(line.contains("\"subject\":\"Alice \\\"A\\\"\""));
        assert!(line.contains("\"verdict\":\"deny\""));
        assert!(line.contains("\"cache\":\"negative\""));
        assert!(line.contains("\"epoch\":7"));
        assert!(line.contains("\"detail\":\"no path\\nfound\""));
        assert!(line.contains("\"trace\":null"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn chain_digest_is_order_sensitive_and_stable() {
        let d1 = chain_digest(&["a", "b"]);
        let d2 = chain_digest(&["b", "a"]);
        assert_ne!(d1, d2);
        assert_eq!(d1, chain_digest(&["a", "b"]));
        assert_eq!(d1.len(), 16);
        assert!(matches!(d1, Text::Inline(_)), "a digest is held in place");
        assert!(chain_digest::<&str>(&[]).is_empty());
        // Concatenation ambiguity is broken by the separator.
        assert_ne!(chain_digest(&["ab"]), chain_digest(&["a", "b"]));
    }

    #[test]
    fn builder_records_to_global() {
        let before = global().len() + global().dropped() as usize;
        record(Decision::Authorize, "Alice", "deliver", Verdict::Allow)
            .chain(&["c1"])
            .cache(CacheOutcome::Hit, Some(3))
            .detail("rule 0")
            .commit();
        let after = global().len() + global().dropped() as usize;
        assert_eq!(after, before + 1);
    }
}
