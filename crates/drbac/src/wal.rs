//! Durable write-ahead log for the credential repository.
//!
//! The in-memory sharded [`Repository`] loses every published delegation —
//! and, worse, every revocation — on a crash: a restarted node would
//! silently re-trust revoked credentials. This module makes the trust
//! plane crash-safe, in the spirit of SAFE's durable linked-credential
//! store (Thummala & Chase): every repository mutation is appended to an
//! on-disk log *before* the caller regains control, and
//! [`ShardedDurableRepository::open`] replays the logs (plus the latest
//! snapshots) to rebuild the exact pre-crash authorization state.
//!
//! ## Layout
//!
//! There is one engine and one on-disk layout. A durable directory holds
//! one log *segment* per repository shard under `dir/shard-NN/` plus a
//! `dir/bus/` segment for revocations, all declared by a checksummed
//! `dir/shards.meta`; a segment is a `delegations.wal` log and, once
//! compacted, a `snapshot.bin`. A publish is appended only to its
//! subject's shard segment, so writers to different shards never share a
//! log mutex; revocations go to the bus segment (a bulk revoke as one
//! frame); a purge is replicated to every shard segment and re-applied
//! shard-locally. Recovery replays the shard segments in parallel. A
//! "single log" is this layout with `shards = 1`.
//!
//! ## Record format
//!
//! A log is a sequence of self-delimiting frames:
//!
//! ```text
//! [u32 len][u32 crc32][payload]          len, crc little-endian
//! payload = [u64 epoch][u8 kind][body]   crc covers the whole payload
//! ```
//!
//! Kinds: `1` **Publish** (`u32`-prefixed home string, one tag byte,
//! credential in [`SignedDelegation::to_wire`] framing), `2` **Revoke**
//! (`u32`-prefixed credential id), `3` **PurgeExpired** (`u64` purge
//! time), `4` **RevokeBatch** (`u32` count, then that many
//! `u32`-prefixed credential ids — one frame for an entire
//! [`RevocationBus::revoke_all`] epoch). The epoch tag is the
//! repository's mutation epoch at append time; recovery raises the
//! rebuilt repository's epoch to the maximum seen and then bumps it once
//! more, so any negative proof-cache entry pinned to a pre-crash epoch
//! can never be mistaken for current.
//!
//! ## Torn writes, duplicates, ordering
//!
//! A crash mid-append leaves a torn tail. Recovery scans each log
//! front-to-back and stops at the first frame whose header, length, CRC,
//! or payload fails to decode; everything before is replayed, everything
//! after is truncated (physically, by [`ShardedDurableRepository::open`];
//! [`Repository::recover_sharded`] and [`verify_sharded_dir`] are
//! read-only and never modify the files). Replay is duplicate-tolerant —
//! a crash between snapshot rename and log truncation leaves both
//! covering the same records, and `(home, credential-id)` dedup makes the
//! overlap harmless — and out-of-order-revoke tolerant (a `Revoke` for an
//! id no segment publishes still lands in the bus).
//!
//! ## Snapshots & compaction
//!
//! [`ShardedDurableRepository::compact`] writes each segment's state
//! (a shard's credentials, or the bus's revoked ids) to `snapshot.tmp`,
//! fsyncs, renames it over `snapshot.bin`, fsyncs the directory, and only
//! then truncates that segment's log. The snapshot carries the epoch it
//! was taken at and a trailing CRC32 over its entire contents; a corrupt
//! snapshot (torn rename on a filesystem without atomic rename
//! durability) is ignored at recovery and reported in the
//! [`RecoveryReport`].
//!
//! ## Group commit
//!
//! Under [`FsyncPolicy::Always`] a frame is handed to the OS under the
//! segment's writer lock and fsynced outside it, so concurrent writers to
//! one segment share fsyncs without giving up per-record durability.
//! [`FsyncPolicy::Never`] batches frames per segment in memory (note the
//! loss window for buffered frames then includes a process crash, not
//! just power loss — `sync()` flushes, and so does dropping the last
//! handle: the engine is owned by the [`ShardedDurableRepository`]
//! handles and by the logging observers of the repository and the bus,
//! never the other way round, so it goes — buffers written, files closed
//! — with the last of them).
//!
//! A directory holding a root-level `delegations.wal` / `snapshot.bin`
//! (the single-log layout that preceded segments) is refused by every
//! entry point, [`ShardedDurableRepository::open`] included, with a typed
//! `InvalidData` error and without touching it, rather than served as an
//! empty repository.

use crate::delegation::{CredId, Credential, SignedDelegation};
use crate::entity::EntityName;
use crate::repository::{DiscoveryTag, RepoEvent, Repository};
use crate::revocation::RevocationBus;
use crate::wire::Reader;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Log file name inside a segment directory.
pub const LOG_FILE: &str = "delegations.wal";
/// Snapshot file name inside a segment directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary snapshot name (renamed over [`SNAPSHOT_FILE`] when complete).
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Shard-count manifest at the root of a durable directory.
pub const SHARD_META_FILE: &str = "shards.meta";
/// Revocation-bus segment directory inside a durable directory.
pub const BUS_DIR: &str = "bus";

const SNAPSHOT_MAGIC: &[u8; 11] = b"PSF-SNAP-v1";
const SHARD_META_MAGIC: &[u8; 11] = b"PSF-SHRD-v1";
/// Upper bound on a single record's payload; anything larger is treated
/// as corruption (a credential is ~200 bytes, so this is generous).
const MAX_RECORD_LEN: u32 = 1 << 24;

const KIND_PUBLISH: u8 = 1;
const KIND_REVOKE: u8 = 2;
const KIND_PURGE: u8 = 3;
const KIND_REVOKE_BATCH: u8 = 4;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected 0xEDB88320) — table built at compile time so the
// log needs no external checksum crate.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A decoded log operation.
// Publish dominates real logs, so boxing its credential would add an
// allocation per replayed record to shrink the rare Revoke/Purge variants.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WalOp {
    /// A credential published at `home` with discovery tags `tag`.
    Publish {
        /// The home node the credential was stored at.
        home: EntityName,
        /// Its discovery tags.
        tag: DiscoveryTag,
        /// The credential itself.
        cred: SignedDelegation,
    },
    /// A credential id revoked.
    Revoke {
        /// The revoked credential id.
        id: String,
    },
    /// An expiry sweep at time `now`.
    PurgeExpired {
        /// The purge evaluation time.
        now: u64,
    },
    /// A bulk revocation epoch: every id revoked in one
    /// [`RevocationBus::revoke_all`] call, logged as a single frame.
    RevokeBatch {
        /// The revoked credential ids.
        ids: Vec<String>,
    },
}

/// One valid record found by [`scan_log`].
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// Byte offset of the record's frame header in the log.
    pub offset: u64,
    /// Repository epoch at append time.
    pub epoch: u64,
    /// The operation.
    pub op: WalOp,
}

/// Result of scanning a log image front-to-back.
#[derive(Debug)]
pub struct LogScan {
    /// Every record up to the first corruption (or the end).
    pub records: Vec<ScannedRecord>,
    /// Bytes covered by valid records; the log's recoverable prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (torn tail / corruption).
    pub truncated_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub corruption: Option<String>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode a publish payload directly from borrowed parts — the hot path
/// for the sharded log, which must not deep-clone a signed credential per
/// append just to build a [`WalOp`].
fn encode_publish_payload(
    epoch: u64,
    home: &EntityName,
    tag: DiscoveryTag,
    cred: &SignedDelegation,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.push(KIND_PUBLISH);
    put_str(&mut out, &home.0);
    out.push(tag.to_byte());
    out.extend_from_slice(&cred.to_wire());
    out
}

fn encode_payload(epoch: u64, op: &WalOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&epoch.to_le_bytes());
    match op {
        WalOp::Publish { home, tag, cred } => {
            return encode_publish_payload(epoch, home, *tag, cred)
        }
        WalOp::Revoke { id } => {
            out.push(KIND_REVOKE);
            put_str(&mut out, id);
        }
        WalOp::PurgeExpired { now } => {
            out.push(KIND_PURGE);
            out.extend_from_slice(&now.to_le_bytes());
        }
        WalOp::RevokeBatch { ids } => {
            out.push(KIND_REVOKE_BATCH);
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                put_str(&mut out, id);
            }
        }
    }
    out
}

/// Minimum encoded size of a `u32`-prefixed string (the empty one).
const MIN_STRING_BYTES: usize = 4;
/// Minimum encoded size of a snapshot entry: home string, tag byte, and
/// a credential's `u32` body length plus 64-byte signature.
const MIN_ENTRY_BYTES: usize = MIN_STRING_BYTES + 1 + 4 + 64;

/// Read a `u32` element count and refuse one the remaining bytes cannot
/// hold at `min_bytes` per element. The count is untrusted (CRC-32 is not
/// a MAC), so it must never size an allocation on its own.
fn bounded_count(r: &mut Reader, min_bytes: usize, what: &str) -> Result<usize, String> {
    let n = r.u32().map_err(|e| e.to_string())? as usize;
    if n > r.remaining() / min_bytes {
        return Err(format!("implausible {what} count {n}"));
    }
    Ok(n)
}

fn decode_payload(payload: &[u8]) -> Result<(u64, WalOp), String> {
    let mut r = Reader::new(payload);
    let epoch = r.u64().map_err(|e| e.to_string())?;
    let kind = r.u8().map_err(|e| e.to_string())?;
    let op = match kind {
        KIND_PUBLISH => {
            let home = r.string().map_err(|e| e.to_string())?;
            let tag = DiscoveryTag::from_byte(r.u8().map_err(|e| e.to_string())?)
                .ok_or_else(|| "bad discovery tag".to_string())?;
            let cred = SignedDelegation::from_wire(&mut r).map_err(|e| e.to_string())?;
            WalOp::Publish {
                home: EntityName(home),
                tag,
                cred,
            }
        }
        KIND_REVOKE => WalOp::Revoke {
            id: r.string().map_err(|e| e.to_string())?,
        },
        KIND_PURGE => WalOp::PurgeExpired {
            now: r.u64().map_err(|e| e.to_string())?,
        },
        KIND_REVOKE_BATCH => {
            let n = bounded_count(&mut r, MIN_STRING_BYTES, "revoke-batch")?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(r.string().map_err(|e| e.to_string())?);
            }
            WalOp::RevokeBatch { ids }
        }
        k => return Err(format!("unknown record kind {k}")),
    };
    if !r.finished() {
        return Err("trailing bytes in record payload".into());
    }
    Ok((epoch, op))
}

/// Scan a log image front-to-back, stopping at the first frame whose
/// header, length, CRC, or payload fails to decode. Everything before the
/// stop point is returned as valid records; everything after is the torn
/// tail.
pub fn scan_log(buf: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut corruption = None;
    while pos < buf.len() {
        if pos + 8 > buf.len() {
            corruption = Some("truncated frame header".into());
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD_LEN {
            corruption = Some(format!("implausible record length {len}"));
            break;
        }
        let end = pos + 8 + len as usize;
        if end > buf.len() {
            corruption = Some("truncated record body".into());
            break;
        }
        let payload = &buf[pos + 8..end];
        if crc32(payload) != crc {
            corruption = Some(format!("checksum mismatch at offset {pos}"));
            break;
        }
        match decode_payload(payload) {
            Ok((epoch, op)) => records.push(ScannedRecord {
                offset: pos as u64,
                epoch,
                op,
            }),
            Err(e) => {
                corruption = Some(format!("undecodable record at offset {pos}: {e}"));
                break;
            }
        }
        pos = end;
    }
    LogScan {
        valid_bytes: pos as u64,
        truncated_bytes: (buf.len() - pos) as u64,
        records,
        corruption,
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A decoded snapshot: the full repository + revocation state at the
/// moment of the last compaction.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Repository epoch when the snapshot was taken.
    pub epoch: u64,
    /// `(home, tag, credential)` entries, in compaction order.
    pub entries: Vec<(EntityName, DiscoveryTag, SignedDelegation)>,
    /// Revoked credential ids.
    pub revoked: Vec<String>,
}

fn encode_snapshot(
    epoch: u64,
    entries: &[(EntityName, DiscoveryTag, Arc<Credential>)],
    revoked: &[String],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (home, tag, cred) in entries {
        put_str(&mut out, &home.0);
        out.push(tag.to_byte());
        out.extend_from_slice(&cred.to_wire());
    }
    out.extend_from_slice(&(revoked.len() as u32).to_le_bytes());
    for id in revoked {
        put_str(&mut out, id);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_snapshot(buf: &[u8]) -> Result<Snapshot, String> {
    if buf.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err("snapshot too short".into());
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err("snapshot checksum mismatch".into());
    }
    if &body[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err("bad snapshot magic".into());
    }
    let mut r = Reader::new(&body[SNAPSHOT_MAGIC.len()..]);
    let epoch = r.u64().map_err(|e| e.to_string())?;
    let n = bounded_count(&mut r, MIN_ENTRY_BYTES, "snapshot entry")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let home = r.string().map_err(|e| e.to_string())?;
        let tag = DiscoveryTag::from_byte(r.u8().map_err(|e| e.to_string())?)
            .ok_or_else(|| "bad discovery tag".to_string())?;
        let cred = SignedDelegation::from_wire(&mut r).map_err(|e| e.to_string())?;
        entries.push((EntityName(home), tag, cred));
    }
    let m = bounded_count(&mut r, MIN_STRING_BYTES, "snapshot revocation")?;
    let mut revoked = Vec::with_capacity(m);
    for _ in 0..m {
        revoked.push(r.string().map_err(|e| e.to_string())?);
    }
    if !r.finished() {
        return Err("trailing bytes in snapshot".into());
    }
    Ok(Snapshot {
        epoch,
        entries,
        revoked,
    })
}

enum SnapshotLoad {
    Missing,
    Corrupt(String),
    Loaded(Snapshot),
}

fn load_snapshot(path: &Path) -> std::io::Result<SnapshotLoad> {
    match std::fs::read(path) {
        Ok(buf) => Ok(match decode_snapshot(&buf) {
            Ok(s) => SnapshotLoad::Loaded(s),
            Err(e) => SnapshotLoad::Corrupt(e),
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(SnapshotLoad::Missing),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When the log file is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: a record is durable before the mutating
    /// call returns. The only policy under which "committed" in the
    /// acceptance sense — survives `kill -9` — is guaranteed.
    Always,
    /// Never fsync explicitly; the OS flushes when it pleases. Frames
    /// wait in a user-space buffer of up to 64 KiB per segment until it
    /// fills, `sync()` runs or the last handle drops; only what has left
    /// that buffer survives a process crash (the page cache persists), and
    /// nothing is safe from power loss.
    Never,
}

/// Durability configuration for [`ShardedDurableRepository::open`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Fsync policy for log appends.
    pub fsync: FsyncPolicy,
    /// Compact (snapshot + truncate) automatically once this many records
    /// have been appended since the last compaction. `None` = manual
    /// compaction only.
    pub auto_compact_appends: Option<u64>,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            auto_compact_appends: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// What recovery found and did.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Credentials restored from the snapshot.
    pub snapshot_entries: usize,
    /// Revocations restored from the snapshot.
    pub snapshot_revocations: usize,
    /// True when a snapshot file existed but failed its checksum and was
    /// ignored (the log alone was replayed).
    pub snapshot_corrupt: bool,
    /// Log records replayed (after the snapshot).
    pub records_replayed: usize,
    /// Publish records applied (excluding duplicates).
    pub publishes: usize,
    /// Revocations restored to the bus, across snapshot and log.
    pub revocations_restored: usize,
    /// PurgeExpired records re-applied.
    pub purges: usize,
    /// Publish records skipped because the same `(home, credential-id)`
    /// was already present (snapshot/log overlap after a crash between
    /// snapshot rename and log truncation).
    pub duplicates_skipped: usize,
    /// Torn-tail bytes discarded from the end of the log.
    pub truncated_bytes: u64,
    /// Valid log bytes retained.
    pub log_bytes: u64,
    /// The repository's epoch after recovery (max seen, plus one).
    pub epoch: u64,
}

/// What a compaction wrote and dropped.
#[derive(Debug, Clone, Copy)]
pub struct CompactReport {
    /// Credentials written to the snapshot.
    pub snapshot_entries: usize,
    /// Revocation ids written to the snapshot.
    pub snapshot_revocations: usize,
    /// Log bytes truncated away.
    pub log_bytes_dropped: u64,
}

/// Read-only integrity report on one segment (see
/// [`verify_sharded_dir`]).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Whether a snapshot file exists.
    pub snapshot_present: bool,
    /// Whether the snapshot failed its checksum.
    pub snapshot_corrupt: bool,
    /// Credentials in the snapshot (0 when absent/corrupt).
    pub snapshot_entries: usize,
    /// Revocation ids in the snapshot.
    pub snapshot_revocations: usize,
    /// Repository epoch the snapshot was taken at — when the segment was
    /// last compacted (0 when absent/corrupt).
    pub snapshot_epoch: u64,
    /// Snapshot file size in bytes (0 when absent).
    pub snapshot_bytes: u64,
    /// Valid records in the log.
    pub log_records: usize,
    /// Bytes covered by valid records.
    pub valid_bytes: u64,
    /// Torn/corrupt bytes past the valid prefix.
    pub truncated_bytes: u64,
    /// Why the log scan stopped early, if it did.
    pub corruption: Option<String>,
}

impl VerifyReport {
    /// True when the segment recovers with zero data loss: no torn
    /// tail, no corrupt snapshot.
    pub fn is_clean(&self) -> bool {
        self.truncated_bytes == 0 && !self.snapshot_corrupt
    }
}

// ---------------------------------------------------------------------------
// Directory layout
// ---------------------------------------------------------------------------

/// Directory name of shard segment `i` inside a durable directory.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:02}")
}

/// Segment directories of an `n`-shard layout: shards in order, bus last.
fn segment_paths(dir: &Path, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| dir.join(shard_dir_name(i)))
        .chain(std::iter::once(dir.join(BUS_DIR)))
        .collect()
}

/// Refuse a directory holding root-level files of the legacy single-log
/// layout, which no entry point reads.
fn refuse_legacy(dir: &Path) -> std::io::Result<()> {
    if dir.join(LOG_FILE).is_file() || dir.join(SNAPSHOT_FILE).is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: legacy single-log files ({LOG_FILE} / {SNAPSHOT_FILE}) at the root; \
                 that layout is no longer read",
                dir.display()
            ),
        ));
    }
    Ok(())
}

/// Every segment directory of the durable directory at `dir` — shards in
/// order, the bus segment last — as declared by its `shards.meta`.
/// Read-only. Fails with `NotFound` when `dir` is not a durable directory
/// and with `InvalidData` when it holds legacy single-log files.
pub fn segment_dirs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    use std::io::{Error, ErrorKind};
    refuse_legacy(dir)?;
    let n = read_shard_meta(dir)?.ok_or_else(|| {
        Error::new(
            ErrorKind::NotFound,
            "no shards.meta: not a durable directory",
        )
    })?;
    Ok(segment_paths(dir, n))
}

fn write_shard_meta(dir: &Path, shards: usize) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(SHARD_META_MAGIC.len() + 8);
    out.extend_from_slice(SHARD_META_MAGIC);
    out.extend_from_slice(&(shards as u32).to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join("shards.meta.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(SHARD_META_FILE))
}

fn read_shard_meta(dir: &Path) -> std::io::Result<Option<usize>> {
    let buf = match std::fs::read(dir.join(SHARD_META_FILE)) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    if buf.len() != SHARD_META_MAGIC.len() + 8 {
        return Err(bad("shards.meta: wrong size"));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Err(bad("shards.meta: checksum mismatch"));
    }
    if &body[..SHARD_META_MAGIC.len()] != SHARD_META_MAGIC {
        return Err(bad("shards.meta: bad magic"));
    }
    let n = u32::from_le_bytes(body[SHARD_META_MAGIC.len()..].try_into().unwrap()) as usize;
    if n == 0 || n > 1024 || !n.is_power_of_two() {
        return Err(bad("shards.meta: implausible shard count"));
    }
    Ok(Some(n))
}

fn read_log(seg_dir: &Path) -> std::io::Result<Vec<u8>> {
    match std::fs::read(seg_dir.join(LOG_FILE)) {
        Ok(buf) => Ok(buf),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Scan one segment's snapshot and log without replaying or modifying
/// anything.
fn verify_segment(seg_dir: &Path) -> std::io::Result<VerifyReport> {
    let path = seg_dir.join(SNAPSHOT_FILE);
    let (snapshot_present, snapshot_corrupt, snapshot) = match load_snapshot(&path)? {
        SnapshotLoad::Missing => (false, false, Snapshot::default()),
        SnapshotLoad::Corrupt(_) => (true, true, Snapshot::default()),
        SnapshotLoad::Loaded(s) => (true, false, s),
    };
    let scan = scan_log(&read_log(seg_dir)?);
    Ok(VerifyReport {
        snapshot_present,
        snapshot_corrupt,
        snapshot_entries: snapshot.entries.len(),
        snapshot_revocations: snapshot.revoked.len(),
        snapshot_epoch: snapshot.epoch,
        snapshot_bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        log_records: scan.records.len(),
        valid_bytes: scan.valid_bytes,
        truncated_bytes: scan.truncated_bytes,
        corruption: scan.corruption,
    })
}

/// Read-only integrity report over a durable directory.
#[derive(Debug, Clone)]
pub struct ShardedVerifyReport {
    /// Per-shard segment reports, in shard order.
    pub shards: Vec<VerifyReport>,
    /// The revocation-bus segment report.
    pub bus: VerifyReport,
}

impl ShardedVerifyReport {
    /// True when **every** segment recovers with zero data loss.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(|s| s.is_clean()) && self.bus.is_clean()
    }

    /// Indices of shard segments that are damaged (torn tail or corrupt
    /// snapshot); `usize::MAX` marks the bus segment.
    pub fn damaged(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_clean())
            .map(|(i, _)| i)
            .collect();
        if !self.bus.is_clean() {
            out.push(usize::MAX);
        }
        out
    }
}

/// Read-only integrity check of every segment of a durable directory.
/// Backs `psf repo --verify` and `--stats`.
pub fn verify_sharded_dir(dir: &Path) -> std::io::Result<ShardedVerifyReport> {
    let mut shards = segment_dirs(dir)?
        .iter()
        .map(|seg| verify_segment(seg))
        .collect::<std::io::Result<Vec<_>>>()?;
    let bus = shards.pop().expect("the bus segment is always listed");
    Ok(ShardedVerifyReport { shards, bus })
}

// ---------------------------------------------------------------------------
// Replay (shared by open() and recover_sharded())
// ---------------------------------------------------------------------------

/// Outcome of replaying one segment (partial [`RecoveryReport`] fields
/// plus what open() needs to truncate the torn tail).
#[derive(Default)]
struct SegmentReplay {
    snapshot_entries: usize,
    snapshot_revocations: usize,
    snapshot_corrupt: bool,
    snapshot_epoch: u64,
    records_replayed: usize,
    publishes: usize,
    revocations_restored: usize,
    purges: usize,
    duplicates_skipped: usize,
    max_epoch: u64,
    valid_bytes: u64,
    truncated_bytes: u64,
}

impl RecoveryReport {
    /// Fold one segment's outcome into the totals; `epoch` tracks the
    /// highest epoch tag seen until the caller replaces it with the
    /// repository's post-recovery epoch.
    fn absorb(&mut self, o: &SegmentReplay) {
        self.snapshot_entries += o.snapshot_entries;
        self.snapshot_revocations += o.snapshot_revocations;
        self.snapshot_corrupt |= o.snapshot_corrupt;
        self.records_replayed += o.records_replayed;
        self.publishes += o.publishes;
        self.revocations_restored += o.revocations_restored;
        self.purges += o.purges;
        self.duplicates_skipped += o.duplicates_skipped;
        self.truncated_bytes += o.truncated_bytes;
        self.log_bytes += o.valid_bytes;
        self.epoch = self.epoch.max(o.max_epoch);
    }
}

/// What [`replay_segment`] is reading, which decides how records land.
#[derive(Clone, Copy)]
enum Apply {
    /// Shard segment `i`, before the observers attach: nothing is
    /// re-logged, and a purge sweeps shard `i` **only** — so a purge
    /// replicated to N segments re-applies exactly once per shard
    /// regardless of replay interleaving.
    Shard(usize),
    /// The revocation-bus segment, before the observers attach.
    Bus,
}

/// Replay one segment directory's snapshot and log into `repo` / `bus`.
/// Publishes route to their home shard by subject hash (same FNV, same
/// count — guaranteed by construction).
fn replay_segment(
    seg_dir: &Path,
    how: Apply,
    repo: &Repository,
    bus: &RevocationBus,
) -> std::io::Result<SegmentReplay> {
    let mut out = SegmentReplay::default();
    let snapshot = match load_snapshot(&seg_dir.join(SNAPSHOT_FILE))? {
        SnapshotLoad::Missing => Snapshot::default(),
        SnapshotLoad::Corrupt(reason) => {
            out.snapshot_corrupt = true;
            psf_telemetry::audit::record(
                psf_telemetry::Decision::Revocation,
                "",
                "wal-snapshot",
                psf_telemetry::Verdict::Deny,
            )
            .detail(format!("{} snapshot ignored: {reason}", seg_dir.display()))
            .commit();
            Snapshot::default()
        }
        SnapshotLoad::Loaded(snap) => snap,
    };
    let scan = scan_log(&read_log(seg_dir)?);
    out.snapshot_epoch = snapshot.epoch;
    out.max_epoch = scan
        .records
        .iter()
        .fold(snapshot.epoch, |m, rec| m.max(rec.epoch));

    // (home, credential-id) → expiry, for every pair currently applied —
    // dedup for snapshot/log overlap and replayed double-publishes. A
    // replayed purge *removes* expired pairs, so a later re-publish of a
    // purged credential is applied rather than mistaken for a duplicate.
    let mut seen: HashMap<(String, CredId), Option<u64>> = HashMap::new();
    // Publish unless the pair is already applied; true when it was fresh.
    // Replay is a door: the credential is wrapped here, and both the
    // dedupe and the store read the id it then carries.
    let publish = |seen: &mut HashMap<_, _>, home: EntityName, tag, cred: SignedDelegation| {
        let cred = Arc::new(Credential::new(cred));
        let fresh = seen
            .insert((home.0.clone(), cred.cred_id()), cred.body.expires)
            .is_none();
        if fresh {
            repo.publish_wrapped(home, cred, tag);
        }
        fresh
    };

    for (home, tag, cred) in snapshot.entries {
        if publish(&mut seen, home, tag, cred) {
            out.snapshot_entries += 1;
        } else {
            out.duplicates_skipped += 1;
        }
    }
    out.snapshot_revocations = snapshot.revoked.len();
    out.revocations_restored += bus.restore(&snapshot.revoked);

    for rec in scan.records {
        match rec.op {
            WalOp::Publish { home, tag, cred } => {
                if publish(&mut seen, home, tag, cred) {
                    out.publishes += 1;
                } else {
                    out.duplicates_skipped += 1;
                }
            }
            WalOp::Revoke { id } => out.revocations_restored += bus.restore([id]),
            WalOp::RevokeBatch { ids } => out.revocations_restored += bus.restore(ids),
            WalOp::PurgeExpired { now } => {
                match how {
                    Apply::Shard(shard) => {
                        repo.purge_expired_shard(shard, now);
                    }
                    // The engine never writes a purge to the bus segment.
                    Apply::Bus => {}
                }
                out.purges += 1;
                seen.retain(|_, exp| exp.is_none_or(|e| now < e));
            }
        }
        out.records_replayed += 1;
    }
    out.valid_bytes = scan.valid_bytes;
    out.truncated_bytes = scan.truncated_bytes;
    Ok(out)
}

/// Replay every segment (`segs`: shards in order, bus last) into
/// `repo`/`bus`. Shard segments run on a worker pool (one credential set
/// is wholly contained in one segment, so shard replays are independent);
/// the bus segment replays on the calling thread. Returns the aggregate
/// report and the per-segment outcomes in `segs` order.
fn replay_sharded(
    segs: &[PathBuf],
    repo: &Repository,
    bus: &RevocationBus,
) -> std::io::Result<(RecoveryReport, Vec<SegmentReplay>)> {
    use std::sync::atomic::AtomicUsize;
    let shards = segs.len() - 1;
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(shards)
        .max(1);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, std::io::Result<SegmentReplay>)>> =
        Mutex::new(Vec::with_capacity(shards));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= shards {
                    break;
                }
                let r = replay_segment(&segs[i], Apply::Shard(i), repo, bus);
                results.lock().push((i, r));
            });
        }
    });
    let mut by_shard: Vec<Option<SegmentReplay>> = (0..shards).map(|_| None).collect();
    for (i, r) in results.into_inner() {
        by_shard[i] = Some(r?);
    }
    let mut outcomes: Vec<SegmentReplay> = by_shard
        .into_iter()
        .map(|o| o.expect("every shard index visited exactly once"))
        .collect();
    outcomes.push(replay_segment(&segs[shards], Apply::Bus, repo, bus)?);

    let mut report = RecoveryReport::default();
    for o in &outcomes {
        report.absorb(o);
    }
    // Epoch monotonicity across the crash: never below anything a cache
    // may have pinned, and strictly above it (marks included) so stale
    // entries die.
    repo.raise_epoch(report.epoch);
    report.epoch = repo.bump_epoch();
    psf_telemetry::counter!("psf.repo.wal.replays").add(report.records_replayed as u64);
    psf_telemetry::counter!("psf.repo.wal.truncated_bytes").add(report.truncated_bytes);
    Ok((report, outcomes))
}

impl Repository {
    /// Rebuild a repository (and its revocation bus) from a durable
    /// directory, **read-only**: every segment is scanned and replayed
    /// (shards in parallel) but never modified — a torn tail is skipped,
    /// not truncated. Use [`ShardedDurableRepository::open`] to recover
    /// *and* keep logging.
    pub fn recover_sharded(
        dir: &Path,
    ) -> std::io::Result<(Repository, RevocationBus, RecoveryReport)> {
        let segs = segment_dirs(dir)?;
        let repo = Repository::with_shard_count(segs.len() - 1);
        let bus = RevocationBus::new();
        let (report, _) = replay_sharded(&segs, &repo, &bus)?;
        Ok((repo, bus, report))
    }
}

// ---------------------------------------------------------------------------
// Segments & group commit
// ---------------------------------------------------------------------------

/// Group-commit buffer threshold: under [`FsyncPolicy::Never`] a segment
/// buffers frames in memory and issues one `write(2)` per this many
/// bytes.
const GROUP_BUF_BYTES: usize = 64 * 1024;

struct SegmentWriter {
    file: File,
    /// Framed records not yet handed to the OS (group commit).
    buf: Vec<u8>,
    /// Monotone count of records ever appended to this segment.
    gen: u64,
    appends_since_compact: u64,
}

impl SegmentWriter {
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

struct Segment {
    dir: PathBuf,
    writer: Mutex<SegmentWriter>,
    /// Second handle to the same log, used for group commit: fsyncs run
    /// on it OUTSIDE the writer lock, so appenders keep buffering while a
    /// sync is in flight and one fsync covers all of them.
    sync_file: Mutex<File>,
    /// Highest `gen` handed to the OS (write(2) completed).
    flushed_gen: AtomicU64,
    /// Highest `gen` known durable (covered by a completed fsync).
    synced_gen: AtomicU64,
    appends: AtomicU64,
    compactions: AtomicU64,
    last_compact_epoch: AtomicU64,
}

impl Segment {
    /// Open a just-replayed segment for appending, physically dropping
    /// the torn tail replay skipped so appends start at a record boundary.
    fn open(dir: PathBuf, replayed: &SegmentReplay) -> std::io::Result<Segment> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOG_FILE))?;
        if replayed.truncated_bytes > 0 {
            file.set_len(replayed.valid_bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let sync_file = file.try_clone()?;
        Ok(Segment {
            dir,
            writer: Mutex::new(SegmentWriter {
                file,
                buf: Vec::new(),
                gen: 0,
                appends_since_compact: 0,
            }),
            sync_file: Mutex::new(sync_file),
            flushed_gen: AtomicU64::new(0),
            synced_gen: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            last_compact_epoch: AtomicU64::new(replayed.snapshot_epoch),
        })
    }
}

/// Per-segment durability stats inside a [`DurabilityStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSegmentStats {
    /// Records appended to this segment since open.
    pub appends: u64,
    /// Compactions of this segment since open.
    pub compactions: u64,
    /// Repository epoch at this segment's last compaction — the epoch
    /// header of its snapshot (0 = never compacted).
    pub last_compact_epoch: u64,
    /// Current segment log size in bytes (excluding unflushed buffer).
    pub log_bytes: u64,
    /// Current segment snapshot size in bytes (0 when absent).
    pub snapshot_bytes: u64,
}

/// Live counters for a [`ShardedDurableRepository`].
#[derive(Debug, Clone, Default)]
pub struct DurabilityStats {
    /// One row per repository shard segment, in shard order.
    pub shards: Vec<ShardSegmentStats>,
    /// The revocation-bus segment.
    pub bus: ShardSegmentStats,
    /// Total records appended since open (all segments).
    pub appends: u64,
    /// Explicit fsyncs issued since open (all segments).
    pub fsyncs: u64,
    /// Total compactions since open (all segments).
    pub compactions: u64,
}

/// The on-disk half of a [`ShardedDurableRepository`]: its segments and
/// the counters that span them. It owns files only — the in-memory state
/// it logs for and snapshots is lent to each call — and is itself owned
/// by the handle and by the two logging observers, so dropping the last
/// of them flushes and closes the files.
struct Engine {
    config: WalConfig,
    /// One segment per repository shard, in shard order, then the
    /// revocation-bus segment last.
    segments: Vec<Segment>,
    fsyncs: AtomicU64,
    /// Appends or auto-compactions that failed since open.
    errors: AtomicU64,
}

impl Engine {
    /// Append one payload to a segment under group commit. Returns true
    /// when the segment crossed its auto-compaction threshold.
    fn append(&self, seg: &Segment, payload: &[u8]) -> std::io::Result<bool> {
        let mut w = seg.writer.lock();
        w.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        w.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        w.buf.extend_from_slice(payload);
        w.gen += 1;
        let my_gen = w.gen;
        seg.appends.fetch_add(1, Ordering::Relaxed);
        psf_telemetry::counter!("psf.repo.wal.appends").inc();
        let mut needs_sync = false;
        match self.config.fsync {
            FsyncPolicy::Always => {
                // Hand the frame to the OS under the writer lock, then
                // fsync OUTSIDE it (group commit): the sync runs on a
                // second handle so appenders that arrive while it is in
                // flight keep buffering and share the next fsync instead
                // of each paying their own. Per-record durability is
                // unchanged — we do not return until an fsync issued
                // after our write(2) has completed.
                w.flush()?;
                seg.flushed_gen.fetch_max(my_gen, Ordering::Release);
                needs_sync = true;
            }
            FsyncPolicy::Never => {
                if w.buf.len() >= GROUP_BUF_BYTES {
                    w.flush()?;
                }
            }
        }
        w.appends_since_compact += 1;
        let compact = match self.config.auto_compact_appends {
            Some(n) if n > 0 => w.appends_since_compact >= n,
            _ => false,
        };
        drop(w);
        if needs_sync {
            self.group_sync(seg, my_gen)?;
        }
        Ok(compact)
    }

    /// Wait until an fsync covering `my_gen` has completed, running one
    /// ourselves if nobody else's covers us. Only one thread syncs a
    /// segment at a time; the threads queued behind it recheck on wake
    /// and usually find a single follow-up fsync covers the whole batch.
    fn group_sync(&self, seg: &Segment, my_gen: u64) -> std::io::Result<()> {
        loop {
            if seg.synced_gen.load(Ordering::Acquire) >= my_gen {
                return Ok(());
            }
            let f = seg.sync_file.lock();
            if seg.synced_gen.load(Ordering::Acquire) >= my_gen {
                return Ok(());
            }
            // Everything flushed up to here is made durable by this one
            // fsync; `my_gen` was flushed before we were called, so
            // `cover >= my_gen` and the next loop iteration exits.
            let cover = seg.flushed_gen.load(Ordering::Acquire);
            f.sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            psf_telemetry::counter!("psf.repo.wal.fsyncs").inc();
            seg.synced_gen.fetch_max(cover, Ordering::AcqRel);
        }
    }

    /// Append `payload` to segment `seg`, auto-compacting the segment
    /// when it crosses the threshold (`repo` and `bus` as for
    /// [`compact_segment`](Self::compact_segment)). The in-memory mutation
    /// has already happened, so a failure cannot be returned to the
    /// mutator; all we can do is surface the durability gap loudly.
    fn log(&self, seg: usize, payload: &[u8], repo: &Repository, bus: Option<&RevocationBus>) {
        let (what, detail) = match self.append(&self.segments[seg], payload) {
            Ok(false) => return,
            Ok(true) => match self.compact_segment(seg, repo, bus) {
                Ok(_) => return,
                Err(e) => ("wal-compact", format!("auto-compaction failed: {e}")),
            },
            Err(e) => ("wal-append", format!("append failed: {e}")),
        };
        self.errors.fetch_add(1, Ordering::Relaxed);
        psf_telemetry::counter!("psf.repo.wal.errors").inc();
        psf_telemetry::audit::record(
            psf_telemetry::Decision::Revocation,
            "",
            what,
            psf_telemetry::Verdict::Deny,
        )
        .detail(format!("{} {detail}", self.segments[seg].dir.display()))
        .commit();
    }

    /// Compact one segment: write its state — shard `i` of `repo`, or for
    /// the bus segment (`bus` is `Some`) the revoked ids — to
    /// `snapshot.tmp`, fsync, rename over `snapshot.bin`, fsync the
    /// directory, then truncate the segment's log. A crash at any point
    /// leaves a recoverable segment (the snapshot/log overlap after an
    /// un-truncated rename is absorbed by replay dedup). Other segments'
    /// writers are untouched.
    fn compact_segment(
        &self,
        i: usize,
        repo: &Repository,
        bus: Option<&RevocationBus>,
    ) -> std::io::Result<CompactReport> {
        let seg = &self.segments[i];
        // Writer lock held for the whole operation: no append interleaves
        // with the truncate. Observers fire outside repository locks, so
        // reading snapshot state here cannot deadlock with a publisher.
        let mut w = seg.writer.lock();
        let (entries, revoked) = match bus {
            None => (repo.snapshot_shard(i), Vec::new()),
            Some(bus) => (Vec::new(), bus.revoked_ids()),
        };
        let epoch = repo.epoch();
        let image = encode_snapshot(epoch, &entries, &revoked);

        w.flush()?;
        let tmp = seg.dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, seg.dir.join(SNAPSHOT_FILE))?;
        if let Ok(d) = File::open(&seg.dir) {
            let _ = d.sync_all(); // directory entry durability (best effort)
        }
        let dropped = w.file.seek(SeekFrom::End(0))?;
        w.file.set_len(0)?;
        w.file.seek(SeekFrom::Start(0))?;
        w.file.sync_data()?;
        w.appends_since_compact = 0;

        seg.compactions.fetch_add(1, Ordering::Relaxed);
        seg.last_compact_epoch.store(epoch, Ordering::Relaxed);
        psf_telemetry::counter!("psf.repo.wal.snapshot").inc();
        Ok(CompactReport {
            snapshot_entries: entries.len(),
            snapshot_revocations: revoked.len(),
            log_bytes_dropped: dropped,
        })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Clean shutdown: hand the group-commit buffers to the OS (best
        // effort; a real crash loses them by design, see FsyncPolicy).
        for seg in &self.segments {
            let _ = seg.writer.lock().flush();
        }
    }
}

// ---------------------------------------------------------------------------
// ShardedDurableRepository
// ---------------------------------------------------------------------------

/// A [`Repository`] + [`RevocationBus`] pair whose every mutation is
/// appended to a crash-safe write-ahead log (see the module docs). The
/// repository and bus are the ordinary in-memory types — guards,
/// deployers, supervisors, and proof engines use them unchanged;
/// durability rides on the observer hooks and is invisible to the rest of
/// the stack.
#[derive(Clone)]
pub struct ShardedDurableRepository {
    repo: Repository,
    bus: RevocationBus,
    inner: Arc<Engine>,
}

impl ShardedDurableRepository {
    /// Open (or create) a durable directory with `shards` segments
    /// (rounded up to a power of two, clamped to `1..=1024`; an existing
    /// directory's `shards.meta` takes precedence — the layout on disk is
    /// authoritative). Replays every segment (shards in parallel),
    /// truncates torn tails and attaches the logging observers. Refuses a
    /// directory holding legacy root-level files before creating anything.
    pub fn open(
        dir: &Path,
        shards: usize,
        config: WalConfig,
    ) -> std::io::Result<(ShardedDurableRepository, RecoveryReport)> {
        refuse_legacy(dir)?;
        std::fs::create_dir_all(dir)?;
        let n = match read_shard_meta(dir)? {
            Some(n) => n,
            None => {
                let n = shards.clamp(1, 1024).next_power_of_two();
                write_shard_meta(dir, n)?;
                n
            }
        };
        let repo = Repository::with_shard_count(n);
        debug_assert_eq!(repo.shard_count(), n);
        let bus = RevocationBus::new();
        let segs = segment_paths(dir, n);
        for seg in &segs {
            std::fs::create_dir_all(seg)?;
        }
        let (report, outcomes) = replay_sharded(&segs, &repo, &bus)?;
        let segments = segs
            .into_iter()
            .zip(&outcomes)
            .map(|(seg, outcome)| Segment::open(seg, outcome))
            .collect::<std::io::Result<Vec<_>>>()?;

        let durable = ShardedDurableRepository {
            repo: repo.clone(),
            bus: bus.clone(),
            inner: Arc::new(Engine {
                config,
                segments,
                fsyncs: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
        };

        // Attach observers only now — replay must not re-log itself.
        // Ownership runs one way: repository → its observer → engine, and
        // bus → its observer → engine + repository (for the epoch it
        // stamps). Each observer reaches the structure it is installed on
        // through `weak()` — an owning handle there would be a cycle that
        // keeps the files open and their buffers unflushed for ever.
        const ALIVE: &str = "an observer runs inside a method of the structure it observes";
        let (engine, this) = (durable.inner.clone(), repo.weak());
        repo.set_observer(Some(Arc::new(move |ev: RepoEvent<'_>| {
            let repo = this().expect(ALIVE);
            match ev {
                RepoEvent::Published { home, cred, tag } => {
                    let skey = crate::repository::subject_key(&cred.body.subject);
                    let payload = encode_publish_payload(repo.epoch(), home, tag, cred);
                    engine.log(repo.shard_index(&skey), &payload, &repo, None);
                }
                RepoEvent::PurgedExpired { now, .. } => {
                    // Replicated to every shard: each segment must know to
                    // re-apply the purge to its own credentials at replay.
                    let payload = encode_payload(repo.epoch(), &WalOp::PurgeExpired { now });
                    for shard in 0..n {
                        engine.log(shard, &payload, &repo, None);
                    }
                }
            }
        })));
        let (engine, repo, this) = (durable.inner.clone(), repo.clone(), bus.weak());
        bus.set_observer(Some(Arc::new(move |ids: &[String]| {
            let op = match ids {
                [id] => WalOp::Revoke { id: id.clone() },
                many => WalOp::RevokeBatch { ids: many.to_vec() },
            };
            // The bus segment follows the n shards.
            let bus = this().expect(ALIVE);
            engine.log(n, &encode_payload(repo.epoch(), &op), &repo, Some(&bus));
        })));
        Ok((durable, report))
    }

    /// The in-memory sharded repository (shared handle). Mutations
    /// through it are logged transparently.
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// The revocation bus (shared handle). Revocations through it are
    /// logged transparently.
    pub fn bus(&self) -> &RevocationBus {
        &self.bus
    }

    /// Flush every segment's group-commit buffer and fsync, regardless of
    /// policy.
    pub fn sync(&self) -> std::io::Result<()> {
        for seg in &self.inner.segments {
            let mut w = seg.writer.lock();
            w.flush()?;
            let gen = w.gen;
            seg.flushed_gen.fetch_max(gen, Ordering::Release);
            w.file.sync_data()?;
            seg.synced_gen.fetch_max(gen, Ordering::AcqRel);
            self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
            psf_telemetry::counter!("psf.repo.wal.fsyncs").inc();
        }
        Ok(())
    }

    /// Compact every shard segment and the bus segment. Returns the
    /// aggregate report.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let mut total = CompactReport {
            snapshot_entries: 0,
            snapshot_revocations: 0,
            log_bytes_dropped: 0,
        };
        let bus_segment = self.inner.segments.len() - 1;
        for i in 0..=bus_segment {
            let bus = (i == bus_segment).then_some(&self.bus);
            let r = self.inner.compact_segment(i, &self.repo, bus)?;
            total.snapshot_entries += r.snapshot_entries;
            total.snapshot_revocations += r.snapshot_revocations;
            total.log_bytes_dropped += r.log_bytes_dropped;
        }
        Ok(total)
    }

    /// Live durability counters: per-segment rows plus totals.
    pub fn stats(&self) -> DurabilityStats {
        let row = |seg: &Segment| -> ShardSegmentStats {
            ShardSegmentStats {
                appends: seg.appends.load(Ordering::Relaxed),
                compactions: seg.compactions.load(Ordering::Relaxed),
                last_compact_epoch: seg.last_compact_epoch.load(Ordering::Relaxed),
                log_bytes: std::fs::metadata(seg.dir.join(LOG_FILE))
                    .map(|m| m.len())
                    .unwrap_or(0),
                snapshot_bytes: std::fs::metadata(seg.dir.join(SNAPSHOT_FILE))
                    .map(|m| m.len())
                    .unwrap_or(0),
            }
        };
        let mut shards: Vec<ShardSegmentStats> = self.inner.segments.iter().map(row).collect();
        let appends = shards.iter().map(|s| s.appends).sum();
        let compactions = shards.iter().map(|s| s.compactions).sum();
        let bus = shards.pop().expect("the bus segment is always present");
        DurabilityStats {
            shards,
            bus,
            appends,
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
            compactions,
        }
    }

    /// Detach the logging observers (used by tests simulating a crash:
    /// the files stay as-is, the in-memory halves keep working unlogged).
    /// Group-commit buffers are **not** flushed by this call — that is
    /// the point of a simulated crash — though the drop of the last handle
    /// still writes them out.
    pub fn detach(&self) {
        self.repo.set_observer(None);
        self.bus.set_observer(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegation::DelegationBuilder;
    use crate::entity::Entity;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "psf-wal-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cred(issuer: &Entity, subject: &Entity, role: &str) -> SignedDelegation {
        DelegationBuilder::new(issuer)
            .subject_entity(subject)
            .role(issuer.role(role))
            .sign()
    }

    fn expiring(issuer: &Entity, subject: &Entity, role: &str, at: u64) -> SignedDelegation {
        DelegationBuilder::new(issuer)
            .subject_entity(subject)
            .role(issuer.role(role))
            .expires(at)
            .sign()
    }

    /// Sorted credential ids — shard-count independent, duplicates kept.
    fn repo_fingerprint(repo: &Repository) -> Vec<String> {
        let mut ids: Vec<String> = repo.all_credentials().iter().map(|c| c.id()).collect();
        ids.sort();
        ids
    }

    /// Frame a payload: `[u32 len][u32 crc][payload]`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn open(dir: &Path, shards: usize) -> (ShardedDurableRepository, RecoveryReport) {
        ShardedDurableRepository::open(dir, shards, WalConfig::default()).unwrap()
    }

    /// The one log of a `shards = 1` directory.
    fn single_log(dir: &Path) -> PathBuf {
        dir.join(shard_dir_name(0)).join(LOG_FILE)
    }

    /// A single log is `shards = 1` of the one engine: every behaviour is
    /// pinned at both ends of the range.
    const SHARD_COUNTS: [usize; 2] = [1, 8];

    /// A published credential comes back from recovery carrying the id
    /// the parent commit computed for it (golden, see `delegation.rs`).
    #[test]
    fn golden_ids_survive_publish_and_recover() {
        let ny = Entity::with_seed("Comp.NY", b"t");
        let alice = Entity::with_seed("Alice", b"t");
        let member = cred(&ny, &alice, "Member");
        let reissued = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .serial(7)
            .expires(100)
            .sign();
        for shards in SHARD_COUNTS {
            let dir = tmpdir("golden");
            {
                let (d, _) = open(&dir, shards);
                let acked = d.repository().publish_at_issuer(member.clone());
                assert_eq!(acked.as_str(), "75c76ac51005ee2e");
                d.repository().publish_at_issuer(reissued.clone());
            }
            let (d, report) = open(&dir, shards);
            assert_eq!(report.publishes, 2);
            assert_eq!(
                repo_fingerprint(d.repository()),
                ["23a20c9c5c68e5b8", "75c76ac51005ee2e"]
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let ops = [
            WalOp::Publish {
                home: ny.name.clone(),
                tag: DiscoveryTag::Both,
                cred: cred(&ny, &alice, "Member"),
            },
            WalOp::Revoke {
                id: "abc123".into(),
            },
            WalOp::PurgeExpired { now: 42 },
        ];
        let mut log = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            log.extend_from_slice(&frame(&encode_payload(i as u64 + 7, op)));
        }
        let scan = scan_log(&log);
        assert!(scan.corruption.is_none());
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.records[0].epoch, 7);
        assert!(matches!(scan.records[1].op, WalOp::Revoke { ref id } if id == "abc123"));
        assert!(matches!(
            scan.records[2].op,
            WalOp::PurgeExpired { now: 42 }
        ));
    }

    #[test]
    fn revoke_batch_record_roundtrip() {
        let ids: Vec<String> = (0..100).map(|i| format!("id-{i:03}")).collect();
        let log = frame(&encode_payload(5, &WalOp::RevokeBatch { ids: ids.clone() }));
        let scan = scan_log(&log);
        assert!(scan.corruption.is_none());
        assert_eq!(scan.records.len(), 1);
        match &scan.records[0].op {
            WalOp::RevokeBatch { ids: got } => assert_eq!(*got, ids),
            other => panic!("wrong op {other:?}"),
        }
    }

    /// A count field is untrusted even behind a valid CRC: a forged one
    /// must come back as a typed error, never as a gigabyte allocation.
    #[test]
    fn decoders_reject_forged_counts_without_allocating() {
        let sealed = |mut body: Vec<u8>| {
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        // 27-byte snapshot claiming 2^24 - 1 entries.
        let mut entries = SNAPSHOT_MAGIC.to_vec();
        entries.extend_from_slice(&9u64.to_le_bytes());
        entries.extend_from_slice(&0x00ff_ffffu32.to_le_bytes());
        let entries = sealed(entries);
        assert_eq!(entries.len(), 27);
        assert!(decode_snapshot(&entries).unwrap_err().contains("entry"));
        // No entries, but 2^32 - 1 revocations.
        let mut revoked = SNAPSHOT_MAGIC.to_vec();
        revoked.extend_from_slice(&9u64.to_le_bytes());
        revoked.extend_from_slice(&0u32.to_le_bytes());
        revoked.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_snapshot(&sealed(revoked)).unwrap_err();
        assert!(err.contains("revocation"), "{err}");
        // A RevokeBatch frame claiming 2^20 ids in zero bytes.
        let mut batch = 3u64.to_le_bytes().to_vec();
        batch.push(KIND_REVOKE_BATCH);
        batch.extend_from_slice(&(1u32 << 20).to_le_bytes());
        let scan = scan_log(&frame(&batch));
        assert!(scan.records.is_empty());
        assert!(scan.corruption.unwrap().contains("revoke-batch"));

        // End to end: the forged snapshot is ignored, not fatal.
        let dir = tmpdir("forged");
        drop(open(&dir, 1));
        std::fs::write(dir.join(shard_dir_name(0)).join(SNAPSHOT_FILE), &entries).unwrap();
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert!(report.snapshot_corrupt);
        assert!(repo.is_empty());
    }

    #[test]
    fn empty_log_recovers_empty() {
        for shards in SHARD_COUNTS {
            let dir = tmpdir("empty");
            let (d, report) = open(&dir, shards);
            assert!(d.repository().is_empty());
            assert_eq!(report.records_replayed, 0);
            drop(d);
            let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
            assert!(repo.is_empty());
            assert_eq!(repo.shard_count(), shards);
            assert_eq!(bus.revoked_count(), 0);
            assert_eq!(report.records_replayed, 0);
            assert_eq!(report.truncated_bytes, 0);
        }
        // A directory the engine never opened is not an empty repository.
        let err = Repository::recover_sharded(&tmpdir("bare")).err().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn publish_revoke_survive_reopen() {
        for shards in SHARD_COUNTS {
            let dir = tmpdir("reopen");
            let ny = Entity::with_seed("Comp.NY", b"wal");
            let alice = Entity::with_seed("Alice", b"wal");
            let c = cred(&ny, &alice, "Member");
            let id = c.id();
            {
                let (d, _) = open(&dir, shards);
                d.repository().publish_at_issuer(c.clone());
                d.bus().revoke(&id);
                d.detach(); // simulate crash
            }
            let (d2, report) = open(&dir, shards);
            assert_eq!(report.records_replayed, 2);
            assert_eq!(report.publishes, 1);
            assert_eq!(report.revocations_restored, 1);
            assert_eq!(d2.repository().len(), 1);
            assert!(d2.bus().is_revoked(&id));
            let found = d2.repository().query_by_subject(&alice.as_subject());
            assert_eq!(found.len(), 1);
            assert_eq!(***found.first().unwrap(), c);
        }
    }

    #[test]
    fn torn_tail_truncated_committed_prefix_survives() {
        let dir = tmpdir("torn");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let bob = Entity::with_seed("Bob", b"wal");
        {
            let (d, _) = open(&dir, 1);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            d.repository().publish_at_issuer(cred(&ny, &bob, "Member"));
        }
        // Tear the log mid-record: append a partial frame.
        let log = single_log(&dir);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0x44, 0x01, 0x00, 0x00, 0xde, 0xad]).unwrap();
        drop(f);
        let before = std::fs::metadata(&log).unwrap().len();

        let (d2, report) = open(&dir, 1);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.truncated_bytes, 6);
        assert_eq!(d2.repository().len(), 2);
        // The torn tail was physically removed.
        let after = std::fs::metadata(&log).unwrap().len();
        assert_eq!(after, before - 6);
    }

    #[test]
    fn corrupt_record_stops_scan_at_checksum() {
        let dir = tmpdir("corrupt");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let bob = Entity::with_seed("Bob", b"wal");
        {
            let (d, _) = open(&dir, 1);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            d.repository().publish_at_issuer(cred(&ny, &bob, "Member"));
            d.repository().publish_at_issuer(cred(&ny, &bob, "Partner"));
        }
        let log = single_log(&dir);
        let mut image = std::fs::read(&log).unwrap();
        let scan = scan_log(&image);
        assert_eq!(scan.records.len(), 3);
        // Flip one payload byte inside the second record.
        let off = scan.records[1].offset as usize + 12;
        image[off] ^= 0xff;
        std::fs::write(&log, &image).unwrap();

        let verify = verify_sharded_dir(&dir).unwrap();
        assert!(!verify.is_clean());
        assert_eq!(verify.damaged(), vec![0]);
        let shard = &verify.shards[0];
        assert_eq!(shard.log_records, 1);
        assert!(shard.truncated_bytes > 0);
        assert!(shard.corruption.as_ref().unwrap().contains("checksum"));

        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(repo.len(), 1);
        // recover_sharded() is read-only: the corrupt image is untouched.
        assert_eq!(std::fs::read(&log).unwrap(), image);
    }

    #[test]
    fn snapshot_plus_tail_replay() {
        for shards in SHARD_COUNTS {
            let dir = tmpdir("snap");
            let ny = Entity::with_seed("Comp.NY", b"wal");
            let alice = Entity::with_seed("Alice", b"wal");
            let bob = Entity::with_seed("Bob", b"wal");
            let carol = Entity::with_seed("Carol", b"wal");
            let revoked_id;
            {
                let (d, _) = open(&dir, shards);
                d.repository()
                    .publish_at_issuer(cred(&ny, &alice, "Member"));
                let c_bob = cred(&ny, &bob, "Member");
                revoked_id = c_bob.id();
                d.repository().publish_at_issuer(c_bob);
                d.bus().revoke(&revoked_id);
                let r = d.compact().unwrap();
                assert_eq!(r.snapshot_entries, 2);
                assert_eq!(r.snapshot_revocations, 1);
                for seg in segment_dirs(&dir).unwrap() {
                    assert_eq!(std::fs::metadata(seg.join(LOG_FILE)).unwrap().len(), 0);
                }
                // Tail after the snapshot.
                d.repository()
                    .publish_at_issuer(cred(&ny, &carol, "Partner"));
            }
            let (d2, report) = open(&dir, shards);
            assert_eq!(report.snapshot_entries, 2);
            assert_eq!(report.snapshot_revocations, 1);
            assert_eq!(report.records_replayed, 1);
            assert_eq!(d2.repository().len(), 3);
            assert!(d2.bus().is_revoked(&revoked_id));
            // The epoch header of each snapshot is its last-compact stamp,
            // and it survives the reopen.
            let stats = d2.stats();
            assert!(stats.bus.last_compact_epoch > 0);
            assert!(stats.shards.iter().all(|s| s.last_compact_epoch > 0));
            // Tag reconstruction: alice still findable via directed query.
            d2.repository().reset_stats();
            let found = d2.repository().query_by_subject(&alice.as_subject());
            assert_eq!(found.len(), 1);
            assert_eq!(d2.repository().stats().directed, 1);
        }
    }

    #[test]
    fn snapshot_log_overlap_deduplicated() {
        // Simulate a crash between snapshot rename and log truncation:
        // both cover the same publish.
        let dir = tmpdir("overlap");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        {
            let (d, _) = open(&dir, 1);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            let log_before = std::fs::read(single_log(&dir)).unwrap();
            d.compact().unwrap();
            // Put the pre-compaction log back (the "un-truncated" state).
            std::fs::write(single_log(&dir), &log_before).unwrap();
        }
        let (d2, report) = open(&dir, 1);
        assert_eq!(report.snapshot_entries, 1);
        assert_eq!(report.duplicates_skipped, 1);
        assert_eq!(d2.repository().len(), 1, "no double-publish");
    }

    #[test]
    fn corrupt_snapshot_ignored_log_still_replayed() {
        let dir = tmpdir("badsnap");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        {
            let (d, _) = open(&dir, 1);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            d.compact().unwrap();
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Partner"));
        }
        // Corrupt the snapshot body.
        let snap = dir.join(shard_dir_name(0)).join(SNAPSHOT_FILE);
        let mut image = std::fs::read(&snap).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0xff;
        std::fs::write(&snap, &image).unwrap();

        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert!(report.snapshot_corrupt);
        assert_eq!(report.snapshot_entries, 0);
        // Only the post-compaction tail survives — the report says so.
        assert_eq!(report.records_replayed, 1);
        assert_eq!(repo.len(), 1);
        assert_eq!(verify_sharded_dir(&dir).unwrap().damaged(), vec![0]);
    }

    #[test]
    fn purge_expired_replays() {
        let dir = tmpdir("purge");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        {
            let (d, _) = open(&dir, 1);
            d.repository()
                .publish_at_issuer(cred(&ny, &alice, "Member"));
            d.repository()
                .publish_at_issuer(expiring(&ny, &alice, "Guest", 100));
            assert_eq!(d.repository().purge_expired(200), 1);
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.purges, 1);
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn recovered_epoch_strictly_above_logged_epochs() {
        for shards in SHARD_COUNTS {
            let dir = tmpdir("epoch");
            let ny = Entity::with_seed("Comp.NY", b"wal");
            let alice = Entity::with_seed("Alice", b"wal");
            let logged_epoch;
            {
                let (d, _) = open(&dir, shards);
                d.repository()
                    .publish_at_issuer(cred(&ny, &alice, "Member"));
                logged_epoch = d.repository().epoch();
            }
            let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
            assert!(
                report.epoch > logged_epoch,
                "epoch {} must exceed pre-crash {}",
                report.epoch,
                logged_epoch
            );
            assert_eq!(repo.epoch(), report.epoch);
        }
    }

    #[test]
    fn fsync_policies_all_recover() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Never] {
            for shards in SHARD_COUNTS {
                let dir = tmpdir("policy");
                let ny = Entity::with_seed("Comp.NY", b"wal");
                let cfg = WalConfig {
                    fsync: policy,
                    auto_compact_appends: None,
                };
                {
                    let (d, _) = ShardedDurableRepository::open(&dir, shards, cfg).unwrap();
                    for i in 0..5 {
                        let who = Entity::with_seed(format!("U{i}"), b"wal");
                        d.repository().publish_at_issuer(cred(&ny, &who, "Member"));
                    }
                    let stats = d.stats();
                    assert_eq!(stats.appends, 5);
                    // One writer, so group commit has nothing to batch:
                    // the counts are exact for the single log.
                    match (policy, shards) {
                        (FsyncPolicy::Always, _) => assert_eq!(stats.fsyncs, 5),
                        (FsyncPolicy::Never, _) => assert_eq!(stats.fsyncs, 0),
                    }
                    // Buffered policies hold frames in memory until a
                    // sync() or the drop of the last handle.
                    d.sync().unwrap();
                }
                let (repo, _, _) = Repository::recover_sharded(&dir).unwrap();
                assert_eq!(repo.len(), 5, "policy {policy:?}, {shards} shard(s)");
            }
        }
    }

    #[test]
    fn auto_compaction_triggers_and_recovers() {
        for shards in SHARD_COUNTS {
            let dir = tmpdir("auto");
            let ny = Entity::with_seed("Comp.NY", b"wal");
            let cfg = WalConfig {
                fsync: FsyncPolicy::Never,
                auto_compact_appends: Some(4),
            };
            let oracle_ids;
            {
                let (d, _) = ShardedDurableRepository::open(&dir, shards, cfg).unwrap();
                for i in 0..40 {
                    let who = Entity::with_seed(format!("U{i}"), b"wal");
                    d.repository().publish_at_issuer(cred(&ny, &who, "Member"));
                }
                let stats = d.stats();
                // The threshold is per segment: 40 appends / 4 on one log,
                // at least a couple wherever 8 shards put them.
                assert!(stats.compactions >= if shards == 1 { 10 } else { 2 });
                assert!(stats
                    .shards
                    .iter()
                    .all(|s| s.appends < 4 || s.snapshot_bytes > 0));
                oracle_ids = repo_fingerprint(d.repository());
                d.sync().unwrap();
            }
            let (repo, _, _) = Repository::recover_sharded(&dir).unwrap();
            assert_eq!(repo_fingerprint(&repo), oracle_ids);
        }
    }

    #[test]
    fn recovered_state_matches_never_crashed_oracle() {
        for shards in SHARD_COUNTS {
            let dir = tmpdir("oracle");
            let ny = Entity::with_seed("Comp.NY", b"wal");
            let oracle_repo = Repository::new();
            let oracle_bus = RevocationBus::new();
            {
                let (d, _) = open(&dir, shards);
                for i in 0..6 {
                    let who = Entity::with_seed(format!("U{i}"), b"wal");
                    let c = cred(&ny, &who, "Member");
                    oracle_repo.publish_at_issuer(c.clone());
                    d.repository().publish_at_issuer(c.clone());
                    if i % 2 == 0 {
                        oracle_bus.revoke(&c.id());
                        d.bus().revoke(&c.id());
                    }
                }
            }
            let (repo, bus, _) = Repository::recover_sharded(&dir).unwrap();
            assert_eq!(repo_fingerprint(&repo), repo_fingerprint(&oracle_repo));
            assert_eq!(bus.revoked_ids(), oracle_bus.revoked_ids());
        }
    }

    /// publish C → purge removes it → publish C again: the recovered
    /// repository must hold C (the dedup map forgets purged pairs instead
    /// of mistaking the re-publish for a duplicate).
    fn republish_after_purge(shards: usize) {
        let dir = tmpdir("repurge");
        let ny = Entity::with_seed("Comp.NY", b"wal");
        let alice = Entity::with_seed("Alice", b"wal");
        let doomed = expiring(&ny, &alice, "Guest", 100);
        {
            let (d, _) = open(&dir, shards);
            d.repository().publish_at_issuer(doomed.clone());
            assert_eq!(d.repository().purge_expired(200), 1);
            // Same (home, id) published again after the purge.
            d.repository().publish_at_issuer(doomed.clone());
            assert_eq!(d.repository().len(), 1);
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(
            report.duplicates_skipped, 0,
            "re-publish is not a duplicate"
        );
        assert_eq!(repo.len(), 1, "re-published credential lost by replay");
    }

    #[test]
    fn republished_after_purge_survives_replay() {
        republish_after_purge(1);
    }

    #[test]
    fn sharded_republished_after_purge_survives_replay() {
        republish_after_purge(4);
    }

    // -- many segments -----------------------------------------------------

    fn sharded_workload(d: &ShardedDurableRepository, ny: &Entity, users: usize) -> Vec<String> {
        let mut revoked = Vec::new();
        for i in 0..users {
            let who = Entity::with_seed(format!("U{i}"), b"swal");
            let c = cred(ny, &who, "Member");
            if i % 3 == 0 {
                revoked.push(c.id());
            }
            d.repository().publish_at_issuer(c);
        }
        d.bus().revoke_all(revoked.iter().map(|s| s.as_str()));
        revoked
    }

    #[test]
    fn sharded_publish_and_batch_revoke_survive_reopen() {
        let dir = tmpdir("sh-reopen");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        let revoked;
        {
            let (d, report) = open(&dir, 8);
            assert_eq!(report.records_replayed, 0);
            revoked = sharded_workload(&d, &ny, 24);
            assert_eq!(d.repository().len(), 24);
            d.detach();
        }
        assert_eq!(segment_dirs(&dir).unwrap().len(), 8 + 1);
        let (d2, report) = open(&dir, 8);
        // 24 publishes spread across shard segments + 1 RevokeBatch frame.
        assert_eq!(report.publishes, 24);
        assert_eq!(report.revocations_restored, revoked.len());
        assert_eq!(d2.repository().len(), 24);
        assert_eq!(d2.repository().shard_count(), 8);
        for id in &revoked {
            assert!(d2.bus().is_revoked(id));
        }
        // Appends spread across more than one shard segment.
        let stats = d2.stats();
        assert_eq!(stats.shards.len(), 8);
        let populated = stats.shards.iter().filter(|s| s.log_bytes > 0).count();
        assert!(populated > 1, "24 subjects must span multiple segments");
        assert!(
            stats.bus.log_bytes > 0,
            "RevokeBatch landed in the bus segment"
        );
    }

    #[test]
    fn sharded_meta_overrides_requested_count() {
        let dir = tmpdir("sh-meta");
        {
            let (d, _) = open(&dir, 4);
            assert_eq!(d.repository().shard_count(), 4);
        }
        // Reopen asking for a different count: disk wins.
        let (d2, _) = open(&dir, 64);
        assert_eq!(d2.repository().shard_count(), 4);
    }

    #[test]
    fn sharded_torn_shard_tail_truncated_others_survive() {
        let dir = tmpdir("sh-torn");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        {
            let (d, _) = open(&dir, 4);
            sharded_workload(&d, &ny, 16);
        }
        // Tear one populated shard's log mid-record.
        let victim = (0..4)
            .map(|i| dir.join(shard_dir_name(i)).join(LOG_FILE))
            .find(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .expect("some shard holds records");
        let image = std::fs::read(&victim).unwrap();
        let scan = scan_log(&image);
        let whole = scan.records.len();
        assert!(whole >= 1);
        // Cut into the last record's body.
        std::fs::write(&victim, &image[..image.len() - 3]).unwrap();

        let verify = verify_sharded_dir(&dir).unwrap();
        assert!(!verify.is_clean());
        assert_eq!(verify.damaged().len(), 1);

        let (d2, report) = open(&dir, 4);
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.publishes, 15, "only the torn record is lost");
        assert_eq!(d2.repository().len(), 15);
        // The torn tail was physically removed: directory is clean now.
        drop(d2);
        assert!(verify_sharded_dir(&dir).unwrap().is_clean());
    }

    #[test]
    fn sharded_compact_and_reopen_matches_oracle() {
        let dir = tmpdir("sh-compact");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        let oracle_ids;
        let revoked;
        {
            let (d, _) = open(&dir, 8);
            revoked = sharded_workload(&d, &ny, 20);
            let r = d.compact().unwrap();
            assert_eq!(r.snapshot_entries, 20);
            assert_eq!(r.snapshot_revocations, revoked.len());
            // Every shard log is now empty; publish a post-snapshot tail.
            let carol = Entity::with_seed("Carol", b"swal");
            d.repository()
                .publish_at_issuer(cred(&ny, &carol, "Partner"));
            oracle_ids = repo_fingerprint(d.repository());
        }
        let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(report.snapshot_entries, 20);
        assert_eq!(report.records_replayed, 1, "only the tail replays");
        assert_eq!(repo_fingerprint(&repo), oracle_ids);
        for id in &revoked {
            assert!(bus.is_revoked(id));
        }
    }

    #[test]
    fn sharded_purge_replicates_to_all_segments() {
        let dir = tmpdir("sh-purge");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        {
            let (d, _) = open(&dir, 4);
            for i in 0..12 {
                let who = Entity::with_seed(format!("U{i}"), b"swal");
                let c = if i % 2 == 0 {
                    expiring(&ny, &who, "Member", 100)
                } else {
                    cred(&ny, &who, "Member")
                };
                d.repository().publish_at_issuer(c);
            }
            assert_eq!(d.repository().purge_expired(150), 6);
            assert_eq!(d.repository().len(), 6);
        }
        let (repo, _, report) = Repository::recover_sharded(&dir).unwrap();
        // One purge record per shard segment.
        assert_eq!(report.purges, 4);
        assert_eq!(repo.len(), 6);
    }

    #[test]
    fn sharded_group_commit_flushes_on_sync() {
        let dir = tmpdir("sh-group");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        };
        {
            let (d, _) = ShardedDurableRepository::open(&dir, 4, cfg).unwrap();
            sharded_workload(&d, &ny, 10);
            // Buffered frames are not in the files yet (well under the
            // 64 KiB group threshold)...
            let on_disk: u64 = d.stats().shards.iter().map(|s| s.log_bytes).sum();
            assert_eq!(on_disk, 0, "group commit buffers in memory");
            // ...until an explicit sync.
            d.sync().unwrap();
            let on_disk: u64 = d.stats().shards.iter().map(|s| s.log_bytes).sum();
            assert!(on_disk > 0);
        }
        let (repo, _, _) = Repository::recover_sharded(&dir).unwrap();
        assert_eq!(repo.len(), 10);
    }

    // -- ownership: the observers do not own what they observe -------------

    /// No `sync()` and no `detach()` anywhere: the engine lives while a
    /// handle or a clone of either half can still log through it, and its
    /// drop writes the group-commit buffers out. (The descriptor count of
    /// the plain open / publish / drop loop is `tests/descriptors.rs`.)
    #[test]
    fn surviving_clone_keeps_logging_until_it_drops() {
        let dir = tmpdir("survivor");
        let ny = Entity::with_seed("Comp.NY", b"swal");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        };
        let (d, _) = ShardedDurableRepository::open(&dir, 8, cfg).unwrap();
        let (repo, bus) = (d.repository().clone(), d.bus().clone());
        let engine = Arc::downgrade(&d.inner);
        let revoked = sharded_workload(&d, &ny, 10);
        drop(d);
        assert!(engine.upgrade().is_some(), "clones still log through it");
        let late = cred(&ny, &Entity::with_seed("Late", b"swal"), "Member");
        repo.publish_at_issuer(late.clone());
        drop(repo);
        assert!(engine.upgrade().is_some(), "the bus alone keeps it too");
        bus.revoke(&late.id());
        drop(bus);
        assert!(engine.upgrade().is_none(), "engine outlived every clone");

        let (repo, bus, report) = Repository::recover_sharded(&dir).unwrap();
        // 10 publishes and their batch revoke, then the two late records.
        assert_eq!(report.records_replayed, 13);
        assert_eq!(repo.len(), 11);
        assert_eq!(bus.revoked_count(), revoked.len() + 1);
        assert!(bus.is_revoked(&late.id()));
    }

    // -- legacy single-log directories -------------------------------------

    /// A directory in the legacy single-log layout: a root-level snapshot
    /// and log, in the frame and snapshot formats the segments use.
    fn legacy_dir() -> PathBuf {
        let dir = tmpdir("legacy");
        let ny = Entity::with_seed("Comp.NY", b"legacy");
        let alice = cred(&ny, &Entity::with_seed("Alice", b"legacy"), "Member");
        let entry = (
            ny.name.clone(),
            DiscoveryTag::Both,
            Arc::new(Credential::new(alice.clone())),
        );
        let snapshot = encode_snapshot(40, &[entry], &["old-revoked".to_string()]);
        let log = frame(&encode_payload(41, &WalOp::Revoke { id: alice.id() }));
        std::fs::write(dir.join(SNAPSHOT_FILE), snapshot).unwrap();
        std::fs::write(dir.join(LOG_FILE), log).unwrap();
        dir
    }

    /// Every regular file under `dir`, with its bytes.
    fn dir_image(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(dir_image(&path));
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path, bytes));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn read_only_entry_points_refuse_unimported_legacy_dir() {
        let dir = legacy_dir();
        // Also the shape the pre-segment engine left, a fresh shards.meta
        // beside the root files.
        let beside_meta = legacy_dir();
        write_shard_meta(&beside_meta, 4).unwrap();
        for dir in [dir, beside_meta] {
            let before = dir_image(&dir);
            let err = Repository::recover_sharded(&dir).err().unwrap();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("legacy"), "{err}");
            let err = verify_sharded_dir(&dir).err().unwrap();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(LOG_FILE), "names the files: {err}");
            let err = ShardedDurableRepository::open(&dir, 4, WalConfig::default())
                .err()
                .unwrap();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("legacy"), "{err}");
            assert_eq!(dir_image(&dir), before, "no entry point modifies it");
        }
    }
}
