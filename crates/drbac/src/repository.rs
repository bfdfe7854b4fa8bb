//! The distributed credential repository with **discovery tags**
//! (paper §3.1), hash-sharded for scale.
//!
//! Credentials are stored in N in-process shards selected by the FNV-1a
//! hash of the canonical *subject* key, each shard guarded by its own
//! `RwLock` so writers to different subjects never contend. Every shard
//! carries its own secondary indexes (by subject, by object) and its own
//! slice of the discovery-tag index, so a subject query touches exactly
//! one shard and an object query fans over the shards without any global
//! lock.
//!
//! The paper's *home node* semantics ride on top: a credential may carry
//! discovery tags identifying it as "searchable from subject" and/or
//! "searchable from object"; tagged credentials are advertised in the tag
//! index so queries can be *directed* to the right homes instead of
//! broadcast to every home. The repository counts the query messages it
//! sends, which experiment **F8** uses to compare tag-directed against
//! broadcast discovery.
//!
//! Invalidation is epoch-batched: one global mutation epoch (backing
//! [`CredentialSource::version`]) plus a *mark* per key bucket — the epoch
//! of the latest mutation to any subject key hashing into the bucket,
//! stored while the owning shard's write lock is still held. A bucket is a
//! finer cut of the FNV-1a hash that picks the shard (at least 4 096 of
//! them, each inside one shard). A subject query hands back its bucket's
//! mark, read under the lock it read the credentials under
//! ([`CredentialSource::credentials_by_key`]); proof caches pin exactly
//! those marks, so a publish evicts only the proofs whose search read a
//! key in the publish's bucket.

use crate::delegation::{CredId, Credential, SignedDelegation, HEX};
use crate::entity::{EntityName, RoleName, Subject};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of hash shards for [`Repository::new`].
pub const DEFAULT_SHARD_COUNT: usize = 32;

/// Key buckets a repository keeps a mark for: this many, or one per shard
/// when there are more shards. 32 KiB of marks; a search reads a handful
/// of keys, so a publish for an unread key collides with its pins about
/// once in a thousand.
const MARK_BUCKETS: usize = 4096;

/// A key bucket and its mark: `(bucket, epoch of the bucket's latest
/// mutation)`. A proof-cache entry pinned to one is current while
/// [`CredentialSource::bucket_mark`] still returns the same epoch.
pub type KeyMark = (u32, u64);

/// Anything the proof engine can pull credentials from: the in-process
/// sharded [`Repository`], or a remote repository reached over a
/// Switchboard channel (see `psf-core`'s repository service). The paper's
/// repository is distributed; this trait is the seam that makes proof
/// search location-transparent.
///
/// Credentials are handed out as `Arc<Credential>` — the signed
/// delegation plus its id, hashed once when the source wrapped it — so
/// query results and proof edges share one allocation per stored
/// credential and nothing downstream re-derives an id.
pub trait CredentialSource: Send + Sync {
    /// Credentials whose subject matches `subject`.
    fn credentials_by_subject(&self, subject: &Subject) -> Vec<Arc<Credential>>;
    /// Credentials conveying `role`.
    fn credentials_by_object(&self, role: &RoleName) -> Vec<Arc<Credential>>;
    /// A monotone version of the source's contents, bumped on every
    /// publish/purge, or `None` when the source cannot track one (e.g. a
    /// remote repository). Certificates and audit records carry it; proof
    /// caching rests on [`bucket_mark`](Self::bucket_mark) instead.
    fn version(&self) -> Option<u64> {
        None
    }
    /// [`credentials_by_subject`](Self::credentials_by_subject) for a
    /// subject whose canonical key (`key`, see [`subject_key`]) the caller
    /// already holds, plus the mark of the key's bucket read under the
    /// same lock as the credentials — or `None` for a source that keeps no
    /// marks, whose results the proof cache then never stores.
    fn credentials_by_key(
        &self,
        subject: &Subject,
        _key: &str,
    ) -> (Vec<Arc<Credential>>, Option<KeyMark>) {
        (self.credentials_by_subject(subject), None)
    }
    /// The current mark of key bucket `bucket` (`None`: no such bucket, or
    /// a source that keeps no marks).
    fn bucket_mark(&self, _bucket: u32) -> Option<u64> {
        None
    }
}

impl CredentialSource for Repository {
    fn credentials_by_subject(&self, subject: &Subject) -> Vec<Arc<Credential>> {
        self.query_by_subject(subject)
    }
    fn credentials_by_object(&self, role: &RoleName) -> Vec<Arc<Credential>> {
        self.query_by_object(role)
    }
    fn version(&self) -> Option<u64> {
        Some(self.inner.epoch.load(Ordering::Acquire))
    }
    fn credentials_by_key(
        &self,
        _subject: &Subject,
        key: &str,
    ) -> (Vec<Arc<Credential>>, Option<KeyMark>) {
        let (creds, mark) = self.query_key(key);
        (creds, Some(mark))
    }
    fn bucket_mark(&self, bucket: u32) -> Option<u64> {
        let mark = self.inner.marks.get(bucket as usize)?;
        Some(mark.load(Ordering::Acquire))
    }
}

/// Discovery tags attached to a stored credential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryTag {
    /// Queries by the credential's subject can be directed to its home.
    SearchableFromSubject,
    /// Queries by the credential's object role can be directed to its home.
    SearchableFromObject,
    /// Both directions are advertised.
    Both,
    /// No tags: the credential is only found by broadcast.
    None,
}

impl DiscoveryTag {
    fn advertises_subject(self) -> bool {
        matches!(
            self,
            DiscoveryTag::SearchableFromSubject | DiscoveryTag::Both
        )
    }
    fn advertises_object(self) -> bool {
        matches!(
            self,
            DiscoveryTag::SearchableFromObject | DiscoveryTag::Both
        )
    }

    /// Stable one-byte encoding used by the durability log ([`crate::wal`]).
    pub fn to_byte(self) -> u8 {
        match self {
            DiscoveryTag::None => 0,
            DiscoveryTag::SearchableFromSubject => 1,
            DiscoveryTag::SearchableFromObject => 2,
            DiscoveryTag::Both => 3,
        }
    }

    /// Inverse of [`to_byte`](Self::to_byte).
    pub fn from_byte(b: u8) -> Option<DiscoveryTag> {
        match b {
            0 => Some(DiscoveryTag::None),
            1 => Some(DiscoveryTag::SearchableFromSubject),
            2 => Some(DiscoveryTag::SearchableFromObject),
            3 => Some(DiscoveryTag::Both),
            _ => None,
        }
    }
}

/// A mutation just applied to a [`Repository`], delivered to its observer
/// *after* the mutation is visible (all internal locks released). The
/// durability layer ([`crate::wal`]) uses this to append every mutation to
/// its write-ahead log without the repository knowing about files.
pub enum RepoEvent<'a> {
    /// A credential was stored at `home` with discovery tags `tag`.
    Published {
        /// The home node the credential was stored at.
        home: &'a EntityName,
        /// The stored credential (shared allocation, carrying its id).
        cred: &'a Arc<Credential>,
        /// Its discovery tags.
        tag: DiscoveryTag,
    },
    /// `purge_expired(now)` removed `purged` credentials.
    PurgedExpired {
        /// The purge evaluation time.
        now: u64,
        /// How many credentials were dropped.
        purged: usize,
    },
}

/// Callback observing repository mutations (see [`RepoEvent`]).
pub type RepoObserver = Arc<dyn Fn(RepoEvent<'_>) + Send + Sync>;

/// Canonical lookup key for a delegation subject. Entity keys include the
/// public key so two principals with the same display name cannot alias
/// each other in the index. Public so static analyses (psf-analysis) can
/// key their reachability sets identically to the proof engine.
pub fn subject_key(s: &Subject) -> String {
    match s {
        Subject::Entity { name, key } => {
            let kb = key.as_bytes();
            let mut out = String::with_capacity(name.0.len() + 3 + kb.len() * 2);
            out.push_str("E:");
            out.push_str(&name.0);
            out.push(':');
            for b in kb {
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0x0f) as usize] as char);
            }
            out
        }
        Subject::Role(r) => format!("R:{r}"),
    }
}

/// FNV-1a over a byte string — the shard-selection hash. Cheap, stable
/// across runs (the WAL's shard layout depends on it), and well mixed for
/// the `E:{name}:{hex key}` keys it sees.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct Entry {
    home: EntityName,
    cred: Arc<Credential>,
    tag: DiscoveryTag,
}

#[derive(Default)]
struct ShardData {
    entries: Vec<Entry>,
    by_subject: HashMap<String, Vec<u32>>,
    by_object: HashMap<String, Vec<u32>>,
    // Tag index slice: key → homes advertising credentials for it. A
    // subject's tag entries live in the subject's shard (same shard as
    // its credentials); object-tag entries are unioned across shards at
    // query time.
    tag_subject: HashMap<String, HashSet<EntityName>>,
    tag_object: HashMap<String, HashSet<EntityName>>,
}

impl ShardData {
    fn insert(
        &mut self,
        subject_key: &str,
        home: EntityName,
        cred: Arc<Credential>,
        tag: DiscoveryTag,
    ) {
        let idx = self.entries.len() as u32;
        match self.by_subject.get_mut(subject_key) {
            Some(v) => v.push(idx),
            None => {
                self.by_subject.insert(subject_key.to_string(), vec![idx]);
            }
        }
        self.by_object
            .entry(cred.body.object.to_string())
            .or_default()
            .push(idx);
        self.entries.push(Entry { home, cred, tag });
    }
}

/// Counters describing repository traffic (reset with
/// [`Repository::reset_stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RepoStats {
    /// Number of query operations served.
    pub queries: u64,
    /// Number of per-home messages those queries fanned out to.
    pub messages: u64,
    /// Queries answered via the discovery-tag index (directed).
    pub directed: u64,
    /// Queries that had to broadcast to every home.
    pub broadcast: u64,
}

/// Per-shard occupancy snapshot (backs `psf repo --stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardInfo {
    /// Shard index.
    pub index: usize,
    /// Credentials stored in the shard.
    pub entries: usize,
    /// Distinct subject keys indexed.
    pub subject_keys: usize,
    /// Distinct object roles indexed.
    pub object_keys: usize,
    /// Discovery-tag index entries (subject side + object side).
    pub tag_keys: usize,
}

/// A hash-sharded credential repository with a discovery-tag index.
#[derive(Clone)]
pub struct Repository {
    inner: Arc<RepositoryInner>,
}

struct RepositoryInner {
    shards: Vec<RwLock<ShardData>>,
    mask: u64,
    /// One mark per key bucket: the global epoch of the latest mutation to
    /// a key in the bucket, stored while the owning shard's write lock is
    /// held. Bucket `b` lies in shard `b & mask`.
    marks: Box<[AtomicU64]>,
    bucket_mask: u64,
    // Every home node ever published to; backs broadcast message counts
    // and `home_count` (homes are never removed, matching the old
    // per-home-shard behavior where a purged-empty home still counted).
    homes: RwLock<HashSet<EntityName>>,
    queries: AtomicU64,
    messages: AtomicU64,
    directed: AtomicU64,
    broadcast: AtomicU64,
    // Bumped on every mutation (publish, purge): proof caches use it to
    // decide whether a negative ("no proof") result is still current.
    epoch: AtomicU64,
    // Mutation observer (durability layer); invoked outside all locks.
    observer: RwLock<Option<RepoObserver>>,
}

impl Default for Repository {
    fn default() -> Self {
        Repository::new()
    }
}

impl Repository {
    /// New empty repository with [`DEFAULT_SHARD_COUNT`] shards.
    pub fn new() -> Repository {
        Repository::with_shard_count(DEFAULT_SHARD_COUNT)
    }

    /// New empty repository with `shards` hash shards (rounded up to a
    /// power of two, clamped to `1..=1024`). A single-shard repository
    /// reproduces the old fully-serialized store — the baseline the
    /// scaling benchmarks compare against.
    pub fn with_shard_count(shards: usize) -> Repository {
        let n = shards.clamp(1, 1024).next_power_of_two();
        let buckets = MARK_BUCKETS.max(n);
        Repository {
            inner: Arc::new(RepositoryInner {
                shards: (0..n).map(|_| RwLock::default()).collect(),
                mask: (n - 1) as u64,
                marks: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
                bucket_mask: (buckets - 1) as u64,
                homes: RwLock::new(HashSet::new()),
                queries: AtomicU64::new(0),
                messages: AtomicU64::new(0),
                directed: AtomicU64::new(0),
                broadcast: AtomicU64::new(0),
                epoch: AtomicU64::new(0),
                observer: RwLock::new(None),
            }),
        }
    }

    /// Number of hash shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard index a canonical subject key (see [`subject_key`]) maps
    /// to. The sharded WAL uses this to route publish records to per-shard
    /// log segments.
    pub fn shard_index(&self, subject_key: &str) -> usize {
        (fnv1a(subject_key.as_bytes()) & self.inner.mask) as usize
    }

    /// The key bucket a canonical subject key maps to: the shard's hash,
    /// masked finer, so bucket `b` lies in shard `b % shard_count()`.
    pub fn key_bucket(&self, subject_key: &str) -> u32 {
        (fnv1a(subject_key.as_bytes()) & self.inner.bucket_mask) as u32
    }

    /// The shard holding key bucket `bucket`.
    fn shard_of_bucket(&self, bucket: u32) -> &RwLock<ShardData> {
        &self.inner.shards[(u64::from(bucket) & self.inner.mask) as usize]
    }

    /// Advance the mark of every bucket in `buckets` to a fresh epoch. The
    /// caller holds the write lock of the shard they lie in: a reader that
    /// later finds a mark unchanged therefore read before this mutation.
    fn bump_marks(&self, buckets: impl IntoIterator<Item = u32>) {
        let e = self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        for b in buckets {
            self.inner.marks[b as usize].store(e, Ordering::Release);
        }
    }

    /// Store a credential at `home` (normally the issuer's domain), with
    /// the given discovery tags. This is a door: the credential is hashed
    /// here, once, and the id it will carry is handed back.
    pub fn publish(&self, home: EntityName, cred: SignedDelegation, tag: DiscoveryTag) -> CredId {
        self.publish_wrapped(home, Arc::new(Credential::new(cred)), tag)
    }

    /// [`publish`](Self::publish) for a credential a caller already
    /// wrapped (WAL replay dedupes on the id before storing).
    pub(crate) fn publish_wrapped(
        &self,
        home: EntityName,
        cred: Arc<Credential>,
        tag: DiscoveryTag,
    ) -> CredId {
        let skey = subject_key(&cred.body.subject);
        // Track the home set (read-check first: the set stabilizes fast
        // and write locks on it would serialize unrelated publishers).
        if !self.inner.homes.read().contains(&home) {
            self.inner.homes.write().insert(home.clone());
        }
        let bucket = self.key_bucket(&skey);
        {
            let mut data = self.shard_of_bucket(bucket).write();
            if tag.advertises_subject() {
                data.tag_subject
                    .entry(skey.clone())
                    .or_default()
                    .insert(home.clone());
            }
            if tag.advertises_object() {
                data.tag_object
                    .entry(cred.body.object.to_string())
                    .or_default()
                    .insert(home.clone());
            }
            data.insert(&skey, home.clone(), cred.clone(), tag);
            self.bump_marks([bucket]);
        }
        let observer = self.inner.observer.read().clone();
        if let Some(obs) = observer {
            obs(RepoEvent::Published {
                home: &home,
                cred: &cred,
                tag,
            });
        }
        cred.cred_id()
    }

    /// Convenience: publish at the issuer's own domain with both tags (the
    /// common case in the mail scenario).
    pub fn publish_at_issuer(&self, cred: SignedDelegation) -> CredId {
        self.publish(cred.body.issuer.clone(), cred, DiscoveryTag::Both)
    }

    /// All credentials whose subject matches `subject`, served from the
    /// subject's single shard. Directed when the shard's tag index
    /// advertises the key; broadcast (counted against every home)
    /// otherwise. Results share the repository's allocations (`Arc`) — no
    /// signed blob is cloned.
    pub fn query_by_subject(&self, subject: &Subject) -> Vec<Arc<Credential>> {
        self.query_by_subject_key(&subject_key(subject))
    }

    /// [`query_by_subject`](Self::query_by_subject) by pre-computed
    /// canonical key (hot-path variant: skips re-deriving the key).
    pub fn query_by_subject_key(&self, key: &str) -> Vec<Arc<Credential>> {
        self.query_key(key).0
    }

    /// The subject query plus `(bucket, mark)` of the key's bucket, the
    /// mark read under the shard read lock the credentials were read under.
    fn query_key(&self, key: &str) -> (Vec<Arc<Credential>>, KeyMark) {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        psf_telemetry::counter!("psf.drbac.repo.queries").inc();
        let bucket = self.key_bucket(key);
        let data = self.shard_of_bucket(bucket).read();
        // Marks are stored under the write lock: under the read lock this
        // one belongs to exactly the contents read below.
        let mark = self.inner.marks[bucket as usize].load(Ordering::Relaxed);
        let mut out = Vec::new();
        match data.tag_subject.get(key) {
            Some(homes) => {
                // Directed: one message per advertising home; only
                // credentials stored at those homes are reachable.
                self.inner.directed.fetch_add(1, Ordering::Relaxed);
                psf_telemetry::counter!("psf.drbac.repo.directed").inc();
                self.inner
                    .messages
                    .fetch_add(homes.len() as u64, Ordering::Relaxed);
                psf_telemetry::counter!("psf.drbac.repo.messages").add(homes.len() as u64);
                if let Some(indices) = data.by_subject.get(key) {
                    for &i in indices {
                        let e = &data.entries[i as usize];
                        if homes.contains(&e.home) {
                            out.push(e.cred.clone());
                        }
                    }
                }
            }
            None => {
                // Broadcast: every home is asked.
                self.inner.broadcast.fetch_add(1, Ordering::Relaxed);
                psf_telemetry::counter!("psf.drbac.repo.broadcast").inc();
                let total = self.inner.homes.read().len() as u64;
                self.inner.messages.fetch_add(total, Ordering::Relaxed);
                psf_telemetry::counter!("psf.drbac.repo.messages").add(total);
                if let Some(indices) = data.by_subject.get(key) {
                    out.extend(
                        indices
                            .iter()
                            .map(|&i| data.entries[i as usize].cred.clone()),
                    );
                }
            }
        }
        (out, (bucket, mark))
    }

    /// All credentials conveying `role`. Matching credentials are sharded
    /// by their *subjects*, so the query fans over every shard (brief read
    /// lock each, never a global lock); the advertised-home union across
    /// shards decides directed vs broadcast.
    pub fn query_by_object(&self, role: &RoleName) -> Vec<Arc<Credential>> {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        psf_telemetry::counter!("psf.drbac.repo.queries").inc();
        let key = role.to_string();
        let mut advertised: HashSet<EntityName> = HashSet::new();
        let mut matches: Vec<(EntityName, Arc<Credential>)> = Vec::new();
        for shard in &self.inner.shards {
            let data = shard.read();
            if let Some(homes) = data.tag_object.get(&key) {
                advertised.extend(homes.iter().cloned());
            }
            if let Some(indices) = data.by_object.get(&key) {
                for &i in indices {
                    let e = &data.entries[i as usize];
                    matches.push((e.home.clone(), e.cred.clone()));
                }
            }
        }
        if advertised.is_empty() {
            self.inner.broadcast.fetch_add(1, Ordering::Relaxed);
            psf_telemetry::counter!("psf.drbac.repo.broadcast").inc();
            let total = self.inner.homes.read().len() as u64;
            self.inner.messages.fetch_add(total, Ordering::Relaxed);
            psf_telemetry::counter!("psf.drbac.repo.messages").add(total);
            matches.into_iter().map(|(_, c)| c).collect()
        } else {
            self.inner.directed.fetch_add(1, Ordering::Relaxed);
            psf_telemetry::counter!("psf.drbac.repo.directed").inc();
            self.inner
                .messages
                .fetch_add(advertised.len() as u64, Ordering::Relaxed);
            psf_telemetry::counter!("psf.drbac.repo.messages").add(advertised.len() as u64);
            matches
                .into_iter()
                .filter(|(home, _)| advertised.contains(home))
                .map(|(_, c)| c)
                .collect()
        }
    }

    /// A deterministic snapshot of every stored credential across all
    /// shards, sorted by credential id (shard order is a hash artifact and
    /// must not leak into analysis output). Results share the repository's
    /// allocations (`Arc`) — no signed blob is cloned. This is the
    /// graph-extraction entry point for static analysis (psf-analysis):
    /// cycle, expiry, and dangling-support passes walk this snapshot
    /// rather than issuing directed queries.
    pub fn all_credentials(&self) -> Vec<Arc<Credential>> {
        let mut out: Vec<Arc<Credential>> = Vec::new();
        for shard in &self.inner.shards {
            let data = shard.read();
            out.extend(data.entries.iter().map(|e| e.cred.clone()));
        }
        out.sort_by_key(|c| c.cred_id());
        out
    }

    /// Total number of stored credentials across all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().entries.len())
            .sum()
    }

    /// True when no credentials are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of home nodes ever published to.
    pub fn home_count(&self) -> usize {
        self.inner.homes.read().len()
    }

    /// Drop expired credentials, one shard at a time: each shard is
    /// locked, swept, and released before the next — a purge never blocks
    /// concurrent lookups on other shards. Returns how many credentials
    /// were purged. Tag-index advertisements are rebuilt from the
    /// survivors, so an expired credential's advertisement dies with it:
    /// a dead advertisement would otherwise keep a key on the directed
    /// path and hide live un-tagged credentials stored at other homes
    /// (and [`snapshot_entries`](Self::snapshot_entries) — hence WAL
    /// compaction — only captures survivors' tags, so keeping stale
    /// entries would make query results differ across a compaction).
    pub fn purge_expired(&self, now: u64) -> usize {
        let mut purged = 0;
        for i in 0..self.inner.shards.len() {
            purged += self.purge_expired_shard(i, now);
        }
        // One final epoch bump even when nothing was purged, matching the
        // historical "purge always advances the version" contract.
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        if purged > 0 {
            let observer = self.inner.observer.read().clone();
            if let Some(obs) = observer {
                obs(RepoEvent::PurgedExpired { now, purged });
            }
        }
        purged
    }

    /// Sweep a single shard for expired credentials. Internal: the
    /// durability layer replays per-shard `PurgeExpired` records with it
    /// (callers outside the crate go through [`purge_expired`], which
    /// notifies the observer).
    pub(crate) fn purge_expired_shard(&self, shard: usize, now: u64) -> usize {
        let mut data = self.inner.shards[shard].write();
        // The buckets of the purged credentials' keys: only their contents
        // (credentials and subject advertisements) change.
        let mut touched: Vec<u32> = data
            .entries
            .iter()
            .filter(|e| e.cred.body.expires.is_some_and(|t| now >= t))
            .map(|e| self.key_bucket(&subject_key(&e.cred.body.subject)))
            .collect();
        let expired = touched.len();
        if expired > 0 {
            let old = std::mem::take(&mut *data);
            let mut rebuilt = ShardData::default();
            for e in old.entries {
                if e.cred.body.expires.is_none_or(|t| now < t) {
                    let skey = subject_key(&e.cred.body.subject);
                    if e.tag.advertises_subject() {
                        rebuilt
                            .tag_subject
                            .entry(skey.clone())
                            .or_default()
                            .insert(e.home.clone());
                    }
                    if e.tag.advertises_object() {
                        rebuilt
                            .tag_object
                            .entry(e.cred.body.object.to_string())
                            .or_default()
                            .insert(e.home.clone());
                    }
                    rebuilt.insert(&skey, e.home, e.cred, e.tag);
                }
            }
            *data = rebuilt;
            touched.sort_unstable();
            touched.dedup();
            self.bump_marks(touched);
        }
        expired
    }

    /// The repository's mutation epoch (see [`CredentialSource::version`]).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Advance the mutation epoch, and every bucket mark to it, without
    /// changing contents. Recovery calls this once after replay, so no
    /// epoch or mark pinned before the crash — by a certificate, an audit
    /// record or a proof-cache entry — names the recovered contents.
    pub fn bump_epoch(&self) -> u64 {
        let e = self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        for mark in self.inner.marks.iter() {
            mark.store(e, Ordering::Release);
        }
        e
    }

    /// Raise the mutation epoch to at least `floor` (no-op when already
    /// past it). Recovery uses the highest epoch tag seen in the log so a
    /// recovered repository's epoch is monotone across the crash.
    pub fn raise_epoch(&self, floor: u64) {
        self.inner.epoch.fetch_max(floor, Ordering::AcqRel);
    }

    /// Install (or clear) the mutation observer. The callback fires after
    /// each `publish` / effective `purge_expired`, outside all repository
    /// locks — it may re-enter the repository. The durability layer
    /// ([`crate::wal`]) is the intended consumer.
    pub fn set_observer(&self, observer: Option<RepoObserver>) {
        *self.inner.observer.write() = observer;
    }

    /// A non-owning way back to this repository, for the observer
    /// installed on it (an owning one would be a cycle; see [`crate::wal`]).
    pub(crate) fn weak(&self) -> impl Fn() -> Option<Repository> + Send + Sync {
        let weak = Arc::downgrade(&self.inner);
        move || weak.upgrade().map(|inner| Repository { inner })
    }

    /// A deterministic snapshot of every stored credential with its home
    /// node and discovery tags, sorted by (home, credential id). This is
    /// what WAL compaction persists: enough to rebuild the shards *and*
    /// the tag index byte-for-byte.
    pub fn snapshot_entries(&self) -> Vec<(EntityName, DiscoveryTag, Arc<Credential>)> {
        let mut out: Vec<(EntityName, DiscoveryTag, Arc<Credential>)> = Vec::new();
        for i in 0..self.inner.shards.len() {
            out.extend(self.snapshot_shard(i));
        }
        out.sort_by(|a, b| (&a.0 .0, a.2.cred_id()).cmp(&(&b.0 .0, b.2.cred_id())));
        out
    }

    /// Per-shard snapshot in the same shape as
    /// [`snapshot_entries`](Self::snapshot_entries), sorted by (home,
    /// credential id). The sharded WAL compacts one shard at a time with
    /// it.
    pub fn snapshot_shard(&self, shard: usize) -> Vec<(EntityName, DiscoveryTag, Arc<Credential>)> {
        let data = self.inner.shards[shard].read();
        let mut out: Vec<(EntityName, DiscoveryTag, Arc<Credential>)> = Vec::new();
        for e in &data.entries {
            out.push((e.home.clone(), e.tag, e.cred.clone()));
        }
        out.sort_by(|a, b| (&a.0 .0, a.2.cred_id()).cmp(&(&b.0 .0, b.2.cred_id())));
        out
    }

    /// Per-shard occupancy snapshot (entries, index sizes) for `psf repo
    /// --stats`.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let data = s.read();
                ShardInfo {
                    index: i,
                    entries: data.entries.len(),
                    subject_keys: data.by_subject.len(),
                    object_keys: data.by_object.len(),
                    tag_keys: data.tag_subject.len() + data.tag_object.len(),
                }
            })
            .collect()
    }

    /// Snapshot the traffic counters.
    pub fn stats(&self) -> RepoStats {
        RepoStats {
            queries: self.inner.queries.load(Ordering::Relaxed),
            messages: self.inner.messages.load(Ordering::Relaxed),
            directed: self.inner.directed.load(Ordering::Relaxed),
            broadcast: self.inner.broadcast.load(Ordering::Relaxed),
        }
    }

    /// Reset the traffic counters (between bench phases).
    pub fn reset_stats(&self) {
        self.inner.queries.store(0, Ordering::Relaxed);
        self.inner.messages.store(0, Ordering::Relaxed);
        self.inner.directed.store(0, Ordering::Relaxed);
        self.inner.broadcast.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegation::DelegationBuilder;
    use crate::entity::Entity;

    fn cred(issuer: &Entity, subject: &Entity, role: &str) -> SignedDelegation {
        DelegationBuilder::new(issuer)
            .subject_entity(subject)
            .role(issuer.role(role))
            .sign()
    }

    #[test]
    fn publish_and_query_by_subject() {
        let repo = Repository::new();
        let ny = Entity::with_seed("Comp.NY", b"r");
        let alice = Entity::with_seed("Alice", b"r");
        repo.publish_at_issuer(cred(&ny, &alice, "Member"));
        let found = repo.query_by_subject(&alice.as_subject());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].body.object, ny.role("Member"));
    }

    #[test]
    fn query_by_object_finds_role_credentials() {
        let repo = Repository::new();
        let ny = Entity::with_seed("Comp.NY", b"r");
        let alice = Entity::with_seed("Alice", b"r");
        let bob = Entity::with_seed("Bob", b"r");
        repo.publish_at_issuer(cred(&ny, &alice, "Member"));
        repo.publish_at_issuer(cred(&ny, &bob, "Member"));
        repo.publish_at_issuer(cred(&ny, &bob, "Partner"));
        assert_eq!(repo.query_by_object(&ny.role("Member")).len(), 2);
        assert_eq!(repo.query_by_object(&ny.role("Partner")).len(), 1);
        assert_eq!(repo.len(), 3);
    }

    #[test]
    fn directed_vs_broadcast_message_counts() {
        let repo = Repository::new();
        // Ten domains, one credential each.
        let alice = Entity::with_seed("Alice", b"r");
        for i in 0..10 {
            let dom = Entity::with_seed(format!("Dom{i}"), b"r");
            // Tagged: advertised in the subject index.
            repo.publish(
                dom.name.clone(),
                cred(&dom, &alice, "Member"),
                DiscoveryTag::SearchableFromSubject,
            );
        }
        repo.reset_stats();
        let found = repo.query_by_subject(&alice.as_subject());
        assert_eq!(found.len(), 10);
        let s = repo.stats();
        assert_eq!(s.directed, 1);
        assert_eq!(s.messages, 10); // every home advertised

        // An untagged key broadcasts to all 10 homes.
        let bob = Entity::with_seed("Bob", b"r");
        repo.reset_stats();
        let none = repo.query_by_subject(&bob.as_subject());
        assert!(none.is_empty());
        let s = repo.stats();
        assert_eq!(s.broadcast, 1);
        assert_eq!(s.messages, 10);
    }

    #[test]
    fn untagged_credential_found_only_by_broadcast() {
        let repo = Repository::new();
        let ny = Entity::with_seed("Comp.NY", b"r");
        let alice = Entity::with_seed("Alice", b"r");
        repo.publish(
            ny.name.clone(),
            cred(&ny, &alice, "Member"),
            DiscoveryTag::None,
        );
        // Still found (broadcast fallback), but counted as broadcast.
        let found = repo.query_by_subject(&alice.as_subject());
        assert_eq!(found.len(), 1);
        assert_eq!(repo.stats().broadcast, 1);
    }

    #[test]
    fn purge_expired_drops_only_expired() {
        let repo = Repository::new();
        let ny = Entity::with_seed("Comp.NY", b"r");
        let alice = Entity::with_seed("Alice", b"r");
        let eternal = cred(&ny, &alice, "Member");
        let doomed = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Guest"))
            .expires(100)
            .sign();
        repo.publish_at_issuer(eternal.clone());
        repo.publish_at_issuer(doomed);
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.purge_expired(50), 0);
        assert_eq!(repo.purge_expired(100), 1);
        assert_eq!(repo.len(), 1);
        // The survivor is still indexed and findable.
        let found = repo.query_by_subject(&alice.as_subject());
        assert_eq!(found.len(), 1);
        assert_eq!(**found[0], eternal);
    }

    #[test]
    fn object_tag_does_not_serve_subject_queries() {
        let repo = Repository::new();
        let ny = Entity::with_seed("Comp.NY", b"r");
        let alice = Entity::with_seed("Alice", b"r");
        repo.publish(
            ny.name.clone(),
            cred(&ny, &alice, "Member"),
            DiscoveryTag::SearchableFromObject,
        );
        repo.reset_stats();
        let _ = repo.query_by_subject(&alice.as_subject());
        assert_eq!(repo.stats().broadcast, 1); // subject side not advertised
        repo.reset_stats();
        let _ = repo.query_by_object(&ny.role("Member"));
        assert_eq!(repo.stats().directed, 1);
    }

    /// Sharding is an internal layout choice: a single-shard store and a
    /// many-shard store must agree on every query, count, and snapshot.
    #[test]
    fn shard_count_is_observationally_invisible() {
        let wide = Repository::with_shard_count(64);
        let narrow = Repository::with_shard_count(1);
        assert_eq!(wide.shard_count(), 64);
        assert_eq!(narrow.shard_count(), 1);
        let subjects: Vec<Entity> = (0..24)
            .map(|i| Entity::with_seed(format!("U{i}"), b"shard"))
            .collect();
        let doms: Vec<Entity> = (0..4)
            .map(|i| Entity::with_seed(format!("D{i}"), b"shard"))
            .collect();
        for (i, u) in subjects.iter().enumerate() {
            let d = &doms[i % doms.len()];
            let tag = match i % 3 {
                0 => DiscoveryTag::Both,
                1 => DiscoveryTag::SearchableFromSubject,
                _ => DiscoveryTag::None,
            };
            let c = cred(d, u, "Member");
            wide.publish(d.name.clone(), c.clone(), tag);
            narrow.publish(d.name.clone(), c, tag);
        }
        assert_eq!(wide.len(), narrow.len());
        assert_eq!(wide.home_count(), narrow.home_count());
        for u in &subjects {
            let a: Vec<String> = wide
                .query_by_subject(&u.as_subject())
                .iter()
                .map(|c| c.id())
                .collect();
            let b: Vec<String> = narrow
                .query_by_subject(&u.as_subject())
                .iter()
                .map(|c| c.id())
                .collect();
            assert_eq!(a, b, "subject query diverged for {}", u.name);
        }
        for d in &doms {
            let mut a: Vec<String> = wide
                .query_by_object(&d.role("Member"))
                .iter()
                .map(|c| c.id())
                .collect();
            let mut b: Vec<String> = narrow
                .query_by_object(&d.role("Member"))
                .iter()
                .map(|c| c.id())
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "object query diverged for {}", d.name);
        }
        let ids = |r: &Repository| -> Vec<String> {
            r.all_credentials().iter().map(|c| c.id()).collect()
        };
        assert_eq!(ids(&wide), ids(&narrow));
        let snap = |r: &Repository| -> Vec<(String, u8, String)> {
            r.snapshot_entries()
                .iter()
                .map(|(h, t, c)| (h.0.clone(), t.to_byte(), c.id()))
                .collect()
        };
        assert_eq!(snap(&wide), snap(&narrow));
    }

    /// A publish moves the mark of its own key's bucket and no other —
    /// not those of other shards, nor those of other buckets of its own
    /// shard: the property the proof cache's invalidation rests on.
    #[test]
    fn high_water_marks_move_only_for_the_mutated_shard() {
        let repo = Repository::with_shard_count(16);
        let ny = Entity::with_seed("Comp.NY", b"hw");
        let alice = Entity::with_seed("Alice", b"hw");
        let key_of = |e: &Entity| subject_key(&e.as_subject());
        let mark_of = |e: &Entity| repo.credentials_by_key(&e.as_subject(), &key_of(e)).1;
        repo.publish_at_issuer(cred(&ny, &alice, "Member"));
        let (bucket, mark) = mark_of(&alice).unwrap();
        assert_eq!(bucket, repo.key_bucket(&key_of(&alice)));
        assert!(mark > 0);
        assert_eq!(repo.bucket_mark(bucket), Some(mark));
        // A subject in another shard, and one in Alice's shard but in
        // another bucket: publishing either leaves her mark where it was.
        let probes: Vec<Entity> = (0..256)
            .map(|i| Entity::with_seed(format!("Probe{i}"), b"hw"))
            .collect();
        let shard = |e: &Entity| repo.shard_index(&key_of(e));
        let other_shard = probes.iter().find(|e| shard(e) != shard(&alice));
        let same_shard = probes
            .iter()
            .find(|e| shard(e) == shard(&alice) && repo.key_bucket(&key_of(e)) != bucket);
        for other in [other_shard, same_shard] {
            let other = other.expect("256 probes cover both cases");
            let before = mark_of(other).unwrap().1;
            repo.publish_at_issuer(cred(&ny, other, "Member"));
            assert_eq!(
                mark_of(&alice),
                Some((bucket, mark)),
                "untouched mark moved"
            );
            assert!(mark_of(other).unwrap().1 > before);
        }
        // Alice's own publish moves it; the version moved on every publish.
        repo.publish_at_issuer(cred(&ny, &alice, "Admin"));
        assert!(repo.bucket_mark(bucket).unwrap() > mark);
        assert_eq!(repo.version(), Some(4));
        assert_eq!(repo.bucket_mark(u32::MAX), None);
    }

    #[test]
    fn shard_infos_account_for_every_entry() {
        let repo = Repository::with_shard_count(8);
        let ny = Entity::with_seed("Comp.NY", b"si");
        for i in 0..40 {
            let u = Entity::with_seed(format!("U{i}"), b"si");
            repo.publish_at_issuer(cred(&ny, &u, "Member"));
        }
        let infos = repo.shard_infos();
        assert_eq!(infos.len(), 8);
        assert_eq!(infos.iter().map(|s| s.entries).sum::<usize>(), 40);
        assert!(
            infos.iter().filter(|s| s.entries > 0).count() > 1,
            "40 subjects should spread across shards"
        );
        for s in &infos {
            assert_eq!(s.entries > 0, s.subject_keys > 0);
        }
    }

    #[test]
    fn incremental_purge_keeps_shards_consistent() {
        let repo = Repository::with_shard_count(8);
        let ny = Entity::with_seed("Comp.NY", b"ip");
        let mut doomed = 0;
        for i in 0..30 {
            let u = Entity::with_seed(format!("U{i}"), b"ip");
            let mut b = DelegationBuilder::new(&ny)
                .subject_entity(&u)
                .role(ny.role("Member"));
            if i % 3 == 0 {
                b = b.expires(100);
                doomed += 1;
            }
            repo.publish_at_issuer(b.sign());
        }
        assert_eq!(repo.purge_expired(100), doomed);
        assert_eq!(repo.len(), 30 - doomed);
        // Survivors remain indexed and findable after the per-shard rebuild.
        for i in 0..30 {
            let u = Entity::with_seed(format!("U{i}"), b"ip");
            let found = repo.query_by_subject(&u.as_subject());
            assert_eq!(found.len(), usize::from(i % 3 != 0), "U{i}");
        }
    }
}
