//! The Switchboard channel: sequence-numbered (replay-rejecting) AEAD
//! records, heartbeats with RTT tracking, continuous authorization, and
//! the two-way RPC interface.
//!
//! ## Data plane
//!
//! Frames are staged in buffers from a per-channel [`FramePool`]: the
//! 8-byte sequence header is reserved up front and secure mode seals the
//! payload **in place** (`seal_in_place` appends the tag into the same
//! buffer), so a steady-state send performs zero allocations. Receive
//! decrypts in place and dispatches on borrowed slices. RPC waiters live
//! in a sharded pending table keyed by call id, each a small
//! mutex+condvar slot, so [`Channel::call_pipelined`] can keep a sliding
//! window of requests in flight without a per-call channel allocation or
//! a single contended map lock.

use crate::pool::{FramePool, PooledBuf, DEFAULT_POOL_SLOTS};
use crate::rpc::{self, RpcStatus};
use crate::suite::{AuthorizationMonitor, Authorizer};
use crate::transport::{FrameReceiver, FrameSender};
use crate::SwitchboardError;
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use psf_crypto::aead::ChaCha20Poly1305;
use psf_crypto::ed25519::VerifyingKey;
use psf_drbac::entity::EntityName;
use psf_drbac::wire;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inner frame types.
pub(crate) const FT_RPC_REQ: u8 = 0;
pub(crate) const FT_RPC_RESP: u8 = 1;
pub(crate) const FT_HEARTBEAT: u8 = 2;
pub(crate) const FT_HB_ACK: u8 = 3;
pub(crate) const FT_REAUTH_OFFER: u8 = 4;
pub(crate) const FT_REAUTH_RESULT: u8 = 5;
pub(crate) const FT_CLOSE: u8 = 6;

/// Channel security mode.
pub enum Mode {
    /// Unauthenticated plaintext — models the paper's `rmi` exposure type.
    Plain,
    /// Encrypted + authenticated + continuously authorized (`switchboard`
    /// exposure type).
    Secure {
        /// AEAD for outgoing records.
        send: ChaCha20Poly1305,
        /// AEAD for incoming records.
        recv: ChaCha20Poly1305,
        /// Nonce direction byte for outgoing records.
        send_dir: u8,
        /// Nonce direction byte for incoming records.
        recv_dir: u8,
    },
}

/// How a channel's receive path and heartbeats are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelBackend {
    /// Readiness-driven: TCP channels register with the shared epoll
    /// [reactor](crate::reactor) (no per-channel threads); in-memory
    /// channels keep their reader thread but heartbeat from the
    /// reactor's timer wheel. The default on Linux; on other targets
    /// (no epoll) this degrades to [`Threaded`](ChannelBackend::Threaded).
    Reactor,
    /// Thread-per-connection: one reader thread plus (if heartbeats are
    /// enabled) one heartbeat thread per channel. The only backend off
    /// Linux, and the server for handlers that block — a blocking handler
    /// parks that channel's reader thread, never a reactor shard
    /// (`tests/reactor.rs`).
    Threaded,
}

/// User-facing channel configuration.
#[derive(Clone, Debug)]
pub struct ChannelConfig {
    /// Period of automatic heartbeats; `None` disables automatic
    /// heartbeats (tests then call [`Channel::send_heartbeat`] manually).
    pub heartbeat_interval: Option<Duration>,
    /// Default timeout for [`Channel::call`].
    pub rpc_timeout: Duration,
    /// Receive-path engine (reactor vs legacy threads).
    pub backend: ChannelBackend,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            heartbeat_interval: Some(Duration::from_millis(200)),
            rpc_timeout: Duration::from_secs(10),
            backend: if cfg!(target_os = "linux") {
                ChannelBackend::Reactor
            } else {
                ChannelBackend::Threaded
            },
        }
    }
}

/// Current trust state of the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelStatus {
    /// Traffic flows.
    Healthy,
    /// The peer's authorization was invalidated (the revoked credential's
    /// id, or `"expired"`, recorded); application traffic is refused until
    /// re-validation succeeds.
    RevalidationRequired(String),
    /// Closed (by either side or transport loss).
    Closed,
}

/// Wire traffic counters for one channel endpoint.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrafficStats {
    /// Frames written to the transport.
    pub frames_sent: u64,
    /// Frames accepted from the transport.
    pub frames_received: u64,
    /// Bytes written (record layer included).
    pub bytes_sent: u64,
    /// Bytes accepted (record layer included).
    pub bytes_received: u64,
}

/// One-call observability snapshot of a channel endpoint: liveness,
/// round-trip time, heartbeat count, wire traffic, and uptime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Most recent heartbeat round-trip time, if one was measured.
    pub last_rtt: Option<Duration>,
    /// Heartbeats received from the peer.
    pub heartbeats_received: u64,
    /// Heartbeats sent to the peer.
    pub heartbeats_sent: u64,
    /// Wire traffic counters (record-layer overhead included).
    pub traffic: TrafficStats,
    /// Time since the channel was established.
    pub uptime: Duration,
    /// Current trust status.
    pub status: ChannelStatus,
}

/// Information about the authenticated peer (absent in plain mode).
#[derive(Clone)]
pub struct PeerInfo {
    /// The peer's claimed (and credential-bound) entity name.
    pub name: EntityName,
    /// The peer's identity key.
    pub key: VerifyingKey,
}

type Handler = Arc<dyn Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync>;
type DefaultHandler = Arc<dyn Fn(&str, &[u8]) -> Result<Vec<u8>, String> + Send + Sync>;
type CloseWatcher = Box<dyn FnOnce() + Send>;

// --------------------------------------------------------- RPC waiters --

/// One in-flight RPC waiter: a mutex'd result cell plus a condvar. The
/// caller parks on the condvar; the reader thread (or `mark_closed`)
/// completes the slot and wakes it.
struct CallSlot {
    result: Mutex<Option<Result<Vec<u8>, SwitchboardError>>>,
    ready: Condvar,
}

impl CallSlot {
    fn new() -> Arc<CallSlot> {
        Arc::new(CallSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn complete(&self, r: Result<Vec<u8>, SwitchboardError>) {
        let mut slot = self.result.lock();
        if slot.is_none() {
            *slot = Some(r);
            self.ready.notify_all();
        }
    }

    /// Block until completed or the deadline passes.
    fn wait_deadline(&self, deadline: Instant) -> Option<Result<Vec<u8>, SwitchboardError>> {
        let mut slot = self.result.lock();
        while slot.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let timed_out = self.ready.wait_for(&mut slot, deadline - now).timed_out();
            if timed_out && slot.is_none() {
                return None;
            }
        }
        slot.take()
    }
}

/// Sharded id → waiter map. Pipelined callers and the reader thread touch
/// disjoint shards most of the time, so completion of one call never
/// serializes behind registration of another.
const PENDING_SHARDS: usize = 16;

struct PendingTable {
    shards: Vec<Mutex<HashMap<u64, Arc<CallSlot>>>>,
}

impl PendingTable {
    fn new() -> PendingTable {
        PendingTable {
            shards: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<CallSlot>>> {
        &self.shards[(id as usize) % PENDING_SHARDS]
    }

    fn insert(&self, id: u64, slot: Arc<CallSlot>) {
        self.shard(id).lock().insert(id, slot);
    }

    fn remove(&self, id: u64) -> Option<Arc<CallSlot>> {
        self.shard(id).lock().remove(&id)
    }

    fn drain(&self) -> Vec<Arc<CallSlot>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().drain().map(|(_, slot)| slot));
        }
        all
    }
}

pub(crate) struct ChannelInner {
    sender: Mutex<Box<dyn FrameSender>>,
    mode: Mode,
    send_seq: AtomicU64,
    recv_seq: AtomicU64,
    status: RwLock<ChannelStatus>,
    peer: Option<PeerInfo>,
    monitor: Mutex<Option<AuthorizationMonitor>>,
    authorizer: Option<Authorizer>,
    pending: PendingTable,
    pool: Arc<FramePool>,
    reauth_waiters: Mutex<Vec<Sender<bool>>>,
    next_rpc_id: AtomicU64,
    handlers: RwLock<HashMap<String, Handler>>,
    default_handler: RwLock<Option<DefaultHandler>>,
    start: Instant,
    last_heard_us: AtomicU64,
    last_rtt_us: AtomicU64,
    hb_send_seq: AtomicU64,
    hb_recv_seq: AtomicU64,
    heartbeats_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    /// Deliberately SeqCst everywhere: `call_pipelined` relies on a
    /// Dekker-style protocol (insert slot, then check `closed`) against
    /// `mark_closed` (store `closed`, then drain slots) — both sides need
    /// a total order or a call inserted concurrently with close could
    /// miss both the drain and the re-check and idle out its timeout.
    closed: AtomicBool,
    close_watchers: Mutex<Vec<CloseWatcher>>,
    /// Link back to the reactor shard servicing this channel (TCP
    /// connection and/or wheel heartbeat); taken exactly once at close.
    reactor_reg: Mutex<Option<crate::reactor::Registration>>,
    config: ChannelConfig,
}

impl ChannelInner {
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    pub(crate) fn set_reactor_registration(&self, reg: crate::reactor::Registration) {
        *self.reactor_reg.lock() = Some(reg);
    }
}

/// A live Switchboard channel endpoint.
pub struct Channel {
    pub(crate) inner: Arc<ChannelInner>,
}

impl Channel {
    /// Assemble a channel over split transport halves. With the
    /// [`Reactor`](ChannelBackend::Reactor) backend a TCP channel hands
    /// its stream to the epoll reactor and owns **zero** threads; other
    /// transports keep a reader thread but heartbeat from the reactor's
    /// timer wheel. The [`Threaded`](ChannelBackend::Threaded) backend
    /// reproduces the legacy reader + heartbeat thread pair. Called by
    /// the handshake module.
    pub(crate) fn start(
        sender: Box<dyn FrameSender>,
        mut receiver: Box<dyn FrameReceiver>,
        mode: Mode,
        peer: Option<PeerInfo>,
        monitor: Option<AuthorizationMonitor>,
        authorizer: Option<Authorizer>,
        config: ChannelConfig,
    ) -> Channel {
        let inner = Arc::new(ChannelInner {
            sender: Mutex::new(sender),
            mode,
            send_seq: AtomicU64::new(0),
            recv_seq: AtomicU64::new(0),
            status: RwLock::new(ChannelStatus::Healthy),
            peer,
            monitor: Mutex::new(monitor),
            authorizer,
            pending: PendingTable::new(),
            pool: FramePool::new(DEFAULT_POOL_SLOTS),
            reauth_waiters: Mutex::new(Vec::new()),
            next_rpc_id: AtomicU64::new(1),
            handlers: RwLock::new(HashMap::new()),
            default_handler: RwLock::new(None),
            start: Instant::now(),
            last_heard_us: AtomicU64::new(0),
            last_rtt_us: AtomicU64::new(0),
            hb_send_seq: AtomicU64::new(0),
            hb_recv_seq: AtomicU64::new(0),
            heartbeats_received: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            close_watchers: Mutex::new(Vec::new()),
            reactor_reg: Mutex::new(None),
            config,
        });

        let heartbeat = inner.config.heartbeat_interval;
        // Off Linux there is no epoll shim: an explicit Reactor request
        // degrades to the threaded backend rather than failing.
        if cfg!(target_os = "linux") && inner.config.backend == ChannelBackend::Reactor {
            if let Some(stream) = receiver.take_stream() {
                // TCP under the reactor: the channel owns no threads at
                // all. Flipping the (shared) file description nonblocking
                // also covers the sender half, whose vectored writes
                // absorb `EWOULDBLOCK` by queueing the unsent tail in a
                // bounded backlog the reactor flushes on writable edges —
                // no send path ever blocks a reactor shard.
                stream.set_nonblocking(true).expect("set_nonblocking");
                crate::reactor::register_connection(stream, &inner, heartbeat);
                return Channel { inner };
            }
            // Non-TCP (in-memory) transport: blocking reads stay on a
            // reader thread, but heartbeats come from the timer wheel
            // instead of a dedicated thread.
            if let Some(interval) = heartbeat {
                crate::reactor::register_heartbeat(&inner, interval);
            }
            let reader = inner.clone();
            std::thread::Builder::new()
                .name("swbd-reader".into())
                .spawn(move || reader_loop(reader, receiver))
                .expect("spawn reader");
            return Channel { inner };
        }

        // Legacy thread-per-connection backend.
        {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("swbd-reader".into())
                .spawn(move || reader_loop(inner, receiver))
                .expect("spawn reader");
        }
        if let Some(interval) = heartbeat {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("swbd-heartbeat".into())
                .spawn(move || {
                    while !inner.closed.load(Ordering::SeqCst) {
                        std::thread::sleep(interval);
                        if inner.closed.load(Ordering::SeqCst) {
                            break;
                        }
                        let _ = send_heartbeat_frame(&inner);
                    }
                })
                .expect("spawn heartbeat");
        }
        Channel { inner }
    }

    /// The authenticated peer (None in plain mode).
    pub fn peer(&self) -> Option<PeerInfo> {
        self.inner.peer.clone()
    }

    /// Current trust status.
    pub fn status(&self) -> ChannelStatus {
        self.inner.status.read().clone()
    }

    /// Most recent measured round-trip time, if any heartbeat has been
    /// acknowledged.
    pub fn last_rtt(&self) -> Option<Duration> {
        // Relaxed: stats-only — a momentarily stale RTT is as meaningful
        // as a fresh one; nothing is ordered against this load.
        match self.inner.last_rtt_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(Duration::from_micros(us)),
        }
    }

    /// Whether the peer has been heard from within `window`.
    pub fn is_alive(&self, window: Duration) -> bool {
        if self.inner.closed.load(Ordering::SeqCst) {
            return false;
        }
        // Relaxed: liveness is inherently a racy read of a monotonically
        // advancing timestamp; staleness only errs toward "not alive".
        let last = self.inner.last_heard_us.load(Ordering::Relaxed);
        let now = self.inner.start.elapsed().as_micros() as u64;
        now.saturating_sub(last) <= window.as_micros() as u64
    }

    /// Heartbeats received from the peer so far.
    pub fn heartbeats_received(&self) -> u64 {
        // Relaxed: a pure statistic; no other state is published under it.
        self.inner.heartbeats_received.load(Ordering::Relaxed)
    }

    /// Wire traffic counters (frames and bytes in each direction,
    /// including record-layer overhead).
    pub fn traffic(&self) -> TrafficStats {
        // Relaxed: the four counters are independent statistics — a
        // snapshot need not be mutually consistent across them.
        TrafficStats {
            frames_sent: self.inner.frames_sent.load(Ordering::Relaxed),
            frames_received: self.inner.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.inner.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.inner.bytes_received.load(Ordering::Relaxed),
        }
    }

    /// Full observability snapshot (RTT, heartbeats, traffic, uptime).
    /// Cheap: a handful of atomic loads.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            last_rtt: self.last_rtt(),
            heartbeats_received: self.heartbeats_received(),
            heartbeats_sent: self.inner.hb_send_seq.load(Ordering::Relaxed),
            traffic: self.traffic(),
            uptime: self.inner.start.elapsed(),
            status: self.status(),
        }
    }

    /// Register a handler for incoming RPC requests.
    pub fn register_handler<F>(&self, method: impl Into<String>, f: F)
    where
        F: Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync + 'static,
    {
        self.inner
            .handlers
            .write()
            .insert(method.into(), Arc::new(f));
    }

    /// Register a catch-all handler invoked (with the method name) when no
    /// per-method handler matches — used to serve whole component
    /// endpoints over one channel.
    pub fn register_default_handler<F>(&self, f: F)
    where
        F: Fn(&str, &[u8]) -> Result<Vec<u8>, String> + Send + Sync + 'static,
    {
        *self.inner.default_handler.write() = Some(Arc::new(f));
    }

    /// Invoke a remote method and await its response (uses the configured
    /// RPC timeout).
    pub fn call(&self, method: &str, args: &[u8]) -> Result<Vec<u8>, SwitchboardError> {
        self.call_timeout(method, args, self.inner.config.rpc_timeout)
    }

    /// Invoke a remote method with an explicit timeout.
    pub fn call_timeout(
        &self,
        method: &str,
        args: &[u8],
        timeout: Duration,
    ) -> Result<Vec<u8>, SwitchboardError> {
        // Only traced work pays for a per-call span: when the caller has a
        // live trace, the call gets its own span (whose context then rides
        // the request envelope); untraced traffic skips straight through.
        let _span = psf_telemetry::current_trace_id()
            .is_some()
            .then(|| psf_telemetry::span("psf.swbd", "rpc.call"));
        self.call_pipelined(method, args)?.wait_timeout(timeout)
    }

    /// Issue a request without waiting: the frame is on the wire when this
    /// returns, and the response is claimed later via
    /// [`PendingCall::wait`]. Overlapping several of these keeps the
    /// channel's full round trip busy instead of idling between request
    /// and response.
    pub fn call_pipelined(
        &self,
        method: &str,
        args: &[u8],
    ) -> Result<PendingCall, SwitchboardError> {
        self.check_traffic_allowed()?;
        let start = Instant::now();
        let ctx = psf_telemetry::TraceContext::current();
        // Relaxed: pure unique-id allocation; the id is published to the
        // reader through the pending table's shard mutex, not this atomic.
        let id = self.inner.next_rpc_id.fetch_add(1, Ordering::Relaxed);
        let slot = CallSlot::new();
        self.inner.pending.insert(id, slot.clone());

        let mut buf = self
            .inner
            .pool
            .take(8 + 1 + rpc::REQ_HEADER_LEN + method.len() + args.len() + 17);
        buf.extend_from_slice(&[0u8; 8]); // sequence header, filled at send
        buf.push(FT_RPC_REQ);
        rpc::encode_request_into(&mut buf, id, method, args, ctx);
        if let Err(e) = send_pooled_frame(&self.inner, buf) {
            self.inner.pending.remove(id);
            return Err(e);
        }
        // `mark_closed` may have drained the table before our insert (its
        // drain and our insert race when the transport dies concurrently);
        // re-checking after the insert guarantees the slot cannot be left
        // to idle out the full RPC timeout.
        if self.inner.closed.load(Ordering::SeqCst) {
            self.inner.pending.remove(id);
            slot.complete(Err(SwitchboardError::Closed));
        }
        psf_telemetry::gauge!("psf.switchboard.pipeline.inflight").add(1);
        Ok(PendingCall {
            inner: self.inner.clone(),
            slot,
            id,
            start,
            default_timeout: self.inner.config.rpc_timeout,
            claimed: false,
        })
    }

    /// Issue one request per element of `chunk` as a single coalesced
    /// transport write. Sequence numbers are allocated contiguously under
    /// one sender-lock acquisition and the frames leave in one
    /// [`send_many`](crate::transport::FrameSender::send_many), so the
    /// peer's reader wakes once per chunk instead of once per call.
    fn call_pipelined_batch(
        &self,
        method: &str,
        chunk: &[&[u8]],
    ) -> Result<Vec<PendingCall>, SwitchboardError> {
        self.check_traffic_allowed()?;
        let start = Instant::now();
        let ctx = psf_telemetry::TraceContext::current();
        let mut ids = Vec::with_capacity(chunk.len());
        let mut slots = Vec::with_capacity(chunk.len());
        let mut bufs = Vec::with_capacity(chunk.len());
        for args in chunk {
            let id = self.inner.next_rpc_id.fetch_add(1, Ordering::Relaxed);
            let slot = CallSlot::new();
            self.inner.pending.insert(id, slot.clone());
            let mut buf = self
                .inner
                .pool
                .take(8 + 1 + rpc::REQ_HEADER_LEN + method.len() + args.len() + 17);
            buf.extend_from_slice(&[0u8; 8]); // sequence header, filled at send
            buf.push(FT_RPC_REQ);
            rpc::encode_request_into(&mut buf, id, method, args, ctx);
            ids.push(id);
            slots.push(slot);
            bufs.push(buf);
        }
        if let Err(e) = send_pooled_frames(&self.inner, &mut bufs) {
            for id in &ids {
                self.inner.pending.remove(*id);
            }
            return Err(e);
        }
        // Same close race as `call_pipelined`: re-check after the inserts.
        if self.inner.closed.load(Ordering::SeqCst) {
            for (id, slot) in ids.iter().zip(&slots) {
                self.inner.pending.remove(*id);
                slot.complete(Err(SwitchboardError::Closed));
            }
        }
        psf_telemetry::gauge!("psf.switchboard.pipeline.inflight").add(chunk.len() as i64);
        Ok(ids
            .into_iter()
            .zip(slots)
            .map(|(id, slot)| PendingCall {
                inner: self.inner.clone(),
                slot,
                id,
                start,
                default_timeout: self.inner.config.rpc_timeout,
                claimed: false,
            })
            .collect())
    }

    /// Invoke `method` once per element of `batch`, keeping up to `window`
    /// requests in flight. Results are returned in batch order; individual
    /// failures surface per element.
    pub fn call_many(
        &self,
        method: &str,
        batch: &[&[u8]],
        window: usize,
    ) -> Vec<Result<Vec<u8>, SwitchboardError>> {
        let window = window.max(1);
        let mut results = Vec::with_capacity(batch.len());
        let mut in_flight = std::collections::VecDeque::with_capacity(window);
        let mut next = 0;
        while next < batch.len() {
            if in_flight.len() == window {
                // Drain half the window with blocking waits: responses
                // arrive in issue order as a coalesced burst, so the first
                // wait absorbs the scheduler round trip and the rest
                // mostly return instantly. The refill below then
                // re-issues the freed half as one coalesced write,
                // keeping burst sizes stable along the whole loop instead
                // of degenerating to one-frame chunks.
                for _ in 0..window.div_ceil(2) {
                    let call: PendingCall = in_flight.pop_front().expect("non-empty window");
                    results.push(call.wait());
                }
                while in_flight.front().is_some_and(PendingCall::is_complete) {
                    let call: PendingCall = in_flight.pop_front().expect("checked front");
                    results.push(call.wait());
                }
            }
            let room = window - in_flight.len();
            let chunk = &batch[next..(next + room).min(batch.len())];
            match self.call_pipelined_batch(method, chunk) {
                Ok(calls) => in_flight.extend(calls),
                Err(e) => {
                    // Keep batch order: earlier in-flight results precede
                    // the failed chunk's errors (the chunk failed before
                    // any of its frames hit the wire).
                    for call in in_flight.drain(..) {
                        results.push(call.wait());
                    }
                    for _ in chunk {
                        results.push(Err(e.clone()));
                    }
                }
            }
            next += chunk.len();
        }
        for call in in_flight {
            results.push(call.wait());
        }
        results
    }

    /// Send one heartbeat now (used when the automatic thread is
    /// disabled).
    pub fn send_heartbeat(&self) -> Result<(), SwitchboardError> {
        send_heartbeat_frame(&self.inner)
    }

    /// Offer fresh credentials to the peer to re-validate this endpoint
    /// after a revocation. Returns whether the peer accepted.
    pub fn offer_revalidation(
        &self,
        credentials: &[psf_drbac::SignedDelegation],
        timeout: Duration,
    ) -> Result<bool, SwitchboardError> {
        let (tx, rx) = bounded(1);
        self.inner.reauth_waiters.lock().push(tx);
        let body = wire::encode_credentials(credentials);
        send_frame(&self.inner, FT_REAUTH_OFFER, &[&body])?;
        rx.recv_timeout(timeout)
            .map_err(|_| SwitchboardError::Timeout)
    }

    /// Register a callback fired exactly once when this endpoint dies —
    /// local close, peer close, transport loss, or protocol failure. If
    /// the channel is already closed, the callback fires immediately.
    /// Supervisors use this as the channel-death signal that triggers
    /// failover without polling.
    pub fn on_close<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if self.inner.closed.load(Ordering::SeqCst) {
            f();
        } else {
            self.inner.close_watchers.lock().push(Box::new(f));
        }
    }

    /// Close the channel, notifying the peer.
    pub fn close(&self) {
        if !self.inner.closed.swap(true, Ordering::SeqCst) {
            let _ = send_frame(&self.inner, FT_CLOSE, &[]);
            mark_closed(&self.inner);
        }
    }

    fn check_traffic_allowed(&self) -> Result<(), SwitchboardError> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(SwitchboardError::Closed);
        }
        // Continuous authorization: our monitor watches the peer.
        let mut monitor = self.inner.monitor.lock();
        if let Some(m) = monitor.as_mut() {
            if let Some(id) = m.refusal() {
                // Re-validate via the admission certificate, checker-only:
                // the independent checker replays the certificate against
                // live registry/revocation state — no repository access,
                // no proof search. One shot per invalidation; the audited
                // verdict carries the certificate digest. If the
                // certificate still replays (the revocation did not concern
                // the admitted chain), trust holds and traffic continues.
                if m.take_recheck() {
                    if let (Some(auth), Some(cert)) = (&self.inner.authorizer, m.certificate()) {
                        psf_telemetry::counter!("psf.swbd.authz.cert_rechecks").inc();
                        if auth.recheck_certificate(&cert).is_ok() {
                            return Ok(());
                        }
                    }
                }
                *self.inner.status.write() = ChannelStatus::RevalidationRequired(id.clone());
                psf_telemetry::counter!("psf.swbd.authz.refused").inc();
                psf_telemetry::event(
                    "psf.swbd",
                    "authz.refused",
                    vec![("credential", id.clone())],
                );
                return Err(SwitchboardError::RevalidationRequired(id));
            }
        }
        Ok(())
    }
}

impl Drop for Channel {
    fn drop(&mut self) {
        self.close();
    }
}

/// A request already on the wire whose response has not been claimed.
/// Obtained from [`Channel::call_pipelined`]; consumed by
/// [`PendingCall::wait`] / [`PendingCall::wait_timeout`]. Dropping it
/// abandons the call (a late response is discarded).
pub struct PendingCall {
    inner: Arc<ChannelInner>,
    slot: Arc<CallSlot>,
    id: u64,
    start: Instant,
    default_timeout: Duration,
    claimed: bool,
}

impl PendingCall {
    /// Whether the response has already arrived, i.e. a subsequent
    /// [`wait`](PendingCall::wait) will return without blocking.
    pub fn is_complete(&self) -> bool {
        self.slot.result.lock().is_some()
    }

    /// Await the response with the channel's configured RPC timeout.
    pub fn wait(self) -> Result<Vec<u8>, SwitchboardError> {
        let timeout = self.default_timeout;
        self.wait_timeout(timeout)
    }

    /// Await the response; the timeout is measured from issue time.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Vec<u8>, SwitchboardError> {
        self.claimed = true;
        psf_telemetry::gauge!("psf.switchboard.pipeline.inflight").add(-1);
        match self.slot.wait_deadline(self.start + timeout) {
            Some(result) => {
                psf_telemetry::counter!("psf.swbd.rpc.calls").inc();
                psf_telemetry::histogram!("psf.swbd.rpc.us").record_duration(self.start.elapsed());
                result
            }
            None => {
                psf_telemetry::counter!("psf.swbd.rpc.timeouts").inc();
                self.inner.pending.remove(self.id);
                if self.inner.closed.load(Ordering::SeqCst) {
                    Err(SwitchboardError::Closed)
                } else {
                    Err(SwitchboardError::Timeout)
                }
            }
        }
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        if !self.claimed {
            self.inner.pending.remove(self.id);
            psf_telemetry::gauge!("psf.switchboard.pipeline.inflight").add(-1);
        }
    }
}

// ------------------------------------------------------------ framing --

fn seal_nonce(dir: u8, seq: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[0] = dir;
    n[4..12].copy_from_slice(&seq.to_le_bytes());
    n
}

/// Stage `ft || body parts` into a pooled, header-reserved buffer and
/// transmit it.
fn send_frame(inner: &Arc<ChannelInner>, ft: u8, parts: &[&[u8]]) -> Result<(), SwitchboardError> {
    if inner.closed.load(Ordering::SeqCst) && ft != FT_CLOSE {
        return Err(SwitchboardError::Closed);
    }
    let body_len: usize = parts.iter().map(|p| p.len()).sum();
    let mut buf = inner.pool.take(8 + 1 + body_len + 16);
    buf.extend_from_slice(&[0u8; 8]); // sequence header, filled at send
    buf.push(ft);
    for part in parts {
        buf.extend_from_slice(part);
    }
    send_pooled_frame(inner, buf)
}

/// Transmit an assembled frame: `buf` holds `zeros(8) || ft || body`. The
/// 8-byte header receives the sequence number and secure mode seals the
/// payload **in place** (tag appended into the same buffer), so the only
/// allocation on a steady-state send is none at all — the buffer came
/// from the pool and returns to it on drop.
fn send_pooled_frame(
    inner: &Arc<ChannelInner>,
    mut buf: PooledBuf,
) -> Result<(), SwitchboardError> {
    // Sequence allocation and transmission must be atomic together: the
    // receiver enforces strictly increasing sequence numbers (replay
    // rejection), so a frame numbered later must never hit the wire
    // earlier. The sender mutex provides that ordering — the fetch_add
    // itself can be Relaxed because it only ever runs under the lock.
    let mut sender = inner.sender.lock();
    let seq = inner.send_seq.fetch_add(1, Ordering::Relaxed);
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    if let Mode::Secure { send, send_dir, .. } = &inner.mode {
        let nonce = seal_nonce(*send_dir, seq);
        send.seal_in_place(&nonce, b"swbd-record", &mut buf, 8);
    }
    // Count before transmitting (still under the sender lock) so a peer
    // that observes the frame — and anything downstream of it — also
    // observes the updated counters; rolled back on transport failure.
    inner.frames_sent.fetch_add(1, Ordering::Relaxed);
    inner
        .bytes_sent
        .fetch_add(buf.len() as u64, Ordering::Relaxed);
    psf_telemetry::counter!("psf.swbd.frames.sent").inc();
    psf_telemetry::counter!("psf.swbd.bytes.sent").add(buf.len() as u64);
    psf_telemetry::counter!("psf.switchboard.bytes.tx").add(buf.len() as u64);
    if let Err(e) = sender.send(&buf) {
        inner.frames_sent.fetch_sub(1, Ordering::Relaxed);
        inner
            .bytes_sent
            .fetch_sub(buf.len() as u64, Ordering::Relaxed);
        return Err(e.into());
    }
    Ok(())
}

/// Multi-frame variant of [`send_pooled_frame`]: sequence numbers for the
/// whole group are allocated contiguously under a single sender-lock
/// acquisition, each frame is sealed in place, and the group leaves in
/// one coalesced transport write.
pub(crate) fn send_pooled_frames(
    inner: &Arc<ChannelInner>,
    bufs: &mut [PooledBuf],
) -> Result<(), SwitchboardError> {
    let mut sender = inner.sender.lock();
    let mut total = 0u64;
    for buf in bufs.iter_mut() {
        // Relaxed: see `send_pooled_frame` — ordered by the sender mutex.
        let seq = inner.send_seq.fetch_add(1, Ordering::Relaxed);
        buf[..8].copy_from_slice(&seq.to_le_bytes());
        if let Mode::Secure { send, send_dir, .. } = &inner.mode {
            let nonce = seal_nonce(*send_dir, seq);
            send.seal_in_place(&nonce, b"swbd-record", buf, 8);
        }
        total += buf.len() as u64;
    }
    inner
        .frames_sent
        .fetch_add(bufs.len() as u64, Ordering::Relaxed);
    inner.bytes_sent.fetch_add(total, Ordering::Relaxed);
    psf_telemetry::counter!("psf.swbd.frames.sent").add(bufs.len() as u64);
    psf_telemetry::counter!("psf.swbd.bytes.sent").add(total);
    psf_telemetry::counter!("psf.switchboard.bytes.tx").add(total);
    let frames: Vec<&[u8]> = bufs.iter().map(|b| &b[..]).collect();
    if let Err(e) = sender.send_many(&frames) {
        inner
            .frames_sent
            .fetch_sub(bufs.len() as u64, Ordering::Relaxed);
        inner.bytes_sent.fetch_sub(total, Ordering::Relaxed);
        return Err(e.into());
    }
    Ok(())
}

pub(crate) fn send_heartbeat_frame(inner: &Arc<ChannelInner>) -> Result<(), SwitchboardError> {
    // Relaxed: the counter only needs unique, roughly-monotonic values;
    // wire ordering is enforced by the record layer's sequence numbers,
    // not by this fetch_add.
    let hb_seq = inner.hb_send_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let t_us = inner.start.elapsed().as_micros() as u64;
    send_frame(
        inner,
        FT_HEARTBEAT,
        &[&hb_seq.to_le_bytes(), &t_us.to_le_bytes()],
    )
}

/// Flush a connection's buffered outbound bytes without blocking — the
/// reactor calls this on writable edges. Returns whether backlog remains.
pub(crate) fn flush_outbound(inner: &Arc<ChannelInner>) -> std::io::Result<bool> {
    inner.sender.lock().flush_backlog()
}

pub(crate) fn mark_closed(inner: &Arc<ChannelInner>) {
    inner.closed.store(true, Ordering::SeqCst);
    *inner.status.write() = ChannelStatus::Closed;
    // Retire the reactor registration (fd, timers, heartbeat group
    // membership). Taken exactly once, so the shard's own close path
    // calling back into `mark_closed` terminates.
    if let Some(reg) = inner.reactor_reg.lock().take() {
        crate::reactor::deregister(reg);
    }
    // Fail all pending RPCs promptly — in-flight callers must not idle out
    // their full RPC timeout when the channel dies under them.
    for slot in inner.pending.drain() {
        slot.complete(Err(SwitchboardError::Closed));
    }
    // Notify death watchers (drained, so double-close fires them once).
    let watchers: Vec<CloseWatcher> = inner.close_watchers.lock().drain(..).collect();
    for w in watchers {
        w();
    }
}

// ------------------------------------------------------------- reader --

fn reader_loop(inner: Arc<ChannelInner>, mut receiver: Box<dyn FrameReceiver>) {
    // Take a whole burst per wakeup and stage the burst's RPC responses
    // for one coalesced write: with a pipelined peer this keeps every hop
    // of the request/response loop batch-coherent (one scheduler round
    // trip per window, not per call).
    while let Ok(batch) = receiver.recv_many() {
        let mut responses: Vec<PooledBuf> = Vec::with_capacity(batch.len());
        let mut alive = true;
        for frame in batch {
            if !process_frame(&inner, frame, &mut responses) {
                alive = false;
                break;
            }
        }
        if !responses.is_empty() && send_pooled_frames(&inner, &mut responses).is_err() {
            break;
        }
        if !alive {
            break;
        }
    }
    mark_closed(&inner);
}

/// Handle one wire frame. Returns `false` when the channel must close
/// (protocol violation, forged record, or an orderly `FT_CLOSE`). RPC
/// responses are staged into `responses` rather than sent, so a burst of
/// requests answers with one transport write.
pub(crate) fn process_frame(
    inner: &Arc<ChannelInner>,
    mut frame: Vec<u8>,
    responses: &mut Vec<PooledBuf>,
) -> bool {
    if frame.len() < 8 {
        return false; // protocol violation
    }
    inner.frames_received.fetch_add(1, Ordering::Relaxed);
    inner
        .bytes_received
        .fetch_add(frame.len() as u64, Ordering::Relaxed);
    psf_telemetry::counter!("psf.switchboard.bytes.rx").add(frame.len() as u64);
    let seq = u64::from_le_bytes(frame[..8].try_into().unwrap());
    // Relaxed: `recv_seq` is only ever touched by the single receive
    // context (the reader thread, or the one reactor shard this
    // connection is pinned to), so there is no concurrent access to
    // order against.
    let expected = inner.recv_seq.load(Ordering::Relaxed);
    if seq != expected {
        // Replay or reorder: hard protocol failure.
        return false;
    }
    inner.recv_seq.store(expected + 1, Ordering::Relaxed);

    // Borrow (plain) or decrypt in place (secure): either way the
    // inner frame is a slice of the transport buffer — no copy.
    let inner_frame: &[u8] = match &inner.mode {
        Mode::Plain => &frame[8..],
        Mode::Secure { recv, recv_dir, .. } => {
            let nonce = seal_nonce(*recv_dir, seq);
            match recv.open_in_place(&nonce, b"swbd-record", &mut frame[8..]) {
                Ok(n) => &frame[8..8 + n],
                Err(_) => return false, // forged/replayed record
            }
        }
    };
    if inner_frame.is_empty() {
        return false;
    }
    inner
        .last_heard_us
        .store(inner.start.elapsed().as_micros() as u64, Ordering::Relaxed);

    let (ft, body) = (inner_frame[0], &inner_frame[1..]);
    match ft {
        FT_RPC_REQ => handle_request(inner, body, responses),
        FT_RPC_RESP => handle_response(inner, body),
        FT_HEARTBEAT => handle_heartbeat(inner, body),
        FT_HB_ACK => handle_hb_ack(inner, body),
        FT_REAUTH_OFFER => handle_reauth_offer(inner, body),
        FT_REAUTH_RESULT => {
            let ok = body.first() == Some(&1);
            for tx in inner.reauth_waiters.lock().drain(..) {
                let _ = tx.send(ok);
            }
        }
        FT_CLOSE => return false,
        _ => return false,
    }
    true
}

fn handle_request(inner: &Arc<ChannelInner>, body: &[u8], responses: &mut Vec<PooledBuf>) {
    let Some((id, ctx, method, args)) = rpc::decode_request(body) else {
        return;
    };
    // Join the caller's causal tree: the dispatch span (and anything the
    // handler opens under it — proof searches, view selection) is parented
    // under the client's call span carried in the request envelope.
    // Untraced requests (all-zero header) skip span bookkeeping entirely.
    let mut dispatch = ctx.map(|c| psf_telemetry::span_with_context("psf.swbd", "rpc.dispatch", c));
    if let Some(s) = dispatch.as_mut() {
        s.field("method", method);
    }
    // Continuous authorization: refuse service while the peer's proof is
    // invalid.
    let refusal = inner.monitor.lock().as_ref().and_then(|m| m.refusal());
    let (status, payload) = if let Some(why) = refusal {
        *inner.status.write() = ChannelStatus::RevalidationRequired(why);
        psf_telemetry::counter!("psf.swbd.authz.refused").inc();
        (RpcStatus::RevalidationRequired, Vec::new())
    } else {
        let handler = inner.handlers.read().get(method).cloned();
        match handler {
            Some(h) => match h(args) {
                Ok(out) => (RpcStatus::Ok, out),
                Err(msg) => (RpcStatus::Error, msg.into_bytes()),
            },
            None => {
                let fallback = inner.default_handler.read().clone();
                match fallback {
                    Some(h) => match h(method, args) {
                        Ok(out) => (RpcStatus::Ok, out),
                        Err(msg) => (RpcStatus::Error, msg.into_bytes()),
                    },
                    None => (RpcStatus::NoSuchMethod, method.as_bytes().to_vec()),
                }
            }
        }
    };
    // Response assembled directly into a pooled wire frame — no
    // intermediate encode allocation — and staged so the reader answers a
    // whole request burst with one coalesced write.
    let mut buf = inner.pool.take(8 + 1 + 9 + payload.len() + 16);
    buf.extend_from_slice(&[0u8; 8]); // sequence header, filled at send
    buf.push(FT_RPC_RESP);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.push(status.to_u8());
    buf.extend_from_slice(&payload);
    responses.push(buf);
}

fn handle_response(inner: &Arc<ChannelInner>, body: &[u8]) {
    let Some((id, status, payload)) = rpc::decode_response(body) else {
        return;
    };
    if let Some(slot) = inner.pending.remove(id) {
        let result = match status {
            RpcStatus::Ok => Ok(payload.to_vec()),
            RpcStatus::Error => Err(SwitchboardError::Remote(
                String::from_utf8_lossy(payload).into_owned(),
            )),
            RpcStatus::RevalidationRequired => Err(SwitchboardError::RevalidationRequired(
                "peer refused service pending revalidation".into(),
            )),
            RpcStatus::NoSuchMethod => Err(SwitchboardError::Remote(format!(
                "no such method: {}",
                String::from_utf8_lossy(payload)
            ))),
        };
        slot.complete(result);
    }
}

fn handle_heartbeat(inner: &Arc<ChannelInner>, body: &[u8]) {
    if body.len() < 16 {
        return;
    }
    let hb_seq = u64::from_le_bytes(body[..8].try_into().unwrap());
    // Replay resistance: heartbeat sequence numbers must strictly
    // increase (the record layer already rejects replays; this guards the
    // semantic layer too). Relaxed: like `recv_seq`, only the single
    // receive context touches `hb_recv_seq`.
    let last = inner.hb_recv_seq.load(Ordering::Relaxed);
    if hb_seq <= last {
        // Surface the rejection so chaos runs can assert on it instead
        // of the drop being silent.
        psf_telemetry::counter!("psf.switchboard.heartbeat.replays_rejected").inc();
        return;
    }
    inner.hb_recv_seq.store(hb_seq, Ordering::Relaxed);
    inner.heartbeats_received.fetch_add(1, Ordering::Relaxed);
    psf_telemetry::counter!("psf.swbd.hb.received").inc();
    // Echo for RTT measurement.
    let _ = send_frame(inner, FT_HB_ACK, &[body]);
}

fn handle_hb_ack(inner: &Arc<ChannelInner>, body: &[u8]) {
    if body.len() < 16 {
        return;
    }
    let t_us = u64::from_le_bytes(body[8..16].try_into().unwrap());
    let now_us = inner.start.elapsed().as_micros() as u64;
    let rtt = now_us.saturating_sub(t_us).max(1);
    inner.last_rtt_us.store(rtt, Ordering::Relaxed);
    psf_telemetry::histogram!("psf.swbd.hb.rtt.us").record(rtt);
}

fn handle_reauth_offer(inner: &Arc<ChannelInner>, body: &[u8]) {
    let ok = (|| -> bool {
        let Ok(creds) = wire::decode_credentials(body) else {
            return false;
        };
        let (Some(authorizer), Some(peer)) = (&inner.authorizer, &inner.peer) else {
            return false;
        };
        match authorizer.authorize(&peer.name, &peer.key, &creds) {
            Ok(new_monitor) => {
                *inner.monitor.lock() = Some(new_monitor);
                *inner.status.write() = ChannelStatus::Healthy;
                true
            }
            Err(_) => false,
        }
    })();
    // Conditional metric name: go through the registry rather than the
    // per-call-site `counter!` cache (which memoizes a single name).
    psf_telemetry::registry()
        .counter(if ok {
            "psf.swbd.reauth.accepted"
        } else {
            "psf.swbd.reauth.rejected"
        })
        .inc();
    let _ = send_frame(inner, FT_REAUTH_RESULT, &[&[ok as u8]]);
}
