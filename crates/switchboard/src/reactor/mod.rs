//! The channel engine: reactor shards + timer-wheel heartbeats, on every
//! target.
//!
//! A fixed set of shard threads (one per core, capped at 8) services
//! every channel: each shard owns a poller (`sys::Poller`), the channels
//! hash-pinned to it, and a hashed [timer wheel](wheel) driving
//! heartbeats. Per-channel steady-state cost is one table entry plus a
//! timer-slot share — no channel owns a thread.
//!
//! * **Sharding** — a connection's token picks its shard once at
//!   registration; all its readiness handling, timer state, and
//!   heartbeat grouping live on that shard. The hot path never takes a
//!   cross-shard lock (the only shared mutable state is each shard's
//!   command queue, touched at registration/close and by inbox wakes).
//! * **Edge-triggered reads, budgeted** — shards read until
//!   `EWOULDBLOCK` or a per-pass byte budget, re-framing the byte stream
//!   and feeding complete records to the existing `process_frame` path
//!   (pooled buffers, in-place AEAD open). A connection that exhausts
//!   its budget is requeued for the next loop pass instead of
//!   monopolizing the shard, so one fast sender cannot starve its
//!   neighbours or delay timer fires. Responses staged by a burst leave
//!   in one vectored write.
//! * **Nonblocking writes** — the shard thread never parks inside a
//!   send: bytes a full socket refuses are queued in the sender's
//!   bounded backlog and flushed on the connection's `EPOLLOUT` edge.
//!   (A blocking send here would let one stalled peer freeze every
//!   connection on the shard — and deadlock outright when both ends of
//!   a connection share a shard.) A peer that stops draining past the
//!   backlog cap fails sends, which closes the channel.
//! * **Heartbeat coalescing** — channels sharing a peer host and
//!   interval join one *group* with a single wheel entry (capped at
//!   [`HB_GROUP_CAP`] members), so 100k channels to the same host cost
//!   hundreds of timer fires per interval, not 100k. Group phases are
//!   hash-staggered to avoid synchronized bursts.
//! * **Platform boundary** — `sys` is the one module that knows the
//!   platform and holds every raw syscall (the one place outside
//!   `crates/crypto` that CI's unsafe_code audit permits); everything
//!   here is safe Rust over its owning types.
//!
//! Every channel is a shard source: a socket the poller watches (Linux
//! TCP) or an inbox its peer's sender fills and wakes the shard for
//! (in-memory pairs, and TCP off Linux, where a pump thread that only
//! reads feeds the inbox). So frames are dispatched on a shard on every
//! target. Handlers registered as inline run right there and must not
//! wait; a blocking handler's request is queued to a per-channel drain
//! thread ([`Channel::register_blocking_handler`](crate::Channel::register_blocking_handler)),
//! and a shard thread that waits on an RPC response fails at once.

#[allow(unsafe_code)]
pub(crate) mod sys;
pub mod wheel;

use crate::channel::{
    flush_outbound, mark_closed, process_frame, send_heartbeat_frame, send_pooled_frames,
    ChannelInner,
};
use crate::pool::PooledBuf;
use crate::transport::{Source, MAX_FRAME};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Read;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};
use wheel::{TimerId, TimerWheel, DEFAULT_SLOTS, DEFAULT_TICK};

pub use sys::raise_nofile_limit;

/// Heartbeat groups stop absorbing members past this size, bounding the
/// work (and the wire burst) a single timer fire can generate.
pub const HB_GROUP_CAP: usize = 256;

/// Per-shard read buffer: one edge-triggered drain reads in chunks of
/// this size into the connection's reassembly buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Fairness bound: bytes one connection may consume per service pass. A
/// peer streaming fast enough to keep its socket buffer non-empty gets
/// requeued for the next loop pass once it burns this much, so other
/// connections and the timer wheel keep their latency.
const READ_PASS_BUDGET: usize = 4 * READ_CHUNK;

/// A channel's link back to its reactor shard, stored on `ChannelInner`
/// and redeemed (once) at close to retire the connection and its timers.
pub(crate) struct Registration {
    shard: usize,
    token: u64,
}

enum Command {
    Register {
        token: u64,
        source: Source,
        inner: Arc<ChannelInner>,
        /// Heartbeat interval and the peer host whose group it joins.
        heartbeat: Option<(Duration, Option<IpAddr>)>,
    },
    /// An inbox has frames (or its EOF) for the shard to take.
    Readable(u64),
    Close(u64),
}

struct ShardHandle {
    queue: Mutex<Vec<Command>>,
    wake: sys::Waker,
}

impl ShardHandle {
    fn push(&self, cmd: Command) {
        self.queue.lock().push(cmd);
        self.wake.wake();
    }
}

thread_local! {
    static ON_SHARD: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a reactor shard, which must never wait.
pub(crate) fn on_shard() -> bool {
    ON_SHARD.with(Cell::get)
}

struct Reactor {
    shards: Vec<Arc<ShardHandle>>,
}

static REACTOR: OnceLock<Reactor> = OnceLock::new();
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

fn global() -> &'static Reactor {
    REACTOR.get_or_init(|| {
        let count = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        psf_telemetry::gauge!("psf.switchboard.reactor.shards").set(count as i64);
        let mut shards = Vec::with_capacity(count);
        for id in 0..count {
            let (poller, wake) = sys::Poller::new().expect("reactor poller");
            let handle = Arc::new(ShardHandle {
                queue: Mutex::new(Vec::new()),
                wake,
            });
            let thread_handle = handle.clone();
            std::thread::Builder::new()
                .name(format!("swbd-reactor-{id}"))
                .spawn(move || shard_loop(thread_handle, poller))
                .expect("spawn reactor shard");
            shards.push(handle);
        }
        Reactor { shards }
    })
}

/// Number of reactor shards (spins the reactor up on first call).
pub fn shard_count() -> usize {
    global().shards.len()
}

/// Hand a connected (handshake-complete) channel's receiver to a shard,
/// which reads it and drives its heartbeats from now on. The channel
/// owns no thread, except off Linux, where a TCP stream gets a pump.
pub(crate) fn register_connection(
    source: Source,
    inner: &Arc<ChannelInner>,
    heartbeat: Option<Duration>,
) {
    let (source, peer) = match source {
        Source::Socket(stream) => {
            let peer = stream.peer_addr().ok().map(|a| a.ip());
            // The file description is shared, so nonblocking covers the
            // sender half too: its writes backlog instead of blocking.
            #[cfg(target_os = "linux")]
            let source = stream
                .set_nonblocking(true)
                .map(|()| Source::Socket(stream));
            #[cfg(not(target_os = "linux"))]
            let source = crate::transport::pump(stream).map(Source::Inbox);
            match source {
                Ok(source) => (source, peer),
                Err(_) => return mark_closed(inner),
            }
        }
        inbox => (inbox, None),
    };
    let reactor = global();
    // Unique-id allocation only: Relaxed suffices, nothing is published
    // under this counter.
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let idx = (token % reactor.shards.len() as u64) as usize;
    *inner.reactor_reg.lock() = Some(Registration { shard: idx, token });
    let shard = &reactor.shards[idx];
    if let Source::Inbox(reader) = &source {
        // A wake that beats `Register` finds no connection; the service
        // at registration takes what it announced.
        let wake = shard.clone();
        reader
            .inbox
            .attach(Box::new(move || wake.push(Command::Readable(token))));
    }
    shard.push(Command::Register {
        token,
        source,
        inner: inner.clone(),
        heartbeat: heartbeat.map(|interval| (interval, peer)),
    });
}

/// Retire a registration: drop the connection from its shard's tables,
/// deregister the fd, and cancel heartbeat membership. Idempotent by
/// construction — the caller obtained `reg` by `take`ing it.
pub(crate) fn deregister(reg: Registration) {
    if let Some(reactor) = REACTOR.get() {
        reactor.shards[reg.shard].push(Command::Close(reg.token));
    }
}

// ------------------------------------------------------- shard state --

#[derive(Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    /// TCP channels sharing a peer host and interval coalesce.
    Host {
        ip: IpAddr,
        interval_us: u64,
        bucket: u64,
    },
    /// Channels with no peer host (in-memory) keep private timers.
    Solo { token: u64 },
}

struct Group {
    timer: TimerId,
    interval: Duration,
    members: Vec<(u64, Weak<ChannelInner>)>,
}

struct Conn {
    source: Source,
    inner: Arc<ChannelInner>,
    /// Reassembly buffer: bytes read past the last complete frame.
    partial: Vec<u8>,
}

struct ShardState {
    poller: sys::Poller,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel<GroupKey>,
    groups: HashMap<GroupKey, Group>,
    /// Currently-filling bucket index per (peer, interval), so groups
    /// fill to [`HB_GROUP_CAP`] before a new one opens.
    group_cursor: HashMap<(IpAddr, u64), u64>,
    /// token → its heartbeat group, for cancel-on-close.
    hb_index: HashMap<u64, GroupKey>,
    scratch: Vec<u8>,
}

fn shard_loop(handle: Arc<ShardHandle>, poller: sys::Poller) {
    ON_SHARD.with(|on| on.set(true));
    let mut st = ShardState {
        poller,
        conns: HashMap::new(),
        wheel: TimerWheel::new(DEFAULT_SLOTS, DEFAULT_TICK, Instant::now()),
        groups: HashMap::new(),
        group_cursor: HashMap::new(),
        hb_index: HashMap::new(),
        scratch: vec![0u8; READ_CHUNK],
    };
    let mut events: Vec<(u64, u32)> = Vec::with_capacity(1024);
    let mut fired: Vec<GroupKey> = Vec::new();
    // Connections that exhausted their read budget last pass: their
    // sockets hold more data but (being edge-triggered) will produce no
    // new edge for it, so the loop must revisit them itself.
    let mut again: Vec<u64> = Vec::new();
    loop {
        let timeout_ms = if !again.is_empty() {
            0 // budget-paused connections have data waiting right now
        } else {
            match st.wheel.next_deadline() {
                None => -1,
                Some(deadline) => {
                    let now = Instant::now();
                    if deadline <= now {
                        0
                    } else {
                        // +1 rounds up so we never wake a hair early and spin.
                        (deadline.duration_since(now).as_millis().min(60_000) as i32) + 1
                    }
                }
            }
        };
        events.clear();
        if st.poller.wait(&mut events, timeout_ms).is_err() {
            // Pathological (EBADF/ENOMEM): back off instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        psf_telemetry::counter!("psf.switchboard.reactor.wakeups").inc();
        // Commands before readiness: a `Register` must be in the table
        // before its socket's first readable edge is serviced.
        let cmds: Vec<Command> = std::mem::take(&mut *handle.queue.lock());
        for cmd in cmds {
            apply_command(&mut st, cmd, &mut again);
        }
        // Give budget-paused connections their next slice before fresh
        // events, so arrival order cannot starve a paused connection.
        let paused: Vec<u64> = std::mem::take(&mut again);
        for token in paused {
            service_conn(&mut st, token, &mut again);
        }
        for &(token, ev) in &events {
            if ev & sys::EPOLLOUT != 0 {
                // The socket drained: push out backlogged sends. Failure
                // here is a dead transport.
                if let Some(Err(_)) = st.conns.get(&token).map(|c| flush_outbound(&c.inner)) {
                    close_token(&mut st, token);
                    continue;
                }
            }
            // RDHUP without IN still needs a service pass: the drain is
            // what observes EOF and retires the connection.
            if ev & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
                service_conn(&mut st, token, &mut again);
            }
            // A pure error/hangup edge may carry no readable data at all;
            // retire the connection rather than wait for a read to fail.
            if ev & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                close_token(&mut st, token);
            }
        }
        fired.clear();
        st.wheel.advance(Instant::now(), &mut fired);
        for key in fired.drain(..) {
            fire_group(&mut st, key);
        }
    }
}

fn apply_command(st: &mut ShardState, cmd: Command, again: &mut Vec<u64>) {
    match cmd {
        Command::Register {
            token,
            source,
            inner,
            heartbeat,
        } => {
            // The channel may have been closed while this command sat in
            // the queue; registering it would leak the fd forever.
            if inner.is_closed() {
                mark_closed(&inner);
                return;
            }
            if let Source::Socket(stream) = &source {
                let edges = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLET | sys::EPOLLRDHUP;
                if st.poller.add(stream, token, edges).is_err() {
                    mark_closed(&inner);
                    return;
                }
            }
            if let Some((interval, peer)) = heartbeat {
                add_heartbeat(st, token, Arc::downgrade(&inner), interval, peer);
            }
            st.conns.insert(
                token,
                Conn {
                    source,
                    inner,
                    partial: Vec::new(),
                },
            );
            // Service what arrived before registration: bytes that raced
            // it (which also produce an edge on ADD, but draining once
            // stays independent of that timing) or frames already queued.
            service_conn(st, token, again);
        }
        Command::Readable(token) => service_conn(st, token, again),
        Command::Close(token) => close_token(st, token),
    }
}

// --------------------------------------------------------- heartbeats --

/// Deterministic per-token phase inside the interval (splitmix64), so
/// group timers spread over the interval instead of firing in lockstep.
fn stagger(token: u64, interval: Duration) -> Duration {
    let mut z = token.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Duration::from_micros(z % interval.as_micros().max(1) as u64)
}

fn add_heartbeat(
    st: &mut ShardState,
    token: u64,
    inner: Weak<ChannelInner>,
    interval: Duration,
    peer: Option<IpAddr>,
) {
    let key = match peer {
        Some(ip) => {
            let interval_us = interval.as_micros() as u64;
            let cursor = st.group_cursor.entry((ip, interval_us)).or_insert(0);
            let mut key = GroupKey::Host {
                ip,
                interval_us,
                bucket: *cursor,
            };
            if st
                .groups
                .get(&key)
                .is_some_and(|g| g.members.len() >= HB_GROUP_CAP)
            {
                *cursor += 1;
                key = GroupKey::Host {
                    ip,
                    interval_us,
                    bucket: *cursor,
                };
            }
            key
        }
        None => GroupKey::Solo { token },
    };
    st.hb_index.insert(token, key.clone());
    if let Some(group) = st.groups.get_mut(&key) {
        group.members.push((token, inner));
        return;
    }
    let timer = st
        .wheel
        .schedule_at(Instant::now() + stagger(token, interval), key.clone());
    st.groups.insert(
        key,
        Group {
            timer,
            interval,
            members: vec![(token, inner)],
        },
    );
}

fn fire_group(st: &mut ShardState, key: GroupKey) {
    let Some(mut group) = st.groups.remove(&key) else {
        return;
    };
    psf_telemetry::counter!("psf.switchboard.reactor.timer_fires").inc();
    let mut dead: Vec<u64> = Vec::new();
    group.members.retain(|(token, weak)| match weak.upgrade() {
        Some(inner) if !inner.is_closed() => {
            if send_heartbeat_frame(&inner).is_ok() {
                true
            } else {
                // Sends are nonblocking and buffered, so a failure means
                // the transport is dead or its backlog is over cap (peer
                // stopped draining). Close the channel so the member
                // leaves the wheel instead of firing forever.
                mark_closed(&inner);
                dead.push(*token);
                false
            }
        }
        _ => {
            dead.push(*token);
            false
        }
    });
    for token in dead {
        st.hb_index.remove(&token);
    }
    if group.members.is_empty() {
        return; // group dissolves; timer already consumed by firing
    }
    if group.members.len() > 1 {
        psf_telemetry::counter!("psf.switchboard.reactor.coalesced_heartbeats")
            .add(group.members.len() as u64 - 1);
    }
    group.timer = st
        .wheel
        .schedule_at(Instant::now() + group.interval, key.clone());
    st.groups.insert(key, group);
}

// ---------------------------------------------------------- data path --

fn close_token(st: &mut ShardState, token: u64) {
    if let Some(conn) = st.conns.remove(&token) {
        if let Source::Socket(stream) = &conn.source {
            let _ = st.poller.del(stream);
        }
        mark_closed(&conn.inner);
    }
    if let Some(key) = st.hb_index.remove(&token) {
        let emptied = match st.groups.get_mut(&key) {
            Some(group) => {
                group.members.retain(|(t, _)| *t != token);
                group.members.is_empty()
            }
            None => false,
        };
        if emptied {
            // Cancel-on-close: the last member leaving tears the group's
            // wheel entry down instead of letting it fire into nothing.
            if let Some(group) = st.groups.remove(&key) {
                st.wheel.cancel(group.timer);
            }
        }
    }
}

/// Outcome of one budgeted service pass over a connection.
enum ServiceOutcome {
    /// Socket drained to `EWOULDBLOCK`; the next edge re-arms it.
    Idle,
    /// Read budget exhausted with data (possibly) still queued: the
    /// caller must revisit this token without waiting for an edge.
    Again,
    /// EOF, transport error, or protocol violation: close.
    Dead,
}

fn service_conn(st: &mut ShardState, token: u64, again: &mut Vec<u64>) {
    let outcome = {
        let ShardState { conns, scratch, .. } = st;
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        drain_readable(conn, scratch)
    };
    match outcome {
        ServiceOutcome::Idle => {}
        ServiceOutcome::Again => again.push(token),
        ServiceOutcome::Dead => close_token(st, token),
    }
}

/// Edge-triggered service of a socket or an inbox alike: read until
/// `EWOULDBLOCK` or the per-pass budget, reassemble length-prefixed
/// frames, dispatch them, and flush every response the burst staged in
/// one vectored write.
fn drain_readable(conn: &mut Conn, scratch: &mut [u8]) -> ServiceOutcome {
    let mut responses: Vec<PooledBuf> = Vec::new();
    let mut consumed = 0usize;
    let mut outcome = ServiceOutcome::Idle;
    loop {
        if consumed >= READ_PASS_BUDGET {
            // Fairness cap: yield the shard to its other connections and
            // timers; the loop revisits this token next pass.
            outcome = ServiceOutcome::Again;
            break;
        }
        match conn.source.read(scratch) {
            Ok(0) => {
                outcome = ServiceOutcome::Dead;
                break;
            }
            Ok(n) => {
                consumed += n;
                conn.partial.extend_from_slice(&scratch[..n]);
                if !drain_frames(conn, &mut responses) {
                    outcome = ServiceOutcome::Dead;
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                outcome = ServiceOutcome::Dead;
                break;
            }
        }
    }
    if !responses.is_empty() && send_pooled_frames(&conn.inner, &mut responses).is_err() {
        outcome = ServiceOutcome::Dead;
    }
    outcome
}

fn drain_frames(conn: &mut Conn, responses: &mut Vec<PooledBuf>) -> bool {
    let mut off = 0usize;
    let mut ok = true;
    while conn.partial.len() - off >= 4 {
        let len = u32::from_le_bytes(conn.partial[off..off + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            ok = false;
            break;
        }
        if conn.partial.len() - off - 4 < len {
            break; // frame still arriving
        }
        let frame = conn.partial[off + 4..off + 4 + len].to_vec();
        off += 4 + len;
        if !process_frame(&conn.inner, frame, responses) {
            ok = false;
            break;
        }
    }
    if off > 0 {
        conn.partial.drain(..off);
    }
    // An idle connection must not pin a burst-sized reassembly buffer.
    if conn.partial.is_empty() && conn.partial.capacity() > READ_CHUNK {
        conn.partial = Vec::new();
    }
    ok
}

#[cfg(test)]
mod tests {
    use crate::channel::{
        Channel, ChannelConfig, ChannelStatus, Mode, FT_CLOSE, FT_HEARTBEAT, FT_RPC_REQ,
    };
    use crate::transport::{pump, Receiver, Source, Transport};
    use crate::TcpTransport;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// A plain channel over loopback TCP whose reads go through the
    /// off-Linux pump, and the raw socket of its peer.
    fn pumped_channel(heartbeat: Option<Duration>) -> (Channel, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let (tx, rx) = Box::new(TcpTransport::new(accepted).unwrap()).split();
        let Receiver(Source::Socket(stream)) = rx else {
            unreachable!("tcp splits into a socket")
        };
        let rx = Receiver(Source::Inbox(pump(stream).unwrap()));
        let config = ChannelConfig {
            heartbeat_interval: heartbeat,
            rpc_timeout: Duration::from_secs(5),
        };
        let channel = Channel::start(tx, rx, Mode::Plain, None, None, None, config);
        (channel, raw)
    }

    /// Write one plain record: `len || seq || frame type || body`.
    fn write_record(raw: &mut TcpStream, seq: u64, ft: u8, body: &[u8]) {
        let len = (8 + 1 + body.len()) as u32;
        let mut out = len.to_le_bytes().to_vec();
        out.extend_from_slice(&seq.to_le_bytes());
        out.push(ft);
        out.extend_from_slice(body);
        raw.write_all(&out).unwrap();
    }

    /// Read one plain record as `(frame type, body)`.
    fn read_record(raw: &mut TcpStream) -> (u8, Vec<u8>) {
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).unwrap();
        let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut frame).unwrap();
        (frame[8], frame[9..].to_vec())
    }

    #[test]
    fn pumped_frames_arrive_in_order() {
        let (channel, mut raw) = pumped_channel(None);
        channel.register_handler("echo", |args| Ok(args.to_vec()));
        for i in 0..64u64 {
            let req = crate::rpc::encode_request(i + 1, "echo", &i.to_le_bytes(), None);
            write_record(&mut raw, i, FT_RPC_REQ, &req);
        }
        for i in 0..64u64 {
            let (_, body) = read_record(&mut raw);
            let (id, status, payload) = crate::rpc::decode_response(&body).unwrap();
            assert_eq!((id, status), (i + 1, crate::rpc::RpcStatus::Ok));
            assert_eq!(payload, i.to_le_bytes());
        }
    }

    #[test]
    fn pumped_eof_closes_the_channel() {
        let (channel, raw) = pumped_channel(None);
        drop(raw);
        let start = Instant::now();
        while channel.status() != ChannelStatus::Closed {
            assert!(start.elapsed() < Duration::from_secs(5), "EOF never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn closing_a_pumped_channel_shuts_its_socket_down() {
        // The pump thread blocks in a read; shutting the socket down is
        // what ends it, and the peer sees the FIN.
        let (channel, mut raw) = pumped_channel(None);
        channel.close();
        assert_eq!(read_record(&mut raw).0, FT_CLOSE);
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(raw.read(&mut [0u8; 1]).unwrap(), 0, "socket left open");
    }

    #[test]
    fn pumped_channel_heartbeats_from_the_wheel() {
        let (channel, mut raw) = pumped_channel(Some(Duration::from_millis(20)));
        let heartbeats = (0..3)
            .filter(|_| read_record(&mut raw).0 == FT_HEARTBEAT)
            .count();
        assert_eq!(heartbeats, 3);
        assert!(channel.stats().heartbeats_sent >= 3);
    }
}
