//! Framed byte transports: real TCP and an in-memory pair, each split
//! into a sender and a [`Receiver`] that a reactor shard reads.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Maximum accepted frame size (16 MiB) — guards against hostile length
/// prefixes.
pub const MAX_FRAME: usize = 16 << 20;

/// Sending half of a transport.
pub trait FrameSender: Send {
    /// Send one frame.
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()>;

    /// Send a batch of frames, coalescing them into one transport push
    /// where the transport supports it (TCP writes one gathered buffer
    /// instead of a syscall pair per frame). The default forwards to
    /// [`FrameSender::send`] per frame, so wrappers that intercept `send`
    /// (fault injection) still see every frame.
    fn send_many(&mut self, frames: &[&[u8]]) -> std::io::Result<()> {
        for frame in frames {
            self.send(frame)?;
        }
        Ok(())
    }

    /// Flush bytes a nonblocking transport buffered because the socket
    /// refused them, without blocking. Returns whether unsent bytes
    /// remain queued. The reactor calls this on writable edges; senders
    /// that never buffer (the default) report none.
    fn flush_backlog(&mut self) -> std::io::Result<bool> {
        Ok(false)
    }
}

/// Receiving half of a transport, owned by this crate because a reactor
/// shard reads every receiver: a socket its poller watches, or an inbox
/// the peer's sender fills. Before the channel starts, the handshake
/// reads it with a blocking `read_frame`.
pub struct Receiver(pub(crate) Source);

pub(crate) enum Source {
    Socket(TcpStream),
    Inbox(InboxEnd),
}

/// Both sources carry the same length-prefixed byte stream, so a shard
/// reads them alike.
impl Read for Source {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Source::Socket(stream) => stream.read(buf),
            Source::Inbox(reader) => (&*reader.inbox).read(buf),
        }
    }
}

/// A bidirectional framed transport that can be split into halves.
pub trait Transport: Send {
    /// Split into independently usable send/recv halves.
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Receiver);
}

// ---------------------------------------------------------------- TCP --

/// Length-prefixed frames over a [`TcpStream`].
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap a connected stream (sets `TCP_NODELAY` for latency-sensitive
    /// RPC and heartbeats).
    pub fn new(stream: TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }
}

struct TcpSender {
    stream: TcpStream,
    /// Reused length-prefix storage for `send_many`: prefixes must
    /// outlive the gather list that borrows them.
    prefixes: Vec<[u8; 4]>,
    /// Bytes the nonblocking socket refused, queued in wire order. The
    /// reactor flushes this on writable edges; meanwhile new sends append
    /// behind it so the byte stream never reorders.
    backlog: Vec<u8>,
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Receiver) {
        let reader = self.stream.try_clone().expect("tcp clone");
        (
            Box::new(TcpSender {
                stream: self.stream,
                prefixes: Vec::new(),
                backlog: Vec::new(),
            }),
            Receiver(Source::Socket(reader)),
        )
    }
}

/// Bound on gather-list length per `writev` — the portable `IOV_MAX`
/// floor.
const MAX_IOV: usize = 1024;

/// Backpressure bound on buffered-but-unsent bytes per connection. A
/// peer that stops reading long enough for this much backlog to pile up
/// gets its sends failed (and, through the heartbeat path, its channel
/// closed) instead of growing the queue without bound. One frame may
/// exceed the cap transiently — the check runs before appending — so
/// worst-case memory is `SEND_BACKLOG_CAP + MAX_FRAME` per connection.
const SEND_BACKLOG_CAP: usize = 8 << 20;

/// Send the logical concatenation of `parts` without ever blocking on
/// a full socket: bytes the kernel refuses are queued in `backlog`
/// and flushed later (next send, or the reactor's writable edge). On
/// a blocking stream (the handshake, or a pumped stream off Linux)
/// `write_vectored` itself blocks and the backlog stays empty,
/// so the send simply completes. A reactor shard therefore never parks
/// inside a send — the failure mode that could deadlock a shard when
/// both endpoints of a connection land on it.
fn send_parts(
    stream: &mut TcpStream,
    backlog: &mut Vec<u8>,
    parts: &[&[u8]],
) -> std::io::Result<()> {
    if !backlog.is_empty() {
        try_flush(stream, backlog)?;
        if !backlog.is_empty() {
            // Socket still full: queue behind the existing backlog
            // (order preserved) unless the peer has stopped draining.
            if backlog.len() > SEND_BACKLOG_CAP {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "send backlog over cap: peer not draining",
                ));
            }
            for part in parts {
                backlog.extend_from_slice(part);
            }
            return Ok(());
        }
    }
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut written = 0usize;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(parts.len().min(MAX_IOV));
    while written < total {
        slices.clear();
        let mut skip = written;
        for part in parts {
            if slices.len() == MAX_IOV {
                break;
            }
            // Also skips empty parts (skip 0 >= len 0), which some
            // kernels reject in iovecs.
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            slices.push(IoSlice::new(&part[skip..]));
            skip = 0;
        }
        match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "tcp write returned zero",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Stash the unsent tail; a writable edge flushes it.
                let mut skip = written;
                for part in parts {
                    if skip >= part.len() {
                        skip -= part.len();
                        continue;
                    }
                    backlog.extend_from_slice(&part[skip..]);
                    skip = 0;
                }
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write as much backlog as the socket accepts right now.
fn try_flush(stream: &mut TcpStream, backlog: &mut Vec<u8>) -> std::io::Result<()> {
    let mut off = 0usize;
    let result = loop {
        if off >= backlog.len() {
            break Ok(());
        }
        match stream.write(&backlog[off..]) {
            Ok(0) => {
                break Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "tcp write returned zero",
                ))
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    backlog.drain(..off);
    // An idle connection must not pin a burst-sized backlog buffer.
    if backlog.is_empty() && backlog.capacity() > 1 << 16 {
        *backlog = Vec::new();
    }
    result
}

impl FrameSender for TcpSender {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let prefix = (frame.len() as u32).to_le_bytes();
        // One gathered write: prefix + frame leave as a single syscall
        // and, with `TCP_NODELAY`, one segment.
        send_parts(&mut self.stream, &mut self.backlog, &[&prefix, frame])
    }

    fn send_many(&mut self, frames: &[&[u8]]) -> std::io::Result<()> {
        self.prefixes.clear();
        self.prefixes
            .extend(frames.iter().map(|f| (f.len() as u32).to_le_bytes()));
        let mut parts: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
        for (prefix, frame) in self.prefixes.iter().zip(frames) {
            parts.push(&prefix[..]);
            parts.push(frame);
        }
        let result = send_parts(&mut self.stream, &mut self.backlog, &parts);
        // A huge batch must not pin its prefix buffer forever.
        if self.prefixes.capacity() > 1 << 16 {
            self.prefixes = Vec::new();
        }
        result
    }

    fn flush_backlog(&mut self) -> std::io::Result<bool> {
        try_flush(&mut self.stream, &mut self.backlog)?;
        Ok(!self.backlog.is_empty())
    }
}

/// Read one length-prefixed frame from a blocking stream. Returns
/// `UnexpectedEof` when the peer is gone.
pub(crate) fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// Off Linux the poller cannot watch sockets: a thread that only reads
/// feeds the stream into an inbox. It ends at EOF, or when the channel
/// closes, since dropping the reading end shuts the socket down.
#[cfg(any(test, not(target_os = "linux")))]
pub(crate) fn pump(mut stream: TcpStream) -> std::io::Result<InboxEnd> {
    let (mut writer, mut reader) = inbox_pair();
    reader.pumped = Some(stream.try_clone()?);
    std::thread::Builder::new()
        .name("swbd-pump".into())
        .spawn(move || {
            while read_frame(&mut stream)
                .and_then(|f| writer.send(&f))
                .is_ok()
            {}
        })?;
    Ok(reader)
}

// ------------------------------------------------------------ in-mem --

/// An in-memory socket: the byte stream the peer's sender writes. Until
/// its channel registers, a read waits on the condvar (the handshake);
/// after, the first write into an empty inbox wakes the shard that reads
/// it, and an empty read is `WouldBlock`, as on an edge-triggered socket.
#[derive(Default)]
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    arrived: Condvar,
}

#[derive(Default)]
struct InboxState {
    bytes: VecDeque<u8>,
    /// Either end is gone: writes fail, and reads end at EOF.
    closed: bool,
    /// Wakes the reading shard, once registered.
    shard: Option<Box<dyn Fn() + Send>>,
    /// The shard is woken and has not yet read the inbox empty.
    woken: bool,
}

impl Inbox {
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append length-prefixed frames, as TCP carries them.
    fn write(&self, frames: &[&[u8]]) -> std::io::Result<()> {
        let mut st = self.lock();
        if st.closed {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        for frame in frames {
            st.bytes.extend((frame.len() as u32).to_le_bytes());
            st.bytes.extend(*frame);
        }
        self.wake(&mut st);
        Ok(())
    }

    /// Wake the reader: the shard, unless it is woken already, or before
    /// registration a blocked read.
    fn wake(&self, st: &mut InboxState) {
        match &st.shard {
            Some(wake) if !std::mem::replace(&mut st.woken, true) => wake(),
            Some(_) => {}
            None => self.arrived.notify_all(),
        }
    }

    /// Hand the inbox to the shard that reads it from now on.
    pub(crate) fn attach(&self, wake: Box<dyn Fn() + Send>) {
        self.lock().shard = Some(wake);
    }
}

impl Read for &Inbox {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut st = self.lock();
        while st.bytes.is_empty() && !st.closed {
            if st.shard.is_some() {
                st.woken = false;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            st = self
                .arrived
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.bytes.read(buf)
    }
}

/// One end of an inbox. Dropping either end closes it: the reader sees
/// EOF and the writer's sends fail; a pumped reader also shuts its socket
/// down, which ends the pump.
pub(crate) struct InboxEnd {
    pub(crate) inbox: Arc<Inbox>,
    /// The stream a pump thread feeds into this inbox.
    pumped: Option<TcpStream>,
}

impl Drop for InboxEnd {
    fn drop(&mut self) {
        let mut st = self.inbox.lock();
        st.closed = true;
        self.inbox.wake(&mut st);
        if let Some(stream) = &self.pumped {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn inbox_pair() -> (InboxEnd, InboxEnd) {
    let inbox = Arc::new(Inbox::default());
    let end = |inbox| InboxEnd {
        inbox,
        pumped: None,
    };
    (end(inbox.clone()), end(inbox))
}

/// In-memory transport: each direction is an inbox the sender fills and
/// the receiver's shard drains. Deterministic and fast; used by tests,
/// benches, and the netsim-backed deployments.
pub struct MemTransport(InboxEnd, InboxEnd);

impl MemTransport {
    /// Create a connected pair.
    pub fn pair() -> (MemTransport, MemTransport) {
        let ((tx_ab, rx_ab), (tx_ba, rx_ba)) = (inbox_pair(), inbox_pair());
        (MemTransport(tx_ab, rx_ba), MemTransport(tx_ba, rx_ab))
    }
}

impl Transport for MemTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Receiver) {
        (Box::new(self.0), Receiver(Source::Inbox(self.1)))
    }
}

impl FrameSender for InboxEnd {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.inbox.write(&[frame])
    }

    /// One write for the burst, so the reader takes it in one pass.
    fn send_many(&mut self, frames: &[&[u8]]) -> std::io::Result<()> {
        self.inbox.write(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pair_roundtrip() {
        let (a, b) = MemTransport::pair();
        let (mut atx, _arx) = Box::new(a).split();
        let (_btx, mut brx) = Box::new(b).split();
        atx.send(b"hello").unwrap();
        atx.send(b"world").unwrap();
        assert_eq!(read_frame(&mut brx.0).unwrap(), b"hello");
        assert_eq!(read_frame(&mut brx.0).unwrap(), b"world");
    }

    #[test]
    fn mem_eof_on_drop() {
        let (a, b) = MemTransport::pair();
        let (atx, arx) = Box::new(a).split();
        drop(atx);
        drop(arx);
        let (_btx, mut brx) = Box::new(b).split();
        assert!(read_frame(&mut brx.0).is_err());
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let t = Box::new(TcpTransport::new(s).unwrap());
            let (mut tx, mut rx) = t.split();
            let got = read_frame(&mut rx.0).unwrap();
            tx.send(&got).unwrap(); // echo
        });
        let t = Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap());
        let (mut tx, mut rx) = t.split();
        tx.send(b"ping over real tcp").unwrap();
        assert_eq!(read_frame(&mut rx.0).unwrap(), b"ping over real tcp");
        join.join().unwrap();
    }

    #[test]
    fn send_many_coalesces_into_distinct_frames() {
        // Over TCP: the gathered write must still arrive as individually
        // framed messages.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let t = Box::new(TcpTransport::new(s).unwrap());
            let (_tx, mut rx) = t.split();
            (
                read_frame(&mut rx.0).unwrap(),
                read_frame(&mut rx.0).unwrap(),
                read_frame(&mut rx.0).unwrap(),
            )
        });
        let t = Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap());
        let (mut tx, _rx) = t.split();
        tx.send_many(&[b"one", b"", b"three"]).unwrap();
        let (a, b, c) = join.join().unwrap();
        assert_eq!(
            (&a[..], &b[..], &c[..]),
            (&b"one"[..], &b""[..], &b"three"[..])
        );

        // Over the in-mem pair: default per-frame forwarding.
        let (ma, mb) = MemTransport::pair();
        let (mut mtx, _) = Box::new(ma).split();
        let (_, mut mrx) = Box::new(mb).split();
        mtx.send_many(&[b"x", b"y"]).unwrap();
        assert_eq!(read_frame(&mut mrx.0).unwrap(), b"x");
        assert_eq!(read_frame(&mut mrx.0).unwrap(), b"y");
    }

    #[test]
    fn nonblocking_sender_backlogs_instead_of_blocking() {
        // Regression for the reactor-shard deadlock: a nonblocking sender
        // whose peer stops reading must (a) return instead of parking in
        // an unbounded writable-poll, (b) fail sends once the backlog cap
        // is hit, and (c) deliver every accepted byte intact once the
        // peer drains and the backlog is flushed.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || listener.accept().unwrap().0);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nonblocking(true).unwrap();
        let peer = peer.join().unwrap(); // accepted but never read from (yet)
        let t = Box::new(TcpTransport::new(stream).unwrap());
        let (mut tx, _rx) = t.split();

        // Flood 1 MiB frames. The socket buffers absorb a few, the
        // backlog absorbs SEND_BACKLOG_CAP more, then sends must fail.
        // (With the old blocking poll this loop would hang forever.)
        let frame_len = 1 << 20;
        let mut accepted = 0usize;
        let mut overflowed = false;
        for i in 0..64usize {
            let frame = vec![i as u8; frame_len];
            match tx.send(&frame) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "{e}");
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed, "backlog must be bounded: 64 MiB all accepted");
        assert!(accepted >= 8, "cap kicked in below SEND_BACKLOG_CAP");

        // Peer drains; flushing writable edges empties the backlog and
        // every accepted frame arrives in order, bytes intact.
        let reader = std::thread::spawn(move || {
            let t = Box::new(TcpTransport::new(peer).unwrap());
            let (_tx, mut rx) = t.split();
            for i in 0..accepted {
                let frame = read_frame(&mut rx.0).unwrap();
                assert_eq!(frame.len(), frame_len, "frame {i} truncated");
                assert!(
                    frame.iter().all(|b| *b == i as u8),
                    "frame {i} corrupted in backlog handoff"
                );
            }
        });
        let flush_start = std::time::Instant::now();
        while tx.flush_backlog().unwrap() {
            assert!(
                flush_start.elapsed() < std::time::Duration::from_secs(30),
                "backlog never drained"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        reader.join().unwrap();

        // With the backlog drained the sender accepts traffic again.
        tx.send(b"recovered").unwrap();
    }

    #[test]
    fn tcp_rejects_oversized_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Hostile 1 GiB length prefix.
            use std::io::Write;
            s.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        });
        let t = Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap());
        let (_tx, mut rx) = t.split();
        assert!(read_frame(&mut rx.0).is_err());
        join.join().unwrap();
    }
}
