//! **SwitchboardStream** — bulk transfer over a channel (the paper cites
//! "a previous version of SwitchboardStream that provides secure and
//! monitored transport" [Freudenthal et al., RESH'02]).
//!
//! A stream rides the ordinary RPC layer as a sequence of chunks, so it
//! inherits every channel property: encryption, replay rejection,
//! continuous authorization (a revoked peer's stream is refused
//! mid-flight), and heartbeat liveness. An end-to-end SHA-256 over the
//! assembled payload guards against application-level reassembly bugs on
//! top of the per-record AEAD.
//!
//! Protocol (all via reserved RPC methods):
//!
//! * `__stream_open(name)` → stream id
//! * `__stream_chunk(id ‖ seq ‖ bytes)` — strictly ordered
//! * `__stream_close(id ‖ sha256)` → the registered sink's response

use crate::channel::{Channel, PendingCall};
use crate::SwitchboardError;
use parking_lot::Mutex;
use psf_crypto::sha256;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reserved method: open a stream.
pub const STREAM_OPEN: &str = "__stream_open";
/// Reserved method: append a chunk.
pub const STREAM_CHUNK: &str = "__stream_chunk";
/// Reserved method: finish and dispatch to the sink.
pub const STREAM_CLOSE: &str = "__stream_close";

type Sink = Arc<dyn Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync>;

struct Partial {
    name: String,
    data: Vec<u8>,
    next_seq: u64,
}

/// Server-side registry of named stream sinks.
#[derive(Clone, Default)]
pub struct StreamRegistry {
    sinks: Arc<Mutex<HashMap<String, Sink>>>,
    open: Arc<Mutex<HashMap<u64, Partial>>>,
    next_id: Arc<AtomicU64>,
    /// Maximum accepted assembled size (default 64 MiB).
    max_bytes: Arc<AtomicU64>,
}

impl StreamRegistry {
    /// New registry with the default size cap.
    pub fn new() -> StreamRegistry {
        let r = StreamRegistry::default();
        r.max_bytes.store(64 << 20, Ordering::SeqCst);
        r
    }

    /// Register a sink: called with the fully assembled payload; its
    /// return value becomes the sender's `finish()` result.
    pub fn sink<F>(&self, name: impl Into<String>, f: F)
    where
        F: Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync + 'static,
    {
        self.sinks.lock().insert(name.into(), Arc::new(f));
    }

    /// Lower the acceptance cap (tests).
    pub fn set_max_bytes(&self, max: u64) {
        self.max_bytes.store(max, Ordering::SeqCst);
    }

    /// Streams currently open (diagnostics).
    pub fn open_count(&self) -> usize {
        self.open.lock().len()
    }
}

/// Install the stream protocol handlers on a channel.
pub fn serve_streams(channel: &Channel, registry: StreamRegistry) {
    {
        let reg = registry.clone();
        channel.register_handler(STREAM_OPEN, move |args| {
            let name = String::from_utf8(args.to_vec()).map_err(|_| "bad stream name")?;
            if !reg.sinks.lock().contains_key(&name) {
                return Err(format!("no stream sink registered for '{name}'"));
            }
            let id = reg.next_id.fetch_add(1, Ordering::SeqCst) + 1;
            reg.open.lock().insert(
                id,
                Partial {
                    name,
                    data: Vec::new(),
                    next_seq: 0,
                },
            );
            Ok(id.to_le_bytes().to_vec())
        });
    }
    {
        let reg = registry.clone();
        channel.register_handler(STREAM_CHUNK, move |args| {
            if args.len() < 16 {
                return Err("short chunk frame".into());
            }
            let id = u64::from_le_bytes(args[..8].try_into().unwrap());
            let seq = u64::from_le_bytes(args[8..16].try_into().unwrap());
            let mut open = reg.open.lock();
            let partial = open.get_mut(&id).ok_or("unknown stream id")?;
            if seq != partial.next_seq {
                let msg = format!(
                    "out-of-order chunk: got {seq}, expected {}",
                    partial.next_seq
                );
                open.remove(&id); // poison the stream
                return Err(msg);
            }
            let cap = reg.max_bytes.load(Ordering::SeqCst);
            if (partial.data.len() + args.len() - 16) as u64 > cap {
                open.remove(&id);
                return Err("stream exceeds size cap".into());
            }
            partial.data.extend_from_slice(&args[16..]);
            partial.next_seq += 1;
            Ok(vec![])
        });
    }
    {
        // The sink is user code, which may wait: it runs off-shard.
        let reg = registry;
        channel.register_blocking_handler(STREAM_CLOSE, move |args| {
            if args.len() < 40 {
                return Err("short close frame".into());
            }
            let id = u64::from_le_bytes(args[..8].try_into().unwrap());
            let claimed: [u8; 32] = args[8..40].try_into().unwrap();
            let partial = reg.open.lock().remove(&id).ok_or("unknown stream id")?;
            if sha256(&partial.data) != claimed {
                return Err("stream integrity check failed".into());
            }
            let sink = reg
                .sinks
                .lock()
                .get(&partial.name)
                .cloned()
                .ok_or("sink vanished")?;
            sink(&partial.data)
        });
    }
}

/// Chunk acknowledgements kept in flight per stream: the writer pipelines
/// uploads behind a sliding window instead of stalling a full RTT per
/// chunk. Ordering is preserved by the channel's sequenced record layer
/// and the receiver's strict `next_seq` check.
const STREAM_WINDOW: usize = 8;

/// A client-side stream writer.
pub struct StreamWriter<'a> {
    channel: &'a Channel,
    id: u64,
    seq: u64,
    hasher: psf_crypto::Sha256,
    chunk_size: usize,
    buffer: Vec<u8>,
    in_flight: VecDeque<PendingCall>,
    finished: bool,
}

impl<'a> StreamWriter<'a> {
    /// Open a stream toward the peer's sink `name`.
    pub fn open(
        channel: &'a Channel,
        name: &str,
        chunk_size: usize,
    ) -> Result<StreamWriter<'a>, SwitchboardError> {
        assert!(chunk_size > 0);
        let reply = channel.call(STREAM_OPEN, name.as_bytes())?;
        if reply.len() != 8 {
            return Err(SwitchboardError::Protocol("bad stream id".into()));
        }
        Ok(StreamWriter {
            channel,
            id: u64::from_le_bytes(reply.try_into().unwrap()),
            seq: 0,
            hasher: psf_crypto::Sha256::new(),
            chunk_size,
            buffer: Vec::new(),
            in_flight: VecDeque::with_capacity(STREAM_WINDOW),
            finished: false,
        })
    }

    /// Append payload bytes (buffered into chunks).
    pub fn write(&mut self, data: &[u8]) -> Result<(), SwitchboardError> {
        assert!(!self.finished, "write after finish");
        self.hasher.update(data);
        self.buffer.extend_from_slice(data);
        while self.buffer.len() >= self.chunk_size {
            let rest = self.buffer.split_off(self.chunk_size);
            let chunk = std::mem::replace(&mut self.buffer, rest);
            self.send_chunk(&chunk)?;
        }
        Ok(())
    }

    fn send_chunk(&mut self, chunk: &[u8]) -> Result<(), SwitchboardError> {
        // Window full: wait for the oldest outstanding chunk ack before
        // issuing another. An error (out-of-order poison, revocation,
        // channel death) aborts the stream immediately.
        while self.in_flight.len() >= STREAM_WINDOW {
            self.in_flight.pop_front().unwrap().wait()?;
        }
        let mut frame = Vec::with_capacity(16 + chunk.len());
        frame.extend_from_slice(&self.id.to_le_bytes());
        frame.extend_from_slice(&self.seq.to_le_bytes());
        frame.extend_from_slice(chunk);
        let pending = self.channel.call_pipelined(STREAM_CHUNK, &frame)?;
        self.in_flight.push_back(pending);
        self.seq += 1;
        Ok(())
    }

    /// Flush the tail, close the stream, and return the sink's response.
    pub fn finish(mut self) -> Result<Vec<u8>, SwitchboardError> {
        if !self.buffer.is_empty() {
            let tail = std::mem::take(&mut self.buffer);
            self.send_chunk(&tail)?;
        }
        self.finished = true;
        // Drain the pipeline: every chunk must be acknowledged before the
        // close digest is meaningful.
        while let Some(pending) = self.in_flight.pop_front() {
            pending.wait()?;
        }
        let digest = self.hasher.clone().finalize();
        let mut frame = Vec::with_capacity(40);
        frame.extend_from_slice(&self.id.to_le_bytes());
        frame.extend_from_slice(&digest);
        self.channel.call(STREAM_CLOSE, &frame)
    }
}

/// One-call convenience: stream `data` to the peer's sink `name`.
pub fn send_stream(
    channel: &Channel,
    name: &str,
    data: &[u8],
    chunk_size: usize,
) -> Result<Vec<u8>, SwitchboardError> {
    let mut w = StreamWriter::open(channel, name, chunk_size)?;
    w.write(data)?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::pair_in_memory_plain;
    use crate::ChannelConfig;
    use std::time::Duration;

    fn pair() -> (Channel, Channel) {
        pair_in_memory_plain(ChannelConfig {
            heartbeat_interval: None,
            rpc_timeout: Duration::from_secs(5),
        })
    }

    #[test]
    fn stream_roundtrip_multi_chunk() {
        let (client, server) = pair();
        let registry = StreamRegistry::new();
        let received = Arc::new(Mutex::new(Vec::new()));
        let sink_copy = received.clone();
        registry.sink("upload", move |data| {
            *sink_copy.lock() = data.to_vec();
            Ok(format!("got {} bytes", data.len()).into_bytes())
        });
        serve_streams(&server, registry.clone());

        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let reply = send_stream(&client, "upload", &payload, 4096).unwrap();
        assert_eq!(reply, b"got 100000 bytes");
        assert_eq!(*received.lock(), payload);
        assert_eq!(registry.open_count(), 0, "stream state cleaned up");
    }

    #[test]
    fn empty_stream_ok() {
        let (client, server) = pair();
        let registry = StreamRegistry::new();
        registry.sink("empty", |d| Ok(d.len().to_string().into_bytes()));
        serve_streams(&server, registry);
        assert_eq!(send_stream(&client, "empty", b"", 16).unwrap(), b"0");
    }

    #[test]
    fn unknown_sink_rejected_at_open() {
        let (client, server) = pair();
        serve_streams(&server, StreamRegistry::new());
        let err = StreamWriter::open(&client, "nope", 16);
        assert!(err.is_err());
    }

    #[test]
    fn out_of_order_chunk_poisons_stream() {
        let (client, server) = pair();
        let registry = StreamRegistry::new();
        registry.sink("s", |_| Ok(vec![]));
        serve_streams(&server, registry.clone());
        let reply = client.call(STREAM_OPEN, b"s").unwrap();
        let id = u64::from_le_bytes(reply.try_into().unwrap());
        // Send seq 1 first (expected 0).
        let mut frame = Vec::new();
        frame.extend_from_slice(&id.to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(b"data");
        let err = client.call(STREAM_CHUNK, &frame).unwrap_err();
        assert!(err.to_string().contains("out-of-order"));
        assert_eq!(registry.open_count(), 0);
    }

    #[test]
    fn integrity_mismatch_rejected() {
        let (client, server) = pair();
        let registry = StreamRegistry::new();
        registry.sink("s", |_| Ok(vec![]));
        serve_streams(&server, registry);
        let reply = client.call(STREAM_OPEN, b"s").unwrap();
        let id = u64::from_le_bytes(reply.try_into().unwrap());
        let mut chunk = Vec::new();
        chunk.extend_from_slice(&id.to_le_bytes());
        chunk.extend_from_slice(&0u64.to_le_bytes());
        chunk.extend_from_slice(b"real data");
        client.call(STREAM_CHUNK, &chunk).unwrap();
        // Close with a digest of different data.
        let mut close = Vec::new();
        close.extend_from_slice(&id.to_le_bytes());
        close.extend_from_slice(&sha256(b"forged data"));
        let err = client.call(STREAM_CLOSE, &close).unwrap_err();
        assert!(err.to_string().contains("integrity"));
    }

    #[test]
    fn size_cap_enforced() {
        let (client, server) = pair();
        let registry = StreamRegistry::new();
        registry.set_max_bytes(1000);
        registry.sink("s", |_| Ok(vec![]));
        serve_streams(&server, registry);
        let big = vec![0u8; 5000];
        assert!(send_stream(&client, "s", &big, 512).is_err());
    }

    #[test]
    fn concurrent_streams_do_not_interleave() {
        let (client, server) = pair();
        let registry = StreamRegistry::new();
        registry.sink("s", |data| Ok(sha256(data).to_vec()));
        serve_streams(&server, registry);
        let client = Arc::new(client);
        let mut joins = Vec::new();
        for t in 0..4u8 {
            let c = client.clone();
            joins.push(std::thread::spawn(move || {
                let payload = vec![t; 10_000];
                let reply = send_stream(&c, "s", &payload, 1024).unwrap();
                assert_eq!(reply, sha256(&payload).to_vec());
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn sink_errors_propagate_to_sender() {
        let (client, server) = pair();
        let registry = StreamRegistry::new();
        registry.sink("picky", |data| {
            if data.starts_with(b"ok") {
                Ok(b"accepted".to_vec())
            } else {
                Err("payload rejected by sink".into())
            }
        });
        serve_streams(&server, registry);
        assert_eq!(
            send_stream(&client, "picky", b"ok then", 4).unwrap(),
            b"accepted"
        );
        let err = send_stream(&client, "picky", b"bad", 4).unwrap_err();
        assert!(err.to_string().contains("rejected"));
    }
}
