//! # psf-switchboard
//!
//! **Switchboard** (HPDC'03 §4.3): "a novel communication abstraction …
//! which permits the establishment of secure, authenticated, and
//! *continuously* authorized and monitored connections between a pair of
//! components. The latter property distinguishes Switchboard from
//! abstractions like SSL/TLS."
//!
//! The pieces, mapped to the paper:
//!
//! * **Authorization suites** ([`suite`]) — "the components at either end
//!   provide their authorization suites — PKI identities (including
//!   private keys for authentication), dRBAC credentials to be supplied to
//!   the partner, and `Authorizer` objects for evaluating the partner's
//!   credentials. Authorizers generate `AuthorizationMonitor`s, which
//!   inform either partner when the trust relationship changes."
//! * **Handshake** ([`handshake`]) — mutual Ed25519 identity proof bound
//!   to an X25519 key exchange; ChaCha20-Poly1305 record keys derived via
//!   HKDF; credential sets exchanged and evaluated before the channel
//!   opens.
//! * **Channel** ([`channel`]) — sequence-numbered AEAD records (replay
//!   rejection by construction), "replay-resistant heartbeats that
//!   indicate liveness and round-trip latency", and revocation-driven
//!   re-validation: when the dRBAC proof underlying the peer's
//!   authorization is invalidated, the `AuthorizationMonitor` says so at
//!   the next request, the channel refuses further application traffic,
//!   and the peer may present fresh credentials to re-validate.
//! * **RPC** ([`rpc`]) — "a two-way procedure-call (RPC) interface" on
//!   which the views runtime routes remote method invocations.
//! * **Transports** ([`transport`]) — real TCP (loopback or otherwise) and
//!   an in-memory pair for deterministic tests and simulation. A
//!   `Plain` mode models the paper's unauthenticated `rmi` exposure type.
//! * **Streams** ([`stream`]) — SwitchboardStream-style bulk transfer:
//!   ordered chunks with an end-to-end digest, inheriting the channel's
//!   encryption and continuous authorization.

// `deny` rather than `forbid`: the reactor's audited sys layer
// (`reactor::sys`, the one module CI's unsafe_code audit permits
// outside `crates/crypto`) opts back in with a scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fault;
pub mod handshake;
pub mod pool;
// The reactor's syscall shim is Linux ABI (epoll, eventfd, packed
// x86_64 epoll_event, RLIMIT_NOFILE=7); elsewhere a stub module keeps
// the API surface and channels degrade to the threaded backend.
#[cfg(target_os = "linux")]
pub mod reactor;
#[cfg(not(target_os = "linux"))]
#[path = "reactor_fallback.rs"]
pub mod reactor;
pub mod rpc;
pub mod stream;
pub mod suite;
pub mod transport;

pub use channel::{
    Channel, ChannelBackend, ChannelConfig, ChannelStatus, Mode, PendingCall, TrafficStats,
};
pub use fault::{Fault, FaultLog, FaultyTransport};
pub use handshake::{
    connect_tcp, establish_plain, establish_secure, listen_tcp, pair_in_memory,
    pair_in_memory_plain, Listener,
};
pub use pool::{FramePool, PooledBuf};
pub use stream::{send_stream, serve_streams, StreamRegistry, StreamWriter};
pub use suite::{AuthSuite, AuthorizationMonitor, Authorizer, ClockRef};
pub use transport::{MemTransport, TcpTransport, Transport};

/// Errors surfaced by Switchboard operations.
#[derive(Debug)]
pub enum SwitchboardError {
    /// Underlying socket/transport failure.
    Io(std::io::Error),
    /// Cryptographic failure (bad tag, bad signature, bad point).
    Crypto(psf_crypto::CryptoError),
    /// Handshake protocol violation.
    Handshake(String),
    /// The peer's credentials did not authorize the required role.
    Unauthorized(String),
    /// The peer's authorization was revoked mid-connection; the channel
    /// requires re-validation before passing further traffic.
    RevalidationRequired(String),
    /// The channel is closed.
    Closed,
    /// An RPC timed out.
    Timeout,
    /// Malformed frame or protocol state violation.
    Protocol(String),
    /// The remote handler reported an application error.
    Remote(String),
}

impl Clone for SwitchboardError {
    fn clone(&self) -> Self {
        match self {
            // io::Error is not Clone; preserve kind + message.
            SwitchboardError::Io(e) => {
                SwitchboardError::Io(std::io::Error::new(e.kind(), e.to_string()))
            }
            SwitchboardError::Crypto(e) => SwitchboardError::Crypto(*e),
            SwitchboardError::Handshake(m) => SwitchboardError::Handshake(m.clone()),
            SwitchboardError::Unauthorized(m) => SwitchboardError::Unauthorized(m.clone()),
            SwitchboardError::RevalidationRequired(m) => {
                SwitchboardError::RevalidationRequired(m.clone())
            }
            SwitchboardError::Closed => SwitchboardError::Closed,
            SwitchboardError::Timeout => SwitchboardError::Timeout,
            SwitchboardError::Protocol(m) => SwitchboardError::Protocol(m.clone()),
            SwitchboardError::Remote(m) => SwitchboardError::Remote(m.clone()),
        }
    }
}

impl core::fmt::Display for SwitchboardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SwitchboardError::Io(e) => write!(f, "transport error: {e}"),
            SwitchboardError::Crypto(e) => write!(f, "crypto error: {e}"),
            SwitchboardError::Handshake(m) => write!(f, "handshake failed: {m}"),
            SwitchboardError::Unauthorized(m) => write!(f, "peer unauthorized: {m}"),
            SwitchboardError::RevalidationRequired(m) => {
                write!(f, "authorization revoked, revalidation required: {m}")
            }
            SwitchboardError::Closed => write!(f, "channel closed"),
            SwitchboardError::Timeout => write!(f, "operation timed out"),
            SwitchboardError::Protocol(m) => write!(f, "protocol violation: {m}"),
            SwitchboardError::Remote(m) => write!(f, "remote error: {m}"),
        }
    }
}

impl std::error::Error for SwitchboardError {}

impl From<std::io::Error> for SwitchboardError {
    fn from(e: std::io::Error) -> Self {
        SwitchboardError::Io(e)
    }
}

impl From<psf_crypto::CryptoError> for SwitchboardError {
    fn from(e: psf_crypto::CryptoError) -> Self {
        SwitchboardError::Crypto(e)
    }
}
