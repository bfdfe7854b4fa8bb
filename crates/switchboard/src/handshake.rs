//! Connection establishment: mutual identity proof, key exchange,
//! credential exchange, and partner authorization.
//!
//! Protocol (secure mode):
//!
//! 1. Both sides send `H1 = "SWBD1" ‖ role ‖ name ‖ ed25519-pub ‖
//!    x25519-eph-pub ‖ nonce₁₆`.
//! 2. Both sides sign `transcript = H1ᵢ ‖ H1ₐ` with their identity key
//!    and send `H2 = signature ‖ credentials`; each verifies the peer's
//!    signature, binding the ephemeral DH key to the PKI identity.
//! 3. Record keys derive via `HKDF(salt = nonceᵢ ‖ nonceₐ, ikm =
//!    X25519(eph, eph-peer), info = "swbd-keys")` — one key per
//!    direction.
//! 4. Each side evaluates the peer's credentials with its `Authorizer`
//!    and sends an accept/reject verdict; on mutual accept the channel
//!    opens with an `AuthorizationMonitor` watching the peer's proof.

use crate::channel::{Channel, ChannelConfig, Mode, PeerInfo};
use crate::suite::AuthSuite;
use crate::transport::{read_frame, MemTransport, TcpTransport, Transport};
use crate::SwitchboardError;
use psf_crypto::aead::ChaCha20Poly1305;
use psf_crypto::ed25519::{Signature, VerifyingKey};
use psf_crypto::hmac::hkdf;
use psf_crypto::x25519::{x25519, x25519_base};
use psf_drbac::entity::EntityName;
use psf_drbac::wire;
use rand::Rng;

const MAGIC: &[u8; 5] = b"SWBD1";

struct Hello {
    raw: Vec<u8>,
    name: EntityName,
    identity: VerifyingKey,
    eph: [u8; 32],
}

fn build_hello(suite: &AuthSuite, initiator: bool, eph_pub: &[u8; 32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.extend_from_slice(MAGIC);
    out.push(initiator as u8);
    let name = suite.identity.name.0.as_bytes();
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(suite.identity.public_key().as_bytes());
    out.extend_from_slice(eph_pub);
    let mut nonce = [0u8; 16];
    rand::rng().fill_bytes(&mut nonce);
    out.extend_from_slice(&nonce);
    out
}

fn parse_hello(raw: Vec<u8>, expect_initiator: bool) -> Result<Hello, SwitchboardError> {
    let fail = |m: &str| SwitchboardError::Handshake(m.to_string());
    if raw.len() < 5 + 1 + 4 {
        return Err(fail("hello too short"));
    }
    if &raw[..5] != MAGIC {
        return Err(fail("bad magic"));
    }
    if (raw[5] == 1) != expect_initiator {
        return Err(fail("role mismatch (both sides same role?)"));
    }
    let name_len = u32::from_le_bytes(raw[6..10].try_into().unwrap()) as usize;
    if name_len > 1024 || raw.len() != 10 + name_len + 32 + 32 + 16 {
        return Err(fail("malformed hello"));
    }
    let name =
        String::from_utf8(raw[10..10 + name_len].to_vec()).map_err(|_| fail("bad peer name"))?;
    let mut identity = [0u8; 32];
    identity.copy_from_slice(&raw[10 + name_len..10 + name_len + 32]);
    let mut eph = [0u8; 32];
    eph.copy_from_slice(&raw[10 + name_len + 32..10 + name_len + 64]);
    Ok(Hello {
        raw,
        name: EntityName(name),
        identity: VerifyingKey(identity),
        eph,
    })
}

/// Run the secure handshake over a transport and return the live channel.
pub fn establish_secure(
    transport: Box<dyn Transport>,
    suite: &AuthSuite,
    initiator: bool,
    config: ChannelConfig,
) -> Result<Channel, SwitchboardError> {
    let mut hs_span = psf_telemetry::span("psf.swbd", "handshake");
    hs_span
        .field("role", if initiator { "initiator" } else { "acceptor" })
        .field("entity", &suite.identity.name.0);
    let hs_start = std::time::Instant::now();
    let (mut tx, mut rx) = transport.split();

    // Ephemeral X25519 key pair.
    let mut eph_secret = [0u8; 32];
    rand::rng().fill_bytes(&mut eph_secret);
    let eph_pub = x25519_base(&eph_secret);

    // H1 exchange.
    let my_hello = build_hello(suite, initiator, &eph_pub);
    tx.send(&my_hello)?;
    let peer_hello = parse_hello(read_frame(&mut rx.0)?, !initiator)?;

    // Transcript: initiator's hello first.
    let mut transcript = Vec::with_capacity(my_hello.len() + peer_hello.raw.len());
    if initiator {
        transcript.extend_from_slice(&my_hello);
        transcript.extend_from_slice(&peer_hello.raw);
    } else {
        transcript.extend_from_slice(&peer_hello.raw);
        transcript.extend_from_slice(&my_hello);
    }

    // H2: signature ‖ credentials.
    let sig = suite.identity.sign(&transcript);
    let mut h2 = Vec::with_capacity(64 + 256);
    h2.extend_from_slice(&sig.to_bytes());
    h2.extend_from_slice(&wire::encode_credentials(&suite.credentials));
    tx.send(&h2)?;
    let peer_h2 = read_frame(&mut rx.0)?;
    if peer_h2.len() < 64 {
        return Err(SwitchboardError::Handshake("short H2".into()));
    }
    let peer_sig = Signature::from_bytes(&peer_h2[..64])?;
    peer_hello
        .identity
        .verify(&transcript, &peer_sig)
        .map_err(|_| SwitchboardError::Handshake("peer identity proof failed".into()))?;
    let peer_creds = wire::decode_credentials(&peer_h2[64..])
        .map_err(|e| SwitchboardError::Handshake(format!("bad peer credentials: {e}")))?;

    // Key schedule.
    let shared = x25519(&eph_secret, &peer_hello.eph);
    if shared == [0u8; 32] {
        return Err(SwitchboardError::Handshake("degenerate DH share".into()));
    }
    let my_nonce = &my_hello[my_hello.len() - 16..];
    let peer_nonce = &peer_hello.raw[peer_hello.raw.len() - 16..];
    let mut salt = Vec::with_capacity(32);
    if initiator {
        salt.extend_from_slice(my_nonce);
        salt.extend_from_slice(peer_nonce);
    } else {
        salt.extend_from_slice(peer_nonce);
        salt.extend_from_slice(my_nonce);
    }
    let mut okm = [0u8; 64];
    hkdf(&salt, &shared, b"swbd-keys", &mut okm);
    let mut key_i2a = [0u8; 32];
    key_i2a.copy_from_slice(&okm[..32]);
    let mut key_a2i = [0u8; 32];
    key_a2i.copy_from_slice(&okm[32..]);
    let (send_key, recv_key, send_dir, recv_dir) = if initiator {
        (key_i2a, key_a2i, 0u8, 1u8)
    } else {
        (key_a2i, key_i2a, 1u8, 0u8)
    };

    // Partner authorization.
    let auth_result =
        suite
            .authorizer
            .authorize(&peer_hello.name, &peer_hello.identity, &peer_creds);
    let verdict: u8 = auth_result.is_ok() as u8;
    let reason = match &auth_result {
        Ok(_) => String::new(),
        Err(e) => e.clone(),
    };
    let mut h3 = vec![verdict];
    h3.extend_from_slice(reason.as_bytes());
    tx.send(&h3)?;
    let peer_h3 = read_frame(&mut rx.0)?;
    let peer_accepts = peer_h3.first() == Some(&1);

    let monitor = match auth_result {
        Ok(m) => m,
        Err(e) => {
            psf_telemetry::counter!("psf.swbd.handshake.rejected").inc();
            return Err(SwitchboardError::Unauthorized(e));
        }
    };
    if !peer_accepts {
        psf_telemetry::counter!("psf.swbd.handshake.rejected").inc();
        let reason = String::from_utf8_lossy(peer_h3.get(1..).unwrap_or(&[])).into_owned();
        return Err(SwitchboardError::Unauthorized(format!(
            "peer rejected our credentials: {reason}"
        )));
    }

    psf_telemetry::counter!("psf.swbd.handshake.ok").inc();
    psf_telemetry::histogram!("psf.swbd.handshake.us").record_duration(hs_start.elapsed());
    hs_span.field("peer", &peer_hello.name.0);

    Ok(Channel::start(
        tx,
        rx,
        Mode::Secure {
            send: ChaCha20Poly1305::new(send_key),
            recv: ChaCha20Poly1305::new(recv_key),
            send_dir,
            recv_dir,
        },
        Some(PeerInfo {
            name: peer_hello.name,
            key: peer_hello.identity,
        }),
        Some(monitor),
        Some(suite.authorizer.clone()),
        config,
    ))
}

/// Open a plaintext channel (the `rmi` exposure type): no identities, no
/// encryption, no monitoring.
pub fn establish_plain(transport: Box<dyn Transport>, config: ChannelConfig) -> Channel {
    let (tx, rx) = transport.split();
    Channel::start(tx, rx, Mode::Plain, None, None, None, config)
}

/// Create a connected in-memory secure channel pair (deterministic
/// simulation path). Runs the two handshakes concurrently.
pub fn pair_in_memory(
    suite_a: AuthSuite,
    suite_b: AuthSuite,
    config: ChannelConfig,
) -> Result<(Channel, Channel), SwitchboardError> {
    let (ta, tb) = MemTransport::pair();
    let cfg_b = config.clone();
    // The acceptor-side handshake (and the proof search inside its
    // authorizer) must join the caller's trace, not start an orphan tree
    // on the helper thread.
    let ctx = psf_telemetry::TraceContext::current();
    let handle = std::thread::spawn(move || {
        let _trace = ctx.map(psf_telemetry::TraceContext::attach);
        establish_secure(Box::new(tb), &suite_b, false, cfg_b)
    });
    let a = establish_secure(Box::new(ta), &suite_a, true, config);
    let b = handle.join().expect("acceptor thread panicked");
    Ok((a?, b?))
}

/// Create a connected in-memory *plaintext* channel pair.
pub fn pair_in_memory_plain(config: ChannelConfig) -> (Channel, Channel) {
    let (ta, tb) = MemTransport::pair();
    (
        establish_plain(Box::new(ta), config.clone()),
        establish_plain(Box::new(tb), config),
    )
}

/// A TCP listener for Switchboard connections.
pub struct Listener {
    listener: std::net::TcpListener,
}

/// Bind a TCP listener.
pub fn listen_tcp(addr: &str) -> Result<Listener, SwitchboardError> {
    Ok(Listener {
        listener: std::net::TcpListener::bind(addr)?,
    })
}

impl Listener {
    /// The bound local address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept one connection and run the acceptor-side handshake.
    pub fn accept(
        &self,
        suite: &AuthSuite,
        config: ChannelConfig,
    ) -> Result<Channel, SwitchboardError> {
        let (stream, _) = self.listener.accept()?;
        let transport = Box::new(TcpTransport::new(stream)?);
        establish_secure(transport, suite, false, config)
    }
}

/// Connect to a Switchboard listener and run the initiator-side
/// handshake.
pub fn connect_tcp(
    addr: &str,
    suite: &AuthSuite,
    config: ChannelConfig,
) -> Result<Channel, SwitchboardError> {
    let stream = std::net::TcpStream::connect(addr)?;
    let transport = Box::new(TcpTransport::new(stream)?);
    establish_secure(transport, suite, true, config)
}
