//! Failure injection: a transport wrapper that corrupts, drops, or
//! duplicates frames per a deterministic schedule. Used to demonstrate
//! that the channel **fails closed**: a tampered or replayed record never
//! surfaces as wrong data — the AEAD/sequence checks kill the channel and
//! pending RPCs resolve to errors.

use crate::transport::{FrameSender, Receiver, Transport};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to do to the nth frame (0-indexed) crossing the wrapped sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one bit in the frame body.
    CorruptBit {
        /// Which frame to corrupt.
        frame: u64,
        /// Byte offset (mod frame length).
        byte: usize,
    },
    /// Silently drop the frame.
    Drop {
        /// Which frame to drop.
        frame: u64,
    },
    /// Send the frame twice (replay attempt).
    Duplicate {
        /// Which frame to duplicate.
        frame: u64,
    },
}

/// Shared, cloneable record of the faults that actually fired. Obtain it
/// from [`FaultyTransport::log_handle`] *before* the transport is consumed
/// by a handshake; it stays live for the lifetime of the sender.
#[derive(Clone, Default)]
pub struct FaultLog(Arc<Mutex<Vec<Fault>>>);

impl FaultLog {
    /// Snapshot of the faults injected so far, in firing order.
    pub fn injected(&self) -> Vec<Fault> {
        self.0.lock().clone()
    }

    /// Number of faults injected so far.
    pub fn count(&self) -> usize {
        self.0.lock().len()
    }

    fn record(&self, fault: Fault) {
        self.0.lock().push(fault);
    }
}

/// A transport whose *send* side injects the configured faults.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    faults: Arc<Vec<Fault>>,
    log: FaultLog,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap a transport with a fault schedule.
    pub fn new(inner: T, faults: Vec<Fault>) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            faults: Arc::new(faults),
            log: FaultLog::default(),
        }
    }

    /// Faults that have fired so far (empty before the transport is used).
    pub fn injected(&self) -> Vec<Fault> {
        self.log.injected()
    }

    /// A handle to the fault log that survives `split()` — capture it
    /// before handing the transport to a handshake, then assert on which
    /// faults actually fired.
    pub fn log_handle(&self) -> FaultLog {
        self.log.clone()
    }
}

struct FaultySender {
    inner: Box<dyn FrameSender>,
    faults: Arc<Vec<Fault>>,
    counter: AtomicU64,
    log: FaultLog,
}

impl FrameSender for FaultySender {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        for fault in self.faults.iter() {
            match *fault {
                Fault::CorruptBit { frame: f, byte } if f == n => {
                    let mut tampered = frame.to_vec();
                    if !tampered.is_empty() {
                        let idx = byte % tampered.len();
                        tampered[idx] ^= 0x01;
                    }
                    self.log.record(*fault);
                    return self.inner.send(&tampered);
                }
                Fault::Drop { frame: f } if f == n => {
                    self.log.record(*fault);
                    return Ok(()); // swallowed
                }
                Fault::Duplicate { frame: f } if f == n => {
                    self.log.record(*fault);
                    self.inner.send(frame)?;
                    return self.inner.send(frame);
                }
                _ => {}
            }
        }
        self.inner.send(frame)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Receiver) {
        let (tx, rx) = Box::new(self.inner).split();
        (
            Box::new(FaultySender {
                inner: tx,
                faults: self.faults,
                counter: AtomicU64::new(0),
                log: self.log,
            }),
            rx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelConfig, ChannelStatus};
    use crate::handshake::{establish_plain, establish_secure};
    use crate::suite::{AuthSuite, Authorizer, ClockRef};
    use crate::transport::MemTransport;
    use crate::SwitchboardError;
    use psf_drbac::entity::{Entity, EntityRegistry};
    use psf_drbac::repository::Repository;
    use psf_drbac::revocation::RevocationBus;
    use psf_drbac::DelegationBuilder;
    use std::time::Duration;

    fn quiet() -> ChannelConfig {
        ChannelConfig {
            heartbeat_interval: None,
            rpc_timeout: Duration::from_millis(500),
        }
    }

    fn suites() -> (AuthSuite, AuthSuite, RevocationBus) {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();
        let clock = ClockRef::new();
        let domain = Entity::with_seed("Dom", b"fault");
        let a = Entity::with_seed("A", b"fault");
        let b = Entity::with_seed("B", b"fault");
        for e in [&domain, &a, &b] {
            registry.register(e);
        }
        let ca = DelegationBuilder::new(&domain)
            .subject_entity(&a)
            .role(domain.role("Peer"))
            .sign();
        let cb = DelegationBuilder::new(&domain)
            .subject_entity(&b)
            .role(domain.role("Peer"))
            .sign();
        let auth = || {
            Authorizer::new(
                registry.clone(),
                repo.clone(),
                bus.clone(),
                clock.clone(),
                domain.role("Peer"),
            )
        };
        (
            AuthSuite::new(a, vec![ca], auth()),
            AuthSuite::new(b, vec![cb], auth()),
            bus,
        )
    }

    /// Handshake uses 3 frames per direction (H1, H2, H3); data frames
    /// start at index 3 on each sender.
    const FIRST_DATA_FRAME: u64 = 3;

    #[test]
    fn corrupted_secure_record_fails_closed() {
        let (sa, sb, _bus) = suites();
        let (ta, tb) = MemTransport::pair();
        // Corrupt the client's first data record (the RPC request).
        let fault = Fault::CorruptBit {
            frame: FIRST_DATA_FRAME,
            byte: 20,
        };
        let faulty = FaultyTransport::new(ta, vec![fault]);
        let log = faulty.log_handle();
        assert!(faulty.injected().is_empty(), "nothing fired yet");
        let handle =
            std::thread::spawn(move || establish_secure(Box::new(tb), &sb, false, quiet()));
        let client = establish_secure(Box::new(faulty), &sa, true, quiet()).unwrap();
        let server = handle.join().unwrap().unwrap();
        server.register_handler("x", |_| Ok(b"data".to_vec()));

        // The tampered request kills the server's reader (AEAD failure);
        // the client sees an error — never bogus data.
        let result = client.call("x", b"payload");
        assert!(result.is_err(), "tampered record must not succeed");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.status(), ChannelStatus::Closed);
        // The fault verifiably fired (and only once).
        assert_eq!(log.injected(), vec![fault]);
    }

    #[test]
    fn duplicated_record_is_rejected_as_replay() {
        let (sa, sb, _bus) = suites();
        let (ta, tb) = MemTransport::pair();
        let fault = Fault::Duplicate {
            frame: FIRST_DATA_FRAME,
        };
        let faulty = FaultyTransport::new(ta, vec![fault]);
        let log = faulty.log_handle();
        let handle =
            std::thread::spawn(move || establish_secure(Box::new(tb), &sb, false, quiet()));
        let client = establish_secure(Box::new(faulty), &sa, true, quiet()).unwrap();
        let server = handle.join().unwrap().unwrap();
        server.register_handler("x", |_| Ok(b"ok".to_vec()));

        // First copy may be served; the replayed copy must kill the
        // channel (sequence check), and no second response is produced.
        let _ = client.call("x", b"p");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.status(), ChannelStatus::Closed);
        assert_eq!(log.injected(), vec![fault]);
    }

    #[test]
    fn dropped_frame_times_out_cleanly() {
        // Plain mode so we exercise the sequence check rather than AEAD.
        let (ta, tb) = MemTransport::pair();
        let faulty = FaultyTransport::new(ta, vec![Fault::Drop { frame: 0 }]);
        let log = faulty.log_handle();
        let client = establish_plain(Box::new(faulty), quiet());
        let server = establish_plain(Box::new(tb), quiet());
        server.register_handler("x", |_| Ok(vec![]));
        // The request vanished: the call times out; nothing panics.
        match client.call("x", b"") {
            Err(SwitchboardError::Timeout) | Err(SwitchboardError::Closed) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(log.injected(), vec![Fault::Drop { frame: 0 }]);
    }

    #[test]
    fn faults_on_later_frames_leave_earlier_traffic_intact() {
        let (sa, sb, _bus) = suites();
        let (ta, tb) = MemTransport::pair();
        let faulty = FaultyTransport::new(
            ta,
            vec![Fault::CorruptBit {
                frame: FIRST_DATA_FRAME + 2,
                byte: 5,
            }],
        );
        let log = faulty.log_handle();
        let handle =
            std::thread::spawn(move || establish_secure(Box::new(tb), &sb, false, quiet()));
        let client = establish_secure(Box::new(faulty), &sa, true, quiet()).unwrap();
        let server = handle.join().unwrap().unwrap();
        server.register_handler("x", |a| Ok(a.to_vec()));
        // Two clean calls succeed — no fault has fired yet…
        assert_eq!(client.call("x", b"one").unwrap(), b"one");
        assert_eq!(client.call("x", b"two").unwrap(), b"two");
        assert_eq!(log.count(), 0, "clean traffic must not log faults");
        // …the third is the corrupted frame.
        assert!(client.call("x", b"three").is_err());
        assert_eq!(log.count(), 1);
    }
}
