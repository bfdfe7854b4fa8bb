//! The one module of the reactor that knows the platform. It exports a
//! [`Poller`]/[`Waker`] pair and [`raise_nofile_limit`]:
//!
//! * **Linux** — epoll watches the sockets and an eventfd carries
//!   cross-thread wakeups. The eventfd is registered under an internal
//!   token that [`Poller::wait`] consumes itself, so callers only ever see
//!   socket readiness.
//! * **Elsewhere** — a safe `Mutex<bool>` + `Condvar` waiter: `wait`
//!   sleeps until woken or timed out, and [`Poller::add`] returns
//!   `Unsupported`, so a TCP stream is fed to its shard through an inbox
//!   by a pump thread, and the waker is how every inbox's sender wakes
//!   the shard. The waiter is compiled (and unit-tested) on Linux under
//!   `cfg(test)` as well.
//!
//! The Linux half is the **only** code in the workspace outside
//! `crates/crypto/src/chacha.rs` permitted to contain `unsafe` (CI greps
//! for violations). The rules that keep it auditable:
//!
//! * Every `unsafe` block is a single FFI call whose arguments are
//!   constructed immediately above it from owned stack data — no pointer
//!   arithmetic, no lifetimes crossing the boundary — or the adoption of
//!   a descriptor the kernel has just returned.
//! * Descriptors are owned by std types (`OwnedFd`, `File`) and closed
//!   exactly once by their `Drop`; raw fds borrowed from sockets
//!   (`TcpStream::as_raw_fd`) are never stored here.
//! * No allocation is handed to or received from the kernel beyond the
//!   caller-provided event buffer, whose length is passed explicitly.
//!
//! The symbols are declared `extern "C"` against libc, which `std`
//! already links — no external crate is involved.

// ---------------------------------------------------------- constants --

/// Readable event (level or edge).
pub const EPOLLIN: u32 = 0x001;
/// Writable event — with `EPOLLET`, an edge fires when a previously full
/// socket buffer drains, which is when send backlogs flush.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (peer closed both directions).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

#[cfg(target_os = "linux")]
pub use linux::{raise_nofile_limit, Poller, Waker};
#[cfg(not(target_os = "linux"))]
pub use portable::{Poller, Waker};

/// No portable rlimit call here (the resource number is per-OS): report
/// the conventional default soft limit so benches size themselves
/// conservatively.
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit() -> (u64, u64) {
    (1024, 1024)
}

// ------------------------------------------------------------- linux --

#[cfg(target_os = "linux")]
mod linux {
    use super::EPOLLIN;
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::sync::Arc;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;

    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    const RLIMIT_NOFILE: i32 = 7;

    /// Token of the wakeup eventfd; [`Poller::wait`] filters it out.
    /// Connection tokens count up from zero and never reach it.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// `struct epoll_event`. Packed on x86_64 (the kernel ABI there); the
    /// natural `repr(C)` layout matches every other architecture.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// Adopt a descriptor a syscall just returned (or report its error).
    fn owned(fd: i32) -> io::Result<OwnedFd> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor nothing else owns.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// An epoll instance plus the eventfd that interrupts its waits.
    pub struct Poller {
        epoll: OwnedFd,
        wake: Arc<File>,
    }

    /// The cross-thread half of a [`Poller`]: interrupts its `wait`.
    pub struct Waker {
        wake: Arc<File>,
    }

    impl Poller {
        /// Create a close-on-exec epoll instance with a nonblocking
        /// eventfd already registered for wakeups.
        pub fn new() -> io::Result<(Poller, Waker)> {
            // SAFETY: no pointers; returns a new fd or -1.
            let epoll = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: no pointers; returns a new fd or -1.
            let wake = Arc::new(File::from(owned(unsafe {
                eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)
            })?));
            let poller = Poller { epoll, wake };
            poller.ctl(EPOLL_CTL_ADD, poller.wake.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;
            let waker = Waker {
                wake: poller.wake.clone(),
            };
            Ok((poller, waker))
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live stack value for the duration of the
            // call (DEL ignores it since 2.6.9 but wants it non-null).
            let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Watch `stream` for `events`, tagging readiness reports with
        /// `token`.
        pub fn add(&self, stream: &TcpStream, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, stream.as_raw_fd(), token, events)
        }

        /// Stop watching `stream`.
        pub fn del(&self, stream: &TcpStream) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, stream.as_raw_fd(), 0, 0)
        }

        /// Wait up to `timeout_ms` (−1 = forever) and append `(token,
        /// events)` pairs to `out`. A wakeup is consumed here and returns
        /// with no pair for it; `EINTR` returns with none at all.
        pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()> {
            const MAX_EVENTS: usize = 1024;
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let epfd = self.epoll.as_raw_fd();
            // SAFETY: `buf` is a live stack array and its length is passed.
            let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct by value.
                let (data, events) = (ev.data, ev.events);
                if data == WAKE_TOKEN {
                    // One nonblocking read resets the eventfd counter.
                    let _ = (&*self.wake).read(&mut [0u8; 8]);
                } else {
                    out.push((data, events));
                }
            }
            Ok(())
        }
    }

    impl Waker {
        /// Interrupt the poller's current or next `wait`. Errors are
        /// ignored: `EAGAIN` means the counter is saturated, i.e. a
        /// wakeup is already pending.
        pub fn wake(&self) {
            let _ = (&*self.wake).write(&1u64.to_ne_bytes());
        }
    }

    /// Raise the soft `RLIMIT_NOFILE` to the hard limit and return the
    /// effective `(soft, hard)` pair. Benches use this to size their
    /// channel counts to what the environment actually permits.
    pub fn raise_nofile_limit() -> (u64, u64) {
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live stack value.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return (1024, 1024);
        }
        if lim.cur < lim.max {
            let want = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            // SAFETY: `want` is a live stack value.
            if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                lim.cur = lim.max;
            }
        }
        (lim.cur, lim.max)
    }
}

// ---------------------------------------------------------- portable --

#[cfg(any(test, not(target_os = "linux")))]
mod portable {
    use std::io;
    use std::net::TcpStream;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::Duration;

    /// A wakeup flag and the condvar its waiter sleeps on.
    #[derive(Default)]
    struct Signal {
        woken: Mutex<bool>,
        ready: Condvar,
    }

    /// A waiter that watches no sockets: `wait` returns when woken or
    /// timed out, with no events.
    pub struct Poller {
        signal: Arc<Signal>,
    }

    /// The cross-thread half of a [`Poller`]: interrupts its `wait`.
    pub struct Waker {
        signal: Arc<Signal>,
    }

    impl Poller {
        /// Create a waiter and its waker.
        pub fn new() -> io::Result<(Poller, Waker)> {
            let signal = Arc::new(Signal::default());
            let waker = Waker {
                signal: signal.clone(),
            };
            Ok((Poller { signal }, waker))
        }

        /// Sockets cannot be watched here; the caller pumps them into an
        /// inbox instead.
        pub fn add(&self, _stream: &TcpStream, _token: u64, _events: u32) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        /// Nothing is ever watched, so there is nothing to stop watching.
        pub fn del(&self, _stream: &TcpStream) -> io::Result<()> {
            Ok(())
        }

        /// Sleep up to `timeout_ms` (−1 = forever) or until woken. A wake
        /// that arrived before the call returns at once. Never reports
        /// events.
        pub fn wait(&self, _out: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()> {
            let woken = self
                .signal
                .woken
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut woken = match u64::try_from(timeout_ms) {
                Err(_) => self
                    .signal
                    .ready
                    .wait_while(woken, |w| !*w)
                    .unwrap_or_else(PoisonError::into_inner),
                Ok(ms) => {
                    self.signal
                        .ready
                        .wait_timeout_while(woken, Duration::from_millis(ms), |w| !*w)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            *woken = false;
            Ok(())
        }
    }

    impl Waker {
        /// Interrupt the waiter's current or next `wait`.
        pub fn wake(&self) {
            *self
                .signal
                .woken
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = true;
            self.signal.ready.notify_one();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Instant;

        #[test]
        fn wake_before_wait_returns_at_once() {
            let (poller, waker) = Poller::new().unwrap();
            waker.wake();
            let t = Instant::now();
            poller.wait(&mut Vec::new(), 10_000).unwrap();
            assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
            // The wake was consumed: the next wait runs to its timeout.
            let t = Instant::now();
            poller.wait(&mut Vec::new(), 30).unwrap();
            assert!(t.elapsed() >= Duration::from_millis(30));
        }

        #[test]
        fn bare_wait_returns_after_its_timeout() {
            let (poller, _waker) = Poller::new().unwrap();
            let mut events = Vec::new();
            let t = Instant::now();
            poller.wait(&mut events, 40).unwrap();
            assert!(t.elapsed() >= Duration::from_millis(40));
            assert!(events.is_empty());
        }

        #[test]
        fn wake_from_another_thread_ends_an_unbounded_wait() {
            let (poller, waker) = Poller::new().unwrap();
            let t = Instant::now();
            let join = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
            });
            poller.wait(&mut Vec::new(), -1).unwrap();
            assert!(t.elapsed() < Duration::from_secs(5));
            join.join().unwrap();
        }

        #[test]
        fn add_reports_unsupported() {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (poller, _waker) = Poller::new().unwrap();
            let err = poller
                .add(&stream, 0, crate::reactor::sys::EPOLLIN)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
            poller.del(&stream).unwrap();
        }
    }
}
