//! The load generator: the single parent process that spawns the server,
//! times its set-up, and drives the closed-loop rounds.
//!
//! Load shape: `nproc` connections, one generator thread each, a fixed
//! number of calls in flight per connection through
//! `Channel::call_pipelined`, replies reaped in issue order. One call in
//! flight leaves the cores idling between request and reply, and
//! idle→wake is the noisiest thing on a small shared host; more threads
//! than cores measure the run queue instead of the system.

use crate::server::clock_ns;
use crate::stream::{self, Op, Stream, Workload, SIGN_ON};
use crate::trace::{Span, Tracer};
use crate::world::{Principals, World};
use psf_core::repo_service::PUBLISH;
use psf_drbac::entity::Subject;
use psf_drbac::SignedDelegation;
use psf_switchboard::{connect_tcp, AuthSuite, Channel, ChannelConfig, PendingCall};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One traced request in this many (all spans of a sampled request are
/// kept).
pub const TRACE_SAMPLE: u64 = 16;

/// Counters from one `stats` reply of the server.
pub type Stats = HashMap<String, u64>;

/// The server child process and its control pipe.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Where the running server listens.
    addr: Option<String>,
}

impl Server {
    /// Spawn `psf-bench serve` (this executable) on `dir`.
    pub fn spawn(dir: &Path, seed: u64) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .arg("--seed")
            .arg(seed.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server {
            child,
            stdin,
            stdout,
            addr: None,
        })
    }

    fn send(&mut self, command: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("server already shut down")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("server control pipe: {e}"))
    }

    fn receive(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited (see its stderr above)".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("server control pipe: {e}")),
        }
    }

    fn expect(&mut self, reply: &str) -> Result<(), String> {
        let line = self.receive()?;
        if line == reply {
            Ok(())
        } else {
            Err(format!("server said '{line}', expected '{reply}'"))
        }
    }

    fn listening_port(&mut self) -> Result<u16, String> {
        let line = self.receive()?;
        line.strip_prefix("listening ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("server said '{line}', expected a port"))
    }

    /// Bring the server up and connect `conns` secure channels to it, one
    /// after another.
    pub fn start(&mut self, conns: usize, suite: &AuthSuite) -> Result<Vec<Channel>, String> {
        self.send(&format!("start {conns}"))?;
        let addr = format!("127.0.0.1:{}", self.listening_port()?);
        self.addr = Some(addr.clone());
        let channels = (0..conns)
            .map(|_| {
                connect_tcp(&addr, suite, ChannelConfig::default())
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.expect("ready")?;
        Ok(channels)
    }

    /// Connect one more secure channel to the running server.
    pub fn start_extra(&mut self, suite: &AuthSuite) -> Result<Channel, String> {
        let addr = self.addr.clone().ok_or("server not started")?;
        self.send("accept")?;
        let channel = connect_tcp(&addr, suite, ChannelConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        self.expect("ready")?;
        Ok(channel)
    }

    /// Connect one more channel without the secure record layer.
    pub fn connect_plain(&mut self) -> Result<Channel, String> {
        self.send("plain")?;
        let addr = format!("127.0.0.1:{}", self.listening_port()?);
        let stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let transport = psf_switchboard::TcpTransport::new(stream).map_err(|e| e.to_string())?;
        let channel =
            psf_switchboard::establish_plain(Box::new(transport), ChannelConfig::default());
        self.expect("ready")?;
        Ok(channel)
    }

    /// Tear down what `start` brought up (the caller drops its channels).
    pub fn stop(&mut self) -> Result<(), String> {
        self.send("stop")?;
        self.expect("stopped")
    }

    /// The server's counters now.
    pub fn stats(&mut self) -> Result<Stats, String> {
        self.send("stats")?;
        let line = self.receive()?;
        let rest = line
            .strip_prefix("stats ")
            .ok_or_else(|| format!("server said '{line}', expected stats"))?;
        Ok(rest
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }

    /// Collect (and clear) the server's spans of traced requests.
    pub fn spans(&mut self) -> Result<Vec<Span>, String> {
        self.send("spans")?;
        let mut out = Vec::new();
        loop {
            let line = self.receive()?;
            if line == "end" {
                return Ok(out);
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["span", request, name, start, end] => out.push(Span::server(
                    request.parse().map_err(|_| "bad span request")?,
                    name,
                    start.parse().map_err(|_| "bad span start")?,
                    end.parse().map_err(|_| "bad span end")?,
                )?),
                _ => return Err(format!("server said '{line}', expected a span")),
            }
        }
    }

    /// Close the control pipe and wait for the server to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with the pipe still open only on an error path: make
        // sure no server outlives the benchmark.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One timed set-up: server `start` (WAL replay → registry/ACL/cache →
/// listen → sequential accept + handshake) plus a warm-up pass that signs
/// on every hot subject once, from "start" to the last warm-up reply.
pub fn timed_setup(
    server: &mut Server,
    world: &World,
    suite: &AuthSuite,
    conns: usize,
) -> Result<(Duration, Vec<Channel>), String> {
    let t0 = Instant::now();
    let channels = server.start(conns, suite)?;
    let hot: Vec<_> = world.hot(world.params.hot).collect();
    for (i, channel) in channels.iter().enumerate() {
        let share: Vec<_> = hot.iter().skip(i).step_by(conns).collect();
        let args: Vec<Vec<u8>> = share
            .iter()
            .map(|u| stream::encode_subject(0, &u.subject))
            .collect();
        let batch: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
        for (user, reply) in share.iter().zip(channel.call_many(SIGN_ON, &batch, 8)) {
            let reply = reply.map_err(|e| format!("warm-up sign-on: {e}"))?;
            if reply != user.expected_view().as_bytes() {
                return Err(format!(
                    "warm-up sign-on of {} answered '{}', expected '{}'",
                    user.subject.render(),
                    String::from_utf8_lossy(&reply),
                    user.expected_view()
                ));
            }
        }
    }
    Ok((t0.elapsed(), channels))
}

/// Request classes, for the per-class latency rows of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `bench.sign_on`.
    SignOn = 0,
    /// `repo.publish`.
    Publish = 1,
    /// `bench.revoke`.
    Revoke = 2,
}

struct InFlight {
    call: PendingCall,
    issued: Instant,
    class: Class,
    /// The reply that counts as correct.
    expect: Vec<u8>,
    /// `(request id, request start, encode end)` on the span clock when
    /// this request is sampled.
    traced: Option<(u64, u64, u64)>,
}

/// One connection of the load generator with its stream position, so
/// that rounds continue where the previous one stopped.
pub struct Connection<'w> {
    index: usize,
    channel: Channel,
    stream: Stream<'w>,
    principals: &'w Principals,
    depth: usize,
    issued: u64,
    /// Credential ids of this connection's publishes, in publish order.
    published: Vec<String>,
    /// Acknowledged publishes and revocations, for the post-run WAL check.
    pub acked_publishes: Vec<String>,
    /// Credential ids whose revocation was acknowledged.
    pub acked_revocations: Vec<String>,
}

/// What one connection measured in one round.
#[derive(Debug, Default)]
pub struct RoundPart {
    /// Issue-to-reply of every correct reply, nanoseconds, by [`Class`].
    pub latency_ns: [Vec<u32>; 3],
    /// Requests issued.
    pub attempted: u64,
    /// Wrong view, wrong id, error or timeout.
    pub failed: u64,
    /// From first issue to last reply.
    pub elapsed: Duration,
    /// Σ ACL rules the oracle says the server tried.
    pub rules_tried: u64,
}

impl<'w> Connection<'w> {
    /// Wrap connection `index` of `conns`.
    pub fn new(
        world: &'w World,
        workload: Workload,
        index: usize,
        conns: usize,
        depth: usize,
        channel: Channel,
    ) -> Connection<'w> {
        Connection {
            index,
            channel,
            stream: Stream::new(world, workload, index, conns),
            principals: &world.principals,
            depth,
            issued: 0,
            published: Vec::new(),
            acked_publishes: Vec::new(),
            acked_revocations: Vec::new(),
        }
    }

    /// Give the channel back (the lone-user probe hands it on).
    pub fn into_channel(self) -> Channel {
        self.channel
    }

    fn issue(&mut self, tracer: Option<&Tracer>, part: &mut RoundPart) -> Result<InFlight, String> {
        let op = self.stream.next_op();
        self.issued += 1;
        part.attempted += 1;
        // Request ids are unique across connections and never zero.
        // Sampled by a hash of the position, not its remainder: publishes
        // and revocations recur at fixed strides of the stream.
        let traced = tracer
            .filter(|_| {
                self.issued.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32 < (1 << 32) / TRACE_SAMPLE
            })
            .map(|_| ((self.index as u64 + 1) << 40) | self.issued);
        let request = traced.unwrap_or(0);
        // Signing a fresh grant is making the input, not using the
        // system: it happens before the clock starts. Encoding is the
        // library's wire format and is inside.
        enum Prepared {
            SignOn(Subject),
            Publish(SignedDelegation),
            Revoke(String),
        }
        let (class, prepared, expect) = match op {
            Op::SignOn {
                subject,
                expect,
                rules_tried,
            } => {
                part.rules_tried += rules_tried as u64;
                (
                    Class::SignOn,
                    Prepared::SignOn(subject),
                    expect.as_bytes().to_vec(),
                )
            }
            Op::Publish {
                subject,
                class,
                third_party,
            } => {
                let grant = self.principals.leaf_grant(&subject, class, third_party);
                let id = grant.id();
                self.published.push(id.clone());
                (Class::Publish, Prepared::Publish(grant), id.into_bytes())
            }
            Op::Revoke { published } => {
                let id = self.published[published].clone();
                (Class::Revoke, Prepared::Revoke(id.clone()), id.into_bytes())
            }
        };
        // Only sampled requests read the span clock.
        let stamp = || if traced.is_some() { clock_ns() } else { 0 };
        let issued = Instant::now();
        let started = stamp();
        let (method, args) = match &prepared {
            Prepared::SignOn(subject) => (SIGN_ON, stream::encode_subject(request, subject)),
            Prepared::Publish(grant) => (PUBLISH, stream::encode_publish(grant)),
            Prepared::Revoke(id) => (stream::REVOKE, stream::encode_revoke(request, id)),
        };
        let encoded = stamp();
        let call = self
            .channel
            .call_pipelined(method, &args)
            .map_err(|e| format!("issue {method}: {e}"))?;
        Ok(InFlight {
            call,
            issued,
            class,
            expect,
            traced: traced.map(|r| (r, started, encoded)),
        })
    }

    fn reap(&mut self, flight: InFlight, tracer: Option<&Tracer>, part: &mut RoundPart) {
        let reply = flight.call.wait();
        let latency = flight.issued.elapsed();
        if let (Some(tracer), Some((request, started, encoded))) = (tracer, flight.traced) {
            tracer.client_request(request, flight.class, started, encoded, clock_ns());
        }
        match reply {
            Ok(bytes) if bytes == flight.expect => {
                part.latency_ns[flight.class as usize]
                    .push(latency.as_nanos().min(u128::from(u32::MAX)) as u32);
                let acked = match flight.class {
                    Class::Publish => &mut self.acked_publishes,
                    Class::Revoke => &mut self.acked_revocations,
                    Class::SignOn => return,
                };
                acked.push(String::from_utf8(flight.expect).expect("credential ids are hex"));
            }
            _ => part.failed += 1,
        }
    }

    /// Keep `depth` calls in flight until `end`, then drain.
    pub fn run_round(&mut self, end: End, tracer: Option<&Tracer>) -> Result<RoundPart, String> {
        let mut part = RoundPart::default();
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(self.depth);
        let start = Instant::now();
        let depth = self.depth as u64;
        let going = |part: &RoundPart| match end {
            End::At(deadline) => Instant::now() < deadline,
            End::After(ops) => part.attempted + depth <= ops,
        };
        while going(&part) {
            while in_flight.len() < self.depth {
                let flight = self.issue(tracer, &mut part)?;
                in_flight.push_back(flight);
            }
            let oldest = in_flight.pop_front().expect("depth is at least one");
            self.reap(oldest, tracer, &mut part);
        }
        for flight in in_flight {
            self.reap(flight, tracer, &mut part);
        }
        part.elapsed = start.elapsed();
        Ok(part)
    }
}

/// When a round ends.
#[derive(Debug, Clone, Copy)]
pub enum End {
    /// At this instant.
    At(Instant),
    /// After this many requests on each connection (to within the depth).
    After(u64),
}

/// Run one round on every connection at once, one thread each.
pub fn run_round(
    connections: &mut [Connection<'_>],
    end: End,
    tracer: Option<&Tracer>,
) -> Result<Vec<RoundPart>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|c| scope.spawn(move || c.run_round(end, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "generator thread panicked".to_string())?
            })
            .collect()
    })
}

/// A round of `length` on every connection.
pub fn timed_round(
    connections: &mut [Connection<'_>],
    length: Duration,
    tracer: Option<&Tracer>,
) -> Result<Vec<RoundPart>, String> {
    run_round(connections, End::At(Instant::now() + length), tracer)
}
