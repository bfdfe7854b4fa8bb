//! The four traffic mixes: per-connection request streams drawn from the
//! world, and the wire form of each request.
//!
//! A stream is a pure function of `(world, workload, connection index,
//! connection count)`, so the same seed replays the same requests in the
//! same order; [`digest`] condenses a prefix of it for the determinism
//! test. Streams never end — the generator decides when to stop.

use crate::world::{synthetic_subject, World, CLASSES, DENIED};
use psf_drbac::entity::{EntityName, Subject};
use psf_drbac::wire::Reader;
use psf_drbac::{DiscoveryTag, SignedDelegation};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// RPC method of the benchmark's sign-on handler.
pub const SIGN_ON: &str = "bench.sign_on";
/// RPC method of the benchmark's revocation handler.
pub const REVOKE: &str = "bench.revoke";
/// RPC method of the empty handler the echo probe calls.
pub const ECHO: &str = "bench.echo";

/// In `sso_publish_mix`, one op in this many (per connection) is a publish.
pub const MIX_PUBLISH_EVERY: u64 = 128;
/// In `sso_publish_mix`, one op in this many is a revocation of a grant
/// the same connection published: one publish in four is later revoked.
pub const MIX_REVOKE_EVERY: u64 = 4 * MIX_PUBLISH_EVERY;
/// In `sso_publish_mix`, one sign-on in this many goes to one of the
/// connection's own recently published subjects.
const MIX_OWN_SHARE: u32 = 8;
/// How many of its own published subjects a mix connection signs on.
const MIX_OWN_WINDOW: usize = 8;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot subjects: every proof lookup hits.
    SsoWarm,
    /// All subjects round-robin: every proof lookup misses.
    SsoCold,
    /// Signed grants for fresh subjects, one fsync each.
    PublishDurable,
    /// Hot sign-ons beside publishes and revocations.
    SsoPublishMix,
}

impl Workload {
    /// Every workload, in the order a set runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SsoWarm,
        Workload::SsoCold,
        Workload::PublishDurable,
        Workload::SsoPublishMix,
    ];

    /// The workloads `BENCHMARK.json` gives the driver. `publish_durable`
    /// is not among them: every one of its timings waits on an fsync of a
    /// shared virtual disk whose latency alone wanders fourfold from one
    /// second to the next (REPEATABILITY.md), `BENCHMARK.json` holds one
    /// metric list for all workloads, and the driver refuses a benchmark
    /// whose spread leaves its bound. It stays a workload of `psf-bench`.
    pub const GATED: [Workload; 3] = [
        Workload::SsoWarm,
        Workload::SsoCold,
        Workload::SsoPublishMix,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SsoWarm => "sso_warm",
            Workload::SsoCold => "sso_cold",
            Workload::PublishDurable => "publish_durable",
            Workload::SsoPublishMix => "sso_publish_mix",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SsoWarm => "128 hot subjects at depth 8: every proof lookup hits, so secure channel, RPC codec and reactor do the work; channel-engine and AEAD changes show here.",
            Workload::SsoCold => "All 16384 subjects round-robin at depth 8: the working set exceeds the proof and credential caches, so proof search, Ed25519, repository and select_view do the work.",
            Workload::PublishDurable => "Signed grants for fresh subjects at depth 1 under FsyncPolicy::Always: the only workload where the WAL and the disk do the work; sign-on optimisations must not move it.",
            Workload::SsoPublishMix => "Hot sign-ons beside durable publishes and revocations on the same cache, shard and WAL: coarser invalidation or a longer write lock that helps one side and costs the other shows here.",
        }
    }

    /// Parse a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Calls in flight per connection. The smallest depth at which
    /// `ops_per_s` stops rising by 5 % for sign-ons; 1 for durable
    /// publishes, which only queue behind the fsync when pipelined
    /// because handlers run inline on the shard thread.
    pub fn depth(self) -> usize {
        match self {
            Workload::PublishDurable => 1,
            _ => 8,
        }
    }
}

/// One request, before signing and encoding.
#[derive(Debug, Clone)]
pub enum Op {
    /// Ask which view `subject` gets; the reply must equal `expect`.
    SignOn {
        /// Who signs on.
        subject: Subject,
        /// The view the oracle expects.
        expect: &'static str,
        /// ACL rules the server tries for it.
        rules_tried: usize,
    },
    /// Publish a fresh leaf grant; the ack must equal its credential id.
    Publish {
        /// The fresh subject.
        subject: Subject,
        /// Its view class.
        class: usize,
        /// Whether the registrar issues it.
        third_party: bool,
    },
    /// Revoke the `published`-th grant this connection published.
    Revoke {
        /// Index into the connection's publish history.
        published: usize,
    },
}

struct Published {
    subject: Subject,
    class: usize,
    revoked: bool,
}

/// One connection's endless request stream.
pub struct Stream<'w> {
    world: &'w World,
    workload: Workload,
    conn: usize,
    conns: usize,
    rng: StdRng,
    issued: u64,
    /// `sso_warm`: this connection's own shuffle of the hot set.
    hot: Vec<u32>,
    published: Vec<Published>,
}

impl<'w> Stream<'w> {
    /// The stream of connection `conn` out of `conns`.
    pub fn new(world: &'w World, workload: Workload, conn: usize, conns: usize) -> Stream<'w> {
        let mut rng = StdRng::seed_from_u64(
            world.seed ^ ((conn as u64 + 1) << 32) ^ (workload as u64 + 1).wrapping_mul(0x9e37),
        );
        let hot_len = match workload {
            Workload::SsoPublishMix => world.params.mix_hot,
            _ => world.params.hot,
        };
        let mut hot: Vec<u32> = world.order[..hot_len].to_vec();
        for i in (1..hot.len()).rev() {
            hot.swap(i, rng.random_range(0..i + 1));
        }
        Stream {
            world,
            workload,
            conn,
            conns,
            rng,
            issued: 0,
            hot,
            published: Vec::new(),
        }
    }

    fn sign_on(&self, user: usize) -> Op {
        let u = &self.world.users[user];
        Op::SignOn {
            subject: u.subject.clone(),
            expect: u.expected_view(),
            rules_tried: u.rules_tried(),
        }
    }

    fn publish(&mut self, prefix: char) -> Op {
        let name = format!("{prefix}{}-{}", self.conn, self.published.len());
        let subject = synthetic_subject(self.world.seed, &name);
        let roll = self.rng.next_u64();
        let class = (roll % 4) as usize;
        self.published.push(Published {
            subject: subject.clone(),
            class,
            revoked: false,
        });
        Op::Publish {
            subject,
            class,
            third_party: (roll >> 8).is_multiple_of(4),
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::SsoWarm => self.sign_on(self.hot[i as usize % self.hot.len()] as usize),
            Workload::SsoCold => {
                let order = &self.world.order;
                let at = (self.conn as u64 + i * self.conns as u64) % order.len() as u64;
                self.sign_on(order[at as usize] as usize)
            }
            Workload::PublishDurable => self.publish('p'),
            Workload::SsoPublishMix => {
                if i % MIX_PUBLISH_EVERY == MIX_PUBLISH_EVERY - 1 {
                    return self.publish('m');
                }
                // Half a publish period after a publish, revoke the newest
                // grant: it has had time to be signed on (and cached), and
                // it stays in the own-subject window long enough for later
                // sign-ons to come back denied.
                let newest = self.published.len().wrapping_sub(1);
                if i % MIX_REVOKE_EVERY == MIX_PUBLISH_EVERY / 2
                    && self.published.last().is_some_and(|p| !p.revoked)
                {
                    self.published[newest].revoked = true;
                    return Op::Revoke { published: newest };
                }
                if !self.published.is_empty() && self.rng.random_range(0..MIX_OWN_SHARE) == 0 {
                    let window = self.published.len().min(MIX_OWN_WINDOW);
                    let at = self.published.len() - 1 - self.rng.random_range(0..window);
                    let p = &self.published[at];
                    let (expect, rules_tried) = if p.revoked {
                        (DENIED, CLASSES.len())
                    } else {
                        (CLASSES[p.class].1, p.class + 1)
                    };
                    return Op::SignOn {
                        subject: p.subject.clone(),
                        expect,
                        rules_tried,
                    };
                }
                let at = self.rng.random_range(0..self.hot.len());
                self.sign_on(self.hot[at] as usize)
            }
        }
    }
}

/// FNV-1a digest of the first `ops` requests of every connection's
/// stream: kind, subject and expected outcome of each.
pub fn digest(world: &World, workload: Workload, conns: usize, ops: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for conn in 0..conns {
        let mut stream = Stream::new(world, workload, conn, conns);
        for _ in 0..ops {
            match stream.next_op() {
                Op::SignOn {
                    subject, expect, ..
                } => {
                    eat(b"S");
                    eat(&encode_subject(0, &subject));
                    eat(expect.as_bytes());
                }
                Op::Publish {
                    subject,
                    class,
                    third_party,
                } => {
                    eat(b"P");
                    eat(&encode_subject(0, &subject));
                    eat(&[class as u8, third_party as u8]);
                }
                Op::Revoke { published } => {
                    eat(b"R");
                    eat(&(published as u64).to_le_bytes());
                }
            }
        }
    }
    h
}

// ------------------------------------------------------------ wire form --

/// Sign-on arguments: `request id ‖ name length ‖ name ‖ key`. The request
/// id rides in the first eight bytes so the server can file its spans
/// under the request that caused them.
pub fn encode_subject(request: u64, subject: &Subject) -> Vec<u8> {
    let Subject::Entity { name, key } = subject else {
        panic!("sign-on subjects are keyed entities");
    };
    let mut out = Vec::with_capacity(8 + 4 + name.0.len() + 32);
    out.extend_from_slice(&request.to_le_bytes());
    out.extend_from_slice(&(name.0.len() as u32).to_le_bytes());
    out.extend_from_slice(name.0.as_bytes());
    out.extend_from_slice(key.as_bytes());
    out
}

/// Inverse of [`encode_subject`] (server side; input is untrusted).
pub fn decode_subject(args: &[u8]) -> Result<(u64, Subject), String> {
    let mut r = Reader::new(args);
    let request = r.u64().map_err(|e| e.to_string())?;
    let name = r.string().map_err(|e| e.to_string())?;
    let key: [u8; 32] = r.bytes().map_err(|e| e.to_string())?;
    if !r.finished() {
        return Err("trailing bytes in sign-on args".into());
    }
    Ok((
        request,
        Subject::Entity {
            name: EntityName(name),
            key: psf_crypto::ed25519::VerifyingKey(key),
        },
    ))
}

/// Revocation arguments: `request id ‖ credential id`.
pub fn encode_revoke(request: u64, credential_id: &str) -> Vec<u8> {
    let mut out = request.to_le_bytes().to_vec();
    out.extend_from_slice(credential_id.as_bytes());
    out
}

/// Arguments of the library's `repo.publish` handler, in the framing
/// `psf_core::repo_service` decodes (home, discovery tag, credential).
pub fn encode_publish(cred: &SignedDelegation) -> Vec<u8> {
    let home = &cred.body.issuer.0;
    let wire = cred.to_wire();
    let mut out = Vec::with_capacity(4 + home.len() + 1 + wire.len());
    out.extend_from_slice(&(home.len() as u32).to_le_bytes());
    out.extend_from_slice(home.as_bytes());
    out.push(DiscoveryTag::Both.to_byte());
    out.extend_from_slice(&wire);
    out
}
