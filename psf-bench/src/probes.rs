//! Probes: fixed loops of direct calls into one layer's public functions,
//! run after the rounds of a traced run. They put a price on the pieces
//! the trace can only see from outside (AEAD, signatures, the engine, the
//! repository, the WAL) so that a change in an end-to-end number can be
//! walked down to the layer that moved.
//!
//! Probes run in the load generator's process on a side world of
//! [`PROBE_USERS`] users; only the echo, handshake and repository-service
//! probes touch the server.

use crate::world::{synthetic_subject, World, CLASSES};
use psf_crypto::aead::ChaCha20Poly1305;
use psf_drbac::entity::Subject;
use psf_drbac::proof::ProofEngine;
use psf_drbac::wire::Reader;
use psf_drbac::{
    check_certificate, check_certificate_memo, AuthCache, FsyncPolicy, Repository, RevocationBus,
    ShardedDurableRepository, SignedDelegation, WalConfig, DEFAULT_SHARD_COUNT,
};
use psf_switchboard::{connect_tcp, listen_tcp, AuthSuite, Channel, ChannelConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Users of the side world the engine and repository probes run on.
const PROBE_USERS: usize = 512;
/// Timed batches per probe; the reported value is the median batch.
const BATCHES: usize = 5;

/// Times fixed loops; `smoke` shrinks every loop eightfold for the
/// `--smoke` set, which checks that the probes run, not what they read.
struct Timer {
    smoke: bool,
}

impl Timer {
    fn iters(&self, iters: usize) -> usize {
        if self.smoke {
            (iters / 8).max(4)
        } else {
            iters
        }
    }

    /// Median over [`BATCHES`] batches of the mean time of one call, µs.
    fn per_call_us(&self, iters: usize, mut f: impl FnMut(usize)) -> f64 {
        let iters = self.iters(iters);
        crate::median(
            (0..BATCHES)
                .map(|b| {
                    let t = Instant::now();
                    for i in 0..iters {
                        f(b * iters + i);
                    }
                    t.elapsed().as_secs_f64() * 1e6 / iters as f64
                })
                .collect(),
        )
    }
}

/// The side world: principals of the real one, a small in-memory
/// repository, and the users whose grants it holds.
struct Side<'w> {
    world: &'w World,
    repo: Repository,
    bus: RevocationBus,
    /// `(subject, class, grant)` of every granted probe user.
    users: Vec<(Subject, usize, SignedDelegation)>,
}

impl<'w> Side<'w> {
    fn new(world: &'w World) -> Side<'w> {
        let p = &world.principals;
        let repo = Repository::new();
        for cred in p.chain_credentials() {
            repo.publish_at_issuer(cred);
        }
        let users: Vec<_> = (0..PROBE_USERS)
            .map(|i| {
                let subject = synthetic_subject(world.seed, &format!("probe{i}"));
                let class = i % CLASSES.len();
                let grant = p.leaf_grant(&subject, class, i % 4 == 0);
                repo.publish_at_issuer(grant.clone());
                (subject, class, grant)
            })
            .collect();
        Side {
            world,
            repo,
            bus: RevocationBus::new(),
            users,
        }
    }

    fn target(&self, class: usize) -> psf_drbac::RoleName {
        self.world.principals.org.role(CLASSES[class].0)
    }
}

/// Direct-call probes that need no server. `frame_len` is the mean wire
/// frame of the workload just measured, so the AEAD rows are priced at
/// the size the workload actually sends; `smoke` shortens the loops.
pub fn local(
    world: &World,
    frame_len: usize,
    scratch: &Path,
    smoke: bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let timer = Timer { smoke };
    let mut out = BTreeMap::new();
    let side = Side::new(world);
    let p = &world.principals;
    let n = side.users.len();

    // crypto.* -----------------------------------------------------------
    let aead = ChaCha20Poly1305::new([7u8; 32]);
    let nonce = [1u8; 12];
    let payload = vec![0x5au8; frame_len.max(32)];
    let mut buf = Vec::with_capacity(payload.len() + 16);
    out.insert(
        "crypto.aead.seal_us",
        timer.per_call_us(20_000, |_| {
            buf.clear();
            buf.extend_from_slice(&payload);
            aead.seal_in_place(&nonce, b"swbd-record", &mut buf, 8);
            black_box(&buf);
        }),
    );
    let mut sealed = payload.clone();
    aead.seal_in_place(&nonce, b"swbd-record", &mut sealed, 8);
    out.insert(
        "crypto.aead.open_us",
        timer.per_call_us(20_000, |_| {
            buf.clear();
            buf.extend_from_slice(&sealed[8..]);
            black_box(aead.open_in_place(&nonce, b"swbd-record", &mut buf).is_ok());
        }),
    );
    let leaf_key = p.leaf_domain().public_key();
    let self_signed: Vec<&SignedDelegation> = side
        .users
        .iter()
        .map(|u| &u.2)
        .filter(|g| g.body.issuer == p.leaf_domain().name)
        .collect();
    out.insert(
        "crypto.ed25519.verify_us",
        timer.per_call_us(40, |i| {
            black_box(
                self_signed[i % self_signed.len()]
                    .verify_signature(&leaf_key)
                    .is_ok(),
            );
        }),
    );
    let body = side.users[0].2.body.encode();
    out.insert(
        "crypto.ed25519.sign_us",
        timer.per_call_us(100, |_| {
            black_box(p.leaf_domain().sign(black_box(&body)));
        }),
    );
    let peer = psf_crypto::x25519::x25519_base(&[9u8; 32]);
    out.insert(
        "crypto.x25519.dh_us",
        timer.per_call_us(50, |i| {
            let mut k = [3u8; 32];
            k[0] = i as u8;
            black_box(psf_crypto::x25519::x25519(&k, &peer));
        }),
    );

    // drbac.wire.* -------------------------------------------------------
    out.insert(
        "drbac.wire.encode_us",
        timer.per_call_us(5_000, |i| {
            black_box(side.users[i % n].2.to_wire());
        }),
    );
    let wires: Vec<Vec<u8>> = side.users.iter().map(|u| u.2.to_wire()).collect();
    out.insert(
        "drbac.wire.decode_us",
        timer.per_call_us(5_000, |i| {
            black_box(SignedDelegation::from_wire(&mut Reader::new(&wires[i % n])).is_ok());
        }),
    );

    // drbac.proof.*, drbac.certify.*, cert.* -----------------------------
    let engine = ProofEngine::new(&p.registry, &side.repo, &side.bus, 0);
    let prove_cold = timer.per_call_us(40, |i| {
        let (subject, class, _) = &side.users[i % n];
        black_box(engine.prove(subject, &side.target(*class), &[]).is_ok());
    });
    out.insert("drbac.proof.prove_cold_us", prove_cold);
    let certified = timer.per_call_us(40, |i| {
        let (subject, class, _) = &side.users[i % n];
        black_box(
            engine
                .prove_certified(subject, &side.target(*class), &[])
                .is_ok(),
        );
    });
    out.insert("drbac.certify.emit_us", (certified - prove_cold).max(0.0));
    let cache = AuthCache::new();
    let warm_engine = ProofEngine::with_cache(&p.registry, &side.repo, &side.bus, 0, &cache);
    let hot = 64;
    for (subject, class, _) in &side.users[..hot] {
        warm_engine
            .prove(subject, &side.target(*class), &[])
            .map_err(|e| format!("probe prove: {e}"))?;
    }
    out.insert(
        "drbac.proof.prove_warm_us",
        timer.per_call_us(5_000, |i| {
            let (subject, class, _) = &side.users[i % hot];
            black_box(
                warm_engine
                    .prove(subject, &side.target(*class), &[])
                    .is_ok(),
            );
        }),
    );
    let certs: Vec<_> = side.users[..hot]
        .iter()
        .map(|(subject, class, _)| {
            engine
                .prove_certified(subject, &side.target(*class), &[])
                .map(|(_, cert, _)| cert)
                .map_err(|e| format!("probe certify: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let epoch = Some(side.repo.epoch());
    out.insert(
        "cert.check_cold_us",
        timer.per_call_us(12, |i| {
            black_box(check_certificate(&certs[i % hot], &p.registry, &side.bus, 0, epoch).is_ok());
        }),
    );
    let memo = psf_cert::CheckMemo::new(4096);
    for cert in &certs {
        check_certificate_memo(cert, &p.registry, &side.bus, 0, epoch, Some(&memo))
            .map_err(|e| format!("probe check: {e}"))?;
    }
    out.insert(
        "cert.check_warm_us",
        timer.per_call_us(1_000, |i| {
            black_box(
                check_certificate_memo(
                    &certs[i % hot],
                    &p.registry,
                    &side.bus,
                    0,
                    epoch,
                    Some(&memo),
                )
                .is_ok(),
            );
        }),
    );

    // views.mint_us, drbac.revocation.watchers_growth_b_per_op ------------
    let acl = &p.acl;
    let select = timer.per_call_us(1_000, |i| {
        let subject = &side.users[i % hot].0;
        black_box(acl.select_view_cached(
            subject,
            &[],
            &p.registry,
            &side.repo,
            &side.bus,
            0,
            &cache,
        ));
    });
    let rss_before = crate::procfs::sample_self().rss_kb;
    let mint = timer.per_call_us(4_000, |i| {
        let subject = &side.users[i % hot].0;
        black_box(acl.authorize_once_cached(
            subject,
            &[],
            &p.registry,
            &side.repo,
            &side.bus,
            0,
            &cache,
        ));
    });
    let rss_after = crate::procfs::sample_self().rss_kb;
    out.insert("views.mint_us", (mint - select).max(0.0));
    out.insert(
        "drbac.revocation.watchers_growth_b_per_op",
        rss_after.saturating_sub(rss_before) as f64 * 1024.0
            / (BATCHES * timer.iters(4_000)) as f64,
    );

    // drbac.repository.* -------------------------------------------------
    out.insert(
        "drbac.repository.query_by_subject_us",
        timer.per_call_us(20_000, |i| {
            black_box(side.repo.query_by_subject(&side.users[i % n].0));
        }),
    );
    out.insert(
        "drbac.repository.query_by_object_us",
        timer.per_call_us(200, |i| {
            black_box(side.repo.query_by_object(&side.target(i % CLASSES.len())));
        }),
    );
    let fresh: Vec<SignedDelegation> = (0..BATCHES * 40)
        .map(|i| {
            let subject = synthetic_subject(world.seed, &format!("probe-pub{i}"));
            p.leaf_grant(&subject, i % CLASSES.len(), false)
        })
        .collect();
    let publish_mem = timer.per_call_us(40, |i| {
        side.repo.publish_at_issuer(fresh[i].clone());
    });
    out.insert("drbac.repository.publish_mem_us", publish_mem);

    // drbac.wal.publish_us: a durable publish on a side directory, minus
    // the in-memory publish it wraps.
    let side_dir = scratch.join("probe-wal");
    let (durable, _) = ShardedDurableRepository::open(
        &side_dir,
        DEFAULT_SHARD_COUNT,
        WalConfig {
            fsync: FsyncPolicy::Always,
            auto_compact_appends: None,
        },
    )
    .map_err(|e| format!("open {}: {e}", side_dir.display()))?;
    let publish_durable = timer.per_call_us(40, |i| {
        durable.repository().publish_at_issuer(fresh[i].clone());
    });
    out.insert(
        "drbac.wal.publish_us",
        (publish_durable - publish_mem).max(0.0),
    );
    drop(durable);
    std::fs::remove_dir_all(&side_dir)
        .map_err(|e| format!("remove {}: {e}", side_dir.display()))?;
    Ok(out)
}

/// Connection set-up probes: `cycles` secure connect/accept/close cycles
/// against an acceptor thread in this process. Returns the medians of
/// `(handshake_us, accept_us, close_us)`: the initiator's `connect_tcp`,
/// the acceptor's `accept` counted from the moment the initiator started,
/// and the initiator's `close`.
pub fn connection_cycles(
    client: &AuthSuite,
    server: &AuthSuite,
    cycles: usize,
) -> Result<(f64, f64, f64), String> {
    let listener = listen_tcp("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let (mut handshake, mut accept, mut close) = (Vec::new(), Vec::new(), Vec::new());
    std::thread::scope(|scope| -> Result<(), String> {
        let acceptor = scope.spawn(|| -> Result<Vec<(Instant, Channel)>, String> {
            (0..cycles)
                .map(|_| {
                    let channel = listener
                        .accept(server, ChannelConfig::default())
                        .map_err(|e| format!("probe accept: {e}"))?;
                    Ok((Instant::now(), channel))
                })
                .collect()
        });
        let mut starts = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let t = Instant::now();
            let channel = connect_tcp(&addr, client, ChannelConfig::default())
                .map_err(|e| format!("probe connect: {e}"))?;
            handshake.push(t.elapsed().as_secs_f64() * 1e6);
            starts.push(t);
            let t = Instant::now();
            channel.close();
            close.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let accepted = acceptor
            .join()
            .map_err(|_| "acceptor panicked".to_string())??;
        for (start, (done, _channel)) in starts.iter().zip(&accepted) {
            accept.push(done.saturating_duration_since(*start).as_secs_f64() * 1e6);
        }
        Ok(())
    })?;
    Ok((
        crate::median(handshake),
        crate::median(accept),
        crate::median(close),
    ))
}

/// Median latency of `calls` sequential calls of `method`, one in flight.
pub fn call_us(channel: &Channel, method: &str, args: &[u8], calls: usize) -> Result<f64, String> {
    let mut v = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        channel
            .call(method, args)
            .map_err(|e| format!("probe {method}: {e}"))?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::median(v))
}
