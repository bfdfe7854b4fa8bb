//! Exact per-op counts of single sign-on, the deterministic companion of
//! the timed end-to-end benchmark. Every request goes through the call the
//! benchmark server makes for a sign-on, `select_view_cached(&subject,
//! &[], …)` over one shared `AuthCache`, and the test asserts a committed
//! table of what each request shape costs: proof searches begun
//! (`psf.drbac.prove.calls`), the walk they made (nodes expanded,
//! credentials examined and repository queries), proof-table hits and
//! misses, decision-table hits, misses and inserts, and audit records
//! (`psf.audit.records`).
//!
//! A change that moves one of these counts must change the table below,
//! and say why. Counters are process-wide, so this file holds one test.
//!
//! The world has the benchmark's shape, in small: four view classes, each
//! a chain of role mappings `D3.Leaf{class} → D2 → D1 → Org.{class}`
//! shared by every user of the class, tried Admin first; one leaf grant
//! in four is a registrar's third-party grant resting on an assignment
//! delegation; one user in 32 holds no grant and is denied.

use psf_drbac::entity::{Entity, EntityRegistry, Subject};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{AuthCache, CacheStats, DelegationBuilder};
use psf_views::ViewAcl;

const CLASSES: [&str; 4] = ["Admin", "Member", "Partner", "Guest"];
/// Users of the world: the first `HOT` make the warm shape, the rest the
/// cold one.
const USERS: usize = 384;
const HOT: usize = 128;
/// Passes over the hot set after its first two sightings.
const STEADY_PASSES: u64 = 4;

struct World {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    acl: ViewAcl,
    users: Vec<Subject>,
}

impl World {
    fn new() -> World {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let entity = |name: &str| {
            let e = Entity::with_seed(name, b"op-counts");
            registry.register(&e);
            e
        };
        let domains = ["Org", "D1", "D2", "D3"].map(entity);
        let registrar = entity("Registrar");
        let mut acl = ViewAcl::new();
        for class in CLASSES {
            acl = acl.rule(domains[0].role(class), format!("view.{class}"));
            let roles: Vec<_> = (0..4)
                .map(|d| match d {
                    0 => domains[0].role(class),
                    3 => domains[3].role(format!("Leaf{class}")),
                    _ => domains[d].role(format!("{class}{d}")),
                })
                .collect();
            for d in 0..3 {
                repo.publish_at_issuer(
                    DelegationBuilder::new(&domains[d])
                        .subject_role(roles[d + 1].clone())
                        .role(roles[d].clone())
                        .sign(),
                );
            }
            repo.publish_at_issuer(
                DelegationBuilder::new(&domains[3])
                    .subject_entity(&registrar)
                    .assignment()
                    .role(roles[3].clone())
                    .sign(),
            );
        }
        let users = (0..USERS)
            .map(|i| {
                let user = entity(&format!("user{i}"));
                let class = i % CLASSES.len();
                if i % 32 == 31 {
                    return user.as_subject();
                }
                let issuer = if i % 4 == 1 { &registrar } else { &domains[3] };
                repo.publish_at_issuer(
                    DelegationBuilder::new(issuer)
                        .subject_entity(&user)
                        .role(domains[3].role(format!("Leaf{}", CLASSES[class])))
                        .sign(),
                );
                user.as_subject()
            })
            .collect();
        World {
            registry,
            repo,
            bus: RevocationBus::new(),
            acl,
            users,
        }
    }
}

/// What one phase of sign-ons cost, in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    ops: u64,
    prove_calls: u64,
    nodes: u64,
    creds: u64,
    queries: u64,
    proof_hits: u64,
    proof_misses: u64,
    walk_hits: u64,
    walk_misses: u64,
    decision_hits: u64,
    decision_misses: u64,
    decision_inserts: u64,
    audit_records: u64,
}

/// Process-wide counters: prove calls, nodes expanded, credentials
/// examined, audit records.
fn counters() -> [u64; 4] {
    let registry = psf_telemetry::registry();
    [
        "psf.drbac.prove.calls",
        "psf.drbac.nodes.expanded",
        "psf.drbac.creds.examined",
        "psf.audit.records",
    ]
    .map(|name| registry.counter_value(name))
}

/// Sign every user of `users` on once, `passes` times over, through one
/// cache, and count what it cost.
fn run(w: &World, cache: &AuthCache, users: &[Subject], passes: u64) -> Counts {
    let (before, counted, queries) = (cache.stats(), counters(), w.repo.stats().queries);
    for _ in 0..passes {
        for subject in users {
            let view =
                w.acl
                    .select_view_cached(subject, &[], &w.registry, &w.repo, &w.bus, 0, cache);
            std::hint::black_box(view);
        }
    }
    let (after, counted_after) = (cache.stats(), counters());
    let d = |f: fn(&CacheStats) -> u64| f(&after) - f(&before);
    let [calls, nodes, creds, audits] = [0, 1, 2, 3].map(|i| counted_after[i] - counted[i]);
    Counts {
        ops: passes * users.len() as u64,
        prove_calls: calls,
        nodes,
        creds,
        queries: w.repo.stats().queries - queries,
        proof_hits: d(|s| s.proof_hits),
        proof_misses: d(|s| s.proof_misses),
        walk_hits: d(|s| s.walk_hits),
        walk_misses: d(|s| s.walk_misses),
        decision_hits: d(|s| s.decision_hits),
        decision_misses: d(|s| s.decision_misses),
        decision_inserts: d(|s| s.decision_inserts),
        audit_records: audits,
    }
}

/// The committed table: totals per phase. A class-`c` user tries `c + 1`
/// rules and a denied one all four, 2.5 per sign-on here (the benchmark's
/// world reads ≈ 2.6). A first sighting searches every rule it tries and
/// stores nothing; the second finds every rule in the proof table and
/// stores the decision; after that a sign-on is one decision hit and one
/// audit record, where deciding one rule at a time cost 2.5 prove calls
/// and 3.5 audit records.
///
/// A search expands its subject, then asks the proof table for the walk
/// beyond the subject's one leaf role (a *shared walk*, counted as a walk
/// hit or miss apart from the subject's own proof lookup; a denied user
/// has no leaf and walks alone). So once a `(leaf role, target)` pair has been seen, a
/// search is one node: one query for the subject's key, one more for the
/// registrar's when the leaf grant is third-party (the users with
/// `i % 4 == 1`, all of class 1), and one credential examined per query,
/// none on a denied user's empty key. The first sighting of the ten pairs
/// walks them: 3 nodes and 3 credentials for each of the four chains that
/// reach their target, 4 and 3 for each of the six that fail, 36 nodes in
/// all. The cold pass sees no new pair:
/// 640 searches expand 640 nodes, 608 of them splice from a walk hit and
/// the 32 of the 8 denied users do not. Walking each chain again, as every
/// search did before shared walks were kept, cost the cold pass 2 824 nodes,
/// 2 560 credentials and 2 952 queries (11.0, 10.0 and 11.5 per sign-on).
const TABLE: [(&str, Counts); 4] = [
    (
        "warm, first sighting",
        Counts {
            ops: 128,
            prove_calls: 320,
            nodes: 356,
            creds: 398,
            queries: 420,
            proof_hits: 0,
            proof_misses: 320,
            walk_hits: 294,
            walk_misses: 10,
            decision_hits: 0,
            decision_misses: 128,
            decision_inserts: 0,
            audit_records: 448,
        },
    ),
    (
        "warm, second sighting",
        Counts {
            ops: 128,
            prove_calls: 320,
            nodes: 0,
            creds: 0,
            queries: 0,
            proof_hits: 320,
            proof_misses: 0,
            walk_hits: 0,
            walk_misses: 0,
            decision_hits: 0,
            decision_misses: 128,
            decision_inserts: 128,
            audit_records: 448,
        },
    ),
    (
        "warm, steady",
        Counts {
            ops: 512,
            prove_calls: 0,
            nodes: 0,
            creds: 0,
            queries: 0,
            proof_hits: 0,
            proof_misses: 0,
            walk_hits: 0,
            walk_misses: 0,
            decision_hits: 512,
            decision_misses: 0,
            decision_inserts: 0,
            audit_records: 512,
        },
    ),
    (
        "cold, one pass",
        Counts {
            ops: 256,
            prove_calls: 640,
            nodes: 640,
            creds: 736,
            queries: 768,
            proof_hits: 0,
            proof_misses: 640,
            walk_hits: 608,
            walk_misses: 0,
            decision_hits: 0,
            decision_misses: 256,
            decision_inserts: 0,
            audit_records: 896,
        },
    ),
];

#[test]
fn sign_on_counts_match_the_committed_table() {
    let w = World::new();
    let (hot, cold) = w.users.split_at(HOT);
    let cache = AuthCache::new();
    let measured = [
        run(&w, &cache, hot, 1),
        run(&w, &cache, hot, 1),
        run(&w, &cache, hot, STEADY_PASSES),
        run(&w, &cache, cold, 1),
    ];
    for ((name, _), got) in TABLE.iter().zip(measured) {
        let per_op = |v: u64| v as f64 / got.ops as f64;
        eprintln!(
            "{name:<22} ops {:>4}  prove/op {:.3}  nodes/creds/queries per op {:.3}/{:.3}/{:.3}  \
             proof hit/miss per op {:.3}/{:.3}  walk hit/miss per op {:.3}/{:.3}  \
             decision hit/miss/insert per op {:.3}/{:.3}/{:.3}  audit/op {:.3}",
            got.ops,
            per_op(got.prove_calls),
            per_op(got.nodes),
            per_op(got.creds),
            per_op(got.queries),
            per_op(got.proof_hits),
            per_op(got.proof_misses),
            per_op(got.walk_hits),
            per_op(got.walk_misses),
            per_op(got.decision_hits),
            per_op(got.decision_misses),
            per_op(got.decision_inserts),
            per_op(got.audit_records),
        );
    }
    for ((name, want), got) in TABLE.iter().zip(measured) {
        assert_eq!(got, *want, "{name}");
    }
}
