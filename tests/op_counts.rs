//! Exact per-op counts of single sign-on, the deterministic companion of
//! the timed end-to-end benchmark. Every request goes through the call the
//! benchmark server makes for a sign-on, `select_view_cached(&subject,
//! &[], …)` over one shared `AuthCache`, and the test asserts a committed
//! table of what each request shape costs: proof searches begun
//! (`psf.drbac.prove.calls`), the walk they made (nodes expanded,
//! credentials examined and repository queries), proof-table hits,
//! misses, invalidations and inserts, walk hits and misses, signature
//! checks recalled and computed, decision-table hits, misses,
//! invalidations and inserts, audit records (`psf.audit.records`), spans
//! recorded (the global tracer's buffered plus evicted spans, counted the
//! way the benchmark counts audit records) and heap allocations.
//!
//! A change that moves one of these counts must change the table below,
//! and say why. Counters are process-wide, so this file holds one test,
//! and its binary counts allocations through its own global allocator.
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Heap allocations made by this process: calls of `alloc`,
/// `alloc_zeroed` and `realloc`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting into [`ALLOCATIONS`].
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CLASSES: [&str; 4] = ["Admin", "Member", "Partner", "Guest"];
/// Users of the world: the first `HOT` make the warm shape, the rest the
/// cold one.
const USERS: usize = 384;
const HOT: usize = 128;
/// Passes over the hot set after its first two sightings.
const STEADY_PASSES: u64 = 4;
/// The hot user whose leaf grant the mix shape revokes: class Member,
/// granted by the registrar.
const REVOKED: usize = 1;

struct World {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    acl: ViewAcl,
    users: Vec<Subject>,
    /// Id of each user's leaf grant, if it holds one.
    grants: Vec<Option<String>>,
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
        let (users, grants) = (0..USERS)
            .map(|i| {
                let user = entity(&format!("user{i}"));
                let class = i % CLASSES.len();
                if i % 32 == 31 {
                    return (user.as_subject(), None);
                }
                let issuer = if i % 4 == 1 { &registrar } else { &domains[3] };
                let grant = DelegationBuilder::new(issuer)
                    .subject_entity(&user)
                    .role(domains[3].role(format!("Leaf{}", CLASSES[class])))
                    .sign();
                let id = grant.id();
                repo.publish_at_issuer(grant);
                (user.as_subject(), Some(id))
            })
            .unzip();
        World {
            registry,
            repo,
            bus: RevocationBus::new(),
            acl,
            users,
            grants,
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
    proof_invalidations: u64,
    proof_inserts: u64,
    walk_hits: u64,
    walk_misses: u64,
    cred_hits: u64,
    cred_misses: u64,
    decision_hits: u64,
    decision_misses: u64,
    decision_invalidations: u64,
    decision_inserts: u64,
    audit_records: u64,
    spans: u64,
    allocations: u64,
}

/// Process-wide counts: prove calls, nodes expanded, credentials
/// examined, audit records, and spans recorded (buffered plus evicted).
fn counters() -> [u64; 5] {
    let registry = psf_telemetry::registry();
    let tracer = psf_telemetry::tracer();
    let [calls, nodes, creds, audits] = [
        "psf.drbac.prove.calls",
        "psf.drbac.nodes.expanded",
        "psf.drbac.creds.examined",
        "psf.audit.records",
    ]
    .map(|name| registry.counter_value(name));
    let spans = tracer.len() as u64 + tracer.dropped();
    [calls, nodes, creds, audits, spans]
}

/// Sign every user of `users` on once, `passes` times over, through one
/// cache, and count what it cost. Returns the counts and the views of the
/// last pass.
fn run(
    w: &World,
    cache: &AuthCache,
    users: &[Subject],
    passes: u64,
) -> (Counts, Vec<Option<String>>) {
    let (before, counted, queries) = (cache.stats(), counters(), w.repo.stats().queries);
    let mut views = Vec::with_capacity(users.len());
    let allocations = ALLOCATIONS.load(Relaxed);
    for _ in 0..passes {
        views.clear();
        for subject in users {
            let view =
                w.acl
                    .select_view_cached(subject, &[], &w.registry, &w.repo, &w.bus, 0, cache);
            views.push(std::hint::black_box(view).map(|(view, _)| view));
        }
    }
    let allocations = ALLOCATIONS.load(Relaxed) - allocations;
    let (after, counted_after) = (cache.stats(), counters());
    let d = |f: fn(&CacheStats) -> u64| f(&after) - f(&before);
    let [calls, nodes, creds, audits, spans] =
        [0, 1, 2, 3, 4].map(|i| counted_after[i] - counted[i]);
    let counts = Counts {
        ops: passes * users.len() as u64,
        prove_calls: calls,
        nodes,
        creds,
        queries: w.repo.stats().queries - queries,
        proof_hits: d(|s| s.proof_hits),
        proof_misses: d(|s| s.proof_misses),
        proof_invalidations: d(|s| s.proof_invalidations),
        proof_inserts: d(|s| s.proof_inserts),
        walk_hits: d(|s| s.walk_hits),
        walk_misses: d(|s| s.walk_misses),
        cred_hits: d(|s| s.cred_hits),
        cred_misses: d(|s| s.cred_misses),
        decision_hits: d(|s| s.decision_hits),
        decision_misses: d(|s| s.decision_misses),
        decision_invalidations: d(|s| s.decision_invalidations),
        decision_inserts: d(|s| s.decision_inserts),
        audit_records: audits,
        spans,
        allocations,
    };
    (counts, views)
}

/// The committed table: totals per phase. A class-`c` user tries `c + 1`
/// rules and a denied one all four, 2.5 per sign-on here (the benchmark's
/// world reads ≈ 2.6).
///
/// Stores follow sightings of a decision key. A first sighting searches
/// every rule it tries, notes the key's hash and stores nothing but the
/// walks it is the first to need (10 proof inserts, one per walk). The
/// second sighting searches every rule again and stores each answer (320)
/// and the decision (128). After that a sign-on is one decision hit and
/// one audit record, where deciding one rule at a time cost 2.5 prove
/// calls and 3.5 audit records. A cold sign-on is a first sighting and
/// stores nothing. When every fresh answer was stored, so that a second
/// sighting found every rule in the proof table, the first warm pass made
/// 330 proof inserts and the cold pass 640, which no later request read;
/// the four phases allocated 19 640, 8 217, 7 826 and 37 911 times.
///
/// A search expands its subject, then asks the proof table for the walk
/// beyond the subject's one leaf role (a *shared walk*, counted as a walk
/// hit or miss apart from the subject's own proof lookup; a denied user
/// has no leaf and walks alone). So once a `(leaf role, target)` pair has
/// been seen, a search is one node: one query for the subject's key, one
/// more for the registrar's when the leaf grant is third-party (the users
/// with `i % 4 == 1`, all of class 1), and one credential examined per
/// query, none on a denied user's empty key. The first sighting of the
/// ten pairs walks them: 3 nodes and 3 credentials for each of the four
/// chains that reach their target, 4 and 3 for each of the six that fail,
/// 36 nodes in all. The second sighting and the cold pass see no new
/// pair: 320 and 640 searches expand one node each, and all but the 16
/// and 32 of the denied users splice from a walk hit. Walking each chain
/// again, as every search did before shared walks were kept, cost the
/// cold pass 2 824 nodes, 2 560 credentials and 2 952 queries (11.0, 10.0
/// and 11.5 per sign-on).
///
/// The mix shape revokes the leaf grant of hot user `REVOKED` after the
/// steady passes and signs the hot set on once. The user's decision lifts
/// and so do the two proof entries it rested on (the failed Admin rule's
/// and the Member proof); the shared walks watch no leaf grant and stay.
/// The key's hash is still remembered, so this first re-sighting is
/// admitted: all four rules are searched afresh, one node and one
/// credential (the revoked grant) each, and the four failures and the
/// denial are stored. The other 127 sign-ons are decision hits.
///
/// A signature check is recalled from the verdict stored on its
/// credential, or computed: once per credential, on the first search that
/// examines it. The first sighting computes 137 (124 leaf grants, the 12
/// chain mappings and the registrar's one assignment the Member leaves rest
/// on), and the cold pass 248, its users' leaf grants.
///
/// Every sign-on records its `select_view` span and one `prove` span per
/// prove call: 3.5 per sign-on that decides its rules, 1 per decision hit.
/// It commits one audit record, its decision's `select_view` record, which
/// names the rule that decided and each rule that failed before it. A prove
/// call made for a decision leaves its span but no record; when it left one
/// too, the five phases committed 448, 448, 512, 132 and 896 records.
///
/// Allocations are every heap allocation the phase made, the test's own
/// included: ≈ 101 per first sighting, ≈ 127 per second sighting (which
/// stores), ≈ 8 per steady sign-on and ≈ 96 per cold sign-on. A stored
/// decision carries its audit record, built on the second sighting with
/// shared text, and a hit commits a clone of it and names its span's view
/// from it without copying text. Text of up to 16 bytes is held in place,
/// not allocated: a span field formatted short (a prove span's target, `ok`
/// and node count), a chain digest, and short subject and view names on a
/// record. A steady sign-on's remaining allocations are the decision key's
/// subject string, the clone of the stored proof, the view `String`
/// returned, and the span's field list. When every hit rebuilt its record
/// and span text, the five phases allocated 16 693, 19 749, 7 826, 2 084
/// and 32 007 times; when each prove call also committed a record and every
/// span field and digest was allocated, 16 544, 19 729, 4 146, 1 172 and
/// 31 723.
const TABLE: [(&str, Counts); 5] = [
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
            proof_invalidations: 0,
            proof_inserts: 10,
            walk_hits: 294,
            walk_misses: 10,
            cred_hits: 261,
            cred_misses: 137,
            decision_hits: 0,
            decision_misses: 128,
            decision_invalidations: 0,
            decision_inserts: 0,
            audit_records: 128,
            spans: 448,
            allocations: 12_940,
        },
    ),
    (
        "warm, second sighting",
        Counts {
            ops: 128,
            prove_calls: 320,
            nodes: 320,
            creds: 368,
            queries: 384,
            proof_hits: 0,
            proof_misses: 320,
            proof_invalidations: 0,
            proof_inserts: 320,
            walk_hits: 304,
            walk_misses: 0,
            cred_hits: 368,
            cred_misses: 0,
            decision_hits: 0,
            decision_misses: 128,
            decision_invalidations: 0,
            decision_inserts: 128,
            audit_records: 128,
            spans: 448,
            allocations: 16_253,
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
            proof_invalidations: 0,
            proof_inserts: 0,
            walk_hits: 0,
            walk_misses: 0,
            cred_hits: 0,
            cred_misses: 0,
            decision_hits: 512,
            decision_misses: 0,
            decision_invalidations: 0,
            decision_inserts: 0,
            audit_records: 512,
            spans: 512,
            allocations: 4146,
        },
    ),
    (
        "mix, one leaf revoked",
        Counts {
            ops: 128,
            prove_calls: 4,
            nodes: 4,
            creds: 4,
            queries: 4,
            proof_hits: 0,
            proof_misses: 4,
            proof_invalidations: 2,
            proof_inserts: 4,
            walk_hits: 0,
            walk_misses: 0,
            cred_hits: 4,
            cred_misses: 0,
            decision_hits: 127,
            decision_misses: 1,
            decision_invalidations: 1,
            decision_inserts: 1,
            audit_records: 128,
            spans: 132,
            allocations: 1133,
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
            proof_invalidations: 0,
            proof_inserts: 0,
            walk_hits: 608,
            walk_misses: 0,
            cred_hits: 488,
            cred_misses: 248,
            decision_hits: 0,
            decision_misses: 256,
            decision_invalidations: 0,
            decision_inserts: 0,
            audit_records: 256,
            spans: 896,
            allocations: 24_515,
        },
    ),
];

#[test]
fn sign_on_counts_match_the_committed_table() {
    let w = World::new();
    let (hot, cold) = w.users.split_at(HOT);
    let cache = AuthCache::new();
    let first = run(&w, &cache, hot, 1).0;
    let second = run(&w, &cache, hot, 1).0;
    let steady = run(&w, &cache, hot, STEADY_PASSES).0;
    w.bus
        .revoke(w.grants[REVOKED].as_deref().expect("a granted user"));
    let (mix, views) = run(&w, &cache, hot, 1);
    let cold = run(&w, &cache, cold, 1).0;
    let measured = [first, second, steady, mix, cold];
    for ((name, _), got) in TABLE.iter().zip(measured) {
        let per_op = |v: u64| v as f64 / got.ops as f64;
        eprintln!(
            "{name:<22} ops {:>4}  prove/op {:.3}  nodes/creds/queries per op {:.3}/{:.3}/{:.3}  \
             proof hit/miss/invalidation/insert per op {:.3}/{:.3}/{:.3}/{:.3}  \
             walk hit/miss per op {:.3}/{:.3}  \
             signature recalled/computed per op {:.3}/{:.3}  \
             decision hit/miss/invalidation/insert per op {:.3}/{:.3}/{:.3}/{:.3}  \
             audit/op {:.3}  spans/op {:.3}  allocations {} ({:.1}/op)",
            got.ops,
            per_op(got.prove_calls),
            per_op(got.nodes),
            per_op(got.creds),
            per_op(got.queries),
            per_op(got.proof_hits),
            per_op(got.proof_misses),
            per_op(got.proof_invalidations),
            per_op(got.proof_inserts),
            per_op(got.walk_hits),
            per_op(got.walk_misses),
            per_op(got.cred_hits),
            per_op(got.cred_misses),
            per_op(got.decision_hits),
            per_op(got.decision_misses),
            per_op(got.decision_invalidations),
            per_op(got.decision_inserts),
            per_op(got.audit_records),
            per_op(got.spans),
            got.allocations,
            per_op(got.allocations),
        );
    }
    assert_eq!(views[REVOKED], None, "a revoked leaf grant denies");
    for ((name, want), got) in TABLE.iter().zip(measured) {
        assert_eq!(got, *want, "{name}");
    }
}
