//! The world generator and the request streams are pure functions of the
//! seed, and the oracle's expected views are what the library decides.

use psf_bench::stream::{digest, Op, Stream, Workload};
use psf_bench::world::{World, WorldParams, DENIED};
use psf_drbac::{AuthCache, Repository, RevocationBus};

const CONNS: usize = 2;
const PREFIX: usize = 2_000;

fn expected_views(world: &World) -> Vec<&'static str> {
    world.users.iter().map(|u| u.expected_view()).collect()
}

fn loaded(world: &World) -> Repository {
    let repo = Repository::new();
    for grant in world.grants() {
        repo.publish_at_issuer(grant);
    }
    repo
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let a = World::generate(7, WorldParams::smoke());
    let b = World::generate(7, WorldParams::smoke());
    let c = World::generate(8, WorldParams::smoke());
    assert_eq!(expected_views(&a), expected_views(&b));
    assert_ne!(expected_views(&a), expected_views(&c));
    for workload in Workload::ALL {
        let da = digest(&a, workload, CONNS, PREFIX);
        assert_eq!(
            da,
            digest(&b, workload, CONNS, PREFIX),
            "{}",
            workload.name()
        );
        assert_ne!(
            da,
            digest(&c, workload, CONNS, PREFIX),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn expected_views_agree_with_an_uncached_select_view() {
    let world = World::generate(3, WorldParams::smoke());
    let (repo, bus) = (loaded(&world), RevocationBus::new());
    let p = &world.principals;
    // Every 16th user, plus enough of the rarer kinds to be sure each
    // outcome is covered: denied subjects and third-party grants.
    let denied = world.users.iter().filter(|u| u.class.is_none()).take(4);
    let third_party = world
        .users
        .iter()
        .filter(|u| u.class.is_some() && u.third_party)
        .take(8);
    let sample: Vec<_> = world
        .users
        .iter()
        .step_by(16)
        .chain(denied)
        .chain(third_party)
        .collect();
    assert!(sample.iter().any(|u| u.class.is_none()));
    for class in 0..4 {
        assert!(
            sample.iter().any(|u| u.class == Some(class)),
            "class {class} unsampled"
        );
    }
    for user in sample {
        let view = p
            .acl
            .select_view(&user.subject, &[], &p.registry, &repo, &bus, 0);
        let got = view.as_ref().map_or(DENIED, |(v, _)| v.as_str());
        assert_eq!(got, user.expected_view(), "{}", user.subject.render());
    }
}

#[test]
fn cold_stream_never_hits_the_proof_cache() {
    let world = World::generate(5, WorldParams::smoke());
    let (repo, bus, cache) = (loaded(&world), RevocationBus::new(), AuthCache::new());
    let p = &world.principals;
    let mut streams: Vec<_> = (0..CONNS)
        .map(|c| Stream::new(&world, Workload::SsoCold, c, CONNS))
        .collect();
    // One and a half passes over every subject, connections interleaved
    // as the server sees them: the second visit of a subject must miss
    // too, with no call to `AuthCache::clear`.
    for i in 0..world.users.len() * 3 / 2 {
        let Op::SignOn {
            subject, expect, ..
        } = streams[i % CONNS].next_op()
        else {
            panic!("the cold stream only signs on");
        };
        let view = p
            .acl
            .select_view_cached(&subject, &[], &p.registry, &repo, &bus, 0, &cache);
        assert_eq!(view.as_ref().map_or(DENIED, |(v, _)| v.as_str()), expect);
    }
    let stats = cache.stats();
    let ratio = stats.proof_hits as f64 / (stats.proof_hits + stats.proof_misses) as f64;
    assert!(ratio <= 0.02, "proof hit ratio {ratio} on the cold stream");
}

#[test]
fn mix_stream_publishes_revokes_and_signs_on_its_own_subjects() {
    let world = World::generate(9, WorldParams::smoke());
    let mut stream = Stream::new(&world, Workload::SsoPublishMix, 0, CONNS);
    let (mut publishes, mut revokes, mut denied_own) = (0, 0, 0);
    for _ in 0..20_000 {
        match stream.next_op() {
            Op::Publish { .. } => publishes += 1,
            Op::Revoke { published } => {
                assert!(published < publishes, "revokes a grant already published");
                revokes += 1;
            }
            Op::SignOn {
                subject, expect, ..
            } => {
                if subject.render().starts_with('m') && expect == DENIED {
                    denied_own += 1;
                }
            }
        }
    }
    assert!(
        publishes > 100 && revokes > 25,
        "{publishes} publishes, {revokes} revokes"
    );
    assert!(
        denied_own > 0,
        "no sign-on of a revoked grant in the stream"
    );
}
