//! "A credential is hashed once" as a count. `psf.drbac.cred.ids_hashed`
//! is incremented by the one function that hashes a credential for its id;
//! this binary holds a single test (its own process, so nothing else moves
//! the global counter) and reads the counter's delta across every door and
//! every read path: 1 per publish — RPC ack and WAL append included — 1
//! per record at recovery, `presented.len()` per authorization decision
//! however many ACL rules it tries, 1 per component credential the
//! planner's oracle is given, and 0 everywhere else, rejections of stored
//! credentials included.

use psf_core::model::{ComponentSpec, Effect};
use psf_core::oracle::{AuthOracle, DrbacOracle};
use psf_core::repo_service::{serve_sharded_durable_repository, RemoteRepository};
use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::proof::ProofEngine;
use psf_drbac::wal::{ShardedDurableRepository, WalConfig};
use psf_drbac::{
    AttrSet, AttrValue, AuthCache, DelegationBuilder, DiscoveryTag, DrbacError, RoleName,
    SignedDelegation,
};
use psf_netsim::NodeId;
use psf_switchboard::{pair_in_memory_plain, ChannelConfig};
use psf_views::ViewAcl;
use std::sync::Arc;

fn hashed() -> u64 {
    psf_telemetry::counter!("psf.drbac.cred.ids_hashed").get()
}

/// Run `f` and return how many credential ids it hashed.
fn hashes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = hashed();
    let out = f();
    (out, hashed() - before)
}

#[test]
fn a_credential_is_hashed_once() {
    let dir = std::env::temp_dir().join(format!("psf-credential-id-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || ShardedDurableRepository::open(&dir, 4, WalConfig::default()).unwrap();

    let org = Entity::with_seed("Org", b"cid");
    let dept = Entity::with_seed("Dept", b"cid");
    let users: Vec<Entity> = (0..6)
        .map(|i| Entity::with_seed(format!("User{i}"), b"cid"))
        .collect();
    let walk_in = Entity::with_seed("WalkIn", b"cid");
    let registry = EntityRegistry::new();
    for e in [&org, &dept, &walk_in].into_iter().chain(&users) {
        registry.register(e);
    }
    let leaf = |user: &Entity| {
        DelegationBuilder::new(&dept)
            .subject_entity(user)
            .role(dept.role("Member"))
            .sign()
    };
    // Dept.Member → Org.Staff by the owner; Dept.Member → Org.Partner by
    // Dept as a third party, which needs the assignment support chain.
    let staff = DelegationBuilder::new(&org)
        .subject_role(dept.role("Member"))
        .role(org.role("Staff"))
        .sign();
    let assign = DelegationBuilder::new(&org)
        .subject_entity(&dept)
        .assignment()
        .role(org.role("Partner"))
        .sign();
    let partner = DelegationBuilder::new(&dept)
        .subject_role(dept.role("Member"))
        .role(org.role("Partner"))
        .sign();
    // Two rules miss before one matches, then the catch-all.
    let acl = ViewAcl::new()
        .rule(org.role("Admin"), "AdminView")
        .rule(org.role("Auditor"), "AuditView")
        .rule(org.role("Partner"), "PartnerView")
        .others("AnonymousView");

    // Door 1: publish, in process and over the RPC — one hash each, with
    // the WAL append (the durability observer) inside the count.
    let (durable, _) = open();
    let repo = durable.repository().clone();
    let bus = durable.bus().clone();
    let mut stored = 0u64;
    for cred in [staff.clone(), assign.clone(), partner.clone()] {
        let (_, n) = hashes_in(|| repo.publish_at_issuer(cred));
        assert_eq!(n, 1, "an in-process publish hashes its credential once");
        stored += 1;
    }
    let (client, server) = pair_in_memory_plain(ChannelConfig {
        heartbeat_interval: None,
        ..Default::default()
    });
    serve_sharded_durable_repository(&server, &durable);
    let remote = RemoteRepository::new(Arc::new(client)).without_cache();
    for user in &users {
        let cred = leaf(user);
        let expected = cred.id();
        let (ack, n) = hashes_in(|| remote.publish(&dept.name, DiscoveryTag::Both, &cred));
        assert_eq!(ack.unwrap(), expected);
        assert_eq!(n, 1, "decode + store + WAL append + ack hash once");
        stored += 1;
    }
    // Door 2: a remote query reply is wrapped as it is decoded.
    let (found, n) = hashes_in(|| {
        use psf_drbac::CredentialSource;
        remote.credentials_by_subject(&users[0].as_subject())
    });
    assert_eq!((found.len(), n), (1, 1));

    // Nothing presented: no read path hashes anything, cold or warm.
    let cache = AuthCache::new();
    let none: &[SignedDelegation] = &[];
    let select = |user: &Entity| {
        acl.select_view_cached(&user.as_subject(), none, &registry, &repo, &bus, 0, &cache)
    };
    for pass in ["cold", "warm"] {
        for user in &users {
            let (view, n) = hashes_in(|| select(user));
            assert_eq!(view.unwrap().0, "PartnerView");
            assert_eq!(
                n, 0,
                "{pass} select_view_cached re-hashed a stored credential"
            );
        }
    }
    // A grant that lapses at `LAPSE`, for the expired-edge row.
    const LAPSE: u64 = 5;
    let lapsing = DelegationBuilder::new(&dept)
        .subject_entity(&users[4])
        .role(dept.role("Temp"))
        .expires(LAPSE)
        .sign();
    let lapsing_id = lapsing.id();
    repo.publish_at_issuer(lapsing);
    stored += 1;
    let dept_key = registry.lookup(&dept.name).unwrap();
    let engine = ProofEngine::with_cache(&registry, &repo, &bus, 0, &cache);
    let reads: [(&str, &dyn Fn()); 7] = [
        ("prove_certified", &|| {
            let subject = users[1].as_subject();
            engine
                .prove_certified(&subject, &org.role("Partner"), none)
                .unwrap();
            ProofEngine::new(&registry, &repo, &bus, 0)
                .prove_certified(&subject, &org.role("Staff"), none)
                .unwrap();
        }),
        ("authorize_once_cached", &|| {
            let subject = users[2].as_subject();
            let token = acl
                .authorize_once_cached(&subject, none, &registry, &repo, &bus, 0, &cache)
                .unwrap();
            assert!(token.is_valid(0));
        }),
        ("all_credentials", &|| {
            assert_eq!(repo.all_credentials().len() as u64, stored);
        }),
        ("snapshot_entries", &|| {
            assert_eq!(repo.snapshot_entries().len() as u64, stored);
        }),
        ("compact", &|| {
            assert_eq!(durable.compact().unwrap().snapshot_entries as u64, stored);
        }),
        ("expired edge", &|| {
            // Searching past the lapse rejects the stored grant, and the
            // rejection names it by the carried id.
            let subject = users[4].as_subject();
            ProofEngine::new(&registry, &repo, &bus, LAPSE)
                .prove(&subject, &dept.role("Temp"), none)
                .unwrap_err();
            let stored = repo.query_by_subject(&subject);
            let lapsed = stored.iter().find(|c| c.body.expires.is_some()).unwrap();
            match lapsed.verify(&dept_key, LAPSE) {
                Err(DrbacError::Expired { id, .. }) => assert_eq!(id, lapsing_id),
                other => panic!("expected Expired, got {other:?}"),
            }
        }),
        ("revoked edge", &|| {
            // The rejection reads the carried id for the bus lookup and
            // for the error it builds.
            bus.revoke(&partner.id());
            assert_eq!(select(&users[3]).unwrap().0, "AnonymousView");
        }),
    ];
    for (what, read) in reads {
        // `partner.id()` above is the test's own hash of a bare credential.
        let own = u64::from(what == "revoked edge");
        let ((), n) = hashes_in(read);
        assert_eq!(n - own, 0, "{what} re-hashed a stored credential");
    }

    // The planner's oracle wraps its component credentials when it is
    // given them; its queries hash none of them.
    let mut oracle = DrbacOracle::new(registry.clone(), repo.clone(), bus.clone(), 0);
    oracle.set_node_exec_role(NodeId(0), org.role("Executable"), AttrSet::new());
    let app = RoleName::new("Vendor", "App");
    let grants = vec![DelegationBuilder::new(&org)
        .subject_role(app.clone())
        .role(org.role("Executable"))
        .attr("CPU", AttrValue::Capacity(100))
        .sign()];
    let ((), n) = hashes_in(|| oracle.add_component_credentials(grants));
    assert_eq!(n, 1);
    let component = ComponentSpec::processor("App", "I", "I", Effect::Identity)
        .cpu(10)
        .exec_role(app);
    for _ in 0..2 {
        let (ok, n) = hashes_in(|| oracle.component_authorized(&component, NodeId(0)));
        assert!(ok);
        assert_eq!(n, 0, "an oracle query re-hashed a component credential");
    }

    // Presented credentials are hashed once per decision — `presented.len()`
    // — not once per rule tried (three role rules here; the two misses
    // each run a full search over the presented set, and the stored
    // Partner mapping was revoked above, so the match needs them too).
    let presented = [
        leaf(&walk_in),
        DelegationBuilder::new(&org)
            .subject_role(dept.role("Member"))
            .role(org.role("Partner"))
            .serial(9)
            .sign(),
    ];
    let subject = walk_in.as_subject();
    let (view, n) = hashes_in(|| acl.select_view(&subject, &presented, &registry, &repo, &bus, 0));
    assert_eq!(view.unwrap().0, "PartnerView");
    assert_eq!(n, presented.len() as u64);
    for _ in 0..2 {
        let (token, n) = hashes_in(|| {
            acl.authorize_once_cached(&subject, &presented, &registry, &repo, &bus, 0, &cache)
        });
        assert_eq!(token.unwrap().view, "PartnerView");
        assert_eq!(n, presented.len() as u64);
    }

    // Door 3: recovery wraps each stored record once (all of them sit in
    // the snapshots the compaction above wrote).
    drop((remote, server, engine));
    drop(durable);
    let ((recovered, report), n) = hashes_in(open);
    assert_eq!(report.snapshot_entries as u64, stored);
    assert_eq!(n, stored, "recovery hashes each record once");
    assert_eq!(recovered.repository().len() as u64, stored);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
