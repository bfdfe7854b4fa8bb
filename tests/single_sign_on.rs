//! Experiment F5 behaviours: single sign-on — "authentication and
//! authorization decisions can be completed when the view is first
//! instantiated. After that clients are free to access the view they
//! receive, without additional access control."

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_views::ViewAcl;

struct World {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    domain: Entity,
    user: Entity,
    acl: ViewAcl,
    creds: Vec<psf_drbac::SignedDelegation>,
}

fn world(chain_len: usize) -> World {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let domain = Entity::with_seed("Domain0", b"sso");
    registry.register(&domain);
    let user = Entity::with_seed("User", b"sso");
    registry.register(&user);

    // A chain of role mappings Domain0.R0 ← Domain1.R1 ← … ← user.
    let mut creds = Vec::new();
    let mut prev_role = domain.role("R0");
    let mut prev_domain = domain.clone();
    for i in 1..chain_len {
        let d = Entity::with_seed(format!("Domain{i}"), b"sso");
        registry.register(&d);
        // [ Domain_i.R_i → Domain_{i-1}.R_{i-1} ] Domain_{i-1}
        creds.push(
            DelegationBuilder::new(&prev_domain)
                .subject_role(d.role(format!("R{i}")))
                .role(prev_role.clone())
                .monitored()
                .sign(),
        );
        prev_role = d.role(format!("R{i}"));
        prev_domain = d;
    }
    creds.push(
        DelegationBuilder::new(&prev_domain)
            .subject_entity(&user)
            .role(prev_role)
            .monitored()
            .sign(),
    );
    let acl = ViewAcl::new().rule(domain.role("R0"), "FullView");
    World {
        registry,
        repo,
        bus,
        domain,
        user,
        acl,
        creds,
    }
}

#[test]
fn sso_token_amortizes_authorization() {
    let w = world(5);
    let token = w
        .acl
        .authorize_once(
            &w.user.as_subject(),
            &w.creds,
            &w.registry,
            &w.repo,
            &w.bus,
            0,
        )
        .expect("authorized");
    assert_eq!(token.view, "FullView");
    assert_eq!(token.proof.as_ref().unwrap().edges.len(), 5);
    // 10k requests: each is a lock-free flag check, no proof search.
    for _ in 0..10_000 {
        assert!(token.is_valid(0));
    }
}

#[test]
fn per_request_reauthorization_recomputes_the_chain() {
    // The baseline the paper compares against: checking every request.
    let w = world(5);
    let engine = ProofEngine::new(&w.registry, &w.repo, &w.bus, 0);
    let mut total_edges = 0usize;
    for _ in 0..100 {
        let (proof, _) = engine
            .prove(&w.user.as_subject(), &w.domain.role("R0"), &w.creds)
            .unwrap();
        total_edges += proof.total_edges();
    }
    assert_eq!(total_edges, 500, "every request re-walked the 5-edge chain");
}

#[test]
fn sso_token_dies_on_revocation_anywhere_in_the_chain() {
    let w = world(4);
    let token = w
        .acl
        .authorize_once(
            &w.user.as_subject(),
            &w.creds,
            &w.registry,
            &w.repo,
            &w.bus,
            0,
        )
        .unwrap();
    assert!(token.is_valid(0));
    // Revoke the *middle* of the chain.
    w.bus.revoke(&w.creds[1].id());
    assert!(!token.is_valid(0));
    assert_eq!(token.revocation_notice(), Some(w.creds[1].id()));
}

#[test]
fn deeper_chains_cost_more_to_prove_but_not_to_check() {
    use std::time::Instant;
    let shallow = world(2);
    let deep = world(12);

    let prove_cost = |w: &World| {
        let engine = ProofEngine::new(&w.registry, &w.repo, &w.bus, 0);
        let t = Instant::now();
        for _ in 0..50 {
            engine
                .prove(&w.user.as_subject(), &w.domain.role("R0"), &w.creds)
                .unwrap();
        }
        t.elapsed()
    };
    let shallow_prove = prove_cost(&shallow);
    let deep_prove = prove_cost(&deep);
    // Deep chains must cost measurably more to prove…
    assert!(
        deep_prove > shallow_prove,
        "deep {deep_prove:?} vs shallow {shallow_prove:?}"
    );

    // …while token checks are O(1) regardless of depth.
    let token = deep
        .acl
        .authorize_once(
            &deep.user.as_subject(),
            &deep.creds,
            &deep.registry,
            &deep.repo,
            &deep.bus,
            0,
        )
        .unwrap();
    let t = Instant::now();
    for _ in 0..100_000 {
        assert!(token.is_valid(0));
    }
    let check_time = t.elapsed();
    assert!(
        check_time < deep_prove,
        "100k token checks ({check_time:?}) must beat 50 deep proofs ({deep_prove:?})"
    );
}
