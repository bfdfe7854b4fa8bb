//! Reproduces Table 1 (the three delegation types) and demonstrates
//! proof-graph construction, attribute attenuation, repository discovery
//! tags, and revocation.
//!
//! ```sh
//! cargo run --example cross_domain_auth
//! ```

use psf_drbac::entity::{Entity, EntityRegistry, RoleName};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::{DiscoveryTag, Repository};
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{AttrValue, DelegationBuilder};

fn main() {
    let registry = EntityRegistry::new();
    let repository = Repository::new();
    let bus = RevocationBus::new();

    let ny = Entity::with_seed("Comp.NY", b"t1");
    let sd = Entity::with_seed("Comp.SD", b"t1");
    let bob = Entity::with_seed("Bob", b"t1");
    for e in [&ny, &sd, &bob] {
        registry.register(e);
    }

    println!("== Table 1: the three delegation types ==\n");

    // Self-certifying: the role owner grants membership directly.
    let self_cert = DelegationBuilder::new(&sd)
        .subject_entity(&bob)
        .role(sd.role("Member"))
        .attr("Trust", AttrValue::Range(0, 10))
        .sign();
    println!("self-certifying:  {}", self_cert.body.render());

    // Assignment: NY gives SD the right of assignment for NY.Partner.
    let assignment = DelegationBuilder::new(&ny)
        .subject_entity(&sd)
        .assignment()
        .role(ny.role("Partner"))
        .attr("CPU", AttrValue::Capacity(80))
        .sign();
    println!("assignment:       {}", assignment.body.render());

    // Third-party: SD (not the owner!) grants NY.Partner — valid only
    // because of the assignment above.
    let third_party = DelegationBuilder::new(&sd)
        .subject_entity(&bob)
        .role(ny.role("Partner"))
        .attr("CPU", AttrValue::Capacity(100))
        .sign();
    println!("third-party:      {}", third_party.body.render());

    // Publish with discovery tags.
    repository.publish(sd.name.clone(), self_cert.clone(), DiscoveryTag::Both);
    repository.publish(ny.name.clone(), assignment.clone(), DiscoveryTag::Both);
    repository.publish(sd.name.clone(), third_party.clone(), DiscoveryTag::Both);

    println!("\n== proof graphs ==\n");
    let engine = ProofEngine::new(&registry, &repository, &bus, 0);

    let (proof, stats) = engine
        .prove(&bob.as_subject(), &ny.role("Partner"), &[])
        .expect("Bob holds Comp.NY.Partner via the third-party chain");
    print!("{}", proof.render());
    println!(
        "search: {} nodes expanded, {} credentials examined",
        stats.nodes_expanded, stats.credentials_examined
    );
    println!(
        "attenuated attributes: CPU = {}",
        match proof.attrs.get("CPU") {
            Some(AttrValue::Capacity(v)) => v.to_string(),
            _ => "-".into(),
        }
    );

    // Independent re-verification (what a remote Guard does).
    proof.verify(&registry, &bus, 0).expect("proof verifies");
    println!("proof independently re-verified ✓");

    println!("\n== discovery-tag traffic ==\n");
    repository.reset_stats();
    let _ = engine.prove(&bob.as_subject(), &ny.role("Partner"), &[]);
    let s = repository.stats();
    println!(
        "queries: {} (directed {}, broadcast {}), per-home messages: {}",
        s.queries, s.directed, s.broadcast, s.messages
    );

    println!("\n== revocation ==\n");
    let monitor = proof.monitor(&bus);
    println!("monitor valid: {}", monitor.is_valid(0));
    bus.revoke(&assignment.id());
    println!(
        "revoked the assignment ({}); monitor valid: {}",
        assignment.id(),
        monitor.is_valid(0)
    );
    let gone = engine.prove(&bob.as_subject(), &ny.role("Partner"), &[]);
    println!("re-proving now fails: {}", gone.is_err());
    // The unrelated SD.Member chain still stands.
    let still = engine.prove(&bob.as_subject(), &RoleName::new("Comp.SD", "Member"), &[]);
    println!("Comp.SD.Member unaffected: {}", still.is_ok());
}
