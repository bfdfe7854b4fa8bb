//! Quickstart: the shortest path through the library.
//!
//! 1. Two domains issue dRBAC credentials (a cross-domain role mapping).
//! 2. A client proves a foreign role through the proof engine.
//! 3. VIG generates a restricted view of a component and the client
//!    calls it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use psf_drbac::entity::{Entity, EntityRegistry};
use psf_drbac::guard::Guard;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_views::binding::InProcessRemote;
use psf_views::{CoherencePolicy, ComponentClass, ExposureType, MethodLibrary, ViewSpec, Vig};
use std::sync::Arc;

fn main() {
    // --- shared trust infrastructure ---------------------------------
    let registry = EntityRegistry::new();
    let repository = Repository::new();
    let bus = RevocationBus::new();

    // Two administrative domains.
    let hq = Guard::new(
        Entity::with_seed("Corp.HQ", b"quickstart"),
        registry.clone(),
        repository.clone(),
        bus.clone(),
    );
    let branch = Guard::new(
        Entity::with_seed("Corp.Branch", b"quickstart"),
        registry,
        repository.clone(),
        bus.clone(),
    );

    // The branch employs Dana; HQ maps branch staff into its own Staff
    // role (the cross-domain delegation of dRBAC).
    let dana = branch.create_principal("Dana");
    let c1 = branch.publish(
        branch
            .issue()
            .subject_entity(&dana)
            .role(branch.role("Staff"))
            .sign(),
    );
    let c2 = hq.publish(
        hq.issue()
            .subject_role(branch.role("Staff"))
            .role(hq.role("Staff"))
            .sign(),
    );
    println!("issued:");
    println!("  {}", c1.body.render());
    println!("  {}", c2.body.render());

    // --- cross-domain authorization -----------------------------------
    let proof = hq
        .authorize(&dana.as_subject(), &hq.role("Staff"), &[], 0)
        .expect("Dana holds Corp.HQ.Staff transitively");
    println!("\n{}", proof.render());

    // --- views: a restricted realization of a component ----------------
    let notepad = ComponentClass::builder("Notepad")
        .interface("ReadI", ["read"])
        .interface("WriteI", ["write"])
        .field("content", "String")
        .method("read", "String read()", &["content"], false, |st, _| {
            Ok(st.get("content"))
        })
        .method(
            "write",
            "void write(String)",
            &["content"],
            true,
            |st, args| {
                st.set("content", args.to_vec());
                Ok(vec![])
            },
        )
        .build()
        .unwrap();

    // A read-only view: WriteI simply isn't part of it.
    let spec = ViewSpec::new("NotepadReadOnly", "Notepad").restrict("ReadI", ExposureType::Local);
    let vig = Vig::new(MethodLibrary::new());
    let view = vig.generate(&notepad, &spec).unwrap();
    println!("VIG emitted:\n{}", view.source);

    let original = notepad.instantiate();
    original.set_field("content", "hello from the original object");
    let instance = view
        .instantiate(
            Some(InProcessRemote::rmi(original)),
            CoherencePolicy::WriteThrough,
            0,
            b"",
        )
        .unwrap();
    let read = instance.invoke("read", b"").unwrap();
    println!("view.read() = {:?}", String::from_utf8_lossy(&read));
    let denied = instance.invoke("write", b"sneaky").unwrap_err();
    println!("view.write() -> {denied}");

    // --- continuous authorization: revoke and watch the proof die ------
    let monitor = proof.monitor(&bus);
    assert!(monitor.is_valid(0));
    branch.revoke(&c1);
    assert!(!monitor.is_valid(0));
    println!(
        "\nrevoked {}; monitor now invalid: {}",
        c1.id(),
        !monitor.is_valid(0)
    );
    let _ = Arc::new(());
}
