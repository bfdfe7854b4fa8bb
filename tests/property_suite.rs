//! Property-based tests over the core data structures and invariants:
//! credential codecs, attribute attenuation algebra, the crypto layer,
//! XML round-trips, and proof-engine soundness under random worlds.

use proptest::prelude::*;
use psf_drbac::entity::{Entity, EntityRegistry, RoleName};
use psf_drbac::proof::ProofEngine;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::wire::{decode_credentials, encode_credentials, Reader};
use psf_drbac::{AttrSet, AttrValue, AuthCache, Credential, DelegationBuilder, SignedDelegation};
use std::collections::BTreeSet;

// ------------------------------------------------------------ crypto --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aead_roundtrips_any_payload(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        payload in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let aead = psf_crypto::ChaCha20Poly1305::new(key);
        let sealed = aead.seal(&nonce, &aad, &payload);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), payload);
    }

    #[test]
    fn aead_rejects_any_single_bitflip(
        key in prop::array::uniform32(any::<u8>()),
        payload in prop::collection::vec(any::<u8>(), 1..256),
        flip_byte in 0usize..256,
        flip_bit in 0u8..8,
    ) {
        let aead = psf_crypto::ChaCha20Poly1305::new(key);
        let nonce = [0u8; 12];
        let mut sealed = aead.seal(&nonce, b"", &payload);
        let idx = flip_byte % sealed.len();
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(aead.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(
        data in prop::collection::vec(any::<u8>(), 0..512),
        tweak in 0usize..512,
    ) {
        let d1 = psf_crypto::sha256(&data);
        prop_assert_eq!(d1, psf_crypto::sha256(&data));
        if !data.is_empty() {
            let mut other = data.clone();
            let idx = tweak % other.len();
            other[idx] ^= 0xff;
            prop_assert_ne!(d1, psf_crypto::sha256(&other));
        }
    }

    #[test]
    fn ed25519_signs_arbitrary_messages(
        seed in prop::array::uniform32(any::<u8>()),
        msg in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let sk = psf_crypto::SigningKey::from_seed(seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
        let mut tampered = msg.clone();
        tampered.push(0x42);
        prop_assert!(sk.verifying_key().verify(&tampered, &sig).is_err());
    }

    #[test]
    fn x25519_agreement_holds_for_random_secrets(
        a in prop::array::uniform32(any::<u8>()),
        b in prop::array::uniform32(any::<u8>()),
    ) {
        let pa = psf_crypto::x25519::x25519_base(&a);
        let pb = psf_crypto::x25519::x25519_base(&b);
        prop_assert_eq!(
            psf_crypto::x25519(&a, &pb),
            psf_crypto::x25519(&b, &pa)
        );
    }
}

// ----------------------------------------------------------- attrsets --

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-1000i64..1000).prop_map(AttrValue::Capacity),
        (-100i64..100, 0i64..100).prop_map(|(lo, len)| AttrValue::Range(lo, lo + len)),
        prop::collection::btree_set("[a-z]{1,6}", 1..4).prop_map(AttrValue::Set),
    ]
}

fn arb_attr_set() -> impl Strategy<Value = AttrSet> {
    prop::collection::btree_map("[A-Z][a-z]{0,5}", arb_attr_value(), 0..4).prop_map(AttrSet)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn attenuation_is_commutative_on_singletons(a in arb_attr_value(), b in arb_attr_value()) {
        prop_assert_eq!(a.attenuate(&b), b.attenuate(&a));
    }

    #[test]
    fn attenuation_is_idempotent(a in arb_attr_value()) {
        prop_assert_eq!(a.attenuate(&a), Some(a.clone()));
    }

    #[test]
    fn attenuation_is_associative(
        a in arb_attr_value(),
        b in arb_attr_value(),
        c in arb_attr_value(),
    ) {
        let left = a.attenuate(&b).and_then(|ab| ab.attenuate(&c));
        let right = b.attenuate(&c).and_then(|bc| a.attenuate(&bc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn attrset_attenuation_never_widens(a in arb_attr_set(), b in arb_attr_set()) {
        if let Some(c) = a.attenuate(&b) {
            // Whatever satisfies the combined set satisfies each factor on
            // shared keys: c must satisfy any requirement a or b satisfied…
            // we check the weaker monotonic property: c satisfies b's
            // non-capacity requirements it shares with a.
            for (k, v) in &b.0 {
                let cv = c.get(k).expect("combined keeps b's keys");
                prop_assert!(cv.attenuate(v).is_some());
            }
        }
    }
}

// ------------------------------------------------------------- codecs --

fn arb_role() -> impl Strategy<Value = RoleName> {
    ("[A-Z][a-z]{1,6}(\\.[A-Z]{2})?", "[A-Z][a-z]{1,8}")
        .prop_map(|(owner, role)| RoleName::new(owner, role))
}

fn arb_credential() -> impl Strategy<Value = SignedDelegation> {
    (
        arb_role(),
        arb_attr_set(),
        any::<bool>(),
        proptest::option::of(1u64..1_000_000),
        any::<u64>(),
        any::<u8>(),
    )
        .prop_map(|(role, attrs, monitored, expires, serial, kind_seed)| {
            let issuer = Entity::with_seed("Issuer", b"prop");
            let subject = Entity::with_seed("Subject", b"prop");
            let mut b = DelegationBuilder::new(&issuer).serial(serial);
            b = match kind_seed % 3 {
                0 => b
                    .subject_entity(&subject)
                    .role(issuer.role(role.role.clone())),
                1 => b.subject_role(RoleName::new("Other.Dom", "R")).role(role),
                _ => b.subject_entity(&subject).assignment().role(role),
            };
            for (k, v) in attrs.0 {
                b = b.attr(k, v);
            }
            if monitored {
                b = b.monitored();
            }
            if let Some(t) = expires {
                b = b.expires(t);
            }
            b.sign()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn credential_wire_roundtrip(cred in arb_credential()) {
        let wire = cred.to_wire();
        let back = SignedDelegation::from_wire(&mut Reader::new(&wire)).unwrap();
        prop_assert_eq!(&back, &cred);
        prop_assert_eq!(back.id(), cred.id());
    }

    /// One id, three derivations: the wrapper's carried id, the
    /// re-hashing `SignedDelegation::id()` and the one the trusted checker
    /// derives from the raw signed bytes agree on every delegation kind,
    /// and an audit `chain_digest` over carried ids is the digest over the
    /// re-hashed strings.
    #[test]
    fn carried_id_agrees_with_every_derivation(
        creds in prop::collection::vec(arb_credential(), 1..5),
    ) {
        use psf_drbac::proof::{Proof, ProofEdge};
        use psf_telemetry::audit::chain_digest;
        let mut edges = Vec::new();
        for cred in &creds {
            let carried = Credential::new(cred.clone());
            let checker = psf_cert::CertEdge {
                signed: cred.body.encode(),
                signature: cred.signature.to_bytes(),
                support: None,
            };
            prop_assert_eq!(carried.cred_id(), cred.id());
            prop_assert_eq!(carried.id(), cred.id());
            prop_assert_eq!(checker.id(), cred.id());
            edges.push(ProofEdge { credential: std::sync::Arc::new(carried), support: None });
        }
        let proof = Proof {
            subject: creds[0].body.subject.clone(),
            role: creds[0].body.object.clone(),
            assignment: false,
            attrs: AttrSet::new(),
            edges,
        };
        let rehashed: Vec<String> = creds.iter().map(|c| c.id()).collect();
        prop_assert_eq!(chain_digest(&proof.credential_ids()), chain_digest(&rehashed));
    }

    #[test]
    fn credential_set_roundtrip(creds in prop::collection::vec(arb_credential(), 0..8)) {
        let wire = encode_credentials(&creds);
        prop_assert_eq!(decode_credentials(&wire).unwrap(), creds);
    }

    #[test]
    fn truncated_credentials_never_panic(
        cred in arb_credential(),
        cut_ratio in 0.0f64..1.0,
    ) {
        let wire = cred.to_wire();
        let cut = ((wire.len() as f64) * cut_ratio) as usize;
        // Must error or parse — never panic.
        let _ = SignedDelegation::from_wire(&mut Reader::new(&wire[..cut]));
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_credentials(&bytes);
        let _ = SignedDelegation::from_wire(&mut Reader::new(&bytes));
    }
}

// ---------------------------------------------------------------- xml --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn xml_attr_roundtrip(value in "[ -~]{0,40}") {
        let el = psf_xml::Element::new("a").attr("k", value.clone());
        let parsed = psf_xml::parse(&el.to_xml()).unwrap();
        prop_assert_eq!(parsed.get_attr("k").unwrap(), value.as_str());
    }

    #[test]
    fn xml_text_roundtrip(text in "[ -~]{0,60}") {
        let el = psf_xml::Element::new("a").with_text(text.clone());
        let parsed = psf_xml::parse(&el.to_xml()).unwrap();
        prop_assert_eq!(parsed.text, text.trim());
    }

    #[test]
    fn xml_parser_never_panics(input in "[ -~<>&\"']{0,200}") {
        let _ = psf_xml::parse(&input);
    }
}

// ------------------------------------------- rollback leak-freedom --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A deployment that faults at any step must leave no trace: every
    /// CPU reservation released, every channel closed, every issued
    /// credential revoked on the bus (transactional deploy semantics).
    #[test]
    fn faulted_deployments_roll_back_without_leaks(
        step_seed in 0usize..64,
        jitter_seed in 0u64..1_000_000,
    ) {
        use psf_core::{DeployFaultPlan, Goal, Planner, PlannerConfig, RetryPolicy};

        let w = psf_mail::MailWorld::build(1);
        let goal = Goal {
            iface: "MailI".into(),
            client_node: w.sites.sd[0],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let planner = Planner::new(
            &w.registrar,
            &w.sites.network,
            &w.oracle,
            PlannerConfig::default(),
        );
        let (plan, _) = planner.plan(&goal).unwrap();
        prop_assert!(!plan.steps.is_empty());
        let step = step_seed % plan.steps.len();

        let cpu_before: Vec<u32> = w
            .sites
            .network
            .node_ids()
            .iter()
            .map(|&n| w.sites.network.node(n).unwrap().cpu_available())
            .collect();

        w.deployer.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            base_backoff: std::time::Duration::from_micros(1),
            jitter_seed,
            ..RetryPolicy::default()
        });
        w.deployer.set_fault_plan(Some(DeployFaultPlan::fail_at(1, step)));
        prop_assert!(w.deployer.execute(&plan, &goal).is_err());

        let report = w.deployer.last_rollback().expect("rollback recorded");
        prop_assert_eq!(report.attempt, 1);
        prop_assert_eq!(report.failed_step, step);
        for id in &report.revoked_credential_ids {
            prop_assert!(w.bus.is_revoked(id), "leaked credential {}", id);
        }
        let cpu_after: Vec<u32> = w
            .sites
            .network
            .node_ids()
            .iter()
            .map(|&n| w.sites.network.node(n).unwrap().cpu_available())
            .collect();
        prop_assert_eq!(cpu_before, cpu_after, "leaked CPU reservations");
    }
}

// ------------------------------------------------------ proof soundness --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any proof the engine produces over a random delegation world must
    /// independently re-verify; and revoking any credential in it must
    /// break re-verification.
    #[test]
    fn proofs_are_sound_under_random_worlds(
        seed in 0u64..1000,
        chain_len in 1usize..6,
        decoys in 0usize..10,
    ) {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();
        let user = Entity::with_seed(format!("user{seed}"), b"world");
        registry.register(&user);

        // Build a chain of role mappings ending at the target role.
        let mut domains = Vec::new();
        for i in 0..chain_len {
            let d = Entity::with_seed(format!("d{seed}-{i}"), b"world");
            registry.register(&d);
            domains.push(d);
        }
        // membership: user -> role_{n-1}
        repo.publish_at_issuer(
            DelegationBuilder::new(&domains[chain_len - 1])
                .subject_entity(&user)
                .role(domains[chain_len - 1].role("R"))
                .sign(),
        );
        // mappings: role_i <- role_{i+1}
        for i in (0..chain_len - 1).rev() {
            repo.publish_at_issuer(
                DelegationBuilder::new(&domains[i])
                    .subject_role(domains[i + 1].role("R"))
                    .role(domains[i].role("R"))
                    .sign(),
            );
        }
        // Decoy credentials that must not break anything.
        for i in 0..decoys {
            let d = Entity::with_seed(format!("decoy{seed}-{i}"), b"world");
            registry.register(&d);
            repo.publish_at_issuer(
                DelegationBuilder::new(&d)
                    .subject_role(RoleName::new("Nowhere.Else", "X"))
                    .role(d.role("Y"))
                    .sign(),
            );
        }

        let engine = ProofEngine::new(&registry, &repo, &bus, 0);
        let target = domains[0].role("R");
        let (proof, _) = engine.prove(&user.as_subject(), &target, &[]).unwrap();
        prop_assert_eq!(proof.edges.len(), chain_len);
        prop_assert!(proof.verify(&registry, &bus, 0).is_ok());

        // Revoke a uniformly chosen chain credential: both re-proving and
        // re-verifying must fail.
        let ids = proof.credential_ids();
        let victim = &ids[(seed as usize) % ids.len()];
        bus.revoke(victim.as_str());
        prop_assert!(proof.verify(&registry, &bus, 0).is_err());
        prop_assert!(engine.prove(&user.as_subject(), &target, &[]).is_err());
    }
}

// ------------------------------------------------ cache transparency --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The authorization cache must be semantically invisible. Over a
    /// random delegation world and a random interleaving of proof
    /// queries, revocations, clock advances, and repository publishes —
    /// onto keys no search reads and onto keys the searches read — an
    /// engine sharing one `AuthCache` must return byte-identical proofs,
    /// and identical errors, to a fresh uncached engine at every step, and
    /// every proof must pass the independent checker. The uncached engine
    /// searches a repository rebuilt from the published bytes, so no
    /// credential it reads carries a signature verdict the cached side
    /// stored.
    /// Two targets are asked each step: the chain's, and one that fails
    /// until a publish grants it, so failed searches are cached and
    /// invalidated too. A chain domain's name may also be rebound to a
    /// different key, which the registry epoch pin must catch.
    #[test]
    fn cached_prove_is_indistinguishable_from_uncached(
        seed in 0u64..500,
        chain_len in 1usize..5,
        decoys in 0usize..6,
        membership_expiry in proptest::option::of(1u64..30),
        schedule in prop::collection::vec((0u8..6, 0u64..16), 1..24),
    ) {
        // Every publish, in order (a query returns a key's credentials in
        // publish order), as wire bytes.
        fn publish(repo: &Repository, wire: &mut Vec<Vec<u8>>, cred: SignedDelegation) {
            wire.push(cred.to_wire());
            repo.publish_at_issuer(cred);
        }
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let mut wire = Vec::new();
        let bus = RevocationBus::new();
        let user = Entity::with_seed(format!("user{seed}"), b"cachew");
        registry.register(&user);

        let mut domains = Vec::new();
        for i in 0..chain_len {
            let d = Entity::with_seed(format!("d{seed}-{i}"), b"cachew");
            registry.register(&d);
            domains.push(d);
        }
        let mut chain: Vec<SignedDelegation> = Vec::new();
        let mut membership = DelegationBuilder::new(&domains[chain_len - 1])
            .subject_entity(&user)
            .role(domains[chain_len - 1].role("R"));
        if let Some(t) = membership_expiry {
            membership = membership.expires(t);
        }
        let membership = membership.sign();
        publish(&repo, &mut wire, membership.clone());
        chain.push(membership);
        for i in (0..chain_len - 1).rev() {
            let mapping = DelegationBuilder::new(&domains[i])
                .subject_role(domains[i + 1].role("R"))
                .role(domains[i].role("R"))
                .sign();
            publish(&repo, &mut wire, mapping.clone());
            chain.push(mapping);
        }
        for i in 0..decoys {
            let d = Entity::with_seed(format!("decoy{seed}-{i}"), b"cachew");
            registry.register(&d);
            publish(
                &repo,
                &mut wire,
                DelegationBuilder::new(&d)
                    .subject_role(RoleName::new("Nowhere.Else", "X"))
                    .role(d.role("Y"))
                    .sign(),
            );
        }

        let cache = AuthCache::new();
        let target = domains[0].role("R");
        let side = domains[0].role("Side");
        let subject = user.as_subject();
        let mut now = 0u64;
        let mut extra = 0usize;
        for (op, arg) in schedule {
            match op {
                // Advance the logical clock (possibly past an expiry).
                0 => now += arg % 16,
                // Revoke a chain credential (sometimes an unknown id, a
                // no-op the cache must also shrug off).
                1 => {
                    if arg % 4 == 0 {
                        bus.revoke("no-such-credential");
                    } else {
                        bus.revoke(&chain[(arg as usize) % chain.len()].id());
                    }
                }
                // Publish an unrelated credential: its key is one no
                // search reads (the repository epoch still moves).
                2 => {
                    let d = Entity::with_seed(format!("extra{seed}-{extra}"), b"cachew");
                    extra += 1;
                    registry.register(&d);
                    publish(
                        &repo,
                        &mut wire,
                        DelegationBuilder::new(&d)
                            .subject_role(RoleName::new("Nowhere.Else", "X"))
                            .role(d.role("Y"))
                            .sign(),
                    );
                }
                // Publish onto a key the searches read: a direct grant of
                // the chain's target to the user (a shorter proof), or a
                // mapping from a chain role onto `side` (lifting its
                // cached failure).
                3 => {
                    extra += 1;
                    let grant = if arg % 2 == 0 {
                        DelegationBuilder::new(&domains[0]).subject_entity(&user).role(target.clone())
                    } else {
                        let lower = domains[(arg as usize / 2) % chain_len].role("R");
                        DelegationBuilder::new(&domains[0]).subject_role(lower).role(side.clone())
                    };
                    publish(&repo, &mut wire, grant.serial(extra as u64).sign());
                }
                // Rebind a chain domain's name to a different key: every
                // credential it signed stops verifying.
                4 => {
                    extra += 1;
                    let impostor = Entity::with_seed(format!("rebound{seed}-{extra}"), b"cachew");
                    let domain = &domains[(arg as usize) % chain_len];
                    registry.register_key(domain.name.clone(), impostor.public_key());
                }
                // Plain query step (drives cache hits).
                _ => {}
            }
            let rebuilt = Repository::new();
            for bytes in &wire {
                let cred = SignedDelegation::from_wire(&mut Reader::new(bytes)).unwrap();
                rebuilt.publish_at_issuer(cred);
            }
            let cached = ProofEngine::with_cache(&registry, &repo, &bus, now, &cache);
            let plain = ProofEngine::new(&registry, &rebuilt, &bus, now);
            for role in [&target, &side] {
                match (cached.prove(&subject, role, &[]), plain.prove(&subject, role, &[])) {
                    (Ok((pc, _)), Ok((pp, _))) => {
                        // Full structural identity, supports included, and
                        // the independent checker accepts it.
                        prop_assert_eq!(format!("{pc:?}"), format!("{pp:?}"));
                        prop_assert!(pc.verify(&registry, &bus, now).is_ok());
                    }
                    (Err(ec), Err(ep)) => prop_assert_eq!(ec.error, ep.error),
                    (c, p) => prop_assert!(
                        false,
                        "cached/uncached diverged on {}: cached ok={} plain ok={}",
                        role,
                        c.is_ok(),
                        p.is_ok()
                    ),
                }
            }
        }
        // The schedule must have produced at least one hit for the
        // comparison to mean anything beyond the cold path.
        let s = cache.stats();
        prop_assert!(s.proof_hits + s.proof_misses > 0);
    }
}

// ------------------------------------------------- standing decisions --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A standing decision — a channel admitted by proof search, one
    /// admitted from the certificate alone, a sign-on token, a view
    /// decision remembered by the cache — holds exactly as long as its
    /// evidence does. The world is a 1–4 deep chain whose top edge may be
    /// a third-party grant resting on an assignment support; the
    /// membership and the support may expire. After every step of a
    /// random script (clock advances, revocations of a chain, support or
    /// unknown id, publishes onto read and unread keys, new
    /// registrations) each holder agrees with the independent checker:
    /// `Proof::verify` for the monitors and the token,
    /// `check_certificate` for the certificate path, and the uncached
    /// `select_view` for `select_view_cached`. Its ACL tries a rule the
    /// user fails first (`Side`, which a publish onto the target's key
    /// can lift), so the remembered decision rests on a failed search
    /// too; it is asked twice per step, so a decision stored by one ask
    /// answers the next.
    #[test]
    fn standing_decisions_lapse_exactly_with_their_evidence(
        seed in 0u64..500,
        chain_len in 1usize..5,
        third_party in any::<bool>(),
        membership_expiry in proptest::option::of(1u64..40),
        support_expiry in proptest::option::of(1u64..40),
        script in prop::collection::vec((0u8..6, 0u64..16), 1..24),
    ) {
        use psf_drbac::certify::check_certificate;
        use psf_switchboard::{Authorizer, ClockRef};
        use psf_views::ViewAcl;

        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();
        let entity = |name: String| {
            let e = Entity::with_seed(name, b"standing");
            registry.register(&e);
            e
        };
        let user = entity(format!("user{seed}"));
        let holder = entity(format!("holder{seed}"));
        let domains: Vec<Entity> = (0..chain_len).map(|i| entity(format!("d{seed}-{i}"))).collect();
        let target = domains[0].role("R");

        // user → d[n-1].R → … → d[0].R; with `third_party` the edge into
        // d[0].R is issued by `holder` on d[0]'s assignment right.
        let issuer_into = |i: usize| if i == 0 && third_party { &holder } else { &domains[i] };
        let mut chain: Vec<SignedDelegation> = Vec::new();
        let mut membership = DelegationBuilder::new(issuer_into(chain_len - 1))
            .subject_entity(&user)
            .role(domains[chain_len - 1].role("R"));
        if let Some(t) = membership_expiry {
            membership = membership.expires(t);
        }
        chain.push(membership.sign());
        for i in (0..chain_len - 1).rev() {
            chain.push(
                DelegationBuilder::new(issuer_into(i))
                    .subject_role(domains[i + 1].role("R"))
                    .role(domains[i].role("R"))
                    .sign(),
            );
        }
        let mut support = None;
        if third_party {
            let mut b = DelegationBuilder::new(&domains[0])
                .subject_entity(&holder)
                .assignment()
                .role(target.clone());
            if let Some(t) = support_expiry {
                b = b.expires(t);
            }
            support = Some(b.sign());
        }
        for cred in chain.iter().chain(&support) {
            repo.publish_at_issuer(cred.clone());
        }

        // The three standing decisions, all made at t = 0.
        let clock = ClockRef::new();
        let auth = Authorizer::new(registry.clone(), repo.clone(), bus.clone(), clock.clone(), target.clone());
        let engine_admitted = auth.authorize(&user.name, &user.public_key(), &[]).unwrap();
        let proof = engine_admitted.proof.clone().unwrap();
        prop_assert_eq!(proof.total_edges(), chain_len + usize::from(third_party));
        let cert = engine_admitted.certificate().unwrap();
        let cert_admitted = auth.admit_certificate(&user.name, &user.public_key(), cert.clone()).unwrap();
        let token = ViewAcl::new()
            .rule(target.clone(), "Full")
            .authorize_once(&user.as_subject(), &[], &registry, &repo, &bus, 0)
            .unwrap();
        let token_proof = token.proof.clone().unwrap();
        let side = domains[0].role("Side");
        let acl = ViewAcl::new().rule(side.clone(), "Side").rule(target.clone(), "Full");
        let cache = AuthCache::new();
        let subject = user.as_subject();
        let sign_on = |now| acl.select_view_cached(&subject, &[], &registry, &repo, &bus, now, &cache);
        for _ in 0..2 {
            prop_assert_eq!(sign_on(0).map(|(view, _)| view), Some("Full".to_string()));
        }

        let mut now = 0u64;
        let mut extra = 0u64;
        for (op, arg) in script {
            extra += 1;
            match op {
                0 => now += arg % 16,
                1 => bus.revoke(&chain[(arg as usize) % chain.len()].id()),
                2 => match (&support, arg % 2) {
                    (Some(s), 0) => bus.revoke(&s.id()),
                    _ => bus.revoke("no-such-credential"),
                },
                // A publish onto a key the searches read: a direct grant
                // of the target (a new, shorter proof for fresh searches),
                // or a mapping from the target onto `Side`, read only by
                // the failing `Side` search (it lifts that rule).
                3 => {
                    let grant = if arg % 2 == 0 {
                        DelegationBuilder::new(&domains[0]).subject_entity(&user).role(target.clone())
                    } else {
                        DelegationBuilder::new(&domains[0]).subject_role(target.clone()).role(side.clone())
                    };
                    repo.publish_at_issuer(grant.serial(extra).sign());
                }
                // A publish onto a key no search reads.
                4 => {
                    let d = entity(format!("extra{seed}-{extra}"));
                    repo.publish_at_issuer(
                        DelegationBuilder::new(&d)
                            .subject_role(RoleName::new("Nowhere.Else", "X"))
                            .role(d.role("Y"))
                            .sign(),
                    );
                }
                // A new registration (the registry epoch moves).
                _ => drop(entity(format!("new{seed}-{extra}"))),
            }
            clock.set(now);
            let holds = proof.verify(&registry, &bus, now).is_ok();
            prop_assert_eq!(engine_admitted.is_valid(), holds, "engine-admitted channel at t={}", now);
            prop_assert_eq!(
                cert_admitted.is_valid(),
                check_certificate(&cert, &registry, &bus, now, None).is_ok(),
                "certificate-admitted channel at t={}", now
            );
            prop_assert_eq!(
                token.is_valid(now),
                token_proof.verify(&registry, &bus, now).is_ok(),
                "sign-on token at t={}", now
            );
            let fresh = acl.select_view(&subject, &[], &registry, &repo, &bus, now);
            for ask in 0..2 {
                prop_assert_eq!(
                    format!("{:?}", sign_on(now)),
                    format!("{fresh:?}"),
                    "remembered view decision, ask {} at t={}", ask, now
                );
            }
        }
    }
}

/// The registry epoch pins cached *searches*, not standing decisions.
/// Rebinding a chain domain's name to a different key makes a fresh
/// search deny at once, while an admitted channel and a minted token stay
/// valid: trust is withdrawn through the revocation bus, so they lapse
/// when the credential is revoked.
#[test]
fn standing_decisions_do_not_watch_the_registry() {
    use psf_switchboard::{Authorizer, ClockRef};
    use psf_views::ViewAcl;

    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let ny = Entity::with_seed("Comp.NY", b"rebind");
    let bob = Entity::with_seed("Bob", b"rebind");
    registry.register(&ny);
    registry.register(&bob);
    let grant = DelegationBuilder::new(&ny)
        .subject_entity(&bob)
        .role(ny.role("Member"))
        .sign();
    repo.publish_at_issuer(grant.clone());

    let auth = Authorizer::new(
        registry.clone(),
        repo.clone(),
        bus.clone(),
        ClockRef::new(),
        ny.role("Member"),
    );
    let channel = auth.authorize(&bob.name, &bob.public_key(), &[]).unwrap();
    let token = ViewAcl::new()
        .rule(ny.role("Member"), "Full")
        .authorize_once(&bob.as_subject(), &[], &registry, &repo, &bus, 0)
        .unwrap();

    let impostor = Entity::with_seed("Comp.NY", b"impostor");
    registry.register_key(ny.name.clone(), impostor.public_key());
    let fresh = ProofEngine::new(&registry, &repo, &bus, 0);
    assert!(fresh
        .prove(&bob.as_subject(), &ny.role("Member"), &[])
        .is_err());
    assert!(auth.authorize(&bob.name, &bob.public_key(), &[]).is_err());
    assert!(
        channel.is_valid(),
        "the channel does not watch the registry"
    );
    assert!(token.is_valid(0), "the token does not watch the registry");

    bus.revoke(&grant.id());
    assert!(!channel.is_valid());
    assert!(!token.is_valid(0));
    assert_eq!(channel.revocation_notice(), Some(grant.id()));
}

// ------------------------------------- static/dynamic proof agreement --

/// Evaluation time of the differential worlds (expiry 5 is past, 60–80
/// lie inside the PSF005 horizon).
const DIFF_NOW: u64 = 10;
const DIFF_HORIZON: u64 = 100;

/// One seeded delegation world for the static/dynamic differential.
struct DiffWorld {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    /// Every registered principal: the rows of the subject × role grid.
    entities: Vec<Entity>,
    /// Ids of the credentials expiring inside the PSF005 horizon.
    expiring: Vec<String>,
    /// Roles no subject may reach: behind the dangling support chain, the
    /// expired credential and the revoked credential.
    dead_roles: Vec<RoleName>,
}

/// splitmix64, so a world is a pure function of `(seed, with_attrs)`.
struct DiffRng {
    state: u64,
    with_attrs: bool,
}

impl DiffRng {
    fn below(&mut self, n: u64) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// Maybe attach a capacity and a range to the credential being built.
    fn decorate<'a>(&mut self, b: DelegationBuilder<'a>) -> DelegationBuilder<'a> {
        if !self.with_attrs {
            return b;
        }
        let b = match self.below(2) {
            0 => b.attr("CPU", AttrValue::Capacity(10 + self.below(90) as i64)),
            _ => b,
        };
        match self.below(3) {
            // Ranges of width 3 inside 0..10: two of them on one path
            // are disjoint often enough to annihilate it.
            0 => {
                let lo = self.below(7) as i64;
                b.attr("Trust", AttrValue::Range(lo, lo + 3))
            }
            _ => b,
        }
    }
}

/// Build the world `seed` names. Every world holds a role-mapping chain
/// closed into a role→role cycle, three third-party grants behind 1-, 2-
/// and 3-deep assignment chains (the first chain missing its root link),
/// one expired and one revoked credential each gating a further role,
/// and three credentials expiring inside the horizon. With `with_attrs`
/// the membership and assignment credentials carry capacities and ranges
/// that attenuate along the chain and sometimes annihilate.
fn diff_world(seed: u64, with_attrs: bool) -> DiffWorld {
    let mut rng = DiffRng {
        state: seed ^ 0xD1B5_4A32_D192_ED03,
        with_attrs,
    };
    let w = DiffWorld {
        registry: EntityRegistry::new(),
        repo: Repository::new(),
        bus: RevocationBus::new(),
        entities: Vec::new(),
        expiring: Vec::new(),
        dead_roles: Vec::new(),
    };
    let mut entities = Vec::new();
    let mut entity = |name: String| {
        let e = Entity::with_seed(name, b"diff");
        w.registry.register(&e);
        entities.push(e.clone());
        e
    };
    let mut expiring = Vec::new();
    let mut publish = |b: DelegationBuilder| -> String {
        let cred = b.sign();
        let id = cred.id();
        if cred.body.expires.is_some_and(|e| e > DIFF_NOW) {
            expiring.push(id.clone());
        }
        w.repo.publish_at_issuer(cred);
        id
    };

    let users = [entity(format!("u{seed}-0")), entity(format!("u{seed}-1"))];
    let n = 2 + rng.below(3) as usize;
    let domains: Vec<Entity> = (0..n).map(|i| entity(format!("d{seed}-{i}"))).collect();

    // The chain u0 → d[n-1].R → … → d[0].R, closed into a cycle by
    // d[0].R → d[n-1].R; u1 enters it at d[0].R. The entry credential and
    // one mapping expire inside the horizon; half the worlds back the
    // entry with a second, unexpiring credential (then it is no SPOF).
    let last = &domains[n - 1];
    publish(
        rng.decorate(
            DelegationBuilder::new(last)
                .subject_entity(&users[0])
                .role(last.role("R"))
                .expires(60),
        ),
    );
    if rng.below(2) == 0 {
        publish(
            DelegationBuilder::new(last)
                .subject_entity(&users[0])
                .role(last.role("R"))
                .serial(1),
        );
    }
    for i in (0..n - 1).rev() {
        let b = DelegationBuilder::new(&domains[i])
            .subject_role(domains[i + 1].role("R"))
            .role(domains[i].role("R"));
        publish(rng.decorate(if i == 0 { b.expires(70) } else { b }));
    }
    publish(
        rng.decorate(
            DelegationBuilder::new(last)
                .subject_role(domains[0].role("R"))
                .role(last.role("R")),
        ),
    );
    publish(
        rng.decorate(
            DelegationBuilder::new(&domains[0])
                .subject_entity(&users[1])
                .role(domains[0].role("R")),
        ),
    );

    // Third-party grants: holder h_depth issues `user → owner.P{g}` on
    // the strength of owner ⇒ h_1 ⇒ … ⇒ h_depth. Grant 0 lacks the
    // owner's root link, so its whole chain dangles. Each granted role
    // maps onward into a role of the next domain.
    let mut dead_roles = Vec::new();
    for g in 0..3usize {
        let owner = &domains[rng.below(n as u64) as usize];
        let role = owner.role(format!("P{g}"));
        let holders: Vec<Entity> = (0..=g)
            .map(|k| entity(format!("h{seed}-{g}-{k}")))
            .collect();
        for (k, holder) in holders.iter().enumerate() {
            let issuer = if k == 0 { owner } else { &holders[k - 1] };
            if g == 0 && k == 0 {
                continue;
            }
            let b = DelegationBuilder::new(issuer)
                .subject_entity(holder)
                .assignment()
                .role(role.clone());
            publish(rng.decorate(if g == 2 && k == 1 { b.expires(80) } else { b }));
        }
        publish(
            rng.decorate(
                DelegationBuilder::new(&holders[g])
                    .subject_entity(&users[g % 2])
                    .role(role.clone()),
            ),
        );
        let onward = &domains[(g + 1) % n];
        publish(
            rng.decorate(
                DelegationBuilder::new(onward)
                    .subject_role(role.clone())
                    .role(onward.role(format!("Q{g}"))),
            ),
        );
        if g == 0 {
            dead_roles.extend([role, onward.role("Q0")]);
        }
    }

    // One expired and one revoked grant, each the only way into a role.
    for (name, expired) in [("Old", true), ("Gone", false)] {
        let b = DelegationBuilder::new(&domains[0])
            .subject_entity(&users[1])
            .role(domains[0].role(name));
        let id = publish(if expired { b.expires(5) } else { b });
        if !expired {
            w.bus.revoke(&id);
        }
        publish(
            DelegationBuilder::new(&domains[1])
                .subject_role(domains[0].role(name))
                .role(domains[1].role(format!("Past{name}"))),
        );
        dead_roles.extend([
            domains[0].role(name),
            domains[1].role(format!("Past{name}")),
        ]);
    }

    DiffWorld {
        entities,
        expiring,
        dead_roles,
        ..w
    }
}

/// The closure computed without the engine: two least fixpoints over the
/// raw credential list (who may assign a role; who holds a role). It
/// shares no walk, support search or visiting order with
/// `ProofEngine`; it ignores attributes, so it is an oracle only for the
/// attribute-free worlds.
fn naive_closure(w: &DiffWorld) -> BTreeSet<(String, String)> {
    use psf_drbac::{subject_key, DelegationKind, Subject};
    let all = w.repo.all_credentials();
    let live = all.iter().filter(|c| {
        let key = w.registry.lookup(&c.body.issuer);
        key.is_some_and(|k| c.verify(&k, DIFF_NOW).is_ok()) && !w.bus.is_revoked(&c.id())
    });
    let live: Vec<_> = live.collect();
    let seeds: Vec<String> = w
        .entities
        .iter()
        .map(|e| subject_key(&e.as_subject()))
        .collect();
    let right = |c: &SignedDelegation, who: &str| (who.to_string(), c.body.object.to_string());
    // Owners may assign their own roles; an assignment passes the right on.
    let owners = all.iter().map(|c| right(c, &c.body.object.owner.0));
    let mut may_assign: BTreeSet<_> = owners.collect();
    let mut holds = BTreeSet::new();
    loop {
        let before = (may_assign.len(), holds.len());
        for c in &live {
            if !may_assign.contains(&right(c, &c.body.issuer.0)) {
                continue;
            }
            if c.body.kind == DelegationKind::Assignment {
                if let Subject::Entity { name, .. } = &c.body.subject {
                    may_assign.insert(right(c, &name.0));
                }
                continue;
            }
            for seed in &seeds {
                let linked = match &c.body.subject {
                    Subject::Role(r) => holds.contains(&(seed.clone(), r.to_string())),
                    entity => subject_key(entity) == *seed,
                };
                if linked {
                    holds.insert((seed.clone(), c.body.object.to_string()));
                }
            }
        }
        if before == (may_assign.len(), holds.len()) {
            return holds;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The static analyzer's reachability closure, the live `ProofEngine`
    /// and the independent certificate checker must agree over seeded
    /// delegation worlds (third-party grants behind assignment chains,
    /// attenuating attributes, expiry, revocation, a role cycle):
    ///
    /// * (i) every closure pair's certificate passes `check_certificate`,
    ///   as emitted and after a wire round-trip;
    /// * (ii) on attribute-free worlds the closure equals `naive_closure`;
    /// * (iii) a (subject, role) pair of the world's grid is in the closure
    ///   exactly when `engine.prove` succeeds, and with the closure as
    ///   intent the analyzer reports no escalation, while dropping one pair
    ///   flags exactly that pair as PSF001;
    /// * (iv) PSF005's hide-one-credential view loses exactly the pairs
    ///   that revoking that credential in a rebuilt world loses.
    #[test]
    fn static_closure_agrees_with_proof_engine(
        seed in 0u64..10_000,
        with_attrs in any::<bool>(),
        drop_index in 0usize..64,
    ) {
        use psf_analysis::{analyze_graph, closure, GraphInput, LintCode, Report};
        use psf_cert::AuthCertificate;
        use psf_drbac::{check_certificate, subject_key, CredentialSource};

        let w = diff_world(seed, with_attrs);
        let input = GraphInput {
            registry: &w.registry,
            repository: &w.repo,
            bus: &w.bus,
            now: DIFF_NOW,
            intent: None,
            expiry_horizon: DIFF_HORIZON,
        };
        let keyed = |pairs: &[(psf_drbac::Subject, RoleName)]| -> BTreeSet<(String, String)> {
            pairs.iter().map(|(s, r)| (subject_key(s), r.to_string())).collect()
        };
        let pairs = closure(&input);
        let closure_keys = keyed(&pairs);
        prop_assert_eq!(closure_keys.len(), pairs.len(), "closure repeats a pair");
        prop_assert!(!pairs.is_empty());
        for dead in &w.dead_roles {
            prop_assert!(
                !pairs.iter().any(|(_, r)| r == dead),
                "closure reaches {dead} through a dangling, expired or revoked credential"
            );
        }
        let engine = ProofEngine::new(&w.registry, &w.repo, &w.bus, DIFF_NOW);

        // (i) engine ⇒ checker, in memory and over the wire.
        let mut supported = 0;
        for (subject, role) in &pairs {
            let (proof, cert, _) = engine.prove_certified(subject, role, &[]).unwrap();
            supported += proof.edges.iter().filter(|e| e.support.is_some()).count();
            let wire = AuthCertificate::decode(&cert.encode()).unwrap();
            for c in [&*cert, &wire] {
                let verdict = check_certificate(c, &w.registry, &w.bus, DIFF_NOW, w.repo.version());
                prop_assert!(
                    verdict.is_ok(),
                    "checker rejects {} -> {role}: {verdict:?}",
                    subject.render()
                );
            }
        }

        // (ii) completeness against the independent oracle.
        if !with_attrs {
            prop_assert_eq!(&closure_keys, &naive_closure(&w));
            prop_assert!(supported >= 2, "third-party grants must carry proofs");
        }

        // (iii) the grid: in the closure ⇔ live-provable.
        let all_roles: BTreeSet<RoleName> = w
            .repo
            .all_credentials()
            .iter()
            .map(|c| c.body.object.clone())
            .collect();
        for e in &w.entities {
            for role in &all_roles {
                prop_assert_eq!(
                    engine.prove(&e.as_subject(), role, &[]).is_ok(),
                    closure_keys.contains(&(subject_key(&e.as_subject()), role.to_string())),
                    "engine and closure disagree on {} -> {}",
                    &e.name.0,
                    role
                );
            }
        }

        // Intent = full closure: the analyzer is escalation-silent.
        let mut clean = Report::new();
        analyze_graph(
            &GraphInput { intent: Some(&pairs), ..input },
            &mut clean,
        );
        prop_assert!(
            !clean.diagnostics.iter().any(|d| d.code == LintCode::PrivilegeEscalation),
            "{}",
            clean.render_human()
        );

        // Dropping one pair from the intent flags exactly that pair, and
        // the flagged escalation reproduces as a live proof.
        let victim = drop_index % pairs.len();
        let reduced: Vec<_> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, p)| p.clone())
            .collect();
        let mut flagged = Report::new();
        analyze_graph(
            &GraphInput { intent: Some(&reduced), ..input },
            &mut flagged,
        );
        let escalations: Vec<_> = flagged
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::PrivilegeEscalation)
            .collect();
        prop_assert_eq!(escalations.len(), 1, "{}", flagged.render_human());
        let (victim_subject, victim_role) = &pairs[victim];
        let victim_render = victim_subject.render();
        prop_assert_eq!(
            escalations[0].subject.as_deref(),
            Some(victim_render.as_str())
        );
        prop_assert!(escalations[0].message.contains(&victim_role.to_string()));
        prop_assert!(engine.prove(victim_subject, victim_role, &[]).is_ok());

        // (iv) PSF005 hides one credential id; revoking that credential
        // in a world rebuilt from the same seed must lose the same pairs.
        prop_assert!(w.expiring.len() >= 3);
        for id in &w.expiring {
            let rebuilt = diff_world(seed, with_attrs);
            rebuilt.bus.revoke(id);
            let survivors = keyed(&closure(&GraphInput {
                registry: &rebuilt.registry,
                repository: &rebuilt.repo,
                bus: &rebuilt.bus,
                ..input
            }));
            let mut lost: Vec<String> = pairs
                .iter()
                .filter(|(s, r)| !survivors.contains(&(subject_key(s), r.to_string())))
                .map(|(s, r)| format!("{} → {r}", s.render()))
                .collect();
            lost.sort();
            let reported = clean
                .diagnostics
                .iter()
                .find(|d| d.code == LintCode::ExpiringSpof && d.subject.as_deref() == Some(id));
            match reported {
                None => prop_assert!(lost.is_empty(), "PSF005 missed {id}: loses {lost:?}"),
                Some(d) => prop_assert!(
                    d.message.ends_with(&format!("disconnects: {}", lost.join(", "))),
                    "PSF005 on {id} says '{}', revocation loses {lost:?}",
                    d.message
                ),
            }
        }
    }
}

// ------------------------------------- malformed-input hardening --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any prefix of a real view document must parse-or-error, never
    /// panic — truncated tags are the common corruption for specs that
    /// travel over Switchboard channels.
    #[test]
    fn truncated_view_xml_never_panics(cut_ratio in 0.0f64..1.0) {
        let full = psf_mail::views::PARTNER_XML;
        let cut = ((full.len() as f64) * cut_ratio) as usize;
        let mut cut = cut;
        while cut > 0 && !full.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &full[..cut];
        let _ = psf_views::ViewSpec::parse_xml(prefix);
        let _ = psf_xml::parse(prefix);
    }

    /// Duplicate attributes are always rejected, whatever the key,
    /// values, or separating whitespace.
    #[test]
    fn duplicate_attributes_always_rejected(
        key in "[A-Za-z][A-Za-z0-9_-]{0,12}",
        v1 in "[a-zA-Z0-9 .,]{0,16}",
        v2 in "[a-zA-Z0-9 .,]{0,16}",
        pad in " {1,4}",
    ) {
        let doc = format!(r#"<a {key}="{v1}"{pad}{key}="{v2}"/>"#);
        let err = psf_xml::parse(&doc).unwrap_err();
        prop_assert!(err.message.contains("duplicate attribute"), "{}", err);
    }

    /// Nesting beyond the depth cap errors cleanly instead of blowing
    /// the stack; below the cap, deep-but-legal documents still parse.
    #[test]
    fn nesting_depth_is_capped_not_crashed(extra in 1usize..64, name in "[a-z]{1,8}") {
        let depth = psf_xml::MAX_DEPTH + extra;
        let open = format!("<{name}>").repeat(depth);
        let close = format!("</{name}>").repeat(depth);
        let err = psf_xml::parse(&format!("{open}{close}")).unwrap_err();
        prop_assert!(err.message.contains("nesting exceeds"), "{}", err);

        let legal = psf_xml::MAX_DEPTH - 1;
        let doc = format!("{}{}", format!("<{name}>").repeat(legal), format!("</{name}>").repeat(legal));
        prop_assert!(psf_xml::parse(&doc).is_ok());
    }

    /// The view-spec loader survives arbitrary printable garbage and
    /// arbitrary structurally-valid-but-meaningless documents.
    #[test]
    fn view_spec_loader_never_panics(input in "[ -~<>/&\"']{0,160}") {
        let _ = psf_views::ViewSpec::parse_xml(&input);
    }

    /// So does the analysis fixture loader.
    #[test]
    fn fixture_loader_never_panics(
        input in "[ -~<>/&\"']{0,120}",
        cut_ratio in 0.0f64..1.0,
    ) {
        let _ = psf_analysis::FixtureWorld::parse(&input);
        let real = r#"<Scenario name="t"><Delegations><Delegation subject-entity="A" role="O.R" issuer="O"/></Delegations></Scenario>"#;
        let cut = ((real.len() as f64) * cut_ratio) as usize;
        let _ = psf_analysis::FixtureWorld::parse(&real[..cut]);
    }
}

// -------------------------------------------------- durability / WAL --

fn wal_tmpdir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "psf-prop-wal-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

// ------------------------------------- sharded repository differential --

/// One step of a random workload driven identically at a hash-sharded
/// repository and a single-map oracle.
#[derive(Debug, Clone)]
enum ShardStep {
    /// Publish `SD{domain}.R -> SU{user}` (fresh serial), optionally
    /// expiring at logical second `expires`, tagged per `tag` (mod 4).
    Publish {
        user: usize,
        domain: usize,
        expires: Option<u64>,
        tag: u8,
    },
    /// Revoke one of the previously issued credentials (modulo-indexed).
    Revoke { pick: usize },
    /// Purge everything expired as of logical second `now`.
    Purge { now: u64 },
    /// Directed tag lookup for one user's subject key.
    TagLookup { user: usize },
}

fn arb_shard_step() -> impl Strategy<Value = ShardStep> {
    prop_oneof![
        // Two publish arms bias the unweighted union toward growth.
        (
            0usize..16,
            0usize..8,
            proptest::option::of(1u64..64),
            any::<u8>()
        )
            .prop_map(|(user, domain, expires, tag)| ShardStep::Publish {
                user,
                domain,
                expires,
                tag,
            }),
        (
            0usize..16,
            0usize..8,
            proptest::option::of(1u64..64),
            any::<u8>()
        )
            .prop_map(|(user, domain, expires, tag)| ShardStep::Publish {
                user,
                domain,
                expires,
                tag,
            }),
        (0usize..32).prop_map(|pick| ShardStep::Revoke { pick }),
        (1u64..64).prop_map(|now| ShardStep::Purge { now }),
        (0usize..16).prop_map(|user| ShardStep::TagLookup { user }),
    ]
}

fn tag_of(seed: u8) -> psf_drbac::DiscoveryTag {
    use psf_drbac::DiscoveryTag::*;
    match seed % 4 {
        0 => SearchableFromSubject,
        1 => SearchableFromObject,
        2 => Both,
        _ => None,
    }
}

/// Crash injection on the durable repository: run a random workload
/// against a `shards`-segment directory, cut ONE segment's log — a shard
/// or the revocation bus, chosen by `victim_pick` — at a random byte
/// offset (a torn write), recover, and require authorization state
/// identical to an in-memory oracle built from the records that survived
/// in every segment — same `prove` outcome, same view selection, same
/// credential ids, same revocation set, and a denial wherever a surviving
/// revocation covers every credential for a role. A writable reopen must
/// then heal the torn segment and leave every segment verifiably clean.
fn crash_recovery_matches_oracle(
    shards: usize,
    steps: &[ShardStep],
    cut_ratio: f64,
    victim_pick: usize,
) -> Result<(), TestCaseError> {
    use psf_drbac::wal::{self, FsyncPolicy, ShardedDurableRepository, WalConfig};
    use psf_views::ViewAcl;

    let dir = wal_tmpdir();
    let users: Vec<Entity> = (0..16)
        .map(|i| Entity::with_seed(format!("SU{i}"), b"shard-crash"))
        .collect();
    let domains: Vec<Entity> = (0..8)
        .map(|i| Entity::with_seed(format!("SD{i}"), b"shard-crash"))
        .collect();

    // --- Run the workload against the durable repository. No serials: a
    // repeated (user, domain, expiry) re-publishes the same credential id,
    // which replay must deduplicate. ---
    let mut issued: Vec<String> = Vec::new();
    {
        let (d, _) = ShardedDurableRepository::open(
            &dir,
            shards,
            WalConfig {
                fsync: FsyncPolicy::Never,
                auto_compact_appends: None,
            },
        )
        .unwrap();
        for step in steps {
            match step {
                ShardStep::Publish {
                    user,
                    domain,
                    expires,
                    tag,
                } => {
                    let dom = &domains[*domain];
                    let mut b = DelegationBuilder::new(dom)
                        .subject_entity(&users[*user])
                        .role(dom.role("R"));
                    if let Some(e) = expires {
                        b = b.expires(*e);
                    }
                    let cred = b.sign();
                    issued.push(cred.id());
                    d.repository().publish(dom.name.clone(), cred, tag_of(*tag));
                }
                ShardStep::Revoke { pick } => {
                    if !issued.is_empty() {
                        d.bus().revoke(&issued[pick % issued.len()]);
                    }
                }
                ShardStep::Purge { now } => {
                    d.repository().purge_expired(*now);
                }
                ShardStep::TagLookup { user } => {
                    // Reads ride along; they must never disturb the log.
                    let _ = d.repository().query_by_subject(&users[*user].as_subject());
                }
            }
        }
        d.sync().unwrap();
        d.detach();
    }

    // --- Tear ONE segment's log at a random byte offset. ---
    let segments = wal::segment_dirs(&dir).unwrap();
    prop_assert_eq!(segments.len(), shards + 1);
    let victim = (0..segments.len())
        .map(|i| segments[(victim_pick + i) % segments.len()].join(wal::LOG_FILE))
        .find(|log| std::fs::metadata(log).is_ok_and(|m| m.len() >= 2));
    // All-no-op workloads commit nothing to any segment.
    prop_assume!(victim.is_some());
    let log = victim.unwrap();
    let full_len = std::fs::metadata(&log).unwrap().len();
    let cut = 1 + ((full_len - 1) as f64 * cut_ratio) as u64;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .unwrap()
        .set_len(cut)
        .unwrap();

    // --- Oracle: replay every segment's surviving records through the
    // public API. Purge records are replicated into every shard segment
    // and re-applied *shard-locally* at recovery, so the oracle replays
    // each segment into its own local store (a later shard's purge copy
    // must not delete another shard's credential published after that
    // purge) and merges the survivors. ---
    let oracle_repo = Repository::with_shard_count(1);
    let oracle_bus = RevocationBus::new();
    let mut replayable = 0usize;
    let (bus_segment, shard_segments) = segments.split_last().unwrap();
    for seg in shard_segments {
        let image = std::fs::read(seg.join(wal::LOG_FILE)).unwrap();
        let local = Repository::with_shard_count(1);
        for rec in wal::scan_log(&image).records {
            replayable += 1;
            match rec.op {
                wal::WalOp::Publish { home, tag, cred } => drop(local.publish(home, cred, tag)),
                wal::WalOp::PurgeExpired { now } => {
                    local.purge_expired(now);
                }
                wal::WalOp::Revoke { .. } | wal::WalOp::RevokeBatch { .. } => {
                    panic!("revocations belong to the bus segment")
                }
            }
        }
        for (home, tag, cred) in local.snapshot_entries() {
            oracle_repo.publish(home, (**cred).clone(), tag);
        }
    }
    let bus_image = std::fs::read(bus_segment.join(wal::LOG_FILE)).unwrap();
    for rec in wal::scan_log(&bus_image).records {
        replayable += 1;
        match rec.op {
            wal::WalOp::Revoke { id } => oracle_bus.revoke(&id),
            wal::WalOp::RevokeBatch { ids } => {
                oracle_bus.revoke_all(&ids);
            }
            _ => panic!("bus segment only carries revocations"),
        }
    }

    // --- Recover and compare. ---
    let (rec_repo, rec_bus, report) = Repository::recover_sharded(&dir).unwrap();
    prop_assert_eq!(report.records_replayed, replayable);

    let registry = EntityRegistry::new();
    for u in &users {
        registry.register(u);
    }
    for d in &domains {
        registry.register(d);
    }
    // Replay dedups repeated publishes of the same credential (the
    // duplicate-tolerance rule that absorbs snapshot/log overlap), so
    // compare the *distinct* committed id sets.
    let ids = |repo: &Repository| {
        let mut v: Vec<String> = repo.all_credentials().iter().map(|c| c.id()).collect();
        v.sort();
        v.dedup();
        v
    };
    prop_assert_eq!(ids(&oracle_repo), ids(&rec_repo));
    prop_assert_eq!(oracle_bus.revoked_ids(), rec_bus.revoked_ids());
    let recovered = rec_repo.all_credentials();
    let oracle_engine = ProofEngine::new(&registry, &oracle_repo, &oracle_bus, 0);
    let rec_engine = ProofEngine::new(&registry, &rec_repo, &rec_bus, 0);
    for u in &users {
        let subject = u.as_subject();
        for d in &domains {
            let role = d.role("R");
            let granted = rec_engine.check(&subject, &role, &[]);
            prop_assert_eq!(
                oracle_engine.check(&subject, &role, &[]),
                granted,
                "decision divergence on {} -> {}",
                u.name.0,
                role
            );
            // A revocation whose record survived still denies: with every
            // recovered credential for this pair revoked, nothing grants.
            let mut grants = recovered
                .iter()
                .filter(|c| c.body.subject == subject && c.body.object == role)
                .peekable();
            if grants.peek().is_some() && grants.all(|c| rec_bus.is_revoked(&c.id())) {
                prop_assert!(!granted, "revoked {} -> {} still granted", u.name.0, role);
            }
            let acl = ViewAcl::new().rule(role.clone(), "FullView");
            prop_assert_eq!(
                acl.authorize_once(&subject, &[], &registry, &oracle_repo, &oracle_bus, 0)
                    .is_some(),
                acl.authorize_once(&subject, &[], &registry, &rec_repo, &rec_bus, 0)
                    .is_some(),
                "view selection divergence on {} -> {}",
                u.name.0,
                role
            );
        }
    }

    // --- A writable reopen heals the torn segment; every segment must
    // then verify clean and replay the same count. ---
    {
        let (d, rep2) = ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();
        prop_assert_eq!(rep2.records_replayed, report.records_replayed);
        d.detach();
    }
    let v = wal::verify_sharded_dir(&dir).unwrap();
    prop_assert!(
        v.is_clean(),
        "segments {:?} not clean after reopen",
        v.damaged()
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hash-sharded repository must be observationally identical to a
    /// single-map store. Drive a random interleaving of publishes,
    /// revocations, purges, and directed tag lookups at both; every tag
    /// lookup, every purge count, the final credential set, and every
    /// prove / select_view decision over the user × role grid must be
    /// byte-identical.
    #[test]
    fn sharded_repository_matches_single_map_oracle(
        steps in proptest::collection::vec(arb_shard_step(), 1..32),
    ) {
        use psf_drbac::repository::subject_key;
        use psf_views::ViewAcl;

        let users: Vec<Entity> = (0..16)
            .map(|i| Entity::with_seed(format!("SU{i}"), b"shard-diff"))
            .collect();
        let domains: Vec<Entity> = (0..8)
            .map(|i| Entity::with_seed(format!("SD{i}"), b"shard-diff"))
            .collect();

        let sharded = Repository::new();
        let oracle = Repository::with_shard_count(1);
        let sharded_bus = RevocationBus::new();
        let oracle_bus = RevocationBus::new();
        let mut issued: Vec<String> = Vec::new();
        let mut serial = 0u64;

        let ids = |creds: Vec<std::sync::Arc<Credential>>| {
            let mut v: Vec<String> = creds.iter().map(|c| c.id()).collect();
            v.sort();
            v
        };

        for step in &steps {
            match step {
                ShardStep::Publish { user, domain, expires, tag } => {
                    let dom = &domains[*domain];
                    let mut b = DelegationBuilder::new(dom)
                        .subject_entity(&users[*user])
                        .role(dom.role("R"))
                        .serial(serial);
                    serial += 1;
                    if let Some(e) = expires {
                        b = b.expires(*e);
                    }
                    let cred = b.sign();
                    issued.push(cred.id());
                    sharded.publish(dom.name.clone(), cred.clone(), tag_of(*tag));
                    oracle.publish(dom.name.clone(), cred, tag_of(*tag));
                }
                ShardStep::Revoke { pick } => {
                    if !issued.is_empty() {
                        let id = &issued[pick % issued.len()];
                        sharded_bus.revoke(id);
                        oracle_bus.revoke(id);
                    }
                }
                ShardStep::Purge { now } => {
                    prop_assert_eq!(
                        sharded.purge_expired(*now),
                        oracle.purge_expired(*now),
                        "purge count divergence at now={}", now
                    );
                }
                ShardStep::TagLookup { user } => {
                    let key = subject_key(&users[*user].as_subject());
                    prop_assert_eq!(
                        ids(sharded.query_by_subject_key(&key)),
                        ids(oracle.query_by_subject_key(&key)),
                        "tag-lookup divergence for {}", key
                    );
                }
            }
        }

        // Byte-identical final credential sets, subject by subject and
        // in aggregate.
        prop_assert_eq!(sharded.len(), oracle.len());
        prop_assert_eq!(ids(sharded.all_credentials()), ids(oracle.all_credentials()));
        for u in &users {
            prop_assert_eq!(
                ids(sharded.query_by_subject(&u.as_subject())),
                ids(oracle.query_by_subject(&u.as_subject()))
            );
        }

        // Identical prove and select_view decisions over the full grid.
        let registry = EntityRegistry::new();
        for u in &users {
            registry.register(u);
        }
        for d in &domains {
            registry.register(d);
        }
        let sharded_engine = ProofEngine::new(&registry, &sharded, &sharded_bus, 0);
        let oracle_engine = ProofEngine::new(&registry, &oracle, &oracle_bus, 0);
        for u in &users {
            let subject = u.as_subject();
            for d in &domains {
                let role = d.role("R");
                prop_assert_eq!(
                    sharded_engine.check(&subject, &role, &[]),
                    oracle_engine.check(&subject, &role, &[]),
                    "prove divergence on {} -> {}", u.name.0, role
                );
                let acl = ViewAcl::new().rule(role.clone(), "FullView");
                prop_assert_eq!(
                    acl.authorize_once(&subject, &[], &registry, &sharded, &sharded_bus, 0)
                        .is_some(),
                    acl.authorize_once(&subject, &[], &registry, &oracle, &oracle_bus, 0)
                        .is_some(),
                    "select_view divergence on {} -> {}", u.name.0, role
                );
            }
        }
    }

    /// Crash injection on the single log (`shards = 1`): run a random
    /// workload against the durable repository, cut its one shard log or
    /// its bus log at a random byte offset, recover, and require
    /// authorization state identical to the never-crashed oracle.
    #[test]
    fn recovery_matches_never_crashed_oracle(
        steps in proptest::collection::vec(arb_shard_step(), 1..24),
        cut_ratio in 0.0f64..1.0,
        victim_pick in 0usize..2,
    ) {
        crash_recovery_matches_oracle(1, &steps, cut_ratio, victim_pick)?;
    }

    /// The same crash injection across eight shard segments plus the bus:
    /// ONE segment is torn, the others must lose nothing.
    #[test]
    fn sharded_recovery_after_torn_shard_matches_oracle(
        steps in proptest::collection::vec(arb_shard_step(), 1..24),
        cut_ratio in 0.0f64..1.0,
        victim_pick in 0usize..9,
    ) {
        crash_recovery_matches_oracle(8, &steps, cut_ratio, victim_pick)?;
    }
}
