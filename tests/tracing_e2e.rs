//! End-to-end causal tracing: one SSO-shaped request over an in-memory
//! secure Switchboard pair must yield ONE trace linking the client's
//! `rpc.call` span, the server's `rpc.dispatch` span, the ProofEngine
//! proof search, and the view/ACL decision — across the client thread,
//! the RPC envelope, and the server's reactor shard. The audit log must
//! replay the authorization decisions behind that same trace, and
//! untraced traffic must leave no per-call spans at all.

use psf_drbac::entity::{Entity, EntityRegistry, Subject};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::DelegationBuilder;
use psf_switchboard::{pair_in_memory, AuthSuite, Authorizer, ChannelConfig, ClockRef};
use psf_telemetry::audit::{Decision, Verdict};
use psf_telemetry::{SpanRecord, TraceId};
use psf_views::ViewAcl;
use std::time::Duration;

struct World {
    registry: EntityRegistry,
    repo: Repository,
    bus: RevocationBus,
    domain: Entity,
    client_suite: AuthSuite,
    server_suite: AuthSuite,
    bob: Entity,
    bob_cred: psf_drbac::SignedDelegation,
}

fn world(seed: &[u8]) -> World {
    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Comp.NY", seed);
    let server = Entity::with_seed("Srv", seed);
    let bob = Entity::with_seed("Bob", seed);
    for e in [&domain, &server, &bob] {
        registry.register(e);
    }
    let client_cred = DelegationBuilder::new(&domain)
        .subject_entity(&bob)
        .role(domain.role("Member"))
        .sign();
    let server_cred = DelegationBuilder::new(&domain)
        .subject_entity(&server)
        .role(domain.role("Service"))
        .sign();
    let auth = |role: &str| {
        Authorizer::new(
            registry.clone(),
            repo.clone(),
            bus.clone(),
            clock.clone(),
            domain.role(role),
        )
    };
    let bob_cred = client_cred.clone();
    World {
        client_suite: AuthSuite::new(bob.clone(), vec![client_cred], auth("Service")),
        server_suite: AuthSuite::new(server, vec![server_cred], auth("Member")),
        registry,
        repo,
        bus,
        domain,
        bob,
        bob_cred,
    }
}

fn config() -> ChannelConfig {
    ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout: Duration::from_secs(5),
    }
}

/// Register the SSO-shaped handler: a role→view ACL decision (which runs
/// the dRBAC proof search inside) on the server side of the channel.
fn register_sso(server: &psf_switchboard::Channel, w: &World) {
    let acl = ViewAcl::new()
        .rule(w.domain.role("Member"), "member")
        .others("anonymous");
    let subject = Subject::Entity {
        name: w.bob.name.clone(),
        key: w.bob.public_key(),
    };
    let creds = vec![w.bob_cred.clone()];
    let (registry, repo, bus) = (w.registry.clone(), w.repo.clone(), w.bus.clone());
    server.register_handler("sso", move |_args| {
        let (view, _proof) = acl
            .select_view(&subject, &creds, &registry, &repo, &bus, 0)
            .ok_or_else(|| "no view".to_string())?;
        Ok(view.into_bytes())
    });
}

fn in_trace(spans: &[SpanRecord], trace: TraceId) -> Vec<&SpanRecord> {
    spans.iter().filter(|s| s.trace == Some(trace)).collect()
}

#[test]
fn one_trace_links_client_rpc_server_dispatch_prove_and_view_decision() {
    let w = world(b"e2e-linked");
    let trace;
    {
        let root = psf_telemetry::span("psf.e2e", "sso.request");
        trace = root.trace_id();
        // The handshake (and the proof search inside each side's
        // Authorizer) runs under the root span, so admission decisions
        // join the trace too.
        let (client, server) =
            pair_in_memory(w.client_suite.clone(), w.server_suite.clone(), config()).unwrap();
        register_sso(&server, &w);

        // Serial path.
        assert_eq!(client.call("sso", b"bob").unwrap(), b"member");
        // Pipelined path: the context rides in every envelope of the
        // window, not just the first.
        let batch: Vec<&[u8]> = vec![b"bob"; 6];
        let results = client.call_many("sso", &batch, 3);
        assert!(results
            .iter()
            .all(|r| matches!(r.as_deref(), Ok(b"member"))));

        client.close();
        server.close();
    } // root drops: the whole tree is now in the buffer.

    let spans = psf_telemetry::tracer().snapshot();
    let ours = in_trace(&spans, trace);
    let find_all = |target: &str, name: &str| -> Vec<&&SpanRecord> {
        ours.iter()
            .filter(|s| s.target == target && s.name == name)
            .collect()
    };
    let calls = find_all("psf.swbd", "rpc.call");
    let dispatches = find_all("psf.swbd", "rpc.dispatch");
    let proves = find_all("psf.drbac", "prove");
    let selects = find_all("psf.views", "select_view");
    assert!(
        !calls.is_empty(),
        "client rpc.call span must join the trace"
    );
    // 1 serial + 6 pipelined dispatches, all joined via the envelope.
    assert!(
        dispatches.len() >= 7,
        "expected >= 7 rpc.dispatch spans, got {}",
        dispatches.len()
    );
    assert!(!proves.is_empty(), "proof search must join the trace");
    assert_eq!(
        selects.len(),
        7,
        "one view decision per request must join the trace"
    );

    // Cross-thread parenting: the serial dispatch hangs under the
    // client's rpc.call span; the view decision under a dispatch; the
    // proof search under the view decision.
    assert!(
        dispatches
            .iter()
            .any(|d| calls.iter().any(|c| Some(c.id) == d.parent)),
        "a dispatch span must be parented under the client's rpc.call"
    );
    assert!(
        selects
            .iter()
            .all(|s| dispatches.iter().any(|d| Some(d.id) == s.parent)),
        "every view decision must be parented under a dispatch"
    );
    assert!(
        proves
            .iter()
            .any(|p| selects.iter().any(|s| Some(s.id) == p.parent)),
        "a proof search must be parented under a view decision"
    );

    // Completeness: no span in the tree references a parent outside it
    // (the root itself is in the buffer since its guard dropped).
    let ids: std::collections::HashSet<u64> = ours.iter().map(|s| s.id).collect();
    let orphans: Vec<_> = ours
        .iter()
        .filter(|s| s.parent.is_some_and(|p| !ids.contains(&p)))
        .collect();
    assert!(orphans.is_empty(), "orphan parents in trace: {orphans:?}");

    // The audit trail replays the decisions behind this trace: channel
    // admission on both sides, the proof searches, the view selections.
    let records = psf_telemetry::audit::global().query(None, false, Some(trace));
    let count = |d: Decision| records.iter().filter(|r| r.decision == d).count();
    assert!(count(Decision::Authorize) >= 2, "handshake admissions");
    assert!(count(Decision::Prove) >= 7, "proof searches");
    assert_eq!(count(Decision::SelectView), 7, "view selections");
    assert!(records.iter().all(|r| r.verdict == Verdict::Allow));
    // Role-rule decisions carry the delegation-chain digest.
    assert!(records
        .iter()
        .filter(|r| r.decision == Decision::SelectView)
        .all(|r| !r.chain_digest.is_empty()));

    // JSONL replay (what `psf audit --json` prints) round-trips the
    // trace id and decision kinds.
    let hex = trace.to_hex();
    for r in &records {
        let line = psf_telemetry::AuditLog::render_jsonl(r);
        assert!(line.contains(&hex), "record must carry the trace id");
        assert!(line.contains(&format!("\"decision\":\"{}\"", r.decision.as_str())));
    }
}

/// Continuous authorization over the certificate path: when a revocation
/// notice invalidates a channel's monitor, the next call re-checks the
/// admission certificate with the independent checker, and that verdict
/// joins the audit trail under the ORIGINAL request trace — carrying the
/// certificate digest and `cert-verified` cache provenance, so the replay
/// shows exactly which piece of evidence was re-validated and why traffic
/// stopped.
#[test]
fn revocation_recheck_joins_the_trace_with_certificate_digest() {
    use psf_telemetry::audit::CacheOutcome;

    let registry = EntityRegistry::new();
    let repo = Repository::new();
    let bus = RevocationBus::new();
    let clock = ClockRef::new();
    let domain = Entity::with_seed("Comp.NY", b"e2e-recheck");
    let server = Entity::with_seed("Srv", b"e2e-recheck");
    let bob = Entity::with_seed("Bob", b"e2e-recheck");
    for e in [&domain, &server, &bob] {
        registry.register(e);
    }
    let client_cred = DelegationBuilder::new(&domain)
        .subject_entity(&bob)
        .role(domain.role("Member"))
        .monitored()
        .sign();
    let server_cred = DelegationBuilder::new(&domain)
        .subject_entity(&server)
        .role(domain.role("Service"))
        .monitored()
        .sign();
    let server_cred_id = server_cred.id();
    let auth = |role: &str| {
        Authorizer::new(
            registry.clone(),
            repo.clone(),
            bus.clone(),
            clock.clone(),
            domain.role(role),
        )
    };
    let client_suite = AuthSuite::new(bob.clone(), vec![client_cred], auth("Service"));
    let server_suite = AuthSuite::new(server, vec![server_cred], auth("Member"));

    let trace;
    {
        let root = psf_telemetry::span("psf.e2e", "sso.recheck");
        trace = root.trace_id();
        let (client, server_ch) = pair_in_memory(client_suite, server_suite, config()).unwrap();
        server_ch.register_handler("ping", |args| Ok(args.to_vec()));
        assert_eq!(client.call("ping", b"hi").unwrap(), b"hi");

        // The server's credential — watched by the client's monitor and
        // part of the admission certificate's chain — is revoked mid-
        // conversation. The client's next call runs the checker-only
        // re-check and refuses traffic.
        bus.revoke(&server_cred_id);
        let err = client.call("ping", b"again").unwrap_err();
        assert!(
            err.to_string().contains("revalidation required"),
            "expected revalidation refusal, got: {err}"
        );
        client.close();
        server_ch.close();
    }

    let records = psf_telemetry::audit::global().query(None, false, Some(trace));
    let rechecks: Vec<_> = records
        .iter()
        .filter(|r| r.cache == CacheOutcome::CertVerified)
        .collect();
    assert_eq!(
        rechecks.len(),
        1,
        "exactly one checker re-check must join the request trace"
    );
    let r = rechecks[0];
    assert_eq!(r.decision, Decision::Authorize);
    assert_eq!(
        r.verdict,
        Verdict::Revoked,
        "the revoked chain must be refused"
    );
    assert_eq!(
        r.cert_digest.len(),
        16,
        "the audited verdict must carry the certificate digest, got {:?}",
        r.cert_digest
    );
    assert_eq!(
        r.chain_digest,
        psf_telemetry::audit::chain_digest(&[&server_cred_id]),
        "the audited chain digest must cover the revoked credential's chain"
    );
    assert!(r.detail.contains("certificate re-check"));

    // The admissions from the handshake audited under the same trace used
    // the engine path, not the checker: provenance separates them.
    assert!(records
        .iter()
        .any(|rec| rec.decision == Decision::Authorize && rec.cache != CacheOutcome::CertVerified));
}

#[test]
fn untraced_traffic_records_no_per_call_spans() {
    let w = world(b"e2e-untraced");
    // No live trace: the client must skip its rpc.call span, embed a
    // zero header, and the server must skip its dispatch span.
    let _quiet = psf_telemetry::untraced();
    let (client, server) =
        pair_in_memory(w.client_suite.clone(), w.server_suite.clone(), config()).unwrap();
    register_sso(&server, &w);
    assert_eq!(client.call("sso", b"bob").unwrap(), b"member");
    client.close();
    server.close();

    // The view decision still ran (its span exists, in a fresh tree of
    // its own), but no rpc.call/rpc.dispatch span was recorded for it:
    // its parent chain stops at the handler, not at a dispatch span.
    let spans = psf_telemetry::tracer().snapshot();
    let selects: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.target == "psf.views" && s.name == "select_view")
        .collect();
    assert!(!selects.is_empty());
    let dispatch_ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.target == "psf.swbd" && s.name == "rpc.dispatch")
        .map(|s| s.id)
        .collect();
    // None of *this* test's view decisions nest under any dispatch; the
    // linked test runs in the same process, so scope the check to spans
    // whose trace has no dispatch member.
    let linked_traces: std::collections::HashSet<_> = spans
        .iter()
        .filter(|s| dispatch_ids.contains(&s.id))
        .filter_map(|s| s.trace)
        .collect();
    assert!(
        selects
            .iter()
            .any(|s| s.trace.is_some_and(|t| !linked_traces.contains(&t))
                && s.parent.is_none_or(|p| !dispatch_ids.contains(&p))),
        "an untraced request must produce a view decision with no dispatch parent"
    );

    // And its audit record does not join any RPC-linked trace: with no
    // context in the envelope, the decision's span (and hence its audit
    // trace, if any) starts a tree of its own on the reactor shard.
    let records = psf_telemetry::audit::global().query(Some("Bob"), false, None);
    assert!(
        records.iter().any(|r| r.decision == Decision::SelectView
            && r.trace.is_none_or(|t| !linked_traces.contains(&t))),
        "untraced decisions must not join an RPC-linked trace"
    );
}
