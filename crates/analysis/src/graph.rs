//! Pass 1: delegation-graph analysis (PSF001–PSF005).
//!
//! The analyzer computes the **role-reachability closure** of a
//! repository snapshot: for every entity that appears as a credential
//! subject, the set of roles it can prove. It does not know what a valid
//! delegation chain is — it asks `ProofEngine::reachable_roles`, the
//! runtime search run to exhaustion, so a pair is in the closure exactly
//! when the engine would prove it (DESIGN.md "Delegation-chain rules").
//!
//! On top of the closure the pass reports:
//! * **PSF001** privilege escalation — a closure pair absent from the
//!   administrator's intent matrix (skipped when no intent is supplied);
//! * **PSF002** delegation cycles — strongly-connected role→role mapping
//!   edges;
//! * **PSF003** dangling third-party credentials — membership or
//!   assignment credentials whose issuer has no assignment support chain;
//! * **PSF004** expired credentials;
//! * **PSF005** expiring single points of failure — credentials expiring
//!   within a horizon whose removal disconnects at least one proof.

use crate::diag::{Diagnostic, LintCode, Report};
use psf_drbac::repository::subject_key;
use psf_drbac::{
    AuthCache, CredId, Credential, CredentialSource, DelegationKind, EntityRegistry, ProofEngine,
    Repository, RevocationBus, RoleName, Subject, Timestamp,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Inputs to the delegation-graph pass.
pub struct GraphInput<'a> {
    /// The PKI directory the proof engine would consult.
    pub registry: &'a EntityRegistry,
    /// The credential repository under analysis.
    pub repository: &'a Repository,
    /// The revocation bus (revoked credentials are dead edges).
    pub bus: &'a RevocationBus,
    /// Analysis time (expiry evaluation).
    pub now: Timestamp,
    /// The intended grants: every (subject, role) pair an administrator
    /// meant to establish. `None` disables PSF001 (see the soundness
    /// caveat in DESIGN.md §4f — without intent, escalation is
    /// undecidable).
    pub intent: Option<&'a [(Subject, RoleName)]>,
    /// PSF005 horizon: credentials expiring within `(now, now+horizon]`
    /// are tested for proof disconnection.
    pub expiry_horizon: u64,
}

/// All entity subjects appearing in the snapshot, deterministic order.
fn seeds(snapshot: &[Arc<Credential>]) -> Vec<Subject> {
    let mut by_key: BTreeMap<String, Subject> = BTreeMap::new();
    for cred in snapshot {
        if let Subject::Entity { .. } = &cred.body.subject {
            by_key
                .entry(subject_key(&cred.body.subject))
                .or_insert_with(|| cred.body.subject.clone());
        }
    }
    by_key.into_values().collect()
}

/// The runtime engine looking at `source`. `reachable_roles` and
/// `assignment_support` touch only the credential half of `cache`, and a
/// signature verdict is a fact about the credential, not the source, so
/// one cache serves every source an analysis looks through.
fn engine_over<'a>(
    input: &GraphInput<'a>,
    source: &'a dyn CredentialSource,
    cache: &'a AuthCache,
) -> ProofEngine<'a> {
    ProofEngine::with_cache(input.registry, source, input.bus, input.now, cache)
}

/// Every (seed, role) pair `engine` would prove.
fn closure_of(engine: &ProofEngine<'_>, seeds: &[Subject]) -> Vec<(Subject, RoleName)> {
    let mut out = Vec::new();
    for seed in seeds {
        for role in engine.reachable_roles(seed, &[]) {
            out.push((seed.clone(), role));
        }
    }
    out
}

/// `inner` as it will read once credential `hidden` has lapsed.
struct Without<'a> {
    inner: &'a Repository,
    hidden: CredId,
}

impl CredentialSource for Without<'_> {
    fn credentials_by_subject(&self, subject: &Subject) -> Vec<Arc<Credential>> {
        let mut creds = self.inner.credentials_by_subject(subject);
        creds.retain(|c| c.cred_id() != self.hidden);
        creds
    }
    fn credentials_by_object(&self, role: &RoleName) -> Vec<Arc<Credential>> {
        let mut creds = self.inner.credentials_by_object(role);
        creds.retain(|c| c.cred_id() != self.hidden);
        creds
    }
}

/// Compute the full role-reachability closure: every (entity subject,
/// role) pair the proof engine would prove from the current snapshot.
/// Deterministic order (seeds by subject key, roles by discovery order).
pub fn closure(input: &GraphInput<'_>) -> Vec<(Subject, RoleName)> {
    let seeds = seeds(&input.repository.all_credentials());
    closure_of(
        &engine_over(input, input.repository, &AuthCache::new()),
        &seeds,
    )
}

/// Run the delegation-graph pass, appending findings to `report`.
pub fn analyze_graph(input: &GraphInput<'_>, report: &mut Report) {
    analyze_graph_cached(input, &AuthCache::new(), report);
}

/// [`analyze_graph`] over a caller-visible cache: every closure and
/// support query of one analysis shares it, so each credential's
/// signature is verified once however many snapshots PSF005 recomputes.
fn analyze_graph_cached(input: &GraphInput<'_>, cache: &AuthCache, report: &mut Report) {
    let snapshot = input.repository.all_credentials();
    let seeds = seeds(&snapshot);
    let engine = engine_over(input, input.repository, cache);
    let baseline = closure_of(&engine, &seeds);

    // PSF001 — closure pairs outside the intent matrix.
    if let Some(intent) = input.intent {
        let intended: HashSet<(String, String)> = intent
            .iter()
            .map(|(s, r)| (subject_key(s), r.to_string()))
            .collect();
        for (subject, role) in &baseline {
            if !intended.contains(&(subject_key(subject), role.to_string())) {
                report.push(Diagnostic::new(
                    LintCode::PrivilegeEscalation,
                    subject.render(),
                    format!("statically reaches '{role}' but no explicit grant intends it"),
                ));
            }
        }
    }

    // PSF002 — cycles among role→role mapping edges (structural: every
    // non-assignment credential with a role subject contributes an edge,
    // valid or not — a cycle of expired credentials is still a policy
    // smell).
    for cycle in role_cycles(&snapshot) {
        report.push(Diagnostic::new(
            LintCode::DelegationCycle,
            cycle.join(" → "),
            "role mapping credentials form a cycle; proofs terminate only because the \
             engine refuses to revisit a role, and no membership can enter the cycle \
             from these edges alone",
        ));
    }

    // PSF003 — third-party and assignment credentials whose issuer has no
    // assignment support chain back to the role owner.
    for cred in &snapshot {
        let needs_support = matches!(
            cred.body.kind,
            DelegationKind::ThirdParty | DelegationKind::Assignment
        ) && cred.body.issuer != cred.body.object.owner;
        if !needs_support {
            continue;
        }
        let supported = engine
            .assignment_support(&cred.body.issuer, &cred.body.object)
            .is_some();
        if !supported {
            report.push(Diagnostic::new(
                LintCode::DanglingThirdParty,
                cred.id(),
                format!(
                    "issuer '{}' has no assignment support chain for '{}'; this credential \
                     can never contribute to a proof",
                    cred.body.issuer.0, cred.body.object
                ),
            ));
        }
    }

    // PSF004 — already expired.
    for cred in &snapshot {
        if let Some(expires) = cred.body.expires {
            if input.now >= expires {
                report.push(Diagnostic::new(
                    LintCode::ExpiredCredential,
                    cred.id(),
                    format!(
                        "credential [{} → {}] expired at {expires} (now {})",
                        cred.body.subject.render(),
                        cred.body.object,
                        input.now
                    ),
                ));
            }
        }
    }

    // PSF005 — a credential expiring within the horizon whose removal
    // disconnects a proof is a single point of failure: when it lapses,
    // those grants silently disappear.
    if input.expiry_horizon > 0 {
        for cred in &snapshot {
            let Some(expires) = cred.body.expires else {
                continue;
            };
            if expires <= input.now || expires > input.now + input.expiry_horizon {
                continue;
            }
            let lapsed = Without {
                inner: input.repository,
                hidden: cred.cred_id(),
            };
            let without: HashSet<(Subject, RoleName)> =
                closure_of(&engine_over(input, &lapsed, cache), &seeds)
                    .into_iter()
                    .collect();
            let mut lost: Vec<String> = baseline
                .iter()
                .filter(|pair| !without.contains(pair))
                .map(|(s, r)| format!("{} → {r}", s.render()))
                .collect();
            lost.sort();
            lost.dedup();
            if !lost.is_empty() {
                report.push(Diagnostic::new(
                    LintCode::ExpiringSpof,
                    cred.id(),
                    format!(
                        "expires at {expires} (now {}); its loss disconnects: {}",
                        input.now,
                        lost.join(", ")
                    ),
                ));
            }
        }
    }
}

/// Tarjan SCC over the role→role mapping edges. Returns each cycle as a
/// sorted role list (an SCC of size > 1, or a self-loop).
fn role_cycles(snapshot: &[Arc<Credential>]) -> Vec<Vec<String>> {
    // Build adjacency: subject role → object role.
    let mut nodes: Vec<String> = Vec::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    let intern = |name: String, nodes: &mut Vec<String>, idx: &mut HashMap<String, usize>| {
        *idx.entry(name.clone()).or_insert_with(|| {
            nodes.push(name);
            nodes.len() - 1
        })
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut self_loops: HashSet<usize> = HashSet::new();
    for cred in snapshot {
        if cred.body.kind == DelegationKind::Assignment {
            continue;
        }
        if let Subject::Role(from) = &cred.body.subject {
            let a = intern(from.to_string(), &mut nodes, &mut index_of);
            let b = intern(cred.body.object.to_string(), &mut nodes, &mut index_of);
            if a == b {
                self_loops.insert(a);
            }
            edges.push((a, b));
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges {
        adj[a].push(b);
    }

    struct Tarjan<'t> {
        adj: &'t [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        sccs: Vec<Vec<usize>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: usize) {
            self.index[v] = Some(self.next);
            self.low[v] = self.next;
            self.next += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for i in 0..self.adj[v].len() {
                let w = self.adj[v][i];
                if self.index[w].is_none() {
                    self.visit(w);
                    self.low[v] = self.low[v].min(self.low[w]);
                } else if self.on_stack[w] {
                    self.low[v] = self.low[v].min(self.index[w].unwrap());
                }
            }
            if self.low[v] == self.index[v].unwrap() {
                let mut scc = Vec::new();
                loop {
                    let w = self.stack.pop().unwrap();
                    self.on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                self.sccs.push(scc);
            }
        }
    }
    let n = nodes.len();
    let mut t = Tarjan {
        adj: &adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if t.index[v].is_none() {
            t.visit(v);
        }
    }
    let mut cycles: Vec<Vec<String>> = t
        .sccs
        .into_iter()
        .filter(|scc| scc.len() > 1 || (scc.len() == 1 && self_loops.contains(&scc[0])))
        .map(|scc| {
            let mut names: Vec<String> = scc.into_iter().map(|i| nodes[i].clone()).collect();
            names.sort();
            names
        })
        .collect();
    cycles.sort();
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use psf_drbac::{DelegationBuilder, Entity};

    struct World {
        registry: EntityRegistry,
        repository: Repository,
        bus: RevocationBus,
        ny: Entity,
        sd: Entity,
        alice: Entity,
    }

    fn world() -> World {
        let registry = EntityRegistry::new();
        let repository = Repository::new();
        let bus = RevocationBus::new();
        let ny = Entity::with_seed("Comp.NY", b"ga");
        let sd = Entity::with_seed("Comp.SD", b"ga");
        let alice = Entity::with_seed("Alice", b"ga");
        for e in [&ny, &sd, &alice] {
            registry.register(e);
        }
        World {
            registry,
            repository,
            bus,
            ny,
            sd,
            alice,
        }
    }

    fn input<'a>(
        w: &'a World,
        intent: Option<&'a [(Subject, RoleName)]>,
        horizon: u64,
    ) -> GraphInput<'a> {
        GraphInput {
            registry: &w.registry,
            repository: &w.repository,
            bus: &w.bus,
            now: 0,
            intent,
            expiry_horizon: horizon,
        }
    }

    #[test]
    fn closure_follows_role_mapping() {
        let w = world();
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.sd)
                .subject_entity(&w.alice)
                .role(w.sd.role("Member"))
                .sign(),
        );
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_role(w.sd.role("Member"))
                .role(w.ny.role("Member"))
                .sign(),
        );
        let pairs = closure(&input(&w, None, 0));
        let roles: Vec<String> = pairs.iter().map(|(_, r)| r.to_string()).collect();
        assert!(roles.contains(&"Comp.SD.Member".to_string()));
        assert!(roles.contains(&"Comp.NY.Member".to_string()));
    }

    #[test]
    fn escalation_flags_unintended_pairs() {
        let w = world();
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.alice)
                .role(w.ny.role("Admin"))
                .sign(),
        );
        let intent = vec![(w.alice.as_subject(), w.ny.role("Member"))];
        let mut report = Report::new();
        analyze_graph(&input(&w, Some(&intent), 0), &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::PrivilegeEscalation));
    }

    #[test]
    fn cycle_detected() {
        let w = world();
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_role(w.sd.role("Member"))
                .role(w.ny.role("Member"))
                .sign(),
        );
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.sd)
                .subject_role(w.ny.role("Member"))
                .role(w.sd.role("Member"))
                .sign(),
        );
        let mut report = Report::new();
        analyze_graph(&input(&w, None, 0), &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::DelegationCycle));
    }

    #[test]
    fn dangling_third_party_flagged_and_supported_not() {
        let w = world();
        // SD issues for NY's role with no assignment support → dangling.
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.sd)
                .subject_entity(&w.alice)
                .role(w.ny.role("Partner"))
                .sign(),
        );
        let mut report = Report::new();
        analyze_graph(&input(&w, None, 0), &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::DanglingThirdParty));

        // Granting SD the assignment right clears the finding.
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.sd)
                .assignment()
                .role(w.ny.role("Partner"))
                .sign(),
        );
        let mut report = Report::new();
        analyze_graph(&input(&w, None, 0), &mut report);
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::DanglingThirdParty));
    }

    #[test]
    fn expired_and_spof_flagged() {
        let w = world();
        // Already expired at now=0? expiry is `now >= expires`, so use
        // now=10 against expires=5.
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.alice)
                .role(w.ny.role("Old"))
                .expires(5)
                .sign(),
        );
        // Expiring soon, sole support of Alice → NY.Member.
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.alice)
                .role(w.ny.role("Member"))
                .expires(50)
                .sign(),
        );
        let mut report = Report::new();
        let mut inp = input(&w, None, 100);
        inp.now = 10;
        analyze_graph(&inp, &mut report);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ExpiredCredential));
        let spof = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::ExpiringSpof)
            .expect("spof finding");
        assert!(spof.message.contains("Comp.NY.Member"));
    }

    #[test]
    fn each_credential_is_signature_verified_once_per_analysis() {
        let w = world();
        // Three expiring credentials, so PSF005 recomputes the closure
        // over three further views of the same four credentials.
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.sd)
                .subject_entity(&w.alice)
                .role(w.sd.role("Member"))
                .expires(50)
                .sign(),
        );
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_role(w.sd.role("Member"))
                .role(w.ny.role("Member"))
                .expires(60)
                .sign(),
        );
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.sd)
                .assignment()
                .role(w.ny.role("Partner"))
                .sign(),
        );
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.sd)
                .subject_entity(&w.alice)
                .role(w.ny.role("Partner"))
                .expires(70)
                .sign(),
        );
        let cache = AuthCache::new();
        let mut report = Report::new();
        analyze_graph_cached(&input(&w, None, 100), &cache, &mut report);
        let spofs = report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::ExpiringSpof)
            .count();
        assert_eq!(spofs, 3, "{}", report.render_human());
        let stats = cache.stats();
        assert_eq!(
            stats.cred_misses,
            w.repository.all_credentials().len() as u64,
            "one signature check per distinct credential examined"
        );
        assert!(stats.cred_hits > stats.cred_misses);
    }

    #[test]
    fn redundant_grant_is_not_a_spof() {
        let w = world();
        // Two independent credentials for the same grant: removing the
        // expiring one does not disconnect the proof.
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.alice)
                .role(w.ny.role("Member"))
                .expires(50)
                .sign(),
        );
        w.repository.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.alice)
                .role(w.ny.role("Member"))
                .serial(1)
                .sign(),
        );
        let mut report = Report::new();
        analyze_graph(&input(&w, None, 100), &mut report);
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ExpiringSpof));
    }
}
