//! The proof-graph engine (paper §3.1).
//!
//! "A trust-sensitive component C can determine if a set of dRBAC
//! credentials X gives some subject S the set of access rights represented
//! by a role R continuously over some duration": [`ProofEngine::prove`]
//! implements exactly this query. It authenticates every credential,
//! checks expirations and revocations, enforces issuer authorization
//! (third-party delegations require a supporting *assignment-right*
//! chain), attenuates attributes along the path, and returns a [`Proof`]
//! object that any other party can independently re-[`verify`].
//!
//! [`verify`]: Proof::verify

use crate::attr::AttrSet;
use crate::cache::{AuthCache, Evidence, PresentedFingerprint, ProofKey};
use crate::certify::{certify, check_certificate};
use crate::delegation::{CredId, Credential, DelegationKind, SignedDelegation};
use crate::entity::{EntityName, EntityRegistry, RoleName, Subject};
#[cfg(test)]
use crate::repository::Repository;
use crate::repository::{subject_key, CredentialSource};
use crate::revocation::{RevocationBus, ValidityMonitor};
use crate::{DrbacError, Timestamp};
use psf_cert::CertError;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;

/// One edge of a proof chain: the credential plus, for third-party
/// delegations, the assignment-right proof authorizing its issuer.
///
/// The credential is `Arc`-shared with the repository/presented set — a
/// proof references signed blobs, it does not copy them — and carries the
/// id it was given when it was wrapped.
#[derive(Debug, Clone)]
pub struct ProofEdge {
    /// The signed delegation this edge rests on, with its id.
    pub credential: Arc<Credential>,
    /// For third-party edges: proof that the issuer holds the right of
    /// assignment for the edge's object role.
    pub support: Option<Box<Proof>>,
}

/// A verifiable proof that `subject` holds `role` (or, when `assignment`
/// is set, the *right of assignment* for `role`), with the attributes that
/// survive attenuation along the chain.
#[derive(Debug, Clone)]
pub struct Proof {
    /// The subject being authorized.
    pub subject: Subject,
    /// The role proven.
    pub role: RoleName,
    /// True if this proves the assignment right rather than membership.
    pub assignment: bool,
    /// Attributes accumulated (attenuated) along the chain.
    pub attrs: AttrSet,
    /// The delegation chain, subject-side first.
    pub edges: Vec<ProofEdge>,
}

impl Proof {
    /// Every credential id this proof depends on (recursing into
    /// supports) — the set a [`ValidityMonitor`] must watch for
    /// continuous authorization. The ids are the carried ones: nothing is
    /// hashed.
    pub fn credential_ids(&self) -> Vec<CredId> {
        let mut out = Vec::new();
        self.for_each_credential(&mut |c| out.push(c.cred_id()));
        out
    }

    /// The standing decision this proof supports: a monitor over every
    /// credential it rests on, supports included, which lapses at the
    /// earliest expiry among them or when any of them is revoked.
    pub fn monitor(&self, bus: &RevocationBus) -> ValidityMonitor {
        let (mut ids, mut expires) = (Vec::new(), None);
        self.for_each_credential(&mut |c| {
            ids.push(c.cred_id());
            expires = expires.into_iter().chain(c.body.expires).min();
        });
        bus.monitor(ids, expires)
    }

    fn for_each_credential(&self, f: &mut impl FnMut(&Credential)) {
        for e in &self.edges {
            f(&e.credential);
            if let Some(s) = &e.support {
                s.for_each_credential(f);
            }
        }
    }

    /// Total number of edges including support proofs.
    pub fn total_edges(&self) -> usize {
        self.edges
            .iter()
            .map(|e| 1 + e.support.as_ref().map_or(0, |s| s.total_edges()))
            .sum()
    }

    /// Independently re-verify the whole proof: lower it to a certificate
    /// and hand that to the trusted checker (`psf-cert`), which re-derives
    /// chain structure, every signature, expirations at `now`, revocations
    /// against `bus`, issuer authorization, and attribute accumulation
    /// without sharing a line with the search that built the proof.
    pub fn verify(
        &self,
        registry: &EntityRegistry,
        bus: &RevocationBus,
        now: Timestamp,
    ) -> Result<(), CertError> {
        check_certificate(
            &certify(self, None, registry.epoch()),
            registry,
            bus,
            now,
            None,
        )
    }

    /// Human-readable rendering of the chain in paper syntax.
    pub fn render(&self) -> String {
        let kind = if self.assignment {
            "assignment-right"
        } else {
            "membership"
        };
        let mut out = format!(
            "proof ({kind}) that {} holds {}{}:\n",
            self.subject.render(),
            self.role,
            self.attrs.render()
        );
        for (i, e) in self.edges.iter().enumerate() {
            out.push_str(&format!("  ({}) {}\n", i + 1, e.credential.body.render()));
            if let Some(s) = &e.support {
                for line in s.render().lines() {
                    out.push_str(&format!("      | {line}\n"));
                }
            }
        }
        out
    }
}

fn check_edge_common(
    cred: &Credential,
    registry: &EntityRegistry,
    bus: &RevocationBus,
    now: Timestamp,
    cache: Option<&AuthCache>,
) -> Result<(), DrbacError> {
    let issuer_key = registry
        .lookup(&cred.body.issuer)
        .ok_or_else(|| DrbacError::UnknownIssuer(cred.body.issuer.0.clone()))?;
    cred.verify_noting(&issuer_key, now, |recalled| {
        if let Some(c) = cache {
            c.note_verdict(recalled);
        }
    })?;
    let id = cred.cred_id();
    if bus.is_revoked(id.as_str()) {
        return Err(DrbacError::Revoked(id.into()));
    }
    Ok(())
}

/// The attributes a membership edge conveys given its support chain: its
/// own, attenuated by every bound along the assignment chain (a delegatee
/// cannot grant more than it was assigned). `None` when they annihilate.
fn conveyed_attrs(cred: &Credential, support: Option<&Proof>) -> Option<AttrSet> {
    let mut bound = AttrSet::new();
    for e in support.into_iter().flat_map(|s| &s.edges) {
        bound = bound.attenuate(&e.credential.body.attrs)?;
    }
    cred.body.attrs.attenuate(&bound)
}

/// Search statistics from a proof query (drives experiments F2/F8).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Graph nodes expanded during BFS.
    pub nodes_expanded: u64,
    /// Credentials examined (valid or not).
    pub credentials_examined: u64,
    /// Credentials rejected (bad signature, expired, revoked,
    /// unauthorized, attribute annihilation).
    pub credentials_rejected: u64,
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, other: SearchStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.credentials_examined += other.credentials_examined;
        self.credentials_rejected += other.credentials_rejected;
    }
}

/// Errors plus stats wrapper for failed searches.
#[derive(Debug, Clone)]
pub struct ProofError {
    /// The underlying error (usually [`DrbacError::NoProof`]).
    pub error: DrbacError,
    /// Statistics of the failed search.
    pub stats: SearchStats,
}

impl core::fmt::Display for ProofError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.error)
    }
}
impl std::error::Error for ProofError {}

impl ProofError {
    /// No chain leads from `subject` to `target`.
    fn no_proof(subject: &Subject, target: &RoleName, stats: SearchStats) -> ProofError {
        ProofError {
            error: DrbacError::NoProof {
                subject: subject.render(),
                role: target.to_string(),
            },
            stats,
        }
    }
}

/// A breadth-first walk in progress: the presented credentials, indexed
/// by subject key, the nodes already reached, and the arrivals still to be
/// expanded.
struct Walk<'p> {
    presented: &'p [Arc<Credential>],
    by_subject: HashMap<String, Vec<Arc<Credential>>>,
    visited: HashSet<String>,
    queue: VecDeque<Arrival>,
    /// Edges followed so far.
    followed: usize,
}

/// A node reached with `attrs` along `path`, waiting to be expanded.
struct Arrival {
    node: Subject,
    attrs: AttrSet,
    path: Vec<ProofEdge>,
}

impl<'p> Walk<'p> {
    /// A walk that has reached `subject` alone.
    fn new(subject: &Subject, presented: &'p [Arc<Credential>]) -> Walk<'p> {
        let mut by_subject: HashMap<String, Vec<Arc<Credential>>> = HashMap::new();
        for c in presented {
            by_subject
                .entry(subject_key(&c.body.subject))
                .or_default()
                .push(c.clone());
        }
        Walk {
            presented,
            by_subject,
            visited: HashSet::from([subject_key(subject)]),
            queue: VecDeque::from([Arrival {
                node: subject.clone(),
                attrs: AttrSet::new(),
                path: Vec::new(),
            }]),
            followed: 0,
        }
    }
}

/// Where a cached search keeps its answer: the proof table, the entry's
/// key, and the registry epoch read before the search.
#[derive(Clone, Copy)]
struct Slot<'k> {
    cache: &'k AuthCache,
    key: &'k ProofKey,
    registry_epoch: u64,
}

/// The proof-construction engine: breadth-first search over the delegation
/// graph assembled from a credential set and the distributed repository.
pub struct ProofEngine<'a> {
    registry: &'a EntityRegistry,
    repository: &'a dyn CredentialSource,
    bus: &'a RevocationBus,
    now: Timestamp,
    cache: Option<&'a AuthCache>,
}

impl<'a> ProofEngine<'a> {
    /// The credential source this engine searches (used by certificate
    /// emission to pin the repository epoch).
    pub(crate) fn source(&self) -> &dyn CredentialSource {
        self.repository
    }

    /// Current registry epoch (certificate emission pins it).
    pub(crate) fn registry_epoch(&self) -> u64 {
        self.registry.epoch()
    }

    /// Create an engine evaluating at logical time `now`.
    pub fn new(
        registry: &'a EntityRegistry,
        repository: &'a dyn CredentialSource,
        bus: &'a RevocationBus,
        now: Timestamp,
    ) -> ProofEngine<'a> {
        ProofEngine {
            registry,
            repository,
            bus,
            now,
            cache: None,
        }
    }

    /// Create an engine that answers repeat queries from `cache` (see
    /// [`AuthCache`] for the exactness/invalidation rules). The cache must
    /// be dedicated to this engine's `(registry, repository, bus)` triple.
    pub fn with_cache(
        registry: &'a EntityRegistry,
        repository: &'a dyn CredentialSource,
        bus: &'a RevocationBus,
        now: Timestamp,
        cache: &'a AuthCache,
    ) -> ProofEngine<'a> {
        ProofEngine {
            registry,
            repository,
            bus,
            now,
            cache: Some(cache),
        }
    }

    /// Prove that `subject` holds `target`, drawing on `presented`
    /// credentials (the set X handed over by the requester) plus whatever
    /// the repository can discover. Returns the proof and search stats.
    /// The presented credentials are wrapped (hashed) here; a caller that
    /// decides several roles for one presented set wraps once and calls
    /// [`prove_carried`](Self::prove_carried).
    pub fn prove(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[SignedDelegation],
    ) -> Result<(Proof, SearchStats), ProofError> {
        self.prove_carried(subject, target, &Credential::wrap_all(presented))
    }

    /// [`prove`](Self::prove) over presented credentials that already
    /// carry their ids.
    pub fn prove_carried(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[Arc<Credential>],
    ) -> Result<(Proof, SearchStats), ProofError> {
        self.prove_inner(subject, target, presented, None)
    }

    /// [`prove_carried`](Self::prove_carried) for one rule of a decision
    /// that tries several: `evidence` gains the entry the answer rests on,
    /// a proof-table hit's or a fresh answer's once stored. A discarded
    /// `evidence` (a first sighting) stores no fresh answer; an engine
    /// without a cache adds its search's evidence. The rule leaves its
    /// `prove` span but no audit record: the decision's one record names
    /// the rule, granted or failed.
    pub fn prove_noting(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[Arc<Credential>],
        evidence: &mut Evidence,
    ) -> Result<(Proof, SearchStats), ProofError> {
        self.prove_inner(subject, target, presented, Some(evidence))
    }

    fn prove_inner(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[Arc<Credential>],
        decision: Option<&mut Evidence>,
    ) -> Result<(Proof, SearchStats), ProofError> {
        let mut span = psf_telemetry::span("psf.drbac", "prove");
        span.field("target", target);
        let start = std::time::Instant::now();
        psf_telemetry::counter!("psf.drbac.prove.calls").inc();

        // A rule tried for a decision is audited by the decision.
        let audited = decision.is_none();
        let key = self.cache.map(|_| ProofKey {
            subject: subject_key(subject),
            role: target.to_string(),
            presented: PresentedFingerprint::of(presented),
        });
        let repo_epoch = self.repository.version();
        // Read BEFORE the search, so an unchanged epoch at a later lookup
        // means no registration the search could have missed. (Repository
        // marks are read by each query, under the lock of the data they
        // pin.)
        let registry_epoch = self.registry.epoch();
        let slot = self.cache.zip(key.as_ref()).map(|(cache, key)| Slot {
            cache,
            key,
            registry_epoch,
        });
        if let Some(slot) = slot {
            if let Some((result, found)) =
                slot.cache
                    .lookup_proof(slot.key, self.now, self.repository, registry_epoch, false)
            {
                if let Some(decision) = decision {
                    decision.union(found);
                }
                if result.is_err() {
                    psf_telemetry::counter!("psf.drbac.prove.failures").inc();
                }
                psf_telemetry::histogram!("psf.drbac.prove.us").record_duration(start.elapsed());
                span.field("cached", true).field("ok", result.is_ok());
                if audited {
                    self.audit_prove(subject, target, &result, true, repo_epoch);
                }
                return result;
            }
        }

        let (mut evidence, mut work) = (Evidence::default(), SearchStats::default());
        let result = self.prove_search(subject, target, presented, slot, &mut evidence, &mut work);
        match (self.cache.zip(key), decision) {
            // A decision's first sighting keeps no rule's answer.
            (Some(_), Some(decision)) if decision.discarded => {}
            (Some((cache, key)), decision) => {
                let stored = cache.insert_proof(
                    key,
                    result.clone(),
                    evidence,
                    self.bus,
                    registry_epoch,
                    self.now,
                );
                if let Some(decision) = decision {
                    decision.union(stored);
                }
            }
            (None, Some(decision)) => decision.union(evidence),
            (None, None) => {}
        }
        if result.is_err() {
            psf_telemetry::counter!("psf.drbac.prove.failures").inc();
        }
        psf_telemetry::counter!("psf.drbac.nodes.expanded").add(work.nodes_expanded);
        psf_telemetry::counter!("psf.drbac.creds.examined").add(work.credentials_examined);
        psf_telemetry::counter!("psf.drbac.creds.rejected").add(work.credentials_rejected);
        psf_telemetry::histogram!("psf.drbac.prove.us").record_duration(start.elapsed());
        span.field("nodes_expanded", work.nodes_expanded)
            .field("ok", result.is_ok());
        if audited {
            self.audit_prove(
                subject,
                target,
                &result,
                false,
                self.cache.and_then(|_| self.repository.version()),
            );
        }
        result
    }

    /// Record the decision on the process audit trail: verdict, the
    /// delegation chain it rested on, and where the answer came from.
    fn audit_prove(
        &self,
        subject: &Subject,
        target: &RoleName,
        result: &Result<(Proof, SearchStats), ProofError>,
        from_cache: bool,
        epoch: Option<u64>,
    ) {
        use psf_telemetry::audit::{self, CacheOutcome, Decision, Verdict};
        let outcome = match (self.cache.is_some(), from_cache, result.is_ok()) {
            (false, ..) => CacheOutcome::Uncached,
            (true, false, _) => CacheOutcome::Miss,
            (true, true, true) => CacheOutcome::Hit,
            (true, true, false) => CacheOutcome::NegativeHit,
        };
        match result {
            Ok((proof, _)) => {
                audit::record(
                    Decision::Prove,
                    subject.render(),
                    target.to_string(),
                    Verdict::Allow,
                )
                .chain(&proof.credential_ids())
                .cache(outcome, epoch)
                .commit();
            }
            Err(e) => {
                audit::record(
                    Decision::Prove,
                    subject.render(),
                    target.to_string(),
                    Verdict::Deny,
                )
                .cache(outcome, epoch)
                .detail(e.to_string())
                .commit();
            }
        }
    }

    /// The search: [`walk`](Self::walk) breaking at the first edge into
    /// `target`. When the answer is kept in `slot`, the walk beyond the
    /// subject may be [`splice`](Self::splice)d from the proof table.
    /// `work` gains what was actually walked; the statistics returned are
    /// those of the whole walk, spliced or not.
    fn prove_search(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[Arc<Credential>],
        slot: Option<Slot<'_>>,
        evidence: &mut Evidence,
        work: &mut SearchStats,
    ) -> Result<(Proof, SearchStats), ProofError> {
        let mut visit = |role: &RoleName, attrs: &AttrSet, path: &[ProofEdge]| {
            if role != target {
                return ControlFlow::Continue(());
            }
            ControlFlow::Break(Proof {
                subject: subject.clone(),
                role: target.clone(),
                assignment: false,
                attrs: attrs.clone(),
                edges: path.to_vec(),
            })
        };
        let mut walk = Walk::new(subject, presented);
        let mut stats = SearchStats::default();
        let mut found = self.run(&mut walk, 1, &mut stats, evidence, &mut visit);
        if found.is_none() {
            if let Some(spliced) = slot.and_then(|slot| {
                self.splice(&mut walk, subject, target, slot, stats, evidence, work)
            }) {
                *work += stats;
                return spliced;
            }
            found = self.run(&mut walk, usize::MAX, &mut stats, evidence, &mut visit);
        }
        *work += stats;
        match found {
            Some(proof) => Ok((proof, stats)),
            None => Err(ProofError::no_proof(subject, target, stats)),
        }
    }

    /// The rest of a search whose subject alone has been expanded (with
    /// `stats`), answered by the proof table where that is exact:
    /// - (a) the subject is an entity: no credential's object is one, so
    ///   the walk never comes back to it;
    /// - (b) exactly one edge left it, into a role `L` that is not the
    ///   target (an edge into the target has already stopped the walk).
    ///
    /// The walk that remains is then the walk from `Subject::Role(L)`,
    /// whose answer is the table entry `(L, target, presented)`, looked up
    /// or searched and stored. A proof is the one edge followed by that
    /// entry's edges; a failure is the subject's failure; the statistics
    /// add up. Attenuation along the rest is what it was from `L` only if
    /// (c) the arrival attributes at `L` are empty, or the entry's search
    /// followed no edge that conveyed attributes, and then the proof's
    /// attributes are the arrival's. `evidence` gains the entry: the
    /// subject's entry holds while it does. `None`: the plain walk goes
    /// on.
    #[allow(clippy::too_many_arguments)]
    fn splice(
        &self,
        walk: &mut Walk<'_>,
        subject: &Subject,
        target: &RoleName,
        slot: Slot<'_>,
        mut stats: SearchStats,
        evidence: &mut Evidence,
        work: &mut SearchStats,
    ) -> Option<Result<(Proof, SearchStats), ProofError>> {
        if !matches!(subject, Subject::Entity { .. }) || walk.followed != 1 {
            return None;
        }
        let arrival = walk.queue.pop_front()?;
        let key = ProofKey {
            subject: subject_key(&arrival.node),
            role: slot.key.role.clone(),
            presented: slot.key.presented,
        };
        let found =
            slot.cache
                .lookup_proof(&key, self.now, self.repository, slot.registry_epoch, true);
        let (rest, below) = match found {
            Some(hit) => hit,
            None => {
                let mut own = Evidence::default();
                let rest =
                    self.prove_search(&arrival.node, target, walk.presented, None, &mut own, work);
                let below = slot.cache.insert_proof(
                    key,
                    rest.clone(),
                    own,
                    self.bus,
                    slot.registry_epoch,
                    self.now,
                );
                (rest, below)
            }
        };
        if below.conveys && !arrival.attrs.is_empty() {
            walk.queue.push_front(arrival);
            return None;
        }
        evidence.union(below);
        Some(match rest {
            Ok((proof, rest)) => {
                stats += rest;
                let mut edges = arrival.path;
                edges.extend(proof.edges);
                let attrs = if arrival.attrs.is_empty() {
                    proof.attrs
                } else {
                    arrival.attrs
                };
                let proof = Proof {
                    subject: subject.clone(),
                    role: target.clone(),
                    assignment: false,
                    attrs,
                    edges,
                };
                Ok((proof, stats))
            }
            Err(e) => {
                stats += e.stats;
                Err(ProofError::no_proof(subject, target, stats))
            }
        })
    }

    /// Every role `subject` can prove from `presented` plus the
    /// repository, in the order the search first reaches them:
    /// [`prove`](Self::prove)`(subject, r, presented)` succeeds exactly
    /// for the roles `r` returned. This is the same walk run to
    /// exhaustion; it decides nothing, so it leaves no audit record and
    /// touches no proof-cache entry.
    pub fn reachable_roles(
        &self,
        subject: &Subject,
        presented: &[SignedDelegation],
    ) -> Vec<RoleName> {
        let mut roles = Vec::new();
        let mut seen = HashSet::new();
        self.walk::<std::convert::Infallible>(
            subject,
            &Credential::wrap_all(presented),
            &mut SearchStats::default(),
            &mut Evidence::default(),
            |role, _, _| {
                if seen.insert(role.clone()) {
                    roles.push(role.clone());
                }
                ControlFlow::Continue(())
            },
        );
        roles
    }

    /// The one untrusted-side statement of what a delegation chain is
    /// (DESIGN.md "Delegation-chain rules"): a breadth-first walk from
    /// `subject` over membership edges. An edge is followed when its
    /// credential passes [`check_edge_common`], its issuer is authorized
    /// (owner, or an assignment support chain — [`support_for`]), and
    /// the path's attributes survive attenuation by what the edge
    /// conveys. `visit` sees every such edge as (object role, attributes
    /// on arrival, path including the edge) and may stop the walk; each
    /// role is expanded once, with the attributes of the first path to
    /// reach it.
    ///
    /// [`support_for`]: Self::support_for
    fn walk<B>(
        &self,
        subject: &Subject,
        presented: &[Arc<Credential>],
        stats: &mut SearchStats,
        evidence: &mut Evidence,
        mut visit: impl FnMut(&RoleName, &AttrSet, &[ProofEdge]) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut walk = Walk::new(subject, presented);
        self.run(&mut walk, usize::MAX, stats, evidence, &mut visit)
    }

    /// [`walk`](Self::walk)'s loop: expand up to `nodes` queued arrivals,
    /// in order, until `visit` stops the walk (`Some`) or none is left.
    fn run<B>(
        &self,
        walk: &mut Walk<'_>,
        nodes: usize,
        stats: &mut SearchStats,
        evidence: &mut Evidence,
        visit: &mut impl FnMut(&RoleName, &AttrSet, &[ProofEdge]) -> ControlFlow<B>,
    ) -> Option<B> {
        for _ in 0..nodes {
            let state = walk.queue.pop_front()?;
            stats.nodes_expanded += 1;
            let key = subject_key(&state.node);
            let (stored, mark) = self.repository.credentials_by_key(&state.node, &key);
            evidence.note_query(mark);
            // Candidate edges: presented + repository (both Arc-shared).
            let mut candidates: Vec<Arc<Credential>> =
                walk.by_subject.get(&key).cloned().unwrap_or_default();
            candidates.extend(stored);

            for cred in candidates {
                stats.credentials_examined += 1;
                if cred.body.kind == DelegationKind::Assignment {
                    continue; // not a membership edge
                }
                if check_edge_common(&cred, self.registry, self.bus, self.now, self.cache).is_err()
                {
                    stats.credentials_rejected += 1;
                    continue;
                }
                evidence.note(&cred);
                // Issuer authorization, then attenuation by what the
                // edge conveys under its support chain.
                let followed = self
                    .authorize_edge(cred, walk.presented, stats, evidence)
                    .and_then(|(edge, conveyed)| {
                        Some((
                            edge,
                            state.attrs.attenuate(&conveyed)?,
                            !conveyed.is_empty(),
                        ))
                    });
                let Some((edge, new_attrs, conveys)) = followed else {
                    stats.credentials_rejected += 1;
                    continue;
                };
                evidence.conveys |= conveys;
                walk.followed += 1;
                let object = edge.credential.body.object.clone();
                let mut path = state.path.clone();
                path.push(edge);
                if let ControlFlow::Break(found) = visit(&object, &new_attrs, &path) {
                    return Some(found);
                }
                let next = Subject::Role(object);
                if walk.visited.insert(subject_key(&next)) {
                    walk.queue.push_back(Arrival {
                        node: next,
                        attrs: new_attrs,
                        path,
                    });
                }
            }
        }
        None
    }

    /// Like [`prove`](Self::prove) but additionally requires the resulting
    /// attributes to satisfy `required` — the paper's "is X a Y (with
    /// constraints)?" query used for node/component authorization.
    pub fn prove_with(
        &self,
        subject: &Subject,
        target: &RoleName,
        required: &AttrSet,
        presented: &[SignedDelegation],
    ) -> Result<(Proof, SearchStats), ProofError> {
        self.prove_with_carried(subject, target, required, &Credential::wrap_all(presented))
    }

    /// [`prove_with`](Self::prove_with) over presented credentials that
    /// already carry their ids.
    pub fn prove_with_carried(
        &self,
        subject: &Subject,
        target: &RoleName,
        required: &AttrSet,
        presented: &[Arc<Credential>],
    ) -> Result<(Proof, SearchStats), ProofError> {
        let (proof, stats) = self.prove_carried(subject, target, presented)?;
        if proof.attrs.satisfies(required) {
            Ok((proof, stats))
        } else {
            Err(ProofError {
                error: DrbacError::NoProof {
                    subject: subject.render(),
                    role: format!("{target}{}", required.render()),
                },
                stats,
            })
        }
    }

    /// Convenience boolean query.
    pub fn check(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[SignedDelegation],
    ) -> bool {
        self.prove(subject, target, presented).is_ok()
    }

    /// Issuer authorization for a membership credential: the edge it
    /// becomes (a third-party edge carries its support proof) and the
    /// attributes that edge conveys.
    fn authorize_edge(
        &self,
        cred: Arc<Credential>,
        presented: &[Arc<Credential>],
        stats: &mut SearchStats,
        evidence: &mut Evidence,
    ) -> Option<(ProofEdge, AttrSet)> {
        let support = match cred.body.kind {
            // `check_edge_common` already confirmed the owner issued it.
            DelegationKind::SelfCertifying => None,
            DelegationKind::ThirdParty => Some(Box::new(self.support_for(
                &cred.body.issuer,
                &cred.body.object,
                presented,
                stats,
                evidence,
            )?)),
            DelegationKind::Assignment => return None,
        };
        let conveyed = conveyed_attrs(&cred, support.as_deref())?;
        Some((
            ProofEdge {
                credential: cred,
                support,
            },
            conveyed,
        ))
    }

    /// Proof that `issuer` holds the right of assignment for `role` over
    /// the repository alone — the support a third-party credential issued
    /// by `issuer` for `role` would need. `None` when the issuer is
    /// unknown to the registry or no valid chain leads back to the owner.
    pub fn assignment_support(&self, issuer: &EntityName, role: &RoleName) -> Option<Proof> {
        self.support_for(
            issuer,
            role,
            &[],
            &mut SearchStats::default(),
            &mut Evidence::default(),
        )
    }

    fn support_for(
        &self,
        issuer: &EntityName,
        role: &RoleName,
        presented: &[Arc<Credential>],
        stats: &mut SearchStats,
        evidence: &mut Evidence,
    ) -> Option<Proof> {
        let holder = Subject::Entity {
            name: issuer.clone(),
            key: self.registry.lookup(issuer)?,
        };
        self.prove_assignment(
            &holder,
            role,
            presented,
            &mut HashSet::new(),
            stats,
            evidence,
        )
    }

    /// Prove that `holder` (an entity) has the right of assignment for
    /// `role`: either it is the owner, or a chain of assignment
    /// delegations leads back to the owner.
    fn prove_assignment(
        &self,
        holder: &Subject,
        role: &RoleName,
        presented: &[Arc<Credential>],
        in_progress: &mut HashSet<String>,
        stats: &mut SearchStats,
        evidence: &mut Evidence,
    ) -> Option<Proof> {
        let holder_name = match holder {
            Subject::Entity { name, .. } => name.clone(),
            Subject::Role(_) => return None, // assignment subjects must be keyed entities
        };
        if holder_name == role.owner {
            return Some(Proof {
                subject: holder.clone(),
                role: role.clone(),
                assignment: true,
                attrs: AttrSet::new(),
                edges: Vec::new(),
            });
        }
        let hkey = subject_key(holder);
        let key = format!("{hkey}@{role}");
        if !in_progress.insert(key) {
            return None; // cycle
        }

        // Assignment credentials naming this holder for this role.
        let (stored, mark) = self.repository.credentials_by_key(holder, &hkey);
        evidence.note_query(mark);
        let mut candidates: Vec<Arc<Credential>> = presented
            .iter()
            .filter(|c| {
                c.body.kind == DelegationKind::Assignment
                    && c.body.object == *role
                    && subject_key(&c.body.subject) == hkey
            })
            .cloned()
            .collect();
        candidates.extend(
            stored
                .into_iter()
                .filter(|c| c.body.kind == DelegationKind::Assignment && c.body.object == *role),
        );

        for cred in candidates {
            stats.credentials_examined += 1;
            if check_edge_common(&cred, self.registry, self.bus, self.now, self.cache).is_err() {
                stats.credentials_rejected += 1;
                continue;
            }
            evidence.note(&cred);
            let issuer_key = match self.registry.lookup(&cred.body.issuer) {
                Some(k) => k,
                None => continue,
            };
            let issuer_subject = Subject::Entity {
                name: cred.body.issuer.clone(),
                key: issuer_key,
            };
            if let Some(upstream) = self.prove_assignment(
                &issuer_subject,
                role,
                presented,
                in_progress,
                stats,
                evidence,
            ) {
                let mut edges = vec![ProofEdge {
                    credential: cred,
                    support: None,
                }];
                edges.extend(upstream.edges);
                return Some(Proof {
                    subject: holder.clone(),
                    role: role.clone(),
                    assignment: true,
                    attrs: AttrSet::new(),
                    edges,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;
    use crate::delegation::DelegationBuilder;
    use crate::entity::Entity;

    struct World {
        registry: EntityRegistry,
        repo: Repository,
        bus: RevocationBus,
        ny: Entity,
        sd: Entity,
        se: Entity,
        alice: Entity,
        bob: Entity,
    }

    fn world() -> World {
        let registry = EntityRegistry::new();
        let ny = Entity::with_seed("Comp.NY", b"w");
        let sd = Entity::with_seed("Comp.SD", b"w");
        let se = Entity::with_seed("Inc.SE", b"w");
        let alice = Entity::with_seed("Alice", b"w");
        let bob = Entity::with_seed("Bob", b"w");
        for e in [&ny, &sd, &se, &alice, &bob] {
            registry.register(e);
        }
        World {
            registry,
            repo: Repository::new(),
            bus: RevocationBus::new(),
            ny,
            sd,
            se,
            alice,
            bob,
        }
    }

    impl World {
        fn engine(&self) -> ProofEngine<'_> {
            ProofEngine::new(&self.registry, &self.repo, &self.bus, 0)
        }
    }

    #[test]
    fn direct_membership() {
        let w = world();
        // (1) [ Alice -> Comp.NY.Member ] Comp.NY
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (proof, stats) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        assert_eq!(proof.edges.len(), 1);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
        assert!(stats.credentials_examined >= 1);
    }

    #[test]
    fn t2_bob_via_role_mapping() {
        let w = world();
        // (11) [ Bob -> Comp.SD.Member ] Comp.SD
        let c11 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.sd.role("Member"))
            .sign();
        // (2) [ Comp.SD.Member -> Comp.NY.Member ] Comp.NY
        let c2 = DelegationBuilder::new(&w.ny)
            .subject_role(w.sd.role("Member"))
            .role(w.ny.role("Member"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Member"), &[c11, c2])
            .unwrap();
        assert_eq!(proof.edges.len(), 2);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn no_proof_without_credentials() {
        let w = world();
        let err = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Member"), &[])
            .unwrap_err();
        assert!(matches!(err.error, DrbacError::NoProof { .. }));
    }

    #[test]
    fn third_party_requires_assignment() {
        let w = world();
        // Comp.SD tries to hand out Comp.NY.Partner without authority:
        let c = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .sign();
        assert!(w
            .engine()
            .prove(
                &w.bob.as_subject(),
                &w.ny.role("Partner"),
                std::slice::from_ref(&c)
            )
            .is_err());

        // Now grant the assignment right:
        // (3) [ Comp.SD -> Comp.NY.Partner ' ] Comp.NY
        let c3 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Partner"), &[c, c3])
            .unwrap();
        assert_eq!(proof.edges.len(), 1);
        let support = proof.edges[0].support.as_ref().unwrap();
        assert!(support.assignment);
        assert_eq!(support.edges.len(), 1);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn chained_assignment_rights() {
        let w = world();
        // NY assigns to SD; SD re-assigns to SE; SE grants Bob membership.
        let a1 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let a2 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.se)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let m = DelegationBuilder::new(&w.se)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Partner"), &[a1, a2, m])
            .unwrap();
        let support = proof.edges[0].support.as_ref().unwrap();
        assert_eq!(support.edges.len(), 2);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn support_credentials_are_checked_once_per_search() {
        let w = world();
        let a1 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let a2 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.se)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let m = DelegationBuilder::new(&w.se)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .sign();
        let cache = AuthCache::new();
        ProofEngine::with_cache(&w.registry, &w.repo, &w.bus, 0, &cache)
            .prove(&w.bob.as_subject(), &w.ny.role("Partner"), &[a1, a2, m])
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.cred_misses, stats.cred_hits), (3, 0));
    }

    #[test]
    fn attribute_attenuation_along_chain() {
        let w = world();
        let mail = Entity::with_seed("Mail", b"w");
        w.registry.register(&mail);
        // (8) [ Mail.Exec-ish -> Comp.NY.Executable with CPU=100 ] Comp.NY — modeled
        // as a role-mapped chain: component role → NY role → SD role.
        let c8 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice) // stand-in for the component
            .role(w.ny.role("Executable"))
            .attr("CPU", AttrValue::Capacity(100))
            .sign();
        // (14) [ Comp.NY.Executable -> Comp.SD.Executable with CPU=80 ] Comp.SD
        let c14 = DelegationBuilder::new(&w.sd)
            .subject_role(w.ny.role("Executable"))
            .role(w.sd.role("Executable"))
            .attr("CPU", AttrValue::Capacity(80))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.sd.role("Executable"), &[c8, c14])
            .unwrap();
        // min(100, 80) = 80
        assert_eq!(proof.attrs.get("CPU"), Some(&AttrValue::Capacity(80)));
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn disjoint_attributes_kill_path() {
        let w = world();
        let c1 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Node"))
            .attr("Trust", AttrValue::Range(0, 3))
            .sign();
        let c2 = DelegationBuilder::new(&w.sd)
            .subject_role(w.ny.role("Node"))
            .role(w.sd.role("Node"))
            .attr("Trust", AttrValue::Range(5, 9))
            .sign();
        // SD owns its own role so c2 is self-certifying; chain exists but
        // trust ranges are disjoint → no proof.
        assert!(w
            .engine()
            .prove(&w.alice.as_subject(), &w.sd.role("Node"), &[c1, c2])
            .is_err());
    }

    #[test]
    fn prove_with_checks_requirements() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Node"))
            .attr("Secure", AttrValue::set(["false"]))
            .sign();
        let need_secure = AttrSet::new().with("Secure", AttrValue::set(["true"]));
        assert!(w
            .engine()
            .prove_with(
                &w.alice.as_subject(),
                &w.ny.role("Node"),
                &need_secure,
                std::slice::from_ref(&c)
            )
            .is_err());
        let need_insecure = AttrSet::new().with("Secure", AttrValue::set(["false"]));
        assert!(w
            .engine()
            .prove_with(
                &w.alice.as_subject(),
                &w.ny.role("Node"),
                &need_insecure,
                &[c]
            )
            .is_ok());
    }

    #[test]
    fn revoked_credential_blocks_proof() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .monitored()
            .sign();
        let (proof, _) = w
            .engine()
            .prove(
                &w.alice.as_subject(),
                &w.ny.role("Member"),
                std::slice::from_ref(&c),
            )
            .unwrap();
        w.bus.revoke(&c.id());
        assert!(w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .is_err());
        // The already-issued proof also fails re-verification.
        assert!(matches!(
            proof.verify(&w.registry, &w.bus, 0),
            Err(CertError::Revoked(_))
        ));
    }

    #[test]
    fn expired_credential_blocks_proof() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .expires(50)
            .sign();
        let engine_ok = ProofEngine::new(&w.registry, &w.repo, &w.bus, 49);
        assert!(engine_ok
            .prove(
                &w.alice.as_subject(),
                &w.ny.role("Member"),
                std::slice::from_ref(&c)
            )
            .is_ok());
        let engine_late = ProofEngine::new(&w.registry, &w.repo, &w.bus, 51);
        assert!(engine_late
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .is_err());
    }

    #[test]
    fn proof_from_repository_discovery() {
        let w = world();
        let c11 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.sd.role("Member"))
            .sign();
        let c2 = DelegationBuilder::new(&w.ny)
            .subject_role(w.sd.role("Member"))
            .role(w.ny.role("Member"))
            .sign();
        w.repo.publish_at_issuer(c11);
        w.repo.publish_at_issuer(c2);
        // No presented credentials at all — discovery finds the chain.
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Member"), &[])
            .unwrap();
        assert_eq!(proof.edges.len(), 2);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn tampered_proof_fails_verification() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (mut proof, _) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        // Claim better attributes than the chain grants.
        proof.attrs = AttrSet::new().with("CPU", AttrValue::Capacity(999));
        assert!(proof.verify(&w.registry, &w.bus, 0).is_err());
    }

    #[test]
    fn proof_subject_cannot_be_swapped() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (mut proof, _) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        proof.subject = w.bob.as_subject();
        assert!(proof.verify(&w.registry, &w.bus, 0).is_err());
    }

    #[test]
    fn monitor_covers_all_chain_credentials() {
        let w = world();
        let c11 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.sd.role("Member"))
            .sign();
        let c2 = DelegationBuilder::new(&w.ny)
            .subject_role(w.sd.role("Member"))
            .role(w.ny.role("Member"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(
                &w.bob.as_subject(),
                &w.ny.role("Member"),
                &[c11.clone(), c2],
            )
            .unwrap();
        assert_eq!(proof.credential_ids().len(), 2);
        let monitor = proof.monitor(&w.bus);
        assert_eq!(monitor.watched_ids().len(), 2);
        assert!(monitor.is_valid(0));
        w.bus.revoke(&c11.id());
        assert!(!monitor.is_valid(0));
    }

    #[test]
    fn reachable_roles_is_the_search_run_to_exhaustion() {
        let w = world();
        let quiet = Entity::with_seed("Quiet.Subject", b"w");
        w.registry.register(&quiet);
        // quiet → SD.Member → NY.Member, plus a third-party grant of
        // NY.Partner by SD (supported) and of NY.Admin by SE (dangling).
        for c in [
            DelegationBuilder::new(&w.sd)
                .subject_entity(&quiet)
                .role(w.sd.role("Member"))
                .sign(),
            DelegationBuilder::new(&w.ny)
                .subject_role(w.sd.role("Member"))
                .role(w.ny.role("Member"))
                .sign(),
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.sd)
                .assignment()
                .role(w.ny.role("Partner"))
                .sign(),
            DelegationBuilder::new(&w.sd)
                .subject_entity(&quiet)
                .role(w.ny.role("Partner"))
                .sign(),
            DelegationBuilder::new(&w.se)
                .subject_entity(&quiet)
                .role(w.ny.role("Admin"))
                .sign(),
        ] {
            w.repo.publish_at_issuer(c);
        }
        let engine = w.engine();
        let roles = engine.reachable_roles(&quiet.as_subject(), &[]);
        assert_eq!(
            roles,
            [
                w.sd.role("Member"),
                w.ny.role("Partner"),
                w.ny.role("Member")
            ],
            "first-arrival order"
        );
        // It decides nothing, so it leaves no audit record; `prove` does.
        let audited = || psf_telemetry::audit::global().query(Some("Quiet.Subject"), false, None);
        assert!(audited().is_empty());
        for role in roles.iter().chain([&w.ny.role("Admin")]) {
            let proved = engine.prove(&quiet.as_subject(), role, &[]).is_ok();
            assert_eq!(proved, roles.contains(role), "{role}");
        }
        assert_eq!(audited().len(), 4);
    }

    #[test]
    fn assignment_support_is_the_support_a_third_party_edge_would_carry() {
        let w = world();
        w.repo.publish_at_issuer(
            DelegationBuilder::new(&w.ny)
                .subject_entity(&w.sd)
                .assignment()
                .role(w.ny.role("Partner"))
                .sign(),
        );
        let engine = w.engine();
        let partner = w.ny.role("Partner");
        let via_chain = engine.assignment_support(&w.sd.name, &partner).unwrap();
        assert_eq!(via_chain.edges.len(), 1);
        via_chain.verify(&w.registry, &w.bus, 0).unwrap();
        // The owner needs no credential: a zero-edge proof the checker accepts.
        let owner = engine.assignment_support(&w.ny.name, &partner).unwrap();
        assert!(owner.assignment && owner.edges.is_empty());
        owner.verify(&w.registry, &w.bus, 0).unwrap();
        assert!(engine.assignment_support(&w.se.name, &partner).is_none());
        assert!(engine
            .assignment_support(&EntityName::new("Nobody"), &partner)
            .is_none());
    }

    #[test]
    fn third_party_attrs_bounded_by_assignment() {
        let w = world();
        // NY assigns Partner to SD but only with CPU ≤ 50.
        let a = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .attr("CPU", AttrValue::Capacity(50))
            .sign();
        // SD tries to grant Bob CPU = 100.
        let m = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .attr("CPU", AttrValue::Capacity(100))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Partner"), &[a, m])
            .unwrap();
        // Bob ends up with min(100, 50) = 50.
        assert_eq!(proof.attrs.get("CPU"), Some(&AttrValue::Capacity(50)));
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }
}
