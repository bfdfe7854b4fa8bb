//! The seeded world every workload runs against, and the request streams
//! drawn from it.
//!
//! One world, four traffic mixes. The shape is F5's (EXPERIMENTS.md): a
//! chain of role→role mappings across domains that ends in a role the
//! component's `ViewAcl` names, with each user holding one signed leaf
//! grant. Four such chains — one per view class — hang off the owning
//! domain `Org`, so which ACL rule matches (and how many rules fail
//! first) varies with the leaf role. One grant in four is third-party:
//! issued by a registrar whose right of assignment comes from an
//! assignment delegation with a capacity bound. One subject in 32 holds
//! no grant and must be denied.
//!
//! Everything here is a pure function of the seed. The server process
//! derives only the handful of keyed principals (domains, registrar, the
//! two channel endpoints) and the ACL from it; users and their grants
//! reach it through the bulk-loaded WAL directory alone.

use psf_crypto::ed25519::VerifyingKey;
use psf_drbac::entity::{Entity, EntityName, EntityRegistry, RoleName, Subject};
use psf_drbac::{
    AttrSet, AttrValue, Delegation, DelegationBuilder, DelegationKind, Repository, RevocationBus,
    SignedDelegation,
};
use psf_switchboard::{AuthSuite, Authorizer, ClockRef};
use psf_views::ViewAcl;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Role→role mappings between the leaf role and the role the ACL names.
pub const CHAIN_DEPTH: usize = 4;
/// View classes, one ACL rule each, tried in this order.
pub const CLASSES: [(&str, &str); 4] = [
    ("Admin", "view.admin"),
    ("Member", "view.member"),
    ("Partner", "view.partner"),
    ("Guest", "view.guest"),
];
/// The reply to a sign-on no rule admits.
pub const DENIED: &str = "<denied>";

/// World size. `full` is what `BENCHMARK.json` runs; `smoke` is the
/// shrunken world of the `--smoke` set and the tests (still larger than
/// the proof cache, so the cold stream stays cold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldParams {
    /// Users with a name, a key and (all but one in 32) a leaf grant.
    pub users: usize,
    /// Hot subjects of `sso_warm`.
    pub hot: usize,
    /// Hot subjects of `sso_publish_mix` (see README: sized so the proof
    /// hit ratio sits between the hit and the miss mode).
    pub mix_hot: usize,
}

impl WorldParams {
    /// The world `BENCHMARK.json` measures.
    pub const fn full() -> WorldParams {
        WorldParams {
            users: 16_384,
            hot: 128,
            mix_hot: 48,
        }
    }

    /// The shrunken world of `--smoke` and the tests.
    pub const fn smoke() -> WorldParams {
        WorldParams {
            users: 2_048,
            hot: 128,
            mix_hot: 48,
        }
    }
}

/// One sign-on subject and what the oracle expects for it.
#[derive(Debug, Clone)]
pub struct User {
    /// Name plus key, as the sign-on request carries it.
    pub subject: Subject,
    /// View class (index into [`CLASSES`]), or `None` for a subject
    /// without a grant.
    pub class: Option<usize>,
    /// Whether the leaf grant is the registrar's third-party delegation.
    pub third_party: bool,
}

impl User {
    /// The view the server must answer with.
    pub fn expected_view(&self) -> &'static str {
        self.class.map_or(DENIED, |c| CLASSES[c].1)
    }

    /// ACL rules the server tries before answering (the oracle behind
    /// `views.rules_tried_per_op`).
    pub fn rules_tried(&self) -> usize {
        self.class.map_or(CLASSES.len(), |c| c + 1)
    }
}

/// The keyed principals and policy both processes derive from the seed.
pub struct Principals {
    /// Owner of the roles the ACL names; issuer of the channel roles.
    pub org: Entity,
    /// Chain domains `D1..D4`; `D4` issues the leaf grants.
    pub domains: Vec<Entity>,
    /// Third-party issuer of one leaf grant in four.
    pub registrar: Entity,
    /// The server's channel identity.
    pub server: Entity,
    /// The load generator's channel identity.
    pub client: Entity,
    /// Name → key directory of every keyed principal above.
    pub registry: EntityRegistry,
    /// The component's role→view table.
    pub acl: ViewAcl,
}

impl Principals {
    /// Derive the principals for `seed`.
    pub fn new(seed: u64) -> Principals {
        let key_seed = format!("psf-bench/{seed}");
        let entity = |name: &str| Entity::with_seed(name, key_seed.as_bytes());
        let org = entity("Org");
        let domains: Vec<Entity> = (1..=CHAIN_DEPTH)
            .map(|i| entity(&format!("D{i}")))
            .collect();
        let registrar = entity("Registrar");
        let server = entity("Server");
        let client = entity("LoadGen");
        let registry = EntityRegistry::new();
        for e in domains.iter().chain([&org, &registrar, &server, &client]) {
            registry.register(e);
        }
        let acl = CLASSES.iter().fold(ViewAcl::new(), |acl, (role, view)| {
            acl.rule(org.role(*role), *view)
        });
        Principals {
            org,
            domains,
            registrar,
            server,
            client,
            registry,
            acl,
        }
    }

    /// The domain that owns the leaf roles.
    pub fn leaf_domain(&self) -> &Entity {
        self.domains.last().expect("chain has domains")
    }

    /// The leaf role of view class `class`.
    pub fn leaf_role(&self, class: usize) -> RoleName {
        self.leaf_domain().role(format!("Leaf{}", CLASSES[class].0))
    }

    /// What one channel end brings to the handshake: its identity, the
    /// grant that proves its role (`[Server → Org.Service] Org` or
    /// `[LoadGen → Org.Client] Org`), and an authorizer that wants the
    /// peer to prove the other role against `repository` and `bus`.
    pub fn suite(
        &self,
        server_side: bool,
        repository: Repository,
        bus: RevocationBus,
    ) -> AuthSuite {
        let (service, client) = (self.org.role("Service"), self.org.role("Client"));
        let (me, mine, theirs) = if server_side {
            (&self.server, service, client)
        } else {
            (&self.client, client, service)
        };
        let grant = DelegationBuilder::new(&self.org)
            .subject_entity(me)
            .role(mine)
            .sign();
        AuthSuite::new(
            me.clone(),
            vec![grant],
            Authorizer::new(
                self.registry.clone(),
                repository,
                bus,
                ClockRef::new(),
                theirs,
            ),
        )
    }

    /// The role→role chains (one per class) and the registrar's
    /// assignment delegations: the credentials every proof walks.
    pub fn chain_credentials(&self) -> Vec<SignedDelegation> {
        let mut out = Vec::new();
        for (class, (top, _)) in CLASSES.iter().enumerate() {
            let mut upper_owner = &self.org;
            let mut upper = self.org.role(*top);
            for (depth, domain) in self.domains.iter().enumerate() {
                let lower = if depth + 1 == CHAIN_DEPTH {
                    self.leaf_role(class)
                } else {
                    domain.role(format!("{top}{}", depth + 1))
                };
                out.push(
                    DelegationBuilder::new(upper_owner)
                        .subject_role(lower.clone())
                        .role(upper)
                        .sign(),
                );
                upper_owner = domain;
                upper = lower;
            }
            out.push(
                DelegationBuilder::new(self.leaf_domain())
                    .subject_entity(&self.registrar)
                    .role(self.leaf_role(class))
                    .assignment()
                    .attr("quota", AttrValue::Capacity(100))
                    .sign(),
            );
        }
        out
    }

    /// Sign the leaf grant of `subject` for `class`. The body is built
    /// by hand because `DelegationBuilder` only takes keyed entities as
    /// subjects and a sign-on subject is a bare name plus public key.
    pub fn leaf_grant(
        &self,
        subject: &Subject,
        class: usize,
        third_party: bool,
    ) -> SignedDelegation {
        let (issuer, kind, attrs) = if third_party {
            (
                &self.registrar,
                DelegationKind::ThirdParty,
                AttrSet::new().with("quota", AttrValue::Capacity(10)),
            )
        } else {
            (
                self.leaf_domain(),
                DelegationKind::SelfCertifying,
                AttrSet::new(),
            )
        };
        let body = Delegation {
            subject: subject.clone(),
            object: self.leaf_role(class),
            kind,
            issuer: issuer.name.clone(),
            attrs,
            expires: None,
            monitored: false,
            serial: 0,
        };
        let signature = issuer.sign(&body.encode());
        SignedDelegation { body, signature }
    }
}

/// A sign-on subject that never signs anything: its "public key" is 32
/// bytes derived from the seed and the name, which is all the proof
/// engine and the repository index ever look at.
pub fn synthetic_subject(seed: u64, name: &str) -> Subject {
    let digest = psf_crypto::sha256(format!("psf-bench/{seed}/{name}").as_bytes());
    Subject::Entity {
        name: EntityName(name.to_string()),
        key: VerifyingKey(digest),
    }
}

/// The generated world: principals, users and the hot sets.
pub struct World {
    /// The seed everything was derived from.
    pub seed: u64,
    /// Sizes.
    pub params: WorldParams,
    /// Keyed principals and the ACL.
    pub principals: Principals,
    /// Every sign-on subject with its expected outcome.
    pub users: Vec<User>,
    /// A seeded permutation of `0..users.len()`; its prefixes are the hot
    /// sets and the cold stream walks all of it.
    pub order: Vec<u32>,
}

impl World {
    /// Generate the world for `seed`. Signs nothing — see
    /// [`World::grants`] for the signed half.
    pub fn generate(seed: u64, params: WorldParams) -> World {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5053_465f_776f_726c);
        let users: Vec<User> = (0..params.users)
            .map(|i| {
                let roll = rng.next_u64();
                User {
                    subject: synthetic_subject(seed, &format!("u{i:05}")),
                    class: (roll % 32 != 31).then_some(((roll >> 8) % 4) as usize),
                    third_party: (roll >> 16) % 4 == 0,
                }
            })
            .collect();
        let mut order: Vec<u32> = (0..params.users as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        World {
            seed,
            params,
            principals: Principals::new(seed),
            users,
            order,
        }
    }

    /// Every credential the repository is bulk-loaded with: the chains
    /// and one signed leaf grant per granted user.
    pub fn grants(&self) -> Vec<SignedDelegation> {
        let mut out = self.principals.chain_credentials();
        out.extend(self.users.iter().filter_map(|u| {
            u.class
                .map(|c| self.principals.leaf_grant(&u.subject, c, u.third_party))
        }));
        out
    }

    /// The first `n` users of the seeded permutation.
    pub fn hot(&self, n: usize) -> impl Iterator<Item = &User> + '_ {
        self.order[..n.min(self.order.len())]
            .iter()
            .map(|&i| &self.users[i as usize])
    }
}
