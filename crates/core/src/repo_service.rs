//! The distributed credential repository, actually distributed: serve a
//! [`Repository`] over a Switchboard channel and consume it remotely
//! through [`RemoteRepository`], which implements
//! [`CredentialSource`] so the proof engine is location-transparent
//! (paper §3.1: "dRBAC credentials are stored in a distributed
//! repository … queries about credentials involving the entity [are]
//! directed as appropriate to its home node").

use parking_lot::Mutex;
use psf_drbac::entity::{EntityName, RoleName, Subject};
use psf_drbac::repository::{CredentialSource, DiscoveryTag, Repository};
use psf_drbac::wal::ShardedDurableRepository;
use psf_drbac::wire::{decode_credentials, encode_credentials, Reader};
use psf_drbac::{Credential, SignedDelegation};
use psf_switchboard::Channel;
use std::collections::HashMap;
use std::sync::Arc;

/// RPC method names of the repository protocol.
pub const QUERY_BY_SUBJECT: &str = "repo.query_by_subject";
/// RPC method for object-role queries.
pub const QUERY_BY_OBJECT: &str = "repo.query_by_object";
/// RPC method for publishing a credential to a (durable) home node.
pub const PUBLISH: &str = "repo.publish";

fn subject_query_key(subject: &Subject) -> Vec<u8> {
    // Reuse the delegation subject encoding for the query argument.
    let mut out = Vec::new();
    subject_encode(subject, &mut out);
    out
}

fn subject_encode(s: &Subject, out: &mut Vec<u8>) {
    match s {
        Subject::Entity { name, key } => {
            out.push(0);
            out.extend_from_slice(&(name.0.len() as u32).to_le_bytes());
            out.extend_from_slice(name.0.as_bytes());
            out.extend_from_slice(key.as_bytes());
        }
        Subject::Role(r) => {
            out.push(1);
            let s = r.to_string();
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn subject_decode(buf: &[u8]) -> Result<Subject, String> {
    use psf_crypto::ed25519::VerifyingKey;
    use psf_drbac::entity::EntityName;
    if buf.is_empty() {
        return Err("empty subject".into());
    }
    match buf[0] {
        0 => {
            if buf.len() < 5 {
                return Err("truncated subject".into());
            }
            let len = u32::from_le_bytes(buf[1..5].try_into().unwrap()) as usize;
            if buf.len() != 5 + len + 32 {
                return Err("malformed entity subject".into());
            }
            let name =
                String::from_utf8(buf[5..5 + len].to_vec()).map_err(|_| "bad name".to_string())?;
            let key: [u8; 32] = buf[5 + len..].try_into().unwrap();
            Ok(Subject::Entity {
                name: EntityName(name),
                key: VerifyingKey(key),
            })
        }
        1 => {
            if buf.len() < 5 {
                return Err("truncated subject".into());
            }
            let len = u32::from_le_bytes(buf[1..5].try_into().unwrap()) as usize;
            if buf.len() != 5 + len {
                return Err("malformed role subject".into());
            }
            let s = String::from_utf8(buf[5..].to_vec()).map_err(|_| "bad role".to_string())?;
            RoleName::parse(&s)
                .map(Subject::Role)
                .map_err(|e| e.to_string())
        }
        t => Err(format!("bad subject tag {t}")),
    }
}

/// Register the repository-protocol handlers on a channel, making this
/// endpoint a credential home node.
pub fn serve_repository(channel: &Channel, repository: Repository) {
    let repo = repository.clone();
    channel.register_handler(QUERY_BY_SUBJECT, move |args| {
        let subject = subject_decode(args)?;
        Ok(encode_credentials(&repo.query_by_subject(&subject)))
    });
    let repo = repository;
    channel.register_handler(QUERY_BY_OBJECT, move |args| {
        let role = RoleName::parse(&String::from_utf8_lossy(args)).map_err(|e| e.to_string())?;
        Ok(encode_credentials(&repo.query_by_object(&role)))
    });
}

fn decode_publish_args(
    args: &[u8],
) -> Result<(EntityName, DiscoveryTag, SignedDelegation), String> {
    let mut r = Reader::new(args);
    let home = r.string().map_err(|e| e.to_string())?;
    let tag = DiscoveryTag::from_byte(r.u8().map_err(|e| e.to_string())?)
        .ok_or_else(|| "bad discovery tag".to_string())?;
    let cred = SignedDelegation::from_wire(&mut r).map_err(|e| e.to_string())?;
    if !r.finished() {
        return Err("trailing bytes in publish args".into());
    }
    Ok((EntityName(home), tag, cred))
}

fn encode_publish_args(home: &EntityName, tag: DiscoveryTag, cred: &SignedDelegation) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(home.0.len() as u32).to_le_bytes());
    out.extend_from_slice(home.0.as_bytes());
    out.push(tag.to_byte());
    out.extend_from_slice(&cred.to_wire());
    out
}

/// Serve a crash-safe home node: the query handlers of
/// [`serve_repository`] plus a `repo.publish` handler, all backed by the
/// durable pair's shared handles — every accepted publish hits the
/// write-ahead log (the segment of the shard owning the credential's
/// subject) before the RPC response leaves, so a committed publish
/// survives `kill -9`.
pub fn serve_sharded_durable_repository(channel: &Channel, durable: &ShardedDurableRepository) {
    serve_repository(channel, durable.repository().clone());
    let repo = durable.repository().clone();
    channel.register_handler(PUBLISH, move |args| {
        let (home, tag, cred) = decode_publish_args(args)?;
        let id = repo.publish(home, cred, tag);
        Ok(id.as_str().as_bytes().to_vec())
    });
}

/// A [`CredentialSource`] backed by a remote repository channel, with a
/// small response cache (credentials are immutable; revocation is
/// enforced separately by the bus, so caching is sound).
pub struct RemoteRepository {
    channel: Arc<Channel>,
    cache: Mutex<HashMap<Vec<u8>, Vec<Arc<Credential>>>>,
    caching: bool,
}

impl RemoteRepository {
    /// Wrap a channel whose peer serves the repository protocol.
    pub fn new(channel: Arc<Channel>) -> RemoteRepository {
        RemoteRepository {
            channel,
            cache: Mutex::new(HashMap::new()),
            caching: true,
        }
    }

    /// Disable the response cache (every query goes to the wire).
    pub fn without_cache(mut self) -> RemoteRepository {
        self.caching = false;
        self
    }

    fn query(&self, method: &str, args: Vec<u8>) -> Vec<Arc<Credential>> {
        let cache_key = {
            let mut k = method.as_bytes().to_vec();
            k.push(0);
            k.extend_from_slice(&args);
            k
        };
        if self.caching {
            if let Some(hit) = self.cache.lock().get(&cache_key) {
                return hit.clone();
            }
        }
        let result: Vec<Arc<Credential>> = self
            .channel
            .call(method, &args)
            .ok()
            .and_then(|bytes| decode_credentials(&bytes).ok())
            .unwrap_or_default()
            .into_iter()
            .map(|c| Arc::new(Credential::new(c)))
            .collect();
        if self.caching {
            self.cache.lock().insert(cache_key, result.clone());
        }
        result
    }

    /// Publish a credential to the remote home node (requires the peer to
    /// run [`serve_sharded_durable_repository`]). Returns the credential id
    /// acknowledged by the server — by the time this returns, the record
    /// is in the server's write-ahead log.
    pub fn publish(
        &self,
        home: &EntityName,
        tag: DiscoveryTag,
        cred: &SignedDelegation,
    ) -> Result<String, String> {
        let args = encode_publish_args(home, tag, cred);
        let resp = self
            .channel
            .call(PUBLISH, &args)
            .map_err(|e| e.to_string())?;
        String::from_utf8(resp).map_err(|_| "bad publish ack".to_string())
    }
}

impl CredentialSource for RemoteRepository {
    fn credentials_by_subject(&self, subject: &Subject) -> Vec<Arc<Credential>> {
        self.query(QUERY_BY_SUBJECT, subject_query_key(subject))
    }

    fn credentials_by_object(&self, role: &RoleName) -> Vec<Arc<Credential>> {
        self.query(QUERY_BY_OBJECT, role.to_string().into_bytes())
    }
    // No `version()` override: a remote source has no coherent epoch, so
    // proof caching is disabled over it. The response cache above keeps
    // the decoded credentials, and with them their signature verdicts.
}

#[cfg(test)]
mod tests {
    use super::*;
    use psf_drbac::entity::{Entity, EntityRegistry};
    use psf_drbac::proof::ProofEngine;
    use psf_drbac::revocation::RevocationBus;
    use psf_drbac::DelegationBuilder;
    use psf_switchboard::{pair_in_memory_plain, ChannelConfig};
    use std::time::Duration;

    fn quiet() -> ChannelConfig {
        ChannelConfig {
            heartbeat_interval: None,
            rpc_timeout: Duration::from_secs(5),
        }
    }

    struct RemoteWorld {
        registry: EntityRegistry,
        bus: RevocationBus,
        remote: RemoteRepository,
        _server_side: Channel,
        ny: Entity,
        bob: Entity,
        cred_ids: Vec<String>,
    }

    fn remote_world(caching: bool) -> RemoteWorld {
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();
        let ny = Entity::with_seed("Comp.NY", b"remote");
        let sd = Entity::with_seed("Comp.SD", b"remote");
        let bob = Entity::with_seed("Bob", b"remote");
        for e in [&ny, &sd, &bob] {
            registry.register(e);
        }
        let c11 = DelegationBuilder::new(&sd)
            .subject_entity(&bob)
            .role(sd.role("Member"))
            .sign();
        let c2 = DelegationBuilder::new(&ny)
            .subject_role(sd.role("Member"))
            .role(ny.role("Member"))
            .sign();
        let cred_ids = vec![c11.id(), c2.id()];
        repo.publish_at_issuer(c11);
        repo.publish_at_issuer(c2);

        let (client, server) = pair_in_memory_plain(quiet());
        serve_repository(&server, repo);
        let mut remote = RemoteRepository::new(Arc::new(client));
        if !caching {
            remote = remote.without_cache();
        }
        RemoteWorld {
            registry,
            bus,
            remote,
            _server_side: server,
            ny,
            bob,
            cred_ids,
        }
    }

    #[test]
    fn proof_search_over_a_remote_repository() {
        let w = remote_world(true);
        // The proof engine pulls both chain credentials across the channel.
        let engine = ProofEngine::new(&w.registry, &w.remote, &w.bus, 0);
        let (proof, _) = engine
            .prove(&w.bob.as_subject(), &w.ny.role("Member"), &[])
            .expect("remote discovery must find the chain");
        assert_eq!(proof.edges.len(), 2);
        let ids = proof.credential_ids();
        assert!(w.cred_ids.iter().all(|id| ids.iter().any(|i| i == id)));
        // Re-verification works against the same remote source world.
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn remote_queries_decode_and_filter() {
        let w = remote_world(false);
        let found = w.remote.credentials_by_subject(&w.bob.as_subject());
        assert_eq!(found.len(), 1);
        let by_role = w.remote.credentials_by_object(&w.ny.role("Member"));
        assert_eq!(by_role.len(), 1);
        let none = w
            .remote
            .credentials_by_object(&RoleName::new("No.Such", "Role"));
        assert!(none.is_empty());
    }

    #[test]
    fn cache_avoids_repeat_round_trips() {
        let w = remote_world(true);
        let a = w.remote.credentials_by_subject(&w.bob.as_subject());
        // Sever the transport: cached answers still serve.
        w._server_side.close();
        std::thread::sleep(Duration::from_millis(30));
        let b = w.remote.credentials_by_subject(&w.bob.as_subject());
        assert_eq!(a, b);
        // Uncached keys now return empty (transport gone), not panic.
        let none = w.remote.credentials_by_object(&w.ny.role("Member"));
        assert!(none.is_empty());
    }

    #[test]
    fn revocation_still_enforced_with_caching() {
        let w = remote_world(true);
        let engine = ProofEngine::new(&w.registry, &w.remote, &w.bus, 0);
        assert!(engine.check(&w.bob.as_subject(), &w.ny.role("Member"), &[]));
        // Revoke one chain credential: the cached credential is still
        // *returned* but the engine rejects it via the bus.
        w.bus.revoke(&w.cred_ids[0]);
        assert!(!engine.check(&w.bob.as_subject(), &w.ny.role("Member"), &[]));
    }

    /// A publish acked over the wire and a revocation survive a restart
    /// of the home node, whatever the shard count.
    fn home_node_publish_survives_restart(shards: usize) {
        use psf_drbac::wal::WalConfig;
        let dir =
            std::env::temp_dir().join(format!("psf-repo-svc-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || ShardedDurableRepository::open(&dir, shards, WalConfig::default()).unwrap();

        let ny = Entity::with_seed("Comp.NY", b"svc");
        let bob = Entity::with_seed("Bob", b"svc");
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .sign();
        {
            let (durable, _) = open();
            let (client, server) = pair_in_memory_plain(quiet());
            serve_sharded_durable_repository(&server, &durable);
            let remote = RemoteRepository::new(Arc::new(client)).without_cache();
            // Publish over the wire; the ack means it's in the WAL.
            let ack = remote.publish(&ny.name, DiscoveryTag::Both, &cred).unwrap();
            assert_eq!(ack, cred.id());
            // Immediately queryable through the same service.
            assert_eq!(remote.credentials_by_subject(&bob.as_subject()).len(), 1);
            // Revocations through the durable bus are logged too.
            durable.bus().revoke(&cred.id());
        } // "crash": the process state is dropped, only the files remain

        let (durable2, report) = open();
        assert_eq!(report.publishes, 1);
        assert_eq!(report.revocations_restored, 1);
        let (client, server) = pair_in_memory_plain(quiet());
        serve_sharded_durable_repository(&server, &durable2);
        let remote = RemoteRepository::new(Arc::new(client)).without_cache();
        let found = remote.credentials_by_subject(&bob.as_subject());
        assert_eq!(found.len(), 1);
        assert!(durable2.bus().is_revoked(&cred.id()));
        let again: Result<_, _> = remote.publish(&ny.name, DiscoveryTag::Both, &cred);
        assert!(again.is_ok(), "duplicate publish is acceptable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_home_node_publish_survives_restart() {
        home_node_publish_survives_restart(1);
    }

    #[test]
    fn sharded_home_node_publish_survives_restart() {
        home_node_publish_survives_restart(8);
    }

    #[test]
    fn malformed_queries_are_rejected_server_side() {
        let w = remote_world(false);
        let err = w._server_side.peer(); // placeholder: exercise channel api
        let _ = err;
        // Direct protocol-level garbage must error, not panic.
        let (client, server) = pair_in_memory_plain(quiet());
        serve_repository(&server, Repository::new());
        assert!(client.call(QUERY_BY_SUBJECT, b"\xffgarbage").is_err());
        assert!(client.call(QUERY_BY_OBJECT, b"no-dots-here").is_err());
    }
}
