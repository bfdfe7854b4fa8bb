//! Delegations — the dRBAC credential (paper Table 1).
//!
//! ```text
//! Self-certifying   [ Subject → Issuer.Role ] Issuer   with Attr₁=V₁ …
//! Third-party       [ Subject → Entity.Role ] Issuer   with Attr₁=V₁ …
//! Assignment        [ Subject → Entity.Role ' ] Issuer with Attr₁=V₁ …
//! ```
//!
//! Every delegation is signed by its issuer over a canonical byte
//! encoding. A [`SignedDelegation`] is self-describing: given an
//! [`EntityRegistry`](crate::EntityRegistry) to resolve the issuer's public
//! key, anyone can re-verify it.

use crate::attr::AttrSet;
use crate::entity::{Entity, EntityName, RoleName, Subject};
use crate::{DrbacError, Timestamp};
use psf_crypto::ed25519::Signature;
use std::sync::Arc;

/// The three delegation types of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelegationKind {
    /// `[ Subject → Issuer.Role ] Issuer` — the role owner grants
    /// membership directly.
    SelfCertifying,
    /// `[ Subject → Entity.Role ] Issuer`, issuer ≠ owner — valid only if
    /// the issuer holds the assignment right for the role.
    ThirdParty,
    /// `[ Subject → Entity.Role' ] Issuer` — grants the *right of
    /// assignment* (and further re-assignment) for the role.
    Assignment,
}

/// The unsigned body of a delegation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Who receives the rights.
    pub subject: Subject,
    /// The role whose rights are conveyed (`Entity.Role`).
    pub object: RoleName,
    /// Which of the three forms this is.
    pub kind: DelegationKind,
    /// Who issued (and signed) the delegation.
    pub issuer: EntityName,
    /// Attribute attenuations carried by this edge.
    pub attrs: AttrSet,
    /// Optional expiration (logical seconds); `None` = no expiry.
    pub expires: Option<Timestamp>,
    /// Whether the credential requires online validity monitoring from its
    /// home (paper §3.1); monitored credentials are checked against the
    /// revocation bus on every proof evaluation and subscribe monitors.
    pub monitored: bool,
    /// Issuer-chosen serial number; distinguishes re-issued credentials
    /// with otherwise identical content (e.g. re-validation after a
    /// revocation).
    pub serial: u64,
}

impl Delegation {
    /// Canonical byte encoding over which the issuer signs.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(b"dRBAC-delegation-v1");
        self.subject.encode(&mut out);
        let obj = self.object.to_string();
        out.extend_from_slice(&(obj.len() as u32).to_le_bytes());
        out.extend_from_slice(obj.as_bytes());
        out.push(match self.kind {
            DelegationKind::SelfCertifying => 0,
            DelegationKind::ThirdParty => 1,
            DelegationKind::Assignment => 2,
        });
        out.extend_from_slice(&(self.issuer.0.len() as u32).to_le_bytes());
        out.extend_from_slice(self.issuer.0.as_bytes());
        self.attrs.encode(&mut out);
        match self.expires {
            Some(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
            }
            None => out.push(0),
        }
        out.push(self.monitored as u8);
        out.extend_from_slice(&self.serial.to_le_bytes());
        out
    }

    /// Render in the paper's bracket syntax, e.g.
    /// `[ Bob -> Comp.SD.Member ] Comp.SD`.
    pub fn render(&self) -> String {
        let prime = if self.kind == DelegationKind::Assignment {
            " '"
        } else {
            ""
        };
        format!(
            "[ {} -> {}{} ] {}{}",
            self.subject.render(),
            self.object,
            prime,
            self.issuer,
            self.attrs.render()
        )
    }
}

/// A delegation plus its issuer's signature; the unit stored in the
/// repository and exchanged between domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedDelegation {
    /// The signed body.
    pub body: Delegation,
    /// The issuer's Ed25519 signature over [`Delegation::encode`].
    pub signature: Signature,
}

pub(crate) const HEX: &[u8; 16] = b"0123456789abcdef";

/// A credential id: the first eight bytes of SHA-256(body ‖ signature),
/// held as their sixteen lowercase hex characters — `Copy`, fixed-size,
/// and byte-for-byte what [`SignedDelegation::id`] renders. Ordering and
/// equality are those of the rendered string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CredId([u8; 16]);

impl CredId {
    /// The one place a credential is hashed (`psf.drbac.cred.ids_hashed`
    /// counts the calls).
    fn of(signed: &SignedDelegation) -> CredId {
        psf_telemetry::counter!("psf.drbac.cred.ids_hashed").inc();
        let mut data = signed.body.encode();
        data.extend_from_slice(&signed.signature.to_bytes());
        let digest = psf_crypto::sha256(&data);
        let mut hex = [0u8; 16];
        for (pair, b) in hex.chunks_exact_mut(2).zip(&digest[..8]) {
            pair[0] = HEX[(b >> 4) as usize];
            pair[1] = HEX[(b & 0x0f) as usize];
        }
        CredId(hex)
    }

    /// The id as the string the revocation bus, the WAL and the audit
    /// trail key on.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

impl AsRef<str> for CredId {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl core::fmt::Display for CredId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl core::fmt::Debug for CredId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Display::fmt(self, f)
    }
}

impl From<CredId> for String {
    fn from(id: CredId) -> String {
        id.as_str().to_string()
    }
}

impl PartialEq<String> for CredId {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<CredId> for String {
    fn eq(&self, other: &CredId) -> bool {
        self == other.as_str()
    }
}

/// A [`SignedDelegation`] that carries its id: what the repository
/// stores, sources hand out and proof edges rest on. The id is computed
/// once, by [`Credential::new`], and cannot go stale — private fields,
/// `Deref` but no `DerefMut`. A bare `SignedDelegation` stays freely
/// mutable precisely because it stores no id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    id: CredId,
    signed: SignedDelegation,
}

impl Credential {
    /// Wrap `signed`, hashing it for its id.
    pub fn new(signed: SignedDelegation) -> Credential {
        Credential {
            id: CredId::of(&signed),
            signed,
        }
    }

    /// Wrap a presented credential slice, one hash each — done once per
    /// authorization decision, however many rules it tries.
    pub fn wrap_all(presented: &[SignedDelegation]) -> Vec<Arc<Credential>> {
        presented
            .iter()
            .map(|c| Arc::new(Credential::new(c.clone())))
            .collect()
    }

    /// The carried id (no hashing, no allocation).
    pub fn cred_id(&self) -> CredId {
        self.id
    }

    /// The carried id rendered as [`SignedDelegation::id`] would —
    /// shadows that re-hashing method behind the `Deref`.
    pub fn id(&self) -> String {
        self.id.into()
    }
}

impl std::ops::Deref for Credential {
    type Target = SignedDelegation;
    fn deref(&self) -> &SignedDelegation {
        &self.signed
    }
}

/// Lets [`encode_credentials`](crate::wire::encode_credentials) take a
/// query result (`&[Arc<Credential>]`) as it takes `&[SignedDelegation]`.
impl std::borrow::Borrow<SignedDelegation> for Arc<Credential> {
    fn borrow(&self) -> &SignedDelegation {
        &self.signed
    }
}

impl SignedDelegation {
    /// Stable credential id: hex SHA-256 (truncated) of body + signature,
    /// hashed on every call — a stored credential carries it instead
    /// ([`Credential::cred_id`]).
    pub fn id(&self) -> String {
        CredId::of(self).into()
    }

    /// Structural check (self-certifying ⇒ issuer owns the role): the
    /// time-independent, key-independent part of [`verify`](Self::verify).
    pub fn check_structure(&self) -> Result<(), DrbacError> {
        if self.body.kind == DelegationKind::SelfCertifying
            && self.body.issuer != self.body.object.owner
        {
            return Err(DrbacError::BrokenChain(format!(
                "self-certifying delegation {} not issued by role owner",
                self.id()
            )));
        }
        Ok(())
    }

    /// Expiration check at `now`: the time-dependent part of
    /// [`verify`](Self::verify).
    pub fn check_expiry(&self, now: Timestamp) -> Result<(), DrbacError> {
        if let Some(expires) = self.body.expires {
            if now >= expires {
                return Err(DrbacError::Expired {
                    id: self.id(),
                    expires,
                    now,
                });
            }
        }
        Ok(())
    }

    /// Cryptographic signature check alone (no structure, no expiry) —
    /// the expensive Ed25519 operation a verified-credential cache
    /// memoizes per `(credential id, issuer key)`.
    pub fn verify_signature(
        &self,
        issuer_key: &psf_crypto::ed25519::VerifyingKey,
    ) -> Result<(), DrbacError> {
        issuer_key
            .verify(&self.body.encode(), &self.signature)
            .map_err(|_| DrbacError::BadSignature)
    }

    /// Verify the issuer signature given the issuer's public key, plus
    /// structural checks (self-certifying ⇒ issuer owns the role) and
    /// expiration at `now`.
    pub fn verify(
        &self,
        issuer_key: &psf_crypto::ed25519::VerifyingKey,
        now: Timestamp,
    ) -> Result<(), DrbacError> {
        self.check_structure()?;
        self.check_expiry(now)?;
        self.verify_signature(issuer_key)
    }

    /// Approximate on-the-wire size in bytes (used by the storage-model
    /// comparison, F1).
    pub fn wire_size(&self) -> usize {
        self.body.encode().len() + 64
    }
}

/// Fluent builder for issuing delegations.
///
/// ```
/// use psf_drbac::{DelegationBuilder, Entity};
/// let comp_ny = Entity::with_seed("Comp.NY", b"demo");
/// let alice = Entity::with_seed("Alice", b"demo");
/// // (1) [ Alice -> Comp.NY.Member ] Comp.NY
/// let cred = DelegationBuilder::new(&comp_ny)
///     .subject_entity(&alice)
///     .role(comp_ny.role("Member"))
///     .sign();
/// assert_eq!(cred.body.render(), "[ Alice -> Comp.NY.Member ] Comp.NY");
/// ```
pub struct DelegationBuilder<'a> {
    issuer: &'a Entity,
    subject: Option<Subject>,
    object: Option<RoleName>,
    kind: Option<DelegationKind>,
    attrs: AttrSet,
    expires: Option<Timestamp>,
    monitored: bool,
    serial: u64,
}

impl<'a> DelegationBuilder<'a> {
    /// Start building a delegation issued (signed) by `issuer`.
    pub fn new(issuer: &'a Entity) -> DelegationBuilder<'a> {
        DelegationBuilder {
            issuer,
            subject: None,
            object: None,
            kind: None,
            attrs: AttrSet::new(),
            expires: None,
            monitored: false,
            serial: 0,
        }
    }

    /// Subject = a keyed entity.
    pub fn subject_entity(mut self, e: &Entity) -> Self {
        self.subject = Some(e.as_subject());
        self
    }

    /// Subject = a role (role→role mapping).
    pub fn subject_role(mut self, r: RoleName) -> Self {
        self.subject = Some(Subject::Role(r));
        self
    }

    /// The object role being conveyed. The delegation kind defaults to
    /// self-certifying when the issuer owns the role and third-party
    /// otherwise; call [`assignment`](Self::assignment) to grant the
    /// assignment right instead.
    pub fn role(mut self, r: RoleName) -> Self {
        let kind = if r.owner == self.issuer.name {
            DelegationKind::SelfCertifying
        } else {
            DelegationKind::ThirdParty
        };
        self.object = Some(r);
        self.kind = Some(self.kind.unwrap_or(kind));
        self
    }

    /// Make this an assignment delegation (the trailing `'` of Table 1).
    pub fn assignment(mut self) -> Self {
        self.kind = Some(DelegationKind::Assignment);
        self
    }

    /// Attach an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: crate::attr::AttrValue) -> Self {
        self.attrs = self.attrs.with(name, value);
        self
    }

    /// Set an expiration timestamp.
    pub fn expires(mut self, t: Timestamp) -> Self {
        self.expires = Some(t);
        self
    }

    /// Require online validity monitoring for this credential.
    pub fn monitored(mut self) -> Self {
        self.monitored = true;
        self
    }

    /// Set an issuer-chosen serial number (distinguishes re-issued
    /// credentials with identical content).
    pub fn serial(mut self, serial: u64) -> Self {
        self.serial = serial;
        self
    }

    /// Sign and produce the credential.
    ///
    /// # Panics
    /// If subject or role were not set.
    pub fn sign(self) -> SignedDelegation {
        let body = Delegation {
            subject: self.subject.expect("delegation subject not set"),
            object: self.object.expect("delegation role not set"),
            kind: self.kind.expect("delegation kind not set"),
            issuer: self.issuer.name.clone(),
            attrs: self.attrs,
            expires: self.expires,
            monitored: self.monitored,
            serial: self.serial,
        };
        let signature = self.issuer.sign(&body.encode());
        SignedDelegation { body, signature }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;

    fn entities() -> (Entity, Entity, Entity) {
        (
            Entity::with_seed("Comp.NY", b"t"),
            Entity::with_seed("Comp.SD", b"t"),
            Entity::with_seed("Alice", b"t"),
        )
    }

    #[test]
    fn t1_self_certifying_form() {
        let (ny, _, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        assert_eq!(d.body.kind, DelegationKind::SelfCertifying);
        assert_eq!(d.body.render(), "[ Alice -> Comp.NY.Member ] Comp.NY");
        d.verify(&ny.public_key(), 0).unwrap();
    }

    #[test]
    fn t1_third_party_form() {
        let (ny, sd, _) = entities();
        // (12) [ Inc.SE.Member -> Comp.NY.Partner ] Comp.SD
        let d = DelegationBuilder::new(&sd)
            .subject_role(RoleName::new("Inc.SE", "Member"))
            .role(ny.role("Partner"))
            .sign();
        assert_eq!(d.body.kind, DelegationKind::ThirdParty);
        assert_eq!(
            d.body.render(),
            "[ Inc.SE.Member -> Comp.NY.Partner ] Comp.SD"
        );
        d.verify(&sd.public_key(), 0).unwrap();
    }

    #[test]
    fn t1_assignment_form_renders_prime() {
        let (ny, sd, _) = entities();
        // (3) [ Comp.SD -> Comp.NY.Partner ' ] Comp.NY
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&sd)
            .assignment()
            .role(ny.role("Partner"))
            .sign();
        assert_eq!(d.body.kind, DelegationKind::Assignment);
        assert_eq!(d.body.render(), "[ Comp.SD -> Comp.NY.Partner ' ] Comp.NY");
    }

    #[test]
    fn t1_attributes_render() {
        let mail = Entity::with_seed("Mail", b"t");
        // (4) [ Dell.Linux -> Mail.Node with Secure={true,false} Trust=(0,10) ] Mail
        let d = DelegationBuilder::new(&mail)
            .subject_role(RoleName::new("Dell", "Linux"))
            .role(mail.role("Node"))
            .attr("Secure", AttrValue::set(["true", "false"]))
            .attr("Trust", AttrValue::Range(0, 10))
            .sign();
        assert_eq!(
            d.body.render(),
            "[ Dell.Linux -> Mail.Node ] Mail with Secure={false,true} Trust=(0,10)"
        );
    }

    #[test]
    fn signature_binds_content() {
        let (ny, _, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        // Tamper with the role.
        let mut forged = d.clone();
        forged.body.object = ny.role("Admin");
        assert_eq!(
            forged.verify(&ny.public_key(), 0),
            Err(DrbacError::BadSignature)
        );
    }

    #[test]
    fn wrong_issuer_key_rejected() {
        let (ny, sd, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        assert_eq!(d.verify(&sd.public_key(), 0), Err(DrbacError::BadSignature));
    }

    #[test]
    fn expiry_enforced() {
        let (ny, _, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .expires(100)
            .sign();
        d.verify(&ny.public_key(), 99).unwrap();
        assert!(matches!(
            d.verify(&ny.public_key(), 100),
            Err(DrbacError::Expired { .. })
        ));
    }

    #[test]
    fn self_certifying_by_non_owner_rejected() {
        let (ny, sd, alice) = entities();
        // Force a bogus self-certifying delegation for a foreign role.
        let body = Delegation {
            subject: alice.as_subject(),
            object: ny.role("Member"),
            kind: DelegationKind::SelfCertifying,
            issuer: sd.name.clone(),
            attrs: AttrSet::new(),
            expires: None,
            monitored: false,
            serial: 0,
        };
        let signature = sd.sign(&body.encode());
        let forged = SignedDelegation { body, signature };
        assert!(matches!(
            forged.verify(&sd.public_key(), 0),
            Err(DrbacError::BrokenChain(_))
        ));
    }

    /// The id's definition is frozen: these two were computed before
    /// credentials carried their ids, and every route to an id — the
    /// re-hashing method, the wrapper, a wire round trip — must agree.
    #[test]
    fn golden_ids_hold_on_every_route() {
        let (ny, _, alice) = entities();
        let member = || {
            DelegationBuilder::new(&ny)
                .subject_entity(&alice)
                .role(ny.role("Member"))
        };
        for (cred, golden) in [
            (member().sign(), "75c76ac51005ee2e"),
            (member().serial(7).expires(100).sign(), "23a20c9c5c68e5b8"),
        ] {
            assert_eq!(cred.id(), golden);
            let wrapped = Credential::new(cred.clone());
            assert_eq!(wrapped.cred_id().as_str(), golden);
            assert_eq!(wrapped.id(), golden);
            assert_eq!(
                format!("{} {:?}", wrapped.cred_id(), wrapped.cred_id()),
                format!("{golden} {golden}")
            );
            let wire = cred.to_wire();
            let back = SignedDelegation::from_wire(&mut crate::wire::Reader::new(&wire)).unwrap();
            assert_eq!(Credential::new(back), wrapped);
        }
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let (ny, _, alice) = entities();
        let d1 = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        let d2 = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Partner"))
            .sign();
        assert_eq!(d1.id(), d1.id());
        assert_ne!(d1.id(), d2.id());
    }
}
