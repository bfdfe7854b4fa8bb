//! Wire codec for credentials (and small helpers shared by Switchboard).
//!
//! The signing encoding in [`Delegation::encode`] is canonical; this
//! module adds the matching decoder plus a framed container that carries
//! the signature, so credential sets can cross domains (paper §3.1:
//! "dRBAC credentials are stored in a distributed repository" and
//! exchanged during Switchboard handshakes, §4.3).

use crate::attr::{AttrSet, AttrValue};
use crate::delegation::{Delegation, DelegationKind, SignedDelegation};
use crate::entity::{EntityName, RoleName, Subject};
use crate::DrbacError;
use psf_crypto::ed25519::{Signature, VerifyingKey};
use std::collections::BTreeSet;

/// Sequential byte reader with bounds checking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DrbacError> {
        if self.pos + n > self.buf.len() {
            return Err(DrbacError::BrokenChain("truncated credential".into()));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DrbacError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DrbacError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DrbacError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, DrbacError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DrbacError> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(DrbacError::BrokenChain("oversized string".into()));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DrbacError::BrokenChain("invalid UTF-8".into()))
    }

    /// Read exactly `N` raw bytes.
    pub fn bytes<const N: usize>(&mut self) -> Result<[u8; N], DrbacError> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    /// Whether all input was consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed — the ceiling on anything a decoded count
    /// may make a decoder allocate.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn decode_subject(r: &mut Reader) -> Result<Subject, DrbacError> {
    match r.u8()? {
        0 => {
            let name = r.string()?;
            let key = VerifyingKey(r.bytes::<32>()?);
            Ok(Subject::Entity {
                name: EntityName(name),
                key,
            })
        }
        1 => {
            let s = r.string()?;
            Ok(Subject::Role(RoleName::parse(&s)?))
        }
        t => Err(DrbacError::BrokenChain(format!("bad subject tag {t}"))),
    }
}

fn decode_attr_value(r: &mut Reader) -> Result<AttrValue, DrbacError> {
    match r.u8()? {
        0 => Ok(AttrValue::Capacity(r.i64()?)),
        1 => Ok(AttrValue::Range(r.i64()?, r.i64()?)),
        2 => {
            let n = r.u32()? as usize;
            if n > 1 << 16 {
                return Err(DrbacError::BrokenChain("oversized attr set".into()));
            }
            let mut set = BTreeSet::new();
            for _ in 0..n {
                let len = r.u32()? as usize;
                if len > 1 << 16 {
                    return Err(DrbacError::BrokenChain("oversized attr item".into()));
                }
                let bytes = r.take(len)?;
                set.insert(
                    String::from_utf8(bytes.to_vec())
                        .map_err(|_| DrbacError::BrokenChain("invalid UTF-8".into()))?,
                );
            }
            Ok(AttrValue::Set(set))
        }
        t => Err(DrbacError::BrokenChain(format!("bad attr tag {t}"))),
    }
}

fn decode_attrs(r: &mut Reader) -> Result<AttrSet, DrbacError> {
    let n = r.u32()? as usize;
    if n > 1 << 16 {
        return Err(DrbacError::BrokenChain("oversized attr map".into()));
    }
    let mut out = AttrSet::new();
    for _ in 0..n {
        let key = r.string()?;
        let val = decode_attr_value(r)?;
        out = out.with(key, val);
    }
    Ok(out)
}

/// Decode a delegation body from its canonical signing encoding.
pub fn decode_delegation(r: &mut Reader) -> Result<Delegation, DrbacError> {
    let magic = r.take(19)?;
    if magic != b"dRBAC-delegation-v1" {
        return Err(DrbacError::BrokenChain("bad credential magic".into()));
    }
    let subject = decode_subject(r)?;
    let object = RoleName::parse(&r.string()?)?;
    let kind = match r.u8()? {
        0 => DelegationKind::SelfCertifying,
        1 => DelegationKind::ThirdParty,
        2 => DelegationKind::Assignment,
        t => return Err(DrbacError::BrokenChain(format!("bad kind tag {t}"))),
    };
    let issuer = EntityName(r.string()?);
    let attrs = decode_attrs(r)?;
    let expires = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        t => return Err(DrbacError::BrokenChain(format!("bad expiry tag {t}"))),
    };
    let monitored = r.u8()? == 1;
    let serial = r.u64()?;
    Ok(Delegation {
        subject,
        object,
        kind,
        issuer,
        attrs,
        expires,
        monitored,
        serial,
    })
}

impl SignedDelegation {
    /// Full wire encoding: body || 64-byte signature, length-prefixed.
    pub fn to_wire(&self) -> Vec<u8> {
        let body = self.body.encode();
        let mut out = Vec::with_capacity(body.len() + 68);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&self.signature.to_bytes());
        out
    }

    /// Decode from [`to_wire`](Self::to_wire) format. The decoded body is
    /// re-encoded and compared byte-for-byte, guaranteeing the signature
    /// still covers exactly what was parsed.
    pub fn from_wire(r: &mut Reader) -> Result<SignedDelegation, DrbacError> {
        let body_len = r.u32()? as usize;
        if body_len > 1 << 20 {
            return Err(DrbacError::BrokenChain("oversized credential".into()));
        }
        let body_bytes = r.take(body_len)?.to_vec();
        let mut body_reader = Reader::new(&body_bytes);
        let body = decode_delegation(&mut body_reader)?;
        if !body_reader.finished() || body.encode() != body_bytes {
            return Err(DrbacError::BrokenChain(
                "credential body is not in canonical form".into(),
            ));
        }
        let sig_bytes = r.bytes::<64>()?;
        Ok(SignedDelegation {
            body,
            signature: Signature(sig_bytes),
        })
    }
}

/// Encode a credential set (u32 count + each credential framed). Accepts
/// owned or `Arc`-shared credentials.
pub fn encode_credentials<T: std::borrow::Borrow<SignedDelegation>>(creds: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(creds.len() as u32).to_le_bytes());
    for c in creds {
        out.extend_from_slice(&c.borrow().to_wire());
    }
    out
}

/// Decode a credential set.
pub fn decode_credentials(buf: &[u8]) -> Result<Vec<SignedDelegation>, DrbacError> {
    let mut r = Reader::new(buf);
    let n = r.u32()? as usize;
    if n > 1 << 16 {
        return Err(DrbacError::BrokenChain("oversized credential set".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(SignedDelegation::from_wire(&mut r)?);
    }
    if !r.finished() {
        return Err(DrbacError::BrokenChain(
            "trailing bytes in credential set".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;
    use crate::delegation::DelegationBuilder;
    use crate::entity::Entity;

    fn sample_creds() -> Vec<SignedDelegation> {
        let ny = Entity::with_seed("Comp.NY", b"wire");
        let sd = Entity::with_seed("Comp.SD", b"wire");
        let bob = Entity::with_seed("Bob", b"wire");
        vec![
            DelegationBuilder::new(&ny)
                .subject_entity(&bob)
                .role(ny.role("Member"))
                .sign(),
            DelegationBuilder::new(&ny)
                .subject_role(sd.role("Member"))
                .role(ny.role("Member"))
                .attr("Trust", AttrValue::Range(0, 10))
                .attr("Secure", AttrValue::set(["true", "false"]))
                .expires(12345)
                .sign(),
            DelegationBuilder::new(&ny)
                .subject_entity(&sd)
                .assignment()
                .role(ny.role("Partner"))
                .attr("CPU", AttrValue::Capacity(80))
                .monitored()
                .sign(),
        ]
    }

    #[test]
    fn roundtrip_single() {
        for cred in sample_creds() {
            let wire = cred.to_wire();
            let back = SignedDelegation::from_wire(&mut Reader::new(&wire)).unwrap();
            assert_eq!(back, cred);
            assert_eq!(back.id(), cred.id());
        }
    }

    #[test]
    fn roundtrip_set() {
        let creds = sample_creds();
        let wire = encode_credentials(&creds);
        let back = decode_credentials(&wire).unwrap();
        assert_eq!(back, creds);
    }

    #[test]
    fn decoded_signature_still_verifies() {
        let ny = Entity::with_seed("Comp.NY", b"wire");
        let bob = Entity::with_seed("Bob", b"wire");
        let cred = DelegationBuilder::new(&ny)
            .subject_entity(&bob)
            .role(ny.role("Member"))
            .sign();
        let back = SignedDelegation::from_wire(&mut Reader::new(&cred.to_wire())).unwrap();
        back.verify(&ny.public_key(), 0).unwrap();
    }

    #[test]
    fn tampered_wire_rejected_or_unverifiable() {
        let creds = sample_creds();
        let mut wire = creds[0].to_wire();
        // Flip a byte inside the body (after the 4-byte length prefix).
        wire[10] ^= 0xff;
        match SignedDelegation::from_wire(&mut Reader::new(&wire)) {
            Err(_) => {} // structural rejection
            Ok(c) => {
                // Or it parsed but the signature must now fail.
                let ny = Entity::with_seed("Comp.NY", b"wire");
                assert!(c.verify(&ny.public_key(), 0).is_err());
            }
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let wire = sample_creds()[0].to_wire();
        for cut in [0usize, 3, 10, wire.len() - 1] {
            assert!(
                SignedDelegation::from_wire(&mut Reader::new(&wire[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode_credentials(&[0xff; 40]).is_err());
        assert!(decode_credentials(&[]).is_err());
        // Claimed huge count.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_credentials(&buf).is_err());
    }

    #[test]
    fn empty_set_roundtrips() {
        let wire = encode_credentials::<SignedDelegation>(&[]);
        assert_eq!(decode_credentials(&wire).unwrap(), Vec::new());
    }

    #[test]
    fn noncanonical_body_rejected() {
        // Hand-build a frame whose body re-encodes differently: append a
        // junk byte to a valid body.
        let cred = &sample_creds()[0];
        let mut body = cred.body.encode();
        body.push(0);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&cred.signature.to_bytes());
        assert!(SignedDelegation::from_wire(&mut Reader::new(&wire)).is_err());
    }
}
