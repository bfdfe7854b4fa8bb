//! Ed25519 signatures (the RFC 8032 construction).

use crate::edwards::{mul_basepoint, EdwardsPoint};
use crate::scalar::Scalar;
use crate::sha2::Sha512;
use crate::CryptoError;
use rand::Rng;

/// A 64-byte Ed25519 signature (`R || s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl Signature {
    /// Parse from raw bytes.
    pub fn from_bytes(b: &[u8]) -> Result<Signature, CryptoError> {
        if b.len() != 64 {
            return Err(CryptoError::BadLength);
        }
        let mut out = [0u8; 64];
        out.copy_from_slice(b);
        Ok(Signature(out))
    }

    /// Raw bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0
    }
}

/// An Ed25519 signing key (seed + cached expanded secret).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    a: Scalar,        // clamped secret scalar
    prefix: [u8; 32], // nonce-derivation prefix
    public: VerifyingKey,
}

/// An Ed25519 verifying (public) key: compressed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey(pub [u8; 32]);

/// The challenge scalar `k = SHA-512(R || A || M) mod ℓ`.
fn challenge(r_bytes: &[u8], key: &VerifyingKey, msg: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r_bytes);
    h.update(&key.0);
    h.update(msg);
    Scalar::from_bytes_mod_order_wide(&h.finalize())
}

fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

impl SigningKey {
    /// Derive the key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> SigningKey {
        let h = crate::sha2::sha512(&seed);
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&h[..32]);
        let scalar_bytes = clamp(scalar_bytes);
        // The clamped value is < 2^255; reduce mod ℓ for our canonical
        // Scalar type (the group action is identical since ℓ·B = 𝒪).
        let a = Scalar::from_bytes_mod_order(&scalar_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let public = VerifyingKey(mul_basepoint(&a).compress());
        SigningKey {
            seed,
            a,
            prefix,
            public,
        }
    }

    /// Generate a fresh random key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> SigningKey {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        SigningKey::from_seed(seed)
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        // r = SHA-512(prefix || M) mod ℓ  (deterministic nonce)
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());

        let r_point = mul_basepoint(&r).compress();

        let k = challenge(&r_point, &self.public, msg);
        let s = r.add(&k.mul(&self.a));
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&r_point);
        out[32..].copy_from_slice(&s.to_bytes());
        Signature(out)
    }
}

impl VerifyingKey {
    /// Verify `sig` over `msg`.
    ///
    /// Rejects non-canonical `s` (malleability) and an invalid encoding of
    /// the key. Uses the cofactorless equation `s·B = R + k·A`, checked
    /// as `compress(s·B − k·A) = R`: `compress` only produces canonical
    /// encodings, so a signature whose `R` bytes do not decode (`y ≥ p`,
    /// off the curve, `x = 0` with the sign bit set) can never match and
    /// `R` is never decompressed.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let (r_bytes, s_bytes) = sig.0.split_at(32);
        let s_bytes: &[u8; 32] = s_bytes.try_into().expect("64 = 32 + 32");

        let s = Scalar::from_canonical_bytes(s_bytes).ok_or(CryptoError::NonCanonicalScalar)?;
        let a_point = EdwardsPoint::decompress(&self.0)?;
        let k = challenge(r_bytes, self, msg);

        let r_check = EdwardsPoint::double_scalar_mul_basepoint(&k, &a_point.neg(), &s);
        if r_check.compress() == r_bytes {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Raw public key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Short hex fingerprint for diagnostics.
    pub fn fingerprint(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> SigningKey {
        SigningKey::from_seed([n; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key(1);
        let sig = sk.sign(b"hello drbac");
        sk.verifying_key().verify(b"hello drbac", &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = key(2);
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"0riginal", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = key(3).sign(b"msg");
        assert!(key(4).verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = key(5);
        let mut sig = sk.sign(b"msg");
        sig.0[0] ^= 1;
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn signing_is_deterministic() {
        let sk = key(6);
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m").0, sk.sign(b"n").0);
    }

    #[test]
    fn malleability_rejected() {
        // Add ℓ to s: same value mod ℓ but non-canonical encoding.
        let sk = key(7);
        let sig = sk.sign(b"m");
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig.0[32..]);
        let s = crate::bigint::U256::from_le_bytes(&s_bytes);
        let (s_plus_l, overflow) = s.overflowing_add(crate::scalar::L);
        if !overflow {
            let mut forged = sig;
            forged.0[32..].copy_from_slice(&s_plus_l.to_le_bytes());
            assert_eq!(
                sk.verifying_key().verify(b"m", &forged),
                Err(CryptoError::NonCanonicalScalar)
            );
        }
    }

    #[test]
    fn empty_message_signs() {
        let sk = key(8);
        let sig = sk.sign(b"");
        sk.verifying_key().verify(b"", &sig).unwrap();
    }

    #[test]
    fn large_message_signs() {
        let sk = key(9);
        let msg = vec![0xa5u8; 100_000];
        let sig = sk.sign(&msg);
        sk.verifying_key().verify(&msg, &sig).unwrap();
    }

    #[test]
    fn generated_keys_differ() {
        let mut rng = rand::rng();
        let a = SigningKey::generate(&mut rng);
        let b = SigningKey::generate(&mut rng);
        assert_ne!(a.verifying_key(), b.verifying_key());
        let sig = a.sign(b"x");
        assert!(b.verifying_key().verify(b"x", &sig).is_err());
        a.verifying_key().verify(b"x", &sig).unwrap();
    }
}

/// RFC 8032 known answers, and `verify` against the equation it replaced
/// — decompress `R` and `A`, test `s·B = R + k·A` — evaluated with the
/// bit-at-a-time ladder: the two must accept exactly the same
/// `(key, message, signature)` triples.
#[cfg(test)]
mod accept_set_tests {
    use super::*;
    use crate::bigint::U256;
    use crate::edwards::basepoint;
    use crate::field::Fe;
    use proptest::prelude::*;

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        assert_eq!(s.len(), 2 * N);
        core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    #[test]
    fn rfc8032_test_vectors_1_to_3() {
        let vectors: [(&str, &str, &[u8], &str); 3] = [
            (
                "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
                "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
                &[],
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
            ),
            (
                "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
                "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
                &[0x72],
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
            ),
            (
                "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
                "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
                &[0xaf, 0x82],
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
            ),
        ];
        for (seed, key, msg, sig) in vectors {
            let sk = SigningKey::from_seed(unhex(seed));
            let sig = Signature(unhex(sig));
            assert_eq!(sk.verifying_key(), VerifyingKey(unhex(key)));
            assert_eq!(sk.sign(msg), sig);
            assert_eq!(sk.verifying_key().verify(msg, &sig), Ok(()));
            assert_eq!(reference_verify(&sk.verifying_key(), msg, &sig), Ok(()));
        }
    }

    /// `verify` as it stood before the interleaved routine.
    fn reference_verify(
        key: &VerifyingKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), CryptoError> {
        let r_bytes: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::NonCanonicalScalar)?;
        let r_point = EdwardsPoint::decompress(&r_bytes)?;
        let a_point = EdwardsPoint::decompress(&key.0)?;
        let k = challenge(&r_bytes, key, msg);
        let lhs = basepoint().mul_scalar_uniform(&s);
        let rhs = r_point.add(&a_point.mul_scalar_uniform(&k));
        if lhs.eq_point(&rhs) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Same verdict, and the same error but for the one documented case:
    /// an `R` that does not decode under a key that does is now a
    /// `BadSignature`, not an `InvalidPoint`. Returns the verdict.
    fn same_verdict(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> bool {
        let got = key.verify(msg, sig);
        let mut want = reference_verify(key, msg, sig);
        if want == Err(CryptoError::InvalidPoint) && EdwardsPoint::decompress(&key.0).is_ok() {
            want = Err(CryptoError::BadSignature);
        }
        assert_eq!(
            got, want,
            "key {:02x?} msg {msg:02x?} sig {:02x?}",
            key.0, sig.0
        );
        got.is_ok()
    }

    fn signature(r: &[u8; 32], s: &[u8; 32]) -> Signature {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(r);
        out[32..].copy_from_slice(s);
        Signature(out)
    }

    /// The eight points of order dividing 8: multiples of ℓ·P for a P
    /// with a full torsion component.
    fn small_order_points() -> [EdwardsPoint; 8] {
        let l_minus_1 = Scalar::ZERO.sub(&Scalar::from_u64(1));
        let generator = (2u64..)
            .filter_map(|y| EdwardsPoint::decompress(&Fe::from_u64(y).to_bytes()).ok())
            .map(|p| p.mul_scalar_uniform(&l_minus_1).add(&p)) // ℓ·P
            .find(|t| !t.double().double().is_identity())
            .expect("some small y has order 8ℓ");
        let mut out = [EdwardsPoint::identity(); 8];
        for i in 1..8 {
            out[i] = out[i - 1].add(&generator);
        }
        assert!(out[7].add(&generator).is_identity());
        out
    }

    /// Encodings `decompress` must refuse: y ≥ p (every such 255-bit
    /// value, with either sign bit), x = 0 with the sign bit set, and y
    /// off the curve.
    fn undecodable_encodings() -> Vec<[u8; 32]> {
        let mut out = Vec::new();
        let p = U256([0, 0, 0, 1 << 63])
            .overflowing_sub(U256([19, 0, 0, 0]))
            .0;
        for excess in 0..19 {
            let mut enc = p.overflowing_add(U256([excess, 0, 0, 0])).0.to_le_bytes();
            out.push(enc);
            enc[31] |= 0x80;
            out.push(enc);
        }
        for y in [Fe::ONE, Fe::ONE.neg()] {
            let mut enc = y.to_bytes(); // (0, ±1)
            enc[31] |= 0x80;
            out.push(enc);
        }
        let off_curve = (2u64..)
            .map(|y| Fe::from_u64(y).to_bytes())
            .filter(|enc| EdwardsPoint::decompress(enc).is_err())
            .take(3);
        out.extend(off_curve);
        for enc in &out {
            assert_eq!(
                EdwardsPoint::decompress(enc),
                Err(CryptoError::InvalidPoint)
            );
        }
        out
    }

    #[test]
    fn undecodable_r_or_key_is_refused_alike() {
        let sk = SigningKey::from_seed([11; 32]);
        let msg = b"undecodable";
        let honest = sk.sign(msg);
        let s: [u8; 32] = honest.0[32..].try_into().unwrap();
        for enc in undecodable_encodings() {
            assert!(!same_verdict(
                &sk.verifying_key(),
                msg,
                &signature(&enc, &s)
            ));
            assert!(!same_verdict(&VerifyingKey(enc), msg, &honest));
            assert!(!same_verdict(&VerifyingKey(enc), msg, &signature(&enc, &s)));
            assert_eq!(
                VerifyingKey(enc).verify(msg, &honest),
                Err(CryptoError::InvalidPoint)
            );
        }
        assert!(!same_verdict(&sk.verifying_key(), msg, &Signature([0; 64])));
    }

    /// Small-order keys and `R`s are where a cofactorless verifier's
    /// accept set is widest (a key of order 8 accepts one forged `R` in
    /// eight), so it is where two verifiers would part first.
    #[test]
    fn small_order_keys_and_r_are_judged_alike() {
        let torsion = small_order_points();
        let encodings = torsion.map(|t| t.compress());
        let honest = SigningKey::from_seed([12; 32]);
        let scalars = [
            Scalar::ZERO,
            Scalar::from_u64(1),
            Scalar::from_bytes_mod_order(&[0x5a; 32]),
        ];
        let mut accepted = 0;
        for (a, a_enc) in torsion.iter().zip(&encodings) {
            let key = VerifyingKey(*a_enc);
            // All zeroes: s = 0 and R the point of order 4 with y = 0.
            accepted += same_verdict(&key, b"zero", &Signature([0; 64])) as u32;
            for s in &scalars {
                // R = s·B − j·A is accepted exactly when k·A = j·A.
                for j in 0..8u64 {
                    let r = mul_basepoint(s).add(&a.mul_scalar_uniform(&Scalar::from_u64(j)).neg());
                    let sig = signature(&r.compress(), &s.to_bytes());
                    accepted += same_verdict(&key, b"small-order key", &sig) as u32;
                }
                for r_enc in &encodings {
                    let sig = signature(r_enc, &s.to_bytes());
                    accepted += same_verdict(&key, b"small-order both", &sig) as u32;
                    let msg = b"small-order R";
                    let sig = signature(r_enc, &honest.sign(msg).0[32..].try_into().unwrap());
                    same_verdict(&honest.verifying_key(), msg, &sig);
                }
            }
        }
        // The identity key alone accepts R = s·B for every s and message.
        assert!(accepted >= scalars.len() as u32, "accepted {accepted}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))] // two uniform ladders a verdict

        #[test]
        fn verify_matches_reference_under_mutation(
            seed in prop::array::uniform32(any::<u8>()),
            msg in prop::collection::vec(any::<u8>(), 0..96),
            other in prop::array::uniform32(any::<u8>()),
            bit in 0usize..256,
        ) {
            let sk = SigningKey::from_seed(seed);
            let key = sk.verifying_key();
            let sig = sk.sign(&msg);
            prop_assert!(same_verdict(&key, &msg, &sig));

            let flip = |bytes: &mut [u8]| bytes[(bit / 8) % bytes.len()] ^= 1 << (bit % 8);
            let mut flipped_r = sig;
            flip(&mut flipped_r.0[..32]);
            prop_assert!(!same_verdict(&key, &msg, &flipped_r));
            let mut flipped_s = sig;
            flip(&mut flipped_s.0[32..]);
            prop_assert!(!same_verdict(&key, &msg, &flipped_s));
            let mut flipped_key = key;
            flip(&mut flipped_key.0);
            prop_assert!(!same_verdict(&flipped_key, &msg, &sig));
            let mut flipped_msg = msg.clone();
            flipped_msg.push(0);
            flip(&mut flipped_msg);
            prop_assert!(!same_verdict(&key, &flipped_msg, &sig));

            // s + ℓ names the same scalar and must be refused as such.
            let s = U256::from_le_bytes(&sig.0[32..].try_into().unwrap());
            let mut malleated = sig;
            malleated.0[32..].copy_from_slice(&s.overflowing_add(crate::scalar::L).0.to_le_bytes());
            prop_assert_eq!(key.verify(&msg, &malleated), Err(CryptoError::NonCanonicalScalar));
            prop_assert!(!same_verdict(&key, &msg, &malleated));

            // Unrelated bytes as key, as R and as s.
            prop_assert!(!same_verdict(&VerifyingKey(other), &msg, &sig));
            let mut foreign = [0u8; 32];
            foreign.copy_from_slice(&sig.0[32..]);
            prop_assert!(!same_verdict(&key, &msg, &signature(&other, &foreign)));
            foreign.copy_from_slice(&sig.0[..32]);
            prop_assert!(!same_verdict(&key, &msg, &signature(&foreign, &other)));
        }
    }
}
