//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! The primary seal/open entry points work **in place** so callers that
//! manage their own framing buffers (the Switchboard record layer) pay
//! zero copies: [`ChaCha20Poly1305::seal_in_place`] encrypts a buffer
//! suffix and appends the tag, [`ChaCha20Poly1305::open_in_place`]
//! verifies and decrypts without allocating. The allocating `seal`/`open`
//! wrappers remain for convenience. Encryption is [`chacha20_xor`]
//! (lane-major kernels for the bulk, scalar blocks for records of at most
//! 128 B) and the MAC is [`Poly1305::update`]; the tests hold both to a
//! reference seal built from the one-block primitives.

use crate::chacha::{chacha20_block, chacha20_xor};
use crate::ct::ct_eq;
use crate::poly1305::Poly1305;
use crate::CryptoError;

/// An authenticated encryption context with a fixed 256-bit key.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
}

impl ChaCha20Poly1305 {
    /// Create an AEAD with the given 256-bit key.
    pub fn new(key: [u8; 32]) -> Self {
        ChaCha20Poly1305 { key }
    }

    fn mac(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        // One-time Poly1305 key = first 32 bytes of keystream block 0.
        let block0 = chacha20_block(&self.key, 0, nonce);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block0[..32]);

        let mut mac = Poly1305::new(&otk);
        mac.update(aad);
        mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
        mac.update(ciphertext);
        mac.update(&[0u8; 16][..(16 - ciphertext.len() % 16) % 16]);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// Encrypt `buf[payload_start..]` in place and append the 16-byte tag.
    /// Bytes before `payload_start` (a caller-reserved frame header) are
    /// neither encrypted nor authenticated — bind them via `aad` or, as
    /// the Switchboard record layer does, via the nonce.
    pub fn seal_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut Vec<u8>,
        payload_start: usize,
    ) {
        chacha20_xor(&self.key, 1, nonce, &mut buf[payload_start..]);
        let tag = self.mac(nonce, aad, &buf[payload_start..]);
        buf.extend_from_slice(&tag);
    }

    /// Verify and decrypt `buf` (`ciphertext || tag`) in place; on success
    /// the plaintext occupies `buf[..returned_len]`. No allocation.
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut [u8],
    ) -> Result<usize, CryptoError> {
        if buf.len() < 16 {
            return Err(CryptoError::BadLength);
        }
        let split = buf.len() - 16;
        let (ciphertext, tag) = buf.split_at_mut(split);
        let expected = self.mac(nonce, aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::BadTag);
        }
        chacha20_xor(&self.key, 1, nonce, ciphertext);
        Ok(split)
    }

    /// Encrypt `plaintext` with additional authenticated data `aad`.
    /// Returns `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.seal_in_place(nonce, aad, &mut out, 0);
        out
    }

    /// Decrypt `ciphertext || tag`; verifies the tag before releasing the
    /// plaintext.
    pub fn open(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = sealed.to_vec();
        let len = self.open_in_place(nonce, aad, &mut out)?;
        out.truncate(len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let aead = ChaCha20Poly1305::new([5u8; 32]);
        let nonce = [1u8; 12];
        let sealed = aead.seal(&nonce, b"header", b"secret mail body");
        let opened = aead.open(&nonce, b"header", &sealed).unwrap();
        assert_eq!(opened, b"secret mail body");
    }

    #[test]
    fn tamper_ciphertext_rejected() {
        let aead = ChaCha20Poly1305::new([5u8; 32]);
        let nonce = [1u8; 12];
        let mut sealed = aead.seal(&nonce, b"", b"payload");
        sealed[0] ^= 1;
        assert_eq!(aead.open(&nonce, b"", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tamper_tag_rejected() {
        let aead = ChaCha20Poly1305::new([5u8; 32]);
        let nonce = [1u8; 12];
        let mut sealed = aead.seal(&nonce, b"", b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(aead.open(&nonce, b"", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn wrong_aad_rejected() {
        let aead = ChaCha20Poly1305::new([5u8; 32]);
        let nonce = [1u8; 12];
        let sealed = aead.seal(&nonce, b"aad-1", b"payload");
        assert_eq!(
            aead.open(&nonce, b"aad-2", &sealed),
            Err(CryptoError::BadTag)
        );
    }

    #[test]
    fn wrong_nonce_rejected() {
        let aead = ChaCha20Poly1305::new([5u8; 32]);
        let sealed = aead.seal(&[1u8; 12], b"", b"payload");
        assert_eq!(
            aead.open(&[2u8; 12], b"", &sealed),
            Err(CryptoError::BadTag)
        );
    }

    #[test]
    fn empty_plaintext() {
        let aead = ChaCha20Poly1305::new([0u8; 32]);
        let nonce = [0u8; 12];
        let sealed = aead.seal(&nonce, b"only-aad", b"");
        assert_eq!(sealed.len(), 16);
        assert_eq!(aead.open(&nonce, b"only-aad", &sealed).unwrap(), b"");
    }

    #[test]
    fn in_place_seal_preserves_header_and_roundtrips() {
        let aead = ChaCha20Poly1305::new([3u8; 32]);
        let nonce = [4u8; 12];
        let mut buf = b"HEADER--secret payload body".to_vec();
        aead.seal_in_place(&nonce, b"aad", &mut buf, 8);
        assert_eq!(&buf[..8], b"HEADER--");
        // Sealed region matches the allocating API.
        assert_eq!(
            &buf[8..],
            &aead.seal(&nonce, b"aad", b"secret payload body")[..]
        );
        let len = aead.open_in_place(&nonce, b"aad", &mut buf[8..]).unwrap();
        assert_eq!(&buf[8..8 + len], b"secret payload body");
    }

    /// The oracle: ChaCha20 one scalar block at a time, and Poly1305 fed
    /// slices of at most 16 bytes, each of which takes the one-block step.
    fn scalar_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        for (i, chunk) in out.chunks_mut(64).enumerate() {
            let ks = chacha20_block(key, 1 + i as u32, nonce);
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
        let otk: [u8; 32] = chacha20_block(key, 0, nonce)[..32].try_into().unwrap();
        let mut mac = Poly1305::new(&otk);
        let pad = |n: usize| &[0u8; 16][..(16 - n % 16) % 16];
        let (aad_len, ct_len) = (
            (aad.len() as u64).to_le_bytes(),
            (out.len() as u64).to_le_bytes(),
        );
        for part in [aad, pad(aad.len()), &out, pad(out.len()), &aad_len, &ct_len] {
            for slice in part.chunks(16) {
                mac.update(slice);
            }
        }
        out.extend_from_slice(&mac.finalize());
        out
    }

    #[test]
    fn scalar_seal_matches_wide_seal() {
        let key = [0xabu8; 32];
        let aead = ChaCha20Poly1305::new(key);
        let nonce = [0x11u8; 12];
        for len in [0usize, 1, 64, 128, 129, 255, 256, 1000, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            assert_eq!(
                aead.seal(&nonce, b"hdr", &payload),
                scalar_seal(&key, &nonce, b"hdr", &payload),
                "len {len}"
            );
        }
    }

    #[test]
    fn short_input_rejected() {
        let aead = ChaCha20Poly1305::new([0u8; 32]);
        assert_eq!(
            aead.open(&[0u8; 12], b"", &[0u8; 15]),
            Err(CryptoError::BadLength)
        );
    }
}
