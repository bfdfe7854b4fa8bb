//! # psf-crypto
//!
//! First-party cryptographic substrate for the PSF / dRBAC / Switchboard
//! reproduction. Everything here is implemented from scratch on top of the
//! Rust standard library:
//!
//! * [`sha2`] — SHA-256 and SHA-512 (FIPS 180-4). Round constants and IVs
//!   are *derived at runtime* from the fractional parts of the cube/square
//!   roots of the first primes using exact integer root extraction, and the
//!   digests are checked against the FIPS known-answer vectors, so no
//!   hand-transcribed constant tables can silently corrupt the hash.
//! * [`hmac`] — HMAC (RFC 2104) and HKDF (RFC 5869) over SHA-2.
//! * [`chacha`] / [`poly1305`] / [`aead`] — the ChaCha20-Poly1305 AEAD
//!   construction of RFC 8439.
//! * [`field`] / [`edwards`] / [`scalar`] — arithmetic in GF(2^255 − 19)
//!   (radix-2^51, lazily reduced), the twisted Edwards curve used by
//!   Ed25519, and the scalar field modulo the group order ℓ.
//! * [`ed25519`] — EdDSA signatures (RFC 8032 construction).
//! * [`x25519`](mod@x25519) — Diffie-Hellman key agreement (RFC 7748), checked against
//!   the RFC test vector.
//! * [`ct`] — small constant-time comparison helpers.
//!
//! ## Security posture
//!
//! This crate exists to make the HPDC'03 reproduction *real* — credentials
//! are actually signed, channels actually encrypted — not to be a hardened
//! production library. Curve arithmetic is variable-time everywhere and no
//! constant-time claim is made: signing and key generation index the
//! fixed-base comb table by the secret scalar's digits, the X25519 ladder
//! swaps with a branch, and verification runs one interleaved signed-window
//! double-scalar multiplication whose control flow follows its scalars —
//! which on that path are public data only. See `DESIGN.md` §4.
//!
//! [`edwards`] keeps two lazily built static tables: the comb table behind
//! `mul_basepoint` (64 × 15 cached points × 160 B = 150 KiB, on the heap)
//! and the 64 odd multiples of the base point verification adds from
//! (64 × 120 B = 7.5 KiB).
//!
//! `unsafe` is denied crate-wide with exactly one sanctioned exception, a
//! single block in [`chacha`]: the call through which every lane-major
//! ChaCha20 kernel (SSSE3, AVX2, AVX-512F; value-based intrinsics, no raw
//! pointers) runs, reachable only after the CPU reported the kernel's
//! target feature. The scalar block function is the reference the tests
//! hold every kernel to.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha;
pub mod ct;
pub mod ed25519;
pub mod edwards;
pub mod field;
pub mod hmac;
pub mod poly1305;
pub mod scalar;
pub mod sha2;
pub mod x25519;

mod bigint;

pub use aead::ChaCha20Poly1305;
pub use ed25519::{Signature, SigningKey, VerifyingKey};
pub use sha2::{sha256, sha512, Sha256, Sha512};
pub use x25519::{x25519, X25519_BASEPOINT_U};

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed to verify against the given key and message.
    BadSignature,
    /// An encoded curve point could not be decoded (not on the curve, or
    /// non-canonical).
    InvalidPoint,
    /// An encoded scalar was out of range (≥ ℓ) where canonical form is
    /// required (signature malleability rejection).
    NonCanonicalScalar,
    /// AEAD open failed: the authentication tag did not match.
    BadTag,
    /// A key or nonce had the wrong length.
    BadLength,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CryptoError::BadSignature => "signature verification failed",
            CryptoError::InvalidPoint => "invalid curve point encoding",
            CryptoError::NonCanonicalScalar => "non-canonical scalar encoding",
            CryptoError::BadTag => "AEAD authentication tag mismatch",
            CryptoError::BadLength => "bad key/nonce length",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CryptoError {}
