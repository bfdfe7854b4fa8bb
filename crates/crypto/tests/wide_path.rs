//! Differential and known-answer coverage for the wide (multi-block)
//! ChaCha20 / Poly1305 fast paths.
//!
//! The wide paths must be byte-identical to a scalar reference on every
//! input: property tests drive random keys/nonces/counters/lengths/split
//! points through both and compare, and the RFC 8439 multi-block vectors
//! pin the construction itself (not just wide-vs-scalar agreement) to
//! published ciphertexts. The reference is rebuilt here from the public
//! one-block primitives: [`chacha20_block`] 64 B at a time, and
//! [`Poly1305::update`] fed slices of at most 16 bytes, each of which
//! takes the one-block step.

use proptest::prelude::*;
use psf_crypto::chacha::{chacha20_block, chacha20_xor};
use psf_crypto::poly1305::{poly1305, Poly1305};
use psf_crypto::ChaCha20Poly1305;

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap())
        .collect()
}

fn scalar_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let ks = chacha20_block(key, counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
}

fn update_by_blocks(mac: &mut Poly1305, data: &[u8]) {
    for slice in data.chunks(16) {
        mac.update(slice);
    }
}

fn scalar_poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    update_by_blocks(&mut mac, msg);
    mac.finalize()
}

/// RFC 8439 §2.8 from the one-block primitives.
fn scalar_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    scalar_xor(key, 1, nonce, &mut out);
    let otk: [u8; 32] = chacha20_block(key, 0, nonce)[..32].try_into().unwrap();
    let mut mac = Poly1305::new(&otk);
    let pad = |n: usize| &[0u8; 16][..(16 - n % 16) % 16];
    update_by_blocks(&mut mac, aad);
    update_by_blocks(&mut mac, pad(aad.len()));
    update_by_blocks(&mut mac, &out);
    update_by_blocks(&mut mac, pad(out.len()));
    update_by_blocks(&mut mac, &(aad.len() as u64).to_le_bytes());
    update_by_blocks(&mut mac, &(out.len() as u64).to_le_bytes());
    out.extend_from_slice(&mac.finalize());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wide_block4_matches_four_scalar_blocks(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        counter in any::<u32>(),
    ) {
        // 256 B is one 4-lane kernel pass on any CPU with SSSE3.
        let mut wide = [0u8; 256];
        chacha20_xor(&key, counter, &nonce, &mut wide);
        for b in 0..4u32 {
            let scalar = chacha20_block(&key, counter.wrapping_add(b), &nonce);
            prop_assert_eq!(
                &wide[b as usize * 64..(b as usize + 1) * 64],
                &scalar[..],
                "block {} at counter {}",
                b,
                counter
            );
        }
    }

    #[test]
    fn wide_xor_matches_scalar_on_random_lengths_and_offsets(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        counter in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut wide = data.clone();
        let mut scalar = data.clone();
        chacha20_xor(&key, counter, &nonce, &mut wide);
        scalar_xor(&key, counter, &nonce, &mut scalar);
        prop_assert_eq!(wide, scalar, "len {} counter {}", data.len(), counter);
    }

    #[test]
    fn multi_block_poly_matches_scalar_on_random_messages(
        key in prop::array::uniform32(any::<u8>()),
        msg in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        prop_assert_eq!(poly1305(&key, &msg), scalar_poly1305(&key, &msg), "len {}", msg.len());
    }

    #[test]
    fn poly_incremental_split_matches_oneshot(
        key in prop::array::uniform32(any::<u8>()),
        msg in prop::collection::vec(any::<u8>(), 0..512),
        cut_a in any::<u16>(),
        cut_b in any::<u16>(),
    ) {
        // Absorb the same bytes through arbitrary split points, mixing
        // multi-block updates with one-block ones.
        let mut a = (cut_a as usize) % (msg.len() + 1);
        let mut b = (cut_b as usize) % (msg.len() + 1);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let mut mac = Poly1305::new(&key);
        mac.update(&msg[..a]);
        update_by_blocks(&mut mac, &msg[a..b]);
        mac.update(&msg[b..]);
        prop_assert_eq!(mac.finalize(), scalar_poly1305(&key, &msg), "splits {} {}", a, b);
    }

    #[test]
    fn aead_wide_seal_matches_scalar_seal_and_roundtrips(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        payload in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let aead = ChaCha20Poly1305::new(key);
        let sealed = aead.seal(&nonce, &aad, &payload);
        prop_assert_eq!(&sealed, &scalar_seal(&key, &nonce, &aad, &payload));
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), payload);
    }

    #[test]
    fn aead_in_place_matches_allocating_under_header_offsets(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        header_len in 0usize..32,
        payload in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let aead = ChaCha20Poly1305::new(key);
        let mut buf = vec![0x5au8; header_len];
        buf.extend_from_slice(&payload);
        aead.seal_in_place(&nonce, b"aad", &mut buf, header_len);
        prop_assert_eq!(&buf[..header_len], &vec![0x5au8; header_len][..]);
        prop_assert_eq!(&buf[header_len..], &aead.seal(&nonce, b"aad", &payload)[..]);
        let n = aead.open_in_place(&nonce, b"aad", &mut buf[header_len..]).unwrap();
        prop_assert_eq!(&buf[header_len..header_len + n], &payload[..]);
    }
}

/// RFC 8439 §2.4.2: the 114-byte "sunscreen" plaintext encrypted with
/// counter 1. 114 bytes spans two ChaCha blocks, so this pins the
/// multi-block keystream schedule to a published vector.
#[test]
fn rfc8439_sunscreen_encryption_vector() {
    let mut key = [0u8; 32];
    for (i, b) in key.iter_mut().enumerate() {
        *b = i as u8;
    }
    let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let plaintext: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                             only one tip for the future, sunscreen would be it.";
    assert_eq!(plaintext.len(), 114);
    let expected = unhex(
        "6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81
         e9 7e 7a ec 1d 43 60 c2 0a 27 af cc fd 9f ae 0b
         f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 b3 57
         16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8
         07 ca 0d bf 50 0d 6a 61 56 a3 8e 08 8a 22 b6 5e
         52 bc 51 4d 16 cc f8 06 81 8c e9 1a b7 79 37 36
         5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42
         87 4d",
    );

    // Through the public xor entry point: 114 B is at most two blocks, so
    // this runs the scalar block function.
    let mut ct = plaintext.to_vec();
    chacha20_xor(&key, 1, &nonce, &mut ct);
    assert_eq!(ct, expected);

    // And through one 4-lane kernel pass: zero-padded to 256 B, the first
    // 114 bytes consume exactly the keystream this vector does.
    let mut padded = [0u8; 256];
    padded[..114].copy_from_slice(plaintext);
    chacha20_xor(&key, 1, &nonce, &mut padded);
    assert_eq!(&padded[..114], &expected[..]);
}

/// RFC 8439 §2.8.2: the full ChaCha20-Poly1305 AEAD vector over the same
/// 114-byte plaintext. The MAC absorbs the 114-byte ciphertext through the
/// four-/two-/one-block Poly1305 paths in one update, so this pins the
/// multi-block accumulator to a published tag.
#[test]
fn rfc8439_aead_vector() {
    let mut key = [0u8; 32];
    for (i, b) in key.iter_mut().enumerate() {
        *b = 0x80 + i as u8;
    }
    let nonce = [
        0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
    ];
    let aad = unhex("50 51 52 53 c0 c1 c2 c3 c4 c5 c6 c7");
    let plaintext: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                             only one tip for the future, sunscreen would be it.";
    let expected_ct = unhex(
        "d3 1a 8d 34 64 8e 60 db 7b 86 af bc 53 ef 7e c2
         a4 ad ed 51 29 6e 08 fe a9 e2 b5 a7 36 ee 62 d6
         3d be a4 5e 8c a9 67 12 82 fa fb 69 da 92 72 8b
         1a 71 de 0a 9e 06 0b 29 05 d6 a5 b6 7e cd 3b 36
         92 dd bd 7f 2d 77 8b 8c 98 03 ae e3 28 09 1b 58
         fa b3 24 e4 fa d6 75 94 55 85 80 8b 48 31 d7 bc
         3f f4 de f0 8e 4b 7a 9d e5 76 d2 65 86 ce c6 4b
         61 16",
    );
    let expected_tag = unhex("1a e1 0b 59 4f 09 e2 6a 7e 90 2e cb d0 60 06 91");

    let aead = ChaCha20Poly1305::new(key);
    let sealed = aead.seal(&nonce, &aad, plaintext);
    assert_eq!(&sealed[..114], &expected_ct[..]);
    assert_eq!(&sealed[114..], &expected_tag[..]);
    assert_eq!(sealed, scalar_seal(&key, &nonce, &aad, plaintext));
    assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext);
}
