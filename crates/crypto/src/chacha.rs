//! The ChaCha20 stream cipher (RFC 8439 §2.3/§2.4).
//!
//! [`chacha20_block`] is the scalar one-block function and the RFC
//! reference. One lane-major kernel body keeps `L` block states side by
//! side — one `L`-lane vector per state word, lane `b` belonging to block
//! `counter + b` — and is instantiated on x86-64 at 4 lanes (SSSE3), 8
//! (AVX2) and 16 (AVX-512F); each is byte-identical to the scalar function
//! at counters `counter..counter + L`. [`chacha20_xor`] picks kernels by
//! what the CPU reports; without SSSE3, or off x86-64, it runs scalar
//! (correct everywhere, measured only on x86-64).

/// The ChaCha20 block function state constant: "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The block state before the rounds: constants, key, counter, nonce.
#[inline]
fn initial_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        let mut w = [0u8; 4];
        w.copy_from_slice(&key[i * 4..i * 4 + 4]);
        state[4 + i] = u32::from_le_bytes(w);
    }
    state[12] = counter;
    for i in 0..3 {
        let mut w = [0u8; 4];
        w.copy_from_slice(&nonce[i * 4..i * 4 + 4]);
        state[13 + i] = u32::from_le_bytes(w);
    }
    state
}

/// Compute one 64-byte ChaCha20 keystream block.
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let state = initial_state(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        // column rounds
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // diagonal rounds
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The x86-64 instantiations of the lane-major kernel. Every intrinsic
/// used is value-based (no raw pointers), so the kernels are safe
/// `#[target_feature]` functions; only calling one needs the CPU check.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// The lane-major kernel body. `$name` XORs every whole
    /// `64 · $lanes`-byte chunk of `data` with the keystream from block
    /// `counter` on and returns the shorter remainder untouched;
    /// `$quarters` splits a state vector into its 128-bit quarters (blocks
    /// `4q..4q+4`) for serialization.
    macro_rules! kernel {
        ($name:ident, $feat:literal, lanes: $lanes:literal, add: $add:ident, xor: $xor:ident,
         splat: $splat:ident, iota: $iota:expr, rotl: $rotl:ident, quarters: $quarters:expr) => {
            #[target_feature(enable = $feat)]
            pub(super) fn $name<'a>(
                key: &[u8; 32],
                counter: u32,
                nonce: &[u8; 12],
                data: &'a mut [u8],
            ) -> &'a mut [u8] {
                let state = super::initial_state(key, counter, nonce);
                let mut init = [$splat(0); 16];
                for (v, w) in init.iter_mut().zip(state) {
                    *v = $splat(w as i32);
                }
                init[12] = $add(init[12], $iota);
                let quarters = $quarters;
                let mut chunks = data.chunks_exact_mut(64 * $lanes);
                for chunk in &mut chunks {
                    let buf: &mut [u8; 64 * $lanes] = chunk.try_into().unwrap();
                    let mut x = init;
                    macro_rules! qr {
                        ($a:literal, $b:literal, $c:literal, $d:literal) => {
                            x[$a] = $add(x[$a], x[$b]);
                            x[$d] = $rotl!(16, $xor(x[$d], x[$a]));
                            x[$c] = $add(x[$c], x[$d]);
                            x[$b] = $rotl!(12, $xor(x[$b], x[$c]));
                            x[$a] = $add(x[$a], x[$b]);
                            x[$d] = $rotl!(8, $xor(x[$d], x[$a]));
                            x[$c] = $add(x[$c], x[$d]);
                            x[$b] = $rotl!(7, $xor(x[$b], x[$c]));
                        };
                    }
                    for _ in 0..10 {
                        // column rounds
                        qr!(0, 4, 8, 12);
                        qr!(1, 5, 9, 13);
                        qr!(2, 6, 10, 14);
                        qr!(3, 7, 11, 15);
                        // diagonal rounds
                        qr!(0, 5, 10, 15);
                        qr!(1, 6, 11, 12);
                        qr!(2, 7, 8, 13);
                        qr!(3, 4, 9, 14);
                    }
                    for i in 0..16 {
                        for (q, h) in quarters($add(x[i], init[i])).into_iter().enumerate() {
                            let lo = _mm_cvtsi128_si64(h) as u64;
                            let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(h, h)) as u64;
                            for (l, k) in [lo, lo >> 32, hi, hi >> 32].into_iter().enumerate() {
                                let off = (4 * q + l) * 64 + 4 * i;
                                let word: &mut [u8; 4] =
                                    (&mut buf[off..off + 4]).try_into().unwrap();
                                *word = (u32::from_le_bytes(*word) ^ k as u32).to_le_bytes();
                            }
                        }
                    }
                    init[12] = $add(init[12], $splat($lanes));
                }
                chunks.into_remainder()
            }
        };
    }

    // Below AVX-512 there is no vector rotate: the byte-granular 16 and 8
    // are one `pshufb` (per 128-bit half) with these masks, 12 and 7 a
    // shift pair.
    macro_rules! rot_mask {
        (16) => {
            _mm_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13)
        };
        (8) => {
            _mm_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14)
        };
    }
    macro_rules! rotl_ssse3 {
        (16, $v:expr) => {
            _mm_shuffle_epi8($v, rot_mask!(16))
        };
        (8, $v:expr) => {
            _mm_shuffle_epi8($v, rot_mask!(8))
        };
        ($r:literal, $v:expr) => {{
            let v = $v;
            _mm_or_si128(_mm_slli_epi32::<$r>(v), _mm_srli_epi32::<{ 32 - $r }>(v))
        }};
    }
    macro_rules! rotl_avx2 {
        (16, $v:expr) => {
            _mm256_shuffle_epi8($v, _mm256_broadcastsi128_si256(rot_mask!(16)))
        };
        (8, $v:expr) => {
            _mm256_shuffle_epi8($v, _mm256_broadcastsi128_si256(rot_mask!(8)))
        };
        ($r:literal, $v:expr) => {{
            let v = $v;
            _mm256_or_si256(
                _mm256_slli_epi32::<$r>(v),
                _mm256_srli_epi32::<{ 32 - $r }>(v),
            )
        }};
    }
    macro_rules! rotl_avx512 {
        ($r:literal, $v:expr) => {
            _mm512_rol_epi32::<$r>($v)
        };
    }

    kernel! {
        xor4, "ssse3", lanes: 4, add: _mm_add_epi32, xor: _mm_xor_si128,
        splat: _mm_set1_epi32, iota: _mm_setr_epi32(0, 1, 2, 3),
        rotl: rotl_ssse3, quarters: |v| [v]
    }
    kernel! {
        xor8, "avx2", lanes: 8, add: _mm256_add_epi32, xor: _mm256_xor_si256,
        splat: _mm256_set1_epi32, iota: _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        rotl: rotl_avx2,
        quarters: |v| [_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)]
    }
    kernel! {
        xor16, "avx512f", lanes: 16, add: _mm512_add_epi32, xor: _mm512_xor_si512,
        splat: _mm512_set1_epi32,
        iota: _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        rotl: rotl_avx512,
        quarters: |v| [
            _mm512_extracti32x4_epi32::<0>(v),
            _mm512_extracti32x4_epi32::<1>(v),
            _mm512_extracti32x4_epi32::<2>(v),
            _mm512_extracti32x4_epi32::<3>(v),
        ]
    }
}

/// A kernel instantiation whose target feature the CPU has reported:
/// `f` XORs every whole `64 · lanes`-byte chunk of its input with the
/// keystream from block `counter` on and returns the remainder. Only
/// [`kernels`] builds one.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Kernel {
    lanes: usize,
    f: KernelFn,
}

type KernelFn = for<'a> unsafe fn(&[u8; 32], u32, &[u8; 12], &'a mut [u8]) -> &'a mut [u8];

impl Kernel {
    #[allow(unsafe_code)]
    fn xor<'a>(
        self,
        key: &[u8; 32],
        counter: u32,
        nonce: &[u8; 12],
        data: &'a mut [u8],
    ) -> &'a mut [u8] {
        // SAFETY: `kernels` builds a `Kernel` only after the CPU reported
        // the target feature `f` is compiled for.
        unsafe { (self.f)(key, counter, nonce, data) }
    }
}

/// The kernels this CPU runs, widest first.
#[cfg(target_arch = "x86_64")]
fn kernels() -> [Option<Kernel>; 3] {
    use std::arch::is_x86_feature_detected as has;
    let detected = |on: bool, lanes, f: KernelFn| on.then_some(Kernel { lanes, f });
    [
        detected(has!("avx512f"), 16, x86::xor16),
        detected(has!("avx2"), 8, x86::xor8),
        detected(has!("ssse3"), 4, x86::xor4),
    ]
}

#[cfg(not(target_arch = "x86_64"))]
fn kernels() -> [Option<Kernel>; 0] {
    []
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `counter`: whole chunks through the widest kernel the CPU runs, the
/// remainder through each narrower one, and a last tail of under 256 B
/// scalar (at most 128 B) or through one 4-lane keystream pass.
pub fn chacha20_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], mut data: &mut [u8]) {
    let mut ctr = counter;
    // Two scalar blocks beat one 4-lane pass into a stack buffer (102 B:
    // 195–208 ns against 240–253 ns on a 2-vCPU AVX-512 x86-64 guest);
    // from 144 B on the pass wins (228–266 ns against 310–340 ns). So up
    // to 128 B run scalar.
    if data.len() > 128 {
        for k in kernels().into_iter().flatten() {
            let len = data.len();
            if len >= 64 * k.lanes {
                data = k.xor(key, ctr, nonce, std::mem::take(&mut data));
                ctr = ctr.wrapping_add(((len - data.len()) / 64) as u32);
            }
            if k.lanes == 4 && data.len() > 128 {
                let mut ks = [0u8; 256];
                k.xor(key, ctr, nonce, &mut ks);
                for (b, s) in data.iter_mut().zip(ks.iter()) {
                    *b ^= s;
                }
                return;
            }
        }
    }
    for chunk in data.chunks_mut(64) {
        let ks = chacha20_block(key, ctr, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr = ctr.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: the scalar block function, one block at a time.
    fn scalar_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(64).enumerate() {
            let ks = chacha20_block(key, counter.wrapping_add(i as u32), nonce);
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
    }

    #[test]
    fn rfc8439_quarter_round() {
        // RFC 8439 §2.1.1 test vector.
        let mut st = [0u32; 16];
        st[0] = 0x11111111;
        st[1] = 0x01020304;
        st[2] = 0x9b8d6f43;
        st[3] = 0x01234567;
        quarter_round(&mut st, 0, 1, 2, 3);
        assert_eq!(st[0], 0xea2a92f4);
        assert_eq!(st[1], 0xcb1cf8ce);
        assert_eq!(st[2], 0x4581472e);
        assert_eq!(st[3], 0x5881c4bb);
    }

    #[test]
    fn rfc8439_block() {
        // RFC 8439 §2.3.2 block function test vector.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        let expected_start = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&block[..16], &expected_start);
    }

    #[test]
    fn xor_roundtrip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut data = b"attack at dawn, via the insecure WAN link".to_vec();
        let orig = data.clone();
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert_ne!(data, orig);
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert_eq!(data, orig);
    }

    /// XORs zeros through the `lanes`-wide kernel instantiation, if this
    /// CPU runs it, and compares each block with the scalar one.
    fn kernel_matches_scalar_blocks(lanes: usize) {
        let Some(k) = kernels().into_iter().flatten().find(|k| k.lanes == lanes) else {
            return; // nothing to test on this CPU
        };
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let nonce = [0x5a; 12];
        for counter in [0u32, 1, 9, 1000, u32::MAX - 1, u32::MAX - 2, u32::MAX - 11] {
            // Two chunks, so the kernel's own counter step is checked too.
            let mut wide = vec![0u8; 2 * 64 * lanes];
            k.xor(&key, counter, &nonce, &mut wide);
            for b in 0..2 * lanes {
                let scalar = chacha20_block(&key, counter.wrapping_add(b as u32), &nonce);
                assert_eq!(
                    &wide[b * 64..(b + 1) * 64],
                    &scalar[..],
                    "{lanes} lanes, counter {counter}, block {b}"
                );
            }
        }
    }

    #[test]
    fn wide_block4_matches_scalar_blocks() {
        kernel_matches_scalar_blocks(4);
    }

    #[test]
    fn avx2_backend_matches_scalar_blocks() {
        kernel_matches_scalar_blocks(8);
    }

    #[test]
    fn avx512_backend_matches_scalar_blocks() {
        kernel_matches_scalar_blocks(16);
    }

    #[test]
    fn wide_xor_matches_scalar_xor() {
        let key = [0x21u8; 32];
        let nonce = [9u8; 12];
        for len in [
            0usize,
            1,
            63,
            64,
            128,
            129,
            255,
            256,
            257,
            511,
            512,
            767,
            1023,
            1024 + 17,
            1024 + 512 + 256 + 17,
        ] {
            let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut wide = src.clone();
            let mut scalar = src.clone();
            chacha20_xor(&key, 3, &nonce, &mut wide);
            scalar_xor(&key, 3, &nonce, &mut scalar);
            assert_eq!(wide, scalar, "len {len}");
        }
    }

    #[test]
    fn counter_advances_across_blocks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut long = vec![0u8; 130];
        chacha20_xor(&key, 5, &nonce, &mut long);
        // Encrypting in two pieces with the right counters matches.
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 66];
        chacha20_xor(&key, 5, &nonce, &mut a);
        chacha20_xor(&key, 6, &nonce, &mut b);
        assert_eq!(&long[..64], &a[..]);
        assert_eq!(&long[64..], &b[..]);
    }
}
