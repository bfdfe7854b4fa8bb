//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Two limb schedules share the accumulator. Small messages and residues
//! run in radix-2²⁶ (five limbs, pure u64 arithmetic); bulk input runs in
//! radix-2⁴⁴ (three limbs, u128 products — nine widening multiplies per
//! block instead of twenty-five), absorbed four blocks per carry chain via
//! the lazily computed powers `r²…r⁴`: the unrolled Horner step
//! `(((h + m₁)·r + m₂)·r + m₃)·r + m₄` is evaluated as
//! `(h + m₁)·r⁴ + m₂·r³ + m₃·r² + m₄·r`, with all four products summed
//! limb-wise in u128 before a single reduction. The accumulator converts
//! between radices once per `update` call, never per block. An `update`
//! of at most 16 bytes takes only the one-block radix-2²⁶ step, so the
//! tests build their reference MAC by feeding 16-byte slices; every
//! split produces the same tag.

/// Incremental Poly1305 MAC. The key must never be reused across messages;
/// the AEAD construction derives a fresh one per nonce.
pub struct Poly1305 {
    r: [u64; 5],
    /// r² mod 2¹³⁰−5, for the two-block residue step.
    r2: [u64; 5],
    /// Radix-2⁴⁴ powers `r, r², r³, r⁴`, computed on the first bulk
    /// (≥ 64-byte) absorb so short messages never pay for them.
    wide: Option<[R44; 4]>,
    s: [u64; 2],
    h: [u64; 5],
    buf: [u8; 16],
    buf_len: usize,
}

const MASK26: u64 = (1 << 26) - 1;
const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// A precomputed radix-2⁴⁴ multiplier: three limbs plus the ×20 wrap
/// multiples (`2¹³² ≡ 20 mod 2¹³⁰−5`) used by the schoolbook products.
#[derive(Clone, Copy)]
struct R44 {
    r: [u64; 3],
    r1_20: u64,
    r2_20: u64,
}

impl R44 {
    fn new(r: [u64; 3]) -> R44 {
        R44 {
            r,
            r1_20: r[1] * 20,
            r2_20: r[2] * 20,
        }
    }
}

/// Accumulate `a · b` into the unreduced radix-2⁴⁴ triple product. With
/// `a` limbs < 2⁴⁵ and multiplier limbs < 2⁴⁹ (after the ×20 fold), each
/// product is < 2⁹⁴; four accumulated multiplies stay far inside u128.
#[inline(always)]
fn mul44_acc(d: &mut [u128; 3], a: &[u64; 3], b: &R44) {
    let [a0, a1, a2] = *a;
    let [b0, b1, b2] = b.r;
    d[0] += a0 as u128 * b0 as u128 + a1 as u128 * b.r2_20 as u128 + a2 as u128 * b.r1_20 as u128;
    d[1] += a0 as u128 * b1 as u128 + a1 as u128 * b0 as u128 + a2 as u128 * b.r2_20 as u128;
    d[2] += a0 as u128 * b2 as u128 + a1 as u128 * b1 as u128 + a2 as u128 * b0 as u128;
}

/// Carry-propagate an unreduced triple product back to (44, 44, 42)-bit
/// limbs, folding the 2¹³⁰ overflow with the ×5 wraparound.
#[inline(always)]
fn carry44(mut d: [u128; 3]) -> [u64; 3] {
    d[1] += d[0] >> 44;
    let l0 = d[0] as u64 & MASK44;
    d[2] += d[1] >> 44;
    let l1 = d[1] as u64 & MASK44;
    let c = (d[2] >> 42) as u64;
    let l2 = d[2] as u64 & MASK42;
    let l0 = l0 + 5 * c;
    [l0 & MASK44, l1 + (l0 >> 44), l2]
}

/// `a · b mod 2¹³⁰−5` in radix-2⁴⁴ (used to build the lazy powers).
fn mul44_reduce(a: &[u64; 3], b: &R44) -> [u64; 3] {
    let mut d = [0u128; 3];
    mul44_acc(&mut d, a, b);
    carry44(d)
}

/// Split a 16-byte block into radix-2⁴⁴ limbs with the 2¹²⁸ pad bit set
/// (the bulk path only ever sees full blocks).
#[inline(always)]
fn limbs44(block: &[u8; 16]) -> [u64; 3] {
    let t0 = u64::from_le_bytes(block[0..8].try_into().unwrap());
    let t1 = u64::from_le_bytes(block[8..16].try_into().unwrap());
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | (1 << 40),
    ]
}

/// Split a 16-byte block into radix-2²⁶ limbs, with `hibit` supplying the
/// 2¹²⁸ bit for full blocks.
#[inline(always)]
fn limbs(block: &[u8; 16], hibit: u64) -> [u64; 5] {
    let t0 = u64::from_le_bytes(block[0..8].try_into().unwrap());
    let t1 = u64::from_le_bytes(block[8..16].try_into().unwrap());
    [
        t0 & MASK26,
        (t0 >> 26) & MASK26,
        ((t0 >> 52) | (t1 << 12)) & MASK26,
        (t1 >> 14) & MASK26,
        (t1 >> 40) | (hibit << 24),
    ]
}

/// One reduction pass: carry-propagate `d` and fold the 2¹³⁰ overflow back
/// with the ×5 wraparound.
#[inline(always)]
fn carry_reduce(mut d: [u64; 5]) -> [u64; 5] {
    let mut c;
    c = d[0] >> 26;
    d[0] &= MASK26;
    d[1] += c;
    c = d[1] >> 26;
    d[1] &= MASK26;
    d[2] += c;
    c = d[2] >> 26;
    d[2] &= MASK26;
    d[3] += c;
    c = d[3] >> 26;
    d[3] &= MASK26;
    d[4] += c;
    c = d[4] >> 26;
    d[4] &= MASK26;
    d[0] += c * 5;
    c = d[0] >> 26;
    d[0] &= MASK26;
    d[1] += c;
    d
}

/// `h · r mod 2¹³⁰−5` (schoolbook with wraparound-by-5, one carry chain).
#[inline(always)]
fn mul_reduce(h: &[u64; 5], r: &[u64; 5]) -> [u64; 5] {
    let [r0, r1, r2, r3, r4] = *r;
    let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);
    let [h0, h1, h2, h3, h4] = *h;
    carry_reduce([
        h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1,
        h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2,
        h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3,
        h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4,
        h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0,
    ])
}

/// Unreduced `u·p + v·q`: the ten schoolbook products with the ×5
/// wraparound folded in, summed limb-wise but **not** carried. Each output
/// limb stays below 2⁶⁰ (u ≤ 2²⁷, v ≤ 2²⁶·¹, multiplier limbs ≤ 2²⁸·⁵
/// after the ×5 fold), so two of these can still be added within u64
/// before a single shared [`carry_reduce`].
#[inline(always)]
fn mul2_raw(u: &[u64; 5], p: &[u64; 5], v: &[u64; 5], q: &[u64; 5]) -> [u64; 5] {
    let [p0, p1, p2, p3, p4] = *p;
    let (ps1, ps2, ps3, ps4) = (p1 * 5, p2 * 5, p3 * 5, p4 * 5);
    let [u0, u1, u2, u3, u4] = *u;
    let [q0, q1, q2, q3, q4] = *q;
    let (qs1, qs2, qs3, qs4) = (q1 * 5, q2 * 5, q3 * 5, q4 * 5);
    let [v0, v1, v2, v3, v4] = *v;
    [
        u0 * p0
            + u1 * ps4
            + u2 * ps3
            + u3 * ps2
            + u4 * ps1
            + v0 * q0
            + v1 * qs4
            + v2 * qs3
            + v3 * qs2
            + v4 * qs1,
        u0 * p1
            + u1 * p0
            + u2 * ps4
            + u3 * ps3
            + u4 * ps2
            + v0 * q1
            + v1 * q0
            + v2 * qs4
            + v3 * qs3
            + v4 * qs2,
        u0 * p2
            + u1 * p1
            + u2 * p0
            + u3 * ps4
            + u4 * ps3
            + v0 * q2
            + v1 * q1
            + v2 * q0
            + v3 * qs4
            + v4 * qs3,
        u0 * p3
            + u1 * p2
            + u2 * p1
            + u3 * p0
            + u4 * ps4
            + v0 * q3
            + v1 * q2
            + v2 * q1
            + v3 * q0
            + v4 * qs4,
        u0 * p4
            + u1 * p3
            + u2 * p2
            + u3 * p1
            + u4 * p0
            + v0 * q4
            + v1 * q3
            + v2 * q2
            + v3 * q1
            + v4 * q0,
    ]
}

/// `u·p + v·q mod 2¹³⁰−5` with one shared carry chain — the two-block
/// Horner step `(h + m₁)·r² + m₂·r`.
#[inline(always)]
fn mul2_reduce(u: &[u64; 5], p: &[u64; 5], v: &[u64; 5], q: &[u64; 5]) -> [u64; 5] {
    carry_reduce(mul2_raw(u, p, v, q))
}

impl Poly1305 {
    /// Initialize with a 32-byte one-time key (`r || s`).
    pub fn new(key: &[u8; 32]) -> Self {
        // Clamp r per RFC 8439 §2.5.
        let t0 = u64::from_le_bytes(key[0..8].try_into().unwrap());
        let t1 = u64::from_le_bytes(key[8..16].try_into().unwrap());
        let t0 = t0 & 0x0FFF_FFFC_0FFF_FFFF;
        let t1 = t1 & 0x0FFF_FFFC_0FFF_FFFC;
        let r = [
            t0 & MASK26,
            (t0 >> 26) & MASK26,
            ((t0 >> 52) | (t1 << 12)) & MASK26,
            (t1 >> 14) & MASK26,
            (t1 >> 40) & MASK26,
        ];
        let s = [
            u64::from_le_bytes(key[16..24].try_into().unwrap()),
            u64::from_le_bytes(key[24..32].try_into().unwrap()),
        ];
        Poly1305 {
            r,
            r2: mul_reduce(&r, &r),
            wide: None,
            s,
            h: [0; 5],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Radix-2⁴⁴ powers `r, r², r³, r⁴`, computed on first use.
    fn wide_powers(&mut self) -> [R44; 4] {
        *self.wide.get_or_insert_with(|| {
            // Re-derive clamped r in radix-2⁴⁴ from the 2²⁶ limbs.
            let lo = self.r[0] | (self.r[1] << 26) | (self.r[2] << 52);
            let hi = (self.r[2] >> 12) | (self.r[3] << 14) | (self.r[4] << 40);
            let p1 = R44::new([lo & MASK44, ((lo >> 44) | (hi << 20)) & MASK44, hi >> 24]);
            let p2 = R44::new(mul44_reduce(&p1.r, &p1));
            let p3 = R44::new(mul44_reduce(&p2.r, &p1));
            let p4 = R44::new(mul44_reduce(&p2.r, &p2));
            [p1, p2, p3, p4]
        })
    }

    /// Collapse the radix-2²⁶ accumulator to radix-2⁴⁴ limbs.
    fn h_to44(&self) -> [u64; 3] {
        // Full carry first so every limb is within its nominal width.
        let h = carry_reduce(self.h);
        let lo = h[0] | (h[1] << 26) | (h[2] << 52);
        let hi = (h[2] >> 12) | (h[3] << 14) | (h[4] << 40);
        let top = h[4] >> 24; // value bits ≥ 128
        [
            lo & MASK44,
            ((lo >> 44) | (hi << 20)) & MASK44,
            (hi >> 24) | (top << 40),
        ]
    }

    /// Store radix-2⁴⁴ limbs back into the radix-2²⁶ accumulator.
    fn h_from44(&mut self, h: [u64; 3]) {
        let [h0, mut h1, mut h2] = h;
        h2 += h1 >> 44;
        h1 &= MASK44;
        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let top = h2 >> 40; // value bits ≥ 128
        self.h = [
            lo & MASK26,
            (lo >> 26) & MASK26,
            ((lo >> 52) | (hi << 12)) & MASK26,
            (hi >> 14) & MASK26,
            (hi >> 40) | (top << 24),
        ];
    }

    fn block(&mut self, block: &[u8; 16], hibit: u64) {
        // h += m (with the 2^128 bit for full blocks), then h *= r.
        let m = limbs(block, hibit);
        for (hi, mi) in self.h.iter_mut().zip(m) {
            *hi += mi;
        }
        self.h = mul_reduce(&self.h, &self.r);
    }

    /// Absorb two full blocks with one reduction:
    /// `h = (h + m₁)·r² + m₂·r`.
    fn block2(&mut self, pair: &[u8; 32]) {
        let m1 = limbs(pair[..16].try_into().unwrap(), 1);
        let m2 = limbs(pair[16..].try_into().unwrap(), 1);
        let mut u = self.h;
        for (ui, mi) in u.iter_mut().zip(m1) {
            *ui += mi;
        }
        self.h = mul2_reduce(&u, &self.r2, &m2, &self.r);
    }

    /// Absorb message bytes. The bulk runs in radix-2⁴⁴, four blocks per
    /// carry chain: `h = (h + m₁)·r⁴ + m₂·r³ + m₃·r² + m₄·r` with all four
    /// triple products summed in u128 before one `carry44`; the 32- and
    /// 16-byte residues fall back to the radix-2²⁶ steps.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.block(&block, 1);
                self.buf_len = 0;
            } else {
                return; // buffer not full ⇒ data exhausted
            }
        }
        if data.len() >= 64 {
            let [p1, p2, p3, p4] = self.wide_powers();
            let mut h = self.h_to44();
            while data.len() >= 64 {
                let m1 = limbs44(data[..16].try_into().unwrap());
                let m2 = limbs44(data[16..32].try_into().unwrap());
                let m3 = limbs44(data[32..48].try_into().unwrap());
                let m4 = limbs44(data[48..64].try_into().unwrap());
                let a = [h[0] + m1[0], h[1] + m1[1], h[2] + m1[2]];
                let mut d = [0u128; 3];
                mul44_acc(&mut d, &a, &p4);
                mul44_acc(&mut d, &m2, &p3);
                mul44_acc(&mut d, &m3, &p2);
                mul44_acc(&mut d, &m4, &p1);
                h = carry44(d);
                data = &data[64..];
            }
            self.h_from44(h);
        }
        if data.len() >= 32 {
            self.block2(data[..32].try_into().unwrap());
            data = &data[32..];
        }
        if data.len() >= 16 {
            self.block(data[..16].try_into().unwrap(), 1);
            data = &data[16..];
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Produce the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zero-pad; no 2^128 bit.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.block(&block, 0);
        }
        // Full carry.
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.h;
        let mut c;
        c = h1 >> 26;
        h1 &= MASK26;
        h2 += c;
        c = h2 >> 26;
        h2 &= MASK26;
        h3 += c;
        c = h3 >> 26;
        h3 &= MASK26;
        h4 += c;
        c = h4 >> 26;
        h4 &= MASK26;
        h0 += c * 5;
        c = h0 >> 26;
        h0 &= MASK26;
        h1 += c;

        // Compute h + -p = h - (2^130 - 5): g = h + 5, then take g - 2^130
        // if it did not borrow.
        let mut g0 = h0 + 5;
        c = g0 >> 26;
        g0 &= MASK26;
        let mut g1 = h1 + c;
        c = g1 >> 26;
        g1 &= MASK26;
        let mut g2 = h2 + c;
        c = g2 >> 26;
        g2 &= MASK26;
        let mut g3 = h3 + c;
        c = g3 >> 26;
        g3 &= MASK26;
        let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

        // If g4's sign bit is clear, h >= p and we use g.
        let mask = (g4 >> 63).wrapping_sub(1); // all-ones if h >= p
        g0 = (h0 & !mask) | (g0 & mask);
        g1 = (h1 & !mask) | (g1 & mask);
        g2 = (h2 & !mask) | (g2 & mask);
        g3 = (h3 & !mask) | (g3 & mask);
        let g4 = (h4 & !mask) | (g4 & mask & ((1 << 26) - 1));

        // Collapse to 128 bits and add s (mod 2^128).
        let lo = g0 | (g1 << 26) | (g2 << 52);
        let hi = (g2 >> 12) | (g3 << 14) | (g4 << 40);
        let (lo, carry) = lo.overflowing_add(self.s[0]);
        let hi = hi.wrapping_add(self.s[1]).wrapping_add(carry as u64);

        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

/// One-shot Poly1305 MAC.
pub fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap())
            .collect()
    }

    /// The oracle: 16-byte slices, each absorbed by the one-block step.
    fn poly1305_by_blocks(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        for block in msg.chunks(16) {
            p.update(block);
        }
        p.finalize()
    }

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2.
        let key_bytes = unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let mut key = [0u8; 32];
        key.copy_from_slice(&key_bytes);
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x42u8; 32];
        let msg: Vec<u8> = (0..200u32).map(|i| (i % 256) as u8).collect();
        for split in [0, 1, 15, 16, 17, 31, 32, 100, 199, 200] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finalize(), poly1305(&key, &msg), "split {split}");
        }
    }

    #[test]
    fn multi_block_path_matches_scalar() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i * 13 + 1) as u8;
        }
        let msg: Vec<u8> = (0..300u32).map(|i| (i * 31 % 256) as u8).collect();
        for len in [
            0usize, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 96, 100, 127, 128, 129, 255, 256,
            300,
        ] {
            assert_eq!(
                poly1305(&key, &msg[..len]),
                poly1305_by_blocks(&key, &msg[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn mixed_update_paths_agree() {
        let key = [0x7fu8; 32];
        let msg: Vec<u8> = (0..192u8).collect();
        let mut mixed = Poly1305::new(&key);
        mixed.update(&msg[..50]);
        for slice in msg[50..90].chunks(16) {
            mixed.update(slice);
        }
        mixed.update(&msg[90..]);
        assert_eq!(mixed.finalize(), poly1305(&key, &msg));
    }

    #[test]
    fn different_keys_different_tags() {
        let k1 = [1u8; 32];
        let k2 = [2u8; 32];
        assert_ne!(poly1305(&k1, b"msg"), poly1305(&k2, b"msg"));
    }

    #[test]
    fn empty_message() {
        let key = [9u8; 32];
        // Empty message: tag == s (no blocks processed).
        let tag = poly1305(&key, b"");
        assert_eq!(&tag[..], &key[16..32]);
    }
}
