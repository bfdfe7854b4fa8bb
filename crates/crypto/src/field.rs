//! Arithmetic in GF(2^255 − 19) with radix-2^51 limbs and lazy reduction.
//!
//! Representation: five `u64` limbs, value = Σ limb[i]·2^(51·i) mod p.
//! Limbs are never fully reduced between operations; canonical reduction
//! happens only on encoding ([`Fe::to_bytes`]).
//!
//! # Limb bounds
//!
//! Every function below is written against two bounds:
//!
//! * **tight** — every limb < 2^52. Returned by `from_bytes`, `from_u64`,
//!   `sub`, `neg`, `mul`, `square`, `square_n`, `invert` and `pow_p58`.
//! * **loose** — every limb < 2^54. Accepted by `sub`, `mul`, `square`
//!   and `square_n`.
//!
//! `add` does not carry: its result is bounded by the sum of its operands'
//! bounds, so the sum of up to four tight values is still loose. That is
//! as deep as the point formulas in [`crate::edwards`] and the ladder in
//! [`crate::x25519`] go (`2·ZZ + TT2d` is the deepest: three tight terms)
//! before the next `mul`, `square` or `sub` brings the value back to
//! tight. `to_bytes` (and with it `ct_eq`, `is_zero`, `is_negative`)
//! accepts any limbs.
//!
//! With loose inputs a product column is at most 5·2^54·(19·2^54) <
//! 2^115 and fits `u128` (the `·19` fold happens in `u64` first:
//! 19·2^54 < 2^59); the top column carries no `·19`, so its carry-out is
//! < 2^60 and `19·carry` fits `u64`. `mul` and `square` `debug_assert!`
//! the loose bound on entry, and psf-crypto's dev profile keeps integer
//! overflow checks on, so the tier-1 run fails on any violation.

use std::sync::OnceLock;

/// A field element of GF(2^255 − 19).
#[derive(Debug, Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

const MASK51: u64 = (1 << 51) - 1;

/// 16·p limb by limb: added before a subtraction so no limb goes negative
/// for any loose subtrahend.
const P16: [u64; 5] = [
    16 * ((1 << 51) - 19),
    16 * ((1 << 51) - 1),
    16 * ((1 << 51) - 1),
    16 * ((1 << 51) - 1),
    16 * ((1 << 51) - 1),
];

fn m(a: u64, b: u64) -> u128 {
    (a as u128) * (b as u128)
}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Construct from a small u64 (< 2^51).
    pub fn from_u64(v: u64) -> Fe {
        debug_assert!(v <= MASK51);
        Fe([v, 0, 0, 0, 0])
    }

    /// Decode 32 little-endian bytes (the high bit of byte 31 is ignored,
    /// per convention).
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |off: usize| -> u64 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[off..off + 8]);
            u64::from_le_bytes(w)
        };
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Encode canonically to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        // After one carry pass every limb is < 2^51 + 19·2^13, so the
        // value is < 2p and one conditional subtraction of p finishes.
        let mut t = Fe::weak_reduce(self.0).0;
        // q = 1 iff value >= p: the carry out of (value + 19) at bit 255.
        let mut q = (t[0] + 19) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;

        t[0] += 19 * q;
        let mut carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] += carry;
        carry = t[1] >> 51;
        t[1] &= MASK51;
        t[2] += carry;
        carry = t[2] >> 51;
        t[2] &= MASK51;
        t[3] += carry;
        carry = t[3] >> 51;
        t[3] &= MASK51;
        t[4] += carry;
        t[4] &= MASK51; // drop bit 255 (the subtracted 2^255)

        let mut out = [0u8; 32];
        let lo = |x: u64| x.to_le_bytes();
        // Pack 5×51 bits into 32 bytes.
        let w0 = t[0] | (t[1] << 51);
        let w1 = (t[1] >> 13) | (t[2] << 38);
        let w2 = (t[2] >> 26) | (t[3] << 25);
        let w3 = (t[3] >> 39) | (t[4] << 12);
        out[0..8].copy_from_slice(&lo(w0));
        out[8..16].copy_from_slice(&lo(w1));
        out[16..24].copy_from_slice(&lo(w2));
        out[24..32].copy_from_slice(&lo(w3));
        out
    }

    /// One parallel carry pass: each limb keeps its low 51 bits and hands
    /// the rest to the next limb (the top limb's to limb 0, times 19).
    /// Input limbs < 2^57 give a tight result.
    fn weak_reduce(t: [u64; 5]) -> Fe {
        Fe([
            (t[0] & MASK51) + (t[4] >> 51) * 19,
            (t[1] & MASK51) + (t[0] >> 51),
            (t[2] & MASK51) + (t[1] >> 51),
            (t[3] & MASK51) + (t[2] >> 51),
            (t[4] & MASK51) + (t[3] >> 51),
        ])
    }

    fn is_loose(&self) -> bool {
        self.0.iter().all(|&l| l < 1 << 54)
    }

    /// Field addition, without carrying: the result's limb bound is the
    /// sum of the operands' (see the module notes).
    pub fn add(&self, rhs: &Fe) -> Fe {
        let (a, b) = (&self.0, &rhs.0);
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// Field subtraction: loose operands, tight result.
    pub fn sub(&self, rhs: &Fe) -> Fe {
        let (a, b) = (&self.0, &rhs.0);
        Fe::weak_reduce([
            (a[0] + P16[0]) - b[0],
            (a[1] + P16[1]) - b[1],
            (a[2] + P16[2]) - b[2],
            (a[3] + P16[3]) - b[3],
            (a[4] + P16[4]) - b[4],
        ])
    }

    /// Field negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication: loose operands, tight result.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        debug_assert!(self.is_loose() && rhs.is_loose());
        let (a, b) = (&self.0, &rhs.0);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let c0 = m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19);
        let c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19);
        let c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19);
        let c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19);
        let c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Field squaring: loose operand, tight result.
    pub fn square(&self) -> Fe {
        debug_assert!(self.is_loose());
        let a = &self.0;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        let c0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let c1 = m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19));
        let c2 = m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19));
        let c3 = m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2]));
        let c4 = m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3]));

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// `self^(2^n)`: `n` squarings in a row (`n ≥ 1`).
    pub fn square_n(&self, n: u32) -> Fe {
        let mut acc = self.square();
        for _ in 1..n {
            acc = acc.square();
        }
        acc
    }

    /// The single carry chain behind `mul` and `square`: five columns in,
    /// tight limbs out.
    fn carry_wide(c: [u128; 5]) -> Fe {
        let c1 = c[1] + (c[0] >> 51);
        let c2 = c[2] + (c1 >> 51);
        let c3 = c[3] + (c2 >> 51);
        let c4 = c[4] + (c3 >> 51);
        let low = |v: u128| (v as u64) & MASK51;
        let mut out = [low(c[0]), low(c1), low(c2), low(c3), low(c4)];
        // Fold the carry out of the top column back through ·19.
        out[0] += (c4 >> 51) as u64 * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK51;
        Fe(out)
    }

    /// `(self^(2^250 − 1), self^11)`: the shared head of the inversion and
    /// square-root addition chains (249 squarings, 10 multiplications).
    fn pow22501(&self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t1 = t0.square_n(2); // 8
        let t2 = self.mul(&t1); // 9
        let t3 = t0.mul(&t2); // 11
        let t4 = t3.square(); // 22
        let t5 = t2.mul(&t4); // 2^5 − 1
        let t6 = t5.square_n(5).mul(&t5); // 2^10 − 1
        let t7 = t6.square_n(10).mul(&t6); // 2^20 − 1
        let t8 = t7.square_n(20).mul(&t7); // 2^40 − 1
        let t9 = t8.square_n(10).mul(&t6); // 2^50 − 1
        let t10 = t9.square_n(50).mul(&t9); // 2^100 − 1
        let t11 = t10.square_n(100).mul(&t10); // 2^200 − 1
        let t12 = t11.square_n(50).mul(&t9); // 2^250 − 1
        (t12, t3)
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)`, p − 2 = 2^255 − 21
    /// = (2^250 − 1)·2^5 + 11. Returns zero for zero input.
    pub fn invert(&self) -> Fe {
        let (t250, t11) = self.pow22501();
        t250.square_n(5).mul(&t11)
    }

    /// `self^((p-5)/8)`, used in square-root extraction: (p − 5)/8 =
    /// 2^252 − 3 = (2^250 − 1)·2^2 + 1.
    pub fn pow_p58(&self) -> Fe {
        let (t250, _) = self.pow22501();
        t250.square_n(2).mul(self)
    }

    /// sqrt(-1) mod p = 2^((p-1)/4), (p − 1)/4 = 2^253 − 5 =
    /// (2^250 − 1)·2^3 + 3. Derived once, at first use.
    pub fn sqrt_m1() -> &'static Fe {
        static SQRT_M1: OnceLock<Fe> = OnceLock::new();
        SQRT_M1.get_or_init(|| {
            let (t250, _) = Fe::from_u64(2).pow22501();
            t250.square_n(3).mul(&Fe::from_u64(8))
        })
    }

    /// Compute `sqrt(u/v)` if it exists (ref10 algorithm). Returns
    /// `(was_square, root)`.
    pub fn sqrt_ratio(u: &Fe, v: &Fe) -> (bool, Fe) {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut r = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let check = v.mul(&r.square());
        let u_neg = u.neg();
        let correct = check.ct_eq(u);
        let flipped = check.ct_eq(&u_neg);
        if flipped {
            r = r.mul(Fe::sqrt_m1());
        }
        (correct || flipped, r)
    }

    /// Canonical equality.
    pub fn ct_eq(&self, other: &Fe) -> bool {
        crate::ct::ct_eq(&self.to_bytes(), &other.to_bytes())
    }

    /// True if the canonical encoding is zero.
    pub fn is_zero(&self) -> bool {
        self.ct_eq(&Fe::ZERO)
    }

    /// Sign bit: least-significant bit of the canonical encoding.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Conditional negation (variable-time on `flag`; flags here derive
    /// from public encodings).
    pub fn cneg(&self, flag: bool) -> Fe {
        if flag {
            self.neg()
        } else {
            *self
        }
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}
impl Eq for Fe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_plus_one() {
        let two = Fe::ONE.add(&Fe::ONE);
        assert_eq!(two, Fe::from_u64(2));
    }

    #[test]
    fn sub_wraps() {
        let a = Fe::from_u64(5);
        let b = Fe::from_u64(7);
        let d = a.sub(&b); // -2 mod p
        assert_eq!(d.add(&Fe::from_u64(2)), Fe::ZERO);
    }

    #[test]
    fn mul_matches_repeated_add() {
        let a = Fe::from_u64(123456789);
        let mut s = Fe::ZERO;
        for _ in 0..17 {
            s = s.add(&a);
        }
        assert_eq!(a.mul(&Fe::from_u64(17)), s);
    }

    #[test]
    fn invert_roundtrip() {
        let a = Fe::from_u64(0x1234_5678_9abc);
        let inv = a.invert();
        assert_eq!(a.mul(&inv), Fe::ONE);
    }

    #[test]
    fn invert_zero_is_zero() {
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
        // Derived once: later calls hand back the same constant.
        assert!(std::ptr::eq(i, Fe::sqrt_m1()));
    }

    #[test]
    fn sqrt_ratio_perfect_square() {
        let x = Fe::from_u64(42);
        let sq = x.square();
        let (ok, r) = Fe::sqrt_ratio(&sq, &Fe::ONE);
        assert!(ok);
        assert!(r == x || r == x.neg());
    }

    #[test]
    fn sqrt_ratio_non_square() {
        // 2 is a non-square mod p (p ≡ 5 mod 8).
        let (ok, _) = Fe::sqrt_ratio(&Fe::from_u64(2), &Fe::ONE);
        assert!(!ok);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut b = [0u8; 32];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i * 7 + 3) as u8;
        }
        b[31] &= 0x7f;
        let fe = Fe::from_bytes(&b);
        assert_eq!(fe.to_bytes(), b);
    }

    #[test]
    fn canonical_reduction_of_p_is_zero() {
        // p itself encodes to zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let fe = Fe::from_bytes(&p_bytes);
        assert_eq!(fe.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn p_plus_one_is_one() {
        let mut b = [0xffu8; 32];
        b[0] = 0xee; // p + 1
        b[31] = 0x7f;
        let fe = Fe::from_bytes(&b);
        assert_eq!(fe, Fe::ONE);
    }

    #[test]
    fn distributivity() {
        let a = Fe::from_u64(111111);
        let b = Fe::from_u64(222222);
        let c = Fe::from_u64(333333);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}

/// The field against an independent oracle: [`crate::bigint`] integers
/// reduced mod p by long division.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::bigint::U256;
    use proptest::prelude::*;

    const TIGHT_MAX: u64 = (1 << 52) - 1;
    const LOOSE_MAX: u64 = (1 << 54) - 1;

    fn small(v: u64) -> U256 {
        U256([v, 0, 0, 0])
    }

    /// p = 2^255 − 19.
    fn p() -> U256 {
        U256([0, 0, 0, 1 << 63]).overflowing_sub(small(19)).0
    }

    fn addm(a: U256, b: U256) -> U256 {
        let sum = a.overflowing_add(b).0; // a, b < p < 2^255
        if sum.cmp_val(&p()) == core::cmp::Ordering::Less {
            sum
        } else {
            sum.overflowing_sub(p()).0
        }
    }

    fn subm(a: U256, b: U256) -> U256 {
        addm(a, p().overflowing_sub(b).0)
    }

    fn mulm(a: U256, b: U256) -> U256 {
        a.widening_mul(b).rem(&p())
    }

    fn powm(base: U256, exp: U256) -> U256 {
        let mut acc = small(1);
        for i in (0..256).rev() {
            acc = mulm(acc, acc);
            if (exp.0[i / 64] >> (i % 64)) & 1 == 1 {
                acc = mulm(acc, base);
            }
        }
        acc
    }

    /// The integer a limb vector stands for, mod p.
    fn value(fe: &Fe) -> U256 {
        let mut acc = U256::ZERO;
        for (i, &limb) in fe.0.iter().enumerate() {
            let shift = 51 * i;
            let mut weight = U256::ZERO;
            weight.0[shift / 64] = 1 << (shift % 64);
            acc = addm(acc, mulm(small(limb), weight));
        }
        acc
    }

    fn is_tight(fe: &Fe) -> bool {
        fe.0.iter().all(|&l| l <= TIGHT_MAX)
    }

    /// Limbs up to `max`, leaning on the edges: zero, the maximum, and
    /// the neighbourhood of 2^51 where p's own limbs sit.
    fn limb(max: u64) -> impl Strategy<Value = u64> {
        prop_oneof![
            0..max + 1,
            0..max + 1,
            Just(0u64),
            Just(max),
            (1u64 << 51) - 20..(1 << 51) + 20,
        ]
    }

    fn fe(max: u64) -> impl Strategy<Value = Fe> {
        (limb(max), limb(max), limb(max), limb(max), limb(max))
            .prop_map(|(a, b, c, d, e)| Fe([a, b, c, d, e]))
    }

    #[test]
    fn every_limb_at_the_loose_maximum() {
        let top = Fe([LOOSE_MAX; 5]);
        let v = value(&top);
        assert_eq!(top.to_bytes(), v.to_le_bytes());
        assert_eq!(top.mul(&top).to_bytes(), mulm(v, v).to_le_bytes());
        assert_eq!(top.square().to_bytes(), mulm(v, v).to_le_bytes());
        assert_eq!(
            Fe::ZERO.sub(&top).to_bytes(),
            subm(small(0), v).to_le_bytes()
        );
        assert_eq!(top.sub(&top).to_bytes(), [0u8; 32]);
        assert!(is_tight(&top.mul(&top)) && is_tight(&top.square()) && is_tight(&top.sub(&top)));
    }

    /// The dev profile is the run that catches a broken limb bound.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn mul_refuses_a_limb_past_loose() {
        let _ = Fe([1 << 54, 0, 0, 0, 0]).mul(&Fe::ONE);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn loose_operands_match_the_oracle(a in fe(LOOSE_MAX), b in fe(LOOSE_MAX)) {
            let (va, vb) = (value(&a), value(&b));
            prop_assert_eq!(a.to_bytes(), va.to_le_bytes());
            prop_assert_eq!(a.add(&b).to_bytes(), addm(va, vb).to_le_bytes());
            let (diff, prod, sq) = (a.sub(&b), a.mul(&b), a.square());
            prop_assert_eq!(diff.to_bytes(), subm(va, vb).to_le_bytes());
            prop_assert_eq!(prod.to_bytes(), mulm(va, vb).to_le_bytes());
            prop_assert_eq!(sq.to_bytes(), mulm(va, va).to_le_bytes());
            prop_assert_eq!(a.square_n(3).to_bytes(), powm(va, small(8)).to_le_bytes());
            prop_assert_eq!(a.neg().to_bytes(), subm(small(0), va).to_le_bytes());
            prop_assert!(is_tight(&diff) && is_tight(&prod) && is_tight(&sq));
        }

        /// `add∘add∘mul` and `sub∘sub∘mul` at the depth the point formulas
        /// reach: four tight terms a side, no carry in between.
        #[test]
        fn chains_of_tight_terms_match_the_oracle(
            a in fe(TIGHT_MAX), b in fe(TIGHT_MAX), c in fe(TIGHT_MAX), d in fe(TIGHT_MAX),
        ) {
            let (va, vb, vc, vd) = (value(&a), value(&b), value(&c), value(&d));
            let sum = a.add(&b).add(&c).add(&d);
            let vsum = addm(addm(va, vb), addm(vc, vd));
            prop_assert_eq!(sum.mul(&sum).to_bytes(), mulm(vsum, vsum).to_le_bytes());
            prop_assert_eq!(sum.square().to_bytes(), mulm(vsum, vsum).to_le_bytes());
            let diff = a.sub(&b).sub(&c);
            let vdiff = subm(subm(va, vb), vc);
            prop_assert_eq!(diff.mul(&sum).to_bytes(), mulm(vdiff, vsum).to_le_bytes());
            prop_assert_eq!(sum.sub(&diff).mul(&d).to_bytes(), mulm(subm(vsum, vdiff), vd).to_le_bytes());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))] // the oracle's powm is ms-scale

        #[test]
        fn addition_chains_match_the_oracle(a in fe(LOOSE_MAX)) {
            let va = value(&a);
            let p_minus_2 = p().overflowing_sub(small(2)).0;
            let p58 = U256([0, 0, 0, 1 << 60]).overflowing_sub(small(3)).0; // 2^252 − 3
            let (inv, root) = (a.invert(), a.pow_p58());
            prop_assert_eq!(inv.to_bytes(), powm(va, p_minus_2).to_le_bytes());
            prop_assert_eq!(root.to_bytes(), powm(va, p58).to_le_bytes());
            prop_assert!(is_tight(&inv) && is_tight(&root));
        }
    }
}
