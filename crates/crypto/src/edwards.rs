//! The twisted Edwards curve `-x² + y² = 1 + d·x²·y²` over GF(2^255 − 19)
//! used by Ed25519, in extended homogeneous coordinates (X : Y : Z : T)
//! with `x = X/Z`, `y = Y/Z`, `x·y = T/Z`.
//!
//! Extended points are the public form. Inside a scalar multiplication a
//! run of doublings stays projective (no `T`: 4 squarings + 3
//! multiplications a doubling), additions take their second operand in
//! cached form `(Y+X, Y−X, 2d·T[, Z])` so none multiplies by `2d`, and a
//! step's result is "completed" into whichever form the next step needs.
//! Everything here is variable-time (see the crate security note).
//!
//! The curve constant `d = −121665/121666` and the standard base point
//! (`y = 4/5`, sign(x) = 0) are derived at runtime from first principles,
//! avoiding transcription errors; structural tests then pin them down
//! (`ℓ·B = 𝒪`, base point is on the curve, encodings round-trip).

use crate::field::Fe;
use crate::scalar::Scalar;
use crate::CryptoError;
use std::sync::OnceLock;

/// A point on the Ed25519 curve, extended coordinates. Every coordinate
/// is tight (see [`crate::field`]'s limb bounds).
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    pub(crate) x: Fe,
    pub(crate) y: Fe,
    pub(crate) z: Fe,
    pub(crate) t: Fe,
}

/// `(X : Y : Z)` without `T`: the form a run of doublings stays in.
#[derive(Clone, Copy)]
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The result of an addition or doubling before its final
/// multiplications: `x = X/Z`, `y = Y/T`. `x` and `t` are tight, `y` and
/// `z` loose.
#[derive(Clone, Copy)]
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point with `Z = 1` prepared as an addend: `(y+x, y−x, 2d·x·y)`,
/// so adding it costs no multiplication by `2d` (nor one by `Z`).
#[derive(Clone, Copy)]
struct AffineCachedPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
}

/// The same for any `Z`: `(Y+X, Y−X, 2d·T)` and `Z` beside them.
#[derive(Clone, Copy)]
struct CachedPoint {
    scaled: AffineCachedPoint,
    z: Fe,
}

/// The curve constant d = -121665/121666 mod p.
pub fn d() -> &'static Fe {
    static D: OnceLock<Fe> = OnceLock::new();
    D.get_or_init(|| {
        Fe::from_u64(121665)
            .neg()
            .mul(&Fe::from_u64(121666).invert())
    })
}

/// 2·d, folded into cached addends.
fn d2() -> &'static Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    D2.get_or_init(|| d().add(d()))
}

/// The standard base point B (y = 4/5, even x).
pub fn basepoint() -> &'static EdwardsPoint {
    static B: OnceLock<EdwardsPoint> = OnceLock::new();
    B.get_or_init(|| {
        let y = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
        let mut enc = y.to_bytes();
        enc[31] &= 0x7f; // sign(x) = 0
        EdwardsPoint::decompress(&enc).expect("base point must decompress")
    })
}

/// Precomputed fixed-base table: `table[w][d-1] = d · 16^w · B` for 64
/// 4-bit windows and digits d ∈ 1..=15, as cached addends: 64 × 15 ×
/// 160 B = 150 KiB on the heap, built lazily. Turns the basepoint
/// multiplication of signing and key generation into 64 table additions
/// (the standard comb optimization).
fn basepoint_table() -> &'static Vec<[CachedPoint; 15]> {
    static T: OnceLock<Vec<[CachedPoint; 15]>> = OnceLock::new();
    T.get_or_init(|| {
        let mut table = Vec::with_capacity(64);
        let mut window_base = *basepoint(); // 16^w · B
        for _ in 0..64 {
            let step = window_base.to_cached();
            let mut row = [step; 15];
            let mut acc = window_base; // d · 16^w · B
            for slot in row.iter_mut() {
                *slot = acc.to_cached();
                acc = acc.add_cached(&step).to_extended();
            }
            table.push(row);
            window_base = acc; // 16 · 16^w · B = 16^(w+1) · B
        }
        table
    })
}

/// The odd multiples `B, 3B, …, 127B` as affine cached addends: the
/// basepoint half of [`EdwardsPoint::double_scalar_mul_basepoint`]'s
/// width-8 NAF. 64 × 120 B = 7.5 KiB, built lazily.
fn basepoint_odd_multiples() -> &'static [AffineCachedPoint; 64] {
    static T: OnceLock<[AffineCachedPoint; 64]> = OnceLock::new();
    T.get_or_init(|| {
        basepoint()
            .odd_multiples::<64>()
            .map(|p| p.to_affine_cached())
    })
}

/// Fixed-base scalar multiplication `s · B` via the precomputed window
/// table. Variable-time in the scalar's digits (table lookups are
/// indexed by secret data) — acceptable for this research reproduction;
/// see the crate-level security note.
pub fn mul_basepoint(s: &Scalar) -> EdwardsPoint {
    let bytes = s.to_bytes();
    let table = basepoint_table();
    let mut acc = EdwardsPoint::identity();
    for (i, byte) in bytes.iter().enumerate() {
        let lo = (byte & 0x0f) as usize;
        let hi = (byte >> 4) as usize;
        if lo != 0 {
            acc = acc.add_cached(&table[2 * i][lo - 1]).to_extended();
        }
        if hi != 0 {
            acc = acc.add_cached(&table[2 * i + 1][hi - 1]).to_extended();
        }
    }
    acc
}

/// Width-`w` non-adjacent form of a scalar below 2^255: `Σ naf[i]·2^i`
/// is the scalar, every non-zero digit is odd with `|digit| < 2^(w−1)`,
/// and any `w` consecutive digits hold at most one non-zero.
fn non_adjacent_form(scalar: &[u8; 32], w: usize) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w));
    let mut x = [0u64; 5]; // one limb of headroom for the straddling read
    for (limb, chunk) in x.iter_mut().zip(scalar.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    let width = 1u64 << w;
    let mut naf = [0i8; 256];
    let mut pos = 0;
    let mut carry = 0;
    while pos < 256 {
        let (limb, bit) = (pos / 64, pos % 64);
        let bits = if bit <= 64 - w {
            x[limb] >> bit
        } else {
            (x[limb] >> bit) | (x[limb + 1] << (64 - bit))
        };
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            // Also covers window == width: the carry moves up a bit.
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window as i16 - width as i16) as i8;
        }
        pos += w;
    }
    debug_assert_eq!(carry, 0, "scalar must leave headroom below 2^256");
    naf
}

impl ProjectivePoint {
    /// Doubling (dbl-2008-hwcd with a = −1, `T` not needed): 4 squarings.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(&zz);
        let x_plus_y_sq = self.x.add(&self.y).square();
        let yy_plus_xx = yy.add(&xx);
        let yy_minus_xx = yy.sub(&xx);
        CompletedPoint {
            x: x_plus_y_sq.sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(&yy_minus_xx),
        }
    }
}

impl CompletedPoint {
    /// The identity, as the starting value of an accumulation.
    const IDENTITY: CompletedPoint = CompletedPoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ONE,
    };

    /// Finish without `T` (3 multiplications): enough when the next step
    /// is a doubling.
    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
        }
    }

    /// Finish with `T` (4 multiplications): needed before an addition.
    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

impl AffineCachedPoint {
    fn neg(&self) -> AffineCachedPoint {
        AffineCachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            t2d: self.t2d.neg(),
        }
    }
}

impl CachedPoint {
    fn neg(&self) -> CachedPoint {
        CachedPoint {
            scaled: self.scaled.neg(),
            z: self.z,
        }
    }
}

impl EdwardsPoint {
    /// The identity element (neutral point).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        // x/z == 0 and y/z == 1  ⟺  x == 0 and y == z.
        self.x.is_zero() && self.y.ct_eq(&self.z)
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            scaled: AffineCachedPoint {
                y_plus_x: self.y.add(&self.x),
                y_minus_x: self.y.sub(&self.x),
                t2d: self.t.mul(d2()),
            },
            z: self.z,
        }
    }

    fn to_affine_cached(self) -> AffineCachedPoint {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        AffineCachedPoint {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            t2d: x.mul(&y).mul(d2()),
        }
    }

    /// The unified addition add-2008-hwcd-3 (a = −1) against a cached
    /// addend whose `Z` times ours is `zz`.
    fn add_scaled(&self, rhs: &AffineCachedPoint, zz: &Fe) -> CompletedPoint {
        let pp = self.y.add(&self.x).mul(&rhs.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&rhs.y_minus_x);
        let tt2d = self.t.mul(&rhs.t2d);
        let zz2 = zz.add(zz);
        CompletedPoint {
            x: pp.sub(&mm),
            y: pp.add(&mm),
            z: zz2.add(&tt2d),
            t: zz2.sub(&tt2d),
        }
    }

    fn add_cached(&self, rhs: &CachedPoint) -> CompletedPoint {
        self.add_scaled(&rhs.scaled, &self.z.mul(&rhs.z))
    }

    fn add_affine_cached(&self, rhs: &AffineCachedPoint) -> CompletedPoint {
        self.add_scaled(rhs, &self.z)
    }

    /// `[P, 3P, …, (2N−1)P]`.
    fn odd_multiples<const N: usize>(&self) -> [EdwardsPoint; N] {
        let twice = self.double().to_cached();
        let mut out = [*self; N];
        for i in 1..N {
            out[i] = out[i - 1].add_cached(&twice).to_extended();
        }
        out
    }

    /// Point addition.
    pub fn add(&self, rhs: &EdwardsPoint) -> EdwardsPoint {
        self.add_cached(&rhs.to_cached()).to_extended()
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// Point negation.
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication by a canonical scalar. Variable-time in the
    /// scalar (see the crate security note).
    pub fn mul_scalar(&self, s: &Scalar) -> EdwardsPoint {
        EdwardsPoint::double_scalar_mul_basepoint(s, self, &Scalar::ZERO)
    }

    /// `a·A + b·B` for the base point `B`, in one interleaved (Straus)
    /// pass over both scalars' signed-window non-adjacent forms: width 5
    /// over the eight odd multiples `A … 15A` built here, width 8 over
    /// the static `basepoint_odd_multiples`. One doubling per bit (the
    /// accumulator stays projective between doublings) and one addition
    /// per non-zero digit — about 253 doublings and 253/6 + 253/9 ≈ 70
    /// additions. Variable-time in both scalars: this is the signature
    /// verification routine and sees public data only.
    pub fn double_scalar_mul_basepoint(a: &Scalar, pa: &EdwardsPoint, b: &Scalar) -> EdwardsPoint {
        let a_naf = non_adjacent_form(&a.to_bytes(), 5);
        let b_naf = non_adjacent_form(&b.to_bytes(), 8);
        let table_a = pa.odd_multiples::<8>().map(|p| p.to_cached());
        let table_b = basepoint_odd_multiples();

        let digits = (0..256)
            .rev()
            .find(|&i| a_naf[i] != 0 || b_naf[i] != 0)
            .map_or(0, |top| top + 1);
        // A non-zero digit d is odd: ±d selects multiple (|d|−1)/2 = |d|/2.
        let index = |d: i8| usize::from(d.unsigned_abs() / 2);
        let mut acc = CompletedPoint::IDENTITY;
        for i in (0..digits).rev() {
            acc = acc.to_projective().double();
            match a_naf[i] {
                0 => {}
                d if d > 0 => acc = acc.to_extended().add_cached(&table_a[index(d)]),
                d => acc = acc.to_extended().add_cached(&table_a[index(d)].neg()),
            }
            match b_naf[i] {
                0 => {}
                d if d > 0 => acc = acc.to_extended().add_affine_cached(&table_b[index(d)]),
                d => {
                    acc = acc
                        .to_extended()
                        .add_affine_cached(&table_b[index(d)].neg())
                }
            }
        }
        acc.to_extended()
    }

    /// Double-and-add over all 256 bits with uniform structure: the
    /// original ladder, kept as the differential oracle for the windowed
    /// routines above.
    #[cfg(test)]
    pub(crate) fn mul_scalar_uniform(&self, s: &Scalar) -> EdwardsPoint {
        let bytes = s.to_bytes();
        let mut acc = EdwardsPoint::identity();
        for byte in bytes.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.double();
                let added = acc.add(self);
                if (byte >> bit) & 1 == 1 {
                    acc = added;
                }
            }
        }
        acc
    }

    /// Compress to the 32-byte encoding (y with the sign of x in the top
    /// bit).
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress a 32-byte encoding; rejects encodings that are not on the
    /// curve or are non-canonical (x = 0 with sign bit set).
    pub fn decompress(bytes: &[u8; 32]) -> Result<EdwardsPoint, CryptoError> {
        let sign = bytes[31] >> 7 == 1;
        let mut ybytes = *bytes;
        ybytes[31] &= 0x7f;
        let y = Fe::from_bytes(&ybytes);
        // Reject non-canonical y (y >= p re-encodes differently).
        if y.to_bytes() != ybytes {
            return Err(CryptoError::InvalidPoint);
        }
        // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(&Fe::ONE);
        let v = yy.mul(d()).add(&Fe::ONE);
        let (is_square, mut x) = Fe::sqrt_ratio(&u, &v);
        if !is_square {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_zero() && sign {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Ok(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    /// Verify the curve equation for this (projective) point. Used in tests
    /// and debug assertions.
    pub fn is_on_curve(&self) -> bool {
        // -X²Z² + Y²Z² = Z⁴ + d·X²Y²  and  T·Z = X·Y
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let lhs = yy.sub(&xx).mul(&zz);
        let rhs = zz.square().add(&d().mul(&xx).mul(&yy));
        let t_ok = self.t.mul(&self.z).ct_eq(&self.x.mul(&self.y));
        lhs.ct_eq(&rhs) && t_ok
    }

    /// Equality in the group (cross-multiplied affine comparison).
    pub fn eq_point(&self, other: &EdwardsPoint) -> bool {
        // X1/Z1 == X2/Z2 and Y1/Z1 == Y2/Z2
        self.x.mul(&other.z).ct_eq(&other.x.mul(&self.z))
            && self.y.mul(&other.z).ct_eq(&other.y.mul(&self.z))
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        self.eq_point(other)
    }
}
impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn basepoint_on_curve() {
        assert!(basepoint().is_on_curve());
    }

    #[test]
    fn basepoint_roundtrips() {
        let enc = basepoint().compress();
        // Known canonical encoding of the Ed25519 base point.
        assert_eq!(
            enc.iter().map(|b| format!("{b:02x}")).collect::<String>(),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
        let back = EdwardsPoint::decompress(&enc).unwrap();
        assert!(back.eq_point(basepoint()));
    }

    #[test]
    fn identity_laws() {
        let id = EdwardsPoint::identity();
        assert!(id.is_on_curve());
        let b = basepoint();
        assert!(b.add(&id).eq_point(b));
        assert!(id.add(b).eq_point(b));
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn double_matches_add() {
        let b = basepoint();
        assert!(b.double().eq_point(&b.add(b)));
        let b4 = b.double().double();
        assert!(b4.eq_point(&b.add(b).add(b).add(b)));
    }

    #[test]
    fn order_l_annihilates_base() {
        let l_minus_1 = Scalar::from_u64(0).sub(&Scalar::from_u64(1)); // ℓ−1 mod ℓ
        let p = basepoint().mul_scalar(&l_minus_1);
        // (ℓ−1)·B = −B, so adding B gives the identity.
        assert!(p.add(basepoint()).is_identity());
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = basepoint();
        let three = b.mul_scalar(&Scalar::from_u64(3));
        assert!(three.eq_point(&b.add(b).add(b)));
        let zero = b.mul_scalar(&Scalar::from_u64(0));
        assert!(zero.is_identity());
        let one = b.mul_scalar(&Scalar::from_u64(1));
        assert!(one.eq_point(b));
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = basepoint();
        let a = Scalar::from_u64(1234567);
        let c = Scalar::from_u64(7654321);
        let lhs = b.mul_scalar(&a.add(&c));
        let rhs = b.mul_scalar(&a).add(&b.mul_scalar(&c));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn decompress_rejects_garbage() {
        // y = 7 is not on the curve (x² would be non-square) — check a few.
        let mut rejected = 0;
        for y in [7u64, 11, 13] {
            let enc = Fe::from_u64(y).to_bytes();
            if EdwardsPoint::decompress(&enc).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "at least one small y must be off-curve");
    }

    #[test]
    fn decompress_rejects_noncanonical_y() {
        // Encode p + 3 (same as y = 3 but non-canonical).
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xf0; // p = ...ed; p + 3 = ...f0
        bytes[31] = 0x7f;
        assert_eq!(
            EdwardsPoint::decompress(&bytes),
            Err(CryptoError::InvalidPoint)
        );
    }

    #[test]
    fn compress_decompress_random_multiples() {
        let b = basepoint();
        for k in [2u64, 3, 5, 99, 1_000_003] {
            let p = b.mul_scalar(&Scalar::from_u64(k));
            assert!(p.is_on_curve());
            let enc = p.compress();
            let q = EdwardsPoint::decompress(&enc).unwrap();
            assert!(p.eq_point(&q));
        }
    }
}
#[cfg(test)]
mod table_tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn table_mul_matches_ladder() {
        for k in [0u64, 1, 2, 15, 16, 255, 1 << 20, u64::MAX] {
            let s = Scalar::from_u64(k);
            assert!(
                mul_basepoint(&s).eq_point(&basepoint().mul_scalar(&s)),
                "k = {k}"
            );
        }
        // Full-width scalars too.
        for seed in 0u8..8 {
            let s = Scalar::from_bytes_mod_order(&[seed.wrapping_mul(37); 32]);
            assert!(mul_basepoint(&s).eq_point(&basepoint().mul_scalar(&s)));
        }
    }

    #[test]
    fn table_mul_zero_is_identity() {
        assert!(mul_basepoint(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn table_points_are_on_curve() {
        let s = Scalar::from_u64(0xdead_beef);
        assert!(mul_basepoint(&s).is_on_curve());
    }
}
#[cfg(test)]
mod window_tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn windowed_matches_uniform_ladder() {
        let p = basepoint().mul_scalar(&Scalar::from_u64(987654321));
        for seed in 0u8..6 {
            let s = Scalar::from_bytes_mod_order(&[seed.wrapping_mul(41).wrapping_add(3); 32]);
            assert!(p.mul_scalar(&s).eq_point(&p.mul_scalar_uniform(&s)));
        }
        assert!(p.mul_scalar(&Scalar::ZERO).is_identity());
        assert!(p.mul_scalar(&Scalar::from_u64(1)).eq_point(&p));
    }
}

/// The interleaved routine, its digit recoding and the point formulas
/// against oracles that share none of their structure: the bit-at-a-time
/// uniform ladder, the comb table, and the affine addition law evaluated
/// with field operations alone.
#[cfg(test)]
mod interleaved_tests {
    use super::*;
    use crate::bigint::U256;
    use proptest::prelude::*;

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        prop::array::uniform32(any::<u8>()).prop_map(|b| Scalar::from_bytes_mod_order(&b))
    }

    /// Any point of the curve, torsion component and all (seven in eight
    /// decodable encodings are outside the prime-order subgroup).
    fn arb_point() -> impl Strategy<Value = Option<EdwardsPoint>> {
        prop::array::uniform32(any::<u8>()).prop_map(|b| EdwardsPoint::decompress(&b).ok())
    }

    fn l_minus_1() -> Scalar {
        Scalar::ZERO.sub(&Scalar::from_u64(1))
    }

    fn power_of_two(bit: usize) -> Scalar {
        let mut bytes = [0u8; 32];
        bytes[bit / 8] = 1 << (bit % 8);
        Scalar::from_canonical_bytes(&bytes).expect("2^bit < ℓ for bit ≤ 252")
    }

    fn oracle(a: &Scalar, pa: &EdwardsPoint, b: &Scalar) -> EdwardsPoint {
        pa.mul_scalar_uniform(a).add(&mul_basepoint(b))
    }

    /// Undo the recoding digit by digit from the low end; exact over the
    /// integers, not merely mod ℓ.
    fn check_naf(s: &Scalar, w: usize) {
        let naf = non_adjacent_form(&s.to_bytes(), w);
        let mut rest = U256::from_le_bytes(&s.to_bytes());
        let mut since_nonzero = w;
        for &digit in naf.iter() {
            assert_eq!(rest.0[0] & 1 == 1, digit != 0);
            if digit != 0 {
                assert!(digit & 1 == 1 && (digit.unsigned_abs() as u64) < 1 << (w - 1));
                assert!(since_nonzero >= w, "non-zero digits closer than {w}");
                since_nonzero = 0;
                let magnitude = U256([digit.unsigned_abs() as u64, 0, 0, 0]);
                let (next, wrapped) = if digit > 0 {
                    rest.overflowing_sub(magnitude)
                } else {
                    rest.overflowing_add(magnitude)
                };
                assert!(!wrapped);
                rest = next;
            }
            since_nonzero += 1;
            for i in 0..4 {
                let above = if i < 3 { rest.0[i + 1] << 63 } else { 0 };
                rest.0[i] = (rest.0[i] >> 1) | above;
            }
        }
        assert!(rest.is_zero());
    }

    #[test]
    fn recoding_is_exact_at_the_edges() {
        let mut edges = vec![Scalar::ZERO, Scalar::from_u64(1), l_minus_1()];
        edges.extend((0..=252).map(power_of_two));
        edges.extend((1..=252).map(|bit| power_of_two(bit).sub(&Scalar::from_u64(1))));
        for s in &edges {
            for w in 2..=8 {
                check_naf(s, w);
            }
        }
    }

    #[test]
    fn interleaved_matches_oracle_at_the_edges() {
        let pa = basepoint().mul_scalar_uniform(&Scalar::from_u64(987654321));
        let mut edges = vec![Scalar::ZERO, Scalar::from_u64(1), l_minus_1()];
        edges.extend([0, 1, 4, 5, 7, 8, 63, 64, 127, 128, 200, 251, 252].map(power_of_two));
        for a in &edges {
            for b in &edges {
                let got = EdwardsPoint::double_scalar_mul_basepoint(a, &pa, b);
                assert!(got.is_on_curve());
                assert!(got.eq_point(&oracle(a, &pa, b)));
            }
        }
        assert!(
            EdwardsPoint::double_scalar_mul_basepoint(&Scalar::ZERO, &pa, &Scalar::ZERO)
                .is_identity()
        );
    }

    #[test]
    fn basepoint_odd_multiples_are_the_odd_multiples() {
        let table = basepoint_odd_multiples();
        assert!(core::mem::size_of_val(table) <= 8 << 10);
        for (i, entry) in table.iter().enumerate() {
            let want = basepoint().mul_scalar_uniform(&Scalar::from_u64(2 * i as u64 + 1));
            let got = EdwardsPoint::identity()
                .add_affine_cached(entry)
                .to_extended();
            assert!(got.eq_point(&want), "entry {i}");
            let back = got.add_affine_cached(&entry.neg()).to_extended();
            assert!(back.is_identity(), "entry {i} negated");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn recoding_is_exact(s in arb_scalar(), w in 2usize..9) {
            check_naf(&s, w);
        }

        #[test]
        fn interleaved_matches_oracle(a in arb_scalar(), b in arb_scalar(), pa in arb_point()) {
            prop_assume!(pa.is_some());
            let pa = pa.unwrap();
            let got = EdwardsPoint::double_scalar_mul_basepoint(&a, &pa, &b);
            prop_assert!(got.is_on_curve());
            prop_assert!(got.eq_point(&oracle(&a, &pa, &b)));
            prop_assert!(pa.mul_scalar(&a).eq_point(&pa.mul_scalar_uniform(&a)));
        }

        /// `add`, `double` and `neg` against the affine law
        /// x₃ = (x₁y₂ + y₁x₂)/(1 + d·x₁x₂y₁y₂), y₃ = (y₁y₂ + x₁x₂)/(1 − d·x₁x₂y₁y₂).
        #[test]
        fn point_formulas_match_the_affine_law(
            p in arb_point(), q in arb_point(), k in arb_scalar(),
        ) {
            prop_assume!(p.is_some() && q.is_some());
            // Move off Z = 1 so the projective paths are exercised.
            let p = p.unwrap().add(&mul_basepoint(&k));
            let q = q.unwrap();
            let affine = |pt: &EdwardsPoint| {
                let zinv = pt.z.invert();
                (pt.x.mul(&zinv), pt.y.mul(&zinv))
            };
            let law = |(x1, y1): (Fe, Fe), (x2, y2): (Fe, Fe)| {
                let cross = d().mul(&x1.mul(&x2)).mul(&y1.mul(&y2));
                let x3 = x1.mul(&y2).add(&y1.mul(&x2)).mul(&Fe::ONE.add(&cross).invert());
                let y3 = y1.mul(&y2).add(&x1.mul(&x2)).mul(&Fe::ONE.sub(&cross).invert());
                (x3, y3)
            };
            for (got, want) in [
                (p.add(&q), law(affine(&p), affine(&q))),
                (q.add(&p), law(affine(&p), affine(&q))),
                (p.double(), law(affine(&p), affine(&p))),
                (q.double(), law(affine(&q), affine(&q))),
            ] {
                prop_assert!(got.is_on_curve());
                prop_assert!(affine(&got) == want);
            }
            prop_assert!(p.add(&p.neg()).is_identity());
        }
    }
}
