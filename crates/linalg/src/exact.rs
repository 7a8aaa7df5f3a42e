//! Exact (error-free) summation of `f64` values.
//!
//! IEEE-754 addition is not associative, so a two-level aggregation tree
//! that folds per-shard partial sums cannot, in general, reproduce the
//! flat sequential fold bit-for-bit. The sharded aggregation path (PR 10)
//! demands exactly that: the root must fold regional `PartialSum` frames
//! into the *same bits* the single-server loop produces, for any shard
//! count and any partition of the devices.
//!
//! [`ExactSum`] resolves the tension by accumulating into a fixed-point
//! superaccumulator wide enough to hold any finite `f64` sum exactly: 68
//! little-endian limbs of 32 payload bits each, spanning bit positions
//! `2^-1074` (the smallest subnormal ULP) through past `2^1023` (the
//! largest finite exponent), with headroom for billions of addends before
//! any carry propagation is even required. Because limb addition is exact
//! integer arithmetic, accumulation is **associative and commutative**:
//! any grouping of the same addends — one flat loop, or per-shard partials
//! [`merge`](ExactSum::merge)d at a root — yields the identical internal
//! state, and [`value`](ExactSum::value) renders it to the correctly
//! rounded (round-to-nearest-even) `f64` deterministically.
//!
//! Non-finite inputs degrade to order-independent flags (any NaN, or both
//! infinity signs, renders NaN; a single infinity sign renders that
//! infinity), mirroring the IEEE fold result without depending on
//! encounter order. Zeros of either sign are ignored; an empty or all-zero
//! sum renders `+0.0`.
//!
//! [`ExactVecSum`] lifts the scalar accumulator to per-component vector
//! sums — the shape the consensus folds (`Σ(w_t - v_t + u_t)`, refinement
//! means, residual accumulations) actually need — and provides the
//! canonical sparse encoding carried by `PartialSum` wire frames.

use crate::error::LinalgError;
use crate::vector::Vector;

/// Number of 32-bit limbs: 66 cover payload positions 0..=2111, plus two
/// for mantissa spill across a limb boundary and carry headroom at the top.
pub const NUM_LIMBS: usize = 68;

/// Payload bits per limb. Limbs are `i64` so each can absorb ~2^31
/// un-normalized 32-bit contributions before overflow; [`NORM_EVERY`]
/// renormalizes far earlier.
const LIMB_BITS: u32 = 32;

/// Renormalize after this many raw additions, keeping every limb's
/// magnitude far below `i64::MAX` (worst case `2^32 · 2^20 = 2^52`).
const NORM_EVERY: u64 = 1 << 20;

const LIMB_MASK: u128 = (1 << LIMB_BITS) - 1;
const MANT_MASK: u64 = (1 << 52) - 1;

/// Bit flag in the canonical encoding: at least one NaN was added.
pub const FLAG_NAN: u8 = 1;
/// Bit flag in the canonical encoding: at least one `+∞` was added.
pub const FLAG_POS_INF: u8 = 2;
/// Bit flag in the canonical encoding: at least one `-∞` was added.
pub const FLAG_NEG_INF: u8 = 4;

/// Exact, order-independent accumulator for `f64` addends.
///
/// See the [module docs](self) for the representation. `Clone` is cheap
/// (one fixed-size array); `Default` is the empty (zero) sum.
#[derive(Clone, Debug)]
pub struct ExactSum {
    limbs: [i64; NUM_LIMBS],
    any_nan: bool,
    pos_inf: bool,
    neg_inf: bool,
    /// Raw additions since the last normalization (overflow guard).
    adds: u64,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactSum {
    /// The empty sum (renders `+0.0`).
    pub fn new() -> Self {
        ExactSum { limbs: [0; NUM_LIMBS], any_nan: false, pos_inf: false, neg_inf: false, adds: 0 }
    }

    /// Adds one addend. Zeros of either sign are no-ops; non-finite values
    /// set order-independent flags instead of touching the limbs.
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if x.is_nan() {
            self.any_nan = true;
            return;
        }
        if x.is_infinite() {
            if x > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        let bits = x.to_bits();
        let sign: i64 = if bits >> 63 == 1 { -1 } else { 1 };
        let exp = ((bits >> 52) & 0x7ff) as usize;
        let mant = if exp == 0 { bits & MANT_MASK } else { (bits & MANT_MASK) | (1 << 52) };
        // Global bit position of the mantissa LSB, with position 0 = 2^-1074.
        let pos0 = exp.max(1) - 1;
        let (limb0, shift) = (pos0 / LIMB_BITS as usize, pos0 % LIMB_BITS as usize);
        let wide = (mant as u128) << shift; // ≤ 52 + 1 + 31 = 84 bits → 3 limbs
        for k in 0..3 {
            let chunk = ((wide >> (LIMB_BITS as usize * k)) & LIMB_MASK) as i64;
            if chunk != 0 {
                if let Some(limb) = self.limbs.get_mut(limb0 + k) {
                    *limb += sign * chunk;
                }
            }
        }
        self.adds += 1;
        if self.adds >= NORM_EVERY {
            self.normalize();
        }
    }

    /// Subtracts one addend (exactly `add(-x)`).
    pub fn sub(&mut self, x: f64) {
        self.add(-x);
    }

    /// Folds another accumulator into this one. Exact limb-wise integer
    /// addition plus flag ORs, so merging is associative and commutative:
    /// any tree of merges over the same addends equals the flat fold.
    pub fn merge(&mut self, other: &ExactSum) {
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += *b;
        }
        self.any_nan |= other.any_nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        self.adds = self.adds.saturating_add(other.adds).saturating_add(1);
        if self.adds >= NORM_EVERY {
            self.normalize();
        }
    }

    /// Carry-propagates so every limb except the top lands in `[0, 2^32)`.
    fn normalize(&mut self) {
        let mut carry: i128 = 0;
        let top = NUM_LIMBS - 1;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let v = *limb as i128 + carry;
            if i == top {
                // The top limb keeps its full (signed) value; by the
                // headroom analysis it stays far below i64 range.
                *limb = v as i64;
            } else {
                let rem = v.rem_euclid(1 << LIMB_BITS);
                carry = (v - rem) >> LIMB_BITS;
                *limb = rem as i64;
            }
        }
        self.adds = 0;
    }

    /// Renders the exact sum as the correctly rounded `f64`
    /// (round-to-nearest, ties to even). NaN/infinity flags take
    /// precedence per the module docs; the empty/zero sum is `+0.0`.
    pub fn value(&self) -> f64 {
        if self.any_nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let mut c = self.clone();
        c.normalize();
        let top = NUM_LIMBS - 1;
        let negative = c.limbs.get(top).is_some_and(|l| *l < 0);
        if negative {
            for limb in c.limbs.iter_mut() {
                *limb = -*limb;
            }
            c.normalize();
        }
        // Highest set global bit position, or all-zero → +0.0.
        let Some((hi_idx, hi_limb)) = c.limbs.iter().enumerate().rev().find(|(_, l)| **l != 0)
        else {
            return 0.0;
        };
        let h = hi_idx as i64 * LIMB_BITS as i64 + (63 - (*hi_limb).leading_zeros() as i64);
        let sign = if negative { -1.0 } else { 1.0 };
        if h < 52 {
            // The entire sum fits below 2^-1022: assemble the subnormal bit
            // pattern directly. No bits exist below position 0, so this is
            // exact with no rounding.
            let mut frac: u64 = 0;
            for p in (0..=h).rev() {
                frac = (frac << 1) | c.bit(p);
            }
            return sign * f64::from_bits(frac);
        }
        // Normal range: 53 mantissa bits from h down, round bit, sticky.
        let mut m: u64 = 0;
        for k in 0..53 {
            m = (m << 1) | c.bit(h - k);
        }
        let round = c.bit(h - 53);
        let sticky = c.any_below(h - 53);
        let mut h = h;
        if round == 1 && (sticky || m & 1 == 1) {
            m += 1;
            if m == 1 << 53 {
                m = 1 << 52;
                h += 1;
            }
        }
        if h - 1074 > 1023 {
            return sign * f64::INFINITY;
        }
        // m ∈ [2^52, 2^53), ulp exponent ≥ -1074: both factors and the
        // product are exactly representable, so the multiply is exact.
        sign * (m as f64) * pow2(h - 52 - 1074)
    }

    /// Bit at global position `p` of a normalized, non-negative
    /// accumulator (positions within the top limb may exceed 31).
    fn bit(&self, p: i64) -> u64 {
        if p < 0 {
            return 0;
        }
        let top = NUM_LIMBS as i64 - 1;
        let (idx, off) = if p / LIMB_BITS as i64 >= top {
            (top as usize, p - top * LIMB_BITS as i64)
        } else {
            ((p / LIMB_BITS as i64) as usize, p % LIMB_BITS as i64)
        };
        if off >= 64 {
            return 0;
        }
        self.limbs.get(idx).map_or(0, |l| ((*l as u64) >> off) & 1)
    }

    /// Whether any bit strictly below global position `q` is set
    /// (normalized, non-negative accumulator).
    fn any_below(&self, q: i64) -> bool {
        if q <= 0 {
            return false;
        }
        let li = (q / LIMB_BITS as i64) as usize;
        // plos-lint: allow(C2): remainder mod LIMB_BITS (= 32) always fits u32
        let off = (q % LIMB_BITS as i64) as u32;
        if self.limbs.iter().take(li.min(NUM_LIMBS)).any(|l| *l != 0) {
            return true;
        }
        if off > 0 {
            let mask = (1i64 << off) - 1;
            if self.limbs.get(li).is_some_and(|l| *l & mask != 0) {
                return true;
            }
        }
        false
    }

    /// Canonical sparse encoding: `(flags, nonzero (limb index, limb)
    /// pairs in ascending index order)` of the *normalized* state. Equal
    /// sums (as multisets of addends) always encode identically, so the
    /// encoding is safe to digest and to carry on the wire.
    pub fn canonical_parts(&self) -> (u8, Vec<(u8, i64)>) {
        let mut c = self.clone();
        c.normalize();
        let flags = (if c.any_nan { FLAG_NAN } else { 0 })
            | (if c.pos_inf { FLAG_POS_INF } else { 0 })
            | (if c.neg_inf { FLAG_NEG_INF } else { 0 });
        let parts = c
            .limbs
            .iter()
            .enumerate()
            .filter(|(_, l)| **l != 0)
            // plos-lint: allow(C2): limb index < NUM_LIMBS (= 68) fits u8
            .map(|(i, l)| (i as u8, *l))
            .collect();
        (flags, parts)
    }

    /// Rebuilds an accumulator from its canonical encoding.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::OutOfRange`] when a limb index is out of
    /// bounds, repeated, out of order, or paired with a zero limb; when a
    /// limb below the top lies outside `[1, 2^32)`, the range normalization
    /// leaves; when the top limb's magnitude reaches `2^32`, far beyond any
    /// sum of finite `f64`s; or when `flags` has a bit outside the three
    /// flags. Every well-formed encoding comes from
    /// [`canonical_parts`](Self::canonical_parts), and every accepted one
    /// re-encodes to itself.
    pub fn from_parts(flags: u8, parts: &[(u8, i64)]) -> Result<ExactSum, LinalgError> {
        let out_of_range =
            |value: f64| LinalgError::OutOfRange { op: "ExactSum::from_parts", value };
        if flags & !(FLAG_NAN | FLAG_POS_INF | FLAG_NEG_INF) != 0 {
            return Err(out_of_range(f64::from(flags)));
        }
        let mut s = ExactSum::new();
        s.any_nan = flags & FLAG_NAN != 0;
        s.pos_inf = flags & FLAG_POS_INF != 0;
        s.neg_inf = flags & FLAG_NEG_INF != 0;
        let mut prev: Option<u8> = None;
        for &(idx, limb) in parts {
            let in_range = if usize::from(idx) == NUM_LIMBS - 1 {
                limb != 0 && limb.unsigned_abs() < 1 << LIMB_BITS
            } else {
                (1..1 << LIMB_BITS).contains(&limb)
            };
            match s.limbs.get_mut(usize::from(idx)) {
                Some(slot) if in_range && prev.is_none_or(|p| p < idx) => *slot = limb,
                _ => return Err(out_of_range(f64::from(idx))),
            }
            prev = Some(idx);
        }
        Ok(s)
    }
}

impl PartialEq for ExactSum {
    /// Canonical (value) equality: two accumulators compare equal exactly
    /// when their canonical encodings do, regardless of how carries are
    /// currently distributed across limbs.
    fn eq(&self, other: &Self) -> bool {
        self.canonical_parts() == other.canonical_parts()
    }
}

impl Eq for ExactSum {}

/// `2^k` for `k ≥ -1074` (subnormal constructions below `-1022`).
fn pow2(k: i64) -> f64 {
    if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (k + 1074))
    }
}

/// Per-component exact vector sum — the shape the ADMM consensus folds
/// need. One [`ExactSum`] per component; see the module docs. Equality is
/// canonical per component (see [`ExactSum`]'s `PartialEq`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExactVecSum {
    comps: Vec<ExactSum>,
}

impl ExactVecSum {
    /// The empty `dim`-component sum (renders the zero vector).
    pub fn zeros(dim: usize) -> Self {
        ExactVecSum { comps: vec![ExactSum::new(); dim] }
    }

    /// Number of components.
    pub fn dim(&self) -> usize {
        self.comps.len()
    }

    /// Component-wise `self += v`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ (matching [`Vector::axpy`] idiom).
    pub fn add(&mut self, v: &Vector) {
        assert_eq!(self.dim(), v.len(), "ExactVecSum::add: dimension mismatch");
        for (c, x) in self.comps.iter_mut().zip(v.iter()) {
            c.add(*x);
        }
    }

    /// Component-wise `self -= v`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub(&mut self, v: &Vector) {
        assert_eq!(self.dim(), v.len(), "ExactVecSum::sub: dimension mismatch");
        for (c, x) in self.comps.iter_mut().zip(v.iter()) {
            c.sub(*x);
        }
    }

    /// Folds another vector sum into this one (associative, commutative).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn merge(&mut self, other: &ExactVecSum) -> Result<(), LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "ExactVecSum::merge",
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        for (a, b) in self.comps.iter_mut().zip(&other.comps) {
            a.merge(b);
        }
        Ok(())
    }

    /// Renders every component to its correctly rounded `f64`.
    pub fn value(&self) -> Vector {
        Vector::from(self.comps.iter().map(ExactSum::value).collect::<Vec<_>>())
    }

    /// Canonical per-component encodings (see [`ExactSum::canonical_parts`]).
    pub fn canonical_parts(&self) -> Vec<(u8, Vec<(u8, i64)>)> {
        self.comps.iter().map(ExactSum::canonical_parts).collect()
    }

    /// Rebuilds a vector sum from per-component canonical encodings.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::OutOfRange`] on any malformed component
    /// encoding (see [`ExactSum::from_parts`]).
    pub fn from_parts(parts: &[(u8, Vec<(u8, i64)>)]) -> Result<ExactVecSum, LinalgError> {
        let comps = parts
            .iter()
            .map(|(flags, pairs)| ExactSum::from_parts(*flags, pairs))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExactVecSum { comps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_of(xs: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &x in xs {
            s.add(x);
        }
        s.value()
    }

    #[test]
    fn empty_sum_is_positive_zero() {
        let s = ExactSum::new();
        assert_eq!(s.value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn single_values_round_trip_exactly() {
        for &x in &[
            1.0,
            -1.0,
            0.1,
            -0.1,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            5e-324,                  // smallest subnormal
            f64::MAX,
            f64::MIN,
            1.5e300,
            -7.25e-200,
        ] {
            assert_eq!(exact_of(&[x]).to_bits(), x.to_bits(), "round trip {x:e}");
        }
    }

    #[test]
    fn signed_zeros_are_ignored_and_render_positive_zero() {
        assert_eq!(exact_of(&[-0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(exact_of(&[-0.0, 0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(exact_of(&[1.0, -1.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn classic_cancellation_is_exact() {
        // 1e16 + 1 - 1e16 loses the 1 in plain f64 order-dependent folds.
        assert_eq!(exact_of(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(exact_of(&[1.0, 1e16, -1e16]), 1.0);
        assert_eq!(exact_of(&[1e308, 1e308, -1e308, -1e308, 3.5]), 3.5);
    }

    #[test]
    fn order_independence_on_a_hard_mix() {
        let xs = [
            1e300,
            -1e300,
            1e-300,
            0.1,
            -0.3,
            5e-324,
            -5e-324,
            1e16,
            1.0,
            -1e16,
            f64::MAX,
            -f64::MAX,
            2.5e-308,
        ];
        let forward = exact_of(&xs);
        let mut rev = xs;
        rev.reverse();
        assert_eq!(forward.to_bits(), exact_of(&rev).to_bits());
    }

    #[test]
    fn merge_matches_flat_fold_bitwise() {
        let xs: Vec<f64> = (0..100)
            .map(|i| {
                let v = ((i * 2654435761u64 as usize) % 1000) as f64 - 500.0;
                v * (10f64).powi((i % 37) as i32 - 18)
            })
            .collect();
        let flat = exact_of(&xs);
        for split in [1, 7, 50, 99] {
            let (a, b) = xs.split_at(split);
            let mut sa = ExactSum::new();
            a.iter().for_each(|&x| sa.add(x));
            let mut sb = ExactSum::new();
            b.iter().for_each(|&x| sb.add(x));
            sa.merge(&sb);
            assert_eq!(sa.value().to_bits(), flat.to_bits(), "split {split}");
        }
    }

    #[test]
    fn correctly_rounded_against_integer_reference() {
        // Sums with exact dyadic representations compare against literal
        // arithmetic the compiler folds exactly.
        assert_eq!(exact_of(&[0.5, 0.25, 0.125]), 0.875);
        assert_eq!(exact_of(&[3.0, -1.5]), 1.5);
        // Round-to-nearest-even at the 53-bit boundary: 2^53 + 1 → 2^53
        // (ties to even), 2^53 + 2 exact, 2^53 + 3 → 2^53 + 4.
        let base = 9007199254740992.0; // 2^53
        assert_eq!(exact_of(&[base, 1.0]), base);
        assert_eq!(exact_of(&[base, 2.0]), base + 2.0);
        assert_eq!(exact_of(&[base, 3.0]), 9007199254740996.0);
    }

    #[test]
    fn overflow_renders_infinity() {
        assert_eq!(exact_of(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(exact_of(&[f64::MIN, f64::MIN]), f64::NEG_INFINITY);
        // ... but cancellation back into range stays finite.
        assert_eq!(exact_of(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    #[test]
    fn non_finite_flags_are_order_independent() {
        assert!(exact_of(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(exact_of(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert_eq!(exact_of(&[f64::INFINITY, 1e308, -4.0]), f64::INFINITY);
        assert_eq!(exact_of(&[-3.0, f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn subnormal_accumulation_is_exact() {
        let tiny = 5e-324;
        let n = 4001;
        let xs = vec![tiny; n];
        let expected = f64::from_bits(n as u64); // n ulps, still subnormal
        assert_eq!(exact_of(&xs).to_bits(), expected.to_bits());
        // Crossing the subnormal/normal boundary exactly.
        let mut s = ExactSum::new();
        s.add(f64::MIN_POSITIVE);
        s.sub(5e-324);
        let expected = f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1);
        assert_eq!(s.value().to_bits(), expected.to_bits());
    }

    #[test]
    fn normalization_guard_survives_many_adds() {
        let mut s = ExactSum::new();
        let n = (NORM_EVERY + 17) as usize;
        for _ in 0..n {
            s.add(1.0);
        }
        assert_eq!(s.value(), n as f64);
    }

    #[test]
    fn canonical_parts_round_trip_and_are_canonical() {
        let mut a = ExactSum::new();
        for x in [0.1, -0.3, 1e16, 5e-324, -2.5] {
            a.add(x);
        }
        let (flags, parts) = a.canonical_parts();
        let b = ExactSum::from_parts(flags, &parts).unwrap();
        assert_eq!(a.value().to_bits(), b.value().to_bits());
        // Same multiset added in another order → identical encoding.
        let mut c = ExactSum::new();
        for x in [-2.5, 5e-324, -0.3, 1e16, 0.1] {
            c.add(x);
        }
        assert_eq!(c.canonical_parts(), (flags, parts));
    }

    #[test]
    fn from_parts_rejects_malformed_encodings() {
        assert!(ExactSum::from_parts(0, &[(200, 1)]).is_err(), "index out of bounds");
        assert!(ExactSum::from_parts(0, &[(3, 0)]).is_err(), "zero limb");
        assert!(ExactSum::from_parts(0, &[(5, 1), (5, 2)]).is_err(), "repeated index");
        assert!(ExactSum::from_parts(0, &[(5, 1), (2, 2)]).is_err(), "out of order");
    }

    #[test]
    fn from_parts_rejects_limbs_and_flags_no_sum_produces() {
        let top = (NUM_LIMBS - 1) as u8;
        let reject = |flags: u8, parts: &[(u8, i64)]| {
            assert!(
                matches!(ExactSum::from_parts(flags, parts), Err(LinalgError::OutOfRange { .. })),
                "accepted flags {flags:#x}, parts {parts:?}"
            );
        };
        // Below the top, normalization leaves every limb in [0, 2^32).
        reject(0, &[(3, -1)]);
        reject(0, &[(3, 1 << 32)]);
        reject(0, &[(3, i64::MAX)]);
        // The top limb keeps its sign, but no sum of finite f64s comes
        // near 2^32 there; i64::MIN would overflow the negation in value().
        reject(0, &[(top, i64::MIN)]);
        reject(0, &[(top, 1 << 32)]);
        reject(0, &[(top, -(1 << 32))]);
        // Only the three flags exist; any other bit would not re-encode.
        for bit in 3..8 {
            reject(1 << bit, &[]);
        }
        // Extreme but canonical encodings still decode to themselves.
        for parts in [vec![(3, (1 << 32) - 1), (top, (1 << 32) - 1)], vec![(0, 1), (top, -1)]] {
            let flags = FLAG_NAN | FLAG_POS_INF | FLAG_NEG_INF;
            let s = ExactSum::from_parts(flags, &parts).unwrap();
            assert_eq!(s.canonical_parts(), (flags, parts));
        }
        let mut negative = ExactSum::new();
        negative.add(-f64::MAX);
        negative.add(-1e-300);
        let (flags, parts) = negative.canonical_parts();
        let back = ExactSum::from_parts(flags, &parts).unwrap();
        assert_eq!(back.value().to_bits(), negative.value().to_bits());
    }

    #[test]
    fn vec_sum_matches_component_folds() {
        let vs = [
            Vector::from(vec![1e16, -0.5, 3.0]),
            Vector::from(vec![1.0, 0.25, -3.0]),
            Vector::from(vec![-1e16, 0.25, 5e-324]),
        ];
        let mut s = ExactVecSum::zeros(3);
        for v in &vs {
            s.add(v);
        }
        let got = s.value();
        assert_eq!(got.as_slice()[0], 1.0);
        assert_eq!(got.as_slice()[1], 0.0);
        assert_eq!(got.as_slice()[2], 5e-324);
    }

    #[test]
    fn vec_sum_merge_and_wire_round_trip() {
        let a = Vector::from(vec![0.1, -0.2]);
        let b = Vector::from(vec![0.3, 0.7]);
        let mut flat = ExactVecSum::zeros(2);
        flat.add(&a);
        flat.sub(&b);
        let mut left = ExactVecSum::zeros(2);
        left.add(&a);
        let mut right = ExactVecSum::zeros(2);
        right.sub(&b);
        left.merge(&right).unwrap();
        assert_eq!(left.value().as_slice(), flat.value().as_slice());
        let parts = left.canonical_parts();
        let decoded = ExactVecSum::from_parts(&parts).unwrap();
        assert_eq!(decoded.value().as_slice(), flat.value().as_slice());
        assert!(left.merge(&ExactVecSum::zeros(3)).is_err(), "dimension mismatch");
    }
}
