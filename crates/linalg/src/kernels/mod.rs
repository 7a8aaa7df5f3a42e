//! Unrolled slice-level kernels behind the [`Vector`](crate::Vector) and
//! [`Matrix`](crate::Matrix) hot paths.
//!
//! The QP coordinate-descent sweeps and the Gram-row construction in the
//! dual solver spend nearly all their time in `dot` and `axpy` over dense
//! `f64` slices. Each kernel has a scalar body using four independent
//! accumulators / four-way-unrolled loops, plus an explicit AVX2 variant
//! (in the `x86` submodule) selected once per process by runtime feature
//! detection. A host without AVX2 runs the scalar bodies.
//!
//! # Bit-parity contract
//!
//! Both code paths — scalar and AVX2 — produce **bit-identical** results:
//!
//! * Reductions use the same fixed partition: lane accumulator `k` sums the
//!   elements at positions `≡ k (mod 4)`, lanes combine as
//!   `(acc0 + acc1) + (acc2 + acc3)`, and the non-multiple-of-4 tail is
//!   folded sequentially on top. A 256-bit register holds exactly the four
//!   scalar accumulators, so the partition matches by construction.
//! * Elementwise updates (`axpy`, `axpy2`) perform one `mul` and one `add`
//!   per element, individually rounded, in the same order at every width.
//!   FMA is never used: a fused multiply-add rounds once where `mul`+`add`
//!   round twice, which would change low bits.
//!
//! Results are therefore deterministic run-to-run, independent of thread
//! count and of the host's SIMD capabilities — they just differ from a
//! strictly sequential left fold by ordinary rounding.
//!
//! Setting `PLOS_NO_SIMD=1` (read once per process, like `PLOS_THREADS`)
//! forces the scalar bodies; the CI parity gate diffs model digests across
//! that switch.

#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

/// Dispatch levels cached by [`simd_level`]. Scalar is the universal
/// fallback; on x86-64, AVX2 is runtime-detected.
const LEVEL_UNKNOWN: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
#[cfg(target_arch = "x86_64")]
const LEVEL_AVX2: u8 = 2;

/// The SIMD level all kernels dispatch on, detected once per process.
fn simd_level() -> u8 {
    static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNKNOWN);
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNKNOWN => {
            let detected = detect_level();
            LEVEL.store(detected, Ordering::Relaxed);
            detected
        }
        level => level,
    }
}

/// One-shot capability probe honouring the `PLOS_NO_SIMD=1` escape hatch.
fn detect_level() -> u8 {
    if std::env::var_os("PLOS_NO_SIMD").is_some_and(|v| v == *"1") {
        return LEVEL_SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return LEVEL_AVX2;
        }
    }
    LEVEL_SCALAR
}

/// Dot product over slices with four independent accumulators.
///
/// Trailing elements beyond the longest common multiple-of-4 prefix are
/// folded sequentially into a tail term. If the slices have different
/// lengths the extra elements of the longer slice are ignored; callers
/// enforce dimension agreement.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        let level = simd_level();
        if level == LEVEL_AVX2 {
            // Safety: AVX2 was proven present by the runtime probe behind
            // `simd_level`, and the kernel reads nothing outside the slices.
            // plos-lint: allow(U1): runtime-feature-detected SIMD dispatch.
            return unsafe { x86::dot_avx2(a, b) };
        }
    }
    dot_scalar(a, b)
}

/// Slices of at most this many elements take an inlined loop in [`axpy`]
/// and [`axpy2`] instead of the dispatched body: at that length the
/// out-of-line call and the level check cost more than the vector lanes
/// save (EXPERIMENTS.md has the measurement). The loop performs the same
/// `mul` then `add` per element, so the bits do not depend on the path.
pub const SHORT_ROW: usize = 16;

/// `y += alpha * x`: an inlined loop up to [`SHORT_ROW`] elements, the
/// four-way-unrolled dispatched body beyond.
///
/// If the slices have different lengths the extra elements of the longer
/// slice are ignored; callers enforce dimension agreement.
#[inline]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    if y.len() <= SHORT_ROW {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    } else {
        axpy_dispatch(y, alpha, x);
    }
}

/// The SIMD-dispatched [`axpy`] body.
#[inline(never)]
fn axpy_dispatch(y: &mut [f64], alpha: f64, x: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = simd_level();
        if level == LEVEL_AVX2 {
            // Safety: AVX2 was proven present by the runtime probe behind
            // `simd_level`, and the kernel writes nothing outside `y`.
            // plos-lint: allow(U1): runtime-feature-detected SIMD dispatch.
            return unsafe { x86::axpy_avx2(y, alpha, x) };
        }
    }
    axpy_scalar(y, alpha, x)
}

/// Fused `y += alpha * x` returning `⟨y_updated, x⟩` in a single pass.
///
/// One memory sweep instead of two for the axpy-then-dot idiom used by the
/// incremental gradient maintenance in the QP solver. Same unrolling and
/// reduction order as [`dot`] / [`axpy`].
pub fn axpy_dot(y: &mut [f64], alpha: f64, x: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        let level = simd_level();
        if level == LEVEL_AVX2 {
            // Safety: AVX2 was proven present by the runtime probe behind
            // `simd_level`, and the kernel writes nothing outside `y`.
            // plos-lint: allow(U1): runtime-feature-detected SIMD dispatch.
            return unsafe { x86::axpy_dot_avx2(y, alpha, x) };
        }
    }
    axpy_dot_scalar(y, alpha, x)
}

/// Fused pair update `y += a1 * x1; y += a2 * x2` in one memory sweep.
///
/// Per element the two multiply-adds are applied **sequentially in
/// argument order**, so the result is bit-identical to two back-to-back
/// [`axpy`] calls: elements are independent, and each element sees the
/// same two individually-rounded operations in the same order. The QP
/// solver's SMO pass uses this for its `±δ` pair moves, halving the
/// gradient load/store traffic. Like [`axpy`], slices of at most
/// [`SHORT_ROW`] elements take an inlined loop.
///
/// If the slices have different lengths the extra elements of the longer
/// slices are ignored; callers enforce dimension agreement.
#[inline]
pub fn axpy2(y: &mut [f64], a1: f64, x1: &[f64], a2: f64, x2: &[f64]) {
    if y.len() <= SHORT_ROW {
        for ((yi, pi), qi) in y.iter_mut().zip(x1).zip(x2) {
            *yi += a1 * pi;
            *yi += a2 * qi;
        }
    } else {
        axpy2_dispatch(y, a1, x1, a2, x2);
    }
}

/// The SIMD-dispatched [`axpy2`] body.
#[inline(never)]
fn axpy2_dispatch(y: &mut [f64], a1: f64, x1: &[f64], a2: f64, x2: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = simd_level();
        if level == LEVEL_AVX2 {
            // Safety: AVX2 was proven present by the runtime probe behind
            // `simd_level`, and the kernel writes nothing outside `y`.
            // plos-lint: allow(U1): runtime-feature-detected SIMD dispatch.
            return unsafe { x86::axpy2_avx2(y, a1, x1, a2, x2) };
        }
    }
    axpy2_scalar(y, a1, x1, a2, x2)
}

/// Row-parallel strided matrix–vector product: `y[r] = dot(row_r, x)` for
/// `r < rows`, where `row_r = data[r·stride .. r·stride + x.len()]`.
///
/// Each row costs `x.len()` multiply-adds, and the rows fan out over the
/// ambient [`plos_exec::Pool`] only when every chunk outweighs a spawn
/// ([`plos_exec::GRAIN`]). Each output is one [`dot`] of the same row
/// against `x`, joined in row order, so the result is bit-identical at
/// every pool size and to the sequential loop.
///
/// # Panics
///
/// Panics if `data` is shorter than `(rows − 1)·stride + x.len()`.
pub fn matvec_strided(data: &[f64], stride: usize, rows: usize, x: &[f64]) -> Vec<f64> {
    let cols = x.len();
    // Allowed: the documented length precondition keeps every row in bounds.
    #[allow(clippy::indexing_slicing)]
    let row = |r: usize| &data[r * stride..r * stride + cols];
    plos_exec::Pool::current()
        .par_range_chunks(rows, cols, |range| range.map(|r| dot(row(r), x)).collect())
}

/// Scalar [`dot`] body; also the parity reference for the SIMD variants.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut acc0 = 0.0_f64;
    let mut acc1 = 0.0_f64;
    let mut acc2 = 0.0_f64;
    let mut acc3 = 0.0_f64;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    while let (Some(&[a0, a1, a2, a3]), Some(&[b0, b1, b2, b3])) = (ca.next(), cb.next()) {
        acc0 += a0 * b0;
        acc1 += a1 * b1;
        acc2 += a2 * b2;
        acc3 += a3 * b3;
    }
    let tail: f64 = ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| x * y).sum();
    (acc0 + acc1) + (acc2 + acc3) + tail
}

/// Scalar [`axpy`] body; also the parity reference for the SIMD variants.
pub fn axpy_scalar(y: &mut [f64], alpha: f64, x: &[f64]) {
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    while let (Some([y0, y1, y2, y3]), Some(&[x0, x1, x2, x3])) = (cy.next(), cx.next()) {
        *y0 += alpha * x0;
        *y1 += alpha * x1;
        *y2 += alpha * x2;
        *y3 += alpha * x3;
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

/// Scalar [`axpy_dot`] body; also the parity reference for the SIMD
/// variants.
pub fn axpy_dot_scalar(y: &mut [f64], alpha: f64, x: &[f64]) -> f64 {
    let mut acc0 = 0.0_f64;
    let mut acc1 = 0.0_f64;
    let mut acc2 = 0.0_f64;
    let mut acc3 = 0.0_f64;
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    while let (Some([y0, y1, y2, y3]), Some(&[x0, x1, x2, x3])) = (cy.next(), cx.next()) {
        *y0 += alpha * x0;
        *y1 += alpha * x1;
        *y2 += alpha * x2;
        *y3 += alpha * x3;
        acc0 += *y0 * x0;
        acc1 += *y1 * x1;
        acc2 += *y2 * x2;
        acc3 += *y3 * x3;
    }
    let mut tail = 0.0_f64;
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
        tail += *yi * xi;
    }
    (acc0 + acc1) + (acc2 + acc3) + tail
}

/// Scalar [`axpy2`] body; also the parity reference for the SIMD variants.
pub fn axpy2_scalar(y: &mut [f64], a1: f64, x1: &[f64], a2: f64, x2: &[f64]) {
    let mut cy = y.chunks_exact_mut(4);
    let mut c1 = x1.chunks_exact(4);
    let mut c2 = x2.chunks_exact(4);
    while let (Some([y0, y1, y2, y3]), Some(&[p0, p1, p2, p3]), Some(&[q0, q1, q2, q3])) =
        (cy.next(), c1.next(), c2.next())
    {
        *y0 += a1 * p0;
        *y0 += a2 * q0;
        *y1 += a1 * p1;
        *y1 += a2 * q1;
        *y2 += a1 * p2;
        *y2 += a2 * q2;
        *y3 += a1 * p3;
        *y3 += a2 * q3;
    }
    for ((yi, pi), qi) in cy.into_remainder().iter_mut().zip(c1.remainder()).zip(c2.remainder()) {
        *yi += a1 * pi;
        *yi += a2 * qi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    // Deterministic pseudo-random data without pulling in a RNG dependency.
    fn lcg_data(n: usize, mut state: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
            })
            .collect()
    }

    #[test]
    fn dot_matches_reference_all_tail_lengths() {
        for n in 0..=19 {
            let a = lcg_data(n, 1);
            let b = lcg_data(n, 2);
            let got = dot(&a, &b);
            let want = seq_dot(&a, &b);
            assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()), "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_exact_on_integral_data() {
        let a: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..13).map(|i| (i % 5) as f64).collect();
        assert_eq!(dot(&a, &b), seq_dot(&a, &b));
    }

    #[test]
    fn strided_matvec_is_one_dot_per_row_at_every_pool_size() {
        // Padded rows (stride > cols), large enough that pools of 2 and 8 fork.
        let (rows, cols, stride) = (700, 400, 403);
        assert!(rows * cols >= 2 * plos_exec::GRAIN);
        let data = lcg_data((rows - 1) * stride + cols, 5);
        let x = lcg_data(cols, 6);
        let want: Vec<u64> =
            (0..rows).map(|r| dot(&data[r * stride..r * stride + cols], &x).to_bits()).collect();
        for threads in [1, 2, 8] {
            let got = plos_exec::with_threads(threads, || matvec_strided(&data, stride, rows, &x));
            assert_eq!(got.iter().map(|y| y.to_bits()).collect::<Vec<_>>(), want, "{threads}");
        }
    }

    #[test]
    fn axpy_matches_reference_all_tail_lengths() {
        for n in 0..=19 {
            let x = lcg_data(n, 3);
            let mut y = lcg_data(n, 4);
            let mut want = y.clone();
            for (w, xi) in want.iter_mut().zip(&x) {
                *w += 0.75 * xi;
            }
            axpy(&mut y, 0.75, &x);
            assert_eq!(y, want, "n={n}");
        }
    }

    #[test]
    fn axpy_dot_fuses_both_operations() {
        for n in 0..=19 {
            let x = lcg_data(n, 5);
            let mut y = lcg_data(n, 6);
            let mut y_ref = y.clone();
            axpy(&mut y_ref, -0.3, &x);
            let want = dot(&y_ref, &x);
            let got = axpy_dot(&mut y, -0.3, &x);
            assert_eq!(y, y_ref, "n={n}: updated vectors must agree exactly");
            assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()), "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn axpy2_matches_two_sequential_axpys_bitwise() {
        for n in 0..=35 {
            let x1 = lcg_data(n, 7);
            let x2 = lcg_data(n, 8);
            let mut y = lcg_data(n, 9);
            let mut want = y.clone();
            axpy(&mut want, 0.6, &x1);
            axpy(&mut want, -1.7, &x2);
            axpy2(&mut y, 0.6, &x1, -1.7, &x2);
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&want), "n={n}");
        }
    }

    /// The dispatched kernels and the scalar bodies must agree bit-for-bit
    /// on every length, including awkward tails and both sides of the
    /// [`SHORT_ROW`] cutoff, where `axpy`/`axpy2` switch from the inlined
    /// loop to the SIMD bodies. On non-x86-64 hosts the dispatch IS the
    /// scalar body and this holds trivially.
    #[test]
    fn dispatched_kernels_bit_match_scalar() {
        let cutoff = [SHORT_ROW - 2, SHORT_ROW - 1, SHORT_ROW, SHORT_ROW + 1, SHORT_ROW + 2];
        for n in
            [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 65, 100, 257].into_iter().chain(cutoff)
        {
            let a = lcg_data(n, 11);
            let b = lcg_data(n, 12);
            assert_eq!(dot(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits(), "dot n={n}");

            let mut y0 = lcg_data(n, 13);
            let mut y1 = y0.clone();
            axpy(&mut y0, 1.25, &a);
            axpy_scalar(&mut y1, 1.25, &a);
            assert_eq!(y0, y1, "axpy n={n}");

            let mut z0 = lcg_data(n, 14);
            let mut z1 = z0.clone();
            let d0 = axpy_dot(&mut z0, -0.5, &b);
            let d1 = axpy_dot_scalar(&mut z1, -0.5, &b);
            assert_eq!(z0, z1, "axpy_dot y n={n}");
            assert_eq!(d0.to_bits(), d1.to_bits(), "axpy_dot acc n={n}");

            let mut w0 = lcg_data(n, 15);
            let mut w1 = w0.clone();
            axpy2(&mut w0, 0.3, &a, -0.9, &b);
            axpy2_scalar(&mut w1, 0.3, &a, -0.9, &b);
            assert_eq!(w0, w1, "axpy2 n={n}");
        }
    }

    /// The inlined short-row loop and the dispatched body agree bit for bit
    /// at every length up to twice the cutoff, on signed zeros and
    /// subnormals too.
    #[test]
    fn short_rows_bit_match_the_dispatched_bodies() {
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for n in 0..=2 * SHORT_ROW {
            let mut a = lcg_data(n, 16);
            let b = lcg_data(n, 17);
            if let Some(first) = a.first_mut() {
                *first = -0.0;
            }
            if let Some(last) = a.last_mut() {
                *last = f64::MIN_POSITIVE / 8.0;
            }
            for alpha in [0.7, -0.0, 1.0e-300] {
                let y = lcg_data(n, 18);
                let (mut short, mut long) = (y.clone(), y.clone());
                axpy(&mut short, alpha, &a);
                axpy_dispatch(&mut long, alpha, &a);
                assert_eq!(bits(&short), bits(&long), "axpy n={n} alpha={alpha}");
                let (mut short, mut long) = (y.clone(), y);
                axpy2(&mut short, alpha, &a, -1.3, &b);
                axpy2_dispatch(&mut long, alpha, &a, -1.3, &b);
                assert_eq!(bits(&short), bits(&long), "axpy2 n={n} alpha={alpha}");
            }
        }
    }

    #[test]
    fn kernels_preserve_signed_zero_and_subnormals() {
        let a = vec![-0.0, f64::MIN_POSITIVE / 4.0, -f64::MIN_POSITIVE, 0.0, 1.0e-310, -0.0, 2.0];
        let b = vec![0.0, -0.0, f64::MIN_POSITIVE / 2.0, -1.0e-308, -0.0, 3.0, -0.0];
        assert_eq!(dot(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits());
        let mut y0 = b.clone();
        let mut y1 = b.clone();
        axpy(&mut y0, -0.0, &a);
        axpy_scalar(&mut y1, -0.0, &a);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y0), bits(&y1));
    }

    #[test]
    fn empty_slices_are_fine() {
        assert_eq!(dot(&[], &[]), 0.0);
        let mut y: Vec<f64> = vec![];
        axpy(&mut y, 2.0, &[]);
        axpy2(&mut y, 2.0, &[], 3.0, &[]);
        assert_eq!(axpy_dot(&mut y, 2.0, &[]), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Floats that stress the bit-parity contract: ordinary magnitudes
        /// mixed with signed zeros, subnormals, and huge/tiny normals. On
        /// hosts with SIMD this pits the vector bodies against the scalar
        /// reference on exactly the values where flush-to-zero or sign
        /// sloppiness would show; elsewhere the dispatch *is* the scalar
        /// body and the properties hold trivially.
        fn weird_f64() -> impl Strategy<Value = f64> {
            (0u64..9_000_000).prop_map(|r| {
                let mag = (r / 9) as f64 / 1_000_000.0; // in [0, 1)
                match r % 9 {
                    // Ordinary magnitudes, both signs (majority class).
                    0..=4 => (mag - 0.5) * 2.0e3,
                    // Signed zeros.
                    5 => {
                        if r % 2 == 0 {
                            -0.0
                        } else {
                            0.0
                        }
                    }
                    // Subnormals of both signs.
                    6 => f64::MIN_POSITIVE * (mag - 0.5),
                    // The smallest-subnormal ladder.
                    7 => 5.0e-324 * ((r / 9 % 100) as f64),
                    // Huge magnitudes.
                    _ => 1.0e300 * (mag - 0.5),
                }
            })
        }

        fn weird_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
            prop::collection::vec(weird_f64(), 0..max_len)
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|c| c.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// `dot` dispatch is bit-identical to the scalar four-accumulator
            /// reference for every length and tail.
            #[test]
            fn dot_dispatch_bit_matches_scalar(a in weird_vec(130), b in weird_vec(130)) {
                let n = a.len().min(b.len());
                prop_assert_eq!(
                    dot(&a[..n], &b[..n]).to_bits(),
                    dot_scalar(&a[..n], &b[..n]).to_bits()
                );
            }

            /// `axpy` dispatch is bit-identical to the scalar body,
            /// including signed-zero and subnormal elements.
            #[test]
            fn axpy_dispatch_bit_matches_scalar(
                y in weird_vec(130),
                x in weird_vec(130),
                alpha in weird_f64(),
            ) {
                let n = y.len().min(x.len());
                let mut y0 = y[..n].to_vec();
                let mut y1 = y[..n].to_vec();
                axpy(&mut y0, alpha, &x[..n]);
                axpy_scalar(&mut y1, alpha, &x[..n]);
                prop_assert_eq!(bits(&y0), bits(&y1));
            }

            /// `axpy_dot` dispatch matches the scalar body bitwise on both
            /// the updated vector and the fused reduction.
            #[test]
            fn axpy_dot_dispatch_bit_matches_scalar(
                y in weird_vec(130),
                x in weird_vec(130),
                alpha in weird_f64(),
            ) {
                let n = y.len().min(x.len());
                let mut y0 = y[..n].to_vec();
                let mut y1 = y[..n].to_vec();
                let d0 = axpy_dot(&mut y0, alpha, &x[..n]);
                let d1 = axpy_dot_scalar(&mut y1, alpha, &x[..n]);
                prop_assert_eq!(bits(&y0), bits(&y1));
                prop_assert_eq!(d0.to_bits(), d1.to_bits());
            }

            /// `axpy2` dispatch matches the scalar body, which in turn
            /// matches two sequential `axpy` passes bit-for-bit.
            #[test]
            fn axpy2_dispatch_bit_matches_two_axpys(
                y in weird_vec(130),
                x1 in weird_vec(130),
                x2 in weird_vec(130),
                a1 in weird_f64(),
                a2 in weird_f64(),
            ) {
                let n = y.len().min(x1.len()).min(x2.len());
                let mut fused = y[..n].to_vec();
                let mut scalar = y[..n].to_vec();
                let mut unfused = y[..n].to_vec();
                axpy2(&mut fused, a1, &x1[..n], a2, &x2[..n]);
                axpy2_scalar(&mut scalar, a1, &x1[..n], a2, &x2[..n]);
                axpy(&mut unfused, a1, &x1[..n]);
                axpy(&mut unfused, a2, &x2[..n]);
                prop_assert_eq!(bits(&fused), bits(&scalar));
                prop_assert_eq!(bits(&fused), bits(&unfused));
            }
        }
    }
}
