//! Explicit AVX2 kernel bodies for x86-64.
//!
//! This is the **only** module in the workspace allowed to contain
//! `unsafe` (lint rule U1): every function here is an intrinsics
//! transliteration of the scalar kernel it mirrors, is only reachable
//! through the runtime-feature-detected dispatch in [`super`], and carries
//! a safety justification at each `unsafe` site.
//!
//! # Why no FMA
//!
//! The host may well support FMA, but `_mm256_fmadd_pd` rounds once where
//! the scalar bodies round twice (`mul` then `add`). Using it would break
//! the bit-parity contract, so every kernel sticks to separate
//! `_mm256_mul_pd` / `_mm256_add_pd` steps.
//!
//! # Why the reductions keep one 4-lane accumulator
//!
//! The scalar `dot` partitions work over four accumulators by index mod 4.
//! One 256-bit accumulator vector reproduces that partition exactly; a
//! second accumulator vector (or an AVX-512 8-lane one) would partition by
//! index mod 8 and change the rounding. Elementwise kernels (`axpy`,
//! `axpy2`) have no cross-element reduction, so they may unroll freely.

use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
    _mm256_storeu_pd,
};

/// Reduces a 256-bit accumulator exactly like the scalar 4-accumulator
/// combine: `(acc0 + acc1) + (acc2 + acc3)`.
///
/// # Safety
///
/// Caller must have verified AVX2 support (the only callers are the AVX2
/// kernels below, themselves behind the dispatcher's runtime probe).
#[target_feature(enable = "avx2")]
// plos-lint: allow(U1): AVX2 lane extraction behind the dispatcher's
// runtime feature probe; writes only to a local array.
unsafe fn combine4_avx2(acc: __m256d) -> f64 {
    let mut lanes = [0.0_f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// AVX2 [`super::dot`]: one 4-lane accumulator, scalar tail.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime. All pointer
/// arithmetic stays inside `a[..n]` / `b[..n]` with `n = min(len, len)`.
#[target_feature(enable = "avx2")]
// plos-lint: allow(U1): runtime-detected AVX2 body; every access bounded
// by the common slice length computed on entry.
pub(super) unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let quads = n / 4;
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc = _mm256_setzero_pd();
    for q in 0..quads {
        let va = _mm256_loadu_pd(pa.add(4 * q));
        let vb = _mm256_loadu_pd(pb.add(4 * q));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    let mut tail = 0.0_f64;
    for k in (4 * quads)..n {
        tail += *pa.add(k) * *pb.add(k);
    }
    combine4_avx2(acc) + tail
}

/// AVX2 [`super::axpy`]: elementwise `mul`+`add`, unrolled two vectors
/// deep (elementwise kernels may unroll freely — no reduction).
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime. All pointer
/// arithmetic stays inside the common slice length.
#[target_feature(enable = "avx2")]
// plos-lint: allow(U1): runtime-detected AVX2 body; every access bounded
// by the common slice length computed on entry.
pub(super) unsafe fn axpy_avx2(y: &mut [f64], alpha: f64, x: &[f64]) {
    let n = y.len().min(x.len());
    let py = y.as_mut_ptr();
    let px = x.as_ptr();
    let va = _mm256_set1_pd(alpha);
    let octets = n / 8;
    for o in 0..octets {
        let base = 8 * o;
        let y0 = _mm256_loadu_pd(py.add(base));
        let y1 = _mm256_loadu_pd(py.add(base + 4));
        let x0 = _mm256_loadu_pd(px.add(base));
        let x1 = _mm256_loadu_pd(px.add(base + 4));
        _mm256_storeu_pd(py.add(base), _mm256_add_pd(y0, _mm256_mul_pd(va, x0)));
        _mm256_storeu_pd(py.add(base + 4), _mm256_add_pd(y1, _mm256_mul_pd(va, x1)));
    }
    let mut k = 8 * octets;
    if k + 4 <= n {
        let y0 = _mm256_loadu_pd(py.add(k));
        let x0 = _mm256_loadu_pd(px.add(k));
        _mm256_storeu_pd(py.add(k), _mm256_add_pd(y0, _mm256_mul_pd(va, x0)));
        k += 4;
    }
    while k < n {
        *py.add(k) += alpha * *px.add(k);
        k += 1;
    }
}

/// AVX2 [`super::axpy_dot`]: one 4-lane accumulator over the *updated* `y`
/// values, matching the scalar fused body lane-for-lane.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime. All pointer
/// arithmetic stays inside the common slice length.
#[target_feature(enable = "avx2")]
// plos-lint: allow(U1): runtime-detected AVX2 body; every access bounded
// by the common slice length computed on entry.
pub(super) unsafe fn axpy_dot_avx2(y: &mut [f64], alpha: f64, x: &[f64]) -> f64 {
    let n = y.len().min(x.len());
    let quads = n / 4;
    let py = y.as_mut_ptr();
    let px = x.as_ptr();
    let va = _mm256_set1_pd(alpha);
    let mut acc = _mm256_setzero_pd();
    for q in 0..quads {
        let base = 4 * q;
        let vx = _mm256_loadu_pd(px.add(base));
        let vy = _mm256_add_pd(_mm256_loadu_pd(py.add(base)), _mm256_mul_pd(va, vx));
        _mm256_storeu_pd(py.add(base), vy);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(vy, vx));
    }
    let mut tail = 0.0_f64;
    for k in (4 * quads)..n {
        let yk = py.add(k);
        *yk += alpha * *px.add(k);
        tail += *yk * *px.add(k);
    }
    combine4_avx2(acc) + tail
}

/// AVX2 [`super::axpy2`]: per element, `y += a1*x1` then `y += a2*x2`,
/// each individually rounded — bit-identical to two sequential axpys.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime. All pointer
/// arithmetic stays inside the common slice length.
#[target_feature(enable = "avx2")]
// plos-lint: allow(U1): runtime-detected AVX2 body; every access bounded
// by the common slice length computed on entry.
pub(super) unsafe fn axpy2_avx2(y: &mut [f64], a1: f64, x1: &[f64], a2: f64, x2: &[f64]) {
    let n = y.len().min(x1.len()).min(x2.len());
    let py = y.as_mut_ptr();
    let p1 = x1.as_ptr();
    let p2 = x2.as_ptr();
    let va1 = _mm256_set1_pd(a1);
    let va2 = _mm256_set1_pd(a2);
    let quads = n / 4;
    for q in 0..quads {
        let base = 4 * q;
        let mut vy = _mm256_loadu_pd(py.add(base));
        vy = _mm256_add_pd(vy, _mm256_mul_pd(va1, _mm256_loadu_pd(p1.add(base))));
        vy = _mm256_add_pd(vy, _mm256_mul_pd(va2, _mm256_loadu_pd(p2.add(base))));
        _mm256_storeu_pd(py.add(base), vy);
    }
    for k in (4 * quads)..n {
        let yk = py.add(k);
        *yk += a1 * *p1.add(k);
        *yk += a2 * *p2.add(k);
    }
}

#[cfg(test)]
mod tests {
    //! Direct SIMD-vs-scalar bit-parity on this host (when it has the
    //! features); the dispatcher-level tests in `super` cover the selected
    //! path.
    use super::super::{axpy2_scalar, axpy_dot_scalar, axpy_scalar, dot_scalar};
    use super::*;

    fn lcg_data(n: usize, mut state: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
            })
            .collect()
    }

    #[test]
    fn every_simd_body_bit_matches_scalar_on_this_host() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 63, 64, 65, 130, 257] {
            let a = lcg_data(n, 21);
            let b = lcg_data(n, 22);
            // Safety: avx2 guarded by the probe above.
            // plos-lint: allow(U1): test-only direct kernel invocation
            // behind an explicit feature probe.
            unsafe {
                assert_eq!(dot_avx2(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits(), "dot n={n}");

                let mut want = lcg_data(n, 23);
                axpy_scalar(&mut want, 0.37, &a);
                let mut y = lcg_data(n, 23);
                axpy_avx2(&mut y, 0.37, &a);
                assert_eq!(y, want, "axpy n={n}");

                let mut want = lcg_data(n, 24);
                let want_d = axpy_dot_scalar(&mut want, -1.1, &b);
                let mut y = lcg_data(n, 24);
                let d = axpy_dot_avx2(&mut y, -1.1, &b);
                assert_eq!((y, d.to_bits()), (want, want_d.to_bits()), "axpy_dot n={n}");

                let mut want = lcg_data(n, 25);
                axpy2_scalar(&mut want, 0.8, &a, -0.2, &b);
                let mut y = lcg_data(n, 25);
                axpy2_avx2(&mut y, 0.8, &a, -0.2, &b);
                assert_eq!(y, want, "axpy2 n={n}");
            }
        }
    }
}
