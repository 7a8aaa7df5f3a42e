//! Shared cyclic coordinate-descent core for the PLOS dual QPs.
//!
//! [`crate::IncrementalQp`] drives this core over a borrowed row-major view
//! of its padded `Q` buffer; the solver sees only the leading `n` entries of
//! each row, so the padding is an allocation strategy, not a numerical
//! variant.
//!
//! # Bit-compatibility contract
//!
//! For systems no larger than [`QpSolverOptions::stall_dim`] the sweep
//! schedule, operation order, and every floating-point expression here match
//! the historical dense one-shot solver exactly, so the pinned golden-model
//! fixtures stay bit-for-bit valid (their largest dual has 62 variables).
//! Five restructurings are intentionally bit-silent:
//!
//! * the diagonal is read from a cached `diag` slice that holds the same
//!   `f64` bits as `Q[(i,i)]`;
//! * pairwise (SMO) moves fuse the two gradient rank-1 updates into one
//!   [`kernels::axpy2`] pass — per element the operation order is unchanged
//!   (`g += δ·Q_i[k]` then `g += −δ·Q_j[k]`), and elements are independent;
//! * a pair whose descent direction pushes a coordinate that sits at 0
//!   below it (`γ_i = 0` and slope `≥ 0`, or `γ_j = 0` and slope `≤ 0`) is
//!   skipped before the curvature, the division and the clamp: every branch
//!   of the move would yield `δ = ±0`, which changes nothing;
//! * gradient rows of at most [`kernels::SHORT_ROW`] entries are updated by
//!   the inlined loop inside `axpy`/`axpy2` rather than the dispatched SIMD
//!   body, with the same `mul` then `add` per element;
//! * `Q·γ` (the gradient initialization and the objective) runs the
//!   row-parallel [`kernels::matvec_strided`] that
//!   [`plos_linalg::Matrix::matvec`] runs, over the leading `n` entries of
//!   each padded row; each row is one [`kernels::dot`], so the result does
//!   not depend on the pool size.
//!
//! The unit test `skipping_zero_moves_and_short_rows_is_bit_silent` pins the
//! ±0 skip and the short-row path against a reference sweep that evaluates
//! every pair through the scalar kernel bodies.
//!
//! Systems larger than `stall_dim` additionally arm an objective-stagnation
//! cutoff: every [`QpSolverOptions::stall_every`] sweeps the objective is
//! evaluated, and if a whole window improves by less than
//! `stall_rel_tol · max(|obj|, 1)` the solve stops with `converged = false`
//! and `stalled = true`. This bounds the near-cyclic tail that cap-saturated
//! duals exhibit far below the `max_sweeps` wall without touching any solve
//! the fixtures pin.

use crate::qp::QpSolverOptions;
use plos_linalg::kernels;

/// A borrowed row-major view of one grouped QP `min ½ γᵀQγ − bᵀγ`,
/// `γ ≥ 0`, `Σ_{i∈g} γ_i ≤ cap_g` for disjoint groups.
///
/// Row `i` of `Q` occupies `data[i·stride .. i·stride + n]`; `stride ≥ n`
/// lets the incremental solver over-allocate rows for amortized growth.
pub(crate) struct CdProblem<'a> {
    /// Row-major `Q` storage (PSD, symmetric); only the leading `n` entries
    /// of each row are meaningful.
    pub data: &'a [f64],
    /// Distance between consecutive row starts, in elements (`≥ n`).
    pub stride: usize,
    /// Number of variables.
    pub n: usize,
    /// Cached diagonal `Q[(i,i)]`, same bits as in `data`.
    pub diag: &'a [f64],
    /// Linear term, length `n`.
    pub b: &'a [f64],
    /// `(member indices, cap)` per group; disjoint, members `< n`.
    pub groups: &'a [(Vec<usize>, f64)],
    /// Group id per variable (`usize::MAX` = ungrouped), length `n`.
    pub group_of: &'a [usize],
}

impl CdProblem<'_> {
    /// Row `i` of `Q` as a dense slice of length `n`.
    // Allowed: callers construct the view with `data.len() ≥ (n−1)·stride + n`
    // (checked by `debug_validate`), so the range is in bounds for `i < n`.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.stride;
        &self.data[start..start + self.n]
    }

    /// Debug-checks the structural invariants the solver indexes rely on.
    pub fn debug_validate(&self) {
        debug_assert!(self.stride >= self.n);
        debug_assert!(self.n == 0 || self.data.len() >= (self.n - 1) * self.stride + self.n);
        debug_assert_eq!(self.diag.len(), self.n);
        debug_assert_eq!(self.b.len(), self.n);
        debug_assert_eq!(self.group_of.len(), self.n);
        debug_assert!(self
            .groups
            .iter()
            .all(|(members, cap)| cap.is_finite() && members.iter().all(|&m| m < self.n)));
    }
}

/// What a [`solve_cd`] run did, beyond mutating `gamma` in place.
pub(crate) struct CdOutcome {
    /// Sweeps actually performed.
    pub sweeps: usize,
    /// Whether the tolerance was reached within the sweep budget.
    pub converged: bool,
    /// Whether the large-system stagnation cutoff stopped the solve.
    pub stalled: bool,
    /// Pair moves that lifted a shrunk coordinate back off its bound.
    pub shrink_reactivations: u64,
    /// Objective `½ γᵀQγ − bᵀγ` at the returned point.
    pub objective: f64,
}

/// Objective `½ γᵀQγ − bᵀγ`, same expression shape as the historical dense
/// objective (matvec, then two dots) so the value is bit-identical to it.
pub(crate) fn objective_of(p: &CdProblem<'_>, gamma: &[f64]) -> f64 {
    let qg = kernels::matvec_strided(p.data, p.stride, p.n, gamma);
    0.5 * kernels::dot(gamma, &qg) - kernels::dot(p.b, gamma)
}

/// Runs cyclic coordinate descent with liblinear-style shrinking on `gamma`
/// in place. The start is first clamped to `γ ≥ 0` and over-cap groups are
/// rescaled onto their caps. The projection is cheap (`O(n)`) but not always
/// a no-op even for a carried iterate: a cap-saturated group can overshoot
/// its cap by an ulp while the sweep loop tracks group sums incrementally,
/// and the rescale at the top of the next solve is part of the blessed
/// numeric trajectory.
///
/// The caller is responsible for finiteness checks on `Q`, `b`, and `gamma`.
// Allowed: `debug_validate` pins the invariants — `group_of` ids index
// `groups`, members index below `n`, and `gamma`/`grad`/bookkeeping vectors
// are all sized `n` locally — so every slice index below is invariant-backed.
#[allow(clippy::indexing_slicing)]
pub(crate) fn solve_cd(p: &CdProblem<'_>, gamma: &mut [f64], opts: &QpSolverOptions) -> CdOutcome {
    p.debug_validate();
    debug_assert_eq!(gamma.len(), p.n);
    let n = p.n;

    for g in gamma.iter_mut() {
        *g = g.max(0.0);
    }
    let mut group_sum: Vec<f64> =
        p.groups.iter().map(|(members, _)| members.iter().map(|&i| gamma[i]).sum()).collect();
    // Rescale any over-cap group onto its cap.
    for (gi, (members, cap)) in p.groups.iter().enumerate() {
        if group_sum[gi] > *cap && group_sum[gi] > 0.0 {
            let scale = cap / group_sum[gi];
            for &i in members {
                gamma[i] *= scale;
            }
            group_sum[gi] = *cap;
        }
    }

    // Maintain grad = Q·γ − b incrementally.
    let mut grad = kernels::matvec_strided(p.data, p.stride, p.n, gamma);
    for (g, &bi) in grad.iter_mut().zip(p.b) {
        *g -= bi;
    }

    // Active-set shrinking (liblinear-style): a coordinate pinned at 0
    // with positive gradient is KKT-satisfied where it stands; after it
    // has looked pinned for SHRINK_AFTER consecutive sweeps we stop
    // visiting it. Convergence on the shrunk set is only provisional —
    // a full verification sweep over every coordinate must also be
    // quiet before we declare the solution optimal.
    const SHRINK_AFTER: usize = 2;
    let shrink_tol = opts.tol.max(1e-12);
    let mut active = vec![true; n];
    let mut pinned_sweeps = vec![0usize; n];
    let mut verifying = false;

    // Large-system stagnation cutoff (see module docs). Armed only above
    // `stall_dim`, so every fixture-pinned solve keeps the legacy schedule.
    let stall_armed = n > opts.stall_dim && opts.stall_every > 0;
    let mut last_stall_obj = f64::INFINITY;
    let mut stalled = false;

    let mut sweeps = 0;
    let mut converged = false;
    let mut shrink_reactivations = 0_u64;
    while sweeps < opts.max_sweeps {
        sweeps += 1;
        let full_sweep = verifying;
        let mut max_delta = 0.0_f64;

        // Pass 1: single-coordinate updates with clipping against the
        // non-negativity bound and the remaining group budget.
        for i in 0..n {
            if !full_sweep && !active[i] {
                continue;
            }
            let qii = p.diag[i];
            let gi = p.group_of[i];
            let upper = if gi == usize::MAX {
                f64::INFINITY
            } else {
                // Cap minus the rest of the group.
                p.groups[gi].1 - (group_sum[gi] - gamma[i])
            };
            let new_val = if qii > 0.0 {
                (gamma[i] - grad[i] / qii).clamp(0.0, upper.max(0.0))
            } else {
                // Degenerate curvature: the objective is linear in γ_i;
                // move to whichever bound decreases it.
                if grad[i] > 0.0 {
                    0.0
                } else if grad[i] < 0.0 && upper.is_finite() {
                    upper.max(0.0)
                } else {
                    gamma[i]
                }
            };
            let delta = new_val - gamma[i];
            if delta != 0.0 {
                kernels::axpy(&mut grad, delta, p.row(i));
                gamma[i] += delta;
                if gi != usize::MAX {
                    group_sum[gi] += delta;
                }
                max_delta = max_delta.max(delta.abs());
            }
            // Shrink bookkeeping: count consecutive sweeps this
            // coordinate has sat at its lower bound wanting to stay.
            if gamma[i] == 0.0 && grad[i] > shrink_tol {
                pinned_sweeps[i] += 1;
                if pinned_sweeps[i] >= SHRINK_AFTER {
                    active[i] = false;
                }
            } else {
                pinned_sweeps[i] = 0;
                active[i] = true;
            }
        }

        // Pass 2: SMO-style pairwise updates inside each group. A move
        // of δ along e_i − e_j keeps the group sum constant, which is
        // the only way to redistribute mass once the cap is active
        // (single-coordinate moves are blocked at that vertex).
        for (members, _cap) in p.groups {
            for a in 0..members.len() {
                let i = members[a];
                // Hoisted out of the inner loop: the row slice and the two
                // diagonal reads per visit were the dominant pass-2 cost.
                let row_i = p.row(i);
                let di = p.diag[i];
                for &j in members.iter().skip(a + 1) {
                    // Two shrunk coordinates both sit at 0, so the pair
                    // move is clamped to [−0, 0] — skipping is lossless.
                    if !full_sweep && !active[i] && !active[j] {
                        continue;
                    }
                    let slope = grad[i] - grad[j];
                    // The descent direction pushes a coordinate that sits at
                    // 0 below it: every branch below yields δ = ±0, so skip
                    // the division and the clamp.
                    if (gamma[i] == 0.0 && slope >= 0.0) || (gamma[j] == 0.0 && slope <= 0.0) {
                        continue;
                    }
                    let curvature = di + p.diag[j] - 2.0 * row_i[j];
                    let lo = -gamma[i]; // keeps γ_i ≥ 0
                    let hi = gamma[j]; // keeps γ_j ≥ 0
                    let delta = if curvature > 0.0 {
                        (-slope / curvature).clamp(lo, hi)
                    } else if slope > 0.0 {
                        lo
                    } else if slope < 0.0 {
                        hi
                    } else {
                        0.0
                    };
                    if delta != 0.0 {
                        // One fused pass over the two rows; per element this
                        // is the same op order as two sequential axpys.
                        kernels::axpy2(&mut grad, delta, row_i, -delta, p.row(j));
                        gamma[i] += delta;
                        gamma[j] += -delta;
                        max_delta = max_delta.max(delta.abs());
                        // A pair move can lift a shrunk coordinate off
                        // its bound; put both back in the working set.
                        shrink_reactivations += u64::from(!active[i]) + u64::from(!active[j]);
                        active[i] = true;
                        active[j] = true;
                        pinned_sweeps[i] = 0;
                        pinned_sweeps[j] = 0;
                    }
                }
            }
        }

        if max_delta < opts.tol {
            if full_sweep || active.iter().all(|&a| a) {
                converged = true;
                break;
            }
            // Quiet on the shrunk set only: unshrink everything and run
            // one full verification sweep before declaring convergence.
            active.iter_mut().for_each(|a| *a = true);
            pinned_sweeps.iter_mut().for_each(|p| *p = 0);
            verifying = true;
        } else {
            verifying = false;
        }

        // Stagnation window closed without measurable progress: the solve
        // is grinding a near-cyclic cap-saturated tail; stop early. Never
        // checked mid-verification — a quiet verification sweep is about to
        // declare proper convergence on its own.
        if stall_armed && !verifying && sweeps % opts.stall_every == 0 {
            let obj = objective_of(p, gamma);
            if last_stall_obj - obj <= opts.stall_rel_tol * obj.abs().max(1.0) {
                stalled = true;
                break;
            }
            last_stall_obj = obj;
        }
    }

    let objective = objective_of(p, gamma);
    CdOutcome { sweeps, converged, stalled, shrink_reactivations, objective }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep as it stood before the ±0 skip and the short-row path: it
    /// evaluates every pair, shrunk or not, and updates the gradient through
    /// the scalar kernel bodies, the parity reference of the dispatched SIMD
    /// bodies. Everything else is `solve_cd` line for line.
    fn reference_cd(p: &CdProblem<'_>, gamma: &mut [f64], opts: &QpSolverOptions) -> CdOutcome {
        let n = p.n;
        for g in gamma.iter_mut() {
            *g = g.max(0.0);
        }
        let mut group_sum: Vec<f64> =
            p.groups.iter().map(|(members, _)| members.iter().map(|&i| gamma[i]).sum()).collect();
        for (gi, (members, cap)) in p.groups.iter().enumerate() {
            if group_sum[gi] > *cap && group_sum[gi] > 0.0 {
                let scale = cap / group_sum[gi];
                for &i in members {
                    gamma[i] *= scale;
                }
                group_sum[gi] = *cap;
            }
        }
        let mut grad = kernels::matvec_strided(p.data, p.stride, p.n, gamma);
        for (g, &bi) in grad.iter_mut().zip(p.b) {
            *g -= bi;
        }
        let shrink_tol = opts.tol.max(1e-12);
        let mut active = vec![true; n];
        let mut pinned_sweeps = vec![0usize; n];
        let mut verifying = false;
        let stall_armed = n > opts.stall_dim && opts.stall_every > 0;
        let mut last_stall_obj = f64::INFINITY;
        let (mut sweeps, mut converged, mut stalled, mut shrink_reactivations) =
            (0, false, false, 0);
        while sweeps < opts.max_sweeps {
            sweeps += 1;
            let full_sweep = verifying;
            let mut max_delta = 0.0_f64;
            for i in 0..n {
                if !full_sweep && !active[i] {
                    continue;
                }
                let qii = p.diag[i];
                let gi = p.group_of[i];
                let upper = if gi == usize::MAX {
                    f64::INFINITY
                } else {
                    p.groups[gi].1 - (group_sum[gi] - gamma[i])
                };
                let new_val = if qii > 0.0 {
                    (gamma[i] - grad[i] / qii).clamp(0.0, upper.max(0.0))
                } else if grad[i] > 0.0 {
                    0.0
                } else if grad[i] < 0.0 && upper.is_finite() {
                    upper.max(0.0)
                } else {
                    gamma[i]
                };
                let delta = new_val - gamma[i];
                if delta != 0.0 {
                    kernels::axpy_scalar(&mut grad, delta, p.row(i));
                    gamma[i] += delta;
                    if gi != usize::MAX {
                        group_sum[gi] += delta;
                    }
                    max_delta = max_delta.max(delta.abs());
                }
                if gamma[i] == 0.0 && grad[i] > shrink_tol {
                    pinned_sweeps[i] += 1;
                    if pinned_sweeps[i] >= 2 {
                        active[i] = false;
                    }
                } else {
                    pinned_sweeps[i] = 0;
                    active[i] = true;
                }
            }
            for (members, _cap) in p.groups {
                for a in 0..members.len() {
                    let i = members[a];
                    for &j in members.iter().skip(a + 1) {
                        let curvature = p.diag[i] + p.diag[j] - 2.0 * p.row(i)[j];
                        let slope = grad[i] - grad[j];
                        let (lo, hi) = (-gamma[i], gamma[j]);
                        let delta = if curvature > 0.0 {
                            (-slope / curvature).clamp(lo, hi)
                        } else if slope > 0.0 {
                            lo
                        } else if slope < 0.0 {
                            hi
                        } else {
                            0.0
                        };
                        if delta != 0.0 {
                            kernels::axpy2_scalar(&mut grad, delta, p.row(i), -delta, p.row(j));
                            gamma[i] += delta;
                            gamma[j] += -delta;
                            max_delta = max_delta.max(delta.abs());
                            shrink_reactivations += u64::from(!active[i]) + u64::from(!active[j]);
                            active[i] = true;
                            active[j] = true;
                            pinned_sweeps[i] = 0;
                            pinned_sweeps[j] = 0;
                        }
                    }
                }
            }
            if max_delta < opts.tol {
                if full_sweep || active.iter().all(|&a| a) {
                    converged = true;
                    break;
                }
                active.iter_mut().for_each(|a| *a = true);
                pinned_sweeps.iter_mut().for_each(|p| *p = 0);
                verifying = true;
            } else {
                verifying = false;
            }
            if stall_armed && !verifying && sweeps % opts.stall_every == 0 {
                let obj = objective_of(p, gamma);
                if last_stall_obj - obj <= opts.stall_rel_tol * obj.abs().max(1.0) {
                    stalled = true;
                    break;
                }
                last_stall_obj = obj;
            }
        }
        let objective = objective_of(p, gamma);
        CdOutcome { sweeps, converged, stalled, shrink_reactivations, objective }
    }

    /// Deterministic pseudo-random stream in `[-1, 1)`.
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
    }

    /// A random grouped QP in padded row-major form: `Q` is the Gram matrix
    /// of `n` vectors in `rank` dimensions (singular once `n > rank`), some
    /// of them zero (zero-curvature rows) and some repeated (zero-curvature
    /// pairs); `groups` capped groups share the first `n − hard` variables
    /// round robin, and the last `hard` variables stay ungrouped.
    struct Random {
        data: Vec<f64>,
        stride: usize,
        n: usize,
        diag: Vec<f64>,
        b: Vec<f64>,
        groups: Vec<(Vec<usize>, f64)>,
        group_of: Vec<usize>,
    }

    impl Random {
        fn new(n: usize, rank: usize, groups: usize, hard: usize, state: &mut u64) -> Random {
            let mut z: Vec<Vec<f64>> = Vec::with_capacity(n);
            for i in 0..n {
                let pick = lcg(state);
                z.push(if pick < -0.85 {
                    vec![0.0; rank]
                } else if pick < -0.7 && i > 0 {
                    z[(i * 7) % i].clone()
                } else {
                    (0..rank).map(|_| lcg(state)).collect()
                });
            }
            let stride = n + 3;
            let mut data = vec![0.0; n * stride];
            for i in 0..n {
                for j in 0..n {
                    data[i * stride + j] = kernels::dot_scalar(&z[i], &z[j]);
                }
            }
            let diag = (0..n).map(|i| data[i * stride + i]).collect();
            // Mostly positive gains, so small caps saturate.
            let b = (0..n).map(|_| 0.6 + lcg(state)).collect();
            let grouped = n - hard;
            let mut group_list: Vec<(Vec<usize>, f64)> =
                (0..groups).map(|g| (Vec::new(), [0.05, 0.5, 2.0][g % 3])).collect();
            let mut group_of = vec![usize::MAX; n];
            for i in 0..grouped {
                group_list[i % groups].0.push(i);
                group_of[i] = i % groups;
            }
            Random { data, stride, n, diag, b, groups: group_list, group_of }
        }

        fn problem(&self) -> CdProblem<'_> {
            CdProblem {
                data: &self.data,
                stride: self.stride,
                n: self.n,
                diag: &self.diag,
                b: &self.b,
                groups: &self.groups,
                group_of: &self.group_of,
            }
        }
    }

    #[test]
    fn skipping_zero_moves_and_short_rows_is_bit_silent() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let library = QpSolverOptions::default();
        // A tight tolerance and an eager stagnation cutoff, so that the
        // stalled exit runs too.
        let eager = QpSolverOptions {
            tol: 1e-15,
            stall_dim: 8,
            stall_every: 3,
            stall_rel_tol: 1e-3,
            ..QpSolverOptions::default()
        };
        let short = kernels::SHORT_ROW;
        let sizes = [1, 2, 5, 9, 17, short - 1, short, short + 1, 40, library.stall_dim + 1, 90];
        let mut state = 0x0b17_5113_u64;
        for &n in &sizes {
            for (rank, groups, hard) in [(3, 1, 2), (3, 1, 0), (2, 3, 1), (6, 2, 3), (n, 1, 0)] {
                let hard = hard.min(n - 1);
                for (start, opts) in [&library, &library, &library, &eager].into_iter().enumerate()
                {
                    let qp = Random::new(n, rank, groups, hard, &mut state);
                    let p = qp.problem();
                    // A cold start, then warm starts in [0, 1), [0, 2) and
                    // [0, 3), which often exceed the smaller caps.
                    let warm: Vec<f64> =
                        (0..n).map(|_| (lcg(&mut state) + 1.0) * 0.5 * start as f64).collect();
                    let (mut fast, mut slow) = (warm.clone(), warm);
                    let got = solve_cd(&p, &mut fast, opts);
                    let want = reference_cd(&p, &mut slow, opts);
                    let case =
                        format!("n={n} rank={rank} groups={groups} hard={hard} start={start}");
                    assert_eq!(bits(&fast), bits(&slow), "γ: {case}");
                    assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "{case}");
                    assert_eq!(got.sweeps, want.sweeps, "sweeps: {case}");
                    assert_eq!(got.shrink_reactivations, want.shrink_reactivations, "{case}");
                    assert_eq!((got.converged, got.stalled), (want.converged, want.stalled));
                }
            }
        }
    }
}
