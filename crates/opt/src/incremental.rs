//! Persistent grouped QP that grows by one constraint at a time — the one
//! front-end of the PLOS dual solver.
//!
//! A cutting-plane loop appends a single constraint and re-solves, so
//! rebuilding `Q`, `b`, and the group lists from scratch every round would
//! cost quadratic work per round. [`IncrementalQp`] owns the QP state
//! across solves instead:
//!
//! * `Q` lives in one row-major buffer with a padded stride that grows
//!   geometrically, so [`IncrementalQp::append`] writes one new row plus the
//!   mirrored column — `O(n)` — and never reallocates per solve;
//! * group member lists and the per-variable group map are extended in place;
//! * the iterate `γ` is owned and carried between solves as the warm start
//!   with no cloning in either direction — appends only ever add a zero
//!   coordinate, and the solution stays inside the solver (read it with
//!   [`IncrementalQp::gamma`]).
//!
//! One-shot solves (the device-local prox dual of Eq. (22)) append their
//! whole working set to a fresh instance and solve it cold. Every solve runs
//! the shared coordinate-descent core (the private `cd` module) over the
//! leading `n` entries of each row, so a carried iterate and a from-scratch
//! rebuild warm-started at the same point produce bit-identical results
//! (property-tested in `incremental_matches_rebuilt_grouped_qp_bitwise`).

use crate::cd;
use crate::error::OptError;
use crate::qp::QpSolverOptions;
use plos_linalg::LinalgError;

/// Outcome of one [`IncrementalQp::solve`] call. The iterate itself stays
/// inside the solver (read it with [`IncrementalQp::gamma`]) so carrying the
/// warm start costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct QpSolveStats {
    /// Objective `½ γᵀQγ − bᵀγ` at the returned point.
    pub objective: f64,
    /// Sweeps actually performed.
    pub sweeps: usize,
    /// Whether the tolerance was reached within the sweep budget.
    pub converged: bool,
    /// Whether the large-system stagnation cutoff stopped the solve early.
    pub stalled: bool,
    /// Pair moves that lifted a shrunk coordinate back off its bound.
    pub shrink_reactivations: u64,
}

/// A grouped QP `min ½ γᵀQγ − bᵀγ`, `γ ≥ 0`, `Σ_{i∈g} γ_i ≤ cap_g`, that
/// grows one variable per [`IncrementalQp::append`] and keeps its iterate
/// warm across [`IncrementalQp::solve`] calls.
///
/// Groups are fixed at construction (one per cap, initially empty); each
/// appended variable either joins one group or stays ungrouped (only
/// `γ ≥ 0`, used for hard constraints).
///
/// ```
/// use plos_opt::{IncrementalQp, QpSolverOptions};
/// # fn main() -> Result<(), plos_opt::OptError> {
/// // min ½(γ₀² + γ₁²) − γ₀ − 2γ₁  s.t. γ ≥ 0, γ₀ + γ₁ ≤ 1
/// let mut qp = IncrementalQp::new(vec![1.0])?;
/// qp.append(Some(0), 1.0, &[1.0])?; // Q row against itself only
/// qp.append(Some(0), 2.0, &[0.0, 1.0])?; // ⟨s₁,s₀⟩ then ⟨s₁,s₁⟩
/// let stats = qp.solve(&QpSolverOptions::default());
/// assert!(stats.converged);
/// assert!(qp.gamma()[1] > qp.gamma()[0]); // larger linear gain wins the cap
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalQp {
    /// Row-major `Q`; row `i` starts at `i * stride` and its first `n`
    /// entries are meaningful, the rest zero padding for future columns.
    data: Vec<f64>,
    /// Allocated row length; grows geometrically so appends stay `O(n)`
    /// amortized.
    stride: usize,
    /// Current number of variables.
    n: usize,
    /// Cached diagonal `Q[(i,i)]`.
    diag: Vec<f64>,
    /// Linear term.
    b: Vec<f64>,
    /// `(member indices, cap)` per group; fixed count, members grow.
    groups: Vec<(Vec<usize>, f64)>,
    /// Group id per variable (`usize::MAX` = ungrouped).
    group_of: Vec<usize>,
    /// Owned iterate; doubles as the warm start for the next solve.
    gamma: Vec<f64>,
}

impl IncrementalQp {
    /// Creates an empty QP with one capped-sum group per entry of `caps`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::OutOfRange`] if a cap is negative or not finite.
    pub fn new(caps: Vec<f64>) -> Result<Self, LinalgError> {
        for &cap in &caps {
            if !(cap.is_finite() && cap >= 0.0) {
                return Err(LinalgError::OutOfRange {
                    op: "IncrementalQp::new (group cap)",
                    value: cap,
                });
            }
        }
        Ok(IncrementalQp {
            data: Vec::new(),
            stride: 0,
            n: 0,
            diag: Vec::new(),
            b: Vec::new(),
            groups: caps.into_iter().map(|cap| (Vec::new(), cap)).collect(),
            group_of: Vec::new(),
            gamma: Vec::new(),
        })
    }

    /// Number of variables appended so far.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of capped-sum groups (fixed at construction).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The current iterate; after [`IncrementalQp::solve`] this is the
    /// (feasible) solution.
    pub fn gamma(&self) -> &[f64] {
        &self.gamma
    }

    /// Row `i` of `Q` (length [`IncrementalQp::dim`]), or `None` if
    /// `i >= dim()`.
    pub fn q_row(&self, i: usize) -> Option<&[f64]> {
        if i >= self.n {
            return None;
        }
        let start = i * self.stride;
        self.data.get(start..start + self.n)
    }

    /// Appends one variable: its linear gain `b_i`, its `Q` row against
    /// every existing variable plus itself (`q_row.len() == dim() + 1`,
    /// diagonal last), and the group it joins (`None` = only `γ_i ≥ 0`).
    /// The new coordinate starts at `γ_i = 0`, which keeps the carried
    /// iterate feasible. Cost is `O(n)` amortized — one row write plus the
    /// mirrored column.
    ///
    /// # Errors
    ///
    /// * [`OptError::Linalg`] ([`LinalgError::DimensionMismatch`]) if
    ///   `q_row` has the wrong length or `group` is out of range.
    /// * [`OptError::NonFinite`] if `b_i` or `q_row` contains NaN or
    ///   infinite entries.
    // Allowed: `stride >= n + 1` is guaranteed by the growth branch above the
    // writes, so every mirrored-column index `i * stride + n` with `i < n`
    // lands inside `data`; `groups[g]` is range-checked right before.
    #[allow(clippy::indexing_slicing)]
    pub fn append(
        &mut self,
        group: Option<usize>,
        b_i: f64,
        q_row: &[f64],
    ) -> Result<(), OptError> {
        let n = self.n;
        if q_row.len() != n + 1 {
            return Err(OptError::Linalg(LinalgError::DimensionMismatch {
                op: "IncrementalQp::append (Q row)",
                expected: n + 1,
                actual: q_row.len(),
            }));
        }
        if let Some(g) = group {
            if g >= self.groups.len() {
                return Err(OptError::Linalg(LinalgError::DimensionMismatch {
                    op: "IncrementalQp::append (group id)",
                    expected: self.groups.len(),
                    actual: g,
                }));
            }
        }
        if !b_i.is_finite() {
            return Err(OptError::NonFinite { what: "b vector" });
        }
        if !q_row.iter().all(|v| v.is_finite()) {
            return Err(OptError::NonFinite { what: "Q matrix" });
        }
        if self.stride < n + 1 {
            self.grow_stride((n + 1).next_power_of_two().max(8));
        }
        // Mirror the new column into the existing rows' padding slots, then
        // lay down the new row followed by zero padding up to the stride.
        for (i, &q_in) in q_row.iter().take(n).enumerate() {
            self.data[i * self.stride + n] = q_in;
        }
        self.data.extend_from_slice(q_row);
        self.data.resize((n + 1) * self.stride, 0.0);
        self.diag.push(q_row[n]);
        self.b.push(b_i);
        self.gamma.push(0.0);
        match group {
            Some(g) => {
                self.groups[g].0.push(n);
                self.group_of.push(g);
            }
            None => self.group_of.push(usize::MAX),
        }
        self.n = n + 1;
        Ok(())
    }

    /// Re-lays the rows out with a wider stride (geometric growth keeps the
    /// total copy work across a whole append sequence at one rebuild's
    /// worth).
    // Allowed: `new_stride >= n` and both buffers are sized `rows * stride`
    // by construction, so the per-row copy ranges are in bounds.
    #[allow(clippy::indexing_slicing)]
    fn grow_stride(&mut self, new_stride: usize) {
        debug_assert!(new_stride >= self.stride && new_stride > self.n);
        let mut data = vec![0.0; self.n * new_stride];
        for i in 0..self.n {
            let src = i * self.stride;
            let dst = i * new_stride;
            data[dst..dst + self.n].copy_from_slice(&self.data[src..src + self.n]);
        }
        self.data = data;
        self.stride = new_stride;
    }

    /// Replaces the carried iterate, e.g. to reset a benchmark to a cold or
    /// a chosen warm start. The point is stored as given; the next
    /// [`IncrementalQp::solve`] projects it to feasibility exactly once
    /// (coordinates clamped to `≥ 0`, then each over-cap group rescaled
    /// onto its cap).
    ///
    /// # Errors
    ///
    /// * [`OptError::Linalg`] ([`LinalgError::DimensionMismatch`]) on a
    ///   length mismatch.
    /// * [`OptError::NonFinite`] if the point contains NaN or infinity.
    pub fn set_warm(&mut self, warm: &[f64]) -> Result<(), OptError> {
        if warm.len() != self.n {
            return Err(OptError::Linalg(LinalgError::DimensionMismatch {
                op: "IncrementalQp::set_warm",
                expected: self.n,
                actual: warm.len(),
            }));
        }
        if !warm.iter().all(|g| g.is_finite()) {
            return Err(OptError::NonFinite { what: "warm start" });
        }
        self.gamma.clear();
        self.gamma.extend_from_slice(warm);
        Ok(())
    }

    /// Returns `true` if the carried iterate satisfies all constraints
    /// within `tol`.
    // Allowed: group members are pinned below `n == gamma.len()` by `append`.
    #[allow(clippy::indexing_slicing)]
    pub fn is_feasible(&self, tol: f64) -> bool {
        self.gamma.iter().all(|&g| g >= -tol)
            && self.groups.iter().all(|(members, cap)| {
                members.iter().map(|&i| self.gamma[i]).sum::<f64>() <= cap + tol
            })
    }

    /// Solves the QP in place by the shared coordinate-descent core, warm
    /// from the carried iterate. The `O(n)` feasibility projection runs
    /// before every solve — it is *not* always a no-op, because a
    /// cap-saturated group can overshoot its cap by an ulp while the sweep
    /// loop tracks group sums incrementally, and the next solve must rescale
    /// that group back onto the cap to stay bit-compatible.
    // plos-lint: allow(R3): infallible by construction — every fallible
    // input is validated by `append`/`set_warm` (which return Result), so
    // this runs on already-validated state and cannot fail or panic.
    pub fn solve(&mut self, opts: &QpSolverOptions) -> QpSolveStats {
        let p = cd::CdProblem {
            data: &self.data,
            stride: self.stride,
            n: self.n,
            diag: &self.diag,
            b: &self.b,
            groups: &self.groups,
            group_of: &self.group_of,
        };
        let out = cd::solve_cd(&p, &mut self.gamma, opts);
        #[cfg(feature = "strict-invariants")]
        debug_assert!(self.is_feasible(1e-8), "QP solution violates Eq. (18) dual feasibility");
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            out.objective.is_finite(),
            "QP objective is not finite at the returned point"
        );
        plos_obs::emit(
            "qp_solve",
            &[
                ("dim", self.n.into()),
                ("sweeps", out.sweeps.into()),
                ("converged", out.converged.into()),
                ("shrink_reactivations", out.shrink_reactivations.into()),
                ("objective", out.objective.into()),
            ],
        );
        QpSolveStats {
            objective: out.objective,
            sweeps: out.sweeps,
            converged: out.converged,
            stalled: out.stalled,
            shrink_reactivations: out.shrink_reactivations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_linalg::Matrix;

    fn opts() -> QpSolverOptions {
        QpSolverOptions::default()
    }

    /// Builds a QP from a dense symmetric `Q` (lower triangle read), `b`,
    /// and `(members, cap)` groups, one append per variable.
    fn dense(
        q: &Matrix,
        b: &[f64],
        groups: &[(Vec<usize>, f64)],
    ) -> Result<IncrementalQp, OptError> {
        let mut qp = IncrementalQp::new(groups.iter().map(|(_, cap)| *cap).collect())?;
        for (i, &b_i) in b.iter().enumerate() {
            let row: Vec<f64> = (0..=i).map(|j| q[(i, j)]).collect();
            let group = groups.iter().position(|(members, _)| members.contains(&i));
            qp.append(group, b_i, &row)?;
        }
        Ok(qp)
    }

    /// Objective `½ γᵀQγ − bᵀγ` at the carried iterate, recomputed densely.
    fn objective(qp: &IncrementalQp) -> f64 {
        let g = qp.gamma();
        let quad: f64 = (0..qp.dim())
            .map(|i| g[i] * qp.q_row(i).unwrap().iter().zip(g).map(|(q, x)| q * x).sum::<f64>())
            .sum();
        0.5 * quad - qp.b.iter().zip(g).map(|(b, x)| b * x).sum::<f64>()
    }

    /// Rebuilds `qp` from scratch the way the historical per-round dense
    /// solve did — only the non-empty groups, every variable appended in
    /// order — warm-started at `warm`.
    fn rebuild(qp: &IncrementalQp, warm: &[f64]) -> IncrementalQp {
        let live: Vec<usize> =
            (0..qp.num_groups()).filter(|&g| !qp.groups[g].0.is_empty()).collect();
        let mut fresh = IncrementalQp::new(live.iter().map(|&g| qp.groups[g].1).collect()).unwrap();
        for i in 0..qp.dim() {
            let group = live.iter().position(|&g| g == qp.group_of[i]);
            fresh.append(group, qp.b[i], &qp.q_row(i).unwrap()[..=i]).unwrap();
        }
        fresh.set_warm(warm).unwrap();
        fresh
    }

    /// Deterministic pseudo-random stream (no external crates needed here).
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
    }

    #[test]
    fn incremental_matches_rebuilt_grouped_qp_bitwise() {
        // Randomized append/solve interleavings: after every solve the
        // incremental iterate must equal, bit for bit, a from-scratch
        // rebuild solved from the same warm start.
        let mut state = 0x5eed_cafe_f00d_u64;
        for trial in 0..8 {
            let caps = vec![0.9, 1.7, 0.4];
            let mut inc = IncrementalQp::new(caps).unwrap();
            let mut warm: Vec<f64> = Vec::new();
            // Base vectors make Q an honest PSD Gram matrix.
            let dim = 4;
            let mut vecs: Vec<Vec<f64>> = Vec::new();
            for step in 0..12 {
                let s: Vec<f64> = (0..dim).map(|_| lcg(&mut state)).collect();
                let mut row: Vec<f64> =
                    vecs.iter().map(|t| t.iter().zip(&s).map(|(a, b)| a * b).sum()).collect();
                row.push(s.iter().map(|a| a * a).sum());
                vecs.push(s);
                let group = match step % 4 {
                    0 => Some(0),
                    1 => Some(1),
                    2 => Some(2),
                    _ => None, // ungrouped (hard-constraint shape)
                };
                let b_i = lcg(&mut state) + 1.0;
                inc.append(group, b_i, &row).unwrap();
                warm.push(0.0);
                // Solve at every other step to exercise carried warm starts
                // of varying staleness.
                if step % 2 == 1 {
                    let mut reference = rebuild(&inc, &warm);
                    let ref_stats = reference.solve(&opts());
                    let stats = inc.solve(&opts());
                    assert_eq!(
                        inc.gamma().iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
                        reference.gamma().iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
                        "trial {trial} step {step}: iterates diverged"
                    );
                    assert_eq!(
                        stats.objective.to_bits(),
                        ref_stats.objective.to_bits(),
                        "trial {trial} step {step}: objectives diverged"
                    );
                    assert_eq!(stats.sweeps, ref_stats.sweeps);
                    assert_eq!(stats.converged, ref_stats.converged);
                    warm = inc.gamma().to_vec();
                }
            }
        }
    }

    #[test]
    fn append_validates_inputs() {
        let mut qp = IncrementalQp::new(vec![1.0]).unwrap();
        assert!(qp.append(Some(0), 1.0, &[1.0, 2.0]).is_err(), "row too long");
        assert!(qp.append(Some(3), 1.0, &[1.0]).is_err(), "group out of range");
        assert!(qp.append(Some(0), f64::NAN, &[1.0]).is_err(), "non-finite b");
        assert!(qp.append(Some(0), 1.0, &[f64::INFINITY]).is_err(), "non-finite row");
        assert_eq!(qp.dim(), 0, "failed appends must not mutate");
        qp.append(Some(0), 1.0, &[1.0]).unwrap();
        assert_eq!(qp.dim(), 1);
    }

    #[test]
    fn new_rejects_bad_caps() {
        for cap in [f64::NAN, f64::INFINITY, -1.0] {
            let err = IncrementalQp::new(vec![cap]).unwrap_err();
            assert!(matches!(err, LinalgError::OutOfRange { .. }), "cap {cap}: {err:?}");
        }
    }

    #[test]
    fn empty_qp_solves_trivially() {
        let mut qp = IncrementalQp::new(vec![1.0]).unwrap();
        let stats = qp.solve(&opts());
        assert!(stats.converged);
        assert_eq!(stats.objective, 0.0);
        assert!(qp.gamma().is_empty());
    }

    #[test]
    fn stride_growth_preserves_rows() {
        // Push enough variables to force several stride doublings, then
        // check every row against independently recomputed dot products.
        let mut state = 0xabcdef_u64;
        let dim = 3;
        let mut qp = IncrementalQp::new(vec![5.0]).unwrap();
        let mut vecs: Vec<Vec<f64>> = Vec::new();
        for _ in 0..40 {
            let s: Vec<f64> = (0..dim).map(|_| lcg(&mut state)).collect();
            let mut row: Vec<f64> =
                vecs.iter().map(|t| t.iter().zip(&s).map(|(a, b)| a * b).sum()).collect();
            row.push(s.iter().map(|a| a * a).sum());
            vecs.push(s);
            qp.append(Some(0), 1.0, &row).unwrap();
        }
        for i in 0..40 {
            for j in 0..40 {
                let expect: f64 = vecs[i].iter().zip(&vecs[j]).map(|(a, b)| a * b).sum();
                assert_eq!(qp.q_row(i).unwrap()[j].to_bits(), expect.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn set_warm_validates_and_next_solve_projects() {
        let mut qp = IncrementalQp::new(vec![1.0]).unwrap();
        qp.append(Some(0), 1.0, &[1.0]).unwrap();
        qp.append(Some(0), 1.0, &[0.0, 1.0]).unwrap();
        assert!(qp.set_warm(&[0.1]).is_err(), "length mismatch");
        assert!(qp.set_warm(&[0.1, f64::NAN]).is_err(), "non-finite");
        // The point is stored verbatim...
        qp.set_warm(&[0.25, 0.5]).unwrap();
        assert_eq!(qp.gamma()[0].to_bits(), 0.25_f64.to_bits());
        assert_eq!(qp.gamma()[1].to_bits(), 0.5_f64.to_bits());
        // ...and an infeasible one is projected by the next solve.
        qp.set_warm(&[-3.0, 4.0]).unwrap();
        let _ = qp.solve(&opts());
        assert!(qp.is_feasible(1e-9));
    }

    #[test]
    fn carried_iterate_stays_feasible_across_appends_and_solves() {
        let mut state = 0x1234_u64;
        let mut qp = IncrementalQp::new(vec![0.7, 0.3]).unwrap();
        let mut vecs: Vec<Vec<f64>> = Vec::new();
        for step in 0..20 {
            let s: Vec<f64> = (0..3).map(|_| lcg(&mut state)).collect();
            let mut row: Vec<f64> =
                vecs.iter().map(|t| t.iter().zip(&s).map(|(a, b)| a * b).sum()).collect();
            row.push(s.iter().map(|a| a * a).sum::<f64>() + 0.1);
            vecs.push(s);
            qp.append(Some(step % 2), 0.8, &row).unwrap();
            let _ = qp.solve(&opts());
            assert!(qp.is_feasible(1e-9), "step {step}");
        }
    }

    #[test]
    fn unconstrained_interior_optimum() {
        // min ½γᵀIγ − bᵀγ with b ≥ 0 and loose cap: optimum γ = b.
        let mut qp =
            dense(&Matrix::identity(3), &[0.5, 1.0, 0.25], &[(vec![0, 1, 2], 100.0)]).unwrap();
        let stats = qp.solve(&opts());
        assert!(stats.converged);
        for (g, b) in qp.gamma().iter().zip([0.5, 1.0, 0.25]) {
            assert!((g - b).abs() < 1e-8);
        }
    }

    #[test]
    fn nonneg_constraint_binds() {
        // Negative linear gain => γ stays 0.
        let mut qp = dense(&Matrix::identity(2), &[-1.0, -2.0], &[]).unwrap();
        let stats = qp.solve(&opts());
        assert_eq!(qp.gamma(), &[0.0, 0.0]);
        assert_eq!(stats.objective, 0.0);
    }

    #[test]
    fn cap_binds_and_allocates_to_best_coordinate() {
        // Equal curvature, one coordinate with larger gain, tight cap.
        let mut qp = dense(&Matrix::identity(2), &[1.0, 2.0], &[(vec![0, 1], 1.0)]).unwrap();
        let _ = qp.solve(&opts());
        assert!(qp.is_feasible(1e-9));
        let total: f64 = qp.gamma().iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "cap should be active, total={total}");
        // KKT: cap multiplier μ = 1 gives γ = (1−μ, 2−μ)₊ = (0, 1).
        assert!(qp.gamma()[0].abs() < 1e-6);
        assert!((qp.gamma()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multiple_independent_groups() {
        let groups = [(vec![0, 1], 1.0), (vec![2, 3], 10.0)];
        let mut qp = dense(&Matrix::identity(4), &[5.0, 5.0, 0.1, 0.1], &groups).unwrap();
        let _ = qp.solve(&opts());
        let g = qp.gamma();
        assert!((g[0] + g[1] - 1.0).abs() < 1e-8, "group 0 cap active");
        // Group 1 cap slack: interior optimum = b.
        assert!((g[2] - 0.1).abs() < 1e-8);
        assert!((g[3] - 0.1).abs() < 1e-8);
    }

    #[test]
    fn zero_cap_pins_group_to_zero() {
        let mut qp = dense(&Matrix::identity(2), &[3.0, 3.0], &[(vec![0, 1], 0.0)]).unwrap();
        let _ = qp.solve(&opts());
        assert_eq!(qp.gamma(), &[0.0, 0.0]);
    }

    #[test]
    fn correlated_q_matches_kkt() {
        // Q = [[2,1],[1,2]], b = (1,1): unconstrained optimum Qγ = b => γ = (1/3,1/3).
        let q = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let mut qp = dense(&q, &[1.0, 1.0], &[]).unwrap();
        let _ = qp.solve(&opts());
        assert!((qp.gamma()[0] - 1.0 / 3.0).abs() < 1e-8);
        assert!((qp.gamma()[1] - 1.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn zero_curvature_linear_coordinate() {
        // Q has a zero row/col: variable 1 is linear with positive gain and a cap.
        let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let mut qp = dense(&q, &[1.0, 1.0], &[(vec![1], 2.0)]).unwrap();
        let _ = qp.solve(&opts());
        assert!((qp.gamma()[0] - 1.0).abs() < 1e-8);
        assert!((qp.gamma()[1] - 2.0).abs() < 1e-8, "linear coordinate rides to its cap");
    }

    #[test]
    fn warm_start_infeasible_is_projected() {
        let mut qp = dense(&Matrix::identity(2), &[1.0, 1.0], &[(vec![0, 1], 1.0)]).unwrap();
        qp.set_warm(&[-5.0, 10.0]).unwrap();
        let _ = qp.solve(&opts());
        assert!(qp.is_feasible(1e-9));
        // Optimum splits the cap evenly by symmetry.
        assert!((qp.gamma()[0] - 0.5).abs() < 1e-6);
        assert!((qp.gamma()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn warm_start_matches_cold_start() {
        let q = Matrix::from_rows(&[vec![3.0, 0.5], vec![0.5, 2.0]]).unwrap();
        let mut qp = dense(&q, &[1.0, 4.0], &[(vec![0, 1], 1.5)]).unwrap();
        let cold = qp.clone().solve(&opts());
        qp.set_warm(&[0.7, 0.7]).unwrap();
        let warm = qp.solve(&opts());
        assert!((cold.objective - warm.objective).abs() < 1e-8);
    }

    #[test]
    fn objective_decreases_from_feasible_start() {
        let q = Matrix::from_rows(&[vec![2.0, 0.3], vec![0.3, 1.0]]).unwrap();
        let mut qp = dense(&q, &[1.0, -0.2], &[(vec![0, 1], 0.8)]).unwrap();
        qp.set_warm(&[0.4, 0.4]).unwrap();
        let before = objective(&qp);
        let stats = qp.solve(&opts());
        assert!(stats.objective <= before + 1e-12);
        assert!((objective(&qp) - stats.objective).abs() < 1e-12);
    }

    #[test]
    fn is_feasible_rejects_bad_points() {
        let mut qp = dense(&Matrix::identity(2), &[0.0, 0.0], &[(vec![0, 1], 1.0)]).unwrap();
        for (point, feasible) in [([0.5, 0.5], true), ([-0.1, 0.5], false), ([0.8, 0.8], false)] {
            qp.set_warm(&point).unwrap();
            assert_eq!(qp.is_feasible(1e-9), feasible, "{point:?}");
        }
    }

    #[test]
    fn solve_rejects_bad_inputs_with_err() {
        assert!(matches!(
            dense(&Matrix::identity(2), &[1.0, f64::NAN], &[]),
            Err(OptError::NonFinite { what: "b vector" })
        ));
        assert!(matches!(
            dense(&Matrix::from_diagonal(&[f64::NAN, 1.0]), &[0.0, 0.0], &[]),
            Err(OptError::NonFinite { what: "Q matrix" })
        ));
        let mut qp = dense(&Matrix::identity(2), &[0.0, 0.0], &[]).unwrap();
        assert!(matches!(
            qp.set_warm(&[0.0; 3]),
            Err(OptError::Linalg(LinalgError::DimensionMismatch { .. }))
        ));
        assert!(matches!(
            qp.set_warm(&[0.0, f64::INFINITY]),
            Err(OptError::NonFinite { what: "warm start" })
        ));
        assert!(qp.q_row(2).is_none(), "row past dim() is None, not a panic");
    }

    #[test]
    fn shrinking_reaches_unique_optimum_from_any_start() {
        // Strictly convex random QP: the optimum is unique, so the shrunk
        // working-set path and every warm start must land on the same point.
        let n = 12;
        let mut state = 0x9e3779b97f4a7c15_u64;
        let a =
            Matrix::from_row_major(n, n, (0..n * n).map(|_| lcg(&mut state)).collect()).unwrap();
        let mut q = a.transpose().matmul(&a).unwrap();
        q.add_diagonal(0.5);
        // Mostly-negative gains pin most coordinates at 0 and exercise the
        // shrink/verify cycle.
        let b: Vec<f64> =
            (0..n).map(|i| if i % 4 == 0 { 1.0 } else { -1.0 + 0.1 * lcg(&mut state) }).collect();
        let mut qp = dense(&q, &b, &[(vec![0, 4, 8], 0.7)]).unwrap();
        let mut cold_qp = qp.clone();
        let cold = cold_qp.solve(&opts());
        assert!(cold.converged);
        assert!(cold_qp.is_feasible(1e-9));
        for trial in 0..4 {
            let warm: Vec<f64> = (0..n).map(|_| lcg(&mut state).abs() * (trial as f64)).collect();
            qp.set_warm(&warm).unwrap();
            let sol = qp.solve(&opts());
            assert!(sol.converged, "trial {trial}");
            assert!((sol.objective - cold.objective).abs() < 1e-7, "trial {trial}");
            for (g, c) in qp.gamma().iter().zip(cold_qp.gamma()) {
                assert!((g - c).abs() < 1e-5, "trial {trial}: {g} vs {c}");
            }
        }
    }

    #[test]
    fn shrinking_satisfies_kkt_at_pinned_coordinates() {
        // All-negative gains: every coordinate pins at 0 (grad = −b > 0),
        // the whole set shrinks, and the verification pass must still sign
        // off with converged = true in a handful of sweeps.
        let mut qp = dense(
            &Matrix::identity(6),
            &[-1.0, -2.0, -0.5, -3.0, -1.5, -0.1],
            &[(vec![0, 1, 2], 1.0)],
        )
        .unwrap();
        let sol = qp.solve(&opts());
        assert!(sol.converged);
        assert!(sol.sweeps <= 5, "shrunk problem should converge fast, took {}", sol.sweeps);
        assert_eq!(qp.gamma(), &[0.0; 6]);
    }
}
