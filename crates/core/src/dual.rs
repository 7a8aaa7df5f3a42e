//! The structured dual QP of Eq. (16), solved without materializing the
//! feature map.
//!
//! The paper reformulates the multi-hyperplane primal through the feature
//! map Φ of Eq. (7): `Φ(x_it)` has a copy of `x_it/√(T/λ)` in a shared
//! block and another copy in user `t`'s private block, and
//! `w' = (√(T/λ)·w0, w_1−w0, …, w_T−w0)` (Eq. 8). This file exploits the
//! block structure instead of building those `(T+1)·d`-dimensional vectors:
//! for aggregated constraints `z_kt` living in user blocks,
//!
//! ```text
//! ⟨z_kt, z_k′t′⟩ = (λ/T + [t = t′]) · ⟨s_kt, s_k′t′⟩
//! ```
//!
//! with `s_kt ∈ R^d` from Eq. (17). The dual variables `γ_kt ≥ 0` satisfy
//! one capped-sum constraint per user, `Σ_k γ_kt ≤ T/2λ`, and the KKT
//! stationarity condition recovers the primal as `w0 = (λ/T)·Σ γ·s` and
//! `v_t = Σ_{k∈Ω_t} γ_kt·s_kt`.

use crate::error::CoreError;
use crate::problem::Constraint;
use plos_linalg::{LinalgError, Vector};
use plos_opt::{IncrementalQp, QpSolverOptions};

/// Incremental solver for the Eq. (16) dual over growing working sets.
///
/// Constraints are appended as the cutting-plane loop discovers them; the
/// QP state (scaled Gram matrix `Q`, linear term, per-user member lists, and
/// the carried iterate) lives in a persistent [`IncrementalQp`], so each new
/// constraint costs one row of dot products and each re-solve starts warm
/// from the previous iterate with no rebuild and no clone.
#[derive(Debug, Clone)]
pub struct DualSolver {
    lambda: f64,
    t_count: usize,
    dim: usize,
    /// `λ/T`, the Eq. (16) coupling factor (fixed at construction).
    coupling: f64,
    /// `(owning user, constraint)` in insertion order.
    entries: Vec<(usize, Constraint)>,
    /// Whether the matching entry is a *hard* constraint (no slack, no cap):
    /// used for the class-balance constraints.
    hard: Vec<bool>,
    /// Persistent QP: one capped-sum group per user, grown one variable per
    /// appended constraint.
    qp: IncrementalQp,
}

/// Primal variables recovered from a dual solve.
#[derive(Debug, Clone)]
pub struct DualSolution {
    /// Global hyperplane `w0`.
    pub w0: Vector,
    /// Personal biases `v_t`.
    pub vs: Vec<Vector>,
    /// Per-user slacks `ξ_t` implied by the working sets.
    pub xis: Vec<f64>,
    /// Dual objective value of Eq. (16) (in the Eq.-9 scale).
    pub dual_objective: f64,
}

impl DualSolver {
    /// Creates an empty solver for `t_count` users in dimension `dim`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `lambda` is not positive (NaN
    /// included), `t_count == 0` or `dim == 0`; [`CoreError::Opt`] when the
    /// per-user dual cap `T/2λ` overflows (a subnormal `λ`).
    pub fn new(lambda: f64, t_count: usize, dim: usize) -> Result<Self, CoreError> {
        let invalid = |detail: String| Err(CoreError::InvalidConfig { detail });
        if lambda.is_nan() || lambda <= 0.0 {
            return invalid(format!("dual lambda must be positive, got {lambda}"));
        }
        if t_count == 0 || dim == 0 {
            return invalid(format!("dual needs users and a dimension, got {t_count} x {dim}"));
        }
        // One capped-sum group per user: Σ_k γ_kt ≤ T/2λ.
        let cap = t_count as f64 / (2.0 * lambda);
        Ok(DualSolver {
            lambda,
            t_count,
            dim,
            coupling: lambda / t_count as f64,
            entries: Vec::new(),
            hard: Vec::new(),
            qp: IncrementalQp::new(vec![cap; t_count])?,
        })
    }

    /// Number of constraints accumulated so far.
    pub fn num_constraints(&self) -> usize {
        self.entries.len()
    }

    /// Appends one cutting-plane constraint owned by user `t` (soft: shares
    /// the user's slack `ξ_t` and counts toward the dual cap).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `t` is not a user of this solver,
    /// and [`CoreError::Opt`] when the constraint has the wrong dimension or
    /// carries non-finite data; the solver is left unchanged.
    pub fn add_constraint(&mut self, t: usize, k: Constraint) -> Result<(), CoreError> {
        self.push_entry(t, k, false)
    }

    /// Appends one *hard* constraint for user `t` — no slack and an
    /// unbounded (non-negative) dual multiplier. Used for the class-balance
    /// constraints `±x̄·w_t ≥ −ℓ`.
    ///
    /// # Errors
    ///
    /// As [`DualSolver::add_constraint`].
    pub fn add_hard_constraint(&mut self, t: usize, k: Constraint) -> Result<(), CoreError> {
        self.push_entry(t, k, true)
    }

    fn push_entry(&mut self, t: usize, k: Constraint, hard: bool) -> Result<(), CoreError> {
        if t >= self.t_count {
            return Err(CoreError::InvalidConfig {
                detail: format!("constraint owner {t} is not one of {} users", self.t_count),
            });
        }
        if k.s.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                op: "dual constraint",
                expected: self.dim,
                actual: k.s.len(),
            }
            .into());
        }
        // The O(n·d) row of the new constraint against every existing one —
        // Q_ij = (λ/T + [same user])·⟨s_i, s_j⟩, the same expression the
        // historical per-solve rebuild used — costs `dim` multiply-adds per
        // entry, so it forks into blocks only once they outweigh a spawn;
        // block results are concatenated in submission order, so the row is
        // identical at any pool size.
        let coupling = self.coupling;
        let pool = plos_exec::Pool::current();
        let mut row: Vec<f64> = pool.par_chunks(&self.entries, self.dim, |_start, chunk| {
            chunk
                .iter()
                .map(|(owner, existing)| {
                    (coupling + if *owner == t { 1.0 } else { 0.0 }) * existing.s.dot(&k.s)
                })
                .collect()
        });
        row.push((coupling + 1.0) * k.s.norm_squared());
        // Hard constraints (class balance) carry no slack, so they join no
        // capped-sum group — only γ ≥ 0 applies.
        let group = if hard { None } else { Some(t) };
        // The QP validates the row before it mutates, so a rejected
        // constraint leaves the solver as it was.
        self.qp.append(group, k.c, &row)?;
        self.entries.push((t, k));
        self.hard.push(hard);
        Ok(())
    }

    /// Solves the dual over the current working sets and recovers the primal
    /// variables. With no constraints the solution is the trivial
    /// `w0 = 0, v = 0, ξ = 0`.
    ///
    /// # Errors
    ///
    /// None in practice: every append was validated. Solver entry points
    /// return `Result` all the same (lint R3).
    // Allowed: `vs`, `w_ts`, and `xis` are sized `t_count` with every owner
    // index checked against `t_count` on insertion, so all indices below are
    // in bounds by construction.
    #[allow(clippy::indexing_slicing)]
    pub fn solve(&mut self, opts: &QpSolverOptions) -> Result<DualSolution, CoreError> {
        let n = self.entries.len();
        if n == 0 {
            return Ok(DualSolution {
                w0: Vector::zeros(self.dim),
                vs: vec![Vector::zeros(self.dim); self.t_count],
                xis: vec![0.0; self.t_count],
                dual_objective: 0.0,
            });
        }
        // The QP state persists across rounds; this re-solve starts from the
        // carried iterate — no Q rebuild, no warm-start clone, no projection.
        let stats = self.qp.solve(opts);

        // KKT recovery: w0 = (λ/T) Σ γ s, v_t = Σ_{k∈Ω_t} γ s.
        let coupling = self.coupling;
        let mut w0 = Vector::zeros(self.dim);
        let mut vs = vec![Vector::zeros(self.dim); self.t_count];
        for (gamma_i, (t, k)) in self.qp.gamma().iter().zip(&self.entries) {
            if *gamma_i != 0.0 {
                w0.axpy(coupling * gamma_i, &k.s);
                vs[*t].axpy(*gamma_i, &k.s);
            }
        }
        // Slacks ξ_t = max(0, max_k (c_k − s_k·w_t)) in one pass over the
        // working set — the same left-to-right max fold per user as
        // `slack_for` over that user's soft constraints, without cloning
        // them. Hard constraints carry no slack.
        let w_ts: Vec<Vector> = (0..self.t_count).map(|t| &w0 + &vs[t]).collect();
        let mut xis = vec![0.0_f64; self.t_count];
        for ((t, k), hard) in self.entries.iter().zip(&self.hard) {
            if !hard {
                xis[*t] = xis[*t].max(k.c - k.s.dot(&w_ts[*t]));
            }
        }
        Ok(DualSolution { w0, vs, xis, dual_objective: -stats.objective })
    }

    /// The PLOS primal objective in the scale of problem (4):
    /// `‖w0‖² + (λ/T)Σ‖v_t‖² + Σξ_t`.
    pub fn primal_objective(&self, sol: &DualSolution) -> f64 {
        let coupling = self.lambda / self.t_count as f64;
        sol.w0.norm_squared()
            + coupling * sol.vs.iter().map(Vector::norm_squared).sum::<f64>()
            + sol.xis.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> QpSolverOptions {
        QpSolverOptions::default()
    }

    #[test]
    fn empty_solver_returns_trivial_solution() {
        let mut solver = DualSolver::new(1.0, 3, 2).unwrap();
        let sol = solver.solve(&opts()).unwrap();
        assert_eq!(sol.w0, Vector::zeros(2));
        assert_eq!(sol.vs.len(), 3);
        assert_eq!(sol.xis, vec![0.0; 3]);
        assert_eq!(sol.dual_objective, 0.0);
    }

    #[test]
    fn single_constraint_single_user_matches_hand_solution() {
        // T = 1, λ = 1: coupling = 1, cap = 0.5.
        // One constraint s = (1, 0), c = 1.
        // Q = (1 + 1)·1 = 2, b = 1 ⇒ unconstrained γ* = 0.5, exactly at cap.
        let mut solver = DualSolver::new(1.0, 1, 2).unwrap();
        solver.add_constraint(0, Constraint { s: Vector::from(vec![1.0, 0.0]), c: 1.0 }).unwrap();
        let sol = solver.solve(&opts()).unwrap();
        // w0 = coupling·γ·s = 0.5·(1,0)·1 = (0.5, 0); v0 = γ·s = (0.5, 0).
        assert!((sol.w0[0] - 0.5).abs() < 1e-6);
        assert!((sol.vs[0][0] - 0.5).abs() < 1e-6);
        // w_t = (1, 0): slack = c − s·w = 0.
        assert!(sol.xis[0].abs() < 1e-6);
    }

    #[test]
    fn strong_duality_holds_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for trial in 0..10 {
            let t_count = rng.gen_range(1..4);
            let dim = rng.gen_range(1..4);
            let lambda = rng.gen_range(0.5..4.0);
            let mut solver = DualSolver::new(lambda, t_count, dim).unwrap();
            for t in 0..t_count {
                for _ in 0..rng.gen_range(1..4) {
                    let s: Vector = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let c = rng.gen_range(0.0..1.5);
                    solver.add_constraint(t, Constraint { s, c }).unwrap();
                }
            }
            let sol = solver.solve(&opts()).unwrap();
            // In the Eq.-9 scale, primal = ½‖w′‖² + (T/2λ)Σξ and equals the
            // dual optimum at the exact solution. Our primal_objective is
            // (2λ/T)× that scale.
            let primal_scaled = solver.primal_objective(&sol) * t_count as f64 / (2.0 * lambda);
            assert!(
                (primal_scaled - sol.dual_objective).abs() < 1e-4,
                "trial {trial}: primal {primal_scaled} vs dual {}",
                sol.dual_objective
            );
        }
    }

    #[test]
    fn large_lambda_shrinks_personal_biases() {
        // Same constraint for two users; large λ forces w_t ≈ w0.
        let k = Constraint { s: Vector::from(vec![1.0]), c: 1.0 };
        let solve_with = |lambda: f64| {
            let mut solver = DualSolver::new(lambda, 2, 1).unwrap();
            solver.add_constraint(0, k.clone()).unwrap();
            solver.add_constraint(1, k.clone()).unwrap();
            solver.solve(&opts()).unwrap()
        };
        let tight = solve_with(1000.0);
        let loose = solve_with(0.01);
        let bias_norm = |sol: &DualSolution| {
            sol.vs.iter().map(Vector::norm).sum::<f64>() / sol.w0.norm().max(1e-12)
        };
        assert!(bias_norm(&tight) < 0.01, "tight {}", bias_norm(&tight));
        assert!(bias_norm(&loose) > bias_norm(&tight));
    }

    #[test]
    fn incremental_q_matches_naive_reconstruction() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let (lambda, t_count) = (2.0, 2usize);
        let mut solver = DualSolver::new(lambda, t_count, 3).unwrap();
        let mut constraints = Vec::new();
        for i in 0..5 {
            let s: Vector = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let k = Constraint { s, c: 0.5 };
            constraints.push(k.clone());
            solver.add_constraint(i % 2, k).unwrap();
        }
        // Q_ij = (λ/T + [same user])·⟨s_i, s_j⟩, maintained one row (plus
        // mirrored column) per append.
        let coupling = lambda / t_count as f64;
        for i in 0..5 {
            for j in 0..5 {
                let same = if i % 2 == j % 2 { 1.0 } else { 0.0 };
                let expect = (coupling + same) * constraints[i].s.dot(&constraints[j].s);
                assert!((solver.qp.q_row(i).unwrap()[j] - expect).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn warm_start_grows_with_constraints() {
        let mut solver = DualSolver::new(1.0, 1, 1).unwrap();
        solver.add_constraint(0, Constraint { s: Vector::from(vec![1.0]), c: 1.0 }).unwrap();
        let _ = solver.solve(&opts()).unwrap();
        solver.add_constraint(0, Constraint { s: Vector::from(vec![0.5]), c: 0.2 }).unwrap();
        let sol = solver.solve(&opts()).unwrap();
        assert_eq!(solver.num_constraints(), 2);
        assert!(sol.w0.is_finite());
    }

    fn rejected(r: Result<DualSolver, CoreError>) -> bool {
        matches!(r, Err(CoreError::InvalidConfig { .. }))
    }

    #[test]
    fn a_lambda_that_is_not_positive_is_rejected() {
        assert!(rejected(DualSolver::new(0.0, 1, 2)));
        assert!(rejected(DualSolver::new(-1.0, 1, 2)));
        assert!(rejected(DualSolver::new(f64::NAN, 1, 2)));
    }

    #[test]
    fn zero_users_are_rejected() {
        assert!(rejected(DualSolver::new(1.0, 0, 2)));
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert!(rejected(DualSolver::new(1.0, 1, 0)));
    }

    #[test]
    fn bad_user_index_rejected() {
        let mut solver = DualSolver::new(1.0, 1, 1).unwrap();
        let k = Constraint { s: Vector::from(vec![1.0]), c: 1.0 };
        let err = solver.add_constraint(5, k.clone());
        assert!(matches!(err, Err(CoreError::InvalidConfig { .. })), "{err:?}");
        let err = solver.add_hard_constraint(1, k);
        assert!(matches!(err, Err(CoreError::InvalidConfig { .. })), "{err:?}");
        assert_eq!(solver.num_constraints(), 0);
    }

    #[test]
    fn bad_dimension_rejected() {
        let mut solver = DualSolver::new(1.0, 1, 2).unwrap();
        let short = Constraint { s: Vector::from(vec![1.0]), c: 1.0 };
        let err = solver.add_constraint(0, short);
        assert!(matches!(err, Err(CoreError::Opt(_))), "{err:?}");
        let long = Constraint { s: Vector::from(vec![1.0; 3]), c: 1.0 };
        let err = solver.add_hard_constraint(0, long);
        assert!(matches!(err, Err(CoreError::Opt(_))), "{err:?}");
        assert_eq!(solver.num_constraints(), 0);
        assert_eq!(solver.solve(&opts()).unwrap().w0, Vector::zeros(2));
    }

    #[test]
    fn a_non_finite_constraint_is_rejected_and_the_rest_still_solves() {
        let mut solver = DualSolver::new(1.0, 1, 2).unwrap();
        solver.add_constraint(0, Constraint { s: Vector::from(vec![1.0, 0.0]), c: 1.0 }).unwrap();
        let kept = solver.solve(&opts()).unwrap();
        let bad = Constraint { s: Vector::from(vec![f64::NAN, 0.0]), c: 1.0 };
        assert!(matches!(solver.add_constraint(0, bad), Err(CoreError::Opt(_))));
        let bad = Constraint { s: Vector::from(vec![1.0, 0.0]), c: f64::INFINITY };
        assert!(matches!(solver.add_hard_constraint(0, bad), Err(CoreError::Opt(_))));
        assert_eq!(solver.num_constraints(), 1);
        let again = solver.solve(&opts()).unwrap();
        assert_eq!(again.w0, kept.w0);
        assert_eq!(again.xis, kept.xis);
    }

    #[test]
    fn a_subnormal_lambda_whose_cap_overflows_is_rejected() {
        // T/2λ = 1/(2·5e-324) overflows to infinity.
        assert!(matches!(DualSolver::new(5e-324, 1, 2), Err(CoreError::Opt(_))));
    }
}
