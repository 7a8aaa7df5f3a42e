//! The PLOS dual quadratic programs and the tuning knobs of their solver.
//!
//! Both duals in the paper share one shape. Eq. (16):
//!
//! ```text
//! max_{γ ≥ 0}  −½‖Σ γ_kt z_kt‖² + Σ γ_kt c_kt
//! s.t.          Σ_k γ_kt ≤ T/2λ           (one cap per user t)
//! ```
//!
//! In minimization form this is `min ½ γᵀQγ − bᵀγ` with `Q_ij = ⟨z_i, z_j⟩`
//! PSD, subject to `γ ≥ 0` and a *capped-sum* constraint per disjoint group
//! of variables. The local device dual of Eq. (22) is the same problem with a
//! single group. Because the constraints are separable per coordinate given
//! the rest of its group, cyclic coordinate descent with per-coordinate
//! clipping is exact and converges monotonically for PSD `Q` — the same
//! family of solvers used by liblinear for SVM duals. Both duals are built
//! and solved through one front-end, [`crate::IncrementalQp`]: the
//! centralized dual grows it one constraint per cutting-plane round, and the
//! device-local prox step appends its whole working set to a fresh one.

/// Tuning knobs for [`crate::IncrementalQp::solve`].
#[derive(Debug, Clone)]
pub struct QpSolverOptions {
    /// Stop when the largest coordinate update in a sweep falls below this.
    pub tol: f64,
    /// Maximum number of full sweeps.
    pub max_sweeps: usize,
    /// Dimension above which the objective-stagnation cutoff arms. Systems
    /// this small keep the legacy sweep schedule bit-for-bit (the pinned
    /// golden fixtures top out at 62 variables); larger duals may stop early
    /// with `converged = false` once a check window makes no measurable
    /// objective progress.
    pub stall_dim: usize,
    /// Sweeps between objective evaluations once the cutoff is armed.
    pub stall_every: usize,
    /// Relative progress threshold per check window: a window that improves
    /// the objective by less than `stall_rel_tol · max(|obj|, 1)` stops the
    /// solve as stalled.
    pub stall_rel_tol: f64,
}

impl Default for QpSolverOptions {
    fn default() -> Self {
        QpSolverOptions {
            tol: 1e-10,
            max_sweeps: 10_000,
            stall_dim: 64,
            stall_every: 64,
            stall_rel_tol: 1e-5,
        }
    }
}
