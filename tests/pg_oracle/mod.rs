//! Projected-gradient reference solver for the grouped QP
//! `min ½ γᵀQγ − bᵀγ` over `γ ≥ 0` with disjoint capped-sum groups
//! `Σ_{i ∈ g} γ_i ≤ cap_g`, stated over a dense `Q`.
//!
//! Slower but conceptually independent of the coordinate-descent solver
//! behind [`IncrementalQp`]; the root tests use it as an oracle to validate
//! coordinate descent, and as the capped-simplex projection toolbox.

// Each test binary that includes this module uses a different subset of it.
#![allow(dead_code)]

use plos::linalg::{Matrix, Vector};
use plos::opt::{IncrementalQp, OptError};

/// A dense grouped QP: PSD symmetric `Q`, linear term `b`, and disjoint
/// `(member indices, cap)` groups. Variables in no group are only
/// constrained to `γ_i ≥ 0`.
pub struct DenseQp {
    /// The quadratic term.
    pub q: Matrix,
    /// The linear term.
    pub b: Vector,
    /// `(member indices, cap)` per group.
    pub groups: Vec<(Vec<usize>, f64)>,
}

impl DenseQp {
    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.b.len()
    }

    /// Objective `½ γᵀQγ − bᵀγ`.
    pub fn objective(&self, gamma: &Vector) -> f64 {
        0.5 * gamma.dot(&self.q.matvec(gamma)) - self.b.dot(gamma)
    }

    /// Gradient `Q·γ − b` of the QP objective.
    pub fn gradient(&self, gamma: &Vector) -> Vector {
        let mut g = self.q.matvec(gamma);
        g -= &self.b;
        g
    }

    /// Projects `gamma` (in place) onto the feasible set: coordinates clamped
    /// to `≥ 0` and each group projected onto its capped simplex.
    pub fn project(&self, gamma: &mut Vector) {
        for v in gamma.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        for (members, cap) in &self.groups {
            let mut vals: Vec<f64> = members.iter().map(|&i| gamma[i]).collect();
            project_capped_simplex(&mut vals, *cap);
            for (&i, v) in members.iter().zip(vals) {
                gamma[i] = v;
            }
        }
    }

    /// Returns `true` if `gamma` satisfies all constraints within `tol`.
    pub fn is_feasible(&self, gamma: &[f64], tol: f64) -> bool {
        gamma.len() == self.dim()
            && gamma.iter().all(|&g| g >= -tol)
            && self
                .groups
                .iter()
                .all(|(members, cap)| members.iter().map(|&i| gamma[i]).sum::<f64>() <= cap + tol)
    }

    /// The same QP as the coordinate-descent solver sees it: one append per
    /// variable (its row of the lower triangle of `Q`), each joining its
    /// group.
    pub fn incremental(&self) -> Result<IncrementalQp, OptError> {
        let mut qp = IncrementalQp::new(self.groups.iter().map(|(_, cap)| *cap).collect())?;
        for (i, &b_i) in self.b.iter().enumerate() {
            let row: Vec<f64> = (0..=i).map(|j| self.q[(i, j)]).collect();
            let group = self.groups.iter().position(|(members, _)| members.contains(&i));
            qp.append(group, b_i, &row)?;
        }
        Ok(qp)
    }
}

/// Projects `x` (in place) onto `{x ≥ 0, Σ x_i ≤ cap}`.
///
/// If clamping at zero already satisfies the cap the clamp is the projection;
/// otherwise the point is projected onto the simplex `{x ≥ 0, Σ x = cap}`
/// with the classic sort-and-threshold algorithm.
///
/// # Panics
///
/// Panics if `cap` is negative or not finite.
pub fn project_capped_simplex(x: &mut [f64], cap: f64) {
    assert!(cap.is_finite() && cap >= 0.0, "cap must be finite and >= 0");
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let sum: f64 = x.iter().sum();
    if sum <= cap {
        return;
    }
    // Project onto {x >= 0, sum == cap}: find threshold tau with
    // sum(max(x_i - tau, 0)) == cap.
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| f64::total_cmp(b, a));
    let mut cumulative = 0.0;
    let mut tau = 0.0;
    for (k, &v) in sorted.iter().enumerate() {
        cumulative += v;
        let candidate = (cumulative - cap) / (k as f64 + 1.0);
        if sorted.get(k + 1).is_none_or(|&next| next <= candidate) {
            tau = candidate;
            break;
        }
    }
    for v in x.iter_mut() {
        *v = (*v - tau).max(0.0);
    }
}

/// Result of [`solve_projected_gradient`].
#[derive(Debug, Clone)]
pub struct PgSolution {
    /// Final iterate.
    pub gamma: Vector,
    /// Objective value at the final iterate.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Solves a [`DenseQp`] by projected gradient descent with a fixed step
/// from a Lipschitz upper bound (`trace(Q)` majorizes the top eigenvalue).
///
/// Intended as a test oracle: robust, derivative-checked, slow.
///
/// # Errors
///
/// Returns [`OptError::NonFinite`] when the final objective is NaN or
/// infinite (i.e. the problem data contained non-finite entries).
pub fn solve_projected_gradient(
    qp: &DenseQp,
    max_iters: usize,
    tol: f64,
) -> Result<PgSolution, OptError> {
    let n = qp.dim();
    let mut gamma = Vector::zeros(n);
    // Lipschitz constant of the gradient: λ_max(Q) <= trace(Q) for PSD Q.
    let lipschitz: f64 = (0..n).map(|i| qp.q[(i, i)]).sum::<f64>().max(1e-12);
    let step = 1.0 / lipschitz;

    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let grad = qp.gradient(&gamma);
        let mut next = gamma.clone();
        next.axpy(-step, &grad);
        qp.project(&mut next);
        let delta = next.distance(&gamma);
        gamma = next;
        if delta < tol {
            break;
        }
    }
    let objective = qp.objective(&gamma);
    if !objective.is_finite() {
        return Err(OptError::NonFinite { what: "projected-gradient objective" });
    }
    Ok(PgSolution { gamma, objective, iterations })
}
