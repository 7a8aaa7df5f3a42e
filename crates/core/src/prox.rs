//! Proximal per-user subproblem: the shared engine of the device solver and
//! the refinement stage.
//!
//! Both the ADMM local step (Eq. 22) and block-coordinate refinement reduce
//! to the same shape — an SVM-like problem in one user's hyperplane pulled
//! toward an anchor:
//!
//! ```text
//! min_w  (μ/2)‖w − a‖² + ξ(w),   ξ(w) = max(0, max_{k∈Ω} (c_k − s_k·w))
//! ```
//!
//! * ADMM local step: `a = w0 − u_t`, `μ = 2κρ/(2κ+ρ)` with `κ = λ/T`;
//! * refinement step: `a = w0`, `μ = 2λ/T` (the exact per-user block of the
//!   joint objective given `w0`).
//!
//! The working-set dual is a capped-simplex QP (`α ≥ 0, Σα ≤ 1`) with
//! `w = a + (1/μ)Σ α_k s_k`. [`prox_cccp`] wraps the cutting-plane solve in
//! a per-user CCCP loop over the unlabeled sign pattern; because the
//! landscape of the maximum-margin-clustering term is non-convex, the
//! trainers run it from several sign initializations and keep the best
//! true objective (the `restarts` knob in [`PlosConfig`]).

use crate::config::PlosConfig;
use crate::error::CoreError;
use crate::problem::{self, Constraint, PreparedUser};
use plos_linalg::Vector;
use plos_opt::IncrementalQp;

/// Minimizes `(μ/2)‖w − a‖² + ξ(w)` over a working set via its dual,
/// subject to the user's *hard* constraints (class balance), whose
/// multipliers are unbounded and carry no slack.
///
/// With no constraints at all the minimizer is the anchor itself.
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] if `mu` is not positive.
/// * [`CoreError::Opt`] if a constraint makes the dual non-finite.
pub fn solve_working_set(
    working_set: &[Constraint],
    hard: &[Constraint],
    anchor: &Vector,
    mu: f64,
    config: &PlosConfig,
) -> Result<Vector, CoreError> {
    if mu.is_nan() || mu <= 0.0 {
        return Err(CoreError::InvalidConfig {
            detail: format!("prox curvature must be positive, got {mu}"),
        });
    }
    if working_set.is_empty() && hard.is_empty() {
        return Ok(anchor.clone());
    }
    // Soft multipliers come first and share the slack budget (one group,
    // Σα ≤ 1); hard multipliers follow and are only constrained to be
    // non-negative. The dual is solved cold on a fresh QP.
    let n_soft = working_set.len();
    let all: Vec<&Constraint> = working_set.iter().chain(hard).collect();
    let mut qp = IncrementalQp::new(if n_soft > 0 { vec![1.0] } else { Vec::new() })?;
    let mut row = Vec::with_capacity(all.len());
    for (i, ci) in all.iter().enumerate() {
        row.clear();
        row.extend(all.iter().take(i + 1).map(|cj| ci.s.dot(&cj.s) / mu));
        qp.append((i < n_soft).then_some(0), ci.c - anchor.dot(&ci.s), &row)?;
    }
    qp.solve(&config.qp);
    let mut w = anchor.clone();
    for (c, alpha) in all.iter().zip(qp.gamma()) {
        if *alpha != 0.0 {
            w.axpy(alpha / mu, &c.s);
        }
    }
    Ok(w)
}

/// Cutting-plane loop for the prox subproblem under a *fixed* sign pattern.
/// Grows `working_set` in place and returns the minimizer.
///
/// # Errors
///
/// Propagates QP failures from [`solve_working_set`].
pub fn cutting_plane(
    user: &PreparedUser,
    signs: &[f64],
    anchor: &Vector,
    mu: f64,
    working_set: &mut Vec<Constraint>,
    hard: &[Constraint],
    config: &PlosConfig,
) -> Result<Vector, CoreError> {
    let mut w = solve_working_set(working_set, hard, anchor, mu, config)?;
    for _ in 0..config.max_cutting_rounds {
        let xi = problem::slack_for(working_set, &w);
        let (constraint, violation) =
            problem::most_violated_constraint(user, signs, &w, xi, config);
        if violation <= config.eps {
            break;
        }
        working_set.push(constraint);
        w = solve_working_set(working_set, hard, anchor, mu, config)?;
    }
    Ok(w)
}

/// Result of a full per-user prox CCCP run.
#[derive(Debug, Clone)]
pub struct ProxSolution {
    /// The personalized hyperplane.
    pub w: Vector,
    /// True per-user objective `(μ/2)‖w − a‖² + loss(w)` at `w`.
    pub objective: f64,
}

/// The exact per-user prox objective `(μ/2)‖w − a‖² + loss(w)`.
pub fn prox_objective(
    user: &PreparedUser,
    anchor: &Vector,
    mu: f64,
    w: &Vector,
    config: &PlosConfig,
) -> f64 {
    0.5 * mu * w.distance_squared(anchor) + problem::true_user_loss(user, w, config)
}

/// Full per-user CCCP from a given initial sign pattern: alternate
/// cutting-plane solves and sign refreshes until the true local objective
/// stabilizes.
///
/// # Errors
///
/// Propagates QP failures from the cutting-plane solves.
pub fn prox_cccp(
    user: &PreparedUser,
    anchor: &Vector,
    mu: f64,
    init_signs: Vec<f64>,
    config: &PlosConfig,
) -> Result<ProxSolution, CoreError> {
    let objective_at = |w: &Vector| prox_objective(user, anchor, mu, w, config);
    let hard = problem::balance_constraints(user, config.balance);
    let mut signs = init_signs;
    // The incumbent is always a *constrained* iterate (never the raw
    // anchor): every cutting-plane output satisfies the hard balance
    // constraints, so the returned solution does too. (Config validation
    // guarantees max_cccp_rounds >= 1, so the anchor fallback below is
    // unreachable in practice.)
    let mut best: Option<ProxSolution> = None;
    let mut prev_objective = f64::INFINITY;
    for _ in 0..config.max_cccp_rounds {
        let mut working_set = Vec::new();
        let w = cutting_plane(user, &signs, anchor, mu, &mut working_set, &hard, config)?;
        let objective = objective_at(&w);
        if best.as_ref().is_none_or(|b| objective < b.objective) {
            best = Some(ProxSolution { w: w.clone(), objective });
        }
        if (prev_objective - objective).abs() < config.cccp_tol {
            break;
        }
        prev_objective = objective;
        let new_signs = problem::compute_signs(user, &w);
        if new_signs == signs {
            break;
        }
        signs = new_signs;
    }
    Ok(best.unwrap_or_else(|| ProxSolution { w: anchor.clone(), objective: objective_at(anchor) }))
}

/// Multi-start prox CCCP: tries the supplied sign initialization plus
/// `config.restarts` random-hyperplane initializations, returning the lowest
/// true objective. Deterministic given `seed`.
///
/// # Errors
///
/// Propagates QP failures from the underlying CCCP runs.
pub fn prox_cccp_multistart(
    user: &PreparedUser,
    anchor: &Vector,
    mu: f64,
    base_signs: Vec<f64>,
    seed: u64,
    config: &PlosConfig,
) -> Result<ProxSolution, CoreError> {
    use rand::{Rng, SeedableRng};
    let mut best = prox_cccp(user, anchor, mu, base_signs, config)?;
    if user.unlabeled.is_empty() {
        // Without unlabeled samples the problem is convex: restarts are
        // pointless.
        return Ok(best);
    }
    for r in 0..config.restarts {
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r as u64 + 1)),
        );
        let dim = user.features.first().map_or(0, Vector::len);
        let w_init: Vector = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let signs = problem::compute_signs(user, &w_init);
        let candidate = prox_cccp(user, anchor, mu, signs, config)?;
        if candidate.objective < best.objective {
            best = candidate;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_sensing::dataset::{MultiUserDataset, UserData};

    fn config() -> PlosConfig {
        PlosConfig { bias: None, restarts: 4, ..PlosConfig::fast() }
    }

    /// Two clean 1-D clusters around ±2, unlabeled.
    fn unlabeled_user() -> PreparedUser {
        let xs: Vec<Vector> =
            [-2.2, -2.0, -1.8, 1.8, 2.0, 2.2].iter().map(|&v| Vector::from(vec![v])).collect();
        let truth = vec![-1, -1, -1, 1, 1, 1];
        let d = MultiUserDataset::new(vec![UserData::new(xs, truth)]);
        problem::prepare(&d, None).users.remove(0)
    }

    #[test]
    fn empty_working_set_returns_anchor() {
        let a = Vector::from(vec![1.5]);
        let w = solve_working_set(&[], &[], &a, 1.0, &config()).unwrap();
        assert_eq!(w, a);
    }

    #[test]
    fn working_set_solution_decreases_objective() {
        let user = unlabeled_user();
        let cfg = config();
        let a = Vector::from(vec![0.01]); // weak anchor, margins violated
        let signs = problem::compute_signs(&user, &a);
        let mut ws = Vec::new();
        let w = cutting_plane(&user, &signs, &a, 0.1, &mut ws, &[], &cfg).unwrap();
        assert!(!ws.is_empty());
        // The margin constraints push |w| up so that |w·x| >= 1 at x = ±1.8.
        assert!(w[0].abs() > 0.4, "w = {w:?}");
    }

    #[test]
    fn prox_cccp_finds_margin_split() {
        let user = unlabeled_user();
        let cfg = config();
        let a = Vector::zeros(1);
        let signs = problem::compute_signs(&user, &Vector::from(vec![1.0]));
        let sol = prox_cccp(&user, &a, 0.05, signs, &cfg).unwrap();
        // All samples should sit outside the margin: |w·x| >= ~1 at |x|=1.8.
        assert!(sol.w[0].abs() >= 0.5, "w = {:?}", sol.w);
        assert!(sol.objective < 0.5, "objective {}", sol.objective);
    }

    #[test]
    fn multistart_is_at_least_as_good_as_single_start() {
        let user = unlabeled_user();
        let cfg = config();
        let a = Vector::zeros(1);
        let bad_signs = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0]; // hopeless pattern
        let single = prox_cccp(&user, &a, 0.05, bad_signs.clone(), &cfg).unwrap();
        let multi = prox_cccp_multistart(&user, &a, 0.05, bad_signs, 7, &cfg).unwrap();
        assert!(multi.objective <= single.objective + 1e-12);
    }

    #[test]
    fn labeled_only_user_skips_restarts() {
        let xs: Vec<Vector> = [-1.0, 1.0].iter().map(|&v| Vector::from(vec![v])).collect();
        let mut u = UserData::new(xs, vec![-1, 1]);
        u.observed = vec![Some(-1), Some(1)];
        let d = MultiUserDataset::new(vec![u]);
        let user = problem::prepare(&d, None).users.remove(0);
        let cfg = config();
        let sol = prox_cccp_multistart(&user, &Vector::zeros(1), 0.1, vec![], 0, &cfg).unwrap();
        assert!(sol.w[0] > 0.0);
    }

    #[test]
    fn strong_anchor_dominates() {
        let user = unlabeled_user();
        let cfg = config();
        let a = Vector::from(vec![5.0]);
        let signs = problem::compute_signs(&user, &a);
        let sol = prox_cccp(&user, &a, 1e6, signs, &cfg).unwrap();
        assert!(sol.w.distance(&a) < 0.01, "w strayed from anchor: {:?}", sol.w);
    }

    #[test]
    fn non_positive_mu_rejected() {
        for mu in [0.0, -1.0, f64::NAN] {
            let err = solve_working_set(&[], &[], &Vector::zeros(1), mu, &config()).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("prox curvature")),
                "mu {mu}: {err:?}"
            );
        }
    }
}
