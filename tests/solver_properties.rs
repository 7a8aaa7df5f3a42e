//! Property-based tests over the PLOS solver internals: strong duality of
//! the structured dual, slack consistency, CCCP objective monotonicity, and
//! balance-constraint enforcement on randomized instances — plus the
//! projected-gradient oracle (`pg_oracle`) cross-checking the
//! coordinate-descent QP solver.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
mod pg_oracle;

use pg_oracle::{project_capped_simplex, solve_projected_gradient, DenseQp};
use plos::core::dual::DualSolver;
use plos::core::problem::Constraint;
use plos::core::{CentralizedPlos, PlosConfig};
use plos::linalg::{Matrix, Vector};
use plos::opt::QpSolverOptions;
use plos::sensing::dataset::{LabelMask, MultiUserDataset, UserData};
use plos::sensing::synthetic::{generate_synthetic, SyntheticSpec};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Strong duality of the working-set dual: the recovered primal value
    /// matches the dual optimum (Eq.-9 scale) on random instances.
    #[test]
    fn dual_solver_strong_duality(
        seed in 0u64..1000,
        t_count in 1usize..4,
        dim in 1usize..4,
        lambda in 0.5..5.0f64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut solver = DualSolver::new(lambda, t_count, dim).unwrap();
        for t in 0..t_count {
            for _ in 0..rng.gen_range(1..3) {
                let s: Vector = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                solver.add_constraint(t, Constraint { s, c: rng.gen_range(0.0..1.0) }).unwrap();
            }
        }
        let sol = solver.solve(&QpSolverOptions::default()).unwrap();
        let primal_scaled =
            solver.primal_objective(&sol) * t_count as f64 / (2.0 * lambda);
        prop_assert!(
            (primal_scaled - sol.dual_objective).abs() < 1e-3,
            "primal {primal_scaled} vs dual {}",
            sol.dual_objective
        );
        // Slacks are non-negative by construction.
        for xi in &sol.xis {
            prop_assert!(*xi >= 0.0);
        }
    }

    /// The centralized trainer's CCCP history never increases (within
    /// numerical tolerance) on random small cohorts.
    #[test]
    fn cccp_history_is_monotone(seed in 0u64..40) {
        let spec = SyntheticSpec {
            num_users: 3,
            points_per_class: 12,
            max_rotation: 0.6,
            flip_prob: 0.05,
        };
        let data = generate_synthetic(&spec, seed)
            .mask_labels(&LabelMask::providers(2, 0.25), seed ^ 77);
        let config = PlosConfig::fast();
        // CCCP's monotonicity guarantee assumes each convex subproblem is
        // solved exactly; the cutting plane stops at per-user slack accuracy
        // ε, so the objective may wobble by O(T·ε) between rounds.
        let tolerance = 3.0 * config.eps * data.num_users() as f64;
        let fit = CentralizedPlos::try_new(config).unwrap().fit_detailed(&data).unwrap();
        prop_assert!(
            fit.history.is_monotone_decreasing(tolerance),
            "history {:?}",
            fit.history.values()
        );
    }

    /// The balance constraint holds at the trained solution: every user's
    /// personalized hyperplane satisfies |w_t · x̄_t| ≤ ℓ (+ tolerance)
    /// over that user's unlabeled samples.
    #[test]
    fn balance_constraint_enforced(seed in 0u64..20) {
        let spec = SyntheticSpec {
            num_users: 3,
            points_per_class: 10,
            max_rotation: 0.4,
            flip_prob: 0.0,
        };
        let data = generate_synthetic(&spec, seed)
            .mask_labels(&LabelMask::providers(1, 0.3), seed);
        let balance = 0.5;
        let config = PlosConfig { balance, ..PlosConfig::fast() };
        let model = CentralizedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        for (t, user) in data.users().iter().enumerate() {
            let unlabeled: Vec<usize> = user
                .observed
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_none())
                .map(|(i, _)| i)
                .collect();
            if unlabeled.is_empty() {
                continue;
            }
            let mean_decision: f64 = unlabeled
                .iter()
                .map(|&i| model.decision(t, &user.features[i]))
                .sum::<f64>()
                / unlabeled.len() as f64;
            prop_assert!(
                mean_decision.abs() <= balance + 0.15,
                "user {t}: |mean decision| = {} exceeds balance {balance}",
                mean_decision.abs()
            );
        }
    }
}

/// Deterministic sanity check outside proptest: a hand-built dataset where
/// the answer is known exactly.
#[test]
fn hand_built_two_user_problem_solves_exactly() {
    let mut u0 = UserData::new(
        vec![
            Vector::from(vec![2.0]),
            Vector::from(vec![2.5]),
            Vector::from(vec![-2.0]),
            Vector::from(vec![-2.5]),
        ],
        vec![1, 1, -1, -1],
    );
    u0.observed = vec![Some(1), Some(1), Some(-1), Some(-1)];
    let u1 = UserData::new(vec![Vector::from(vec![1.8]), Vector::from(vec![-1.8])], vec![1, -1]);
    let data = MultiUserDataset::new(vec![u0, u1]);
    let config = PlosConfig { bias: None, ..PlosConfig::fast() };
    let model = CentralizedPlos::try_new(config).unwrap().fit(&data).unwrap();
    // Both users' classifiers point in the +x direction.
    for t in 0..2 {
        for (x, &y) in data.user(t).features.iter().zip(&data.user(t).truth) {
            assert_eq!(model.predict(t, x), y, "user {t}, x = {x}");
        }
    }
}

#[test]
fn projection_clamps_when_cap_slack() {
    let mut x = vec![-1.0, 0.5, 0.2];
    project_capped_simplex(&mut x, 10.0);
    assert_eq!(x, vec![0.0, 0.5, 0.2]);
}

#[test]
fn projection_onto_tight_simplex() {
    let mut x = vec![2.0, 2.0];
    project_capped_simplex(&mut x, 1.0);
    assert!((x[0] - 0.5).abs() < 1e-12);
    assert!((x[1] - 0.5).abs() < 1e-12);
}

#[test]
fn projection_zeroes_small_coordinates() {
    let mut x = vec![3.0, 0.1];
    project_capped_simplex(&mut x, 1.0);
    assert!((x[0] - 1.0).abs() < 1e-12);
    assert_eq!(x[1], 0.0);
}

#[test]
fn projection_zero_cap() {
    let mut x = vec![1.0, 2.0];
    project_capped_simplex(&mut x, 0.0);
    assert_eq!(x, vec![0.0, 0.0]);
}

#[test]
fn projection_is_idempotent() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for _ in 0..50 {
        let n = rng.gen_range(1..8);
        let cap = rng.gen_range(0.0..3.0);
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        project_capped_simplex(&mut x, cap);
        let once = x.clone();
        project_capped_simplex(&mut x, cap);
        for (a, b) in once.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(x.iter().sum::<f64>() <= cap + 1e-9);
        assert!(x.iter().all(|&v| v >= 0.0));
    }
}

#[test]
fn pg_agrees_with_coordinate_descent_on_random_qps() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for trial in 0..20 {
        let n = rng.gen_range(2..7);
        // Random PSD Q = AᵀA + small ridge.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rng.gen_range(-1.0..1.0);
            }
        }
        let mut q = a.transpose().matmul(&a).unwrap();
        q.add_diagonal(0.1);
        let b: Vector = (0..n).map(|_| rng.gen_range(-1.0..2.0)).collect();
        // One group over all variables with a random cap.
        let cap = rng.gen_range(0.1..2.0);
        let qp = DenseQp { q, b, groups: vec![((0..n).collect(), cap)] };

        let mut cd = qp.incremental().unwrap();
        let cd_stats = cd.solve(&QpSolverOptions::default());
        let pg = solve_projected_gradient(&qp, 200_000, 1e-12).unwrap();
        assert!(
            (cd_stats.objective - pg.objective).abs() < 1e-5,
            "trial {trial}: cd={} pg={}",
            cd_stats.objective,
            pg.objective
        );
        assert!(qp.is_feasible(cd.gamma(), 1e-8));
        assert!(qp.is_feasible(pg.gamma.as_slice(), 1e-8));
    }
}

#[test]
fn gradient_matches_finite_differences() {
    let q = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]).unwrap();
    let qp = DenseQp { q, b: Vector::from(vec![1.0, -0.5]), groups: vec![] };
    let x = Vector::from(vec![0.3, 0.7]);
    let g = qp.gradient(&x);
    let h = 1e-6;
    for i in 0..2 {
        let mut xp = x.clone();
        xp[i] += h;
        let mut xm = x.clone();
        xm[i] -= h;
        let fd = (qp.objective(&xp) - qp.objective(&xm)) / (2.0 * h);
        assert!((fd - g[i]).abs() < 1e-5, "coordinate {i}");
    }
}
