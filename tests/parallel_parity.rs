//! Determinism parity: the fork-join pool must not change training output.
//!
//! The execution runtime's contract is that results are joined in
//! submission order and reductions stay on the caller thread, so every
//! model trained through the pool is bit-identical to the sequential path
//! regardless of pool size. These tests pin that contract with exact
//! (`==`, no tolerance) comparisons at pool sizes 1, 2, and 8.
//!
//! `plos::exec::with_threads` scopes a thread-count override to a closure,
//! which is how `ci.sh` exercises both the `PLOS_THREADS=1` and the
//! default-parallelism configurations within one binary.

// Test code asserts by panicking; the panic-free gate covers library code
// only.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

use plos::core::baselines::{GroupBaseline, GroupConfig, SingleBaseline, UserPredictions};
use plos::core::eval::plos_predictions;
use plos::prelude::*;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn cohort() -> MultiUserDataset {
    let spec = SyntheticSpec {
        num_users: 6,
        points_per_class: 25,
        max_rotation: std::f64::consts::FRAC_PI_3,
        flip_prob: 0.05,
    };
    generate_synthetic(&spec, 29).mask_labels(&LabelMask::providers(3, 0.25), 11)
}

#[test]
fn centralized_model_is_bit_identical_across_pool_sizes() {
    let dataset = cohort();
    let fit = |threads: usize| {
        plos::exec::with_threads(threads, || {
            CentralizedPlos::try_new(PlosConfig::fast())
                .unwrap()
                .fit(&dataset)
                .expect("training succeeds")
        })
    };
    let reference = fit(POOL_SIZES[0]);
    for threads in &POOL_SIZES[1..] {
        let model = fit(*threads);
        assert_eq!(reference, model, "centralized model diverged between 1 and {threads} threads");
    }
    // The model's predictions (the parallel evaluation path) must agree too.
    let preds: Vec<Vec<UserPredictions>> = POOL_SIZES
        .iter()
        .map(|&threads| {
            plos::exec::with_threads(threads, || plos_predictions(&reference, &dataset))
        })
        .collect();
    assert_eq!(preds[0], preds[1]);
    assert_eq!(preds[0], preds[2]);
}

/// The parallel matvec (chunked rows over the pool, each row reduced by
/// the fixed-order dot kernel) must be bit-identical at every pool size —
/// the product carries more than four `GRAIN`s of work on purpose, so
/// pools of 2 and 8 really fork (into 2 and 4 uneven row blocks).
#[test]
fn parallel_matvec_is_bit_identical_across_pool_sizes() {
    use plos::linalg::{Matrix, Vector};
    let rows = 1201;
    let cols = 457;
    assert!(rows * cols >= 4 * plos::exec::GRAIN, "the product must fork");
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    let m = Matrix::from_row_major(rows, cols, data).expect("well-formed matrix");
    let x = Vector::from((0..cols).map(|_| next()).collect::<Vec<_>>());
    let outputs: Vec<Vec<u64>> = POOL_SIZES
        .iter()
        .map(|&threads| {
            plos::exec::with_threads(threads, || {
                m.matvec(&x).as_slice().iter().map(|c| c.to_bits()).collect()
            })
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "matvec diverged between 1 and 2 threads");
    assert_eq!(outputs[0], outputs[2], "matvec diverged between 1 and 8 threads");
}

/// Q-row construction in the dual solver (one parallel pass of scaled dot
/// products per appended constraint) and the solve on top of it must be
/// bit-identical at every pool size. At this dimension a row of `n` entries
/// carries `n · dim` multiply-adds, so every append past the first 64
/// constraints forks.
#[test]
fn dual_q_rows_and_solve_are_bit_identical_across_pool_sizes() {
    use plos::core::dual::DualSolver;
    use plos::core::problem::Constraint;
    use plos::linalg::Vector;
    use plos::opt::QpSolverOptions;

    let dim = 4096;
    assert!(64 * dim >= 2 * plos::exec::GRAIN, "appends past 64 constraints must fork");
    let users = 5;
    let build_and_solve = |threads: usize| {
        plos::exec::with_threads(threads, || {
            let mut solver = DualSolver::new(3.0, users, dim).unwrap();
            let mut state = 0xabcd_u64;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
            };
            // Enough constraints that the late appends' row passes have up
            // to four chunks to concatenate.
            for i in 0..150 {
                let s = Vector::from((0..dim).map(|_| next()).collect::<Vec<_>>());
                let c = next().abs();
                if i % 7 == 0 {
                    solver.add_hard_constraint(i % users, Constraint { s, c }).unwrap();
                } else {
                    solver.add_constraint(i % users, Constraint { s, c }).unwrap();
                }
            }
            let sol = solver.solve(&QpSolverOptions::default()).expect("dual solve succeeds");
            let mut bits: Vec<u64> = sol.w0.as_slice().iter().map(|x| x.to_bits()).collect();
            for v in &sol.vs {
                bits.extend(v.as_slice().iter().map(|x| x.to_bits()));
            }
            bits.extend(sol.xis.iter().map(|x| x.to_bits()));
            bits.push(sol.dual_objective.to_bits());
            bits
        })
    };
    let outputs: Vec<Vec<u64>> = POOL_SIZES.iter().map(|&t| build_and_solve(t)).collect();
    assert_eq!(outputs[0], outputs[1], "dual solver diverged between 1 and 2 threads");
    assert_eq!(outputs[0], outputs[2], "dual solver diverged between 1 and 8 threads");
}

#[test]
fn single_baseline_is_bit_identical_across_pool_sizes() {
    let dataset = cohort();
    let outputs: Vec<Vec<UserPredictions>> = POOL_SIZES
        .iter()
        .map(|&threads| {
            plos::exec::with_threads(threads, || {
                SingleBaseline::fit(&dataset, 7).expect("single fits").predict_all(&dataset)
            })
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "Single diverged between 1 and 2 threads");
    assert_eq!(outputs[0], outputs[2], "Single diverged between 1 and 8 threads");
}

#[test]
fn group_baseline_is_bit_identical_across_pool_sizes() {
    let dataset = cohort();
    let outputs: Vec<(Vec<usize>, Vec<UserPredictions>)> = POOL_SIZES
        .iter()
        .map(|&threads| {
            plos::exec::with_threads(threads, || {
                let model =
                    GroupBaseline::fit(&dataset, &GroupConfig::default()).expect("group fits");
                (model.assignment().to_vec(), model.predict_all(&dataset))
            })
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "Group diverged between 1 and 2 threads");
    assert_eq!(outputs[0], outputs[2], "Group diverged between 1 and 8 threads");
}
