//! Microbenchmarks: the grouped QP solver that backs both PLOS duals.
//!
//! The cutting-plane loops re-solve the dual after every constraint batch,
//! so this solver dominates training time at scale. Four groups:
//!
//! * `grouped_qp_solve` — one-shot cold solves at fixed sizes;
//! * `device_dual_solve` — the device-local prox dual of Eq. (22): a cold
//!   solve of a rank-3 Gram dual with one cap-1 group plus 2 ungrouped
//!   (hard) rows, at the sizes a star device's working set reaches;
//! * `cutting_plane_growth` — the append-one-constraint-then-resolve loop,
//!   incremental state vs. rebuilding `Q` from stored constraint vectors
//!   every round (the pre-`IncrementalQp` behaviour);
//! * `simd_kernels` — dispatched SIMD entry points vs. their scalar bodies.

// Allowed: bench setup code; the generated problem is square and valid by
// construction, so these expects cannot fail and every index is in range.
#![allow(clippy::expect_used, clippy::indexing_slicing)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use plos_linalg::{kernels, Matrix};
use plos_opt::{IncrementalQp, QpSolverOptions};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A random PSD QP with variable `i` in group `i % groups`, appended to a
/// fresh solver one variable at a time.
fn random_qp(n: usize, groups: usize, seed: u64) -> IncrementalQp {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // PSD Q = AᵀA + ridge.
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = rng.gen_range(-1.0..1.0);
        }
    }
    let mut q = a.transpose().matmul(&a).expect("square");
    q.add_diagonal(0.5);
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..1.5)).collect();
    let mut qp = IncrementalQp::new(vec![1.0; groups]).expect("valid caps");
    for (i, &b_i) in b.iter().enumerate() {
        let row: Vec<f64> = (0..=i).map(|j| q[(i, j)]).collect();
        qp.append(Some(i % groups), b_i, &row).expect("valid row");
    }
    qp
}

fn bench_qp(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_qp_solve");
    for &n in &[10usize, 40, 120] {
        let mut qp = random_qp(n, (n / 10).max(1), 7);
        let cold = vec![0.0; n];
        let opts = QpSolverOptions::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                qp.set_warm(&cold).expect("valid start");
                black_box(qp.solve(&opts))
            });
        });
    }
    group.finish();
}

/// The device prox dual (`prox::solve_working_set`): `n − 2` soft cuts in
/// one cap-1 group followed by 2 ungrouped class-balance rows, with `Q` the
/// Gram matrix of 3-dimensional constraint vectors over `μ`.
fn device_dual(n: usize, seed: u64) -> IncrementalQp {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mu = 0.8;
    let s: Vec<[f64; 3]> = (0..n)
        .map(|_| [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(0.5..1.0)])
        .collect();
    let mut qp = IncrementalQp::new(vec![1.0]).expect("valid cap");
    for i in 0..n {
        let row: Vec<f64> = (0..=i).map(|j| kernels::dot(&s[i], &s[j]) / mu).collect();
        let soft = i + 2 < n;
        qp.append(soft.then_some(0), rng.gen_range(-0.2..1.0), &row).expect("valid row");
    }
    qp
}

fn bench_device_dual(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_dual_solve");
    let opts = QpSolverOptions::default();
    for &n in &[8usize, 16, 28] {
        let mut qp = device_dual(n, 5);
        let cold = vec![0.0; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                qp.set_warm(&cold).expect("valid start");
                black_box(qp.solve(&opts))
            });
        });
    }
    group.finish();
}

/// The shape `DualSolver` feeds the QP: constraint vectors of modest
/// dimension whose pairwise dots (plus a same-group bump) form `Q`.
struct Cohort {
    s: Vec<Vec<f64>>,
    b: Vec<f64>,
    groups: usize,
}

fn cohort(rounds: usize, dim: usize, groups: usize, seed: u64) -> Cohort {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let s: Vec<Vec<f64>> =
        (0..rounds).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let b: Vec<f64> = (0..rounds).map(|_| rng.gen_range(0.0..1.0)).collect();
    Cohort { s, b, groups }
}

fn q_entry(c: &Cohort, i: usize, j: usize) -> f64 {
    let same = if i % c.groups == j % c.groups { 1.0 } else { 0.0 };
    (0.1 + same) * kernels::dot(&c.s[i], &c.s[j]) + if i == j { 0.5 } else { 0.0 }
}

/// Append one constraint per round and re-solve warm — the cutting-plane
/// access pattern. `incremental` keeps `Q` and `γ` alive across rounds;
/// `rebuild` recomputes every `Q` entry from the stored vectors and
/// appends them to a fresh `IncrementalQp` each round, carrying the warm
/// start by hand. Same sequence of iterates either way; only the
/// maintenance cost differs.
fn bench_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("cutting_plane_growth");
    let opts = QpSolverOptions::default();
    for &rounds in &[40usize, 120] {
        let data = cohort(rounds, 24, 8, 11);
        group.bench_with_input(BenchmarkId::new("incremental", rounds), &rounds, |bencher, _| {
            bencher.iter(|| {
                let mut qp = IncrementalQp::new(vec![1.0; data.groups]).expect("valid caps");
                for i in 0..rounds {
                    let row: Vec<f64> = (0..=i).map(|j| q_entry(&data, i, j)).collect();
                    qp.append(Some(i % data.groups), data.b[i], &row).expect("valid row");
                    black_box(qp.solve(&opts));
                }
                qp.gamma().last().copied()
            });
        });
        group.bench_with_input(BenchmarkId::new("rebuild", rounds), &rounds, |bencher, _| {
            bencher.iter(|| {
                let mut warm: Vec<f64> = Vec::new();
                for i in 0..rounds {
                    let mut qp = IncrementalQp::new(vec![1.0; data.groups]).expect("valid caps");
                    for r in 0..=i {
                        let row: Vec<f64> = (0..=r).map(|col| q_entry(&data, r, col)).collect();
                        qp.append(Some(r % data.groups), data.b[r], &row).expect("valid row");
                    }
                    warm.push(0.0);
                    qp.set_warm(&warm).expect("valid warm start");
                    black_box(qp.solve(&opts));
                    warm = qp.gamma().to_vec();
                }
                warm.last().copied()
            });
        });
    }
    group.finish();
}

/// Dispatched kernels (AVX2 where the host has it) against the
/// scalar four-accumulator bodies they must bit-match. The interesting
/// number is the ratio, not the absolute time.
fn bench_kernels(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let n = 4096usize;
    let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut group = c.benchmark_group("simd_kernels");
    group.bench_function("dot/dispatch", |bencher| {
        bencher.iter(|| black_box(kernels::dot(black_box(&a), black_box(&b))));
    });
    group.bench_function("dot/scalar", |bencher| {
        bencher.iter(|| black_box(kernels::dot_scalar(black_box(&a), black_box(&b))));
    });
    let mut y = vec![0.0_f64; n];
    group.bench_function("axpy_dot/dispatch", |bencher| {
        bencher.iter(|| black_box(kernels::axpy_dot(black_box(&mut y), 0.25, black_box(&a))));
    });
    let mut y2 = vec![0.0_f64; n];
    group.bench_function("axpy_dot/scalar", |bencher| {
        bencher
            .iter(|| black_box(kernels::axpy_dot_scalar(black_box(&mut y2), 0.25, black_box(&a))));
    });
    group.finish();
}

criterion_group!(benches, bench_qp, bench_device_dual, bench_growth, bench_kernels);
criterion_main!(benches);
