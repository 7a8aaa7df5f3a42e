//! Mux-parity gate, integration flavor: how the virtual-device scheduler
//! packs devices onto workers must never reach the model.
//!
//! For each protocol regime — synchronous ADMM, asynchronous `S = 0`
//! (barrier degeneration), and asynchronous `S = 4` with stragglers under a
//! seeded sub-window delay plan — one default-runtime reference run pins the
//! model digest, and every (K, pool) cell of the K ∈ {1, 4, 16} × pools
//! {1, 2, 8} matrix must reproduce it bit for bit. The pool dimension
//! exercises the worker-count clamp: at pool 1 every device shares one
//! worker, at pool 8 up to eight workers share the fleet, and neither may
//! touch a single bit of the trajectory.
//!
//! Why this holds (DESIGN.md §14): each device's message stream is a
//! per-link FIFO at every packing, the device machine depends only on its
//! own stream and state, and the server folds replies into tag-matched
//! per-device slots — arrival interleaving never reaches model state. The
//! `S = 4` leg additionally relies on a quiescence window generous enough
//! that every pass closes by full roster accounting, the same recipe as
//! tests/clock_independence.rs.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
use plos::prelude::*;
use plos_ckpt::model_digest;
use std::time::Duration;

const K_SWEEP: [usize; 3] = [1, 4, 16];
const POOL_SWEEP: [usize; 3] = [1, 2, 8];

fn cohort() -> MultiUserDataset {
    let spec = SyntheticSpec {
        num_users: 6,
        points_per_class: 25,
        max_rotation: std::f64::consts::FRAC_PI_3,
        flip_prob: 0.05,
    };
    generate_synthetic(&spec, 77).mask_labels(&LabelMask::providers(3, 0.2), 5)
}

fn digest(model: &PersonalizedModel) -> u64 {
    model_digest(model.global_hyperplane(), model.personal_biases())
}

fn fault_seed() -> u64 {
    std::env::var("PLOS_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2024)
}

/// Runs `fit` under the default runtime once for the reference digest, then
/// sweeps the K × pool matrix and demands bit-identical digests everywhere.
fn assert_matrix_parity(label: &str, fit: impl Fn(DeviceRuntime) -> u64) {
    let reference = fit(DeviceRuntime::default());
    for pool in POOL_SWEEP {
        for k in K_SWEEP {
            let got = plos_exec::with_threads(pool, || {
                fit(DeviceRuntime::Multiplexed { devices_per_worker: k })
            });
            assert_eq!(
                got, reference,
                "{label}: mux K={k} pool={pool} diverged from the default reference"
            );
        }
    }
}

#[test]
fn sync_admm_is_runner_independent() {
    let data = cohort();
    let config = PlosConfig::fast();
    assert_matrix_parity("sync", |runtime| {
        let (model, _) = DistributedPlos::try_new(config.clone())
            .unwrap()
            .with_runtime(runtime)
            .fit(&data)
            .unwrap();
        digest(&model)
    });
}

#[test]
fn async_s0_barrier_is_runner_independent() {
    let data = cohort();
    let config = PlosConfig::fast();
    let spec = AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() };
    assert_matrix_parity("async S=0", |runtime| {
        let (model, _) = AsyncDistributedPlos::try_new(config.clone(), spec)
            .unwrap()
            .with_runtime(runtime)
            .fit(&data)
            .unwrap();
        digest(&model)
    });
}

#[test]
fn async_s4_with_seeded_delays_is_runner_independent() {
    let data = cohort();
    let config = PlosConfig::fast();
    // Stragglers in play (availability 0.6), staleness bound 4, and a
    // quiescence window generous enough that every pass folds the full
    // roster — the timing-independence precondition for S > 0 parity.
    let spec = AsyncSpec {
        availability: 0.6,
        staleness_bound: 4,
        poll_window: Duration::from_millis(300),
        seed: 5,
    };
    // Sub-window delays shuffle arrival order but never the tag-matched
    // fold.
    let plan = FaultPlan::seeded(fault_seed()).with_delay(0.5, Duration::from_millis(4));
    assert_matrix_parity("async S=4", |runtime| {
        let (model, _) = AsyncDistributedPlos::try_new(config.clone(), spec)
            .unwrap()
            .with_runtime(runtime)
            .fit_with_faults(&data, &plan)
            .unwrap();
        digest(&model)
    });
}
