//! Shard-parity gate, integration flavor: the hierarchical aggregation
//! tree must be a pure topology substitution for the flat star.
//!
//! One flat default-runtime run pins the model digest; every cell of the
//! shards ∈ {1, 2, 4, 8} × runtime {default, Multiplexed K=4} ×
//! pools {1, 8} matrix must reproduce it bit for bit. The sweep covers
//! shards larger than the cohort (empty shards), a custom unbalanced
//! assignment, and a seeded sub-window delay plan that shuffles arrival
//! order without touching the fold.
//!
//! Why this holds (DESIGN.md §15): every fold the flat server performs is
//! an exact superaccumulator ([`plos_linalg`'s `ExactVecSum`]), which is
//! associative and commutative over its limb representation. Regional
//! aggregators therefore ship partial sums whose root-side merge in fixed
//! shard order reproduces the flat fold's bits for *any* partition of the
//! cohort — including empty shards, whose partial is the merge identity.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
use plos::prelude::*;
use plos_ckpt::model_digest;
use std::time::Duration;

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const POOL_SWEEP: [usize; 2] = [1, 8];

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

/// Runs the flat default-runtime fit once for the reference digest, then
/// sweeps the shards × runtime × pool matrix and demands bit-identical
/// digests.
fn assert_tree_parity(label: &str, fit: impl Fn(Topology, DeviceRuntime) -> u64) {
    let reference = fit(Topology::Flat, DeviceRuntime::default());
    for shards in SHARD_SWEEP {
        for (runtime, pools) in [
            (DeviceRuntime::default(), &[][..]),
            (DeviceRuntime::Multiplexed { devices_per_worker: 4 }, &POOL_SWEEP[..]),
        ] {
            if pools.is_empty() {
                let got = fit(Topology::Sharded(ShardSpec::new(shards)), runtime);
                assert_eq!(
                    got, reference,
                    "{label}: sharded ({shards} shards, default runtime) diverged from the flat \
                     reference"
                );
                continue;
            }
            for &pool in pools {
                let got = plos_exec::with_threads(pool, || {
                    fit(Topology::Sharded(ShardSpec::new(shards)), runtime)
                });
                assert_eq!(
                    got, reference,
                    "{label}: sharded ({shards} shards, mux K=4, pool {pool}) diverged from the \
                     flat reference"
                );
            }
        }
    }
}

#[test]
fn sharded_tree_matches_flat_star_bit_for_bit() {
    let data = cohort();
    let config = PlosConfig::fast();
    assert_tree_parity("clean", |topology, runtime| {
        let (model, report) = DistributedPlos::try_new(config.clone())
            .unwrap()
            .with_runtime(runtime)
            .with_topology(topology)
            .fit(&data)
            .unwrap();
        assert!(!report.degraded, "clean run must not be degraded");
        digest(&model)
    });
}

#[test]
fn sharded_tree_matches_flat_under_zero_effect_faults() {
    let data = cohort();
    let config = PlosConfig::fast();
    // Sub-window delays shuffle arrival order at both tree levels but
    // never reach a fold — the same zero-effect plan as the mux gate.
    let plan = FaultPlan::seeded(fault_seed()).with_delay(0.5, Duration::from_millis(4));
    assert_tree_parity("zero-effect faults", |topology, runtime| {
        let (model, _) = DistributedPlos::try_new(config.clone())
            .unwrap()
            .with_runtime(runtime)
            .with_topology(topology)
            .fit_with_faults(&data, &plan)
            .unwrap();
        digest(&model)
    });
}

#[test]
fn unbalanced_and_empty_shards_preserve_parity() {
    let data = cohort();
    let config = PlosConfig::fast();
    let flat = {
        let (model, _) = DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        digest(&model)
    };
    // Shard 0 empty, shard 1 holds one device, shard 2 holds the rest —
    // the adversarial partition for any fold that assumed balance.
    let assignment = vec![2, 1, 2, 2, 2, 2];
    let spec = ShardSpec::new(3).with_assignment(assignment);
    let (model, report) = DistributedPlos::try_new(config.clone())
        .unwrap()
        .with_topology(Topology::Sharded(spec))
        .fit(&data)
        .unwrap();
    assert_eq!(digest(&model), flat, "unbalanced assignment diverged from the flat reference");
    assert!(!report.participation.is_empty(), "participation log must cover the gather rounds");
}

#[test]
fn sharded_report_mirrors_flat_report() {
    let data = cohort();
    let config = PlosConfig::fast();
    let (_, flat) = DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
    let (_, tree) = DistributedPlos::try_new(config)
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(4)))
        .fit(&data)
        .unwrap();
    assert_eq!(tree.admm_iterations, flat.admm_iterations);
    assert_eq!(tree.cccp_rounds, flat.cccp_rounds);
    assert_eq!(tree.converged, flat.converged);
    let bits = |h: &plos::opt::convergence::History| {
        h.values().iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    assert_eq!(
        bits(&tree.history),
        bits(&flat.history),
        "objective trajectories must be bit-identical"
    );
    let flat_res: Vec<(u32, u64, u64)> =
        flat.residuals.iter().map(|r| (r.round, r.primal.to_bits(), r.dual.to_bits())).collect();
    let tree_res: Vec<(u32, u64, u64)> =
        tree.residuals.iter().map(|r| (r.round, r.primal.to_bits(), r.dual.to_bits())).collect();
    assert_eq!(tree_res, flat_res, "residual logs must be bit-identical");
}

#[test]
fn invalid_shard_specs_are_typed_errors() {
    let data = cohort();
    let config = PlosConfig::fast();
    // Zero shards.
    let err = DistributedPlos::try_new(config.clone())
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(0)))
        .fit(&data)
        .unwrap_err();
    assert!(matches!(err, plos_core::CoreError::InvalidConfig { .. }), "got {err:?}");
    // Assignment length mismatch.
    let err = DistributedPlos::try_new(config.clone())
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(2).with_assignment(vec![0, 1])))
        .fit(&data)
        .unwrap_err();
    assert!(matches!(err, plos_core::CoreError::InvalidConfig { .. }), "got {err:?}");
    // Out-of-range shard index in the assignment.
    let err = DistributedPlos::try_new(config.clone())
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(2).with_assignment(vec![0, 1, 2, 0, 1, 0])))
        .fit(&data)
        .unwrap_err();
    assert!(matches!(err, plos_core::CoreError::InvalidConfig { .. }), "got {err:?}");
    // Zero replicas.
    let err = DistributedPlos::try_new(config)
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(2).with_replicas(0)))
        .fit(&data)
        .unwrap_err();
    assert!(matches!(err, plos_core::CoreError::InvalidConfig { .. }), "got {err:?}");
}
