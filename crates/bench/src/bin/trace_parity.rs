//! The one parity binary: tracing, the pool width and the SIMD kernels
//! must not perturb training.
//!
//! Runs seeded (fault-free) fits and prints a bit-exact digest of each
//! trained model — the IEEE-754 bit pattern of every coefficient, FNV-1a
//! folded to one line: a small centralized and distributed cohort, and the
//! centralized fit of the quick Sec. VI-E sweep's 20-user cohort. `ci.sh`
//! runs this binary dark, under `PLOS_TRACE=<tmp>`, under `PLOS_THREADS=1`
//! and `=8`, and under `PLOS_NO_SIMD=1`, and diffs the stdout: each of those
//! variables is read once per process, so each needs a process of its own.
//! Any divergence means the setting leaked into the solver (a clock read
//! feeding a decision, a join order, a kernel's accumulation order) and
//! fails the build. The traced run's JSONL is then checked for the
//! per-iteration events the observability layer promises.
//!
//! The gate covers deterministic runs only: under fault injection,
//! wall-clock timing feeds retry/eviction decisions, so bit-parity is not
//! defined there (see DESIGN.md §9).

use plos_bench::{mask, quick_plos_config, RunOptions};
use plos_ckpt::model_digest;
use plos_core::{CentralizedPlos, DistributedPlos, PersonalizedModel, PlosConfig};
use plos_sensing::dataset::LabelMask;
use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

/// FNV-1a over the IEEE-754 bit patterns of every model coefficient —
/// the canonical fold shared with the golden fixtures.
/// Negative zero vs. positive zero, NaN payloads — everything distinguishes.
fn digest(model: &PersonalizedModel) -> u64 {
    model_digest(model.global_hyperplane(), model.personal_biases())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SyntheticSpec {
        num_users: 6,
        points_per_class: 30,
        max_rotation: std::f64::consts::FRAC_PI_3,
        flip_prob: 0.05,
    };
    let data = generate_synthetic(&spec, 77).mask_labels(&LabelMask::providers(3, 0.2), 5);
    let config = PlosConfig::fast();

    let central = CentralizedPlos::try_new(config.clone())?.fit(&data)?;
    println!("centralized {:016x}", digest(&central));

    let (dist, report) = DistributedPlos::try_new(config)?.fit(&data)?;
    println!("distributed {:016x}", digest(&dist));
    println!("admm_rounds {}", report.admm_iterations);

    // `scale_suite --quick`'s 20-user cohort, built as `run_scale_point`
    // builds it.
    let opts = RunOptions { quick: true, ..RunOptions::default() };
    let spec = SyntheticSpec {
        num_users: 20,
        points_per_class: 40,
        max_rotation: std::f64::consts::FRAC_PI_2,
        flip_prob: 0.1,
    };
    let data = mask(&generate_synthetic(&spec, opts.seed), 10, 0.05, &opts, 0);
    let central = CentralizedPlos::try_new(quick_plos_config())?.fit(&data)?;
    println!("centralized-20 {:016x}", digest(&central));
    Ok(())
}
