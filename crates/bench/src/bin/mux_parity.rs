//! Mux-parity gate: the virtual-device scheduler's packing must never reach
//! the model — bit-identical models to the default runtime (K = 1) at any
//! multiplexing factor K and any pool size.
//!
//! Trains one seeded cohort under three protocol regimes and compares
//! bit-exact model digests (FNV-1a over every coefficient's IEEE-754 bit
//! pattern) between the default-runtime reference and each K:
//!
//! 1. the synchronous `DistributedPlos`, fault-free, at K ∈ {1, 4, 16};
//! 2. the asynchronous server under staleness bound `S = 0` (the barrier
//!    degeneration), same K sweep;
//! 3. the asynchronous server under `S = 4` with stragglers and a seeded
//!    sub-window delay plan — arrival order shuffles, the tag-matched fold
//!    does not, so the digest must still not move. The quiescence window is
//!    widened so every pass closes by full roster accounting, which is what
//!    makes the S > 0 trajectory timing-independent and comparable at all.
//!
//! One K = 4 case additionally re-runs under explicit 1- and 8-thread
//! pools: worker count is clamped by the pool, and neither clamp may touch
//! the digest.
//!
//! The fault seed comes from `PLOS_FAULT_SEED` (default 2024), matching
//! the fault-tolerance integration tests. Any mismatch exits non-zero and
//! fails `ci.sh`.

use std::time::Duration;

use plos_ckpt::model_digest;
use plos_core::{AsyncDistributedPlos, AsyncSpec, DistributedPlos, PersonalizedModel, PlosConfig};
use plos_net::{DeviceRuntime, FaultPlan};
use plos_sensing::dataset::LabelMask;
use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

const K_SWEEP: [usize; 3] = [1, 4, 16];

fn digest(model: &PersonalizedModel) -> u64 {
    model_digest(model.global_hyperplane(), model.personal_biases())
}

fn fault_seed() -> u64 {
    std::env::var("PLOS_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2024)
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
    let mut failed = false;
    let mut check = |label: String, reference: u64, got: u64| {
        let verdict = if got == reference { "ok" } else { "MISMATCH" };
        println!("{label:<28} {got:016x}  {verdict}");
        if got != reference {
            eprintln!("FAIL: {label} diverged from the default reference {reference:016x}");
            failed = true;
        }
    };

    // ---- 1. synchronous ADMM ----
    let sync = |runtime: DeviceRuntime| -> Result<u64, Box<dyn std::error::Error>> {
        let (model, _) =
            DistributedPlos::try_new(config.clone())?.with_runtime(runtime).fit(&data)?;
        Ok(digest(&model))
    };
    let sync_ref = sync(DeviceRuntime::default())?;
    println!("{:<28} {sync_ref:016x}  reference", "sync default");
    for k in K_SWEEP {
        let got = sync(DeviceRuntime::Multiplexed { devices_per_worker: k })?;
        check(format!("sync mux K={k}"), sync_ref, got);
    }
    for pool in [1usize, 8] {
        let got = plos_exec::with_threads(pool, || {
            sync(DeviceRuntime::Multiplexed { devices_per_worker: 4 })
        })?;
        check(format!("sync mux K=4 pool={pool}"), sync_ref, got);
    }

    // ---- 2. asynchronous, S = 0 barrier degeneration ----
    let s0_spec = AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() };
    let async_fit = |spec: AsyncSpec,
                     runtime: DeviceRuntime,
                     plan: &FaultPlan|
     -> Result<u64, Box<dyn std::error::Error>> {
        let (model, _) = AsyncDistributedPlos::try_new(config.clone(), spec)?
            .with_runtime(runtime)
            .fit_with_faults(&data, plan)?;
        Ok(digest(&model))
    };
    let none = FaultPlan::none();
    let s0_ref = async_fit(s0_spec, DeviceRuntime::default(), &none)?;
    check("async S=0 default vs sync".to_string(), sync_ref, s0_ref);
    for k in K_SWEEP {
        let got = async_fit(s0_spec, DeviceRuntime::Multiplexed { devices_per_worker: k }, &none)?;
        check(format!("async S=0 mux K={k}"), s0_ref, got);
    }

    // ---- 3. asynchronous, S = 4 with stragglers under seeded delays ----
    // Sub-window delays: far below the 300 ms quiescence window, so every
    // pass still folds the full roster and the trajectory stays pinned.
    let s4_spec = AsyncSpec {
        availability: 0.6,
        staleness_bound: 4,
        poll_window: Duration::from_millis(300),
        seed: 5,
    };
    let plan = FaultPlan::seeded(fault_seed()).with_delay(0.5, Duration::from_millis(4));
    let s4_ref = async_fit(s4_spec, DeviceRuntime::default(), &plan)?;
    println!("{:<28} {s4_ref:016x}  reference", "async S=4 default");
    for k in K_SWEEP {
        let got = async_fit(s4_spec, DeviceRuntime::Multiplexed { devices_per_worker: k }, &plan)?;
        check(format!("async S=4 mux K={k}"), s4_ref, got);
    }

    if failed {
        std::process::exit(1);
    }
    println!("mux parity: OK");
    Ok(())
}
