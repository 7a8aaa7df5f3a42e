//! Shard-parity gate: the hierarchical aggregation tree must be a pure
//! topology substitution — bit-identical models to the flat star at any
//! shard count, any multiplexing factor, and across root failovers.
//!
//! Trains one seeded cohort flat (default runtime) for the reference
//! digest, then compares bit-exact model digests (FNV-1a over every
//! coefficient's IEEE-754 bit pattern) against:
//!
//! 1. the sharded tree at shards ∈ {1, 2, 4, 8}, default runtime;
//! 2. the sharded tree at 4 shards with K = 4 devices per worker;
//! 3. an unbalanced custom assignment with an *empty* shard — the merge
//!    identity case;
//! 4. the same tree under a seeded zero-effect delay plan (arrival order
//!    shuffles, the exact fold does not);
//! 5. the failover leg: the root leader killed mid-round with 3 replicas —
//!    the elected successor must resume from anti-entropy-synced state and
//!    reproduce the reference digest, and a second run killing two leaders
//!    in different rounds must as well.
//!
//! The fault seed comes from `PLOS_FAULT_SEED` (default 2024), matching
//! the fault-tolerance integration tests. Any mismatch exits non-zero and
//! fails `ci.sh`.

use std::time::Duration;

use plos_ckpt::model_digest;
use plos_core::{DistributedPlos, PersonalizedModel, PlosConfig, ShardSpec, Topology};
use plos_net::{DeviceRuntime, FaultPlan};
use plos_sensing::dataset::LabelMask;
use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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
        println!("{label:<32} {got:016x}  {verdict}");
        if got != reference {
            eprintln!("FAIL: {label} diverged from the flat reference {reference:016x}");
            failed = true;
        }
    };

    let fit = |topology: Topology,
               runtime: DeviceRuntime,
               plan: &FaultPlan|
     -> Result<u64, Box<dyn std::error::Error>> {
        let (model, _) = DistributedPlos::try_new(config.clone())?
            .with_runtime(runtime)
            .with_topology(topology)
            .fit_with_faults(&data, plan)?;
        Ok(digest(&model))
    };
    let none = FaultPlan::none();

    // ---- flat reference ----
    let reference = fit(Topology::Flat, DeviceRuntime::default(), &none)?;
    println!("{:<32} {reference:016x}  reference", "flat default");

    // ---- 1. shard-count sweep, default runtime ----
    for shards in SHARD_SWEEP {
        let got = fit(Topology::Sharded(ShardSpec::new(shards)), DeviceRuntime::default(), &none)?;
        check(format!("sharded {shards} shards"), reference, got);
    }

    // ---- 2. sharded over the mux runtime ----
    let mux = DeviceRuntime::Multiplexed { devices_per_worker: 4 };
    let got = fit(Topology::Sharded(ShardSpec::new(4)), mux, &none)?;
    check("sharded 4 shards mux K=4".to_string(), reference, got);

    // ---- 3. unbalanced assignment with an empty shard ----
    let spec = ShardSpec::new(3).with_assignment(vec![2, 1, 2, 2, 2, 2]);
    let got = fit(Topology::Sharded(spec), DeviceRuntime::default(), &none)?;
    check("sharded empty+singleton".to_string(), reference, got);

    // ---- 4. zero-effect delay plan over the tree ----
    let delays = FaultPlan::seeded(fault_seed()).with_delay(0.5, Duration::from_millis(4));
    let got = fit(Topology::Sharded(ShardSpec::new(4)), DeviceRuntime::default(), &delays)?;
    check("sharded 4 shards delays".to_string(), reference, got);

    // ---- 5. root failover: leader killed mid-round, then twice ----
    let one_kill = FaultPlan::seeded(fault_seed()).with_root_kill(2);
    let got = fit(
        Topology::Sharded(ShardSpec::new(3).with_replicas(3)),
        DeviceRuntime::default(),
        &one_kill,
    )?;
    check("failover kill@2 (3 replicas)".to_string(), reference, got);

    let two_kills = FaultPlan::seeded(fault_seed()).with_root_kill(1).with_root_kill(3);
    let got = fit(
        Topology::Sharded(ShardSpec::new(2).with_replicas(3)),
        DeviceRuntime::default(),
        &two_kills,
    )?;
    check("failover kill@1+3 (3 replicas)".to_string(), reference, got);

    if failed {
        std::process::exit(1);
    }
    println!("shard parity: OK");
    Ok(())
}
