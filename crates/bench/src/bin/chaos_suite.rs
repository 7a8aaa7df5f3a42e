//! Chaos suite — distributed PLOS accuracy under seeded fault injection.
//!
//! Not a paper figure: this sweep characterizes the fault-tolerance layer
//! (retry/backoff, quorum gather, eviction) by training the same cohort
//! under increasingly hostile link conditions and printing accuracy,
//! participation, and eviction counts per point. All plans share one seed,
//! so the injected schedule — and the whole table — is reproducible.
//!
//! Besides the table, a full run writes `results/BENCH_chaos.json` built
//! from `plos-obs` trace events (`chaos_scenario`, one per row) so the
//! fault-tolerance numbers are machine-readable with the same parser that
//! reads `PLOS_TRACE` JSONL streams. A `--quick` run is a smoke: it prints
//! the table and writes no file.
//!
//! A root-failover scenario exercises the sharded aggregation tree's
//! replicated root: the leader is killed mid-round on top of background
//! delays, and the elected replica must land on the exact flat-run model
//! digest (`failover_scenario` event, enforced — a mismatch fails the
//! suite).
//!
//! The last scenario pits the synchronous barrier server against the
//! bounded-staleness asynchronous server (`AsyncDistributedPlos`, S = 4)
//! under a delay-heavy plan: the same cohort, the same injected delays,
//! accuracy within two points, wall-clock compared — recorded in the
//! `async_comparison` event.

use std::time::Duration;

use std::time::Instant;

use plos_bench::{emit_event, render_suite_json, results_path, RunOptions};
use plos_core::eval::{plos_predictions, score_predictions};
use plos_core::{
    AsyncDistributedPlos, AsyncSpec, DistributedPlos, FaultTolerance, PlosConfig, RetryPolicy,
};
use plos_net::FaultPlan;
use plos_obs::Event;
use plos_sensing::dataset::{LabelMask, MultiUserDataset};
use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

fn overall(model: &plos_core::PersonalizedModel, data: &MultiUserDataset) -> f64 {
    let acc = score_predictions(data, &plos_predictions(model, data));
    let providers = data.providers().len();
    acc.overall(providers, data.num_users() - providers)
}

/// A middle-ground policy for the sweep: windows short enough that a run
/// under 20% drop finishes in seconds, but with enough re-broadcasts that
/// only a genuinely dead device gets evicted.
fn sweep_policy() -> FaultTolerance {
    FaultTolerance {
        retry: RetryPolicy {
            recv_timeout: Duration::from_millis(80),
            max_retries: 3,
            backoff_base: Duration::from_millis(40),
            backoff_factor: 2.0,
            round_deadline: Duration::from_secs(1),
        },
        evict_after: 3,
        ..FaultTolerance::default()
    }
    .with_quorum(0.75)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = RunOptions::from_args();
    let users = if opts.quick { 4 } else { 8 };
    let spec = SyntheticSpec {
        num_users: users,
        points_per_class: if opts.quick { 20 } else { 40 },
        max_rotation: 0.25,
        flip_prob: 0.02,
    };
    let data = generate_synthetic(&spec, opts.seed)
        .mask_labels(&LabelMask::providers(users / 2, 0.2), opts.seed.wrapping_add(3));

    let trainer =
        DistributedPlos::try_new(PlosConfig::fast())?.try_with_fault_tolerance(sweep_policy())?;
    let seed = opts.seed.wrapping_add(2024);

    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("clean", FaultPlan::none()),
        ("drop 5%", FaultPlan::seeded(seed).with_drop(0.05)),
        ("drop 10%", FaultPlan::seeded(seed).with_drop(0.10)),
        ("drop 20%", FaultPlan::seeded(seed).with_drop(0.20)),
        ("delay 25%/5ms", FaultPlan::seeded(seed).with_delay(0.25, Duration::from_millis(5))),
        ("corrupt 8%", FaultPlan::seeded(seed).with_corruption(0.08)),
        (
            "combo + 1 dead",
            FaultPlan::seeded(seed)
                .with_drop(0.10)
                .with_delay(0.05, Duration::from_millis(3))
                .with_dead_link(users - 1, 40),
        ),
    ];

    println!("\n=== Chaos suite: accuracy under seeded link faults (quorum 0.75) ===");
    println!(
        "{:>16} {:>10} {:>14} {:>9} {:>10}",
        "scenario", "accuracy", "participation", "evicted", "degraded"
    );
    let mut events: Vec<Event> = Vec::new();
    for (name, plan) in &scenarios {
        let (model, report) = trainer.fit_with_faults(&data, plan)?;
        let acc = score_predictions(&data, &plos_predictions(&model, &data));
        let providers = data.providers().len();
        let overall = acc.overall(providers, data.num_users() - providers);
        println!(
            "{:>16} {:>10.4} {:>13.1}% {:>9} {:>10}",
            name,
            overall,
            report.participation_rate() * 100.0,
            report.evicted.len(),
            report.degraded
        );
        events.push(Event {
            name: "chaos_scenario",
            fields: vec![
                ("scenario", (*name).into()),
                ("accuracy", overall.into()),
                ("participation_rate", report.participation_rate().into()),
                ("admm_rounds", report.admm_iterations.into()),
                ("evicted", report.evicted.len().into()),
                ("degraded", report.degraded.into()),
                ("converged", report.converged.into()),
                ("protocol_errors", report.protocol_errors.into()),
                ("late_discards", report.late_discards.into()),
            ],
        });
    }

    // ---- Root failover under the sharded aggregation tree ----
    //
    // The replicated-root chaos scenario (DESIGN.md §15): kill the root
    // leader mid-round on top of background delays. The elected replica
    // must resume from the anti-entropy-synced state and land on the
    // *exact* flat-run model — the failover digest check is the same
    // bit-parity currency as the mux and thread gates.
    {
        use plos_ckpt::model_digest;
        use plos_core::{ShardSpec, Topology};
        let digest = |m: &plos_core::PersonalizedModel| {
            model_digest(m.global_hyperplane(), m.personal_biases())
        };
        let flat_trainer = DistributedPlos::try_new(PlosConfig::fast())
            .map_err(|e| format!("flat trainer: {e}"))?;
        let (flat_model, _) = flat_trainer.fit(&data)?;
        let failover_plan =
            FaultPlan::seeded(seed).with_delay(0.2, Duration::from_millis(4)).with_root_kill(2);
        let (tree_model, tree_report) = DistributedPlos::try_new(PlosConfig::fast())
            .map_err(|e| format!("sharded trainer: {e}"))?
            .with_topology(Topology::Sharded(ShardSpec::new(3).with_replicas(3)))
            .fit_with_faults(&data, &failover_plan)?;
        let flat_digest = digest(&flat_model);
        let tree_digest = digest(&tree_model);
        let acc = overall(&tree_model, &data);
        println!("\n=== Root failover: leader killed in round 2, 3 replicas, 3 shards ===");
        println!(
            "{:>16} {:>10.4} {:>18} {:>9}",
            "failover",
            acc,
            format!("{tree_digest:016x}"),
            if tree_digest == flat_digest { "parity" } else { "MISMATCH" }
        );
        if tree_digest != flat_digest {
            return Err(format!(
                "failover parity violation: flat {flat_digest:016x} vs sharded {tree_digest:016x}"
            )
            .into());
        }
        events.push(Event {
            name: "failover_scenario",
            fields: vec![
                ("scenario", "root kill round 2 + delay 20%/4ms".into()),
                ("shards", 3u32.into()),
                ("replicas", 3u32.into()),
                ("accuracy", acc.into()),
                ("admm_rounds", tree_report.admm_iterations.into()),
                ("converged", tree_report.converged.into()),
                ("model_digest", format!("{tree_digest:016x}").into()),
                ("parity", (tree_digest == flat_digest).into()),
            ],
        });
    }

    // ---- Sync vs. async under a delay-heavy straggler plan ----
    //
    // The paper's asynchronous scenario: one device delays its responses
    // arbitrarily long (here a fixed straggler lag) on top of background
    // jitter. The synchronous trainer runs its *true barrier* policy here
    // (default fault tolerance: quorum 1.0, generous windows — the sweep
    // policy above would simply evict the straggler and drop its data),
    // so every ADMM gather pays the straggler's lag. The asynchronous
    // server under S = 4 folds the prompt devices within each quiescence
    // window, discards the straggler's over-stale updates, and re-anchors
    // it in the (synchronous, always-fresh) refinement barrier — accuracy
    // within two points at a fraction of the wall-clock.
    let straggler_lag = Duration::from_millis(if opts.quick { 100 } else { 250 });
    let delay_plan = FaultPlan::seeded(seed)
        .with_delay(0.2, Duration::from_millis(8))
        .with_straggler(users - 1, straggler_lag);
    let barrier_trainer = DistributedPlos::try_new(PlosConfig::fast())?;

    let sync_started = Instant::now();
    let (sync_model, _) = barrier_trainer.fit_with_faults(&data, &delay_plan)?;
    let sync_wall = sync_started.elapsed();
    let sync_acc = overall(&sync_model, &data);

    let async_trainer = AsyncDistributedPlos::try_new(
        PlosConfig::fast(),
        AsyncSpec {
            availability: 1.0,
            staleness_bound: 4,
            poll_window: Duration::from_millis(25),
            seed: opts.seed,
        },
    )?;
    let (async_model, async_report) = async_trainer.fit_with_faults(&data, &delay_plan)?;
    let async_acc = overall(&async_model, &data);
    let async_wall = async_report.wall_clock;

    println!(
        "\n=== Sync vs. async (S=4) under delay 20%/8ms + {}ms straggler ===",
        straggler_lag.as_millis()
    );
    println!("{:>16} {:>10} {:>12}", "server", "accuracy", "wall-clock");
    println!("{:>16} {:>10.4} {:>10.1}ms", "sync barrier", sync_acc, sync_wall.as_secs_f64() * 1e3);
    println!("{:>16} {:>10.4} {:>10.1}ms", "async S=4", async_acc, async_wall.as_secs_f64() * 1e3);
    println!(
        "{:>16} stale_discards={} late_discards={} reassignments={}",
        "", async_report.stale_discards, async_report.late_discards, async_report.reassignments
    );
    events.push(Event {
        name: "async_comparison",
        fields: vec![
            ("plan", format!("delay 20%/8ms + straggler {}ms", straggler_lag.as_millis()).into()),
            ("staleness_bound", 4u32.into()),
            ("sync_acc", sync_acc.into()),
            ("async_acc", async_acc.into()),
            ("accuracy_gap", (sync_acc - async_acc).abs().into()),
            ("sync_wall_ms", (sync_wall.as_secs_f64() * 1e3).into()),
            ("async_wall_ms", (async_wall.as_secs_f64() * 1e3).into()),
            ("async_speedup", (sync_wall.as_secs_f64() / async_wall.as_secs_f64()).into()),
            ("stale_discards", async_report.stale_discards.into()),
            ("late_discards", async_report.late_discards.into()),
            ("reassignments", async_report.reassignments.into()),
        ],
    });

    let header = Event {
        name: "chaos_suite",
        fields: vec![
            ("quick", opts.quick.into()),
            ("seed", opts.seed.into()),
            ("users", users.into()),
            ("quorum", 0.75.into()),
        ],
    };
    for e in std::iter::once(&header).chain(&events) {
        emit_event(e);
    }
    if opts.quick {
        return Ok(());
    }
    let out = results_path("BENCH_chaos.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out, render_suite_json(&header, &events))?;
    println!("\nwrote {}", out.display());
    Ok(())
}
