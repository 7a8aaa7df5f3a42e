//! Chaos suite: distributed training under seeded fault injection.
//!
//! Every plan here is driven by a fixed seed (override with
//! `PLOS_FAULT_SEED`), so the exact frames harmed — and therefore the whole
//! retry/quorum/eviction trajectory — are reproducible run to run.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
use plos::core::eval::{plos_predictions, score_predictions};
use plos::prelude::*;
use std::time::Duration;

/// Seed of every fault plan below. `PLOS_FAULT_SEED` overrides it so CI can
/// rotate the chaos schedule without a code change.
fn fault_seed() -> u64 {
    std::env::var("PLOS_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2024)
}

fn cohort(users: usize, seed: u64) -> MultiUserDataset {
    let spec = SyntheticSpec {
        num_users: users,
        points_per_class: 30,
        // Mild personalization: an evicted device's carry-forward (or
        // global-fallback) hyperplane stays close to its optimum.
        max_rotation: 0.25,
        flip_prob: 0.02,
    };
    generate_synthetic(&spec, seed).mask_labels(&LabelMask::providers(users / 2, 0.2), 3)
}

fn overall(model: &PersonalizedModel, data: &MultiUserDataset) -> f64 {
    let acc = score_predictions(data, &plos_predictions(model, data));
    let p = data.providers().len();
    acc.overall(p, data.num_users() - p)
}

/// Trainer with the chaos-friendly policy: quorum 0.75, tight retry windows.
fn quorum_trainer() -> DistributedPlos {
    DistributedPlos::try_new(PlosConfig::fast())
        .unwrap()
        .try_with_fault_tolerance(FaultTolerance::fast().with_quorum(0.75))
        .unwrap()
}

#[test]
fn zero_fault_plan_is_bit_identical_to_fit() {
    let data = cohort(4, 11);
    let trainer = DistributedPlos::try_new(PlosConfig::fast()).unwrap();
    let (plain, plain_report) = trainer.fit(&data).unwrap();
    let (chaos, chaos_report) = trainer.fit_with_faults(&data, &FaultPlan::none()).unwrap();
    assert_eq!(plain, chaos, "the zero plan must be a transparent pass-through");
    assert_eq!(
        plain_report.history.values(),
        chaos_report.history.values(),
        "objective trajectories must match bit for bit"
    );
    assert!(!chaos_report.degraded);
    assert!(chaos_report.evicted.is_empty());
    assert_eq!(chaos_report.protocol_errors, 0);
    assert_eq!(chaos_report.late_discards, 0);
}

#[test]
fn drop_only_plan_retries_through() {
    let data = cohort(5, 7);
    let plan = FaultPlan::seeded(fault_seed()).with_drop(0.10);
    let (model, report) = quorum_trainer().fit_with_faults(&data, &plan).unwrap();
    let acc = overall(&model, &data);
    assert!(acc > 0.7, "10% drop should still learn, got {acc}");
    for t in 0..data.num_users() {
        assert!(model.personalized_hyperplane(t).is_finite());
    }
    // Retries and/or quorum rounds must have fired for anything to be lost.
    assert!(report.participation.iter().all(|p| p.alive > 0));
}

#[test]
fn delay_only_plan_stays_accurate() {
    let data = cohort(5, 7);
    let plan = FaultPlan::seeded(fault_seed()).with_delay(0.25, Duration::from_millis(5));
    let (model, report) = quorum_trainer().fit_with_faults(&data, &plan).unwrap();
    let acc = overall(&model, &data);
    assert!(acc > 0.7, "delays should not break learning, got {acc}");
    assert!(report.evicted.is_empty(), "a delayed device is late, not dead");
}

#[test]
fn corrupted_frames_are_counted_not_fatal() {
    let data = cohort(5, 7);
    let plan = FaultPlan::seeded(fault_seed()).with_corruption(0.08);
    let (model, report) = quorum_trainer().fit_with_faults(&data, &plan).unwrap();
    let acc = overall(&model, &data);
    assert!(acc > 0.7, "corruption should surface as decode failures, got {acc}");
    // Corrupted broadcasts are detected client-side as decode failures and
    // never counted as received traffic.
    let client_decode_failures: u64 =
        report.per_user_traffic.iter().map(|s| s.decode_failures).sum();
    assert!(client_decode_failures > 0, "the corruption fault never fired");
}

#[test]
fn dead_device_is_evicted_and_round_rescaled() {
    let data = cohort(5, 7);
    let plan = FaultPlan::seeded(fault_seed()).with_dead_link(4, 0);
    let (model, report) = quorum_trainer().fit_with_faults(&data, &plan).unwrap();
    assert!(report.degraded);
    assert_eq!(report.evicted, vec![4]);
    assert_eq!(model.num_users(), 5, "the dead device still gets a (fallback) model");
    // Survivors' rounds run with the shrunk roster.
    assert!(report.participation.iter().last().unwrap().alive == 4);
    let acc = overall(&model, &data);
    assert!(acc > 0.65, "four live devices still learn, got {acc}");
}

#[test]
fn acceptance_combo_degrades_within_two_points() {
    // The tentpole acceptance scenario: 10% drop + 5% delay + one device
    // dying mid-run, gathered at quorum 0.75.
    let data = cohort(6, 9);
    let trainer = quorum_trainer();
    let (clean, _) = trainer.fit(&data).unwrap();
    let plan = FaultPlan::seeded(fault_seed())
        .with_drop(0.10)
        .with_delay(0.05, Duration::from_millis(3))
        .with_dead_link(5, 40);
    let (faulted, report) = trainer.fit_with_faults(&data, &plan).unwrap();
    assert!(report.degraded, "a dead device must mark the run degraded");
    assert!(report.evicted.contains(&5));
    let clean_acc = overall(&clean, &data);
    let faulted_acc = overall(&faulted, &data);
    let gap = clean_acc - faulted_acc;
    assert!(
        gap < 0.02 + 1e-9,
        "faulted accuracy {faulted_acc} fell more than 2 points below {clean_acc}"
    );
}

#[test]
fn mid_round_device_death_never_panics() {
    // The device dies after three server sends — mid-ADMM, with state in
    // flight — under the default full quorum: the strictest configuration.
    let data = cohort(4, 5);
    let plan = FaultPlan::seeded(fault_seed()).with_dead_link(2, 3);
    let trainer = DistributedPlos::try_new(PlosConfig::fast())
        .unwrap()
        .try_with_fault_tolerance(FaultTolerance::fast())
        .unwrap();
    let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
    assert!(report.degraded);
    assert_eq!(report.evicted, vec![2]);
    for t in 0..4 {
        assert!(model.personalized_hyperplane(t).is_finite());
    }
}

#[test]
fn total_fleet_loss_is_an_error_not_a_hang() {
    let data = cohort(2, 3);
    let plan = FaultPlan::seeded(fault_seed()).with_dead_link(0, 0).with_dead_link(1, 0);
    let err = quorum_trainer().fit_with_faults(&data, &plan).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("transport failure") || msg.contains("quorum lost"),
        "expected a graceful transport/quorum error, got: {msg}"
    );
}

#[test]
fn killed_run_under_faults_resumes_within_the_accuracy_band() {
    // A checkpointed run is killed at its first snapshot, the first CCCP
    // boundary, *while faults are firing*, then resumed under the same
    // seeded plan, so the later CCCP rounds and refinement run after the
    // seam. Bit-parity is not defined here (retry timing feeds decisions
    // under faults, see DESIGN.md §9), so the contract is the fault suite's
    // own: the resumed model must land inside the 2-point accuracy band,
    // and the report's residual log must be continuous across the kill
    // seam.
    let data = cohort(5, 7);
    let plan = FaultPlan::seeded(fault_seed()).with_drop(0.10);
    let trainer = quorum_trainer();
    let (clean, _) = trainer.fit(&data).unwrap();

    let dir = std::env::temp_dir().join(format!("plos-fault-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let killed = quorum_trainer()
        .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
        .fit_with_faults(&data, &plan);
    let err = killed.unwrap_err();
    assert!(
        format!("{err}").contains("interrupted"),
        "the abort threshold must surface as an interruption, got: {err}"
    );

    let (resumed, report) = quorum_trainer()
        .with_checkpointing(CheckpointPolicy::new(&dir))
        .fit_with_faults(&data, &plan)
        .unwrap();

    let clean_acc = overall(&clean, &data);
    let resumed_acc = overall(&resumed, &data);
    assert!(
        clean_acc - resumed_acc < 0.02 + 1e-9,
        "resumed accuracy {resumed_acc} fell more than 2 points below {clean_acc}"
    );

    // Residual continuity: the restored pre-seam entries and the post-seam
    // ones form a single strictly increasing round sequence with no
    // duplicate or vanished rounds at the seam.
    assert!(report.residuals.len() >= 3, "pre-seam residuals must survive the resume");
    for pair in report.residuals.windows(2) {
        assert!(
            pair[1].round > pair[0].round,
            "residual rounds must stay strictly increasing across the seam: {} then {}",
            pair[0].round,
            pair[1].round
        );
    }
    for r in &report.residuals {
        assert!(r.primal.is_finite() && r.dual.is_finite());
    }

    // Success cleared the checkpoint; a rerun must start fresh, not resume.
    assert!(!dir.join("distributed.ckpt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggressive_backoff_policy_is_clamped_to_the_round_deadline() {
    // Regression test: geometric backoff growth used to run unclamped, so
    // an aggressive factor could overflow `Duration::mul_f64` (panic) or
    // sleep far past the round deadline. With one device dead from the
    // first frame, every retry in every gather walks the full backoff
    // schedule — the run must finish (with an eviction), not panic or
    // stall beyond the deadline arithmetic.
    let data = cohort(2, 3);
    let plan = FaultPlan::seeded(fault_seed()).with_dead_link(1, 0);
    let trainer = DistributedPlos::try_new(PlosConfig::fast())
        .unwrap()
        .try_with_fault_tolerance(FaultTolerance {
            retry: RetryPolicy {
                recv_timeout: Duration::from_millis(5),
                max_retries: 20,
                backoff_base: Duration::from_millis(1),
                backoff_factor: 1e30,
                round_deadline: Duration::from_millis(200),
            },
            evict_after: 3,
            ..FaultTolerance::default()
        })
        .unwrap();
    let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
    assert_eq!(report.evicted, vec![1]);
    assert!(model.personalized_hyperplane(0).is_finite());
}

#[test]
fn async_s0_is_bit_identical_to_the_synchronous_server() {
    // The staleness-bound degeneracy gate: under S = 0 the asynchronous
    // server must walk the synchronous trajectory bit for bit — clean, and
    // under a sub-window delay plan (delays reorder arrivals inside the
    // barrier, never the index-ordered fold).
    let data = cohort(5, 7);
    let config = PlosConfig::fast();
    let (sync_model, sync_report) =
        DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
    let async_trainer = AsyncDistributedPlos::try_new(
        config,
        AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() },
    )
    .unwrap();

    let (clean_model, clean_report) = async_trainer.fit(&data).unwrap();
    assert_eq!(clean_model, sync_model, "async S=0 (clean) diverged from the synchronous model");
    assert_eq!(clean_report.history.values(), sync_report.history.values());
    assert_eq!(clean_report.admm_iterations, sync_report.admm_iterations);
    assert_eq!(clean_report.cccp_rounds, sync_report.cccp_rounds);

    let plan = FaultPlan::seeded(fault_seed()).with_delay(0.5, Duration::from_millis(4));
    let (delayed_model, delayed_report) = async_trainer.fit_with_faults(&data, &plan).unwrap();
    assert_eq!(delayed_model, sync_model, "sub-window delays perturbed the async S=0 model");
    assert_eq!(delayed_report.history.values(), sync_report.history.values());
    assert_eq!(delayed_report.stale_discards, 0, "S=0 replies are always fresh");
}

#[test]
fn async_bounded_staleness_stays_in_band_under_delay_heavy_plan() {
    // Delay-heavy chaos vs. the async server at S = 8: jitter on every
    // other frame plus a straggler device whose replies always lag. The
    // bounded-staleness run must stay within the fault suite's 2-point
    // accuracy band of the clean synchronous model.
    let data = cohort(6, 9);
    let (clean, _) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
    let plan = FaultPlan::seeded(fault_seed())
        .with_delay(0.5, Duration::from_millis(10))
        .with_straggler(5, Duration::from_millis(120));
    let trainer = AsyncDistributedPlos::try_new(
        PlosConfig::fast(),
        AsyncSpec { staleness_bound: 8, availability: 1.0, ..AsyncSpec::default() },
    )
    .unwrap();
    let (faulted, report) = trainer.fit_with_faults(&data, &plan).unwrap();
    let gap = overall(&clean, &data) - overall(&faulted, &data);
    assert!(gap < 0.02 + 1e-9, "bounded-staleness accuracy fell {gap} below the clean model");
    assert!(report.evicted.is_empty(), "delays and stragglers are late, not dead");
    assert!(report.admm_iterations > 0);
}

#[test]
fn async_dead_link_is_evicted_not_fatal() {
    let data = cohort(5, 7);
    let plan = FaultPlan::seeded(fault_seed()).with_dead_link(4, 0);
    let trainer = AsyncDistributedPlos::try_new(
        PlosConfig::fast(),
        AsyncSpec { availability: 1.0, ..AsyncSpec::default() },
    )
    .unwrap();
    let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
    assert_eq!(report.evicted, vec![4]);
    assert_eq!(model.num_users(), 5, "the dead device still gets a (fallback) model");
    for t in 0..5 {
        assert!(model.personalized_hyperplane(t).is_finite());
    }
    let acc = overall(&model, &data);
    assert!(acc > 0.65, "four live devices still learn, got {acc}");
}

#[test]
fn async_stale_discards_are_counted_in_the_report() {
    // A tight bound under low availability: devices keep resending cached
    // solutions whose basis epoch falls behind, so the server must discard
    // — and count — over-stale updates while the model stays finite.
    let data = cohort(5, 7);
    let trainer = AsyncDistributedPlos::try_new(
        PlosConfig::fast(),
        AsyncSpec { availability: 0.25, staleness_bound: 1, seed: 7, ..AsyncSpec::default() },
    )
    .unwrap();
    let (model, report) = trainer.fit(&data).unwrap();
    assert!(report.stale_discards > 0, "S=1 at 25% availability must discard stale updates");
    assert!(report.staleness() > 0.0);
    for t in 0..5 {
        assert!(model.personalized_hyperplane(t).is_finite());
    }
}

#[test]
fn chaos_runs_are_reproducible_for_a_fixed_seed() {
    let data = cohort(4, 13);
    let plan = FaultPlan::seeded(fault_seed()).with_drop(0.10);
    let trainer = quorum_trainer();
    let (m1, r1) = trainer.fit_with_faults(&data, &plan).unwrap();
    let (m2, r2) = trainer.fit_with_faults(&data, &plan).unwrap();
    // Timing jitter can shift *when* a retry fires, but the injected fault
    // schedule — and with it which frames are harmed — is seed-driven, so
    // the eviction outcome must agree.
    assert_eq!(r1.evicted, r2.evicted);
    assert_eq!(m1.num_users(), m2.num_users());
}

// ---------------------------------------------------------------------------
// Sharded aggregation tree: root failover chaos (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// Killing the root leader mid-round must fail over to an elected replica
/// that resumes from the anti-entropy-synced state with bit-parity: the
/// model digest, objective trajectory, and residual log all match a flat
/// run exactly — the failover leaves no seam in any observable output.
#[test]
fn root_leader_kill_fails_over_with_bit_parity() {
    let data = cohort(6, 11);
    let config = PlosConfig::fast();
    let (flat_model, flat_report) =
        DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();

    // Kill the leader in ADMM round 2, after partials are collected but
    // before the fold commits — the worst moment for a naive design.
    let plan = FaultPlan::seeded(fault_seed()).with_root_kill(2);
    let (model, report) = DistributedPlos::try_new(config)
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(3).with_replicas(3)))
        .fit_with_faults(&data, &plan)
        .unwrap();

    assert_eq!(model, flat_model, "failover must not perturb a single model bit");
    assert_eq!(
        report.history.values(),
        flat_report.history.values(),
        "objective trajectory must survive failover bit for bit"
    );
    // Residual-log continuity: same rounds, same bits, no gap at the seam.
    let bits = |rs: &[AdmmResiduals]| {
        rs.iter().map(|r| (r.round, r.primal.to_bits(), r.dual.to_bits())).collect::<Vec<_>>()
    };
    assert_eq!(bits(&report.residuals), bits(&flat_report.residuals));
    assert_eq!(report.admm_iterations, flat_report.admm_iterations);
    assert_eq!(report.converged, flat_report.converged);
}

/// Two successive leader kills in different rounds: each failover elects a
/// fresh leader from the survivors and the run still lands bit-identical.
#[test]
fn repeated_root_kills_exhaust_replicas_gracefully() {
    let data = cohort(5, 7);
    let config = PlosConfig::fast();
    let (flat_model, _) = DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();

    let plan = FaultPlan::seeded(fault_seed()).with_root_kill(1).with_root_kill(3);
    let (model, _) = DistributedPlos::try_new(config)
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(2).with_replicas(3)))
        .fit_with_faults(&data, &plan)
        .unwrap();
    assert_eq!(model, flat_model, "two failovers must still land bit-identical");
}

/// When every root replica dies the run must surface the typed
/// `RootQuorumLost` error — not a hang, not a panic, not a wrong model.
#[test]
fn killing_all_root_replicas_is_a_typed_error() {
    let data = cohort(4, 13);
    // Two replicas, two kills in the same round: the second kill finds no
    // survivor to elect.
    let plan = FaultPlan::seeded(fault_seed()).with_root_kill(1).with_root_kill(1);
    let err = DistributedPlos::try_new(PlosConfig::fast())
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(2).with_replicas(2)))
        .fit_with_faults(&data, &plan)
        .unwrap_err();
    match err {
        plos::core::CoreError::RootQuorumLost { round, replicas } => {
            assert_eq!(round, 1);
            assert_eq!(replicas, 2);
        }
        other => panic!("expected RootQuorumLost, got {other:?}"),
    }
}

/// Failover composes with device-level chaos: a zero-effect delay plan plus
/// a leader kill still reproduces the flat digest.
#[test]
fn failover_composes_with_device_delays() {
    let data = cohort(5, 17);
    let config = PlosConfig::fast();
    let (flat_model, _) = DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();

    let plan =
        FaultPlan::seeded(fault_seed()).with_delay(0.5, Duration::from_millis(4)).with_root_kill(2);
    let (model, _) = DistributedPlos::try_new(config)
        .unwrap()
        .with_topology(Topology::Sharded(ShardSpec::new(4).with_replicas(3)))
        .fit_with_faults(&data, &plan)
        .unwrap();
    assert_eq!(model, flat_model, "delays + failover must still be bit-identical");
}
