//! Cross-crate integration: the `plos-obs` telemetry layer against the real
//! solvers — schema round-trips, residual-event fidelity, and the
//! no-perturbation guarantee.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
use plos::obs::json::Json;
use plos::obs::{self, MemorySink, Value};
use plos::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The sink slot and metric registries are process-global; every test that
/// installs a sink serializes on this lock so tests cannot observe each
/// other's events.
fn sink_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = GUARD.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn cohort(seed: u64) -> MultiUserDataset {
    let spec = SyntheticSpec {
        num_users: 5,
        points_per_class: 25,
        max_rotation: std::f64::consts::FRAC_PI_4,
        flip_prob: 0.05,
    };
    generate_synthetic(&spec, seed).mask_labels(&LabelMask::providers(2, 0.2), 4)
}

/// Bit patterns of every model coefficient, for bit-exact comparisons.
fn coefficient_bits(model: &PersonalizedModel) -> Vec<u64> {
    let mut bits: Vec<u64> = model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
    for t in 0..model.num_users() {
        bits.extend(model.personal_bias(t).iter().map(|c| c.to_bits()));
    }
    bits
}

#[test]
fn centralized_events_round_trip_through_jsonl() {
    let _g = sink_guard();
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    let fit = CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit(&cohort(11));
    obs::set_sink(None);
    fit.unwrap();
    let events = sink.take();
    assert!(!events.is_empty(), "a traced fit must emit events");

    // Render every event to its JSONL line and parse it back: names and
    // numeric fields must survive exactly (f64s bit-for-bit).
    let jsonl: String = events.iter().map(obs::json::render).collect::<Vec<_>>().join("\n");
    let parsed = obs::json::parse_jsonl(&jsonl).unwrap();
    assert_eq!(parsed.len(), events.len());
    for (event, json) in events.iter().zip(&parsed) {
        assert_eq!(json.get("event").and_then(Json::as_str), Some(event.name));
        for (key, value) in &event.fields {
            let field = json.get(key).unwrap_or_else(|| panic!("{key} lost in round-trip"));
            match value {
                Value::U64(v) => assert_eq!(field.as_u64(), Some(*v)),
                Value::F64(v) => {
                    let back = field.as_f64().unwrap();
                    assert_eq!(back.to_bits(), v.to_bits(), "{key}: {v} != {back}");
                }
                Value::Bool(_) | Value::I64(_) | Value::Str(_) => {}
            }
        }
    }

    // The catalogue: per-CCCP objectives, per-cutting-round working sets,
    // per-QP sweeps, and the outer span must all be present.
    for name in ["cccp_round", "cutting_round", "qp_solve", "span"] {
        assert!(events.iter().any(|e| e.name == name), "missing {name} events");
    }
    for e in events.iter().filter(|e| e.name == "cccp_round") {
        assert!(e.field_u64("round").is_some());
        assert!(e.field_f64("objective").unwrap().is_finite());
    }
    for e in events.iter().filter(|e| e.name == "cutting_round") {
        assert!(e.field_u64("working_set").unwrap() > 0);
    }
}

#[test]
fn killed_centralized_run_traces_true_objectives_and_resumes() {
    let _g = sink_guard();
    let data = cohort(11);
    let dir =
        std::env::temp_dir().join(format!("plos-obs-centralized-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trainer = CentralizedPlos::try_new(PlosConfig::fast()).unwrap();
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    let killed = trainer
        .clone()
        .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
        .fit_detailed(&data);
    let killed_events = sink.take();
    let resumed = trainer.with_checkpointing(CheckpointPolicy::new(&dir)).fit_detailed(&data);
    let resumed_events = sink.take();
    obs::set_sink(None);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        matches!(killed, Err(plos::core::CoreError::Interrupted { checkpoints: 1 })),
        "kill switch must fire after the first snapshot, got {killed:?}"
    );
    let resumed = resumed.unwrap();
    // The killed run traced exactly the rounds it checkpointed, with the
    // objectives the resumed fit carries forward.
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let traced: Vec<f64> = killed_events
        .iter()
        .filter(|e| e.name == "cccp_round")
        .map(|e| e.field_f64("objective").unwrap())
        .collect();
    assert_eq!(bits(&traced), bits(&resumed.history.values()[..1]));
    let resume = resumed_events
        .iter()
        .find(|e| e.name == "checkpoint_resume")
        .expect("the resumed fit traces its restore");
    assert_eq!(resume.field("trainer"), Some(&Value::Str("centralized".into())));
    assert_eq!(resume.field_u64("cccp_rounds"), Some(1));
}

#[test]
fn killed_consensus_run_resumes_from_its_first_cccp_boundary() {
    let _g = sink_guard();
    let data = cohort(11);
    let dir =
        std::env::temp_dir().join(format!("plos-obs-distributed-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trainer = DistributedPlos::try_new(PlosConfig::fast()).unwrap();
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    let killed =
        trainer.clone().with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1)).fit(&data);
    let killed_events = sink.take();
    let resumed = trainer.with_checkpointing(CheckpointPolicy::new(&dir)).fit(&data);
    let resumed_events = sink.take();
    obs::set_sink(None);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        matches!(killed, Err(plos::core::CoreError::Interrupted { checkpoints: 1 })),
        "kill switch must fire after the first snapshot, got {killed:?}"
    );
    let (_, report) = resumed.unwrap();
    // The first snapshot closes CCCP round 1: the killed run traced that
    // round's objective, which the resumed fit carries forward.
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let traced: Vec<f64> = killed_events
        .iter()
        .filter(|e| e.name == "cccp_round")
        .map(|e| e.field_f64("objective").unwrap())
        .collect();
    assert_eq!(bits(&traced), bits(&report.history.values()[..1]));
    let rounds: Vec<u64> = killed_events
        .iter()
        .filter(|e| e.name == "admm_round")
        .map(|e| e.field_u64("round").unwrap())
        .collect();
    let resume = resumed_events
        .iter()
        .find(|e| e.name == "checkpoint_resume")
        .expect("the resumed fit traces its restore");
    assert_eq!(resume.field("trainer"), Some(&Value::Str("distributed".into())));
    assert_eq!(resume.field_u64("cccp_rounds"), Some(1));
    assert_eq!(resume.field_u64("admm_iterations"), Some(rounds.len() as u64));
    assert_eq!(resume.field_u64("round"), rounds.last().copied());
}

#[test]
fn distributed_residual_events_match_the_report() {
    let _g = sink_guard();
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    let result = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&cohort(21));
    obs::set_sink(None);
    let (_, report) = result.unwrap();

    let rounds: Vec<_> = sink.take().into_iter().filter(|e| e.name == "admm_round").collect();
    assert_eq!(rounds.len(), report.residuals.len(), "one admm_round event per recorded residual");
    assert_eq!(report.residuals.len(), report.admm_iterations);
    for (event, res) in rounds.iter().zip(&report.residuals) {
        assert_eq!(event.field_u64("round"), Some(u64::from(res.round)));
        let primal = event.field_f64("primal_residual").unwrap();
        let dual = event.field_f64("dual_residual").unwrap();
        assert_eq!(primal.to_bits(), res.primal.to_bits(), "primal drifted from report");
        assert_eq!(dual.to_bits(), res.dual.to_bits(), "dual drifted from report");
        // Participation counters ride on the same event.
        assert!(event.field_u64("replied").unwrap() <= event.field_u64("alive").unwrap());
    }
}

#[test]
fn async_events_match_the_report() {
    let _g = sink_guard();
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    // A tight staleness bound under low availability forces server-side
    // discards, so every event family of the async server fires.
    let trainer = AsyncDistributedPlos::try_new(
        PlosConfig::fast(),
        AsyncSpec { availability: 0.25, staleness_bound: 1, seed: 7, ..AsyncSpec::default() },
    )
    .unwrap();
    let result = trainer.fit(&cohort(21));
    obs::set_sink(None);
    let (_, report) = result.unwrap();

    let events = sink.take();
    let rounds: Vec<_> = events.iter().filter(|e| e.name == "async_round").collect();
    assert_eq!(rounds.len(), report.admm_iterations, "one async_round event per applied ADMM pass");
    for event in &rounds {
        assert!(event.field_f64("primal_residual").unwrap().is_finite());
        assert!(event.field_f64("dual_residual").unwrap().is_finite());
        let folded = event.field_u64("folded").unwrap();
        let alive = event.field_u64("alive").unwrap();
        assert!(folded >= 1 && folded <= alive, "folded {folded} outside [1, {alive}]");
    }

    let discards: Vec<_> = events.iter().filter(|e| e.name == "stale_discard").collect();
    assert_eq!(
        discards.len() as u64,
        report.stale_discards,
        "one stale_discard event per discarded update"
    );
    assert!(report.stale_discards > 0, "the discard path must actually have fired");
    for event in &discards {
        let epoch = event.field_u64("epoch").unwrap();
        let basis = event.field_u64("basis").unwrap();
        assert!(epoch - basis > 1, "a discarded update must exceed the bound S=1");
    }

    let summary = events
        .iter()
        .find(|e| e.name == "async_summary")
        .expect("an async fit emits a summary event");
    assert_eq!(summary.field_u64("admm_rounds"), Some(report.admm_iterations as u64));
    assert_eq!(summary.field_u64("cccp_rounds"), Some(report.cccp_rounds as u64));
    assert_eq!(summary.field_u64("stale_discards"), Some(report.stale_discards));
    assert_eq!(summary.field_u64("late_discards"), Some(report.late_discards));
    assert_eq!(summary.field_u64("evicted"), Some(0));
}

#[test]
fn tracing_does_not_perturb_training() {
    let _g = sink_guard();
    let data = cohort(31);
    let config = PlosConfig::fast();

    obs::set_sink(None);
    let dark_central = CentralizedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
    let (dark_dist, _) = DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();

    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    let lit_central = CentralizedPlos::try_new(config.clone()).unwrap().fit(&data);
    let lit_dist = DistributedPlos::try_new(config).unwrap().fit(&data);
    obs::set_sink(None);

    assert!(!sink.take().is_empty(), "the traced runs must actually have traced");
    assert_eq!(
        coefficient_bits(&dark_central),
        coefficient_bits(&lit_central.unwrap()),
        "centralized model perturbed by tracing"
    );
    assert_eq!(
        coefficient_bits(&dark_dist),
        coefficient_bits(&lit_dist.unwrap().0),
        "distributed model perturbed by tracing"
    );
}

#[test]
fn traffic_summary_reports_fleet_totals() {
    let _g = sink_guard();
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    let result = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&cohort(41));
    obs::set_sink(None);
    let (_, report) = result.unwrap();

    let events = sink.take();
    let summary = events
        .iter()
        .find(|e| e.name == "traffic_summary")
        .expect("distributed fit emits a traffic summary");
    let total = report
        .per_user_traffic
        .iter()
        .fold(plos::net::TrafficStats::default(), |acc, s| acc.merged(s));
    assert_eq!(summary.field_u64("bytes_sent"), Some(total.bytes_sent));
    assert_eq!(summary.field_u64("bytes_received"), Some(total.bytes_received));
    assert_eq!(summary.field_u64("messages_sent"), Some(total.messages_sent));
    assert_eq!(summary.field_u64("evicted"), Some(0));
}
