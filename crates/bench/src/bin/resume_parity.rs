//! Resume-parity gate: killing and resuming training must not change the
//! model by a single bit.
//!
//! For each trainer (centralized CCCP, the flat ADMM server, and the
//! bounded-staleness server at S = 0 and at S = 2) this binary first runs
//! a seeded fit to completion, then re-runs it with an abort
//! threshold of one — the run dies at its *first* checkpoint, is resumed,
//! dies at the next, and so on until completion. Every checkpoint seam the
//! run can produce is therefore exercised as an actual kill/resume cycle.
//! The surviving model's FNV-1a digest must equal the uninterrupted run's,
//! and every trainer snapshots once per CCCP round and once per refinement
//! round, so the run must die exactly `cccp_rounds + refine_rounds` times
//! (a trainer that stopped checkpointing would otherwise pass with zero
//! kills). Either violation exits nonzero and fails `ci.sh`.
//!
//! The gate covers fault-free runs only: under fault injection wall-clock
//! timing feeds retry/eviction decisions, so bit-parity is not defined
//! there (the chaos suite asserts an accuracy band instead).

use plos_ckpt::model_digest;
use plos_core::{
    AsyncDistributedPlos, AsyncSpec, CentralizedPlos, CheckpointPolicy, CoreError, DistributedPlos,
    PersonalizedModel, PlosConfig,
};
use plos_sensing::dataset::{LabelMask, MultiUserDataset};
use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};
use std::time::Duration;

/// Canonical model digest (same fold as `trace_parity` and the golden
/// fixtures): w0 coefficients, then every user's bias, in user order.
fn digest(model: &PersonalizedModel) -> u64 {
    model_digest(model.global_hyperplane(), model.personal_biases())
}

/// Small seeded cohort: the gate's cost scales with the number of
/// checkpoint seams (each is a full kill/resume cycle), so this stays
/// deliberately leaner than the figure-reproduction datasets.
fn cohort() -> MultiUserDataset {
    let spec =
        SyntheticSpec { num_users: 4, points_per_class: 20, max_rotation: 0.4, flip_prob: 0.02 };
    generate_synthetic(&spec, 21).mask_labels(&LabelMask::providers(2, 0.25), 3)
}

/// Runs `fit` to completion while killing it at every checkpoint seam:
/// each leg aborts after writing one checkpoint and the next leg resumes
/// from it. Returns the final model and the number of kills survived.
fn run_killing_at_every_seam<F>(
    dir: &std::path::Path,
    fit: F,
) -> Result<(PersonalizedModel, u32), CoreError>
where
    F: Fn(CheckpointPolicy) -> Result<PersonalizedModel, CoreError>,
{
    let mut kills = 0u32;
    // One leg per seam plus the finishing leg; anything beyond this bound
    // means the resume logic is looping instead of progressing.
    const MAX_LEGS: u32 = 10_000;
    loop {
        match fit(CheckpointPolicy::new(dir).abort_after(1)) {
            Ok(model) => return Ok((model, kills)),
            Err(CoreError::Interrupted { .. }) => {
                kills += 1;
                if kills >= MAX_LEGS {
                    return Err(CoreError::Ckpt(plos_ckpt::CkptError::Malformed {
                        detail: format!("no convergence after {MAX_LEGS} kill/resume legs"),
                    }));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Kills `fit` at every seam and checks the survivor against the clean
/// run: the same digest, after exactly `expected` kills.
fn gate(
    name: &str,
    clean: &PersonalizedModel,
    expected: usize,
    dir: &std::path::Path,
    fit: impl Fn(CheckpointPolicy) -> Result<PersonalizedModel, CoreError>,
) -> Result<bool, CoreError> {
    let (resumed, kills) = run_killing_at_every_seam(dir, fit)?;
    let clean_digest = digest(clean);
    let resumed_digest = digest(&resumed);
    let verdict = match (clean_digest == resumed_digest, kills as usize == expected) {
        (true, true) => "ok",
        (false, _) => "MISMATCH",
        (true, false) => "WRONG CADENCE",
    };
    println!(
        "{name} clean {clean_digest:016x} resumed {resumed_digest:016x} kills {kills} \
         expected {expected} {verdict}"
    );
    Ok(verdict == "ok")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = cohort();
    let config = PlosConfig::fast();
    let dir = std::env::temp_dir().join(format!("plos-resume-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // One snapshot per CCCP round and one per refinement round.
    let seams = |cccp_rounds: usize| cccp_rounds + config.refine_rounds;

    let central_clean = CentralizedPlos::try_new(config.clone())?.fit_detailed(&data)?;
    let expected = seams(central_clean.cccp_rounds);
    let central_ok = gate("centralized", &central_clean.model, expected, &dir, |policy| {
        CentralizedPlos::try_new(config.clone())?.with_checkpointing(policy).fit(&data)
    })?;

    let (dist_clean, report) = DistributedPlos::try_new(config.clone())?.fit(&data)?;
    let expected = seams(report.cccp_rounds);
    let dist_ok = gate("distributed", &dist_clean, expected, &dir, |policy| {
        DistributedPlos::try_new(config.clone())?
            .with_checkpointing(policy)
            .fit(&data)
            .map(|(model, _report)| model)
    })?;

    // A generous quiescence window keeps S > 0 pass membership decided by
    // the seeded straggler process alone, not by host timing.
    let mut async_ok = true;
    for (name, staleness_bound) in [("async-s0", 0), ("async-s2", 2)] {
        let spec = AsyncSpec {
            availability: 0.6,
            staleness_bound,
            poll_window: Duration::from_secs(2),
            seed: 5,
        };
        let (clean, report) = AsyncDistributedPlos::try_new(config.clone(), spec)?.fit(&data)?;
        async_ok &= gate(name, &clean, seams(report.cccp_rounds), &dir, |policy| {
            AsyncDistributedPlos::try_new(config.clone(), spec)?
                .with_checkpointing(policy)
                .fit(&data)
                .map(|(model, _report)| model)
        })?;
    }

    std::fs::remove_dir_all(&dir)?;
    if !(central_ok && dist_ok && async_ok) {
        return Err("resume parity violated: a killed-and-resumed model differs from its \
                    clean run, or a trainer missed its checkpoint cadence"
            .into());
    }
    println!("resume parity OK");
    Ok(())
}
