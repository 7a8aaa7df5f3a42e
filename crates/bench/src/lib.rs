// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Figure-reproduction harness for the PLOS paper.
//!
//! One binary per accuracy figure of the paper's evaluation section (the
//! paper has no result tables), plus `scale_suite`, whose one sweep over
//! the number of users prints Figs. 11–13; each prints the same series the
//! figure plots. Shared machinery lives here: dataset construction per
//! experiment, method sweeps, trial averaging, and plain-text series
//! output.
//!
//! Run everything with reduced sizes:
//!
//! ```text
//! cargo run --release -p plos-bench --bin figures
//! ```
//!
//! or an individual figure at full scale, e.g.
//!
//! ```text
//! cargo run --release -p plos-bench --bin fig08_synth_rotation -- --trials 3
//! ```

use plos_core::eval::{compare_methods, EvalConfig, MethodScores};
use plos_core::{CoreError, PlosConfig};
use plos_sensing::dataset::{LabelMask, MultiUserDataset};

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Number of random trials averaged per point.
    pub trials: usize,
    /// Reduced problem sizes for smoke runs.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { trials: 1, quick: false, seed: 42 }
    }
}

/// The usage line every figure binary prints on a malformed command line.
pub const USAGE: &str = "usage: [--trials N] [--seed S] [--quick]";

impl RunOptions {
    /// Parses `--trials N`, `--quick`, `--seed S` from an explicit argument
    /// stream (program name already stripped).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown argument.
    pub fn try_from_iter<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = RunOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trials" => {
                    let v = args.next().ok_or("--trials requires a value")?;
                    opts.trials =
                        v.parse().map_err(|_| format!("--trials must be an integer, got {v:?}"))?;
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed requires a value")?;
                    opts.seed =
                        v.parse().map_err(|_| format!("--seed must be an integer, got {v:?}"))?;
                }
                "--quick" => opts.quick = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments. On a malformed command line this
    /// prints the error and usage to stderr and exits with status 2 —
    /// not a panic — so bench bins fail cleanly in CI pipelines.
    pub fn from_args() -> Self {
        match Self::try_from_iter(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(detail) => {
                eprintln!("error: {detail}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

/// One x-position of an accuracy figure: the four methods on both panels.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// The x value (number of providers, training rate, rotation, ...).
    pub x: f64,
    /// Method scores averaged over trials.
    pub scores: MethodScores,
}

/// Averages [`compare_methods`] over `trials` different mask seeds.
///
/// `make_dataset(trial)` builds the cohort for that trial (generators are
/// seeded so trial `i` is reproducible).
///
/// # Errors
///
/// Propagates the first training failure of any trial, and returns
/// [`CoreError::EmptyDataset`] when `trials` is 0.
pub fn averaged_comparison(
    trials: usize,
    config: &EvalConfig,
    mut make_dataset: impl FnMut(usize) -> MultiUserDataset,
) -> Result<MethodScores, CoreError> {
    let mut acc: Option<MethodScores> = None;
    for trial in 0..trials {
        let dataset = make_dataset(trial);
        let scores = compare_methods(&dataset, config)?;
        acc = Some(match acc {
            None => scores,
            Some(prev) => merge_scores(prev, scores),
        });
    }
    let mut total = acc.ok_or(CoreError::EmptyDataset)?;
    scale_scores(&mut total, 1.0 / trials as f64);
    Ok(total)
}

fn merge_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x + y),
        (x, None) => x,
        (None, y) => y,
    }
}

fn merge_scores(a: MethodScores, b: MethodScores) -> MethodScores {
    use plos_core::eval::Accuracies;
    let merge = |x: Accuracies, y: Accuracies| Accuracies {
        labeled_users: merge_opt(x.labeled_users, y.labeled_users),
        unlabeled_users: merge_opt(x.unlabeled_users, y.unlabeled_users),
    };
    MethodScores {
        plos: merge(a.plos, b.plos),
        all: merge(a.all, b.all),
        group: merge(a.group, b.group),
        single: merge(a.single, b.single),
    }
}

fn scale_scores(s: &mut MethodScores, factor: f64) {
    for acc in [&mut s.plos, &mut s.all, &mut s.group, &mut s.single] {
        acc.labeled_users = acc.labeled_users.map(|v| v * factor);
        acc.unlabeled_users = acc.unlabeled_users.map(|v| v * factor);
    }
}

/// Prints the two panels of an accuracy figure in the paper's layout:
/// method curves over the x sweep, accuracy in percent.
pub fn print_accuracy_figure(title: &str, x_label: &str, rows: &[AccuracyRow]) {
    let pct = |v: Option<f64>| match v {
        Some(a) => format!("{:6.1}", a * 100.0),
        None => "     -".to_string(),
    };
    println!("\n=== {title} ===");
    println!("--- (a) accuracy (%) on users WITH labels ---");
    println!("{x_label:>12}   PLOS    All  Group Single");
    for row in rows {
        println!(
            "{:>12.3} {} {} {} {}",
            row.x,
            pct(row.scores.plos.labeled_users),
            pct(row.scores.all.labeled_users),
            pct(row.scores.group.labeled_users),
            pct(row.scores.single.labeled_users),
        );
    }
    println!("--- (b) accuracy (%) on users WITHOUT labels ---");
    println!("{x_label:>12}   PLOS    All  Group Single");
    for row in rows {
        println!(
            "{:>12.3} {} {} {} {}",
            row.x,
            pct(row.scores.plos.unlabeled_users),
            pct(row.scores.all.unlabeled_users),
            pct(row.scores.group.unlabeled_users),
            pct(row.scores.single.unlabeled_users),
        );
    }
}

/// The PLOS configuration the figure binaries use at full scale: defaults
/// tuned like the paper's cross-validated choices.
pub fn figure_plos_config() -> PlosConfig {
    PlosConfig {
        lambda: 40.0,
        max_cccp_rounds: 6,
        max_cutting_rounds: 30,
        restarts: 2,
        refine_rounds: 2,
        ..PlosConfig::default()
    }
}

/// The evaluation-harness configuration used by the accuracy figures.
pub fn figure_eval_config() -> EvalConfig {
    EvalConfig { plos: figure_plos_config(), ..EvalConfig::default() }
}

/// A reduced-cost PLOS configuration for `--quick` runs.
pub fn quick_plos_config() -> PlosConfig {
    PlosConfig { lambda: 40.0, ..PlosConfig::fast() }
}

/// Evaluation config for `--quick` runs.
pub fn quick_eval_config() -> EvalConfig {
    EvalConfig { plos: quick_plos_config(), ..EvalConfig::default() }
}

/// Selects the eval config according to `--quick`.
pub fn eval_config_for(opts: &RunOptions) -> EvalConfig {
    if opts.quick {
        quick_eval_config()
    } else {
        figure_eval_config()
    }
}

/// Masks a dataset with `providers` label providers at `rate`, seeded per
/// trial.
pub fn mask(
    dataset: &MultiUserDataset,
    providers: usize,
    rate: f64,
    opts: &RunOptions,
    trial: usize,
) -> MultiUserDataset {
    dataset.mask_labels(
        &LabelMask::providers(providers, rate),
        opts.seed.wrapping_add(1000 * trial as u64 + 7),
    )
}

/// One point of the Sec. VI-E scalability experiments (Figs. 11–13).
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Number of users.
    pub users: usize,
    /// Synthetic points generated per class per user (each user holds
    /// `2 * points_per_class` samples).
    pub points_per_class: usize,
    /// Overall accuracy of centralized PLOS.
    pub acc_centralized: f64,
    /// Overall accuracy of distributed PLOS.
    pub acc_distributed: f64,
    /// Centralized training wall-clock on the server profile, seconds.
    pub time_centralized_s: f64,
    /// Distributed running time, seconds: the slowest phone's compute
    /// (rescaled to the Nexus 5 profile) plus server aggregation.
    pub time_distributed_s: f64,
    /// Mean per-user traffic in kilobytes.
    pub kb_per_user: f64,
    /// Total ADMM iterations of the distributed run.
    pub admm_iterations: usize,
}

/// Runs both trainers on a synthetic cohort of `users` users and measures
/// everything Figs. 11–13 report. The paper's Sec. VI-E settings: each user
/// generates their own data, ρ = 1, ε_abs = 10⁻³.
///
/// # Errors
///
/// Propagates a failure of either trainer.
pub fn run_scale_point(users: usize, opts: &RunOptions) -> Result<ScalePoint, CoreError> {
    use plos_core::eval::{plos_predictions, score_predictions};
    use plos_core::{CentralizedPlos, DistributedPlos};
    use plos_net::DeviceProfile;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};
    use std::time::Instant;

    let points = if opts.quick { 40 } else { 100 };
    let spec = SyntheticSpec {
        num_users: users,
        points_per_class: points,
        max_rotation: std::f64::consts::FRAC_PI_2,
        flip_prob: 0.1,
    };
    let providers = (users / 2).max(1);
    let base = generate_synthetic(&spec, opts.seed);
    let data = mask(&base, providers, 0.05, opts, 0);

    let plos_cfg = if opts.quick { quick_plos_config() } else { figure_plos_config() };

    let started = Instant::now();
    let central = CentralizedPlos::try_new(plos_cfg.clone())?.fit(&data)?;
    let time_centralized_s = started.elapsed().as_secs_f64();

    let (dist, report) = DistributedPlos::try_new(plos_cfg)?.fit(&data)?;

    let overall = |model: &plos_core::PersonalizedModel| {
        let acc = score_predictions(&data, &plos_predictions(model, &data));
        acc.overall(providers, users - providers)
    };

    let phone = DeviceProfile::nexus5();
    let reference = DeviceProfile::reference();
    let phone_time = phone.rescale_from(report.max_client_compute(), &reference);
    let time_distributed_s = phone_time.as_secs_f64() + report.server_compute.as_secs_f64();

    Ok(ScalePoint {
        users,
        points_per_class: points,
        acc_centralized: overall(&central),
        acc_distributed: overall(&dist),
        time_centralized_s,
        time_distributed_s,
        kb_per_user: report.mean_user_kb(),
        admm_iterations: report.admm_iterations,
    })
}

/// The user-count sweep of the Sec. VI-E experiments. The 200-user point
/// extends the paper's sweep one doubling past its largest cohort to pin
/// the superlinear tail of the centralized trainer.
pub fn scale_sweep(opts: &RunOptions) -> Vec<usize> {
    if opts.quick {
        vec![10, 20, 30]
    } else {
        vec![10, 20, 40, 70, 100, 200]
    }
}

/// The virtual-device point of the scale suite: the distributed trainer at
/// a cohort size far past the thread-per-device wall, run on the
/// [`plos_net::MuxNetwork`] scheduler so the OS thread count stays bounded
/// by the pool size instead of the fleet size.
#[derive(Debug, Clone)]
pub struct MuxScalePoint {
    /// Number of users (virtual devices).
    pub users: usize,
    /// Synthetic points per class per user.
    pub points_per_class: usize,
    /// Virtual devices per mux worker (K), which sets the worker count.
    pub devices_per_worker: usize,
    /// Worker threads the runner actually spawned (≤ pool size).
    pub workers: usize,
    /// Overall accuracy of the distributed model.
    pub acc_distributed: f64,
    /// End-to-end wall-clock of the distributed fit, seconds.
    pub wall_clock_s: f64,
    /// Mean per-user traffic in kilobytes.
    pub kb_per_user: f64,
    /// Total ADMM iterations of the run.
    pub admm_iterations: usize,
    /// FNV-1a digest of the trained model — the cross-run parity currency.
    pub model_digest: u64,
}

/// Runs the distributed trainer on a `users`-device cohort under the mux
/// runtime, with `K = ceil(users / pool)` so the worker count equals the
/// pool size. The reduced per-user sample count and the `fast`-derived
/// config keep this point about runtime scale (threads, wall-clock,
/// traffic) rather than accuracy tuning, which the main sweep covers.
///
/// # Errors
///
/// Propagates a training failure.
pub fn run_mux_scale_point(users: usize, opts: &RunOptions) -> Result<MuxScalePoint, CoreError> {
    use plos_ckpt::model_digest;
    use plos_core::eval::{plos_predictions, score_predictions};
    use plos_core::DistributedPlos;
    use plos_net::DeviceRuntime;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};
    use std::time::Instant;

    let points = if opts.quick { 10 } else { 20 };
    let spec = SyntheticSpec {
        num_users: users,
        points_per_class: points,
        max_rotation: std::f64::consts::FRAC_PI_2,
        flip_prob: 0.1,
    };
    let providers = (users / 2).max(1);
    let base = generate_synthetic(&spec, opts.seed);
    // 20% labels, not the main sweep's 5%: these cohorts carry far fewer
    // points per class, and 5% of them would leave providers with ~1
    // labeled sample — accuracy below chance says nothing about scale.
    let data = mask(&base, providers, 0.2, opts, 0);

    let pool = plos_exec::Pool::current().threads();
    let devices_per_worker = users.div_ceil(pool.max(1));
    let workers = users.div_ceil(devices_per_worker).clamp(1, pool.max(1));

    let started = Instant::now();
    let (model, report) = DistributedPlos::try_new(quick_plos_config())?
        .with_runtime(DeviceRuntime::Multiplexed { devices_per_worker })
        .fit(&data)?;
    let wall_clock_s = started.elapsed().as_secs_f64();

    let acc = score_predictions(&data, &plos_predictions(&model, &data));
    Ok(MuxScalePoint {
        users,
        points_per_class: points,
        devices_per_worker,
        workers,
        acc_distributed: acc.overall(providers, users - providers),
        wall_clock_s,
        kb_per_user: report.mean_user_kb(),
        admm_iterations: report.admm_iterations,
        model_digest: model_digest(model.global_hyperplane(), model.personal_biases()),
    })
}

/// Resolves `results/<file_name>` from the workspace root so the suites can
/// run from any directory.
pub fn results_path(file_name: &str) -> std::path::PathBuf {
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map_or(manifest.clone(), std::path::Path::to_path_buf);
    root.join("results").join(file_name)
}

/// Renders a suite report as one JSON document built entirely from
/// `plos-obs` trace events: a `"suite"` header event plus an `"events"`
/// array, each element rendered with the exact JSONL schema a
/// `PLOS_TRACE` run would stream. Keeping `results/BENCH_*.json` on the
/// trace schema means one parser (`plos_obs::json`) reads both.
pub fn render_suite_json(header: &plos_obs::Event, events: &[plos_obs::Event]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"suite\": ");
    s.push_str(&plos_obs::json::render(header));
    s.push_str(",\n  \"events\": [\n");
    let last = events.len().saturating_sub(1);
    for (i, e) in events.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&plos_obs::json::render(e));
        if i != last {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// Mirrors a prebuilt event into the live trace (if `PLOS_TRACE` is set),
/// so the suites' summary events land in the JSONL stream alongside the
/// solver's own per-iteration events.
pub fn emit_event(event: &plos_obs::Event) {
    plos_obs::emit(event.name, &event.fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_core::eval::Accuracies;

    fn scores(v: f64) -> MethodScores {
        let a = Accuracies { labeled_users: Some(v), unlabeled_users: None };
        MethodScores { plos: a, all: a, group: a, single: a }
    }

    #[test]
    fn merge_and_scale() {
        let mut m = merge_scores(scores(0.4), scores(0.6));
        scale_scores(&mut m, 0.5);
        assert_eq!(m.plos.labeled_users, Some(0.5));
        assert_eq!(m.plos.unlabeled_users, None);
    }

    #[test]
    fn merge_handles_missing_panels() {
        assert_eq!(merge_opt(Some(1.0), None), Some(1.0));
        assert_eq!(merge_opt(None, Some(2.0)), Some(2.0));
        assert_eq!(merge_opt(None, None), None);
    }

    #[test]
    fn configs_are_valid() {
        figure_plos_config().try_validate().unwrap();
        quick_plos_config().try_validate().unwrap();
    }

    #[test]
    fn default_options() {
        let o = RunOptions::default();
        assert_eq!(o.trials, 1);
        assert!(!o.quick);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn options_parse_known_flags() {
        let o =
            RunOptions::try_from_iter(argv(&["--trials", "3", "--quick", "--seed", "7"])).unwrap();
        assert_eq!(o.trials, 3);
        assert_eq!(o.seed, 7);
        assert!(o.quick);
    }

    #[test]
    fn options_reject_bad_command_lines_with_typed_errors() {
        let unknown = RunOptions::try_from_iter(argv(&["--frobnicate"])).unwrap_err();
        assert!(unknown.contains("unknown argument --frobnicate"), "{unknown}");
        let missing = RunOptions::try_from_iter(argv(&["--trials"])).unwrap_err();
        assert!(missing.contains("requires a value"), "{missing}");
        let malformed = RunOptions::try_from_iter(argv(&["--seed", "many"])).unwrap_err();
        assert!(malformed.contains("must be an integer"), "{malformed}");
    }

    #[test]
    fn suite_json_round_trips_through_the_trace_parser() {
        use plos_obs::json::Json;
        use plos_obs::{Event, Value};
        let header = Event { name: "scale_suite", fields: vec![("threads", Value::U64(4))] };
        let events = vec![
            Event {
                name: "scale_point",
                fields: vec![("users", Value::U64(10)), ("acc", Value::F64(0.5))],
            },
            Event { name: "scale_point", fields: vec![("users", Value::U64(20))] },
        ];
        let doc = render_suite_json(&header, &events);
        let parsed = plos_obs::json::parse(&doc).unwrap();
        let suite = parsed.get("suite").unwrap();
        assert_eq!(suite.get("event").and_then(Json::as_str), Some("scale_suite"));
        assert_eq!(suite.get("threads").and_then(Json::as_u64), Some(4));
        let arr = parsed.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("users").and_then(Json::as_u64), Some(10));
        assert_eq!(arr[0].get("acc").and_then(Json::as_f64), Some(0.5));
    }
}
