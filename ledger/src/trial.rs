//! One trial in its own process: the child that fits, and the parent side
//! that spawns it and reads its report back.

use crate::probe;
use crate::trace::{layer_report, LayerReport, StampSink, Tiling};
use crate::workload::{self, Workload};
use plos_obs::json::{self, Json};
use plos_obs::{Event, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// What one trial measured.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The workload trained.
    pub workload: Workload,
    /// Seed the cohort was generated from.
    pub cohort_seed: u64,
    /// Cohort generation, masking and trainer construction, seconds.
    pub setup_s: f64,
    /// Wall clock of the fit call, seconds.
    pub train_s: f64,
    /// Peak resident set of the trial process, MB.
    pub peak_rss_mb: f64,
    /// Overall accuracy on the cohort.
    pub accuracy: f64,
    /// Model digest, hex.
    pub digest: String,
    /// Operations attempted (fits or gather rounds).
    pub ops: u64,
    /// Operations that failed.
    pub ops_failed: u64,
    /// Per-layer numbers, for a traced trial.
    pub layers: Option<LayerReport>,
}

impl TrialResult {
    /// The value of an end-to-end metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        match name {
            "train_s" => Some(self.train_s),
            "setup_s" => Some(self.setup_s),
            "peak_rss_mb" => Some(self.peak_rss_mb),
            "accuracy" => Some(self.accuracy),
            _ => None,
        }
    }

    /// The trial as a record event: trial `index` of run `run`.
    pub fn event(&self, run: usize, index: usize) -> Event {
        Event {
            name: "ledger_trial",
            fields: vec![
                ("workload", self.workload.name().into()),
                ("run", run.into()),
                ("trial", index.into()),
                ("traced", self.layers.is_some().into()),
                ("cohort_seed", self.cohort_seed.into()),
                ("setup_s", self.setup_s.into()),
                ("train_s", self.train_s.into()),
                ("peak_rss_mb", self.peak_rss_mb.into()),
                ("accuracy", self.accuracy.into()),
                ("digest", self.digest.clone().into()),
                ("ops", self.ops.into()),
                ("ops_failed", self.ops_failed.into()),
            ],
        }
    }
}

/// The trial process's peak resident set, MB (`VmHWM`, 0 where `/proc`
/// does not exist).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Child side: fits `workload` on the cohort of `cohort_seed`, optionally
/// traced, and prints the result as JSON lines on stdout.
///
/// # Errors
///
/// The trainer's error.
pub fn run_child(workload: Workload, cohort_seed: u64, traced: bool) -> Result<(), String> {
    // Beside the binary, in the build directory; the fit removes it.
    let ckpt_dir = this_exe()?.with_file_name("ledger-ckpt").join(std::process::id().to_string());
    let prepared = workload::prepare(workload, cohort_seed, ckpt_dir).map_err(|e| e.to_string())?;
    let (fit, layers) = if traced {
        let origin = Instant::now();
        let sink = Arc::new(StampSink::new(origin));
        plos_obs::set_sink(Some(sink.clone()));
        let fit = prepared.fit();
        plos_obs::set_sink(None);
        let fit = fit.map_err(|e| e.to_string())?;
        let start_s = fit.started.duration_since(origin).as_secs_f64();
        let stamps = sink.take();
        let me = std::thread::current().id();
        let report = layer_report(workload, &stamps, me, start_s, start_s + fit.train_s, &fit);
        (fit, Some(report))
    } else {
        (prepared.fit().map_err(|e| e.to_string())?, None)
    };
    let trial = TrialResult {
        workload,
        cohort_seed,
        setup_s: prepared.setup_s,
        train_s: fit.train_s,
        peak_rss_mb: peak_rss_mb(),
        accuracy: fit.accuracy,
        digest: format!("{:016x}", fit.digest),
        ops: fit.ops,
        ops_failed: fit.ops_failed,
        layers: None,
    };
    println!("{}", json::render(&trial.event(0, 0)));
    if let Some(mut report) = layers {
        let dim = prepared.data().dim() + 1;
        let dot_dim = report.stats.get("opt.dim_max").copied().unwrap_or(0.0) as usize;
        report.stats.extend(probe::run(dim, dot_dim));
        let tiles = report.tiling.layers.iter().map(|(k, v)| (*k, Value::F64(*v)));
        let mut fields = vec![
            ("wall_s", Value::F64(report.tiling.wall_s)),
            ("unattributed_s", Value::F64(report.tiling.unattributed_s)),
        ];
        fields.extend(tiles);
        println!("{}", json::render(&Event { name: "layers", fields }));
        let stats = report.stats.iter().map(|(k, v)| (*k, Value::F64(*v))).collect();
        println!("{}", json::render(&Event { name: "layer_stats", fields: stats }));
    }
    Ok(())
}

/// Every name a `layers` or `layer_stats` line may carry, so the parent
/// can hold them with static lifetime.
const LAYER_NAMES: &[&str] = &[
    "core.centralized.init_s",
    "opt.incremental.solve_s",
    "core.centralized.cut_s",
    "core.centralized.relinearize_s",
    "core.prox.refine_s",
    "core.distributed.init_s",
    "core.distributed.round_s",
    "ckpt.write_s",
    "core.sharded.gather_s",
    "core.sharded.anti_entropy_s",
    "core.distributed.relinearize_s",
    "core.distributed.refine_s",
    "opt.qp_solves",
    "opt.sweeps",
    "opt.coord_updates",
    "opt.dim_max",
    "opt.shrink_reactivations",
    "core.cccp_rounds",
    "core.refine_rounds",
    "core.cutting_rounds",
    "opt.incremental.solves",
    "opt.incremental.sweeps",
    "opt.incremental.coord_updates",
    "opt.incremental.dim_max",
    "opt.incremental.shrink_reactivations",
    "core.prox.qp_solves",
    "core.prox.sweeps",
    "core.centralized.constraints_added",
    "core.distributed.admm_rounds",
    "core.sharded.shard_rounds",
    "ckpt.writes",
    "net.messages",
    "net.kb_per_user",
    "core.local.solve_s",
    "core.local.solve_max_s",
    "core.local.phone_s",
    "core.distributed.round_ms_p50",
    "core.distributed.round_ms_max",
    "core.distributed.fold_s",
    "core.distributed.gather_wait_s",
    "ckpt.bytes_per_write",
    "core.sharded.anti_entropy_syncs",
    "net.bytes",
    "net.fault.delayed_frames",
    "net.fault.injected_delay_s",
    "net.mux.worker_busy_share",
    "net.codec.encode_us",
    "net.codec.decode_us",
    "exec.pool_current_us",
    "exec.fork_join_us",
    "linalg.kernels.dot_ns",
    "wall_s",
    "unattributed_s",
];

fn intern(name: &str) -> Result<&'static str, String> {
    LAYER_NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .ok_or_else(|| format!("trial reported an unknown layer metric {name:?}"))
}

/// The numeric members of a JSON object, keyed by interned name, skipping
/// the `"event"` tag.
fn numbers(obj: &Json) -> Result<BTreeMap<&'static str, f64>, String> {
    let Json::Obj(members) = obj else { return Err("trial line is not an object".into()) };
    members
        .iter()
        .filter(|(k, _)| k != "event")
        .map(|(k, v)| {
            let value = v.as_f64().ok_or_else(|| format!("{k} is not a number"))?;
            Ok((intern(k)?, value))
        })
        .collect()
}

/// Parses a child's stdout.
fn parse_child(workload: Workload, stdout: &str) -> Result<TrialResult, String> {
    let lines = json::parse_jsonl(stdout).map_err(|e| format!("trial output: {e}"))?;
    let tagged =
        |tag: &str| lines.iter().find(|l| l.get("event").and_then(Json::as_str) == Some(tag));
    let trial = tagged("ledger_trial").ok_or("trial printed no result")?;
    let num =
        |k: &str| trial.get(k).and_then(Json::as_f64).ok_or(format!("trial result lacks {k}"));
    let int =
        |k: &str| trial.get(k).and_then(Json::as_u64).ok_or(format!("trial result lacks {k}"));
    let layers = match (tagged("layers"), tagged("layer_stats")) {
        (Some(tiles), Some(stats)) => {
            let mut layers = numbers(tiles)?;
            let wall_s = layers.remove("wall_s").ok_or("layers lack wall_s")?;
            let unattributed_s =
                layers.remove("unattributed_s").ok_or("layers lack unattributed_s")?;
            Some(LayerReport {
                tiling: Tiling { layers, unattributed_s, wall_s },
                stats: numbers(stats)?,
            })
        }
        _ => None,
    };
    Ok(TrialResult {
        workload,
        cohort_seed: int("cohort_seed")?,
        setup_s: num("setup_s")?,
        train_s: num("train_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        accuracy: num("accuracy")?,
        digest: trial
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("trial result lacks digest")?
            .to_string(),
        ops: int("ops")?,
        ops_failed: int("ops_failed")?,
        layers,
    })
}

/// This executable, which runs the trials unless another build is named.
///
/// # Errors
///
/// The platform cannot say.
pub fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("locating the ledger binary: {e}"))
}

/// Parent side: runs one trial in a fresh process of the ledger binary
/// `exe` and waits for it.
///
/// # Errors
///
/// The child could not start, failed, or printed no result.
pub fn spawn(
    exe: &Path,
    workload: Workload,
    cohort_seed: u64,
    traced: bool,
) -> Result<TrialResult, String> {
    let out = Command::new(exe)
        .args(["trial", "--workload", workload.name(), "--cohort-seed"])
        .arg(cohort_seed.to_string())
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {} trial: {e}", workload.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} trial on cohort {cohort_seed} failed ({})",
            workload.name(),
            out.status
        ));
    }
    parse_child(workload, &String::from_utf8_lossy(&out.stdout))
}
