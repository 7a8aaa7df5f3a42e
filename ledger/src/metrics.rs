//! The metric catalogue: every name and unit the harness emits, and the
//! bounds `BENCHMARK.json` fixes for them.

use plos_obs::json::{self, Json};
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric the harness reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

/// End-to-end metrics, measured on untraced trials (see
/// `WorkloadRun::value` for how a run's trials make one value).
pub const END_TO_END: [Metric; 4] = [
    // Wall clock of the fit call.
    lower("train_s", "s"),
    // Cohort generation, label masking and trainer construction.
    lower("setup_s", "s"),
    // The trial process's peak resident set (VmHWM).
    lower("peak_rss_mb", "MB"),
    // Overall accuracy on the cohort (Fig. 11).
    Metric { name: "accuracy", unit: "fraction", better: Better::Higher },
];

/// Per-layer metrics of the traced trial that exist on every workload. The
/// record carries the finer, workload-specific layers as well.
pub const PER_LAYER: [Metric; 25] = [
    // The fit thread's timeline, tiled by the event closing each interval.
    lower("obs.traced_wall_s", "s"),
    lower("core.init_s", "s"),
    lower("core.loop_s", "s"),
    lower("core.relinearize_s", "s"),
    lower("core.refine_s", "s"),
    lower("obs.unattributed_s", "s"),
    lower("obs.trace_overhead_pct", "%"),
    // Work counts from the event stream, all threads.
    lower("opt.qp_solves", "count"),
    lower("opt.sweeps", "count"),
    lower("opt.coord_updates", "count"),
    lower("opt.dim_max", "count"),
    lower("opt.shrink_reactivations", "count"),
    lower("core.cccp_rounds", "count"),
    lower("core.cutting_rounds", "count"),
    lower("core.refine_rounds", "count"),
    lower("core.distributed.admm_rounds", "count"),
    lower("core.sharded.shard_rounds", "count"),
    lower("ckpt.writes", "count"),
    lower("net.messages", "count"),
    lower("net.kb_per_user", "KB"),
    // Probes of public layer functions.
    lower("net.codec.encode_us", "us"),
    lower("net.codec.decode_us", "us"),
    lower("exec.pool_current_us", "us"),
    lower("exec.fork_join_us", "us"),
    lower("linalg.kernels.dot_ns", "ns"),
];

/// `BENCHMARK.json` as it stood when the harness was built.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn string(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn benchmark() -> Result<Json, String> {
    json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// How long one measured run lasts, seconds (`run_seconds`).
///
/// # Errors
///
/// A malformed file.
pub fn run_seconds() -> Result<f64, String> {
    benchmark()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json: missing run_seconds".to_string())
}

/// The bound `BENCHMARK.json` fixes for each end-to-end metric, by name.
///
/// # Errors
///
/// A malformed file.
pub fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = benchmark()?;
    list(&doc, "end_to_end")?
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("BENCHMARK.json: bound")?;
            Ok((string(m, "name")?, bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    /// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
    fn described(key: &str) -> Vec<(String, String, String)> {
        let doc = json::parse(BENCHMARK).unwrap();
        list(&doc, key)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    string(m, "name").unwrap(),
                    string(m, "unit").unwrap(),
                    string(m, "better").unwrap(),
                )
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, String)> {
        let better = |b: Better| if b == Better::Lower { "lower" } else { "higher" };
        metrics.iter().map(|m| (m.name.into(), m.unit.into(), better(m.better).into())).collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_harness_emits() {
        let doc = json::parse(BENCHMARK).unwrap();
        let workloads: Vec<String> =
            list(&doc, "workloads").unwrap().iter().map(|w| string(w, "name").unwrap()).collect();
        assert_eq!(workloads, ALL.iter().map(|w| w.name()).collect::<Vec<_>>());
        assert_eq!(described("end_to_end"), ours(&END_TO_END));
        assert_eq!(described("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn bounds_are_within_the_contract() {
        let bounds = bounds().unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        }
        let setup = bounds["setup_s"];
        assert!(bounds.values().all(|b| *b <= setup), "setup_s has the largest bound");
    }
}
