//! Measured runs: trials in fresh processes, their checks, and the metrics
//! and record events made from them.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::bucket;
use crate::trial::{self, TrialResult};
use crate::workload::{Workload, PANEL};
use plos_obs::{Event, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Accuracy every workload's run must reach.
pub const MIN_ACCURACY: f64 = 0.70;

/// Fewest passes over the panel in a measured run, so that every cohort is
/// fitted twice and its digests can be compared.
pub const MIN_PASSES: u64 = 2;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order in which pass `pass` of a run seeded `seed` fits the panel: a
/// seeded shuffle, so host drift within a run falls on different cohorts
/// from run to run.
pub fn pass_order(seed: u64, pass: u64) -> Vec<u64> {
    let mut order = PANEL.to_vec();
    order.sort_by_key(|cohort| splitmix64(seed ^ splitmix64(pass << 32 | cohort)));
    order
}

/// One measured run of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Untraced trials, in run order.
    pub trials: Vec<TrialResult>,
    /// The traced trial, if one ran.
    pub traced: Option<TrialResult>,
    /// Trials whose digests this workload must reproduce: the flat-star
    /// twin's, for the tree.
    pub reference: Vec<TrialResult>,
}

/// Fits `workload` in whole passes over the panel, each trial in a fresh
/// process of the ledger binary `exe` and one at a time, until `seconds`
/// have passed and at least [`MIN_PASSES`] passes ran.
///
/// # Errors
///
/// A trial that failed to run.
pub fn measure(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<WorkloadRun, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut run =
        WorkloadRun { workload, seed, trials: Vec::new(), traced: None, reference: Vec::new() };
    let mut pass = 0;
    while pass < MIN_PASSES || started.elapsed() < budget {
        for cohort in pass_order(seed, pass) {
            run.trials.push(trial::spawn(exe, workload, cohort, false)?);
        }
        pass += 1;
    }
    Ok(run)
}

impl WorkloadRun {
    /// The run's value of an end-to-end metric over its untraced trials.
    /// Fit time and accuracy depend on the cohort: each cohort's median,
    /// averaged over the panel, so a change on any cohort moves it. Set-up
    /// time and peak memory depend only on the cohort's shape: the median
    /// over every trial.
    pub fn value(&self, metric: &str) -> Option<f64> {
        let mut by_cohort: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for t in &self.trials {
            if let Some(v) = t.metric(metric) {
                by_cohort.entry(t.cohort_seed).or_default().push(v);
            }
        }
        if !matches!(metric, "train_s" | "accuracy") {
            return Summary::of(&by_cohort.into_values().flatten().collect::<Vec<_>>())
                .map(|s| s.median);
        }
        let medians: Vec<f64> =
            by_cohort.values().filter_map(|v| Summary::of(v)).map(|s| s.median).collect();
        (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
    }

    /// Operations attempted and failed over the untraced trials.
    pub fn ops(&self) -> (u64, u64) {
        self.trials.iter().fold((0, 0), |(a, f), t| (a + t.ops, f + t.ops_failed))
    }

    /// Every failed correctness check; empty when all pass.
    pub fn failures(&self) -> Vec<String> {
        let name = self.workload.name();
        let mut failures = Vec::new();
        let mut digests: BTreeMap<u64, &str> = BTreeMap::new();
        for t in self.trials.iter().chain(&self.traced) {
            let first = *digests.entry(t.cohort_seed).or_insert(&t.digest);
            if first != t.digest {
                failures.push(format!(
                    "{name}: cohort {} gave digests {first} and {}{}",
                    t.cohort_seed,
                    t.digest,
                    if t.layers.is_some() { " (traced)" } else { "" }
                ));
            }
        }
        let mut compared = 0;
        for r in &self.reference {
            if let Some(own) = digests.get(&r.cohort_seed) {
                compared += 1;
                if *own != r.digest {
                    failures.push(format!(
                        "{name}: cohort {} digest {own} differs from {}'s {}",
                        r.cohort_seed,
                        r.workload.name(),
                        r.digest
                    ));
                }
            }
        }
        if !self.reference.is_empty() && compared == 0 {
            failures.push(format!("{name}: no cohort shared with its reference workload"));
        }
        if let Some(acc) = self.value("accuracy") {
            if acc < MIN_ACCURACY {
                failures.push(format!("{name}: accuracy {acc:.4} < {MIN_ACCURACY}"));
            }
        }
        let (_, failed) = self.ops();
        if failed > 0 {
            failures.push(format!("{name}: {failed} operations failed"));
        }
        failures
    }

    /// Traced wall clock over the median untraced wall clock of the same
    /// cohort, minus one, in percent.
    pub fn trace_overhead_pct(&self) -> Option<f64> {
        let traced = self.traced.as_ref()?;
        let dark: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.cohort_seed == traced.cohort_seed)
            .map(|t| t.train_s)
            .collect();
        let dark = Summary::of(&dark)?.median;
        Some((traced.train_s - dark) / dark * 100.0)
    }

    /// The benchmark's per-layer metrics, from the traced trial.
    ///
    /// # Errors
    ///
    /// No traced trial, or one that lacks a metric.
    pub fn per_layer(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let layers = self
            .traced
            .as_ref()
            .and_then(|t| t.layers.as_ref())
            .ok_or("per-layer metrics need a traced trial")?;
        let mut buckets: BTreeMap<&str, f64> = BTreeMap::new();
        for (layer, seconds) in &layers.tiling.layers {
            *buckets.entry(bucket(layer)).or_insert(0.0) += seconds;
        }
        PER_LAYER
            .iter()
            .map(|m| {
                let value = match m.name {
                    "obs.traced_wall_s" => Some(layers.tiling.wall_s),
                    "obs.unattributed_s" => Some(layers.tiling.unattributed_s),
                    "obs.trace_overhead_pct" => self.trace_overhead_pct(),
                    "core.init_s" | "core.loop_s" | "core.relinearize_s" | "core.refine_s" => {
                        Some(buckets.get(m.name).copied().unwrap_or(0.0))
                    }
                    name => layers.stats.get(name).copied(),
                };
                value.map(|v| (m.name, v)).ok_or(format!("{}: no {}", self.workload.name(), m.name))
            })
            .collect()
    }

    /// Record events of run `index`: every trial, then the run's values.
    pub fn events(&self, index: usize) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .trials
            .iter()
            .chain(&self.traced)
            .enumerate()
            .map(|(i, t)| t.event(index, i))
            .collect();
        let (attempted, failed) = self.ops();
        let mut fields: Vec<(&'static str, Value)> = vec![
            ("workload", self.workload.name().into()),
            ("run", index.into()),
            ("seed", self.seed.into()),
            ("trials", self.trials.len().into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
        ];
        for m in END_TO_END {
            if let Some(v) = self.value(m.name) {
                fields.push((m.name, v.into()));
            }
        }
        events.push(Event { name: "ledger_run", fields });
        events
    }

    /// Record events of the traced trial: its tiling (which sums to its
    /// wall clock) and its other layer metrics, plus `extra` ones.
    pub fn layer_events(&self, extra: &[(&'static str, f64)]) -> Vec<Event> {
        let Some(layers) = self.traced.as_ref().and_then(|t| t.layers.as_ref()) else {
            return Vec::new();
        };
        let name = self.workload.name();
        let mut tiles: Vec<(&'static str, Value)> = vec![
            ("workload", name.into()),
            ("wall_s", layers.tiling.wall_s.into()),
            ("unattributed_s", layers.tiling.unattributed_s.into()),
        ];
        tiles.extend(layers.tiling.layers.iter().map(|(k, v)| (*k, Value::F64(*v))));
        let mut stats: Vec<(&'static str, Value)> = vec![("workload", name.into())];
        stats.extend(layers.stats.iter().map(|(k, v)| (*k, Value::F64(*v))));
        if let Some(pct) = self.trace_overhead_pct() {
            stats.push(("obs.trace_overhead_pct", pct.into()));
        }
        stats.extend(extra.iter().map(|(k, v)| (*k, Value::F64(*v))));
        vec![
            Event { name: "ledger_layers", fields: tiles },
            Event { name: "ledger_layer_stats", fields: stats },
        ]
    }
}

/// Median, quartiles and range over runs of each end-to-end metric's run
/// value.
pub fn over_runs(runs: &[WorkloadRun]) -> Vec<(Metric, Summary)> {
    END_TO_END
        .into_iter()
        .filter_map(|m| {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.value(m.name)).collect();
            Summary::of(&values).map(|s| (m, s))
        })
        .collect()
}

/// One `ledger_metric` record event per end-to-end metric of a workload.
pub fn metric_events(workload: Workload, runs: &[WorkloadRun]) -> Vec<Event> {
    over_runs(runs)
        .into_iter()
        .map(|(m, s)| Event {
            name: "ledger_metric",
            fields: vec![
                ("workload", workload.name().into()),
                ("metric", m.name.into()),
                ("unit", m.unit.into()),
                ("n", s.n.into()),
                ("median", s.median.into()),
                ("q1", s.q1.into()),
                ("q3", s.q3.into()),
                ("min", s.min.into()),
                ("max", s.max.into()),
            ],
        })
        .collect()
}

/// The benchmark's one-line result: correctness, operation counts and the
/// metrics asked for, each with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let mut v = String::new();
        plos_obs::json::render_f64(*value, &mut v);
        out.push_str(&format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_fits_the_whole_panel_in_a_seeded_order() {
        let mut sorted = pass_order(42, 0);
        assert_ne!(sorted, pass_order(42, 1));
        assert_ne!(sorted, pass_order(43, 0));
        assert_eq!(sorted, pass_order(42, 0));
        sorted.sort_unstable();
        assert_eq!(sorted, PANEL);
    }

    #[test]
    fn run_values_weigh_every_cohort_alike() {
        let trial = |cohort_seed, train_s, setup_s| TrialResult {
            workload: Workload::Central,
            cohort_seed,
            setup_s,
            train_s,
            peak_rss_mb: 5.0,
            accuracy: if cohort_seed == 1 { 1.0 } else { 0.5 },
            digest: String::new(),
            ops: 1,
            ops_failed: 0,
            layers: None,
        };
        let run = WorkloadRun {
            workload: Workload::Central,
            seed: 0,
            // Cohort 1 fitted three times, one of them slowed by the host.
            trials: vec![
                trial(1, 1.0, 0.1),
                trial(2, 3.0, 0.2),
                trial(1, 9.0, 0.3),
                trial(2, 3.0, 0.4),
                trial(1, 1.0, 0.5),
            ],
            traced: None,
            reference: Vec::new(),
        };
        // Per cohort: medians 1.0 and 3.0, then their mean.
        assert_eq!(run.value("train_s"), Some(2.0));
        assert_eq!(run.value("accuracy"), Some(0.75));
        // Over all trials.
        assert_eq!(run.value("setup_s"), Some(0.3));
        assert_eq!(run.value("peak_rss_mb"), Some(5.0));
    }

    #[test]
    fn result_line_parses() {
        let line =
            result_line(true, 7, 0, &[("train_s", "s", 1.25), ("accuracy", "fraction", 0.8)]);
        let doc = plos_obs::json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(7));
        let train = doc.get("metrics").and_then(|m| m.get("train_s")).unwrap();
        assert_eq!(train.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(train.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
