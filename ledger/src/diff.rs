//! `ledger diff A.json B.json`: a verdict per (workload, end-to-end metric)
//! of record B against baseline A, and every model digest that changed.
//!
//! Each record holds one value per measured run; every run fitted the same
//! cohort panel. The rule is choosing-metrics §6–8, with the bounds of
//! `BENCHMARK.json`:
//!
//! * the baseline's spread (quartile distance over median) wider than the
//!   bound: *unresolved*, unless every run of B beats every run of A,
//!   which is *improved*;
//! * B's median worse than A's by more than the bound: *regressed*;
//! * B's median better by more than A's spread, with B winning at least
//!   nine tenths of at least ten run pairs: *improved*;
//! * otherwise *unchanged*.

use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;
use crate::workload::{Workload, ALL};
use plos_obs::json::{self, Json};
use std::collections::BTreeMap;

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the baseline's own spread.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// The baseline's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's samples of a metric: the summary and the run values in run
/// order.
#[derive(Debug, Clone)]
pub struct Side {
    /// Median, quartiles and range.
    pub summary: Summary,
    /// Run values, in run order.
    pub runs: Vec<f64>,
}

impl Side {
    /// A side from run values.
    pub fn of(runs: Vec<f64>) -> Option<Side> {
        Some(Side { summary: Summary::of(&runs)?, runs })
    }
}

/// Judges B against baseline A for a metric improving in direction
/// `better`, allowed to worsen by `bound` (a share of A's median).
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    // Positive `gain(x, y)`: y is better than x.
    let gain = |x: f64, y: f64| match better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let scale = if a.summary.median == 0.0 { 1.0 } else { a.summary.median.abs() };
    let worse = -gain(a.summary.median, b.summary.median) / scale;
    let spread = a.summary.spread();
    let all_better = b.runs.iter().all(|&y| a.runs.iter().all(|&x| gain(x, y) > 0.0));
    if spread > bound {
        return if all_better { Verdict::Improved } else { Verdict::Unresolved };
    }
    if worse > bound {
        return Verdict::Regressed;
    }
    let pairs = a.runs.len().min(b.runs.len());
    let wins = a.runs.iter().zip(&b.runs).filter(|(x, y)| gain(**x, **y) > 0.0).count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && -worse > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The parts of a record `diff` compares.
struct Record {
    /// Run values per (workload, metric), in run order.
    runs: BTreeMap<(String, String), Vec<f64>>,
    /// Digest per (workload, cohort seed).
    digests: BTreeMap<(String, u64), String>,
}

fn read(path: &str, metrics: &[String]) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let events = doc.get("events").and_then(Json::as_arr).ok_or(format!("{path}: no events"))?;
    let mut record = Record { runs: BTreeMap::new(), digests: BTreeMap::new() };
    for e in events {
        let kind = e.get("event").and_then(Json::as_str).unwrap_or_default();
        let field = |k: &str| e.get(k).ok_or(format!("{path}: {kind} without {k}"));
        let text = |k: &str| field(k).map(|v| v.as_str().unwrap_or_default().to_string());
        match kind {
            "ledger_trial" => {
                let seed =
                    field("cohort_seed")?.as_u64().ok_or(format!("{path}: bad cohort_seed"))?;
                record.digests.insert((text("workload")?, seed), text("digest")?);
            }
            "ledger_run" => {
                for m in metrics {
                    let v = field(m)?.as_f64().ok_or(format!("{path}: {m} is not a number"))?;
                    record.runs.entry((text("workload")?, m.clone())).or_default().push(v);
                }
            }
            _ => {}
        }
    }
    Ok(record)
}

/// Compares record `b` against baseline `a`, printing one row per
/// (workload, metric) and every changed digest. Returns whether any pair
/// regressed.
///
/// # Errors
///
/// An unreadable or malformed record, or a malformed `BENCHMARK.json`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bounds = crate::metrics::bounds()?;
    let names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let a = read(a_path, &names)?;
    let b = read(b_path, &names)?;
    println!(
        "{:<12} {:<12} {:>26} {:>26} {:>8} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let mut regressed = false;
    for workload in ALL.map(Workload::name) {
        for metric in END_TO_END {
            let (name, unit) = (metric.name, metric.unit);
            let key = (workload.to_string(), name.to_string());
            let bound = bounds.get(name).copied().ok_or(format!("no bound for {name}"))?;
            let (Some(sa), Some(sb)) = (
                a.runs.get(&key).cloned().and_then(Side::of),
                b.runs.get(&key).cloned().and_then(Side::of),
            ) else {
                println!("{workload:<12} {name:<12} missing from one record");
                continue;
            };
            let v = verdict(&sa, &sb, metric.better, bound);
            regressed |= v == Verdict::Regressed;
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {unit}", s.median, s.q1, s.q3);
            let delta = (sb.summary.median - sa.summary.median) / sa.summary.median.abs() * 100.0;
            println!(
                "{workload:<12} {name:<12} {:>26} {:>26} {:>+7.2}% {:>6.2}%  {}",
                cell(&sa.summary),
                cell(&sb.summary),
                delta,
                bound * 100.0,
                v.name()
            );
        }
    }
    let mut changed = 0;
    for (key, da) in &a.digests {
        if let Some(db) = b.digests.get(key) {
            if da != db {
                changed += 1;
                println!("digest changed: {} cohort {}: {da} -> {db}", key.0, key.1);
            }
        }
    }
    println!(
        "digests: {} compared, {changed} changed",
        a.digests.keys().filter(|k| b.digests.contains_key(k)).count()
    );
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(runs: &[f64]) -> Side {
        Side::of(runs.to_vec()).unwrap()
    }

    #[test]
    fn within_the_bound_is_unchanged() {
        let a = side(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let b = side(&[1.04, 1.05, 1.03, 1.04, 1.06]);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_regresses() {
        let a = side(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let b = side(&[1.20, 1.21, 1.19, 1.22, 1.18]);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Regressed);
        // Direction matters: for a higher-is-better metric the drop regresses.
        let acc_a = side(&[0.90, 0.91, 0.90]);
        let acc_b = side(&[0.80, 0.81, 0.80]);
        assert_eq!(verdict(&acc_a, &acc_b, Better::Higher, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&acc_b, &acc_a, Better::Higher, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = side(&[0.8, 1.0, 1.2, 0.9, 1.1]);
        let b = side(&[0.85, 1.0, 1.15, 0.95, 1.05]);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let fast = side(&[0.5, 0.55, 0.6]);
        assert_eq!(verdict(&a, &fast, Better::Lower, 0.10), Verdict::Improved);
    }

    #[test]
    fn improvement_needs_ten_pairs_won_nine_times_in_ten() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i % 3) * 0.01).collect();
        let mut b: Vec<f64> = a.iter().map(|x| x - 0.10).collect();
        assert_eq!(verdict(&side(&a), &side(&b), Better::Lower, 0.10), Verdict::Improved);
        // Only five pairs: no gain may be claimed.
        assert_eq!(
            verdict(&side(&a[..5]), &side(&b[..5]), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Two of ten pairs lost: fewer than nine tenths won.
        b[0] = 1.5;
        b[1] = 1.5;
        assert_eq!(verdict(&side(&a), &side(&b), Better::Lower, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_inside_the_spread_is_unchanged() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i) * 0.01).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 0.02).collect();
        // B wins every pair, but by less than A's quartile distance.
        assert_eq!(verdict(&side(&a), &side(&b), Better::Lower, 0.10), Verdict::Unchanged);
    }
}
