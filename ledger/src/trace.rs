//! The traced trial: timestamps on the events the program already emits,
//! and the per-layer numbers derived from them.
//!
//! The ledger installs [`StampSink`] with `plos_obs::set_sink`; it records
//! every event with the time and thread it was emitted on. Nothing is added
//! inside the program. The timeline of the thread that drives the fit (the
//! caller of the fit, which for the distributed trainer is also the server
//! thread) is then tiled: each interval between consecutive events on that
//! thread is charged to the layer whose work the closing event ends, so the
//! layers plus `unattributed_s` sum to the traced wall clock.

use crate::stats::Summary;
use crate::workload::{devices_per_worker, Fit, Workload, STRAGGLER_LAG};
use plos_net::shard::PHASE_REFINE;
use plos_net::{DeviceProfile, TrafficStats};
use plos_obs::{Event, Sink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded event with its emission time (seconds since the sink's
/// origin) and thread.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Seconds since the sink's origin.
    pub at_s: f64,
    /// Emitting thread.
    pub thread: ThreadId,
    /// The event itself.
    pub event: Event,
}

/// A `plos_obs` sink that timestamps every event in memory.
#[derive(Debug)]
pub struct StampSink {
    origin: Instant,
    stamps: Mutex<Vec<Stamp>>,
}

impl StampSink {
    /// A sink measuring time from `origin`.
    pub fn new(origin: Instant) -> Self {
        StampSink { origin, stamps: Mutex::new(Vec::new()) }
    }

    /// Everything recorded so far, in recording order.
    pub fn take(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Sink for StampSink {
    fn record(&self, event: &Event) {
        let stamp = Stamp {
            at_s: self.origin.elapsed().as_secs_f64(),
            thread: std::thread::current().id(),
            event: event.clone(),
        };
        self.stamps.lock().unwrap_or_else(|e| e.into_inner()).push(stamp);
    }
}

/// The driving thread's timeline cut into layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Tiling {
    /// Seconds per layer, by layer name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Intervals closed by an event no layer claims, plus the tail after
    /// the last event.
    pub unattributed_s: f64,
    /// End minus start.
    pub wall_s: f64,
}

/// How a trainer's fit-thread events map to layers.
pub struct Layout {
    /// Layer charged with everything up to and including the interval
    /// that ends at the first `init_until` event.
    pub init: &'static str,
    /// The event that closes initialisation: the first main-loop event.
    pub init_until: &'static str,
    /// Layer of the interval a later event closes; `None` leaves it
    /// unattributed.
    pub classify: fn(&Event) -> Option<&'static str>,
}

/// Tiles `[start_s, end_s]` at the times of `events` (one thread's, in
/// emission order) under `layout`. Events outside the window are ignored.
pub fn tile<'a>(
    start_s: f64,
    end_s: f64,
    events: impl IntoIterator<Item = (f64, &'a Event)>,
    layout: &Layout,
) -> Tiling {
    let mut layers = BTreeMap::new();
    let mut unattributed_s = 0.0;
    let mut prev = start_s;
    let mut initialising = true;
    for (at, event) in events {
        if at < start_s || at > end_s {
            continue;
        }
        let layer = if initialising { Some(layout.init) } else { (layout.classify)(event) };
        initialising &= event.name != layout.init_until;
        match layer {
            Some(layer) => *layers.entry(layer).or_insert(0.0) += at - prev,
            None => unattributed_s += at - prev,
        }
        prev = at;
    }
    unattributed_s += end_s - prev;
    Tiling { layers, unattributed_s, wall_s: end_s - start_s }
}

/// The centralized trainer's fit thread.
pub const CENTRAL: Layout = Layout {
    // Prepare, global SVM, first signs, balance-only solve.
    init: "core.centralized.init_s",
    init_until: "qp_solve",
    classify: |event| match event.name {
        // The CD solve of Eq. 16–18 that just finished.
        "qp_solve" => Some("opt.incremental.solve_s"),
        // Eq. 14 search plus the Eq. 16 Gram-row appends.
        "cutting_round" => Some("core.centralized.cut_s"),
        // Sign refresh and objective at the end of a CCCP round.
        "cccp_round" => Some("core.centralized.relinearize_s"),
        // Per-user multi-start prox solves on the pool, then the w0 step.
        "refine_round" => Some("core.prox.refine_s"),
        _ => None,
    },
};

/// The distributed trainer's server thread (the tree's root).
pub const DISTRIBUTED: Layout = Layout {
    // Network start-up, the initialisation round and ADMM round 1.
    init: "core.distributed.init_s",
    init_until: "admm_round",
    classify: |event| match event.name {
        // Scatter, gather (device solves, codec, transport, injected
        // delay) and the Eq. 23 fold of one ADMM round; on the tree, the
        // fold, commit and residual exchange after the regional gathers.
        "admm_round" => Some("core.distributed.round_s"),
        // The snapshot written after a round.
        "checkpoint" => Some("ckpt.write_s"),
        // Tree: the refinement gathers belong to refinement.
        "shard_round" if event.field_u64("phase") == Some(u64::from(PHASE_REFINE)) => {
            Some("core.distributed.refine_s")
        }
        // Tree: regional gathers up to the partial-sum set of a round.
        "shard_round" => Some("core.sharded.gather_s"),
        // Tree: start-of-round replica sync.
        "anti_entropy" => Some("core.sharded.anti_entropy_s"),
        "cccp_round" => Some("core.distributed.relinearize_s"),
        "refine_round" => Some("core.distributed.refine_s"),
        _ => None,
    },
};

/// The generic bucket of a tiled layer, shared by every workload so the
/// benchmark's per-layer metrics exist on all of them.
pub fn bucket(layer: &str) -> &'static str {
    match layer {
        "core.centralized.init_s" | "core.distributed.init_s" => "core.init_s",
        "core.centralized.relinearize_s" | "core.distributed.relinearize_s" => "core.relinearize_s",
        "core.prox.refine_s" | "core.distributed.refine_s" => "core.refine_s",
        _ => "core.loop_s",
    }
}

/// Per-layer numbers of one traced trial: the tiling, and counts and
/// times from the event stream and the trainer's report.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// The driving thread's timeline.
    pub tiling: Tiling,
    /// Every other layer metric, by name.
    pub stats: BTreeMap<&'static str, f64>,
}

/// Solves, sweeps, Σ sweeps × dim, largest dim and shrink reactivations
/// over the `qp_solve` events in `events`.
fn qp_totals<'a>(events: impl Iterator<Item = &'a Event>) -> [f64; 5] {
    let mut totals = [0.0; 5];
    for e in events.filter(|e| e.name == "qp_solve") {
        let dim = e.field_f64("dim").unwrap_or(0.0);
        let sweeps = e.field_f64("sweeps").unwrap_or(0.0);
        totals[0] += 1.0;
        totals[1] += sweeps;
        totals[2] += sweeps * dim;
        totals[3] = totals[3].max(dim);
        totals[4] += e.field_f64("shrink_reactivations").unwrap_or(0.0);
    }
    totals
}

/// Inserts the `qp_solve` totals of [`qp_totals`] under `names`.
fn insert_qp(stats: &mut BTreeMap<&'static str, f64>, names: [&'static str; 5], totals: [f64; 5]) {
    for (name, value) in names.into_iter().zip(totals) {
        stats.insert(name, value);
    }
}

/// Builds the layer report of a traced fit that ran on `fit_thread`
/// between `start_s` and `end_s` (sink time).
pub fn layer_report(
    workload: Workload,
    stamps: &[Stamp],
    fit_thread: ThreadId,
    start_s: f64,
    end_s: f64,
    fit: &Fit,
) -> LayerReport {
    let on_fit = || stamps.iter().filter(|s| s.thread == fit_thread).map(|s| &s.event);
    let layout = if workload.distributed() { &DISTRIBUTED } else { &CENTRAL };
    let tiling = tile(
        start_s,
        end_s,
        stamps.iter().filter(|s| s.thread == fit_thread).map(|s| (s.at_s, &s.event)),
        layout,
    );
    let count = |name: &str| on_fit().filter(|e| e.name == name).count() as f64;
    let layer = |name: &str| tiling.layers.get(name).copied().unwrap_or(0.0);

    let mut stats = BTreeMap::new();
    insert_qp(
        &mut stats,
        [
            "opt.qp_solves",
            "opt.sweeps",
            "opt.coord_updates",
            "opt.dim_max",
            "opt.shrink_reactivations",
        ],
        qp_totals(stamps.iter().map(|s| &s.event)),
    );
    stats.insert("core.cccp_rounds", count("cccp_round"));
    stats.insert("core.refine_rounds", count("refine_round"));
    stats.insert("core.cutting_rounds", count("cutting_round"));
    stats.insert("core.sharded.shard_rounds", count("shard_round"));
    stats.insert("ckpt.writes", count("checkpoint"));

    if let Some(constraints) = fit.constraints_added {
        insert_qp(
            &mut stats,
            [
                "opt.incremental.solves",
                "opt.incremental.sweeps",
                "opt.incremental.coord_updates",
                "opt.incremental.dim_max",
                "opt.incremental.shrink_reactivations",
            ],
            qp_totals(on_fit()),
        );
        let [prox_solves, prox_sweeps, ..] =
            qp_totals(stamps.iter().filter(|s| s.thread != fit_thread).map(|s| &s.event));
        stats.insert("core.prox.qp_solves", prox_solves);
        stats.insert("core.prox.sweeps", prox_sweeps);
        stats.insert("core.centralized.constraints_added", constraints as f64);
    }

    let report = fit.report.as_ref();
    let traffic = report.map_or_else(TrafficStats::default, |r| {
        r.per_user_traffic.iter().fold(TrafficStats::default(), |acc, s| acc.merged(s))
    });
    stats.insert("core.distributed.admm_rounds", report.map_or(0.0, |r| r.admm_iterations as f64));
    stats.insert("net.messages", traffic.total_messages() as f64);
    stats.insert("net.kb_per_user", report.map_or(0.0, |r| r.mean_user_kb()));
    if let Some(report) = report {
        let solve_s: f64 = report.per_user_compute.iter().map(|d| d.as_secs_f64()).sum();
        let solve_max = report.max_client_compute();
        let fold_s = report.server_compute.as_secs_f64();
        let phone = DeviceProfile::nexus5().rescale_from(solve_max, &DeviceProfile::reference());
        stats.insert("core.local.solve_s", solve_s);
        stats.insert("core.local.solve_max_s", solve_max.as_secs_f64());
        stats.insert("core.local.phone_s", phone.as_secs_f64() + fold_s);

        let rounds: Vec<f64> = stamps
            .iter()
            .filter(|s| s.thread == fit_thread && s.event.name == "admm_round")
            .map(|s| s.at_s)
            .collect();
        let gaps_ms: Vec<f64> = rounds.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect();
        if let Some(gaps) = Summary::of(&gaps_ms) {
            stats.insert("core.distributed.round_ms_p50", gaps.median);
            stats.insert("core.distributed.round_ms_max", gaps.max);
        }
        let round_s = layer("core.distributed.round_s") + layer("core.sharded.gather_s");
        stats.insert("core.distributed.fold_s", fold_s);
        stats.insert("core.distributed.gather_wait_s", (round_s - fold_s).max(0.0));

        let writes: Vec<f64> = on_fit()
            .filter(|e| e.name == "checkpoint")
            .filter_map(|e| e.field_f64("bytes"))
            .collect();
        if !writes.is_empty() {
            stats.insert("ckpt.bytes_per_write", writes.iter().sum::<f64>() / writes.len() as f64);
        }
        stats.insert(
            "core.sharded.anti_entropy_syncs",
            on_fit()
                .filter(|e| e.name == "anti_entropy")
                .filter_map(|e| e.field_f64("synced"))
                // An empty `sum()` of floats is -0.0.
                .fold(0.0, |a, b| a + b),
        );

        stats.insert("net.bytes", traffic.total_bytes() as f64);
        // The straggler lags every frame it sends by a fixed hold-back.
        let delayed = match workload {
            Workload::Star => {
                report.per_user_traffic.last().map_or(0.0, |s| s.messages_sent as f64)
            }
            _ => 0.0,
        };
        stats.insert("net.fault.delayed_frames", delayed);
        stats.insert("net.fault.injected_delay_s", delayed * STRAGGLER_LAG.as_secs_f64());
        let users = workload.cohort().users;
        let workers = users.div_ceil(devices_per_worker(users)) as f64;
        stats.insert("net.mux.worker_busy_share", solve_s / (workers * tiling.wall_s));
    }
    LayerReport { tiling, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str) -> Event {
        Event { name, fields: Vec::new() }
    }

    #[test]
    fn tiling_sums_to_the_wall_clock() {
        let events = [
            (0.5, ev("span")),
            (0.75, ev("qp_solve")),
            (1.0, ev("cutting_round")),
            (1.25, ev("qp_solve")),
            (1.5, ev("span")),
            (1.75, ev("cccp_round")),
            (2.5, ev("refine_round")),
            (9.0, ev("outside_the_window")),
        ];
        let t = tile(0.25, 2.75, events.iter().map(|(at, e)| (*at, e)), &CENTRAL);
        // Everything up to the first solve is initialisation.
        assert_eq!(t.layers["core.centralized.init_s"], 0.5);
        assert_eq!(t.layers["core.centralized.cut_s"], 0.25);
        assert_eq!(t.layers["opt.incremental.solve_s"], 0.25);
        assert_eq!(t.layers["core.centralized.relinearize_s"], 0.25);
        assert_eq!(t.layers["core.prox.refine_s"], 0.75);
        // The interval closed by `span` and the tail after the last event.
        assert_eq!(t.unattributed_s, 0.25 + 0.25);
        assert_eq!(t.wall_s, 2.5);
        let total: f64 = t.layers.values().sum::<f64>() + t.unattributed_s;
        assert!((total - t.wall_s).abs() < 1e-12);
    }

    #[test]
    fn tiling_with_no_events_is_all_unattributed() {
        let t = tile(1.0, 3.0, std::iter::empty(), &DISTRIBUTED);
        assert!(t.layers.is_empty());
        assert_eq!(t.unattributed_s, 2.0);
    }

    #[test]
    fn tree_refinement_gathers_count_as_refinement() {
        let refine = Event { name: "shard_round", fields: vec![("phase", 2_u64.into())] };
        let admm = Event { name: "shard_round", fields: vec![("phase", 1_u64.into())] };
        let events = [(1.0, ev("admm_round")), (2.0, admm), (3.0, ev("admm_round")), (4.5, refine)];
        let t = tile(0.0, 5.0, events.iter().map(|(at, e)| (*at, e)), &DISTRIBUTED);
        assert_eq!(t.layers["core.distributed.init_s"], 1.0);
        assert_eq!(t.layers["core.sharded.gather_s"], 1.0);
        assert_eq!(t.layers["core.distributed.round_s"], 1.0);
        assert_eq!(t.layers["core.distributed.refine_s"], 1.5);
        assert_eq!(t.unattributed_s, 0.5);
    }

    #[test]
    fn irregular_stream_keeps_the_sum() {
        // A pseudo-random stream of every event kind the server emits.
        let names = ["admm_round", "checkpoint", "shard_round", "anti_entropy", "span", "x"];
        let mut at = 0.0;
        let mut events = Vec::new();
        for i in 0..500_u32 {
            at += f64::from(i % 7 + 1) * 1e-4;
            events.push((at, ev(names[(i as usize * 5 + 3) % names.len()])));
        }
        let t = tile(0.0, at + 0.01, events.iter().map(|(at, e)| (*at, e)), &DISTRIBUTED);
        let total: f64 = t.layers.values().sum::<f64>() + t.unattributed_s;
        assert!((total - t.wall_s).abs() < 1e-9, "{total} vs {}", t.wall_s);
        assert!(t.unattributed_s >= 0.0);
        assert!(t.layers.values().all(|v| *v >= 0.0));
    }

    #[test]
    fn buckets_cover_both_trainers() {
        assert_eq!(bucket("core.centralized.init_s"), "core.init_s");
        assert_eq!(bucket("core.distributed.init_s"), "core.init_s");
        assert_eq!(bucket("ckpt.write_s"), "core.loop_s");
        assert_eq!(bucket("opt.incremental.solve_s"), "core.loop_s");
        assert_eq!(bucket("core.prox.refine_s"), "core.refine_s");
        assert_eq!(bucket("core.distributed.relinearize_s"), "core.relinearize_s");
    }
}
