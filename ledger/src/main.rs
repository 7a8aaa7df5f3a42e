//! Per-layer performance ledger for PLOS.
//!
//! Trains four pinned workloads, each trial in a fresh child process, one
//! child at a time, with the pool at its ambient size (`PLOS_THREADS` is
//! never set here). End-to-end metrics come from untraced trials; one extra
//! traced trial per workload gives the per-layer numbers, from timestamps a
//! bench-owned `plos_obs::Sink` puts on the events the program already
//! emits and from timed calls into public layer functions. Nothing is
//! instrumented inside the program. Every correctness check that fails
//! makes the run exit non-zero.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1
//! ledger run --seed N [--trials N] --out PATH
//!            [--against LEDGER_BINARY --against-out PATH]
//! ledger diff A.json B.json
//! ```
//!
//! The first form is one measured run: it fits one workload in whole
//! passes over the cohort panel until `S` seconds have passed (at least
//! two passes), and prints one JSON line of end-to-end metrics with
//! `--trace 0`, or of per-layer ones (from one extra traced trial) with
//! `--trace 1`. `run` makes `--trials` measured runs (default 10) per
//! workload, round-robin, each as long as `BENCHMARK.json`'s `run_seconds`
//! and run `r` seeded `N + r`; it prints every metric with its unit as
//! median and quartiles over the runs, and writes a record on the
//! `render_suite_json` trace schema headed by the host fingerprint. With
//! `--against`, every run is paired with one of another ledger build (say,
//! the parent commit's) on the same seed, the pair's order alternating
//! from round to round, and that build's runs go to a second record.
//! `diff` gives a verdict per (workload, end-to-end metric) of B against
//! baseline A under the bounds of `BENCHMARK.json`, flags changed model
//! digests, and exits 1 if any pair regressed. The host's speed drifts
//! over minutes, so only records taken side by side with `--against`
//! should be diffed.
//!
//! # Workloads
//!
//! Cohorts come from `generate_synthetic` (2-D Gaussians rotated per user,
//! 10 % label noise, π/2 maximum rotation) masked by
//! `LabelMask::providers` with half the users labelling, as in Sec. VI-E.
//! Every run of every workload fits the same pinned panel of six cohorts
//! (`workload::PANEL`); the seed only orders the fits. Each fit is
//! deterministic, so a run's accuracy is exact and its timings differ from
//! another run's by host noise alone. Every setting is pinned in
//! `workload.rs`; convergence tests are on, as users run them.
//!
//! | name | what | why |
//! |---|---|---|
//! | `central_t16` | `CentralizedPlos::fit_detailed`, 16 users × 200 samples, 8 providers at 5 % labels; λ = 40, 6 CCCP rounds of at most 30 cutting rounds, 2 restarts, 2 refinement rounds, library tolerances | Algorithm 1 alone. Gram-row appends, CD sweeps, constraint search and refinement do all the work; net, ckpt and the server loops are bypassed. |
//! | `star_t16` | `DistributedPlos` flat star on the same cohorts and settings, `Multiplexed { ceil(16 / pool) }`, a checkpoint every round, the last device a 10 ms straggler | Few heavy devices, so the device-local Eq. 22 QP dominates compute. The straggler is the last device swept and exposes a fixed wait per round; the checkpoint write path runs every round. Shares its cohorts with `central_t16` (the Fig. 11/12 comparison). |
//! | `fleet_t64` | flat star, 64 users × 40 samples, 32 providers at 20 %; the `--quick` setting (`PlosConfig::fast` tolerances and caps, λ = 40); retry windows widened (recv 10 s, deadline 90 s) | Many tiny devices: per-device and per-message fixed costs (mux sweep, codec, `Pool::current`, solver set-up, a 64-way fold) weigh most. The dual QP is bypassed. |
//! | `tree_t64` | the same cohorts and settings through `Topology::Sharded(ShardSpec::new(8))` | The same work routed through regional gathers, exact partial sums, the root fold and anti-entropy. `fleet_t64` is its no-change twin, and its digests must equal fleet's. |
//!
//! # End-to-end metrics
//!
//! From a run's untraced trials: `train_s` (wall clock of the fit call)
//! and `accuracy` (overall, Fig. 11) as each cohort's median averaged over
//! the panel; `setup_s` (cohort generation + masking + trainer
//! construction) and `peak_rss_mb` (the trial process's `VmHWM`), which
//! depend only on the cohort's shape, as the median over all trials. A
//! run's `attempted`/`failed` count operations: fit calls (central) or
//! gather rounds (distributed); a round fails if it closed with fewer
//! replies than live devices or fired a retry.
//!
//! # Layers
//!
//! The traced trial fits the panel's first cohort. The fit thread's
//! timeline (central) or server thread's (distributed) is tiled between
//! consecutive events on that thread; the record's `layers` object per
//! workload sums to the traced wall clock, the remainder being
//! `unattributed_s`. "Should move" names the end-to-end metric each layer
//! should move, and where.
//!
//! | layer | metrics (source) | should move |
//! |---|---|---|
//! | `core.centralized` | `init_s`: fit start → first `qp_solve`. `cut_s`: intervals ending at `cutting_round` (Eq. 14 search + Eq. 16 row append). `relinearize_s`: intervals ending at `cccp_round`. `constraints_added` (`CentralizedFit`) | `train_s` on `central_t16` |
//! | `opt.incremental` | `solve_s`: intervals ending at a fit-thread `qp_solve`. `solves`, `sweeps`, `coord_updates` (Σ sweeps × dim), `dim_max`, `shrink_reactivations` | `train_s` and `peak_rss_mb` on `central_t16`; no change elsewhere |
//! | `core.prox` | `refine_s`: intervals ending at `refine_round`. `qp_solves`, `sweeps`: `qp_solve` events from pool-worker threads | `train_s` on `central_t16` |
//! | `core.local` | `solve_s`: Σ per-device compute. `solve_max_s`: the slowest device. `phone_s`: its Nexus 5 rescale plus the fold (Fig. 12) | `train_s` on `star_t16` (most), `fleet_t64`, `tree_t64` |
//! | `core.distributed` | `init_s` (start → first `admm_round`), `round_s` (intervals ending at `admm_round`), `admm_rounds`, `round_ms_p50`, `round_ms_max`, `fold_s` (server compute), `gather_wait_s` (`round_s` − `fold_s`), `relinearize_s`, `refine_s` | `train_s` on `fleet_t64` (fold/gather) and `star_t16` (wait) |
//! | `core.sharded` | `gather_s` (intervals ending at `shard_round`), `anti_entropy_s`, `shard_rounds`, `anti_entropy_syncs`, `tree_overhead_s` (`tree_t64` − `fleet_t64` median `train_s`, `run` only) | `train_s` on `tree_t64` only |
//! | `ckpt` | `write_s`: intervals from `admm_round` to `checkpoint`. `writes`, `bytes_per_write` | `train_s` on `star_t16` only |
//! | `net` | `messages`, `bytes`, `kb_per_user`. `fault.delayed_frames`, `fault.injected_delay_s` (lag × frames the straggler sent). `mux.worker_busy_share`: `core.local.solve_s` / (workers × wall). `codec.encode_us`, `codec.decode_us`: probes of `Message::encode`/`decode` on a broadcast and an update | `train_s` on `fleet_t64` (codec/mux) and `star_t16` (fault delay) |
//! | `exec` | `pool_current_us`: probe of `Pool::current()`. `fork_join_us`: probe of `par_map` over `threads` no-op items | `train_s` on `fleet_t64` and `central_t16`; `setup_s` everywhere |
//! | `linalg.kernels` | `dot_ns`: probe of `kernels::dot` at `opt.dim_max` | `train_s` on `central_t16` |
//! | `obs` | `trace_overhead_pct`: traced wall over the dark median of the same cohort | none; it guards the cost of tracing |
//!
//! `BENCHMARK.json`'s per-layer list holds the metrics every workload has:
//! the tiling folded into `core.{init,loop,relinearize,refine}_s`, the work
//! counts, and the probes.
//!
//! # Checks
//!
//! Trials of one cohort yield one digest, traced or not; the tree's
//! digests equal the fleet's (on the panel's first cohort in a measured
//! run, on every cohort in `run`); accuracy is at least 0.70; no operation
//! fails.

mod diff;
mod harness;
mod host;
mod metrics;
mod probe;
mod stats;
mod trace;
mod trial;
mod workload;

use harness::{measure, over_runs, result_line, WorkloadRun};
use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, ALL, PANEL};

const USAGE: &str = concat!(
    "usage: ledger --workload NAME --seed N --seconds S --trace 0|1\n",
    "       ledger run --seed N [--trials N] --out PATH\n",
    "                  [--against LEDGER_BINARY --against-out PATH]\n",
    "       ledger diff A.json B.json",
);

/// Parsed `--flag value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or(format!("--{name} is required"))
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.require(name)?;
        v.parse().map_err(|_| format!("--{name} must be a number, got {v:?}"))
    }

    fn number_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        if self.get(name).is_some() {
            self.number(name)
        } else {
            Ok(default)
        }
    }

    /// `--seconds`: finite and not negative.
    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.number("seconds")?;
        if s.is_finite() && s >= 0.0 {
            Ok(s)
        } else {
            Err(format!("--seconds must be a non-negative number, got {s}"))
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.require("workload")?;
        Workload::parse(name).ok_or(format!("unknown workload {name:?}"))
    }

    fn trace(&self) -> Result<bool, String> {
        match self.require("trace")? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("--trace must be 0 or 1, got {other:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

/// A command's outcome: usage errors exit 2, failures 1.
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(detail: String) -> Self {
        Failure::Run(detail)
    }
}

/// Measures one workload for `--seconds` and prints the result line.
fn bench(flags: &Flags) -> Result<bool, Failure> {
    flags.only(&["workload", "seed", "seconds", "trace"]).map_err(Failure::Usage)?;
    let (workload, seed, seconds, traced) = (|| {
        Ok::<_, String>((
            flags.workload()?,
            flags.number::<u64>("seed")?,
            flags.seconds()?,
            flags.trace()?,
        ))
    })()
    .map_err(Failure::Usage)?;
    let started = Instant::now();
    let exe = trial::this_exe()?;
    let mut run = measure(&exe, workload, seed, seconds)?;
    if workload == Workload::Tree {
        run.reference.push(trial::spawn(&exe, Workload::Fleet, PANEL[0], false)?);
    }
    if traced {
        run.traced = Some(trial::spawn(&exe, workload, PANEL[0], true)?);
    }
    let failures = run.failures();
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let metrics: Vec<(&str, &str, f64)> = if traced {
        let values = run.per_layer()?;
        PER_LAYER.iter().zip(values).map(|(m, (_, v))| (m.name, m.unit, v)).collect()
    } else {
        END_TO_END.iter().filter_map(|m| run.value(m.name).map(|v| (m.name, m.unit, v))).collect()
    };
    eprintln!(
        "{}: {} trials in {:.1} s (pool {} of {} cores, simd {})",
        workload.name(),
        run.trials.len(),
        started.elapsed().as_secs_f64(),
        plos_exec::Pool::current().threads(),
        std::thread::available_parallelism().map_or(1, usize::from),
        host::simd_tier(),
    );
    let (attempted, failed) = run.ops();
    println!("{}", result_line(failures.is_empty(), attempted, failed, &metrics));
    Ok(failures.is_empty())
}

/// Prints one workload's metrics by name with their units: each end-to-end
/// metric over the runs, then the traced trial's layers.
fn print_workload(runs: &[WorkloadRun]) {
    let Some(first) = runs.first() else { return };
    let name = first.workload.name();
    for (m, s) in over_runs(runs) {
        println!(
            "{name:<12} {:<14} {:>12.6} {:<8} [q1 {:.6}, q3 {:.6}] n={}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
    }
    let Some(layers) = first.traced.as_ref().and_then(|t| t.layers.as_ref()) else { return };
    let t = &layers.tiling;
    let sum = t.layers.values().sum::<f64>() + t.unattributed_s;
    println!(
        "{name:<12} layers of the traced fit: wall {:.6} s, layers + unattributed {sum:.6} s",
        t.wall_s
    );
    for (layer, seconds) in &t.layers {
        println!("{name:<12}   {layer:<38} {seconds:>14.6} s");
    }
    println!("{name:<12}   {:<38} {:>14.6} s", "unattributed_s", t.unattributed_s);
    for (stat, value) in &layers.stats {
        println!("{name:<12}   {stat:<38} {value:>14.6}");
    }
    if let Some(pct) = first.trace_overhead_pct() {
        println!("{name:<12}   {:<38} {pct:>14.6} %", "obs.trace_overhead_pct");
    }
}

/// Position of `workload` in [`ALL`].
fn slot(workload: Workload) -> usize {
    ALL.iter().position(|w| *w == workload).unwrap_or_default()
}

/// One ledger build's measured runs, one list per workload of [`ALL`], and
/// where its record goes.
struct Side {
    exe: PathBuf,
    out: PathBuf,
    runs: Vec<Vec<WorkloadRun>>,
}

impl Side {
    /// Adds the traced trials and the tree's reference digests, prints
    /// every metric and writes the record; returns the failed checks.
    fn finish(mut self, seed: u64, trials: usize) -> Result<Vec<String>, String> {
        for (workload, list) in ALL.iter().zip(&mut self.runs) {
            if let Some(first) = list.first_mut() {
                first.traced = Some(trial::spawn(&self.exe, *workload, PANEL[0], true)?);
            }
        }
        // Every run fits the panel: the tree's must reproduce the fleet's
        // digests.
        let fleet: Vec<_> =
            self.runs[slot(Workload::Fleet)].iter().map(|r| r.trials.clone()).collect();
        for (tree, fleet) in self.runs[slot(Workload::Tree)].iter_mut().zip(fleet) {
            tree.reference = fleet;
        }
        let median_train = |w: Workload| {
            over_runs(&self.runs[slot(w)])
                .into_iter()
                .find(|(m, _)| m.name == "train_s")
                .map(|(_, s)| s.median)
        };
        let tree_overhead = median_train(Workload::Tree)
            .zip(median_train(Workload::Fleet))
            .map(|(tree, fleet)| ("core.sharded.tree_overhead_s", tree - fleet));

        println!("ledger {}", self.exe.display());
        let mut events = Vec::new();
        let mut failures = Vec::new();
        for (workload, list) in ALL.iter().zip(&self.runs) {
            print_workload(list);
            for (r, run) in list.iter().enumerate() {
                events.extend(run.events(r));
                failures.extend(run.failures());
            }
            events.extend(harness::metric_events(*workload, list));
            let extra: Vec<_> =
                tree_overhead.filter(|_| *workload == Workload::Tree).into_iter().collect();
            events.extend(list.iter().flat_map(|r| r.layer_events(&extra)));
        }
        let header = plos_obs::Event { name: "ledger", fields: host::fingerprint(seed, trials) };
        let record = plos_bench::render_suite_json(&header, &events);
        if let Some(dir) = self.out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&self.out, record).map_err(|e| format!("{}: {e}", self.out.display()))?;
        println!("record: {}", self.out.display());
        Ok(failures)
    }
}

/// Measures every workload round-robin for `run_seconds` per run, prints
/// the metrics and writes the record. Run `r` of every workload uses seed
/// `--seed + r`, which orders its fits.
fn run_ledger(flags: &Flags) -> Result<bool, Failure> {
    flags.only(&["seed", "trials", "out", "against", "against-out"]).map_err(Failure::Usage)?;
    let (seed, trials, out) = (|| {
        Ok::<_, String>((
            flags.number::<u64>("seed")?,
            flags.number_or::<usize>("trials", 10)?,
            PathBuf::from(flags.require("out")?),
        ))
    })()
    .map_err(Failure::Usage)?;
    if trials == 0 {
        return Err(Failure::Usage("--trials must be at least 1".into()));
    }
    let seconds = metrics::run_seconds()?;
    let empty = || ALL.iter().map(|_| Vec::new()).collect();
    let mut sides = vec![Side { exe: trial::this_exe()?, out, runs: empty() }];
    match (flags.get("against"), flags.get("against-out")) {
        (Some(exe), Some(out)) => {
            sides.push(Side { exe: exe.into(), out: out.into(), runs: empty() });
        }
        (None, None) => {}
        _ => return Err(Failure::Usage("--against and --against-out go together".into())),
    }
    for r in 0..trials {
        for (w, workload) in ALL.iter().enumerate() {
            // Alternate which build of a pair runs first.
            let n = sides.len();
            for k in 0..n {
                let side = &mut sides[(k + r) % n];
                let run = measure(&side.exe, *workload, seed.wrapping_add(r as u64), seconds)?;
                side.runs[w].push(run);
            }
        }
    }
    let mut failures = Vec::new();
    for side in sides {
        failures.extend(side.finish(seed, trials)?);
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    Ok(failures.is_empty())
}

fn dispatch(args: &[String]) -> Result<bool, Failure> {
    match args.first().map(String::as_str) {
        Some("run") => run_ledger(&Flags::parse(&args[1..]).map_err(Failure::Usage)?),
        Some("diff") => match &args[1..] {
            [a, b] => Ok(!diff::run(a, b)?),
            _ => Err(Failure::Usage("diff takes two record paths".into())),
        },
        Some("trial") => {
            let flags = Flags::parse(&args[1..]).map_err(Failure::Usage)?;
            flags.only(&["workload", "cohort-seed", "trace"]).map_err(Failure::Usage)?;
            let workload = flags.workload().map_err(Failure::Usage)?;
            let seed = flags.number("cohort-seed").map_err(Failure::Usage)?;
            trial::run_child(workload, seed, flags.trace().map_err(Failure::Usage)?)?;
            Ok(true)
        }
        _ => bench(&Flags::parse(args).map_err(Failure::Usage)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Failure::Usage(detail)) => {
            eprintln!("error: {detail}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(detail)) => {
            eprintln!("error: {detail}");
            ExitCode::FAILURE
        }
    }
}
