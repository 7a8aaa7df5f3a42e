//! Runner for the Sec. VI-E scalability experiments: one sweep over the
//! user counts, three tables — Fig. 11 (accuracy parity), Fig. 12 (running
//! time), Fig. 13 (message overhead) — plus one 1000-user distributed point
//! through the virtual-device mux, whose worker count stays bounded by the
//! pool instead of the fleet.
//!
//! Besides the human-readable tables on stdout, a full run writes a
//! machine-readable `results/BENCH_scale.json` built from `plos-obs` trace
//! events (`scale_point` per sweep position, `mux_scale_point` for the mux
//! point), so the same parser that reads `PLOS_TRACE` JSONL streams reads
//! the record. A `--quick` run is a smoke: it prints the tables and writes
//! no file. Either run mirrors its events into `PLOS_TRACE` when set. The
//! sweep times each point once, whatever `--trials` says.

use plos_bench::{
    emit_event, render_suite_json, results_path, run_mux_scale_point, run_scale_point, scale_sweep,
    MuxScalePoint, RunOptions, ScalePoint,
};
use plos_obs::Event;
use std::time::Instant;

/// Cohort size of the mux point: an order of magnitude past where
/// thread-per-device stopped scaling.
const MUX_USERS: usize = 1000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = RunOptions::from_args();
    let threads = plos_exec::Pool::current().threads();
    let sweep_started = Instant::now();
    let points = scale_sweep(&opts)
        .into_iter()
        .map(|users| run_scale_point(users, &opts))
        .collect::<Result<Vec<_>, _>>()?;
    let mux = run_mux_scale_point(MUX_USERS, &opts)?;
    let total_wall_clock_s = sweep_started.elapsed().as_secs_f64();

    println!("\n=== Figure 11: accuracy difference (centralized - distributed), percent ===");
    println!("{:>8} {:>14} {:>14} {:>12}", "# users", "central acc %", "dist acc %", "diff (pp)");
    for p in &points {
        println!(
            "{:>8} {:>14.2} {:>14.2} {:>12.2}",
            p.users,
            p.acc_centralized * 100.0,
            p.acc_distributed * 100.0,
            (p.acc_centralized - p.acc_distributed) * 100.0
        );
    }

    println!("\n=== Figure 12: running time (s) vs # of users ===");
    println!(
        "{:>8} {:>16} {:>18} {:>10}",
        "# users", "centralized (s)", "distributed (s)", "ADMM iters"
    );
    for p in &points {
        println!(
            "{:>8} {:>16.3} {:>18.3} {:>10}",
            p.users, p.time_centralized_s, p.time_distributed_s, p.admm_iterations
        );
    }

    println!("\n=== Figure 13: message overhead per user (KB) vs # of users ===");
    println!("{:>8} {:>14} {:>10}", "# users", "KB per user", "ADMM iters");
    for p in &points {
        println!("{:>8} {:>14.2} {:>10}", p.users, p.kb_per_user, p.admm_iterations);
    }

    println!("\n=== Virtual-device point: distributed training past the thread wall ===");
    println!(
        "{:>8} {:>9} {:>7} {:>14} {:>12} {:>12} {:>10}",
        "# users",
        "K/worker",
        "workers",
        "wall clock (s)",
        "dist acc %",
        "KB per user",
        "ADMM iters"
    );
    println!(
        "{:>8} {:>9} {:>7} {:>14.3} {:>12.2} {:>12.2} {:>10}",
        mux.users,
        mux.devices_per_worker,
        mux.workers,
        mux.wall_clock_s,
        mux.acc_distributed * 100.0,
        mux.kb_per_user,
        mux.admm_iterations
    );

    let header = Event {
        name: "scale_suite",
        fields: vec![
            ("quick", opts.quick.into()),
            ("seed", opts.seed.into()),
            ("threads", threads.into()),
            ("total_wall_clock_s", total_wall_clock_s.into()),
        ],
    };
    let events: Vec<Event> =
        points.iter().map(point_event).chain(std::iter::once(mux_event(&mux))).collect();
    for e in std::iter::once(&header).chain(&events) {
        emit_event(e);
    }
    if opts.quick {
        return Ok(());
    }
    let out = results_path("BENCH_scale.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out, render_suite_json(&header, &events))?;
    println!("\nwrote {}", out.display());
    Ok(())
}

/// The `mux_scale_point` event, with the worker count recorded so the
/// thread-boundedness claim is auditable from the JSON alone.
fn mux_event(p: &MuxScalePoint) -> Event {
    Event {
        name: "mux_scale_point",
        fields: vec![
            ("users", p.users.into()),
            ("points_per_class", p.points_per_class.into()),
            ("devices_per_worker", p.devices_per_worker.into()),
            ("workers", p.workers.into()),
            ("acc_distributed", p.acc_distributed.into()),
            ("wall_clock_s", p.wall_clock_s.into()),
            ("kb_per_user", p.kb_per_user.into()),
            ("admm_iterations", p.admm_iterations.into()),
            ("model_digest", format!("{:016x}", p.model_digest).into()),
        ],
    }
}

/// One `scale_point` trace event per sweep position — the same record shape
/// whether it lands in `BENCH_scale.json` or a `PLOS_TRACE` JSONL stream.
fn point_event(p: &ScalePoint) -> Event {
    Event {
        name: "scale_point",
        fields: vec![
            ("users", p.users.into()),
            ("points_per_class", p.points_per_class.into()),
            ("samples_per_user", (2 * p.points_per_class).into()),
            ("acc_centralized", p.acc_centralized.into()),
            ("acc_distributed", p.acc_distributed.into()),
            ("time_centralized_s", p.time_centralized_s.into()),
            ("time_distributed_s", p.time_distributed_s.into()),
            ("kb_per_user", p.kb_per_user.into()),
            ("admm_iterations", p.admm_iterations.into()),
        ],
    }
}
