//! Runs every figure reproduction in sequence.
//!
//! By default uses the figures' full-scale settings; pass `--quick` to run
//! reduced sizes (a smoke test of the whole harness in a couple of
//! minutes).
//!
//! ```text
//! cargo run --release -p plos-bench --bin figures -- --quick
//! ```

use std::process::Command;

const FIGURES: &[&str] = &[
    "fig03_body_labelers",
    "fig04_body_rate",
    "fig05_har_labelers",
    "fig06_har_rate",
    "fig07_har_lambda",
    "fig08_synth_rotation",
    "fig09_synth_labelers",
    "fig10_synth_rate",
    // Figs. 11–13: one sweep over the number of users, three tables.
    "scale_suite",
    "fig_ablation",
];

// Allowed: top-level figure runner; aborting with a message when the
// environment is broken (no current-exe path, spawn failure) is the
// intended behavior.
#[allow(clippy::expect_used, clippy::panic)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let self_path = std::env::current_exe().expect("current executable path");
    let bin_dir = self_path.parent().expect("bin directory").to_path_buf();

    let mut failures = Vec::new();
    for figure in FIGURES {
        let path = bin_dir.join(figure);
        if !path.exists() {
            eprintln!("skipping {figure}: binary not built ({path:?})");
            continue;
        }
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {figure}: {e}"));
        if !status.success() {
            failures.push(*figure);
        }
    }
    if !failures.is_empty() {
        eprintln!("figures failed: {failures:?}");
        std::process::exit(1);
    }
    println!("\nall figures completed");
}
