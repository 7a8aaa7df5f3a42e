//! The host fingerprint every record header carries.

use plos_obs::Value;
use std::process::Command;

/// The SIMD tier `plos_linalg::kernels` dispatches to on this host,
/// mirroring its one-shot detection (including `PLOS_NO_SIMD=1`).
pub fn simd_tier() -> &'static str {
    if std::env::var_os("PLOS_NO_SIMD").is_some_and(|v| v == *"1") {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    "scalar"
}

/// Trimmed standard output of a command, or `None` when it cannot run or
/// fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

/// Header fields: core count, pool size and whether `PLOS_THREADS` set it,
/// SIMD tier, source revision with a dirty flag, compiler, seed and trial
/// count. Revision and compiler read `"unknown"` where git or rustc cannot
/// answer; the revision is the working directory's, which is the measured
/// build's unless `run --against` named another.
pub fn fingerprint(seed: u64, trials: usize) -> Vec<(&'static str, Value)> {
    let known = |v: Option<String>| Value::from(v.unwrap_or_else(|| "unknown".to_string()));
    let dirty = command_output("git", &["status", "--porcelain", "--untracked-files=no"])
        .map_or_else(|| Value::from("unknown"), |s| Value::from(!s.is_empty()));
    vec![
        ("nproc", std::thread::available_parallelism().map_or(1, usize::from).into()),
        ("pool_threads", plos_exec::Pool::current().threads().into()),
        ("plos_threads_set", std::env::var_os("PLOS_THREADS").is_some().into()),
        ("simd", simd_tier().into()),
        ("git_rev", known(command_output("git", &["rev-parse", "--short", "HEAD"]))),
        ("git_dirty", dirty),
        ("rustc", known(command_output("rustc", &["-V"]))),
        ("seed", seed.into()),
        ("trials", trials.into()),
    ]
}
