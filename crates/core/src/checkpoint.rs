//! Run-level checkpoint policy for the PLOS trainers.
//!
//! Both trainers accept an optional [`CheckpointPolicy`]: when one is set
//! (explicitly, or via the `PLOS_CKPT_DIR` environment variable) the
//! centralized trainer snapshots its state after every CCCP and refinement
//! round, and the distributed server snapshots after every ADMM iteration
//! and refinement round — server-side state only, never device-local data.
//! A later run with the same policy finds the snapshot, verifies it, and
//! resumes mid-run with **bit-parity**: the resumed run's final model is
//! bit-identical to the uninterrupted run's (see `DESIGN.md` §10).
//!
//! Corrupted, truncated, or structurally mismatched checkpoints surface as
//! [`CoreError::Ckpt`] — a damaged snapshot is never silently ignored and
//! never silently restarted from scratch; delete it (or point the policy at
//! another directory) to start fresh.

use crate::config::PlosConfig;
use crate::error::CoreError;
use plos_ckpt::{CheckpointFile, CkptError, Fnv1a, Store};
use std::path::PathBuf;

/// Name of the environment variable holding the default checkpoint
/// directory. When set, trainers without an explicit policy checkpoint
/// there.
pub const CKPT_DIR_ENV: &str = "PLOS_CKPT_DIR";

/// Where and how a trainer checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    dir: PathBuf,
    abort_after: Option<u32>,
}

impl CheckpointPolicy {
    /// Checkpoints into `dir` after every outer round, with no deliberate
    /// interruption.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { dir: dir.into(), abort_after: None }
    }

    /// Policy from the `PLOS_CKPT_DIR` environment variable, if set and
    /// non-empty.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        match std::env::var(CKPT_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => Some(CheckpointPolicy::new(dir)),
            _ => None,
        }
    }

    /// Kill switch for resume testing: abort the run with
    /// [`CoreError::Interrupted`] immediately after the `n`-th checkpoint is
    /// written. The checkpoint on disk at that moment is complete and valid,
    /// simulating a process killed between rounds.
    #[must_use]
    pub fn abort_after(mut self, n: u32) -> Self {
        self.abort_after = Some(n);
        self
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Opens a per-run session writing checkpoints under `name`.
    pub(crate) fn session(&self, name: &str) -> CkptSession {
        CkptSession {
            store: Store::new(self.dir.clone()),
            name: name.to_string(),
            abort_after: self.abort_after,
            written: 0,
        }
    }
}

/// Mutable per-run checkpointing state: counts writes so the `abort_after`
/// kill switch can fire deterministically.
#[derive(Debug)]
pub(crate) struct CkptSession {
    store: Store,
    name: String,
    abort_after: Option<u32>,
    written: u32,
}

impl CkptSession {
    /// Saves a snapshot; fires [`CoreError::Interrupted`] when the policy's
    /// kill switch is reached (the snapshot is on disk first).
    pub(crate) fn save(&mut self, file: &CheckpointFile) -> Result<(), CoreError> {
        self.store.save(&self.name, file)?;
        self.written += 1;
        if let Some(n) = self.abort_after {
            if self.written >= n {
                return Err(CoreError::Interrupted { checkpoints: self.written });
            }
        }
        Ok(())
    }

    /// Loads this run's snapshot, if one exists.
    pub(crate) fn load(&self) -> Result<Option<CheckpointFile>, CoreError> {
        Ok(self.store.load(&self.name)?)
    }

    /// Removes this run's snapshot after successful completion so the next
    /// run starts fresh.
    pub(crate) fn clear(&self) -> Result<(), CoreError> {
        Ok(self.store.remove(&self.name)?)
    }
}

/// Structural fingerprint of a run: solver kind, cohort shape, and every
/// config scalar that influences the trajectory. Deliberately excludes the
/// training data itself — hashing features would defeat the privacy story
/// and the shape plus hyperparameters is what determines whether a
/// checkpoint belongs to this run.
pub(crate) fn run_fingerprint(kind: u8, t_count: usize, dim: usize, config: &PlosConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&[kind]);
    h.write_u64(t_count as u64);
    h.write_u64(dim as u64);
    h.write_f64(config.lambda);
    h.write_f64(config.c_labeled);
    h.write_f64(config.c_unlabeled);
    h.write_f64(config.eps);
    h.write_u64(config.max_cutting_rounds as u64);
    h.write_f64(config.cccp_tol);
    h.write_u64(config.max_cccp_rounds as u64);
    match config.bias {
        Some(b) => {
            h.write(&[1]);
            h.write_f64(b);
        }
        None => h.write(&[0]),
    }
    h.write_f64(config.qp.tol);
    h.write_u64(config.qp.max_sweeps as u64);
    h.write_u64(config.qp.stall_dim as u64);
    h.write_u64(config.qp.stall_every as u64);
    h.write_f64(config.qp.stall_rel_tol);
    h.write_f64(config.rho);
    h.write_f64(config.eps_abs);
    h.write_u64(config.max_admm_iters as u64);
    h.write_f64(config.balance);
    h.write_u64(config.restarts as u64);
    h.write_u64(config.refine_rounds as u64);
    h.write_u64(config.seed);
    h.finish()
}

/// Checks a loaded snapshot's fingerprint against the current run's.
pub(crate) fn check_fingerprint(found: u64, expected: u64) -> Result<(), CoreError> {
    if found != expected {
        return Err(CoreError::Ckpt(CkptError::ContextMismatch {
            detail: format!(
                "checkpoint fingerprint {found:016x} does not match this run \
                 ({expected:016x}); dataset shape or configuration changed"
            ),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    // Unit tests assert by panicking on failure; the workspace-wide
    // panic-free lint set is for library code paths, so tests opt back in.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

    use super::*;
    use plos_opt::QpSolverOptions;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plos-core-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_sensitive_to_shape_and_config() {
        let cfg = PlosConfig::fast();
        let base = run_fingerprint(1, 4, 10, &cfg);
        assert_eq!(base, run_fingerprint(1, 4, 10, &cfg), "fingerprint must be deterministic");
        assert_ne!(base, run_fingerprint(2, 4, 10, &cfg), "kind must matter");
        assert_ne!(base, run_fingerprint(1, 5, 10, &cfg), "cohort size must matter");
        assert_ne!(base, run_fingerprint(1, 4, 11, &cfg), "dimension must matter");
        let other = PlosConfig { seed: cfg.seed + 1, ..cfg.clone() };
        assert_ne!(base, run_fingerprint(1, 4, 10, &other), "seed must matter");
        let none_bias = PlosConfig { bias: None, ..cfg.clone() };
        assert_ne!(base, run_fingerprint(1, 4, 10, &none_bias), "bias option must matter");
        // The QP stall cutoff decides when a large dual stops.
        let stalls = [
            QpSolverOptions { stall_dim: cfg.qp.stall_dim + 1, ..cfg.qp.clone() },
            QpSolverOptions { stall_every: cfg.qp.stall_every + 1, ..cfg.qp.clone() },
            QpSolverOptions { stall_rel_tol: cfg.qp.stall_rel_tol * 2.0, ..cfg.qp.clone() },
        ];
        for qp in stalls {
            let other = PlosConfig { qp, ..cfg.clone() };
            assert_ne!(base, run_fingerprint(1, 4, 10, &other), "QP stall cutoff must matter");
        }
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_error() {
        assert!(check_fingerprint(1, 1).is_ok());
        assert!(matches!(
            check_fingerprint(1, 2),
            Err(CoreError::Ckpt(CkptError::ContextMismatch { .. }))
        ));
    }

    #[test]
    fn abort_after_fires_exactly_at_the_threshold() {
        let dir = tmpdir("abort");
        let policy = CheckpointPolicy::new(&dir).abort_after(2);
        let mut session = policy.session("run");
        let file = CheckpointFile::new();
        assert!(session.save(&file).is_ok());
        assert_eq!(
            session.save(&file),
            Err(CoreError::Interrupted { checkpoints: 2 }),
            "second save must trip the kill switch"
        );
        // The checkpoint written right before the abort is intact.
        assert!(session.load().unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_the_snapshot() {
        let dir = tmpdir("clear");
        let policy = CheckpointPolicy::new(&dir);
        let mut session = policy.session("run");
        session.save(&CheckpointFile::new()).unwrap();
        session.clear().unwrap();
        assert!(session.load().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_requires_the_variable() {
        // Avoid mutating the process environment (other tests run in
        // parallel): only assert the negative path when the variable is
        // absent in the test environment.
        if std::env::var(CKPT_DIR_ENV).is_err() {
            assert!(CheckpointPolicy::from_env().is_none());
        }
    }
}
