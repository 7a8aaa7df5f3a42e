//! Error type shared by the fallible trainers in this crate.

use plos_ckpt::CkptError;
use plos_ml::error::MlError;
use plos_net::TransportError;
use plos_opt::error::OptError;
use std::fmt;

/// Error returned by the fallible PLOS trainers and baselines.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A failure surfaced by the optimization layer (QP / ADMM machinery).
    Opt(OptError),
    /// A failure surfaced by the machine-learning layer (SVM, k-means,
    /// spectral clustering).
    Ml(MlError),
    /// The dataset has no users, so there is nothing to train.
    EmptyDataset,
    /// A configuration value is out of range for the dataset it was applied
    /// to (e.g. more groups than users).
    InvalidConfig {
        /// Human-readable description of the bad value.
        detail: String,
    },
    /// The distributed transport failed irrecoverably (every retry and
    /// timeout budget exhausted, or the whole fleet disconnected).
    Transport {
        /// Human-readable description of the underlying transport failure.
        detail: String,
    },
    /// A device violated the wire protocol in a way retries cannot repair.
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A gather round closed without a single usable reply, so the ADMM
    /// state can no longer advance.
    QuorumLost {
        /// The ADMM round that failed to gather.
        round: u32,
        /// Devices still on the roster when the round closed.
        alive: usize,
        /// Replies required by the configured quorum fraction.
        required: usize,
    },
    /// Every replica of the sharded aggregation root died, so no leader is
    /// left to fail over to and the tree cannot commit another round.
    RootQuorumLost {
        /// The aggregation round whose commit found no live replica.
        round: u32,
        /// Root replicas the run started with.
        replicas: usize,
    },
    /// Writing or reading a checkpoint failed. A corrupted or incompatible
    /// checkpoint is never silently ignored — the caller must delete it (or
    /// point `PLOS_CKPT_DIR` elsewhere) to start fresh.
    Ckpt(CkptError),
    /// The run was deliberately interrupted by the checkpoint policy's
    /// `abort_after` knob — the kill-switch used by the resume-parity
    /// harness. The checkpoint written immediately before the abort is on
    /// disk and valid.
    Interrupted {
        /// Checkpoints written before the abort fired.
        checkpoints: u32,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Opt(e) => write!(f, "{e}"),
            CoreError::Ml(e) => write!(f, "{e}"),
            CoreError::EmptyDataset => write!(f, "dataset has no users"),
            CoreError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            CoreError::Transport { detail } => write!(f, "transport failure: {detail}"),
            CoreError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            CoreError::QuorumLost { round, alive, required } => write!(
                f,
                "quorum lost in round {round}: no usable replies from {alive} live devices \
                 ({required} required)"
            ),
            CoreError::RootQuorumLost { round, replicas } => write!(
                f,
                "root quorum lost in round {round}: all {replicas} root replica(s) are dead"
            ),
            CoreError::Ckpt(e) => write!(f, "checkpoint failure: {e}"),
            CoreError::Interrupted { checkpoints } => {
                write!(f, "run interrupted by checkpoint policy after {checkpoints} checkpoint(s)")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Opt(e) => Some(e),
            CoreError::Ml(e) => Some(e),
            CoreError::Ckpt(e) => Some(e),
            CoreError::EmptyDataset
            | CoreError::InvalidConfig { .. }
            | CoreError::Transport { .. }
            | CoreError::Protocol { .. }
            | CoreError::QuorumLost { .. }
            | CoreError::RootQuorumLost { .. }
            | CoreError::Interrupted { .. } => None,
        }
    }
}

impl From<TransportError> for CoreError {
    fn from(e: TransportError) -> Self {
        CoreError::Transport { detail: e.to_string() }
    }
}

impl From<OptError> for CoreError {
    fn from(e: OptError) -> Self {
        CoreError::Opt(e)
    }
}

impl From<MlError> for CoreError {
    fn from(e: MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<plos_linalg::LinalgError> for CoreError {
    fn from(e: plos_linalg::LinalgError) -> Self {
        CoreError::Opt(OptError::Linalg(e))
    }
}

impl From<CkptError> for CoreError {
    fn from(e: CkptError) -> Self {
        CoreError::Ckpt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_linalg::LinalgError;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<CoreError> = vec![
            CoreError::Opt(OptError::NonFinite { what: "warm start" }),
            CoreError::Ml(MlError::Empty { what: "samples" }),
            CoreError::EmptyDataset,
            CoreError::InvalidConfig { detail: "num_groups 100 exceeds 6 users".into() },
            CoreError::Transport { detail: "peer disconnected".into() },
            CoreError::Protocol { detail: "update attributed to device 3 on link 1".into() },
            CoreError::QuorumLost { round: 7, alive: 4, required: 3 },
            CoreError::RootQuorumLost { round: 5, replicas: 3 },
            CoreError::Ckpt(CkptError::BadMagic),
            CoreError::Interrupted { checkpoints: 2 },
        ];
        for c in cases {
            assert!(!format!("{c}").is_empty());
            assert!(!format!("{c:?}").is_empty());
        }
    }

    #[test]
    fn from_impls_preserve_sources() {
        use std::error::Error;
        let o = CoreError::from(OptError::Linalg(LinalgError::NoConvergence { iterations: 3 }));
        assert!(o.source().is_some());
        let m = CoreError::from(MlError::BadLabel { index: 3 });
        assert!(m.source().is_some());
        let c = CoreError::from(CkptError::BadMagic);
        assert!(c.source().is_some());
    }

    #[test]
    fn transport_errors_convert() {
        let e = CoreError::from(plos_net::TransportError::Timeout);
        assert_eq!(e, CoreError::Transport { detail: "receive timed out".into() });
    }
}
