// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! # PLOS — Personalized Learning in Mobile Sensing Systems
//!
//! Facade crate for the reproduction of *"Towards Personalized Learning in
//! Mobile Sensing Systems"* (Jiang, Li, Su, Miao, Gu, Xu — ICDCS 2018). It
//! re-exports the whole workspace under one roof so applications can depend
//! on a single crate:
//!
//! * [`core`] — the PLOS algorithms: centralized (CCCP + cutting plane + dual
//!   QP) and distributed (consensus ADMM) training, plus the paper's
//!   *All*/*Single*/*Group* baselines and the evaluation harness.
//! * [`sensing`] — synthetic mobile-sensing data: IMU trace generation, the
//!   paper's windowing + feature-extraction pipeline, and the three
//!   evaluation datasets (body-sensor, HAR-like, 2-D Gaussian synthetic).
//! * [`net`] — the simulated distributed runtime: binary codec, message
//!   schema, in-process transport with byte/energy accounting, and the
//!   virtual-device scheduler that multiplexes K devices per pool worker.
//! * [`ckpt`] — versioned binary checkpoints: framed, digest-verified
//!   snapshots of training state with bit-parity resume (`PLOS_CKPT_DIR`).
//! * [`ml`] — classical-ML substrate: linear SVM, k-means, spectral
//!   clustering, LSH, metrics.
//! * [`exec`] — deterministic fork-join runtime: the scoped thread pool the
//!   solver hot paths fan out on (`PLOS_THREADS` override, bit-identical
//!   results across pool sizes).
//! * [`obs`] — zero-dependency telemetry: spans and per-iteration
//!   solver trace events, streamed as JSONL when
//!   `PLOS_TRACE=<path>` is set and free (one atomic load) when not.
//! * [`opt`] — optimization substrate: the capped-simplex dual QP solver
//!   and objective-history bookkeeping.
//! * [`linalg`] — dense vectors/matrices, Jacobi eigensolver, exact sums.
//!
//! # Quickstart
//!
//! ```
//! use plos::prelude::*;
//!
//! // Generate the paper's synthetic multi-user dataset (Sec. VI-D) ...
//! let spec = SyntheticSpec { num_users: 4, ..SyntheticSpec::default() };
//! let dataset = generate_synthetic(&spec, 42);
//! // ... mask labels so only 2 users provide 10% labels ...
//! let masked = dataset.mask_labels(&LabelMask::providers(2, 0.10), 7);
//! // ... and train a personalized model per user. Training and trainer
//! // construction are fallible (bad configs and numerically degenerate
//! // cohorts surface as errors, not panics).
//! let model = CentralizedPlos::try_new(PlosConfig::default())
//!     .and_then(|trainer| trainer.fit(&masked))
//!     .expect("training succeeds");
//! assert_eq!(model.num_users(), 4);
//! ```

pub use plos_ckpt as ckpt;
pub use plos_core as core;
pub use plos_exec as exec;
pub use plos_linalg as linalg;
pub use plos_ml as ml;
pub use plos_net as net;
pub use plos_obs as obs;
pub use plos_opt as opt;
pub use plos_sensing as sensing;

/// Commonly used items, re-exported for `use plos::prelude::*`.
pub mod prelude {
    pub use plos_core::baselines::{AllBaseline, GroupBaseline, SingleBaseline};
    pub use plos_core::{
        AdmmResiduals, AsyncDistributedPlos, AsyncReport, AsyncSpec, CentralizedPlos,
        CheckpointPolicy, DistributedPlos, DistributedReport, FaultTolerance, PersonalizedModel,
        PlosConfig, RetryPolicy, RoundParticipation, ShardSpec, Topology,
    };
    pub use plos_linalg::{Matrix, Vector};
    pub use plos_net::{DeadLink, DeviceRuntime, FaultPlan, Straggler};
    pub use plos_sensing::dataset::{LabelMask, MultiUserDataset, UserData};
    pub use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};
}
