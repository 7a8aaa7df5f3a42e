// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! # PLOS — Personalized Learning in mObile Sensing
//!
//! Reproduction of the learning framework from *"Towards Personalized
//! Learning in Mobile Sensing Systems"* (Jiang, Li, Su, Miao, Gu, Xu —
//! ICDCS 2018).
//!
//! `T` users hold private feature vectors; only some provide (partial)
//! labels. PLOS jointly learns a **global hyperplane** `w0` capturing what
//! users share and a **personal bias** `v_t` per user capturing how they
//! differ; user `t` classifies with the personalized hyperplane
//! `w_t = w0 + v_t`. Labeled samples contribute hinge loss; unlabeled
//! samples contribute a maximum-margin-clustering term `|w_t · x|`, which is
//! what lets users with *zero* labels benefit (Sec. IV).
//!
//! Two trainers share all of the underlying math:
//!
//! * [`CentralizedPlos`] — Algorithm 1: CCCP linearization of the unlabeled
//!   terms, a cutting-plane loop over subset-selection constraints, and the
//!   structured dual QP of Eq. (16).
//! * [`DistributedPlos`] — Algorithm 2: consensus ADMM over the simulated
//!   device network of `plos-net`; devices solve the local QP of Eq. (22)
//!   and only ever exchange model parameters with the server.
//!
//! The paper's three baselines live in [`baselines`]; [`eval`] hosts the
//! experiment harness that produces the accuracy numbers reported in the
//! paper's figures.
//!
//! ## Example
//!
//! ```
//! use plos_core::{CentralizedPlos, PlosConfig};
//! use plos_sensing::dataset::LabelMask;
//! use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};
//!
//! let spec = SyntheticSpec { num_users: 4, points_per_class: 40, ..Default::default() };
//! let dataset = generate_synthetic(&spec, 1).mask_labels(&LabelMask::providers(2, 0.1), 2);
//! let model = CentralizedPlos::try_new(PlosConfig::fast())?.fit(&dataset)?;
//! let first_sample = &dataset.user(0).features[0];
//! let label = model.predict(0, first_sample);
//! assert!(label == 1 || label == -1);
//! # Ok::<(), plos_core::CoreError>(())
//! ```

pub mod asynchronous;
pub mod baselines;
pub mod centralized;
pub mod checkpoint;
pub mod config;
pub(crate) mod consensus;
pub mod distributed;
pub mod dual;
pub mod error;
pub mod eval;
pub mod local;
pub mod model;
pub mod multiclass;
pub mod problem;
pub mod prox;
pub mod sharded;

/// Narrowing conversion for wire/checkpoint count fields (rounds,
/// iteration counts, device indices). Every call site passes a value
/// bounded by configuration caps or by the u32-sized roster, so the
/// saturating fallback is a defensive clamp, never an expected path —
/// which is why this is infallible instead of returning a typed error.
pub(crate) fn wire_u32<T: TryInto<u32>>(n: T) -> u32 {
    n.try_into().unwrap_or(u32::MAX)
}

pub use asynchronous::{AsyncDistributedPlos, AsyncReport, AsyncSpec};
pub use centralized::CentralizedPlos;
pub use checkpoint::CheckpointPolicy;
pub use config::{FaultTolerance, PlosConfig, RetryPolicy};
pub use distributed::{AdmmResiduals, DistributedPlos, DistributedReport, RoundParticipation};
pub use error::CoreError;
pub use model::PersonalizedModel;
pub use multiclass::{MulticlassModel, MulticlassPlos};
pub use sharded::{ShardSpec, Topology, MAX_ROOT_REPLICAS};
