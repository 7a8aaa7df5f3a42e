// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Optimization substrate for the PLOS reproduction.
//!
//! The PLOS paper (ICDCS 2018) solves its cutting-plane duals with one
//! **quadratic-program solver**: Eq. (16) is a PSD QP over `γ ≥ 0` with one
//! capped-sum constraint per user, and Eq. (22)'s dual has the same shape
//! with a single cap ([`qp`], [`incremental`]). [`convergence`] records the
//! objective trajectories the trainers' CCCP loops stop on.
//!
//! The blocks are generic: the PLOS-specific objectives, and the CCCP and
//! consensus-ADMM loops of Algorithms 1 and 2, live in `plos-core`.

pub(crate) mod cd;
pub mod convergence;
pub mod error;
pub mod incremental;
pub mod qp;

pub use convergence::History;
pub use error::OptError;
pub use incremental::{IncrementalQp, QpSolveStats};
pub use qp::QpSolverOptions;
