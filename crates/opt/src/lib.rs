// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Optimization substrate for the PLOS reproduction.
//!
//! The PLOS paper (ICDCS 2018) builds on these optimization blocks:
//!
//! * a **quadratic-program solver** for the cutting-plane duals — Eq. (16)
//!   is a PSD QP over `γ ≥ 0` with one capped-sum constraint per user, and
//!   Eq. (22)'s dual has the same shape with a single cap ([`qp`]);
//! * the **concave–convex procedure** (CCCP) that repeatedly linearizes the
//!   concave `|w·x|` terms contributed by unlabeled samples ([`cccp`]).
//!
//! Each block is generic: the PLOS-specific objective lives in `plos-core`,
//! which plugs its closures/impls into these drivers. A projected-gradient
//! reference solver ([`pg`]) cross-checks the coordinate-descent QP solver in
//! tests.

pub mod cccp;
pub(crate) mod cd;
pub mod convergence;
pub mod error;
pub mod incremental;
pub mod pg;
pub mod qp;

pub use cccp::{Cccp, CccpResult};
pub use convergence::History;
pub use error::OptError;
pub use incremental::{IncrementalQp, QpSolveStats};
pub use qp::{GroupedQp, QpSolution, QpSolverOptions};
