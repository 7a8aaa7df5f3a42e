// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Dense linear-algebra substrate for the PLOS reproduction.
//!
//! The PLOS paper (ICDCS 2018) relies on a handful of dense linear-algebra
//! primitives: vector arithmetic for the hyperplane updates, Gram matrices
//! for the dual quadratic programs, a symmetric eigensolver for the spectral
//! clustering used by the *Group* baseline, and simple descriptive statistics
//! for the sensing feature pipeline. This crate implements exactly that set,
//! with no external dependencies, so the whole workspace builds offline.
//!
//! # Quick start
//!
//! ```
//! use plos_linalg::{Vector, Matrix};
//!
//! let a = Vector::from(vec![1.0, 2.0, 3.0]);
//! let b = Vector::from(vec![4.0, 5.0, 6.0]);
//! assert_eq!(a.dot(&b), 32.0);
//!
//! let m = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]).unwrap();
//! let x = m.matvec(&Vector::from(vec![1.0, 1.0]));
//! assert_eq!(x.as_slice(), &[2.0, 3.0]);
//! ```

pub mod eigen;
pub mod error;
pub mod exact;
pub mod kernels;
pub mod matrix;
pub mod stats;
pub mod vector;

pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use exact::{ExactSum, ExactVecSum};
pub use matrix::Matrix;
pub use vector::Vector;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
