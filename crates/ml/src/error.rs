//! Error type shared by the fallible trainers in this crate.

use plos_linalg::LinalgError;
use std::fmt;

/// Error returned by fallible routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// An error surfaced by the linear-algebra layer.
    Linalg(LinalgError),
    /// The input container was empty where a non-empty one is required.
    Empty {
        /// What was empty.
        what: &'static str,
    },
    /// Two paired inputs had inconsistent lengths or dimensions.
    LengthMismatch {
        /// What was mismatched.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A binary label was outside `{−1, +1}`.
    BadLabel {
        /// Index of the offending label.
        index: usize,
    },
    /// The requested cluster count is zero or exceeds the sample count.
    BadClusterCount {
        /// Requested number of clusters.
        k: usize,
        /// Number of samples available.
        n: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::Linalg(e) => write!(f, "{e}"),
            MlError::Empty { what } => write!(f, "empty input: {what}"),
            MlError::LengthMismatch { what, expected, actual } => {
                write!(f, "length mismatch in {what}: expected {expected}, got {actual}")
            }
            MlError::BadLabel { index } => {
                write!(f, "label at index {index} is not in {{-1, +1}}")
            }
            MlError::BadClusterCount { k, n } => {
                write!(f, "cluster count k={k} invalid for {n} samples")
            }
        }
    }
}

impl std::error::Error for MlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MlError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MlError {
    fn from(e: LinalgError) -> Self {
        MlError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<MlError> = vec![
            MlError::Linalg(LinalgError::NoConvergence { iterations: 3 }),
            MlError::Empty { what: "samples" },
            MlError::LengthMismatch { what: "labels", expected: 3, actual: 2 },
            MlError::BadLabel { index: 0 },
            MlError::BadClusterCount { k: 5, n: 3 },
        ];
        for c in cases {
            assert!(!format!("{c}").is_empty());
            assert!(!format!("{c:?}").is_empty());
        }
    }
}
