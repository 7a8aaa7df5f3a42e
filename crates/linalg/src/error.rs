//! Error type shared by all fallible linear-algebra operations.

use std::fmt;

/// Error returned by fallible operations in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input container was empty where a non-empty one is required.
    Empty {
        /// Operation that required non-empty input.
        op: &'static str,
    },
    /// A scalar argument was outside its documented domain.
    OutOfRange {
        /// Operation that rejected the argument.
        op: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Ragged input: rows of differing lengths where a rectangle is required.
    Ragged {
        /// Length of the first row.
        first: usize,
        /// Length of the offending row.
        offending: usize,
        /// Index of the offending row.
        row: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, expected, actual } => {
                write!(f, "dimension mismatch in {op}: expected {expected}, got {actual}")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            LinalgError::Empty { op } => write!(f, "empty input to {op}"),
            LinalgError::OutOfRange { op, value } => {
                write!(f, "argument {value} out of range for {op}")
            }
            LinalgError::Ragged { first, offending, row } => {
                write!(f, "ragged rows: row 0 has {first} entries but row {row} has {offending}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<LinalgError> = vec![
            LinalgError::DimensionMismatch { op: "dot", expected: 3, actual: 2 },
            LinalgError::NotSquare { rows: 2, cols: 3 },
            LinalgError::NoConvergence { iterations: 100 },
            LinalgError::Empty { op: "mean" },
            LinalgError::OutOfRange { op: "percentile", value: 101.0 },
            LinalgError::Ragged { first: 3, offending: 2, row: 1 },
        ];
        for c in cases {
            assert!(!format!("{c}").is_empty());
            assert!(!format!("{c:?}").is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
