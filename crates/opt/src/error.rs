//! Error type shared by the fallible optimization drivers.

use plos_linalg::LinalgError;
use std::fmt;

/// Error returned by fallible routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// A shape or domain error surfaced by the linear-algebra layer.
    Linalg(LinalgError),
    /// An input contained NaN or infinite entries where finite values are
    /// required for the solver's convergence guarantees to hold.
    NonFinite {
        /// Which input was non-finite.
        what: &'static str,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Linalg(e) => write!(f, "{e}"),
            OptError::NonFinite { what } => {
                write!(f, "non-finite values in {what}")
            }
        }
    }
}

impl std::error::Error for OptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptError::Linalg(e) => Some(e),
            OptError::NonFinite { .. } => None,
        }
    }
}

impl From<LinalgError> for OptError {
    fn from(e: LinalgError) -> Self {
        OptError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<OptError> = vec![
            OptError::Linalg(LinalgError::NoConvergence { iterations: 3 }),
            OptError::NonFinite { what: "warm start" },
        ];
        for c in cases {
            assert!(!format!("{c}").is_empty());
            assert!(!format!("{c:?}").is_empty());
        }
    }

    #[test]
    fn from_linalg_preserves_source() {
        use std::error::Error;
        let e = OptError::from(LinalgError::NoConvergence { iterations: 3 });
        assert!(e.source().is_some());
    }
}
