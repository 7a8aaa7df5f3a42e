//! Objective-trajectory bookkeeping shared by the trainers' CCCP loops.

/// Records a scalar objective trajectory and answers convergence questions.
///
/// ```
/// use plos_opt::History;
/// let mut h = History::new();
/// h.push(10.0);
/// h.push(9.0);
/// h.push(8.9999);
/// assert!(h.converged(1e-3));
/// assert!(h.is_monotone_decreasing(1e-9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct History {
    values: Vec<f64>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History { values: Vec::new() }
    }

    /// Rebuilds a history from previously recorded values, in order — used
    /// when resuming an interrupted run from a checkpoint.
    pub fn from_values(values: Vec<f64>) -> Self {
        History { values }
    }

    /// Appends an objective value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// All recorded values, in order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The most recent value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `true` once the last two values differ by less than `tol`.
    pub fn converged(&self, tol: f64) -> bool {
        match self.values.as_slice() {
            [.., prev, last] => (last - prev).abs() < tol,
            _ => false,
        }
    }

    /// `true` if the sequence never increases by more than `tol`.
    ///
    /// CCCP guarantees a monotonically decreasing objective; the PLOS tests
    /// assert this invariant on every run.
    pub fn is_monotone_decreasing(&self, tol: f64) -> bool {
        self.values.iter().zip(self.values.iter().skip(1)).all(|(a, b)| *b <= *a + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_behaviour() {
        let h = History::new();
        assert!(h.is_empty());
        assert_eq!(h.last(), None);
        assert!(!h.converged(1.0));
        assert!(h.is_monotone_decreasing(0.0));
    }

    #[test]
    fn single_value_not_converged() {
        let mut h = History::new();
        h.push(5.0);
        assert!(!h.converged(100.0));
        assert_eq!(h.last(), Some(5.0));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn convergence_detection() {
        let mut h = History::new();
        h.push(10.0);
        h.push(5.0);
        assert!(!h.converged(1.0));
        h.push(4.5);
        assert!(h.converged(0.6));
        assert!(!h.converged(0.4));
    }

    #[test]
    fn monotonicity_with_tolerance() {
        let mut h = History::new();
        for v in [3.0, 2.0, 2.0000001, 1.0] {
            h.push(v);
        }
        assert!(h.is_monotone_decreasing(1e-6));
        assert!(!h.is_monotone_decreasing(1e-9));
    }
}
