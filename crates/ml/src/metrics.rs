//! Classification accuracy, the metric the paper's experiments report.

/// Fraction of positions where `predicted[i] == actual[i]`.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
///
/// ```
/// use plos_ml::accuracy;
/// assert_eq!(accuracy(&[1, -1, 1], &[1, 1, 1]), 2.0 / 3.0);
/// ```
pub fn accuracy(predicted: &[i8], actual: &[i8]) -> f64 {
    assert!(!predicted.is_empty(), "accuracy of empty predictions is undefined");
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    let correct = predicted.iter().zip(actual).filter(|(p, a)| p == a).count();
    correct as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 1, -1, -1], &[1, -1, -1, -1]), 0.75);
        assert_eq!(accuracy(&[1], &[1]), 1.0);
        assert_eq!(accuracy(&[1], &[-1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty predictions")]
    fn accuracy_empty_panics() {
        let _ = accuracy(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_mismatch_panics() {
        let _ = accuracy(&[1], &[1, -1]);
    }
}
