//! Order statistics over trial samples.

/// Median, quartiles and range of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let (q1, q3) = quartiles(&sorted);
        Some(Summary { n: sorted.len(), median: median(&sorted), q1, q3, min, max })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of sorted values (mean of the middle pair for even counts).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles of sorted values by the "exclusive" method,
/// the default of Python's `statistics.quantiles(values, n=4)`, so spreads
/// quoted from a record match ones computed from its raw values (including
/// its extrapolation below the minimum for two values). A single value is
/// its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        return (sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative when the clamp raised `j`: Python extrapolates there.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are Python's `statistics.median` and
    // `statistics.quantiles(values, n=4)` on the same inputs.
    #[test]
    fn odd_count() {
        let s = Summary::of(&[7.0, 1.0, 3.0, 9.0, 5.0]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (5, 5.0, 1.0, 9.0));
        assert_eq!((s.q1, s.q3), (2.0, 8.0));
    }

    #[test]
    fn even_count() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(s.median, 5.5);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
    }

    #[test]
    fn tiny_counts() {
        let s = Summary::of(&[3.0, 1.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (2.0, 0.5, 3.5));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
