//! Descriptive statistics over `f64` slices.
//!
//! The paper's feature pipeline (Sec. VI-B) extracts mean, standard
//! deviation, median absolute deviation, max, min, energy, and interquartile
//! range from every windowed sensor signal. These helpers implement those
//! statistics once, shared by the sensing crate and the experiment harness.

use crate::error::LinalgError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64, LinalgError> {
    if xs.is_empty() {
        return Err(LinalgError::Empty { op: "mean" });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation (divides by `n`, matching typical
/// sensing-feature implementations).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn std_dev(xs: &[f64]) -> Result<f64, LinalgError> {
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    Ok(var.sqrt())
}

/// Median (average of the two central order statistics for even lengths).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn median(xs: &[f64]) -> Result<f64, LinalgError> {
    if xs.is_empty() {
        return Err(LinalgError::Empty { op: "median" });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let upper = sorted.get(n / 2).copied().ok_or(LinalgError::Empty { op: "median" })?;
    if n % 2 == 1 {
        Ok(upper)
    } else {
        let lower = sorted.get(n / 2 - 1).copied().ok_or(LinalgError::Empty { op: "median" })?;
        Ok(0.5 * (lower + upper))
    }
}

/// Median absolute deviation: `median(|xᵢ − median(x)|)`.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn median_absolute_deviation(xs: &[f64]) -> Result<f64, LinalgError> {
    let med = median(xs)?;
    let devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&devs)
}

/// Maximum value.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn max(xs: &[f64]) -> Result<f64, LinalgError> {
    xs.iter()
        .copied()
        .fold(None, |acc: Option<f64>, x| Some(acc.map_or(x, |a| a.max(x))))
        .ok_or(LinalgError::Empty { op: "max" })
}

/// Minimum value.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn min(xs: &[f64]) -> Result<f64, LinalgError> {
    xs.iter()
        .copied()
        .fold(None, |acc: Option<f64>, x| Some(acc.map_or(x, |a| a.min(x))))
        .ok_or(LinalgError::Empty { op: "min" })
}

/// Signal energy: mean of squared samples.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn energy(xs: &[f64]) -> Result<f64, LinalgError> {
    if xs.is_empty() {
        return Err(LinalgError::Empty { op: "energy" });
    }
    Ok(xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64)
}

/// Linear-interpolated percentile, `p ∈ [0, 100]`.
///
/// # Errors
///
/// * [`LinalgError::Empty`] for an empty slice.
/// * [`LinalgError::OutOfRange`] if `p` is outside `[0, 100]` or not finite.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, LinalgError> {
    if !(0.0..=100.0).contains(&p) {
        return Err(LinalgError::OutOfRange { op: "percentile", value: p });
    }
    if xs.is_empty() {
        return Err(LinalgError::Empty { op: "percentile" });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = rank - lo as f64;
    let xlo = sorted.get(lo).copied().ok_or(LinalgError::Empty { op: "percentile" })?;
    let xhi = sorted.get(hi).copied().ok_or(LinalgError::Empty { op: "percentile" })?;
    Ok(xlo * (1.0 - frac) + xhi * frac)
}

/// Interquartile range: `percentile(75) − percentile(25)`.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty slice.
pub fn interquartile_range(xs: &[f64]) -> Result<f64, LinalgError> {
    Ok(percentile(xs, 75.0)? - percentile(xs, 25.0)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const XS: &[f64] = &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(XS).unwrap(), 5.0);
        assert_eq!(std_dev(XS).unwrap(), 2.0);
        assert!(mean(&[]).is_err());
        assert!(std_dev(&[]).is_err());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn mad_known_value() {
        // median = 4.5, |x - 4.5| = [2.5,0.5,0.5,0.5,0.5,0.5,2.5,4.5], median = 0.5
        assert_eq!(median_absolute_deviation(XS).unwrap(), 0.5);
    }

    #[test]
    fn min_max_energy() {
        assert_eq!(max(XS).unwrap(), 9.0);
        assert_eq!(min(XS).unwrap(), 2.0);
        assert_eq!(energy(&[1.0, 2.0, 2.0]).unwrap(), 3.0);
        assert!(max(&[]).is_err());
        assert!(min(&[]).is_err());
        assert!(energy(&[]).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 4.0);
        assert_eq!(percentile(&xs, 50.0).unwrap(), 2.5);
        assert_eq!(percentile(&[7.0], 31.0).unwrap(), 7.0);
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        assert!(matches!(
            percentile(&[1.0], 101.0),
            Err(LinalgError::OutOfRange { op: "percentile", .. })
        ));
        assert!(percentile(&[1.0], -0.5).is_err());
        assert!(percentile(&[1.0], f64::NAN).is_err());
    }

    #[test]
    fn iqr_known_value() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(interquartile_range(&xs).unwrap(), 2.0);
    }

    #[test]
    fn statistics_are_translation_aware() {
        // std, MAD and IQR are translation-invariant; mean/max/min shift.
        let shifted: Vec<f64> = XS.iter().map(|x| x + 10.0).collect();
        assert_eq!(std_dev(&shifted).unwrap(), std_dev(XS).unwrap());
        assert_eq!(
            median_absolute_deviation(&shifted).unwrap(),
            median_absolute_deviation(XS).unwrap()
        );
        assert_eq!(interquartile_range(&shifted).unwrap(), interquartile_range(XS).unwrap());
        assert_eq!(mean(&shifted).unwrap(), mean(XS).unwrap() + 10.0);
    }
}
