//! Uniformly sampled scalar sensor traces.
//!
//! The paper's pipeline (Sec. VI-B): raw node signals are "first
//! downsampled to 20 Hz and normalized" before windowing. [`Signal`] carries
//! one channel (e.g. accelerometer x) with its sample rate and implements
//! those two steps.

/// A uniformly sampled scalar signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    sample_rate_hz: f64,
    samples: Vec<f64>,
}

impl Signal {
    /// Creates a signal from raw samples at the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate_hz` is not finite and positive.
    pub fn new(sample_rate_hz: f64, samples: Vec<f64>) -> Self {
        assert!(
            sample_rate_hz.is_finite() && sample_rate_hz > 0.0,
            "sample rate must be positive, got {sample_rate_hz}"
        );
        Signal { sample_rate_hz, samples }
    }

    /// Sample rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Borrow the samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the signal holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Downsamples by integer decimation with block averaging to
    /// `target_hz`.
    ///
    /// The source rate must be an integer multiple of the target rate (the
    /// paper decimates 100 Hz-class node output to 20 Hz). Block averaging
    /// doubles as a crude anti-aliasing filter.
    ///
    /// # Panics
    ///
    /// Panics if `target_hz` does not evenly divide the current rate.
    pub fn downsample(&self, target_hz: f64) -> Signal {
        assert!(target_hz > 0.0, "target rate must be positive");
        let ratio = self.sample_rate_hz / target_hz;
        let factor = ratio.round() as usize;
        assert!(
            factor >= 1 && (ratio - factor as f64).abs() < 1e-9,
            "target rate {target_hz} must evenly divide source rate {}",
            self.sample_rate_hz
        );
        if factor == 1 {
            return self.clone();
        }
        let samples = self
            .samples
            .chunks_exact(factor)
            .map(|chunk| chunk.iter().sum::<f64>() / factor as f64)
            .collect();
        Signal { sample_rate_hz: target_hz, samples }
    }

    /// Returns the z-score-normalized signal (zero mean, unit variance).
    ///
    /// A constant signal is centered but left unscaled. The empty signal is
    /// returned unchanged.
    pub fn normalized(&self) -> Signal {
        if self.samples.is_empty() {
            return self.clone();
        }
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().sum::<f64>() / n;
        let var = self.samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        let samples = self
            .samples
            .iter()
            .map(|x| if std > 0.0 { (x - mean) / std } else { x - mean })
            .collect();
        Signal { sample_rate_hz: self.sample_rate_hz, samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Signal::new(20.0, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.sample_rate_hz(), 20.0);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn downsample_by_block_average() {
        let s = Signal::new(40.0, vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        let d = s.downsample(20.0);
        assert_eq!(d.sample_rate_hz(), 20.0);
        assert_eq!(d.samples(), &[2.0, 6.0, 10.0]);
    }

    #[test]
    fn downsample_identity_factor() {
        let s = Signal::new(20.0, vec![1.0, 2.0]);
        assert_eq!(s.downsample(20.0), s);
    }

    #[test]
    fn downsample_drops_trailing_partial_block() {
        let s = Signal::new(40.0, vec![2.0, 4.0, 6.0]);
        let d = s.downsample(20.0);
        assert_eq!(d.samples(), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn downsample_rejects_non_integer_factor() {
        let _ = Signal::new(30.0, vec![0.0; 10]).downsample(20.0);
    }

    #[test]
    fn normalization_zero_mean_unit_var() {
        let s = Signal::new(20.0, vec![2.0, 4.0, 6.0, 8.0]);
        let n = s.normalized();
        let mean: f64 = n.samples().iter().sum::<f64>() / 4.0;
        let var: f64 = n.samples().iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_signal_normalizes_to_zero() {
        let s = Signal::new(20.0, vec![5.0; 8]).normalized();
        assert!(s.samples().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_signal_normalizes_to_itself() {
        let s = Signal::new(20.0, vec![]);
        assert_eq!(s.normalized(), s);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_rate() {
        let _ = Signal::new(0.0, vec![]);
    }
}
