//! Linear support-vector machine trained by dual coordinate descent.
//!
//! PLOS "inherits the spirit of SVM" (Sec. IV-A); the *All* and *Single*
//! baselines are plain linear SVMs, and the PLOS solvers use one as the
//! initialization of the global hyperplane. This is the standard
//! liblinear-style solver for the L1-loss (hinge) dual:
//!
//! ```text
//! min_α ½ αᵀ Q̄ α − 1ᵀα    s.t. 0 ≤ α_i ≤ C_i,   Q̄_ij = y_i y_j ⟨x_i, x_j⟩
//! ```
//!
//! maintaining `w = Σ α_i y_i x_i` so each coordinate update costs `O(d)`.
//!
//! Hyperplanes pass through the origin, exactly as in the paper; a bias is
//! obtained by augmenting features with a constant `1` (footnote 1), which
//! [`SvmParams::bias`] automates.

use crate::error::MlError;
use plos_linalg::Vector;

/// Training hyperparameters for [`LinearSvm`].
#[derive(Debug, Clone)]
pub struct SvmParams {
    /// Misclassification cost `C` (identical for every sample).
    pub c: f64,
    /// Stop when the largest projected-gradient magnitude in a sweep falls
    /// below this tolerance.
    pub tol: f64,
    /// Maximum number of full passes over the data.
    pub max_sweeps: usize,
    /// If `Some(b)`, every feature vector is augmented with the constant `b`
    /// so the learned hyperplane carries a bias term.
    pub bias: Option<f64>,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams { c: 1.0, tol: 1e-6, max_sweeps: 2000, bias: Some(1.0) }
    }
}

/// Trainer for a binary linear SVM with labels in `{−1, +1}`.
#[derive(Debug, Clone, Default)]
pub struct LinearSvm {
    params: SvmParams,
}

/// A trained linear decision function `f(x) = w · x̃` where `x̃` is `x`
/// augmented with the bias constant when one was configured.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel {
    weights: Vector,
    bias: Option<f64>,
}

impl LinearSvm {
    /// Creates a trainer with the given parameters.
    pub fn new(params: SvmParams) -> Self {
        LinearSvm { params }
    }

    /// Trains on `(x_i, y_i)` pairs with `y_i ∈ {−1, +1}`.
    ///
    /// # Errors
    ///
    /// * [`MlError::Empty`] if `xs` is empty.
    /// * [`MlError::LengthMismatch`] if `xs.len() != ys.len()` or feature
    ///   vectors are ragged.
    /// * [`MlError::BadLabel`] if any label is not `±1`.
    pub fn fit(&self, xs: &[Vector], ys: &[i8]) -> Result<SvmModel, MlError> {
        if xs.is_empty() {
            return Err(MlError::Empty { what: "training samples" });
        }
        if xs.len() != ys.len() {
            return Err(MlError::LengthMismatch {
                what: "labels",
                expected: xs.len(),
                actual: ys.len(),
            });
        }
        if let Some(index) = ys.iter().position(|&y| y != 1 && y != -1) {
            return Err(MlError::BadLabel { index });
        }
        let d = xs.first().map_or(0, Vector::len);
        if let Some(bad) = xs.iter().find(|x| x.len() != d) {
            return Err(MlError::LengthMismatch {
                what: "feature dimensions",
                expected: d,
                actual: bad.len(),
            });
        }

        let augmented: Vec<Vector> = match self.params.bias {
            Some(b) => xs.iter().map(|x| x.with_appended(b)).collect(),
            None => xs.to_vec(),
        };
        let dim = augmented.first().map_or(0, Vector::len);
        let n = augmented.len();

        let sq_norms: Vec<f64> = augmented.iter().map(Vector::norm_squared).collect();
        let mut alpha = vec![0.0_f64; n];
        let mut w = Vector::zeros(dim);

        for _ in 0..self.params.max_sweeps {
            let mut max_pg = 0.0_f64;
            for ((alpha_i, x), (&yi8, &qn)) in
                alpha.iter_mut().zip(&augmented).zip(ys.iter().zip(&sq_norms))
            {
                let yi = yi8 as f64;
                let g = yi * w.dot(x) - 1.0;
                // Projected gradient for the box constraint 0 <= alpha <= C.
                let pg = if *alpha_i <= 0.0 {
                    g.min(0.0)
                } else if *alpha_i >= self.params.c {
                    g.max(0.0)
                } else {
                    g
                };
                if pg.abs() > 1e-14 {
                    max_pg = max_pg.max(pg.abs());
                    let qii = qn.max(1e-12);
                    let new_alpha = (*alpha_i - g / qii).clamp(0.0, self.params.c);
                    let delta = new_alpha - *alpha_i;
                    if delta != 0.0 {
                        w.axpy(delta * yi, x);
                        *alpha_i = new_alpha;
                    }
                }
            }
            if max_pg < self.params.tol {
                break;
            }
        }
        Ok(SvmModel { weights: w, bias: self.params.bias })
    }
}

impl SvmModel {
    /// The learned weight vector (including the bias weight as the last
    /// component when bias augmentation was used).
    pub fn weights(&self) -> &Vector {
        &self.weights
    }

    /// Signed decision value `w · x̃`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn decision_function(&self, x: &Vector) -> f64 {
        match self.bias {
            Some(b) => self.weights.dot(&x.with_appended(b)),
            None => self.weights.dot(x),
        }
    }

    /// Predicted label in `{−1, +1}` (ties break to `+1`).
    pub fn predict(&self, x: &Vector) -> i8 {
        if self.decision_function(x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Predicts a batch of samples.
    pub fn predict_batch(&self, xs: &[Vector]) -> Vec<i8> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn v(data: &[f64]) -> Vector {
        Vector::from(data)
    }

    #[test]
    fn separable_1d_problem() {
        let xs = vec![v(&[-2.0]), v(&[-1.0]), v(&[1.0]), v(&[2.0])];
        let ys = vec![-1, -1, 1, 1];
        let model = LinearSvm::new(SvmParams::default()).fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(model.predict(x), *y);
        }
    }

    #[test]
    fn bias_shifts_the_boundary() {
        // Classes split at x = 3: impossible through the origin without bias.
        let xs = vec![v(&[1.0]), v(&[2.0]), v(&[4.0]), v(&[5.0])];
        let ys = vec![-1, -1, 1, 1];
        let with_bias = LinearSvm::new(SvmParams::default()).fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(with_bias.predict(x), *y, "with bias, x={x}");
        }
        let no_bias =
            LinearSvm::new(SvmParams { bias: None, ..SvmParams::default() }).fit(&xs, &ys).unwrap();
        let errs = xs.iter().zip(&ys).filter(|(x, y)| no_bias.predict(x) != **y).count();
        assert!(errs >= 1, "origin-constrained SVM cannot separate a shifted split");
    }

    #[test]
    fn margin_is_maximized_on_symmetric_data() {
        // Symmetric ±1 points: max-margin hyperplane is x = 0, and the
        // functional margin at the support vectors is 1.
        let xs = vec![v(&[-1.0]), v(&[1.0])];
        let ys = vec![-1, 1];
        let params = SvmParams { c: 1000.0, bias: None, ..SvmParams::default() };
        let model = LinearSvm::new(params).fit(&xs, &ys).unwrap();
        assert!((model.decision_function(&v(&[1.0])) - 1.0).abs() < 1e-4);
        assert!((model.decision_function(&v(&[-1.0])) + 1.0).abs() < 1e-4);
    }

    #[test]
    fn noisy_2d_blobs_high_accuracy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..100 {
            let y: i8 = if rng.gen_bool(0.5) { 1 } else { -1 };
            let cx = 2.0 * y as f64;
            xs.push(v(&[cx + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]));
            ys.push(y);
        }
        let model = LinearSvm::new(SvmParams::default()).fit(&xs, &ys).unwrap();
        let preds = model.predict_batch(&xs);
        let correct = preds.iter().zip(&ys).filter(|(p, y)| p == y).count();
        assert!(correct as f64 / xs.len() as f64 > 0.95);
    }

    #[test]
    fn soft_margin_tolerates_label_noise() {
        let mut xs: Vec<Vector> = (0..20).map(|i| v(&[i as f64 - 10.0])).collect();
        let mut ys: Vec<i8> = xs.iter().map(|x| if x[0] >= 0.0 { 1 } else { -1 }).collect();
        // Flip one label deep inside the negative class.
        ys[0] = 1;
        xs.push(v(&[-10.5]));
        ys.push(-1);
        let model =
            LinearSvm::new(SvmParams { c: 0.1, ..SvmParams::default() }).fit(&xs, &ys).unwrap();
        // The flipped point must not dominate: boundary stays near 0.
        assert_eq!(model.predict(&v(&[5.0])), 1);
        assert_eq!(model.predict(&v(&[-5.0])), -1);
    }

    #[test]
    fn rejects_bad_inputs_with_err() {
        use crate::error::MlError;
        let svm = LinearSvm::new(SvmParams::default());
        assert!(matches!(svm.fit(&[v(&[1.0])], &[0]), Err(MlError::BadLabel { index: 0 })));
        assert!(matches!(svm.fit(&[], &[]), Err(MlError::Empty { .. })));
        assert!(matches!(svm.fit(&[v(&[1.0])], &[1, -1]), Err(MlError::LengthMismatch { .. })));
        assert!(matches!(
            svm.fit(&[v(&[1.0]), v(&[1.0, 2.0])], &[1, -1]),
            Err(MlError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn single_class_data_trains_without_panic() {
        // All-positive data: decision function should be positive on them.
        let xs = vec![v(&[1.0]), v(&[2.0])];
        let model = LinearSvm::new(SvmParams::default()).fit(&xs, &[1, 1]).unwrap();
        assert_eq!(model.predict(&v(&[1.5])), 1);
    }
}
