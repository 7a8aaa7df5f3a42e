//! The trained PLOS model: a global hyperplane plus per-user biases.

use plos_linalg::Vector;

/// A trained PLOS model.
///
/// Stores the global hyperplane `w0` and, for each user `t`, the personal
/// bias `v_t`; user `t`'s personalized hyperplane is `w_t = w0 + v_t`
/// (Sec. IV-A). When the trainer used bias augmentation, incoming feature
/// vectors are extended with the same constant before the dot product.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizedModel {
    w0: Vector,
    biases: Vec<Vector>,
    bias_aug: Option<f64>,
}

impl PersonalizedModel {
    /// Assembles a model from trained parameters.
    ///
    /// # Panics
    ///
    /// Panics if any bias has a different dimension than `w0`, or if there
    /// are no users.
    pub fn new(w0: Vector, biases: Vec<Vector>, bias_aug: Option<f64>) -> Self {
        assert!(!biases.is_empty(), "model must cover at least one user");
        assert!(
            biases.iter().all(|v| v.len() == w0.len()),
            "bias dimension must match the global hyperplane"
        );
        PersonalizedModel { w0, biases, bias_aug }
    }

    /// Number of users the model personalizes for.
    pub fn num_users(&self) -> usize {
        self.biases.len()
    }

    /// Hyperplane dimension (including the bias weight if augmented).
    pub fn dim(&self) -> usize {
        self.w0.len()
    }

    /// The global hyperplane `w0`.
    pub fn global_hyperplane(&self) -> &Vector {
        &self.w0
    }

    /// All per-user biases, in user order.
    pub fn personal_biases(&self) -> &[Vector] {
        &self.biases
    }

    /// User `t`'s personal bias `v_t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    // Allowed: documented panicking accessor; out-of-range `t` is a caller
    // bug, as in slice indexing.
    #[allow(clippy::indexing_slicing)]
    pub fn personal_bias(&self, t: usize) -> &Vector {
        &self.biases[t]
    }

    /// User `t`'s personalized hyperplane `w_t = w0 + v_t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    // Allowed: documented panicking accessor; out-of-range `t` is a caller
    // bug, as in slice indexing.
    #[allow(clippy::indexing_slicing)]
    pub fn personalized_hyperplane(&self, t: usize) -> Vector {
        &self.w0 + &self.biases[t]
    }

    /// Signed decision value of user `t`'s hyperplane on `x`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `x` has the wrong dimension.
    // Allowed: documented panicking accessor; out-of-range `t` is a caller
    // bug, as in slice indexing.
    #[allow(clippy::indexing_slicing)]
    pub fn decision(&self, t: usize, x: &Vector) -> f64 {
        let x_aug;
        let x_ref = match self.bias_aug {
            Some(b) => {
                x_aug = x.with_appended(b);
                &x_aug
            }
            None => x,
        };
        self.w0.dot(x_ref) + self.biases[t].dot(x_ref)
    }

    /// Predicted label (`±1`, ties to `+1`) of user `t` on `x`.
    pub fn predict(&self, t: usize, x: &Vector) -> i8 {
        if self.decision(t, x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Batch prediction for user `t`.
    pub fn predict_batch(&self, t: usize, xs: &[Vector]) -> Vec<i8> {
        xs.iter().map(|x| self.predict(t, x)).collect()
    }

    /// How far user `t` deviates from the crowd: `‖v_t‖ / ‖w0‖` (0 when the
    /// global hyperplane is zero).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    // Allowed: documented panicking accessor; out-of-range `t` is a caller
    // bug, as in slice indexing.
    #[allow(clippy::indexing_slicing)]
    pub fn personalization_ratio(&self, t: usize) -> f64 {
        let g = self.w0.norm();
        if g == 0.0 {
            0.0
        } else {
            self.biases[t].norm() / g
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PersonalizedModel {
        // w0 = (1, 0), v0 = (0, 0), v1 = (-2, 0) => w1 = (-1, 0).
        PersonalizedModel::new(
            Vector::from(vec![1.0, 0.0]),
            vec![Vector::zeros(2), Vector::from(vec![-2.0, 0.0])],
            None,
        )
    }

    #[test]
    fn personalized_hyperplanes_differ() {
        let m = model();
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.dim(), 2);
        let x = Vector::from(vec![1.0, 5.0]);
        assert_eq!(m.predict(0, &x), 1);
        assert_eq!(m.predict(1, &x), -1);
        assert_eq!(m.decision(0, &x), 1.0);
        assert_eq!(m.decision(1, &x), -1.0);
    }

    #[test]
    fn hyperplane_assembly() {
        let m = model();
        assert_eq!(m.personalized_hyperplane(1).as_slice(), &[-1.0, 0.0]);
        assert_eq!(m.global_hyperplane().as_slice(), &[1.0, 0.0]);
        assert_eq!(m.personal_bias(0).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn bias_augmentation_is_applied() {
        // w = (0, 1) with bias slot: decision = x*0 + 1*b.
        let m = PersonalizedModel::new(
            Vector::from(vec![0.0, 1.0]),
            vec![Vector::zeros(2)],
            Some(-2.0),
        );
        let x = Vector::from(vec![5.0]);
        assert_eq!(m.decision(0, &x), -2.0);
        assert_eq!(m.predict(0, &x), -1);
    }

    #[test]
    fn batch_prediction_matches_single() {
        let m = model();
        let xs = vec![Vector::from(vec![1.0, 0.0]), Vector::from(vec![-1.0, 0.0])];
        assert_eq!(m.predict_batch(0, &xs), vec![1, -1]);
    }

    #[test]
    fn personalization_ratio() {
        let m = model();
        assert_eq!(m.personalization_ratio(0), 0.0);
        assert_eq!(m.personalization_ratio(1), 2.0);
        let zero_global =
            PersonalizedModel::new(Vector::zeros(1), vec![Vector::from(vec![1.0])], None);
        assert_eq!(zero_global.personalization_ratio(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_model_rejected() {
        let _ = PersonalizedModel::new(Vector::zeros(2), vec![], None);
    }

    #[test]
    #[should_panic(expected = "dimension must match")]
    fn mismatched_bias_rejected() {
        let _ = PersonalizedModel::new(Vector::zeros(2), vec![Vector::zeros(3)], None);
    }
}
