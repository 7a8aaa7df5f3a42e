//! Random-sampling helpers shared by the data generators.

use plos_linalg::{Matrix, Vector};
use rand::Rng;

/// One standard-normal draw (Box–Muller; avoids a dependency on
/// `rand_distr`, which is not on the offline crate list).
pub fn randn(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// A vector of `n` independent standard-normal draws.
pub fn randn_vector(n: usize, rng: &mut impl Rng) -> Vector {
    (0..n).map(|_| randn(rng)).collect()
}

/// Samples from `N(mean, L·Lᵀ)` given the lower Cholesky factor `L` of the
/// covariance.
///
/// # Panics
///
/// Panics if `mean.len()` does not match `chol_l`'s dimension or `chol_l` is
/// not square.
pub fn sample_mvn(mean: &Vector, chol_l: &Matrix, rng: &mut impl Rng) -> Vector {
    assert!(chol_l.is_square(), "Cholesky factor must be square");
    assert_eq!(mean.len(), chol_l.nrows(), "mean/covariance dimension mismatch");
    let z = randn_vector(mean.len(), rng);
    let mut x = chol_l.matvec(&z);
    x += mean;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let samples: Vec<f64> = (0..20_000).map(|_| randn(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn mvn_reproduces_covariance() {
        // Paper covariance Σ = [[225,−180],[−180,225]] has Cholesky
        // L = [[15, 0], [−12, 9]].
        let l = Matrix::from_rows(&[vec![15.0, 0.0], vec![-12.0, 9.0]]).unwrap();
        let mean = Vector::from(vec![10.0, 10.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 30_000;
        let samples: Vec<Vector> = (0..n).map(|_| sample_mvn(&mean, &l, &mut rng)).collect();
        let m0: f64 = samples.iter().map(|s| s[0]).sum::<f64>() / n as f64;
        let m1: f64 = samples.iter().map(|s| s[1]).sum::<f64>() / n as f64;
        assert!((m0 - 10.0).abs() < 0.3);
        assert!((m1 - 10.0).abs() < 0.3);
        let cov01: f64 = samples.iter().map(|s| (s[0] - m0) * (s[1] - m1)).sum::<f64>() / n as f64;
        let var0: f64 = samples.iter().map(|s| (s[0] - m0) * (s[0] - m0)).sum::<f64>() / n as f64;
        assert!((var0 - 225.0).abs() < 10.0, "var0={var0}");
        assert!((cov01 + 180.0).abs() < 10.0, "cov01={cov01}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mvn_checks_dimensions() {
        let l = Matrix::identity(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = sample_mvn(&Vector::zeros(3), &l, &mut rng);
    }
}
