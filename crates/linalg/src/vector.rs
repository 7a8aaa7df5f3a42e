//! Dense `f64` vector with the arithmetic the PLOS solvers need.
//!
//! Hyperplanes (`w0`, `w_t`, biases `v_t`), feature vectors, and dual
//! iterates are all [`Vector`]s. The type is a thin, owned wrapper around
//! `Vec<f64>` with explicit, dimension-checked arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Dense, owned `f64` vector.
///
/// ```
/// use plos_linalg::Vector;
/// let v = Vector::zeros(3);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.norm(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector(Vec<f64>);

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector(vec![0.0; n])
    }

    /// Creates a vector of `n` copies of `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector(vec![value; n])
    }

    /// Creates a standard basis vector `e_i` of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for dimension {n}");
        let mut v = Vector::zeros(n);
        v[i] = 1.0;
        v
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrows the components as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// Iterator over the components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }

    /// Mutable iterator over the components.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.0.iter_mut()
    }

    /// Inner product `⟨self, other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: dimension mismatch");
        crate::kernels::dot(&self.0, &other.0)
    }

    /// Euclidean norm `‖self‖₂`.
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean norm `‖self‖₂²`.
    pub fn norm_squared(&self) -> f64 {
        self.0.iter().map(|a| a * a).sum()
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: dimension mismatch");
        crate::kernels::axpy(&mut self.0, alpha, &other.0);
    }

    /// Fused `self += alpha * other` returning `⟨self_updated, other⟩`.
    ///
    /// Single memory sweep for the axpy-then-dot idiom (see
    /// [`crate::kernels::axpy_dot`]); used by the QP solver's incremental
    /// gradient maintenance.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy_dot(&mut self, alpha: f64, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "axpy_dot: dimension mismatch");
        crate::kernels::axpy_dot(&mut self.0, alpha, &other.0)
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        for a in &mut self.0 {
            *a *= alpha;
        }
    }

    /// Returns `alpha * self` as a new vector.
    pub fn scaled(&self, alpha: f64) -> Vector {
        Vector(self.0.iter().map(|a| alpha * a).collect())
    }

    /// Squared Euclidean distance `‖self − other‖²`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance_squared(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "distance: dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance `‖self − other‖`.
    pub fn distance(&self, other: &Vector) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Returns `true` if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|a| a.is_finite())
    }

    /// Component-wise map producing a new vector.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> Vector {
        Vector(self.0.iter().copied().map(f).collect())
    }

    /// Concatenates `self` and `other` into a new vector.
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut out = Vec::with_capacity(self.len() + other.len());
        out.extend_from_slice(&self.0);
        out.extend_from_slice(&other.0);
        Vector(out)
    }

    /// Appends a single component, returning the extended vector.
    ///
    /// Used to augment feature vectors with a constant `1.0` so hyperplanes
    /// carry a bias term (footnote 1 of the paper).
    pub fn with_appended(&self, value: f64) -> Vector {
        let mut out = self.0.clone();
        out.push(value);
        Vector(out)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector(v.to_vec())
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector(iter.into_iter().collect())
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        // Allowed: `Vector`'s indexing contract is to panic on an
        // out-of-range index, delegating to the slice bounds check.
        #[allow(clippy::indexing_slicing)]
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        // Allowed: `Vector`'s indexing contract is to panic on an
        // out-of-range index, delegating to the slice bounds check.
        #[allow(clippy::indexing_slicing)]
        &mut self.0[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add: dimension mismatch");
        Vector(self.0.iter().zip(&rhs.0).map(|(a, b)| a + b).collect())
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub: dimension mismatch");
        Vector(self.0.iter().zip(&rhs.0).map(|(a, b)| a - b).collect())
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: &[f64]) -> Vector {
        Vector::from(data)
    }

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(4).as_slice(), &[0.0; 4]);
        assert_eq!(Vector::filled(2, 3.5).as_slice(), &[3.5, 3.5]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn basis_vector() {
        let e1 = Vector::basis(3, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn dot_products() {
        assert_eq!(v(&[1.0, 2.0]).dot(&v(&[3.0, 4.0])), 11.0);
        assert_eq!(v(&[]).dot(&v(&[])), 0.0);
    }

    #[test]
    fn norms() {
        let x = v(&[3.0, -4.0]);
        assert_eq!(x.norm(), 5.0);
        assert_eq!(x.norm_squared(), 25.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut x = v(&[1.0, 1.0]);
        x.axpy(2.0, &v(&[1.0, -1.0]));
        assert_eq!(x.as_slice(), &[3.0, -1.0]);
        x.scale_mut(0.5);
        assert_eq!(x.as_slice(), &[1.5, -0.5]);
        assert_eq!(x.scaled(2.0).as_slice(), &[3.0, -1.0]);
    }

    #[test]
    fn axpy_dot_matches_separate_ops() {
        let mut fused = v(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut separate = fused.clone();
        let x = v(&[2.0, -1.0, 0.5, 0.0, 3.0]);
        let r = fused.axpy_dot(2.0, &x);
        separate.axpy(2.0, &x);
        assert_eq!(fused, separate);
        assert!((r - separate.dot(&x)).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        let a = v(&[0.0, 0.0]);
        let b = v(&[3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
    }

    #[test]
    fn operators() {
        let a = v(&[1.0, 2.0]);
        let b = v(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn concat_and_append() {
        let a = v(&[1.0]);
        let b = v(&[2.0, 3.0]);
        assert_eq!(a.concat(&b).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.with_appended(9.0).as_slice(), &[1.0, 9.0]);
    }

    #[test]
    fn map_and_finiteness() {
        let a = v(&[1.0, -2.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0]);
        assert!(a.is_finite());
        assert!(!v(&[f64::NAN]).is_finite());
        assert!(!v(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn collect_and_iterate() {
        let a: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0]);
        let sum: f64 = (&a).into_iter().sum();
        assert_eq!(sum, 3.0);
        let doubled: Vec<f64> = a.into_iter().map(|x| 2.0 * x).collect();
        assert_eq!(doubled, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Vector::zeros(0)), "[]");
        assert!(format!("{}", Vector::from(vec![1.0, 2.0])).contains("1.0"));
    }
}
