//! Dense row-major `f64` matrix.
//!
//! Used for Gram matrices in the dual QPs, affinity matrices in spectral
//! clustering, and rotation matrices in the synthetic data generators.

use crate::error::LinalgError;
use crate::vector::Vector;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix.
///
/// ```
/// use plos_linalg::Matrix;
/// let m = Matrix::identity(2);
/// assert_eq!(m[(0, 0)], 1.0);
/// assert_eq!(m[(0, 1)], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Ragged`] if rows have differing lengths and
    /// [`LinalgError::Empty`] if `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { op: "from_rows" });
        }
        let cols = rows.first().map_or(0, Vec::len);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::Ragged { first: cols, offending: r.len(), row: i });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_row_major",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of range");
        // Allowed: the assert above plus the row-major storage invariant
        // (data.len() == rows * cols) keep this range in bounds.
        #[allow(clippy::indexing_slicing)]
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of range");
        // Allowed: the assert above plus the row-major storage invariant
        // (data.len() == rows * cols) keep this range in bounds.
        #[allow(clippy::indexing_slicing)]
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies one column into a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols()`.
    pub fn column(&self, c: usize) -> Vector {
        assert!(c < self.cols, "column index {c} out of range");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix–vector product `self · x`.
    ///
    /// Runs [`crate::kernels::matvec_strided`]: one
    /// [`crate::kernels::dot`] per row, with the rows fanned out over the
    /// ambient [`plos_exec::Pool`] once the product outweighs a spawn, so
    /// the result is bit-identical at every pool size.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        Vector::from(crate::kernels::matvec_strided(&self.data, self.cols, self.rows, x.as_slice()))
    }

    /// Matrix–matrix product `self · rhs`.
    ///
    /// Cache-blocked i-k-j kernel: the `k` loop is tiled so a panel of
    /// `rhs` rows stays resident in cache while every output row streams
    /// over it. Per output entry the `k` accumulation order is unchanged,
    /// so results are bit-identical to the unblocked textbook loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                expected: self.cols,
                actual: rhs.rows,
            });
        }
        // 64 rows of rhs × up-to-thousands of columns keeps each panel
        // within L2 for the matrix sizes the workspace uses (Gram and
        // affinity matrices up to a few thousand on a side).
        const K_BLOCK: usize = 64;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for kb in (0..self.cols).step_by(K_BLOCK) {
            let k_end = (kb + K_BLOCK).min(self.cols);
            for i in 0..self.rows {
                let a_panel = self.row(i).iter().enumerate().skip(kb).take(k_end - kb);
                let out_row = out.row_mut(i);
                for (k, &a) in a_panel {
                    if a == 0.0 {
                        continue;
                    }
                    crate::kernels::axpy(out_row, a, rhs.row(k));
                }
            }
        }
        Ok(out)
    }

    /// Transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Checks symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Adds `alpha` to every diagonal entry (Tikhonov / ridge shift).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, alpha: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += alpha;
        }
    }

    /// Flat row-major view of the storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// 2-D rotation matrix for angle `theta` (radians).
    ///
    /// Used by the paper's synthetic-data experiment, where each simulated
    /// user is a rotation of a base Gaussian dataset (Sec. VI-D).
    pub fn rotation2d(theta: f64) -> Matrix {
        let (s, c) = theta.sin_cos();
        Matrix { rows: 2, cols: 2, data: vec![c, -s, s, c] }
    }

    /// 3-D rotation matrix from intrinsic Z-Y-X Euler angles (radians).
    ///
    /// Used by the IMU simulator to model free device placement/orientation.
    pub fn rotation3d(yaw: f64, pitch: f64, roll: f64) -> Matrix {
        let (sy, cy) = yaw.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        let (sr, cr) = roll.sin_cos();
        Matrix {
            rows: 3,
            cols: 3,
            data: vec![
                cy * cp,
                cy * sp * sr - sy * cr,
                cy * sp * cr + sy * sr,
                sy * cp,
                sy * sp * sr + cy * cr,
                sy * sp * cr - cy * sr,
                -sp,
                cp * sr,
                cp * cr,
            ],
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        // Allowed: the assert above plus the row-major storage invariant
        // (data.len() == rows * cols) keep this offset in bounds.
        #[allow(clippy::indexing_slicing)]
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        // Allowed: the assert above plus the row-major storage invariant
        // (data.len() == rows * cols) keep this offset in bounds.
        #[allow(clippy::indexing_slicing)]
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.column(1).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn ragged_rows_error() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::Ragged { .. }));
        assert!(matches!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty { .. }));
    }

    #[test]
    fn from_row_major_checks_size() {
        assert!(Matrix::from_row_major(2, 2, vec![0.0; 4]).is_ok());
        assert!(Matrix::from_row_major(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn identity_and_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        let d = Matrix::from_diagonal(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn matvec_works() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let y = m.matvec(&Vector::from(vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn matmul_works_and_checks_dims() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.nrows(), 1);
        assert_eq!(c[(0, 0)], 11.0);
        assert!(b.matmul(&b).is_err());
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        // Sizes straddling the k-block boundary, including non-multiples.
        for &(m, k, n) in &[(3usize, 5usize, 4usize), (7, 64, 3), (5, 65, 9), (4, 130, 6)] {
            let mut state = (m * 1000 + k * 10 + n) as u64;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
            };
            let a = Matrix::from_row_major(m, k, (0..m * k).map(|_| next()).collect()).unwrap();
            let b = Matrix::from_row_major(k, n, (0..k * n).map(|_| next()).collect()).unwrap();
            let fast = a.matmul(&b).unwrap();
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    for j in 0..n {
                        naive[(i, j)] += a[(i, kk)] * b[(kk, j)];
                    }
                }
            }
            for i in 0..m {
                for j in 0..n {
                    assert!(
                        (fast[(i, j)] - naive[(i, j)]).abs() < 1e-12,
                        "({m},{k},{n}) entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let ns = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn add_diagonal_shifts() {
        let mut m = Matrix::zeros(2, 2);
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn rotation2d_is_orthonormal() {
        let r = Matrix::rotation2d(std::f64::consts::FRAC_PI_3);
        let rt_r = r.transpose().matmul(&r).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((rt_r[(i, j)] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rotation3d_is_orthonormal() {
        let r = Matrix::rotation3d(0.3, -0.7, 1.2);
        let rt_r = r.transpose().matmul(&r).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((rt_r[(i, j)] - expected).abs() < 1e-12, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn frobenius_norm() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(format!("{}", Matrix::identity(2)).contains("Matrix 2x2"));
    }
}
