//! A small dense row-major matrix with just enough linear algebra for
//! normal-equation least squares: multiply, transpose, and a Gaussian
//! elimination solver with partial pivoting (plus inversion, used for
//! coefficient covariance in regression diagnostics).
//!
//! The dependency-analysis problems in Flower involve a handful of
//! regressors, so an O(n³) dense solver is the right tool — no external
//! linear-algebra crate needed.

use crate::StatsError;

/// Dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from rows; every row must have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows.first().map_or(0, Vec::len);
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Column vector from a slice.
    pub fn column(values: &[f64]) -> Matrix {
        assert!(!values.is_empty(), "column vector needs at least one entry");
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "shape mismatch: ({}, {}) · ({}, {})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // lint:allow(float-eq-zero): exact-zero sparsity fast path — skips only true zeros, bit-identical results
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Solve `A · x = b` for `x` via Gaussian elimination with partial
    /// pivoting, where `A` is `self` (must be square) and `b` is a column
    /// vector of matching height.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, StatsError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot: find the largest |entry| at or below the
            // diagonal.
            #[expect(clippy::expect_used, reason = "invariant stated in the expect message")]
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| a[r1 * n + col].abs().total_cmp(&a[r2 * n + col].abs()))
                .expect("col..n is non-empty because col < n");
            let pivot = a[pivot_row * n + col];
            if pivot.abs() < 1e-12 {
                return Err(StatsError::SingularSystem);
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                // lint:allow(float-eq-zero): exact-zero sparsity fast path — skips only true zeros, bit-identical results
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in (col + 1)..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }

    /// Inverse of a square matrix (column-by-column solves).
    pub fn inverse(&self) -> Result<Matrix, StatsError> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }

    /// Maximum absolute difference from another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
        assert_eq!(a.transpose().cols(), 2);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x - y = 1  → x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]);
        let x = a.solve(&[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(StatsError::SingularSystem));
        assert_eq!(a.inverse(), Err(StatsError::SingularSystem));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[
            vec![4.0, 7.0, 2.0],
            vec![3.0, 6.0, 1.0],
            vec![2.0, 5.0, 3.0],
        ]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn solve_3x3() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
