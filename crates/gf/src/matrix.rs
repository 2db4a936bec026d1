//! Dense matrices over GF(2^8).
//!
//! Reed-Solomon encoding multiplies the data vector by a generator matrix;
//! erasure decoding inverts the square submatrix of surviving rows. This
//! module provides exactly that machinery, plus the Cauchy construction of
//! the systematic generator `[I; C]`, every k×k submatrix of which is
//! invertible.

use crate::field::Gf256;
use std::fmt;

/// A dense row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

/// Errors from matrix algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Inner dimensions of a product, or the shape required by an operation,
    /// did not match.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
    },
    /// Gaussian elimination found no usable pivot: the matrix is singular.
    Singular,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { op } => write!(f, "dimension mismatch in {op}"),
            MatrixError::Singular => write!(f, "matrix is singular"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the n×n identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// The `m × k` Cauchy matrix `C[i][j] = 1 / (x_i + y_j)` with
    /// `x_i = i + k` and `y_j = j`, all elements distinct.
    ///
    /// Every square submatrix of a Cauchy matrix is invertible, so
    /// `[I; C]` is a valid systematic RS generator as long as `m + k ≤ 256`.
    ///
    /// # Panics
    ///
    /// Panics if `m + k > 256` (the field runs out of distinct points).
    pub fn cauchy(m: usize, k: usize) -> Self {
        assert!(m + k <= 256, "Cauchy construction needs m + k <= 256");
        Matrix::from_fn(m, k, |i, j| (Gf256((i + k) as u8) + Gf256(j as u8)).inv())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Gf256] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix keeping only the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        Matrix::from_fn(rows.len(), self.cols, |r, c| self[(rows[r], c)])
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Fails if the column counts differ.
    pub fn stack(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != other.cols {
            return Err(MatrixError::DimensionMismatch { op: "stack" });
        }
        let mut m = Matrix::zero(self.rows + other.rows, self.cols);
        m.data[..self.data.len()].copy_from_slice(&self.data);
        m.data[self.data.len()..].copy_from_slice(&other.data);
        Ok(m)
    }

    /// Matrix product `self · rhs`.
    ///
    /// Each output row is a linear combination of `rhs` rows, so the inner
    /// step is one [`crate::field::mul_slice_acc`] over a contiguous byte
    /// row — the same runtime-dispatched vector kernel the RS data path
    /// uses, rather than an element-at-a-time log/exp loop.
    ///
    /// # Errors
    ///
    /// Fails if `self.cols != rhs.rows`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch { op: "mul" });
        }
        let rhs_rows: Vec<Vec<u8>> = (0..rhs.rows)
            .map(|r| rhs.row(r).iter().map(|g| g.0).collect())
            .collect();
        let mut out = Matrix::zero(self.rows, rhs.cols);
        let mut acc = vec![0u8; rhs.cols];
        for r in 0..self.rows {
            acc.fill(0);
            for (k, rhs_row) in rhs_rows.iter().enumerate() {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                crate::field::mul_slice_acc(a, rhs_row, &mut acc);
            }
            for (c, &v) in acc.iter().enumerate() {
                out[(r, c)] = Gf256(v);
            }
        }
        Ok(out)
    }

    /// Inverts a square matrix by Gauss-Jordan elimination with partial
    /// pivoting (any nonzero pivot works in a field).
    ///
    /// # Errors
    ///
    /// Fails with [`MatrixError::Singular`] if no inverse exists, and with
    /// [`MatrixError::DimensionMismatch`] if the matrix is not square.
    pub fn inverse(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::DimensionMismatch { op: "inverse" });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a row at or below `col` with a nonzero pivot.
            let pivot = (col..n)
                .find(|&r| !a[(r, col)].is_zero())
                .ok_or(MatrixError::Singular)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a[(col, col)].inv();
            a.scale_row(col, p);
            inv.scale_row(col, p);
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r != col && !a[(r, col)].is_zero() {
                    let f = a[(r, col)];
                    a.axpy_row(col, r, f);
                    inv.axpy_row(col, r, f);
                }
            }
        }
        Ok(inv)
    }

    /// Rank via Gaussian elimination (used by tests to certify generator
    /// matrices are MDS).
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        for col in 0..a.cols {
            if rank == a.rows {
                break;
            }
            let Some(pivot) = (rank..a.rows).find(|&r| !a[(r, col)].is_zero()) else {
                continue;
            };
            a.swap_rows(pivot, rank);
            let p = a[(rank, col)].inv();
            a.scale_row(rank, p);
            for r in 0..a.rows {
                if r != rank && !a[(r, col)].is_zero() {
                    let f = a[(r, col)];
                    a.axpy_row(rank, r, f);
                }
            }
            rank += 1;
        }
        rank
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, f: Gf256) {
        for c in 0..self.cols {
            self[(r, c)] *= f;
        }
    }

    /// `row[dst] += f * row[src]`.
    fn axpy_row(&mut self, src: usize, dst: usize, f: Gf256) {
        for c in 0..self.cols {
            let v = f * self[(src, c)];
            self[(dst, c)] += v;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self[(r, c)].0)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything() {
        let m = Matrix::from_fn(4, 4, |r, c| Gf256(r as u8).pow(c as u64));
        let i = Matrix::identity(4);
        assert_eq!(i.mul(&m).unwrap(), m);
        assert_eq!(m.mul(&i).unwrap(), m);
    }

    #[test]
    fn inverse_roundtrip_vandermonde() {
        // Vandermonde with distinct points is invertible.
        let m = Matrix::from_fn(5, 5, |r, c| Gf256((r + 1) as u8).pow(c as u64));
        let inv = m.inverse().unwrap();
        assert_eq!(m.mul(&inv).unwrap(), Matrix::identity(5));
        assert_eq!(inv.mul(&m).unwrap(), Matrix::identity(5));
    }

    #[test]
    fn singular_matrix_detected() {
        // Two equal rows.
        let rows = [[1, 2, 3], [1, 2, 3], [0, 1, 0]];
        let m = Matrix::from_fn(3, 3, |r, c| Gf256(rows[r][c]));
        assert_eq!(m.inverse().unwrap_err(), MatrixError::Singular);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn non_square_inverse_rejected() {
        let m = Matrix::zero(2, 3);
        assert!(matches!(
            m.inverse(),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cauchy_every_square_submatrix_invertible() {
        // Exhaustively check all 2x2 submatrices of a 4x6 Cauchy matrix.
        let m = Matrix::cauchy(4, 6);
        for r0 in 0..4 {
            for r1 in (r0 + 1)..4 {
                for c0 in 0..6 {
                    for c1 in (c0 + 1)..6 {
                        let sub = Matrix::from_fn(2, 2, |r, c| {
                            m[(if r == 0 { r0 } else { r1 }, if c == 0 { c0 } else { c1 })]
                        });
                        assert!(sub.inverse().is_ok(), "submatrix ({r0},{r1})x({c0},{c1})");
                    }
                }
            }
        }
    }

    #[test]
    fn stack_and_select_rows() {
        let top = Matrix::identity(2);
        let bottom = Matrix::cauchy(3, 2);
        let g = top.stack(&bottom).unwrap();
        assert_eq!(g.rows(), 5);
        let picked = g.select_rows(&[0, 3]);
        assert_eq!(picked.rows(), 2);
        assert_eq!(picked.row(0), Matrix::identity(2).row(0));
        assert_eq!(picked.row(1), bottom.row(1));
    }

    #[test]
    fn stack_dimension_mismatch() {
        let a = Matrix::zero(1, 2);
        let b = Matrix::zero(1, 3);
        assert!(a.stack(&b).is_err());
    }

    #[test]
    fn mul_dimension_mismatch() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn rank_of_mds_generator_submatrices() {
        // Systematic Cauchy generator for k=4, m=3: any 4 rows have rank 4.
        let k = 4;
        let g = Matrix::identity(k).stack(&Matrix::cauchy(3, k)).unwrap();
        // Check a handful of row subsets including parities.
        for rows in [
            vec![0usize, 1, 2, 3],
            vec![0, 1, 2, 4],
            vec![0, 1, 5, 6],
            vec![3, 4, 5, 6],
            vec![0, 4, 5, 6],
        ] {
            assert_eq!(g.select_rows(&rows).rank(), k, "rows {rows:?}");
        }
    }
}
