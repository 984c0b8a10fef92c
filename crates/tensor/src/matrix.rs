//! Dense row-major 2-D tensors.

use crate::error::{Result, TensorError};
use crate::gemm::{self, KernelPolicy};
use crate::scratch::PoolVec;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the workhorse for attention and fully-connected layers.
/// Rows × columns are fixed at construction; all arithmetic validates
/// shapes and returns [`TensorError::ShapeMismatch`] on disagreement.
///
/// # Examples
///
/// ```
/// use bea_tensor::Matrix;
///
/// # fn main() -> Result<(), bea_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let b = Matrix::from_rows(&[&[2.0, 3.0], &[4.0, 5.0]])?;
/// let c = a.matmul(&b)?;
/// assert_eq!(c, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    // Pooled storage: construction draws from the thread-local scratch
    // arena and drop recycles, so repeated fixed-shape forwards are
    // allocation-free at steady state. `PoolVec`'s Debug/PartialEq
    // delegate to the inner Vec, keeping derive output unchanged.
    data: PoolVec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: PoolVec::filled(rows * cols, 0.0) }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: PoolVec::filled(rows * cols, value) }
    }

    /// Creates the `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Self { rows, cols, data: PoolVec::from_vec(data) })
    }

    /// Builds a matrix from a slice of equally-sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if rows have differing
    /// lengths, and [`TensorError::EmptyShape`] if `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let first = rows.first().ok_or(TensorError::EmptyShape { op: "from_rows" })?;
        let cols = first.len();
        let mut data = PoolVec::with_pooled_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::LengthMismatch { expected: cols, actual: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { rows: rows.len(), cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer, releasing
    /// the storage from the scratch-pool cycle.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Checked element access.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: the inner loop streams over contiguous memory in
        // both `other` and `out`, which matters for the attention layers.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let src = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self · other` under an explicit [`KernelPolicy`].
    ///
    /// `Reference` runs the naive [`Self::matmul`] loop nest, `Blocked`
    /// the register-tiled GEMM from [`crate::gemm`]; both return
    /// `==`-identical results for finite inputs.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul_policy(&self, other: &Matrix, policy: KernelPolicy) -> Result<Matrix> {
        match policy {
            KernelPolicy::Reference => self.matmul(other),
            KernelPolicy::Blocked => gemm::matmul_blocked(self, other),
        }
    }

    /// Transposed product `self · otherᵀ` — the shape the linear layers
    /// (`y = x·Wᵀ`) and attention scores (`q·kᵀ`) consume. Equivalent to
    /// `self.matmul(&other.transpose())` without materialising the
    /// transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_nt_policy(other, KernelPolicy::default())
    }

    /// [`Self::matmul_nt`] under an explicit [`KernelPolicy`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.cols()`.
    pub fn matmul_nt_policy(&self, other: &Matrix, policy: KernelPolicy) -> Result<Matrix> {
        match policy {
            KernelPolicy::Reference => self.matmul(&other.transpose()),
            KernelPolicy::Blocked => gemm::matmul_nt_blocked(self, other),
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        let mut data = PoolVec::with_pooled_capacity(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        let mut data = PoolVec::with_pooled_capacity(self.data.len());
        data.extend(self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)));
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Adds `vector` to every row of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `vector.len() == self.cols()`.
    pub fn add_row_vector(&self, vector: &[f32]) -> Result<Matrix> {
        if vector.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_vector",
                lhs: vec![self.rows, self.cols],
                rhs: vec![vector.len()],
            });
        }
        let mut out = self.clone();
        for r in 0..self.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(vector) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Horizontally concatenates `self` and `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless the row counts match.
    pub fn hconcat(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "hconcat",
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Extracts the column range `[start, start + width)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the number of columns.
    pub fn columns(&self, start: usize, width: usize) -> Matrix {
        assert!(start + width <= self.cols, "column range out of bounds");
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Returns `true` when every pairwise element difference is below `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().at(0, 1), 4.0);
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 9.0]]).unwrap();
        let b = Matrix::filled(2, 2, 3.0);
        assert_eq!(a.add(&b).unwrap().sub(&b).unwrap(), a);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]);
        assert!(matches!(err, Err(TensorError::LengthMismatch { .. })));
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_vector(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn hconcat_and_columns_roundtrip() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let cat = a.hconcat(&b).unwrap();
        assert_eq!(cat.shape(), (2, 5));
        assert_eq!(cat.columns(0, 2), a);
        assert_eq!(cat.columns(2, 3), b);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let id = Matrix::identity(4);
        assert!((id.frobenius_norm() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn scale_and_map() {
        let a = Matrix::filled(2, 2, 2.0);
        assert_eq!(a.scale(0.5), Matrix::filled(2, 2, 1.0));
        assert_eq!(a.map(|v| v * v), Matrix::filled(2, 2, 4.0));
    }

    #[test]
    fn get_returns_none_out_of_bounds() {
        let a = Matrix::zeros(2, 2);
        assert_eq!(a.get(2, 0), None);
        assert_eq!(a.get(0, 2), None);
        assert_eq!(a.get(1, 1), Some(0.0));
    }
}
