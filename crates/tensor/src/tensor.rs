//! The dense row-major `f32` tensor type.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Rank 1 (vectors) and rank 2 (matrices whose rows are samples) are the
/// fast paths used throughout the PILOTE workspace. The element buffer is
/// always exactly `shape.len()` long — an invariant enforced by every
/// constructor and preserved by every operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor from raw data and a shape, validating the length.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { len: data.len(), expected: shape.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a rank-1 tensor from a slice.
    pub fn vector(data: &[f32]) -> Self {
        Tensor { shape: Shape::vector(data.len()), data: data.to_vec() }
    }

    /// Builds a rank-2 tensor from nested rows.
    ///
    /// Returns an error if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(TensorError::ShapeMismatch {
                    left: vec![n_rows, n_cols],
                    right: vec![row.len()],
                    op: "from_rows",
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Tensor { shape: Shape::matrix(n_rows, n_cols), data })
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Rank (number of axes).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rows of a rank-2 tensor (panics otherwise — see [`Shape::rows`]).
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.rows()
    }

    /// Columns of a rank-2 tensor (panics otherwise — see [`Shape::cols`]).
    #[inline]
    pub fn cols(&self) -> usize {
        self.shape.cols()
    }

    /// Read-only view of the flat element buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat element buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Unchecked 2-D accessor; hot-path helper for rank-2 tensors.
    ///
    /// # Panics
    /// Debug-asserts bounds; out-of-bounds access in release is prevented by
    /// the slice index panic.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[row * self.shape.cols() + col]
    }

    /// Row `i` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let cols = self.cols();
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutable row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let cols = self.cols();
        &mut self.data[i * cols..(i + 1) * cols]
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Reinterprets the buffer under a new shape with the same length.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::LengthMismatch { len: self.data.len(), expected: shape.len() });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Materialised transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { got: self.rank(), expected: 2, op: "transpose" });
        }
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; r * c];
        // Blocked transpose for cache friendliness on larger matrices.
        const B: usize = 32;
        for bi in (0..r).step_by(B) {
            for bj in (0..c).step_by(B) {
                for i in bi..(bi + B).min(r) {
                    for j in bj..(bj + B).min(c) {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        Ok(Tensor { shape: Shape::matrix(c, r), data: out })
    }

    /// Extracts the rows at `indices` (rank-2 only), in the given order.
    ///
    /// The gather primitive behind contrastive pair batching; row copies
    /// are band-parallel over the output (see `docs/THREADING.md`).
    ///
    /// ```
    /// use pilote_tensor::Tensor;
    /// let t = Tensor::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
    /// let picked = t.select_rows(&[2, 0, 2]).unwrap();
    /// assert_eq!(picked.as_slice(), &[2.0, 0.0, 2.0]);
    /// ```
    pub fn select_rows(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { got: self.rank(), expected: 2, op: "select_rows" });
        }
        let cols = self.cols();
        let rows = self.rows();
        if let Some(&bad) = indices.iter().find(|&&i| i >= rows) {
            return Err(TensorError::OutOfBounds { index: bad, bound: rows, op: "select_rows" });
        }
        let mut data = vec![0.0f32; indices.len() * cols];
        if cols > 0 {
            let src = self.as_slice();
            let threads = crate::parallel::effective_threads(indices.len() * cols);
            crate::parallel::for_each_band(&mut data, cols, threads, |i0, band| {
                for (off, chunk) in band.chunks_mut(cols).enumerate() {
                    let i = indices[i0 + off];
                    chunk.copy_from_slice(&src[i * cols..(i + 1) * cols]);
                }
            });
        }
        Ok(Tensor { shape: Shape::matrix(indices.len(), cols), data })
    }

    /// Vertically stacks rank-2 tensors with matching column counts.
    pub fn vstack(tensors: &[&Tensor]) -> Result<Tensor> {
        if tensors.is_empty() {
            return Err(TensorError::Empty { op: "vstack" });
        }
        let cols = tensors[0].cols();
        let mut rows = 0usize;
        for t in tensors {
            if t.rank() != 2 || t.cols() != cols {
                return Err(TensorError::ShapeMismatch {
                    left: tensors[0].shape.dims().to_vec(),
                    right: t.shape.dims().to_vec(),
                    op: "vstack",
                });
            }
            rows += t.rows();
        }
        let mut data = Vec::with_capacity(rows * cols);
        for t in tensors {
            data.extend_from_slice(&t.data);
        }
        Ok(Tensor { shape: Shape::matrix(rows, cols), data })
    }

    /// Contiguous row range `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { got: self.rank(), expected: 2, op: "slice_rows" });
        }
        if start > end || end > self.rows() {
            return Err(TensorError::OutOfBounds { index: end, bound: self.rows(), op: "slice_rows" });
        }
        let cols = self.cols();
        Ok(Tensor {
            shape: Shape::matrix(end - start, cols),
            data: self.data[start * cols..end * cols].to_vec(),
        })
    }

    // ------------------------------------------------------------------
    // Scalar maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// `true` when every element is finite (no NaN/inf) — used liberally in
    /// debug assertions across the training stack.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference against another tensor of identical
    /// shape; the workhorse of gradient-checking tests.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
                op: "max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Tensor{}", self.shape)?;
        if self.rank() == 2 {
            let show_rows = self.rows().min(8);
            for i in 0..show_rows {
                let row = self.row(i);
                let show_cols = row.len().min(10);
                write!(f, "  [")?;
                for (j, v) in row[..show_cols].iter().enumerate() {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:.4}")?;
                }
                if row.len() > show_cols {
                    write!(f, ", …")?;
                }
                writeln!(f, "]")?;
            }
            if self.rows() > show_rows {
                writeln!(f, "  … ({} rows total)", self.rows())?;
            }
        } else {
            let show = self.len().min(12);
            write!(f, "  [")?;
            for (j, v) in self.data[..show].iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.len() > show {
                write!(f, ", …")?;
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
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], [2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 2);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.rows(), 3);
        assert_eq!(tt.cols(), 2);
        assert_eq!(tt.at(0, 1), 4.0);
        assert_eq!(tt.transpose().unwrap(), t);
    }

    #[test]
    fn transpose_large_blocked() {
        let (r, c) = (70, 45);
        let data: Vec<f32> = (0..r * c).map(|i| i as f32).collect();
        let t = Tensor::from_vec(data, [r, c]).unwrap();
        let tt = t.transpose().unwrap();
        for i in 0..r {
            for j in 0..c {
                assert_eq!(t.at(i, j), tt.at(j, i));
            }
        }
    }

    #[test]
    fn select_rows_orders_and_repeats() {
        let t = Tensor::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let s = t.select_rows(&[2, 0, 2]).unwrap();
        assert_eq!(s.as_slice(), &[2.0, 0.0, 2.0]);
        assert!(t.select_rows(&[3]).is_err());
    }

    #[test]
    fn vstack_concatenates() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let v = Tensor::vstack(&[&a, &b]).unwrap();
        assert_eq!(v.rows(), 3);
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn vstack_rejects_mismatched_cols() {
        let a = Tensor::zeros([1, 2]);
        let b = Tensor::zeros([1, 3]);
        assert!(Tensor::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn slice_rows_bounds() {
        let t = Tensor::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.as_slice(), &[1.0, 2.0]);
        assert!(t.slice_rows(2, 4).is_err());
        assert_eq!(t.slice_rows(1, 1).unwrap().rows(), 0);
    }

    #[test]
    fn map_and_scale() {
        let t = Tensor::vector(&[1.0, -2.0, 3.0]);
        assert_eq!(t.map(f32::abs).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.scale(2.0).as_slice(), &[2.0, -4.0, 6.0]);
        assert_eq!(t.add_scalar(1.0).as_slice(), &[2.0, -1.0, 4.0]);
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::vector(&[1.0, 2.0]);
        assert!(t.all_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn max_abs_diff_requires_same_shape() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        assert!(a.max_abs_diff(&Tensor::zeros([3])).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn display_does_not_panic_on_shapes() {
        let t = Tensor::zeros([20, 40]);
        let s = format!("{t}");
        assert!(s.contains("rows total"));
        let v = Tensor::zeros([100]);
        assert!(format!("{v}").contains('…'));
    }

    #[test]
    fn serde_round_trip() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
