//! Shape bookkeeping for dense row-major tensors.

use crate::error::TensorError;
use serde::{Deserialize, Serialize};

/// The shape of a dense row-major tensor.
///
/// Rank 1 and rank 2 are the common cases in this workspace (feature
/// vectors and batches of feature vectors); higher ranks are representable
/// but only the generic element-wise machinery operates on them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its dimensions.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// A rank-1 shape of length `n`.
    pub fn vector(n: usize) -> Self {
        Shape(vec![n])
    }

    /// A rank-2 shape with `rows` rows and `cols` columns.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for rank 0).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of axis `axis`, or an error if out of range.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.0.get(axis).copied().ok_or(TensorError::OutOfBounds {
            index: axis,
            bound: self.0.len(),
            op: "shape.dim",
        })
    }

    /// Rows of a rank-2 shape.
    ///
    /// # Panics
    /// Panics if the shape is not rank 2.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(self.rank(), 2, "rows() requires a rank-2 shape, got {:?}", self.0);
        self.0[0]
    }

    /// Columns of a rank-2 shape.
    ///
    /// # Panics
    /// Panics if the shape is not rank 2.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() requires a rank-2 shape, got {:?}", self.0);
        self.0[1]
    }

    /// Row-major strides for this shape (in elements, not bytes).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// Returns an error if the index rank or any component is out of range.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.0.len() {
            return Err(TensorError::RankMismatch {
                got: index.len(),
                expected: self.0.len(),
                op: "shape.offset",
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(self.0.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::OutOfBounds { index: i, bound: d, op: "shape.offset" });
            }
            off += i * strides[axis];
        }
        Ok(off)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::matrix(3, 4).len(), 12);
        assert_eq!(Shape::vector(7).len(), 7);
        assert_eq!(Shape::new(vec![2, 3, 4]).len(), 24);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::matrix(5, 7).strides(), vec![7, 1]);
        assert_eq!(Shape::vector(9).strides(), vec![1]);
    }

    #[test]
    fn offset_matches_manual_row_major() {
        let s = Shape::matrix(3, 4);
        assert_eq!(s.offset(&[0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 6);
        assert_eq!(s.offset(&[2, 3]).unwrap(), 11);
    }

    #[test]
    fn offset_rejects_bad_indices() {
        let s = Shape::matrix(3, 4);
        assert!(s.offset(&[3, 0]).is_err());
        assert!(s.offset(&[0, 4]).is_err());
        assert!(s.offset(&[0]).is_err());
    }

    #[test]
    fn zero_dim_shape_is_empty() {
        assert!(Shape::matrix(0, 10).is_empty());
        assert!(!Shape::matrix(1, 1).is_empty());
    }

    #[test]
    fn conversions_agree() {
        let a: Shape = vec![2, 3].into();
        let b: Shape = [2usize, 3].into();
        assert_eq!(a, b);
    }
}
