//! Element-wise and broadcast arithmetic.
//!
//! Supported broadcast forms (all that the NN stack needs):
//!
//! * identical shapes — plain element-wise;
//! * matrix `[n, d]` (+|-|*|/) row vector `[d]` — the bias/affine pattern;
//! * column broadcast via [`Tensor::mul_col`] for per-row scaling.
//!
//! Fallible named methods (`try_add`, …) return [`TensorError`]; the
//! operator overloads panic on shape mismatch with the same message.

use crate::error::TensorError;
use crate::parallel;
use crate::tensor::Tensor;
use crate::Result;

#[inline]
fn zip_apply(
    a: &Tensor,
    b: &Tensor,
    op: &'static str,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Result<Tensor> {
    let n = a.len();
    let threads = parallel::effective_threads(n);
    if a.shape() == b.shape() {
        let (xs, ys) = (a.as_slice(), b.as_slice());
        let mut data = vec![0.0f32; n];
        parallel::for_each_band(&mut data, 1, threads, |i0, band| {
            for (off, o) in band.iter_mut().enumerate() {
                let i = i0 + off;
                *o = f(xs[i], ys[i]);
            }
        });
        return Tensor::from_vec(data, a.shape().clone());
    }
    // matrix [n, d] op row-vector [d]
    if a.rank() == 2 && b.rank() == 1 && a.cols() == b.len() {
        let d = a.cols();
        let (xs, bv) = (a.as_slice(), b.as_slice());
        let mut data = vec![0.0f32; n];
        parallel::for_each_band(&mut data, 1, threads, |i0, band| {
            for (off, o) in band.iter_mut().enumerate() {
                let i = i0 + off;
                *o = f(xs[i], bv[i % d]);
            }
        });
        return Tensor::from_vec(data, a.shape().clone());
    }
    Err(TensorError::ShapeMismatch {
        left: a.shape().dims().to_vec(),
        right: b.shape().dims().to_vec(),
        op,
    })
}

/// `x + y`, except that a NaN `x` comes back quieted with its own payload
/// whatever `y` holds: the rule [`Tensor::axpy`] and the GEMM's
/// accumulate epilogue apply where two NaNs meet. Plain `x + y` cannot
/// pin it: the hardware keeps the first operand's payload, and the
/// compiler picks the operand order of each `add` instruction, differently
/// even within one unrolled loop body.
#[inline(always)]
pub(crate) fn add_keeping_nan(x: f32, y: f32) -> f32 {
    if x.is_nan() {
        f32::from_bits(x.to_bits() | 0x0040_0000)
    } else {
        x + y
    }
}

impl Tensor {
    /// Element-wise / broadcast addition.
    ///
    /// ```
    /// use pilote_tensor::Tensor;
    /// let m = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
    /// let bias = Tensor::vector(&[10.0, 20.0]);
    /// // Row-vector broadcast: the bias pattern of a dense layer.
    /// assert_eq!(m.try_add(&bias).unwrap().as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    /// ```
    pub fn try_add(&self, other: &Tensor) -> Result<Tensor> {
        zip_apply(self, other, "add", |x, y| x + y)
    }

    /// Element-wise / broadcast subtraction.
    pub fn try_sub(&self, other: &Tensor) -> Result<Tensor> {
        zip_apply(self, other, "sub", |x, y| x - y)
    }

    /// Element-wise / broadcast (Hadamard) multiplication.
    pub fn try_mul(&self, other: &Tensor) -> Result<Tensor> {
        zip_apply(self, other, "mul", |x, y| x * y)
    }

    /// Element-wise / broadcast division.
    pub fn try_div(&self, other: &Tensor) -> Result<Tensor> {
        zip_apply(self, other, "div", |x, y| x / y)
    }

    /// In-place `self += alpha * other` (identical shapes only) — the axpy
    /// primitive used by all optimizer updates; avoids a temporary.
    ///
    /// Where `self` holds a NaN it stays, quieted, with its payload
    /// (`add_keeping_nan`), so the bits do not depend on how the bands
    /// split the elements.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
                op: "axpy",
            });
        }
        let threads = parallel::effective_threads(self.len());
        let ys = other.as_slice();
        parallel::for_each_band(self.as_mut_slice(), 1, threads, |i0, band| {
            for (x, &y) in band.iter_mut().zip(&ys[i0..]) {
                *x = add_keeping_nan(*x, alpha * y);
            }
        });
        Ok(())
    }

    /// Multiplies each row `i` of a rank-2 tensor by `col[i]`.
    pub fn mul_col(&self, col: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 || col.rank() != 1 || col.len() != self.rows() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: col.shape().dims().to_vec(),
                op: "mul_col",
            });
        }
        let d = self.cols();
        let cv = col.as_slice();
        let xs = self.as_slice();
        let mut data = vec![0.0f32; xs.len()];
        let threads = parallel::effective_threads(xs.len());
        parallel::for_each_band(&mut data, 1, threads, |i0, band| {
            for (off, o) in band.iter_mut().enumerate() {
                let i = i0 + off;
                *o = xs[i] * cv[i / d];
            }
        });
        Tensor::from_vec(data, self.shape().clone())
    }

    /// Dot product of two rank-1 tensors of equal length.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.rank() != 1 || other.rank() != 1 || self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
                op: "dot",
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&x, &y)| x * y)
            .sum())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $try:ident) => {
        impl std::ops::$trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.$try(rhs).unwrap_or_else(|e| panic!("{e}"))
            }
        }
        impl std::ops::$trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, try_add);
impl_binop!(Sub, sub, try_sub);
impl_binop!(Mul, mul, try_mul);
impl_binop!(Div, div, try_div);

impl std::ops::Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[Vec<f32>]) -> Tensor {
        Tensor::from_rows(rows).unwrap()
    }

    #[test]
    fn elementwise_same_shape() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        let b = Tensor::vector(&[4.0, 5.0, 6.0]);
        assert_eq!(a.try_add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.try_sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.try_mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.try_div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn row_broadcast() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let bias = Tensor::vector(&[10.0, 20.0]);
        let out = a.try_add(&bias).unwrap();
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcast_rejects_bad_dims() {
        let a = m(&[vec![1.0, 2.0]]);
        let b = Tensor::vector(&[1.0, 2.0, 3.0]);
        assert!(a.try_add(&b).is_err());
    }

    #[test]
    fn operators_match_try_variants() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, -2.0]);
        assert_eq!((&a * &b).as_slice(), &[3.0, 8.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "add")]
    fn operator_panics_on_mismatch() {
        let a = Tensor::vector(&[1.0]);
        let b = Tensor::vector(&[1.0, 2.0]);
        let _ = &a + &b;
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::vector(&[1.0, 2.0]);
        let g = Tensor::vector(&[10.0, 10.0]);
        a.axpy(-0.1, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 1.0]);
        assert!(a.axpy(1.0, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn mul_col_scales_rows() {
        let a = m(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let c = Tensor::vector(&[3.0, 0.5]);
        let out = a.mul_col(&c).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn parallel_bitwise_matches_serial() {
        use crate::parallel::{self, ThreadConfig};
        use crate::rng::Rng64;
        let _guard = parallel::TEST_CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = Rng64::new(11);
        let a = Tensor::from_vec((0..41 * 17).map(|_| rng.normal_f32(0.0, 1.0)).collect(), [41, 17])
            .unwrap();
        let b = Tensor::from_vec((0..41 * 17).map(|_| rng.normal_f32(0.0, 1.0)).collect(), [41, 17])
            .unwrap();
        let row = Tensor::from_vec((0..17).map(|_| rng.normal_f32(0.0, 1.0)).collect(), [17]).unwrap();
        let col = Tensor::from_vec((0..41).map(|_| rng.normal_f32(0.0, 1.0)).collect(), [41]).unwrap();

        let saved = parallel::current();
        parallel::configure(ThreadConfig::serial());
        let mut axpy_serial = a.clone();
        axpy_serial.axpy(0.37, &b).unwrap();
        let serial = (
            a.try_add(&b).unwrap(),
            a.try_mul(&row).unwrap(),
            a.mul_col(&col).unwrap(),
            axpy_serial,
        );
        for threads in [2usize, 3, 5] {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            assert_eq!(a.try_add(&b).unwrap(), serial.0);
            assert_eq!(a.try_mul(&row).unwrap(), serial.1);
            assert_eq!(a.mul_col(&col).unwrap(), serial.2);
            let mut axpy_par = a.clone();
            axpy_par.axpy(0.37, &b).unwrap();
            assert_eq!(axpy_par, serial.3);
        }
        parallel::configure(saved);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        let b = Tensor::vector(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Tensor::zeros([2])).is_err());
    }
}
