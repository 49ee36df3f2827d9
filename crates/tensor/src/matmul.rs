//! Matrix multiplication.
//!
//! All three matrix–matrix products (`matmul`, `matmul_t`, `t_matmul`), and
//! `t_matmul_add_to`, which adds `t_matmul`'s product into a tensor, are
//! thin shape-checking wrappers around the GEMM in [`crate::pack`]. A
//! product whose output is one row block (`m` no taller than the active
//! SIMD tier's register tile) and whose right-hand side is read plain
//! (`matmul`, `t_matmul`) takes the row kernel, which reads B in place: on
//! AVX-512 into a register tile over k-blocks of B, with the partial sums
//! parked in the output between blocks; on the other tiers streaming each
//! row of B into output rows held in L1. Every other product takes the
//! packed, register-tiled kernel: operands are packed into contiguous
//! panels (a transposed operand is just a different packing gather, not a
//! separate loop nest) and each `MR × NR` output tile is accumulated in
//! registers over the full `k` extent. Both paths accumulate each output
//! element in fixed ascending-`k` order with the same `mul`-then-`add`
//! chain (a parked partial sum comes back exactly), so they agree bit for
//! bit. Layout details and the performance model live in
//! `docs/KERNELS.md`.
//!
//! The packed kernel is parallelised over contiguous bands of *output
//! rows* via [`crate::parallel`]; the row kernel runs on the calling
//! thread. Each output element is accumulated in ascending `k` order by
//! exactly one thread, so results are bitwise-identical at every thread
//! count (see `docs/THREADING.md`).
//!
//! Zeros in either operand are **not** skipped: `0 · NaN` must stay `NaN`
//! and `0 · ∞` must stay `NaN`, so a non-finite value planted in one
//! operand propagates to the product no matter what the other operand
//! holds (regression-tested below).

use crate::error::TensorError;
use crate::pack::{self, Epilogue, Operand};
use crate::parallel;
use crate::tensor::Tensor;
use crate::Result;
use pilote_obs::work::{self, KernelKind};

/// The pre-PR serial `i-k-j` loop (KB=64 k-blocking, zero-skip removed),
/// kept as the measurement baseline for `repro kernels` and the ci.sh
/// kernels gate: the packed kernel must never be slower than this loop on
/// the committed reference shape. Serial, unrecorded (no flop accounting),
/// not part of the public API.
#[doc(hidden)]
pub fn matmul_unpacked_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 || a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().dims().to_vec(),
            right: b.shape().dims().to_vec(),
            op: "matmul_unpacked_reference",
        });
    }
    const KB: usize = 64;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        for i in 0..m {
            let a_row = &av[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for kk in k0..k1 {
                let aik = a_row[kk];
                let b_row = &bv[kk * n..(kk + 1) * n];
                for (o, &bvj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bvj;
                }
            }
        }
    }
    Tensor::from_vec(out, [m, n])
}

impl Tensor {
    /// Matrix product `self @ other` for rank-2 operands.
    ///
    /// ```
    /// use pilote_tensor::Tensor;
    /// let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
    /// let b = Tensor::eye(2);
    /// assert_eq!(a.matmul(&b).unwrap(), a);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { got: self.rank(), expected: 2, op: "matmul" });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch { got: other.rank(), expected: 2, op: "matmul" });
        }
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
                op: "matmul",
            });
        }
        // Shape-derived work estimate, recorded on the dispatching thread
        // before any band fan-out (see docs/OBSERVABILITY.md).
        work::record(KernelKind::MatMul, 2 * (m as u64) * (n as u64) * (k as u64));
        let mut out = vec![0.0f32; m * n];
        let threads = parallel::effective_threads(m * n * k);
        pack::gemm(
            Operand::plain(self.as_slice(), k),
            Operand::plain(other.as_slice(), n),
            (m, k, n),
            threads,
            Epilogue::None,
            &mut out,
        );
        Tensor::from_vec(out, [m, n])
    }

    /// `self @ otherᵀ` without materialising the transpose.
    ///
    /// This is the hot pattern in backprop (`dX = dY @ Wᵀ`) and in pairwise
    /// distance computations (`X @ Yᵀ`); the transpose is absorbed into the
    /// B-panel packing gather.
    ///
    /// ```
    /// use pilote_tensor::Tensor;
    /// let a = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
    /// let b = Tensor::from_rows(&[vec![3.0, 4.0]]).unwrap();
    /// // a @ bᵀ is [2, 1]: the dot of each row of `a` with the row of `b`.
    /// assert_eq!(a.matmul_t(&b).unwrap().as_slice(), &[3.0, 8.0]);
    /// ```
    pub fn matmul_t(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                got: if self.rank() != 2 { self.rank() } else { other.rank() },
                expected: 2,
                op: "matmul_t",
            });
        }
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
                op: "matmul_t",
            });
        }
        work::record(KernelKind::MatMulT, 2 * (m as u64) * (n as u64) * (k as u64));
        let mut out = vec![0.0f32; m * n];
        let threads = parallel::effective_threads(m * n * k);
        pack::gemm(
            Operand::plain(self.as_slice(), k),
            Operand::transposed(other.as_slice(), k),
            (m, k, n),
            threads,
            Epilogue::None,
            &mut out,
        );
        Tensor::from_vec(out, [m, n])
    }

    /// `selfᵀ @ other` without materialising the transpose.
    ///
    /// Backprop's weight-gradient pattern (`dW = Xᵀ @ dY`); the transpose
    /// is absorbed into the A-panel packing gather, or into the row
    /// kernel's reads of A when the output is one row block.
    pub fn t_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = self.t_matmul_dims(other)?;
        let mut out = vec![0.0f32; m * n];
        self.t_matmul_gemm(other, (m, k, n), Epilogue::None, &mut out);
        Tensor::from_vec(out, [m, n])
    }

    /// Adds `selfᵀ @ other` into `acc` in place: each element becomes
    /// `acc + dot`, bit for bit `acc.axpy(1.0, &self.t_matmul(other)?)`,
    /// without the product-sized temporary. The accumulation happens in
    /// the GEMM's store of each finished tile; the flops charged are
    /// [`Tensor::t_matmul`]'s.
    ///
    /// ```
    /// use pilote_tensor::Tensor;
    /// let x = Tensor::from_rows(&[vec![1.0, 2.0]]).unwrap();
    /// let dy = Tensor::from_rows(&[vec![3.0]]).unwrap();
    /// let mut grad = Tensor::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
    /// x.t_matmul_add_to(&dy, &mut grad).unwrap();
    /// assert_eq!(grad.as_slice(), &[4.0, 7.0]);
    /// ```
    pub fn t_matmul_add_to(&self, other: &Tensor, acc: &mut Tensor) -> Result<()> {
        let (m, k, n) = self.t_matmul_dims(other)?;
        if acc.shape().dims() != [m, n] {
            return Err(TensorError::ShapeMismatch {
                left: vec![m, n],
                right: acc.shape().dims().to_vec(),
                op: "t_matmul_add_to",
            });
        }
        self.t_matmul_gemm(other, (m, k, n), Epilogue::Accumulate, acc.as_mut_slice());
        Ok(())
    }

    /// `(m, k, n)` of `selfᵀ @ other` for `self: [k, m]`, `other: [k, n]`.
    fn t_matmul_dims(&self, other: &Tensor) -> Result<(usize, usize, usize)> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                got: if self.rank() != 2 { self.rank() } else { other.rank() },
                expected: 2,
                op: "t_matmul",
            });
        }
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
                op: "t_matmul",
            });
        }
        Ok((m, k, n))
    }

    /// Charges and runs `selfᵀ @ other` into `out` through `epilogue`.
    fn t_matmul_gemm(
        &self,
        other: &Tensor,
        (m, k, n): (usize, usize, usize),
        epilogue: Epilogue<'_>,
        out: &mut [f32],
    ) {
        work::record(KernelKind::TMatMul, 2 * (m as u64) * (n as u64) * (k as u64));
        let threads = parallel::effective_threads(m * n * k);
        pack::gemm(
            Operand::transposed(self.as_slice(), m),
            Operand::plain(other.as_slice(), n),
            (m, k, n),
            threads,
            epilogue,
            out,
        );
    }

    /// Matrix–vector product `self @ v` for a rank-2 `self` and rank-1 `v`.
    ///
    /// ```
    /// use pilote_tensor::Tensor;
    /// let a = Tensor::eye(3);
    /// let v = Tensor::vector(&[1.0, 2.0, 3.0]);
    /// assert_eq!(a.matvec(&v).unwrap().as_slice(), &[1.0, 2.0, 3.0]);
    /// ```
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 || v.rank() != 1 || self.cols() != v.len() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: v.shape().dims().to_vec(),
                op: "matvec",
            });
        }
        let (m, k) = (self.rows(), self.cols());
        work::record(KernelKind::MatVec, 2 * (m as u64) * (k as u64));
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![0.0f32; m];
        let threads = parallel::effective_threads(m * k);
        parallel::for_each_band(&mut out, 1, threads, |i0, band| {
            for (off, o) in band.iter_mut().enumerate() {
                let i = i0 + off;
                let row = &a[i * k..(i + 1) * k];
                *o = row.iter().zip(x).map(|(&p, &q)| p * q).sum();
            }
        });
        Tensor::from_vec(out, [m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random(rng: &mut Rng64, r: usize, c: usize) -> Tensor {
        let data: Vec<f32> = (0..r * c).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        Tensor::from_vec(data, [r, c]).unwrap()
    }

    /// Reference O(n³) triple loop.
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(i, kk) * b.at(kk, j);
                }
                out.set(&[i, j], acc).unwrap();
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matches_naive_on_odd_sizes() {
        let mut rng = Rng64::new(1);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 33, 9), (70, 65, 130)] {
            let a = random(&mut rng, m, k);
            let b = random(&mut rng, k, n);
            let fast = a.matmul(&b).unwrap();
            let slow = naive(&a, &b);
            assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3, "size ({m},{k},{n})");
        }
    }

    #[test]
    fn packed_is_bitwise_identical_to_unpacked_reference() {
        // The register-tiled kernel performs, per output element, the same
        // ascending-k mul/add chain as the pre-PR loop — so the rewrite
        // must be invisible at the bit level, not just within tolerance.
        let mut rng = Rng64::new(9);
        for &(m, k, n) in &[(3, 5, 2), (17, 64, 9), (33, 65, 37), (70, 63, 130)] {
            let a = random(&mut rng, m, k);
            let b = random(&mut rng, k, n);
            let packed = a.matmul(&b).unwrap();
            let reference = matmul_unpacked_reference(&a, &b).unwrap();
            assert_eq!(packed.as_slice(), reference.as_slice(), "size ({m},{k},{n})");
        }
    }

    /// `t_matmul_add_to` stores what `axpy(1.0, …)` of `t_matmul` stores,
    /// in every bit and NaN payload, where the product is one row block
    /// (the plain product takes the row kernel, the accumulating one the
    /// packed tiles) and where it is taller, at 1 and 3 threads. A NaN in
    /// A meets a NaN of another payload in the accumulator.
    #[test]
    fn t_matmul_add_to_equals_axpy_of_the_product() {
        use crate::parallel::{self, ThreadConfig};
        let _guard = parallel::TEST_CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = parallel::current();
        let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng64::new(13);
        for threads in [1usize, 3] {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            for (m, k, n) in [(1, 5, 7), (3, 9, 40), (17, 33, 9), (70, 65, 130), (4, 0, 3)] {
                let mut a = random(&mut rng, k, m);
                let b = random(&mut rng, k, n);
                let mut acc = random(&mut rng, m, n);
                if k > 0 {
                    a.as_mut_slice()[0] = nan(0x22);
                    acc.as_mut_slice()[n - 1] = nan(0x11);
                }
                let mut want = acc.clone();
                want.axpy(1.0, &a.t_matmul(&b).unwrap()).unwrap();
                a.t_matmul_add_to(&b, &mut acc).unwrap();
                assert_eq!(bits(&acc), bits(&want), "({m},{k},{n}) at {threads} threads");
            }
        }
        parallel::configure(saved);
        let mut wrong = Tensor::zeros([2, 2]);
        assert!(Tensor::zeros([3, 2]).t_matmul_add_to(&Tensor::zeros([3, 3]), &mut wrong).is_err());
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let mut rng = Rng64::new(2);
        let a = random(&mut rng, 13, 7);
        let b = random(&mut rng, 11, 7);
        let fast = a.matmul_t(&b).unwrap();
        let reference = a.matmul(&b.transpose().unwrap()).unwrap();
        assert!(fast.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let mut rng = Rng64::new(3);
        let a = random(&mut rng, 9, 14);
        let b = random(&mut rng, 9, 6);
        let fast = a.t_matmul(&b).unwrap();
        let reference = a.transpose().unwrap().matmul(&b).unwrap();
        assert!(fast.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Rng64::new(4);
        let a = random(&mut rng, 8, 5);
        let v = Tensor::vector(&[1.0, -1.0, 0.5, 2.0, 0.0]);
        let got = a.matvec(&v).unwrap();
        let reference = a.matmul(&v.reshape([5, 1]).unwrap()).unwrap();
        for i in 0..8 {
            assert!((got.as_slice()[i] - reference.at(i, 0)).abs() < 1e-5);
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 5]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul_t(&b).is_err());
        assert!(a.t_matmul(&b).is_err());
        assert!(a.matvec(&Tensor::zeros([4])).is_err());
        assert!(matmul_unpacked_reference(&a, &b).is_err());
        let v = Tensor::zeros([3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng64::new(5);
        let a = random(&mut rng, 6, 6);
        let i = Tensor::eye(6);
        assert!(a.matmul(&i).unwrap().max_abs_diff(&a).unwrap() < 1e-6);
        assert!(i.matmul(&a).unwrap().max_abs_diff(&a).unwrap() < 1e-6);
    }

    /// Regression for the zero-skip bug: a NaN planted in one operand must
    /// propagate to the product even when the *other* operand is zero at
    /// every coefficient that touches it (`0 · NaN = NaN`). The old
    /// `matmul_band`/`t_matmul` loops skipped the update when `aik == 0`,
    /// silently masking the NaN.
    #[test]
    fn nan_propagates_through_every_kernel() {
        let m = 5;
        let k = 7;
        let n = 6;
        // A is all zeros — the exact shape of the old skip.
        let a = Tensor::zeros([m, k]);
        let mut b = Tensor::zeros([k, n]);
        b.set(&[3, 2], f32::NAN).unwrap();

        // matmul: column 2 of the product must be NaN in every row.
        let c = a.matmul(&b).unwrap();
        for i in 0..m {
            assert!(c.at(i, 2).is_nan(), "matmul row {i}");
            assert_eq!(c.at(i, 0), 0.0);
        }

        // matmul_t: B is [n, k] with a NaN in row 4 → column 4 all NaN.
        let mut bt = Tensor::zeros([n, k]);
        bt.set(&[4, 3], f32::NAN).unwrap();
        let c = a.matmul_t(&bt).unwrap();
        for i in 0..m {
            assert!(c.at(i, 4).is_nan(), "matmul_t row {i}");
            assert_eq!(c.at(i, 0), 0.0);
        }

        // t_matmul: A is [k, m] all-zero, NaN in B row 3 → column 2 all NaN.
        let at = Tensor::zeros([k, m]);
        let c = at.t_matmul(&b).unwrap();
        for i in 0..m {
            assert!(c.at(i, 2).is_nan(), "t_matmul row {i}");
            assert_eq!(c.at(i, 0), 0.0);
        }

        // matvec: NaN in v reaches every output element.
        let mut v = Tensor::zeros([k]);
        v.as_mut_slice()[1] = f32::NAN;
        let c = a.matvec(&v).unwrap();
        for i in 0..m {
            assert!(c.as_slice()[i].is_nan(), "matvec row {i}");
        }

        // And the unpacked measurement baseline agrees with the packed
        // kernel on the same poisoned inputs.
        let reference = matmul_unpacked_reference(&a, &b).unwrap();
        let packed = a.matmul(&b).unwrap();
        assert_eq!(
            packed.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            reference.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
    }

    /// Same guarantee for infinities: `0 · ∞ = NaN`, never silently 0.
    #[test]
    fn infinity_is_not_masked_by_zeros() {
        let a = Tensor::zeros([2, 3]);
        let mut b = Tensor::zeros([3, 2]);
        b.set(&[1, 1], f32::INFINITY).unwrap();
        let c = a.matmul(&b).unwrap();
        for i in 0..2 {
            assert!(c.at(i, 1).is_nan(), "0·∞ must be NaN, row {i}");
        }
    }

    /// Parallel and serial paths must agree bit for bit, for every kernel
    /// in the matmul family, at several thread counts.
    #[test]
    fn parallel_bitwise_matches_serial() {
        use crate::parallel::{self, ThreadConfig};
        let _guard = parallel::TEST_CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = Rng64::new(6);
        let a = random(&mut rng, 37, 53);
        let b = random(&mut rng, 53, 29);
        let bt = random(&mut rng, 29, 53);
        let v = random(&mut rng, 1, 53).reshape([53]).unwrap();

        let saved = parallel::current();
        parallel::configure(ThreadConfig::serial());
        let serial = (
            a.matmul(&b).unwrap(),
            a.matmul_t(&bt).unwrap(),
            a.t_matmul(&a).unwrap(),
            a.matvec(&v).unwrap(),
        );
        for threads in [2usize, 3, 4] {
            // Threshold 0 forces the parallel path even on tiny inputs.
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            assert_eq!(a.matmul(&b).unwrap().as_slice(), serial.0.as_slice());
            assert_eq!(a.matmul_t(&bt).unwrap().as_slice(), serial.1.as_slice());
            assert_eq!(a.t_matmul(&a).unwrap().as_slice(), serial.2.as_slice());
            assert_eq!(a.matvec(&v).unwrap().as_slice(), serial.3.as_slice());
        }
        parallel::configure(saved);
    }
}
