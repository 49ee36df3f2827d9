//! 1-D batch normalisation (Ioffe & Szegedy 2015), the paper's §6.1.2
//! choice for the first four layers of the embedding network.

use super::{bands, Layer, Mode};
use pilote_tensor::Tensor;

/// Per-feature batch normalisation over a `[batch, features]` tensor.
///
/// Training mode normalises with batch statistics and maintains running
/// estimates (exponential moving average, PyTorch-compatible `momentum`
/// semantics: `running ← (1−momentum)·running + momentum·batch`). Eval
/// mode normalises with the running estimates.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    // Cached intermediates from the last training-mode forward.
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    /// Per-column `s = 1/√(σ² + ε)` of the statistics the forward used.
    inv_std: Vec<f32>,
    /// Whether the forward ran in training mode (affects backward formula).
    train: bool,
}

impl BatchNorm1d {
    /// New batch-norm over `dim` features with PyTorch-default
    /// `momentum = 0.1`, `eps = 1e-5`.
    pub fn new(dim: usize) -> Self {
        Self::with_params(dim, 0.1, 1e-5)
    }

    /// New batch-norm with explicit momentum and epsilon.
    pub fn with_params(dim: usize, momentum: f32, eps: f32) -> Self {
        BatchNorm1d {
            gamma: Tensor::ones([dim]),
            beta: Tensor::zeros([dim]),
            grad_gamma: Tensor::zeros([dim]),
            grad_beta: Tensor::zeros([dim]),
            running_mean: Tensor::zeros([dim]),
            running_var: Tensor::ones([dim]),
            momentum,
            eps,
            cache: None,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Running mean estimate (for inspection/tests).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance estimate (for inspection/tests).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// The batch mean and population variance of `input`, per column, and
    /// the running-statistics update they feed. The mean is
    /// `(Σx as f32)·(1/n)` and the variance `(Σ(x − μ)² / n) as f32`, each
    /// sum one row-ascending f64 chain: the values of `mean_axis` and
    /// `var_axis`, with the mean taken once.
    fn batch_stats(&mut self, input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, d) = (input.rows(), self.dim());
        let x = input.as_slice();
        let sums = bands::column_sums(n, d, 0.0f64, |i, cols, acc| {
            for (a, &v) in acc.iter_mut().zip(&x[i * d..][cols]) {
                *a += v as f64;
            }
        });
        // An empty batch keeps the zero sums, as `mean_axis` does.
        let mean: Vec<f32> = sums
            .iter()
            .map(|&s| if n == 0 { s as f32 } else { s as f32 * (1.0 / n as f32) })
            .collect();
        let squares = bands::column_sums(n, d, 0.0f64, |i, cols, acc| {
            for ((a, &v), &mu) in acc.iter_mut().zip(&x[i * d..][cols.clone()]).zip(&mean[cols]) {
                let dv = v as f64 - mu as f64;
                *a += dv * dv;
            }
        });
        let denom = n.max(1) as f64;
        let var: Vec<f32> = squares.iter().map(|&s| (s / denom) as f32).collect();

        // Update running stats (unbiased variance, as PyTorch does).
        let unbias = if n > 1 { n as f32 / (n as f32 - 1.0) } else { 1.0 };
        let m = self.momentum;
        for (r, &b) in self.running_mean.as_mut_slice().iter_mut().zip(&mean) {
            *r = (1.0 - m) * *r + m * b;
        }
        for (r, &b) in self.running_var.as_mut_slice().iter_mut().zip(&var) {
            *r = (1.0 - m) * *r + m * b * unbias;
        }
        (mean, var)
    }

    /// The normalising pass: `x̂ = (x − μ)·s` and `y = x̂·γ + β` per
    /// element, in row bands; `x̂` is written over `x`, `y` is returned.
    fn normalise(&self, x: &mut Tensor, mean: &[f32], inv_std: &[f32]) -> Tensor {
        let d = self.dim();
        let (gamma, beta) = (self.gamma.as_slice(), self.beta.as_slice());
        let (mean, s) = (&mean[..d], &inv_std[..d]);
        let mut y = vec![0.0f32; x.len()];
        bands::rows2(&mut y, x.as_mut_slice(), d, |_, y, x| {
            for j in 0..d {
                let h = (x[j] - mean[j]) * s[j];
                x[j] = h;
                y[j] = h * gamma[j] + beta[j];
            }
        });
        Tensor::from_vec(y, x.shape().clone()).expect("bn output")
    }

    /// Per-column `s = 1/√(σ² + ε)`.
    fn inv_std(&self, var: &[f32]) -> Vec<f32> {
        let eps = self.eps;
        var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect()
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(input.clone(), mode)
    }

    /// Writes `x̂` over the moved input and keeps it as the cache.
    fn forward_owned(&mut self, mut input: Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.cols(), self.dim(), "BatchNorm1d: width mismatch");
        let batch = (mode == Mode::Train).then(|| self.batch_stats(&input));
        let (mean, var) = match &batch {
            Some((mean, var)) => (mean.as_slice(), var.as_slice()),
            None => (self.running_mean.as_slice(), self.running_var.as_slice()),
        };
        let inv_std = self.inv_std(var);
        let out = self.normalise(&mut input, mean, &inv_std);
        self.cache = Some(BnCache { x_hat: input, inv_std, train: batch.is_some() });
        out
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        let out = self.forward(input, Mode::Eval);
        self.cache = None;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_owned(grad_output.clone())
    }

    /// Writes dX over the moved gradient, after the column sums that read
    /// dY.
    fn backward_owned(&mut self, mut grad: Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("BatchNorm1d::backward called before forward");
        assert_eq!(grad.shape(), cache.x_hat.shape(), "BatchNorm1d: gradient shape");
        let (m, d) = (grad.rows(), self.dim());
        let x_hat = cache.x_hat.as_slice();
        let (gamma, s) = (&self.gamma.as_slice()[..d], &cache.inv_std[..d]);

        // Per column: Σ dY and Σ dY·x̂, the gradients of β and γ.
        let sums: Vec<[f64; 2]> = if !cache.train {
            let dy = grad.as_slice();
            let sums = bands::column_sums(m, d, [0.0f64; 2], |i, cols, acc| {
                let (dy, x_hat) = (&dy[i * d..][cols.clone()], &x_hat[i * d..][cols]);
                for ((a, &g), &h) in acc.iter_mut().zip(dy).zip(x_hat) {
                    a[0] += g as f64;
                    a[1] += (g * h) as f64;
                }
            });
            // Eval mode: μ and σ² are constants, so dX = (dY·γ)·s.
            bands::rows(grad.as_mut_slice(), d, |_, dy| {
                for j in 0..d {
                    dy[j] = (dy[j] * gamma[j]) * s[j];
                }
            });
            sums
        } else {
            // Training mode — the batch statistics depend on x:
            // dX = (((dx̂·n − Σdx̂) − x̂·Σ(dx̂·x̂))·s)·(1/n), with dx̂ = dY·γ.
            let dy = grad.as_slice();
            let sums = bands::column_sums(m, d, [0.0f64; 4], |i, cols, acc| {
                let gamma = &gamma[cols.clone()];
                let (dy, x_hat) = (&dy[i * d..][cols.clone()], &x_hat[i * d..][cols]);
                for (((a, &g), &h), &gm) in acc.iter_mut().zip(dy).zip(x_hat).zip(gamma) {
                    let dxh = g * gm;
                    a[0] += g as f64;
                    a[1] += (g * h) as f64;
                    a[2] += dxh as f64;
                    a[3] += (dxh * h) as f64;
                }
            });
            let sum_dxh: Vec<f32> = sums.iter().map(|a| a[2] as f32).collect();
            let sum_dxh_xh: Vec<f32> = sums.iter().map(|a| a[3] as f32).collect();
            let (sum_dxh, sum_dxh_xh) = (&sum_dxh[..d], &sum_dxh_xh[..d]);
            let n = m as f32;
            let inv_n = 1.0 / n;
            bands::rows(grad.as_mut_slice(), d, |i, dy| {
                let x_hat = &x_hat[i * d..][..d];
                for j in 0..d {
                    let dxh = dy[j] * gamma[j];
                    dy[j] = (((dxh * n - sum_dxh[j]) - x_hat[j] * sum_dxh_xh[j]) * s[j]) * inv_n;
                }
            });
            sums.iter().map(|&[b, g, _, _]| [b, g]).collect()
        };
        // dβ += Σ dY ; dγ += Σ dY·x̂, each as `g + d`.
        let grads = self.grad_beta.as_mut_slice().iter_mut().zip(self.grad_gamma.as_mut_slice());
        for ((gb, gg), [b, g]) in grads.zip(sums) {
            *gb += b as f32;
            *gg += g as f32;
        }
        grad
    }

    /// Re-indexes `x̂`. After a `Mode::Eval` forward, row `i` of `x̂` is
    /// `(x_i − μ)·s` with the running statistics; after a `Mode::Train`
    /// one, μ and s are the batch's, which saw every row, so this panics.
    fn gather_cache(&mut self, rows: &[usize]) {
        let cache = self.cache.as_mut().expect("BatchNorm1d::gather_cache called before forward");
        assert!(
            !cache.train,
            "BatchNorm1d::gather_cache after a Mode::Train forward: its batch statistics saw every row"
        );
        cache.x_hat =
            cache.x_hat.select_rows(rows).expect("BatchNorm1d::gather_cache: row in range");
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.gamma, &mut self.grad_gamma),
            (&mut self.beta, &mut self.grad_beta),
        ]
    }

    fn name(&self) -> &'static str {
        "BatchNorm1d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_tensor::reduce::Axis;
    use pilote_tensor::Rng64;

    #[test]
    fn train_output_is_standardised() {
        let mut rng = Rng64::new(1);
        let mut bn = BatchNorm1d::new(4);
        let x = Tensor::randn([64, 4], 5.0, 3.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        let mean = y.mean_axis(Axis::Rows).unwrap();
        let var = y.var_axis(Axis::Rows).unwrap();
        for &m in mean.as_slice() {
            assert!(m.abs() < 1e-4, "mean {m}");
        }
        for &v in var.as_slice() {
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm1d::new(2);
        bn.gamma = Tensor::vector(&[2.0, 0.5]);
        bn.beta = Tensor::vector(&[1.0, -1.0]);
        let x = Tensor::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        // x̂ rows are ±1 per feature, so y = γ·(±1) + β.
        assert!((y.at(0, 0) - (-2.0 + 1.0)).abs() < 1e-3);
        assert!((y.at(1, 0) - (2.0 + 1.0)).abs() < 1e-3);
        assert!((y.at(0, 1) - (-0.5 - 1.0)).abs() < 1e-3);
    }

    #[test]
    fn running_stats_converge_to_data_stats() {
        let mut rng = Rng64::new(2);
        let mut bn = BatchNorm1d::new(3);
        for _ in 0..200 {
            let x = Tensor::randn([32, 3], 2.0, 2.0, &mut rng);
            let _ = bn.forward(&x, Mode::Train);
        }
        for &m in bn.running_mean().as_slice() {
            assert!((m - 2.0).abs() < 0.3, "running mean {m}");
        }
        for &v in bn.running_var().as_slice() {
            assert!((v - 4.0).abs() < 0.8, "running var {v}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng64::new(3);
        let mut bn = BatchNorm1d::new(2);
        for _ in 0..100 {
            let x = Tensor::randn([64, 2], 0.0, 1.0, &mut rng);
            let _ = bn.forward(&x, Mode::Train);
        }
        // A constant eval batch should NOT be normalised to zero — the
        // running stats, not the batch stats, apply.
        let x = Tensor::full([4, 2], 10.0);
        let y = bn.forward(&x, Mode::Eval);
        for &v in y.as_slice() {
            assert!(v > 5.0, "eval output {v} should keep the shift");
        }
    }

    #[test]
    fn single_row_batch_does_not_nan() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        assert!(y.all_finite());
        let dx = bn.backward(&Tensor::ones([1, 2]));
        assert!(dx.all_finite());
    }

    #[test]
    fn backward_shapes_match() {
        let mut rng = Rng64::new(4);
        let mut bn = BatchNorm1d::new(5);
        let x = Tensor::randn([7, 5], 0.0, 1.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        let dx = bn.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(bn.grad_gamma.len(), 5);
        assert_eq!(bn.grad_beta.len(), 5);
    }

    // The numeric correctness of the training-mode backward is pinned by the
    // finite-difference tests in `gradcheck`.
}
