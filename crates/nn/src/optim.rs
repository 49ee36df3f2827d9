//! Optimizers.
//!
//! An optimizer walks the `(parameter, gradient)` pairs a [`Layer`] exposes
//! (stable order) and applies its update rule, keeping any per-parameter
//! state (Adam's moments) keyed by position.

use crate::layer::Layer;
use pilote_tensor::Tensor;

/// A first-order optimizer over a layer's parameters.
pub trait Optimizer {
    /// Applies one update step with learning rate `lr`, then leaves the
    /// gradients untouched (call [`Layer::zero_grad`] before the next
    /// accumulation).
    fn step(&mut self, model: &mut dyn Layer, lr: f32);

    /// Resets all internal state (moments, step counters).
    fn reset(&mut self);
}

/// Adam (Kingma & Ba 2015) — the paper's optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the canonical defaults `β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e-8`.
    pub fn new() -> Self {
        Self::with_params(0.9, 0.999, 1e-8)
    }

    /// Adam with explicit hyper-parameters.
    pub fn with_params(beta1: f32, beta2: f32, eps: f32) -> Self {
        Adam { beta1, beta2, eps, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        let pairs = model.params_and_grads();
        if self.m.is_empty() {
            self.m = pairs.iter().map(|(p, _)| Tensor::zeros(p.shape().clone())).collect();
            self.v = pairs.iter().map(|(p, _)| Tensor::zeros(p.shape().clone())).collect();
        }
        assert_eq!(self.m.len(), pairs.len(), "optimizer bound to a different model");
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (i, (param, grad)) in pairs.into_iter().enumerate() {
            let m = self.m[i].as_mut_slice();
            let v = self.v[i].as_mut_slice();
            let p = param.as_mut_slice();
            for ((pj, &gj), (mj, vj)) in
                p.iter_mut().zip(grad.as_slice()).zip(m.iter_mut().zip(v.iter_mut()))
            {
                *mj = self.beta1 * *mj + (1.0 - self.beta1) * gj;
                *vj = self.beta2 * *vj + (1.0 - self.beta2) * gj * gj;
                let m_hat = *mj / bias1;
                let v_hat = *vj / bias2;
                *pj -= lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Mode, Sequential};
    use crate::loss::mse_loss;
    use pilote_tensor::Rng64;

    /// Trains y = 2x on a one-weight linear model and returns the final
    /// loss, which a working optimizer drives to ~0.
    fn converges(opt: &mut dyn Optimizer, lr: f32) -> f32 {
        let mut rng = Rng64::new(1);
        let mut net = Sequential::new().push(Dense::new(1, 1, &mut rng));
        let x = Tensor::from_rows(&[vec![1.0], vec![2.0], vec![-1.0], vec![0.5]]).unwrap();
        let y = x.scale(2.0);
        let mut last = f32::MAX;
        for _ in 0..500 {
            net.zero_grad();
            let pred = net.forward(&x, Mode::Train);
            let (loss, grad) = mse_loss(&pred, &y).unwrap();
            net.backward(&grad);
            opt.step(&mut net, lr);
            last = loss;
        }
        last
    }

    #[test]
    fn adam_converges() {
        assert!(converges(&mut Adam::new(), 0.05) < 1e-5);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the very first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        let mut rng = Rng64::new(2);
        let mut net = Sequential::new().push(Dense::new(1, 1, &mut rng));
        let before = net.state_dict();
        let x = Tensor::from_rows(&[vec![1.0]]).unwrap();
        let target = Tensor::from_rows(&[vec![100.0]]).unwrap();
        net.zero_grad();
        let pred = net.forward(&x, Mode::Train);
        let (_, grad) = mse_loss(&pred, &target).unwrap();
        net.backward(&grad);
        let mut adam = Adam::new();
        adam.step(&mut net, 0.01);
        let after = net.state_dict();
        let delta = (before[0].as_slice()[0] - after[0].as_slice()[0]).abs();
        assert!((delta - 0.01).abs() < 1e-3, "delta {delta}");
    }

    #[test]
    fn reset_clears_state() {
        let mut adam = Adam::new();
        let mut rng = Rng64::new(4);
        let mut net = Sequential::new().push(Dense::new(1, 1, &mut rng));
        let x = Tensor::from_rows(&[vec![1.0]]).unwrap();
        net.zero_grad();
        let pred = net.forward(&x, Mode::Train);
        let (_, grad) = mse_loss(&pred, &Tensor::zeros([1, 1])).unwrap();
        net.backward(&grad);
        adam.step(&mut net, 0.01);
        assert!(adam.t > 0);
        adam.reset();
        assert_eq!(adam.t, 0);
        assert!(adam.m.is_empty());
    }
}
