//! Neural-network layers with cached-activation analytic backprop.
//!
//! The [`Layer`] trait is deliberately imperative: `forward` caches whatever
//! the matching `backward` needs, and `backward` *accumulates* parameter
//! gradients (so gradient contributions from several loss terms — e.g.
//! PILOTE's distillation + contrastive joint objective — can be summed by
//! simply calling `backward` more than once before the optimizer step).
//!
//! A forward that nothing will backpropagate goes through [`Layer::infer`]
//! instead: it computes what `forward(x, Mode::Eval)` computes, bit for
//! bit, but leaves no caches behind, dropping the ones the layer held, so
//! a `backward` after it panics "called before forward" rather than
//! backpropagating a stale batch. Serving, prototype refreshes and quality
//! probes take this path. `Mode::Eval` cannot be the signal, because edge
//! updates backpropagate through eval-mode batch normalisation.
//!
//! [`Sequential`] moves each activation and gradient to the next layer
//! ([`Layer::forward_owned`], [`Layer::backward_owned`]): `Dense` keeps its
//! input as its cache, `BatchNorm1d` writes `x̂` over its input and dX over
//! its gradient, and `ReLU` works in place, so a training step copies no
//! activation.
//!
//! The element-wise passes around each GEMM — batch normalisation, ReLU
//! and the bias add — write only their outputs and what `backward` needs,
//! in the bands of `docs/THREADING.md`; `docs/KERNELS.md` ("The passes
//! around the GEMM") gives what each writes and the expressions that keep
//! every bit.

mod activation;
mod bands;
mod batchnorm;
mod dense;
mod sequential;

pub use activation::ReLU;
pub use batchnorm::BatchNorm1d;
pub use dense::Dense;
pub use sequential::Sequential;

use pilote_tensor::Tensor;

/// Forward-pass mode: training (batch statistics) or evaluation (running
/// statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training mode.
    Train,
    /// Inference mode.
    Eval,
}

/// A differentiable module.
///
/// Contract:
/// * `forward` must be called before `backward`; `backward` consumes the
///   cached activations of the most recent `forward`.
/// * `forward_owned` and `backward_owned` are `forward` and `backward` on
///   a tensor the caller no longer needs: same outputs, same caches, same
///   gradients, bit for bit. In `Dense`, `BatchNorm1d` and `ReLU`, where
///   owning the tensor saves a copy (each forward, and the backward of the
///   last two), the owned form is the only body and the borrowed form
///   copies the tensor into it.
/// * `infer` returns `forward(x, Mode::Eval)`'s output bit for bit. In
///   this crate's layers it leaves no caches behind, so a `backward`
///   right after it panics.
/// * `backward` **adds** into the parameter gradients; call [`Layer::zero_grad`]
///   before accumulating a fresh optimizer step.
/// * `params_and_grads` yields `(parameter, gradient)` pairs in a stable
///   order; optimizers key their per-parameter state on that order.
pub trait Layer: Send {
    /// Computes the layer output, caching intermediates for `backward`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Inference: the output of `forward(input, Mode::Eval)`, for callers
    /// that never backpropagate. Leaves no caches behind: drops any the
    /// layer holds. The default runs `forward` itself and so leaves its
    /// caches; every layer of this crate overrides it.
    fn infer(&mut self, input: &Tensor) -> Tensor {
        self.forward(input, Mode::Eval)
    }

    /// [`Layer::forward`] on an input the caller hands over, so the layer
    /// may keep it as its cache or write over it instead of copying it.
    /// Returns `forward(&input, mode)`'s output bit for bit. The default
    /// borrows the input.
    fn forward_owned(&mut self, input: Tensor, mode: Mode) -> Tensor {
        self.forward(&input, mode)
    }

    /// Propagates `grad_output` (∂loss/∂output) back, returning
    /// ∂loss/∂input and accumulating parameter gradients.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// [`Layer::backward`] on a gradient the caller hands over, so the
    /// layer may write ∂loss/∂input over it. Returns and accumulates what
    /// `backward(&grad_output)` does, bit for bit. The default borrows the
    /// gradient.
    fn backward_owned(&mut self, grad_output: Tensor) -> Tensor {
        self.backward(&grad_output)
    }

    /// Mutable `(parameter, gradient)` pairs in stable order.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)>;

    /// Clears all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        for (_, g) in self.params_and_grads() {
            g.as_mut_slice().fill(0.0);
        }
    }

    /// Number of trainable scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params_and_grads().iter().map(|(p, _)| p.len()).sum()
    }

    /// Human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Clones the layer into a boxed trait object (a deep copy, e.g. a
    /// frozen teacher).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_tensor::Rng64;

    #[test]
    fn boxed_layer_clone_is_deep() {
        let mut rng = Rng64::new(1);
        let layer: Box<dyn Layer> = Box::new(Dense::new(3, 2, &mut rng));
        let mut copy = layer.clone();
        // Mutating the copy's parameters must not affect the original.
        for (p, _) in copy.params_and_grads() {
            p.as_mut_slice().fill(9.0);
        }
        let mut original = layer;
        let untouched = original
            .params_and_grads()
            .iter()
            .all(|(p, _)| p.as_slice().iter().all(|&v| v != 9.0));
        assert!(untouched);
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = Rng64::new(2);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn([5, 4], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train);
        layer.backward(&Tensor::ones(y.shape().clone()));
        assert!(layer.params_and_grads().iter().any(|(_, g)| g.sq_norm() > 0.0));
        layer.zero_grad();
        assert!(layer.params_and_grads().iter().all(|(_, g)| g.sq_norm() == 0.0));
    }

    #[test]
    fn param_count_dense() {
        let mut rng = Rng64::new(3);
        let mut layer = Dense::new(10, 7, &mut rng);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }
}
