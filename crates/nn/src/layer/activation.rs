//! Activation layers.

use super::{bands, Layer, Mode};
use pilote_tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)` (Nair & Hinton 2010) — the
/// paper's activation for the first four layers.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    /// Which inputs of the last forward were positive, one flag per element.
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Row width for banding an element-wise pass over `t`: its last axis.
fn width(t: &Tensor) -> usize {
    t.shape().dims().last().copied().unwrap_or(1)
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(input.clone(), mode)
    }

    /// Writes `max(0, x)` over the moved input.
    fn forward_owned(&mut self, mut input: Tensor, _mode: Mode) -> Tensor {
        let d = width(&input);
        let mut mask = vec![false; input.len()];
        bands::rows2(input.as_mut_slice(), &mut mask, d, |_, x, mask| {
            for (v, m) in x.iter_mut().zip(mask) {
                *m = *v > 0.0;
                *v = v.max(0.0);
            }
        });
        self.mask = Some(mask);
        input
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        let out = self.forward(input, Mode::Eval);
        self.mask = None;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_owned(grad_output.clone())
    }

    /// Masks the moved gradient in place.
    fn backward_owned(&mut self, mut grad: Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("ReLU::backward called before forward");
        assert_eq!(grad.len(), mask.len(), "ReLU mask shape");
        let d = width(&grad);
        // Masked by multiplying, not by selecting: a masked ±∞ or NaN
        // gives NaN and a masked −1 gives −0.0.
        bands::rows(grad.as_mut_slice(), d, |i, dx| {
            for (g, &m) in dx.iter_mut().zip(&mask[i * d..][..d]) {
                *g *= if m { 1.0 } else { 0.0 };
            }
        });
        grad
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::vector(&[-1.0, 0.0, 2.0]);
        let y = relu.forward(&x.reshape([1, 3]).unwrap(), Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_rows(&[vec![-1.0, 3.0, 0.0]]).unwrap();
        let _ = relu.forward(&x, Mode::Train);
        let dx = relu.backward(&Tensor::from_rows(&[vec![5.0, 5.0, 5.0]]).unwrap());
        // Subgradient at exactly zero is taken as 0.
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn no_parameters() {
        let mut relu = ReLU::new();
        assert!(relu.params_and_grads().is_empty());
        assert_eq!(relu.param_count(), 0);
    }
}
