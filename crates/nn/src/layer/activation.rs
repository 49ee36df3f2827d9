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
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let d = width(input);
        let x = input.as_slice();
        let mut y = vec![0.0f32; x.len()];
        let mut mask = vec![false; x.len()];
        bands::rows2(&mut y, &mut mask, d, |i, y, mask| {
            for ((o, m), &v) in y.iter_mut().zip(mask).zip(&x[i * d..][..d]) {
                *o = v.max(0.0);
                *m = v > 0.0;
            }
        });
        self.mask = Some(mask);
        Tensor::from_vec(y, input.shape().clone()).expect("relu output")
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        let out = self.forward(input, Mode::Eval);
        self.mask = None;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("ReLU::backward called before forward");
        assert_eq!(grad_output.len(), mask.len(), "ReLU mask shape");
        let d = width(grad_output);
        let dy = grad_output.as_slice();
        let mut dx = vec![0.0f32; dy.len()];
        // Masked by multiplying, not by selecting: a masked ±∞ or NaN
        // gives NaN and a masked −1 gives −0.0.
        bands::rows(&mut dx, d, |i, dx| {
            let (dy, mask) = (&dy[i * d..][..d], &mask[i * d..][..d]);
            for ((o, &g), &m) in dx.iter_mut().zip(dy).zip(mask) {
                *o = g * if m { 1.0 } else { 0.0 };
            }
        });
        Tensor::from_vec(dx, grad_output.shape().clone()).expect("relu dX")
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
