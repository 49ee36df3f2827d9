//! Fully connected (affine) layer.

use super::{bands, Layer, Mode};
use pilote_tensor::{Rng64, Tensor};
use pilote_tensor::reduce::Axis;

/// `y = x W + b` with `W: [in, out]`, `b: [out]`.
///
/// Weights use Kaiming-normal initialisation (the network body is ReLU),
/// biases start at zero.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// New layer mapping `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        Self::with_weight(Tensor::kaiming_normal(in_dim, out_dim, rng))
    }

    /// Layer mapping `in_dim → out_dim` with all-zero weights: the frame a
    /// checkpoint is restored into, with no initialisation draws to
    /// overwrite.
    pub fn zeroed(in_dim: usize, out_dim: usize) -> Self {
        Self::with_weight(Tensor::zeros([in_dim, out_dim]))
    }

    fn with_weight(weight: Tensor) -> Self {
        let out_dim = weight.cols();
        Dense {
            grad_weight: Tensor::zeros(weight.shape().clone()),
            weight,
            bias: Tensor::zeros([out_dim]),
            grad_bias: Tensor::zeros([out_dim]),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Read-only view of the weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Read-only view of the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// `x W + b`, the bias added in place on the product: `dot + b` per
    /// element, in row bands.
    fn affine(&self, input: &Tensor) -> Tensor {
        debug_assert_eq!(input.cols(), self.in_dim(), "Dense: input width mismatch");
        let mut y = input.matmul(&self.weight).expect("shape checked above");
        let bias = self.bias.as_slice();
        bands::rows(y.as_mut_slice(), bias.len(), |_, row| {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        });
        y
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(input.clone(), mode)
    }

    /// Keeps the moved input as the cache `backward` reads.
    fn forward_owned(&mut self, input: Tensor, _mode: Mode) -> Tensor {
        let y = self.affine(&input);
        self.cached_input = Some(input);
        y
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = None;
        self.affine(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        // dW += xᵀ dY, added inside the GEMM
        x.t_matmul_add_to(grad_output, &mut self.grad_weight).expect("dW shape");
        // db += column sums of dY
        let db = grad_output.sum_axis(Axis::Rows).expect("db shape");
        self.grad_bias.axpy(1.0, &db).expect("db accumulate");
        // dX = dY Wᵀ
        grad_output.matmul_t(&self.weight).expect("dX shape")
    }

    /// Re-indexes the cached input: `x W + b` reads row `i` of `x` alone.
    fn gather_cache(&mut self, rows: &[usize]) {
        let x = self.cached_input.as_ref().expect("Dense::gather_cache called before forward");
        self.cached_input = Some(x.select_rows(rows).expect("Dense::gather_cache: row in range"));
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.weight, &mut self.grad_weight),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = Rng64::new(1);
        let mut layer = Dense::new(2, 3, &mut rng);
        // Overwrite with known values.
        layer.weight = Tensor::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, -1.0]]).unwrap();
        layer.bias = Tensor::vector(&[0.5, -0.5, 0.0]);
        let x = Tensor::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let y = layer.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[1.5, 1.5, 0.0]);
    }

    #[test]
    fn backward_gradients_match_manual() {
        let mut rng = Rng64::new(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.weight = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        layer.bias = Tensor::zeros([2]);
        let x = Tensor::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.0]]).unwrap();
        let _ = layer.forward(&x, Mode::Train);
        let dy = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let dx = layer.backward(&dy);
        // dX = dY Wᵀ
        assert_eq!(dx.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        // dW = xᵀ dY = [[1,2],[1,0]]
        assert_eq!(layer.grad_weight.as_slice(), &[1.0, 2.0, 1.0, 0.0]);
        // db = [1, 1]
        assert_eq!(layer.grad_bias.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn backward_accumulates_until_zero_grad() {
        let mut rng = Rng64::new(3);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn([4, 3], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train);
        let dy = Tensor::ones(y.shape().clone());
        layer.backward(&dy);
        let g1 = layer.grad_weight.clone();
        let _ = layer.forward(&x, Mode::Train);
        layer.backward(&dy);
        let doubled = g1.scale(2.0);
        assert!(layer.grad_weight.max_abs_diff(&doubled).unwrap() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let mut rng = Rng64::new(4);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.backward(&Tensor::zeros([1, 2]));
    }
}
