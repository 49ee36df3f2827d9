//! Layer composition.

use super::{Layer, Mode};
use pilote_tensor::Tensor;

/// An ordered stack of layers applied front-to-back.
///
/// `Sequential` is itself a [`Layer`], so stacks nest. Cloning produces a
/// deep copy, e.g. the frozen teacher of a distillation baseline.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Snapshot of all parameter tensors (deep copies, stable order).
    pub fn state_dict(&mut self) -> Vec<Tensor> {
        self.params_and_grads().into_iter().map(|(p, _)| p.clone()).collect()
    }

    /// One-line architecture summary, e.g.
    /// `Dense→BatchNorm1d→ReLU→Dense (123k params)`.
    pub fn summary(&mut self) -> String {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        let count = self.param_count();
        format!("{} ({} params)", names.join("→"), count)
    }
}

/// Threads `input` through `layers` in the order given: the first layer
/// borrows it, `first(layer, input)`, and each later one takes the output
/// before it, `step(layer, x)`. The input is copied only when there are no
/// layers.
fn chain<'a>(
    mut layers: impl Iterator<Item = &'a mut Box<dyn Layer>>,
    input: &Tensor,
    first: impl FnOnce(&mut dyn Layer, &Tensor) -> Tensor,
    mut step: impl FnMut(&mut dyn Layer, Tensor) -> Tensor,
) -> Tensor {
    match layers.next() {
        Some(layer) => layers.fold(first(layer.as_mut(), input), |x, l| step(l.as_mut(), x)),
        None => input.clone(),
    }
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential { layers: self.layers.clone() }
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        chain(
            self.layers.iter_mut(),
            input,
            |layer, x| layer.forward(x, mode),
            |layer, x| layer.forward_owned(x, mode),
        )
    }

    fn forward_owned(&mut self, input: Tensor, mode: Mode) -> Tensor {
        self.layers.iter_mut().fold(input, |x, layer| layer.forward_owned(x, mode))
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        chain(self.layers.iter_mut(), input, |layer, x| layer.infer(x), |layer, x| layer.infer(&x))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        chain(
            self.layers.iter_mut().rev(),
            grad_output,
            |layer, g| layer.backward(g),
            |layer, g| layer.backward_owned(g),
        )
    }

    fn backward_owned(&mut self, grad_output: Tensor) -> Tensor {
        self.layers.iter_mut().rev().fold(grad_output, |g, layer| layer.backward_owned(g))
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{BatchNorm1d, Dense, ReLU};
    use pilote_tensor::Rng64;

    fn small_net(rng: &mut Rng64) -> Sequential {
        Sequential::new()
            .push(Dense::new(4, 8, rng))
            .push(BatchNorm1d::new(8))
            .push(ReLU::new())
            .push(Dense::new(8, 3, rng))
    }

    #[test]
    fn forward_shape_flows_through() {
        let mut rng = Rng64::new(1);
        let mut net = small_net(&mut rng);
        let x = Tensor::randn([10, 4], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[10, 3]);
    }

    #[test]
    fn clone_is_independent_teacher() {
        let mut rng = Rng64::new(3);
        let mut net = small_net(&mut rng);
        let mut teacher = net.clone();
        let x = Tensor::randn([5, 4], 0.0, 1.0, &mut rng);
        let before = teacher.forward(&x, Mode::Eval);
        // Train-ish mutation of the student must not move the teacher.
        for (p, _) in net.params_and_grads() {
            p.map_inplace(|v| v * 2.0);
        }
        let after = teacher.forward(&x, Mode::Eval);
        assert!(before.max_abs_diff(&after).unwrap() < 1e-6);
    }

    #[test]
    fn backward_reaches_input() {
        let mut rng = Rng64::new(4);
        let mut net = small_net(&mut rng);
        let x = Tensor::randn([6, 4], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        let dx = net.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.all_finite());
    }

    #[test]
    fn summary_mentions_layers() {
        let mut rng = Rng64::new(5);
        let mut net = small_net(&mut rng);
        let s = net.summary();
        assert!(s.contains("Dense"));
        assert!(s.contains("BatchNorm1d"));
        assert!(s.contains("params"));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = Rng64::new(6);
        let mut net = small_net(&mut rng);
        // Dense(4→8): 40, BN(8): 16, Dense(8→3): 27
        assert_eq!(net.param_count(), 40 + 16 + 27);
    }
}
