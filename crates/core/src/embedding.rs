//! The Siamese embedding network φ_Θ.

use crate::config::NetConfig;
use pilote_nn::{BatchNorm1d, Checkpoint, CheckpointError, Dense, Layer, Mode, ReLU, Sequential};
use pilote_tensor::{Rng64, Tensor};

/// The embedding network: a fully connected stack with BatchNorm + ReLU on
/// every hidden layer and a linear final projection into the embedding
/// space.
///
/// "Siamese" refers to usage, not architecture: both members of a
/// contrastive pair pass through the *same* network, so the two branches
/// are realised by stacking both pair members into one batch.
pub struct EmbeddingNet {
    net: Sequential,
    config: NetConfig,
}

impl EmbeddingNet {
    /// Builds a freshly initialised network.
    pub fn new(config: NetConfig, rng: &mut Rng64) -> Self {
        let net = Self::stack(&config, |fan_in, fan_out| Dense::new(fan_in, fan_out, rng));
        EmbeddingNet { net, config }
    }

    /// The network [`EmbeddingNet::new`] followed by
    /// [`Checkpoint::restore`] would give, in every parameter bit and in
    /// `rng`'s state, without drawing the initial weights the restore
    /// overwrites: the layers start at zero, and `rng` skips the normals
    /// `new` would have drawn ([`Rng64::skip_normals`]), so every later
    /// draw from it is unchanged. The checkpoint is validated and
    /// restored by [`Checkpoint::restore`].
    pub fn restored(
        config: NetConfig,
        checkpoint: &Checkpoint,
        rng: &mut Rng64,
    ) -> Result<Self, CheckpointError> {
        let mut draws = 0;
        let mut net = Self::stack(&config, |fan_in, fan_out| {
            draws += fan_in * fan_out;
            Dense::zeroed(fan_in, fan_out)
        });
        rng.skip_normals(draws);
        checkpoint.restore(&mut net)?;
        Ok(EmbeddingNet { net, config })
    }

    /// The layer stack of `config`, its Dense layers made by `dense` in
    /// input-to-output order.
    fn stack(config: &NetConfig, mut dense: impl FnMut(usize, usize) -> Dense) -> Sequential {
        let mut net = Sequential::new();
        let mut prev = config.input_dim;
        for &width in &config.hidden {
            net.push_boxed(Box::new(dense(prev, width)));
            net.push_boxed(Box::new(BatchNorm1d::new(width)));
            net.push_boxed(Box::new(ReLU::new()));
            prev = width;
        }
        net.push_boxed(Box::new(dense(prev, config.embedding_dim)));
        net
    }

    /// Shapes of the parameter tensors [`EmbeddingNet::new`] builds from
    /// `config`, in checkpoint order, computed without allocating them: an
    /// untrusted checkpoint is checked against this list before a network
    /// is built for it.
    pub fn param_shapes(config: &NetConfig) -> Vec<Vec<usize>> {
        let mut shapes = Vec::with_capacity(4 * config.hidden.len() + 2);
        let mut prev = config.input_dim;
        for &width in &config.hidden {
            // Dense weight and bias, then BatchNorm γ and β.
            shapes.extend([vec![prev, width], vec![width], vec![width], vec![width]]);
            prev = width;
        }
        shapes.extend([vec![prev, config.embedding_dim], vec![config.embedding_dim]]);
        shapes
    }

    /// Number of scalar parameters [`EmbeddingNet::new`] builds from
    /// `config`: [`EmbeddingNet::param_count`] without building a network.
    pub fn param_count_of(config: &NetConfig) -> usize {
        Self::param_shapes(config).iter().map(|s| s.iter().product::<usize>()).sum()
    }

    /// The architecture this network was built from.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Embeds a `[n, input_dim]` batch in inference mode (running batch
    /// statistics) through [`Layer::infer`]: the output of
    /// `forward_mode(features, Mode::Eval)` bit for bit, with no
    /// activation cache left behind, so a [`EmbeddingNet::backward`] after
    /// it panics instead of backpropagating a stale batch.
    pub fn embed(&mut self, features: &Tensor) -> Tensor {
        self.net.infer(features)
    }

    /// Training-mode forward (batch statistics); caches activations for
    /// [`EmbeddingNet::backward`].
    pub fn forward_train(&mut self, features: &Tensor) -> Tensor {
        self.net.forward(features, Mode::Train)
    }

    /// Forward in an explicit mode, caching activations for
    /// [`EmbeddingNet::backward`]. `Mode::Eval` freezes the batch-norm
    /// statistics while still supporting backprop — the fine-tuning mode
    /// used by edge updates.
    pub fn forward_mode(&mut self, features: &Tensor, mode: Mode) -> Tensor {
        self.net.forward(features, mode)
    }

    /// Backpropagates an embedding-space gradient, accumulating parameter
    /// gradients.
    pub fn backward(&mut self, grad_embedding: &Tensor) -> Tensor {
        self.net.backward(grad_embedding)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Mutable access to the underlying layer stack (for optimizers).
    pub fn layers_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Total trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }

    /// Deep copy — the frozen teacher for distillation.
    pub fn clone_frozen(&self) -> EmbeddingNet {
        EmbeddingNet { net: self.net.clone(), config: self.config.clone() }
    }

    /// Parameter snapshot (see [`Sequential::state_dict`]).
    pub fn state_dict(&mut self) -> Vec<Tensor> {
        self.net.state_dict()
    }
}

impl std::fmt::Debug for EmbeddingNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingNet").field("config", &self.config).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_architecture_parameter_count() {
        let mut rng = Rng64::new(1);
        let mut net = EmbeddingNet::new(NetConfig::paper(), &mut rng);
        // Dense layers: 80·1024+1024 + 1024·512+512 + 512·128+128 + 128·64+64 + 64·128+128
        // BN layers: 2·(1024+512+128+64)
        let dense = 80 * 1024 + 1024 + 1024 * 512 + 512 + 512 * 128 + 128 + 128 * 64 + 64 + 64 * 128 + 128;
        let bn = 2 * (1024 + 512 + 128 + 64);
        assert_eq!(net.param_count(), dense + bn);
    }

    #[test]
    fn param_shapes_are_the_checkpoint_shapes_of_a_built_net() {
        for cfg in [NetConfig::paper(), NetConfig::small()] {
            let mut net = EmbeddingNet::new(cfg.clone(), &mut Rng64::new(4));
            let built = Checkpoint::capture(net.layers_mut()).shapes;
            assert_eq!(EmbeddingNet::param_shapes(&cfg), built, "{cfg:?}");
            assert_eq!(EmbeddingNet::param_count_of(&cfg), net.param_count(), "{cfg:?}");
        }
        assert_eq!(EmbeddingNet::param_count_of(&NetConfig::paper()), 693_440);
    }

    #[test]
    fn embed_produces_embedding_dim() {
        let mut rng = Rng64::new(2);
        let cfg = NetConfig::small();
        let mut net = EmbeddingNet::new(cfg.clone(), &mut rng);
        let x = Tensor::randn([7, cfg.input_dim], 0.0, 1.0, &mut rng);
        let e = net.embed(&x);
        assert_eq!(e.shape().dims(), &[7, cfg.embedding_dim]);
        assert!(e.all_finite());
    }

    #[test]
    fn frozen_clone_does_not_track_student() {
        let mut rng = Rng64::new(3);
        let mut net = EmbeddingNet::new(NetConfig::small(), &mut rng);
        let mut teacher = net.clone_frozen();
        let x = Tensor::randn([4, 80], 0.0, 1.0, &mut rng);
        let before = teacher.embed(&x);
        // "Train" the student a bit.
        let out = net.forward_train(&x);
        net.backward(&Tensor::ones(out.shape().clone()));
        for (p, g) in net.layers_mut().params_and_grads() {
            p.axpy(-0.1, g).unwrap();
        }
        let after = teacher.embed(&x);
        assert!(before.max_abs_diff(&after).unwrap() < 1e-6);
        assert!(net.embed(&x).max_abs_diff(&before).unwrap() > 1e-3);
    }
}
