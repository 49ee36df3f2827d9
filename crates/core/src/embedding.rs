//! The Siamese embedding network φ_Θ.

use crate::config::NetConfig;
use pilote_nn::{BatchNorm1d, Checkpoint, CheckpointError, Dense, Layer, Mode, ReLU, Sequential};
use pilote_tensor::{Rng64, Tensor, TensorError};

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

    /// `forward_mode(&features.select_rows(rows), mode)`, bit for bit, and
    /// the caches that forward leaves, for [`EmbeddingNet::backward`].
    ///
    /// In `Mode::Eval` each output row depends on its own input row alone:
    /// the network runs once on the distinct rows, and the output and every
    /// layer's caches are then re-indexed to `rows` ([`Layer::gather_cache`]),
    /// so the backward runs over every row as before while the forward's
    /// flops are those of the distinct rows. When every row is distinct
    /// there is nothing to re-index. In `Mode::Train` batch normalisation
    /// normalises with the statistics of every row, repeats included, so
    /// every row runs.
    pub fn forward_rows(
        &mut self,
        features: &Tensor,
        rows: &DistinctRows,
        mode: Mode,
    ) -> Result<Tensor, TensorError> {
        match (&rows.gather, mode) {
            (Some(gather), Mode::Eval) => {
                let out = self.net.forward_owned(features.select_rows(&rows.distinct)?, mode);
                self.net.gather_cache(gather);
                out.select_rows(gather)
            }
            _ => Ok(self.net.forward_owned(features.select_rows(&rows.rows)?, mode)),
        }
    }

    /// `embed(&features.select_rows(rows))`, bit for bit, embedding each
    /// distinct row once; like [`EmbeddingNet::embed`], it leaves no
    /// activation cache behind.
    pub fn embed_rows(
        &mut self,
        features: &Tensor,
        rows: &DistinctRows,
    ) -> Result<Tensor, TensorError> {
        let out = self.embed(&features.select_rows(&rows.distinct)?);
        match &rows.gather {
            Some(gather) => out.select_rows(gather),
            None => Ok(out),
        }
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

    /// Deep copy: a model clone, or the frozen teacher of a distillation
    /// baseline. PILOTE's own anchor needs none: `train_embedding` embeds
    /// `D₀` with the network before its first step.
    pub fn clone_frozen(&self) -> EmbeddingNet {
        EmbeddingNet { net: self.net.clone(), config: self.config.clone() }
    }

    /// Parameter snapshot (see [`Sequential::state_dict`]).
    pub fn state_dict(&mut self) -> Vec<Tensor> {
        self.net.state_dict()
    }
}

/// A list of rows of a feature matrix, repeats allowed, with its distinct
/// rows found once: what [`EmbeddingNet::forward_rows`] and
/// [`EmbeddingNet::embed_rows`] run the network on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctRows {
    /// The rows as listed.
    rows: Vec<usize>,
    /// Each distinct row once, in order of first occurrence.
    distinct: Vec<usize>,
    /// The position in `distinct` of each listed row; `None` when every
    /// listed row is distinct, so `distinct` is `rows`.
    gather: Option<Vec<usize>>,
}

impl DistinctRows {
    /// Finds the distinct rows of `rows`, which index a matrix of `n` rows,
    /// through a table of one slot per row of that matrix. A row of `n` or
    /// more is `TensorError::OutOfBounds`.
    pub fn new(rows: &[usize], n: usize) -> Result<Self, TensorError> {
        const EMPTY: usize = usize::MAX;
        let mut slots = vec![EMPTY; n];
        let mut distinct = Vec::new();
        let mut gather = Vec::with_capacity(rows.len());
        for &row in rows {
            let slot = slots.get_mut(row).ok_or(TensorError::OutOfBounds {
                index: row,
                bound: n,
                op: "DistinctRows::new",
            })?;
            if *slot == EMPTY {
                *slot = distinct.len();
                distinct.push(row);
            }
            gather.push(*slot);
        }
        let gather = (distinct.len() < rows.len()).then_some(gather);
        Ok(DistinctRows { rows: rows.to_vec(), distinct, gather })
    }

    /// Each distinct row once, in order of first occurrence.
    pub fn distinct(&self) -> &[usize] {
        &self.distinct
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
    fn distinct_rows_keep_first_occurrence_order_and_gather_only_repeats() {
        let rows = DistinctRows::new(&[4, 1, 4, 0, 1, 4], 5).unwrap();
        assert_eq!(rows.rows, &[4, 1, 4, 0, 1, 4]);
        assert_eq!(rows.distinct(), &[4, 1, 0]);
        assert_eq!(rows.gather.as_deref(), Some(&[0, 1, 0, 2, 1, 0][..]));
        let once = DistinctRows::new(&[3, 0, 2], 4).unwrap();
        assert_eq!((once.distinct(), once.gather.as_deref()), (&[3, 0, 2][..], None));
        let err = DistinctRows::new(&[0, 5], 5).unwrap_err();
        assert!(matches!(err, TensorError::OutOfBounds { index: 5, bound: 5, .. }), "{err:?}");
    }

    /// Raw bits, so a comparison fails on any bit.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The flops `f` charges on this thread.
    fn flops_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = pilote_obs::work::thread_flops();
        let out = f();
        (out, pilote_obs::work::thread_flops() - before)
    }

    #[test]
    fn forward_rows_equals_the_forward_of_the_selected_rows() {
        let cfg = NetConfig::small();
        let mut rng = Rng64::new(6);
        let mut net = EmbeddingNet::new(cfg.clone(), &mut rng);
        // A training batch first, so the running statistics are not the
        // defaults.
        net.forward_train(&Tensor::randn([16, cfg.input_dim], 0.5, 2.0, &mut rng));
        let features = Tensor::randn([12, cfg.input_dim], 0.0, 1.0, &mut rng);
        // 48 rows drawn from rows 0, 2, …, 10 of the 12.
        let listed: Vec<usize> = (0..48).map(|_| 2 * rng.below(6)).collect();
        let rows = DistinctRows::new(&listed, features.rows()).unwrap();
        assert!(rows.distinct().len() < listed.len());
        let selected = features.select_rows(&listed).unwrap();
        let distinct = features.select_rows(rows.distinct()).unwrap();
        let dy = Tensor::randn([listed.len(), cfg.embedding_dim], 0.0, 1.0, &mut rng);
        let probe = Tensor::randn([5, cfg.input_dim], 0.0, 1.0, &mut rng);

        for mode in [Mode::Eval, Mode::Train] {
            let mut reference = net.clone_frozen();
            let (want, all_rows) = flops_of(|| reference.forward_mode(&selected, mode));
            let (got, charged) = flops_of(|| net.forward_rows(&features, &rows, mode).unwrap());
            assert_eq!(bits(&got), bits(&want), "{mode:?}: output");
            let want_charge = match mode {
                // The forward charge of the distinct rows alone.
                Mode::Eval => flops_of(|| net.clone_frozen().forward_mode(&distinct, mode)).1,
                Mode::Train => all_rows,
            };
            assert_eq!(charged, want_charge, "{mode:?}: flops");
            assert_eq!(bits(&net.backward(&dy)), bits(&reference.backward(&dy)), "{mode:?}: dX");
            let got = net.layers_mut().params_and_grads();
            let want = reference.layers_mut().params_and_grads();
            for (i, ((p, g), (wp, wg))) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(p), bits(wp), "{mode:?}: parameter {i}");
                assert_eq!(bits(g), bits(wg), "{mode:?}: gradient {i}");
            }
            // The running statistics, read through an eval forward.
            assert_eq!(bits(&net.embed(&probe)), bits(&reference.embed(&probe)), "{mode:?}");
        }
        let all_rows = flops_of(|| net.clone_frozen().forward_mode(&selected, Mode::Eval)).1;
        let distinct_rows = flops_of(|| net.clone_frozen().forward_mode(&distinct, Mode::Eval)).1;
        assert!(distinct_rows < all_rows);

        let (got, charged) = flops_of(|| net.embed_rows(&features, &rows).unwrap());
        assert_eq!(bits(&got), bits(&net.embed(&selected)), "embed_rows");
        assert_eq!(charged, distinct_rows, "embed_rows: flops");
        let no_cache = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.backward(&dy)));
        assert!(no_cache.is_err(), "embed_rows must leave no cache for backward");
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
