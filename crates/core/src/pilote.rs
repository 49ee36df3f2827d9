//! The PILOTE incremental learner (Algorithm 1).
//!
//! Lifecycle:
//!
//! 1. **Cloud pre-training** ([`Pilote::pretrain`]): train the embedding
//!    network on the old classes with the supervised contrastive loss,
//!    then select per-class exemplar support sets by herding (lines 1–7).
//! 2. **Edge update** ([`Pilote::learn_new_class`]): take the pre-update
//!    embeddings of the support set `D₀` as the distillation anchor,
//!    combine `D₀` with the new-class samples `Dₙ`, and
//!    optimise `L = α·L_disti + (1 − α)·L_contra` (lines 8–12) with the
//!    reduced pair scheme of §5.2. Finally store new-class exemplars and
//!    refresh all prototypes under the updated embedding.
//! 3. **Inference** ([`Pilote::predict`]): NCM over the support-set
//!    prototypes (Eq. 1).

use crate::config::PiloteConfig;
use crate::embedding::{DistinctRows, EmbeddingNet};
use crate::exemplar::{select_exemplars, SelectionStrategy};
use crate::ncm::NcmClassifier;
use crate::pairs::{build_epoch_pairs, PairScheme, PairSet};
use pilote_har_data::Dataset;
use pilote_nn::loss::{contrastive_pair_loss, distillation_loss};
use pilote_nn::sched::{LrSchedule, StepLr};
use pilote_nn::train::train_val_split;
use pilote_nn::{Adam, EarlyStopper, EpochStats, Layer, Optimizer};
use pilote_tensor::{Rng64, Tensor, TensorError};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Per-class exemplar storage, rows kept in *selection order* so that a
/// budget shrink (new class arriving under a fixed cache size `K`) keeps
/// the best prefix — valid for herding, whose prefixes are themselves
/// herding selections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupportSet {
    classes: Vec<(usize, Tensor)>,
}

impl SupportSet {
    /// Empty support set.
    pub fn new() -> Self {
        SupportSet { classes: Vec::new() }
    }

    /// Selects `m` exemplars per class from `data` under the current
    /// embedding, using the given strategy.
    pub fn select_from(
        data: &Dataset,
        net: &mut EmbeddingNet,
        m: usize,
        strategy: SelectionStrategy,
        rng: &mut Rng64,
    ) -> Result<SupportSet, TensorError> {
        // The span's flops field is the deterministic cost of exemplar
        // selection (embedding forward + herding distance sweeps).
        let span = pilote_obs::span("core.support.select");
        span.annotate("classes", data.classes().len() as f64);
        span.annotate("per_class", m as f64);
        let mut out = SupportSet::new();
        out.put_selected(data, net, m, strategy, rng)?;
        Ok(out)
    }

    /// Selects up to `m` exemplars of every class in `data` under the
    /// current embedding and stores them, replacing whatever those classes
    /// held before.
    pub(crate) fn put_selected(
        &mut self,
        data: &Dataset,
        net: &mut EmbeddingNet,
        m: usize,
        strategy: SelectionStrategy,
        rng: &mut Rng64,
    ) -> Result<(), TensorError> {
        for label in data.classes() {
            let class = data.filter_classes(&[label])?;
            let embeddings = net.embed(&class.features);
            let chosen = select_exemplars(&embeddings, m, strategy, rng)?;
            self.put_class(label, class.features.select_rows(&chosen)?);
        }
        Ok(())
    }

    /// Inserts or replaces the exemplars of a class (rows must already be
    /// in selection order).
    pub fn put_class(&mut self, label: usize, features: Tensor) {
        match self.classes.iter_mut().find(|(l, _)| *l == label) {
            Some((_, f)) => *f = features,
            None => self.classes.push((label, features)),
        }
    }

    /// Exemplar features of a class.
    pub fn class(&self, label: usize) -> Option<&Tensor> {
        self.classes.iter().find(|(l, _)| *l == label).map(|(_, f)| f)
    }

    /// Labels with stored exemplars, in insertion order.
    pub fn labels(&self) -> Vec<usize> {
        self.classes.iter().map(|(l, _)| *l).collect()
    }

    /// Total number of stored exemplars.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|(_, f)| f.rows()).sum()
    }

    /// Whether no exemplars are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps only the first `m` exemplars of every class (the prefix
    /// property of herding makes this the correct shrink under a fixed
    /// cache size `K`: `m = K / (s − 1)`, Algorithm 1 line 1).
    pub fn shrink_per_class(&mut self, m: usize) {
        for (_, f) in &mut self.classes {
            let keep = m.min(f.rows());
            *f = f.slice_rows(0, keep).expect("keep ≤ rows");
        }
    }

    /// Flattens the support set into a labelled dataset (`D₀`).
    pub fn to_dataset(&self) -> Result<Dataset, TensorError> {
        if self.classes.is_empty() {
            return Ok(Dataset::empty());
        }
        let tensors: Vec<&Tensor> = self.classes.iter().map(|(_, f)| f).collect();
        let features = Tensor::vstack(&tensors)?;
        let mut labels = Vec::with_capacity(self.len());
        for (label, f) in &self.classes {
            labels.extend(std::iter::repeat_n(*label, f.rows()));
        }
        Dataset::new(features, labels)
    }
}

impl Default for SupportSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Whether the early stopper fired before `max_epochs`.
    pub stopped_early: bool,
    /// Optimizer steps skipped by the non-finite guard (NaN/Inf loss or
    /// gradient — see `docs/RESILIENCE.md`, tier 2).
    pub skipped_steps: u64,
}

impl TrainReport {
    /// Total wall-clock seconds across epochs.
    pub fn total_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.seconds).sum()
    }

    /// Final training loss (NaN if no epochs ran).
    pub fn final_train_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.train_loss)
    }
}

/// Options for the shared embedding-training routine.
pub struct TrainOptions {
    /// Balancing weight α (0 disables distillation entirely).
    pub alpha: f32,
    /// Rows of the combined dataset to distil on (the old-class exemplars
    /// `D₀`); ignored when `alpha == 0`. Their anchor is their embedding
    /// under the network as it enters training.
    pub distill_rows: Vec<usize>,
    /// Pair population scheme.
    pub scheme: PairScheme,
    /// Freeze batch-norm statistics: forward passes normalise with the
    /// (pre-trained) running statistics instead of batch statistics, and
    /// the running estimates are not updated. Essential for edge updates —
    /// pair batches are dominated by the new class, and letting them drag
    /// the BN statistics silently shifts every old-class embedding out
    /// from under the distillation anchor.
    pub freeze_bn: bool,
}

/// Trains `net` on `data` with the joint PILOTE objective.
///
/// `is_new[i]` marks rows of `data` belonging to the incoming new-class
/// batch (`Dₙ`); for plain pre-training pass all-`false` with
/// [`PairScheme::Full`].
///
/// The network is its own teacher: before its first step it embeds the
/// distillation rows, and those embeddings anchor `L_disti` for the whole
/// run — what a frozen copy of the network taken at entry would give.
pub fn train_embedding(
    net: &mut EmbeddingNet,
    data: &Dataset,
    is_new: &[bool],
    cfg: &PiloteConfig,
    opts: TrainOptions,
    rng: &mut Rng64,
) -> Result<TrainReport, TensorError> {
    assert_eq!(data.len(), is_new.len(), "is_new must cover every row");
    let mut report = TrainReport::default();
    if data.len() < 2 {
        return Ok(report);
    }

    // ---- validation split over rows -----------------------------------
    let (train_rows, val_rows) = train_val_split(data.len(), cfg.val_fraction, rng);
    let train_labels: Vec<usize> = train_rows.iter().map(|&i| data.labels[i]).collect();
    let train_is_new: Vec<bool> = train_rows.iter().map(|&i| is_new[i]).collect();

    // Fixed validation pair set (stable loss across epochs).
    let val_labels: Vec<usize> = val_rows.iter().map(|&i| data.labels[i]).collect();
    let val_is_new: Vec<bool> = val_rows.iter().map(|&i| is_new[i]).collect();
    let val_pairs_local =
        build_epoch_pairs(&val_labels, &val_is_new, opts.scheme, cfg.pairs_per_sample, rng);
    let val_pairs = PairSet {
        a: val_pairs_local.a.iter().map(|&i| val_rows[i]).collect(),
        b: val_pairs_local.b.iter().map(|&i| val_rows[i]).collect(),
        similar: val_pairs_local.similar,
    };

    // ---- the distillation anchor: D₀ under the network at entry ---------
    let distill = opts.alpha > 0.0 && !opts.distill_rows.is_empty();
    let distill_features =
        if distill { Some(data.features.select_rows(&opts.distill_rows)?) } else { None };
    let anchor = distill_features.as_ref().map(|df| net.embed(df));

    // The validation rows `[va; vb; D₀]`, embedded in one forward per
    // epoch of their distinct rows, found here once: each output row
    // depends on its input row alone, so the rows are those of three
    // forwards.
    let val_input = if val_pairs.is_empty() {
        None
    } else {
        let mut rows = [val_pairs.a.as_slice(), val_pairs.b.as_slice()].concat();
        if distill {
            rows.extend(&opts.distill_rows);
        }
        Some(DistinctRows::new(&rows, data.len())?)
    };

    let mut optimizer = Adam::new();
    let schedule = StepLr {
        initial: cfg.initial_lr,
        step_size: cfg.lr_halve_every.max(1),
        gamma: 0.5,
    };
    let mut stopper = EarlyStopper::new(cfg.early_stop_threshold, cfg.early_stop_patience);
    // Eval-style BN (frozen statistics) still backpropagates through γ/β.
    let forward_mode = if opts.freeze_bn { pilote_nn::Mode::Eval } else { pilote_nn::Mode::Train };

    for epoch in 0..cfg.max_epochs {
        let started = Instant::now();
        let lr = schedule.lr_at(epoch);

        // Fresh pair population each epoch (indices local to train_rows).
        let pairs_local =
            build_epoch_pairs(&train_labels, &train_is_new, opts.scheme, cfg.pairs_per_sample, rng);
        if pairs_local.is_empty() {
            break;
        }
        let mut loss_sum = 0.0f64;
        // Weighted components of the joint objective, tracked separately
        // so telemetry can report the distill-vs-contrastive split
        // (`(1−α)·L_contra` and `α·L_disti` sum to the train loss).
        let mut contra_sum = 0.0f64;
        let mut distill_sum = 0.0f64;
        let mut batches = 0usize;
        let mut start = 0usize;
        while start < pairs_local.len() {
            let end = (start + cfg.pair_batch).min(pairs_local.len());
            let batch = pairs_local.slice(start, end);
            start = end;

            // Siamese forward: both branches share weights, so the `a` rows
            // then the `b` rows run as one batch (also gives BatchNorm a
            // well-mixed batch). With frozen statistics each distinct row
            // runs once.
            let rows: Vec<usize> = batch.a.iter().chain(&batch.b).map(|&i| train_rows[i]).collect();
            let rows = DistinctRows::new(&rows, data.len())?;

            net.zero_grad();

            let emb = net.forward_rows(&data.features, &rows, forward_mode)?;
            let n_pairs = batch.len();
            let ea = emb.slice_rows(0, n_pairs)?;
            let eb = emb.slice_rows(n_pairs, 2 * n_pairs)?;
            let (c_loss, ga, gb) =
                contrastive_pair_loss(&ea, &eb, &batch.similar, cfg.margin, cfg.contrastive_form)?;
            let contrastive_weight = 1.0 - opts.alpha;
            let mut grad = Tensor::vstack(&[&ga, &gb])?;
            grad.map_inplace(|g| g * contrastive_weight);
            net.layers_mut().backward_owned(grad);
            let mut batch_loss = contrastive_weight * c_loss;
            let batch_contra = contrastive_weight * c_loss;
            let mut batch_distill = 0.0f32;

            // Distillation branch: separate forward/backward accumulates
            // into the same parameter gradients before the optimizer step.
            // When D₀ is larger than `distill_batch`, a random subset is
            // distilled each step (stochastic distillation) — same
            // expected gradient, much cheaper forward.
            if let (Some(df), Some(anchor)) = (&distill_features, &anchor) {
                let n0 = df.rows();
                let anchor_b;
                let (dfb, ter) = if n0 > cfg.distill_batch {
                    let subset = rng.sample_indices(n0, cfg.distill_batch);
                    anchor_b = anchor.select_rows(&subset)?;
                    (df.select_rows(&subset)?, &anchor_b)
                } else {
                    (df.clone(), anchor)
                };
                let student = net.layers_mut().forward_owned(dfb, forward_mode);
                let (d_loss, mut d_grad) = distillation_loss(&student, ter)?;
                d_grad.map_inplace(|g| g * opts.alpha);
                net.layers_mut().backward_owned(d_grad);
                batch_loss += opts.alpha * d_loss;
                batch_distill = opts.alpha * d_loss;
            }

            // Non-finite guard: a NaN/Inf loss or gradient (corrupted
            // inputs, exploding step) must skip the step — applying it
            // once makes every later prediction NaN.
            if !batch_loss.is_finite() || !pilote_nn::grads_finite(net.layers_mut()) {
                report.skipped_steps += 1;
                pilote_obs::counter("core.train.skipped_steps").inc();
                continue;
            }
            optimizer.step(net.layers_mut(), lr);
            loss_sum += batch_loss as f64;
            contra_sum += batch_contra as f64;
            distill_sum += batch_distill as f64;
            batches += 1;
        }

        // ---- validation loss (eval mode, fixed pairs) -------------------
        let val_loss = match &val_input {
            None => None,
            Some(rows) => {
                let emb = net.embed_rows(&data.features, rows)?;
                let n = val_pairs.len();
                let (ea, eb) = (emb.slice_rows(0, n)?, emb.slice_rows(n, 2 * n)?);
                let (c_loss, _, _) = contrastive_pair_loss(
                    &ea,
                    &eb,
                    &val_pairs.similar,
                    cfg.margin,
                    cfg.contrastive_form,
                )?;
                let mut v = (1.0 - opts.alpha) * c_loss;
                if let Some(anchor) = &anchor {
                    let (d_loss, _) = distillation_loss(&emb.slice_rows(2 * n, emb.rows())?, anchor)?;
                    v += opts.alpha * d_loss;
                }
                Some(v)
            }
        };

        report.epochs.push(EpochStats {
            epoch,
            train_loss: (loss_sum / batches.max(1) as f64) as f32,
            val_loss,
            lr,
            seconds: started.elapsed().as_secs_f64(),
        });

        if pilote_obs::enabled() {
            let denom = batches.max(1) as f64;
            pilote_obs::gauge("core.train.loss_contrastive").set(contra_sum / denom);
            pilote_obs::gauge("core.train.loss_distill").set(distill_sum / denom);
            // Gradients still hold the epoch's final applied step.
            let gn = pilote_nn::grad_norm(net.layers_mut());
            let stats = report.epochs.last().expect("just pushed");
            pilote_nn::observe_epoch(stats, Some(gn));
        }

        if let Some(v) = val_loss {
            if stopper.observe(v) {
                report.stopped_early = true;
                break;
            }
        }
    }
    Ok(report)
}

/// Stages of the edge update, in execution order — the kill-points a
/// crash schedule (`pilote_edge_sim::faults::CrashPlan`) can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateStage {
    /// The embedding finished training; exemplars and prototypes are
    /// still the pre-update ones.
    Trained,
    /// New-class exemplars were stored; prototypes are still stale.
    ExemplarsStored,
}

impl UpdateStage {
    /// All kill-points, in execution order. `CrashPlan::next_kill` draws
    /// an index into this list.
    pub const ALL: [UpdateStage; 2] = [UpdateStage::Trained, UpdateStage::ExemplarsStored];
}

/// Result of an interruptible edge update.
#[derive(Debug, Clone)]
pub enum UpdateOutcome {
    /// The update ran to completion.
    Completed(TrainReport),
    /// A kill-point fired; the learner is in the inconsistent state left
    /// after the named stage.
    Interrupted(UpdateStage),
}

/// The PILOTE model: embedding network + exemplar support set + NCM
/// classifier.
pub struct Pilote {
    cfg: PiloteConfig,
    net: EmbeddingNet,
    support: SupportSet,
    classifier: NcmClassifier,
    rng: Rng64,
    /// Monotonic counter bumped every time the classifier is rebuilt
    /// ([`Pilote::refresh_prototypes`]) — every commit point of the model
    /// lifecycle (pre-train, incremental update, rollback, federated
    /// install) ends there, so external prototype caches can compare
    /// generations instead of tensors to detect staleness.
    generation: u64,
}

impl Pilote {
    /// Cloud phase: trains the embedding on `data` (the old classes) with
    /// the full-pair contrastive loss, then selects `exemplars_per_class`
    /// support exemplars per class with `strategy`.
    pub fn pretrain(
        cfg: PiloteConfig,
        data: &Dataset,
        exemplars_per_class: usize,
        strategy: SelectionStrategy,
    ) -> Result<(Pilote, TrainReport), TensorError> {
        let span = pilote_obs::span("core.pretrain");
        span.annotate("samples", data.len() as f64);
        let mut rng = Rng64::new(cfg.seed);
        let mut net = EmbeddingNet::new(cfg.net.clone(), &mut rng);
        let is_new = vec![false; data.len()];
        let opts = TrainOptions {
            alpha: 0.0,
            distill_rows: Vec::new(),
            scheme: PairScheme::Full,
            freeze_bn: false,
        };
        let report = {
            let _train = pilote_obs::span("core.pretrain.train");
            train_embedding(&mut net, data, &is_new, &cfg, opts, &mut rng)?
        };
        let support =
            SupportSet::select_from(data, &mut net, exemplars_per_class, strategy, &mut rng)?;
        let mut model = Pilote {
            cfg,
            net,
            support,
            classifier: NcmClassifier::new(0),
            rng,
            generation: 0,
        };
        model.refresh_prototypes()?;
        Ok((model, report))
    }

    /// Builds a model directly from parts (used by the cloud to compute
    /// shipped prototypes through a device-equivalent network).
    pub fn from_parts(cfg: PiloteConfig, net: EmbeddingNet, support: SupportSet, rng: Rng64) -> Result<Pilote, TensorError> {
        let mut model =
            Pilote { cfg, net, support, classifier: NcmClassifier::new(0), rng, generation: 0 };
        model.refresh_prototypes()?;
        Ok(model)
    }

    /// Deep copy (shared pre-trained starting point for baselines).
    pub fn clone_model(&self) -> Pilote {
        Pilote {
            cfg: self.cfg.clone(),
            net: self.net.clone_frozen(),
            support: self.support.clone(),
            classifier: self.classifier.clone(),
            rng: self.rng.clone(),
            generation: self.generation,
        }
    }

    /// Edge phase (Algorithm 1, lines 8–13): learns the classes present in
    /// `new_data` with the joint distillation + contrastive objective,
    /// stores up to `new_exemplar_budget` exemplars for each new class
    /// (random selection, per §6.4), and refreshes all prototypes.
    pub fn learn_new_class(
        &mut self,
        new_data: &Dataset,
        new_exemplar_budget: usize,
    ) -> Result<TrainReport, TensorError> {
        match self.learn_new_class_interruptible(new_data, new_exemplar_budget, None)? {
            UpdateOutcome::Completed(report) => Ok(report),
            UpdateOutcome::Interrupted(_) => unreachable!("no kill-point was requested"),
        }
    }

    /// [`Pilote::learn_new_class`] with an optional kill-point: when
    /// `kill` is `Some(stage)`, the update stops *after* that stage
    /// completes but before the next one begins — simulating a process
    /// crash (power loss, OOM-kill) mid-update.
    ///
    /// An interrupted update leaves the learner **inconsistent on
    /// purpose** (mutated embedding, stale or missing prototypes); callers
    /// own recovery, normally by restoring a pre-update
    /// [`pilote_nn::Checkpoint`] + support-set snapshot (see
    /// `EdgeDevice::update_faulted` in `pilote-magneto`).
    pub fn learn_new_class_interruptible(
        &mut self,
        new_data: &Dataset,
        new_exemplar_budget: usize,
        kill: Option<UpdateStage>,
    ) -> Result<UpdateOutcome, TensorError> {
        let span = pilote_obs::span("core.update");
        span.annotate("new_samples", new_data.len() as f64);
        let (combined, is_new) = self.support_union(new_data)?;
        let distill_rows: Vec<usize> = (0..self.support.len()).collect();

        let alpha = self.cfg.alpha;
        let mut cfg = self.cfg.clone();
        // §5.2: the reduced scheme anchors only the nₜ new samples, so the
        // pair population shrinks from t·Σ_y C(n_y,2) to C(nₜ,2) + nₜ·|D₀|.
        // Spend part of that saving on pair density — 4× per anchor still
        // keeps the total below the full scheme's.
        cfg.pairs_per_sample = cfg.pairs_per_sample.saturating_mul(4);
        let opts = TrainOptions {
            alpha,
            distill_rows,
            scheme: PairScheme::Reduced,
            freeze_bn: true,
        };
        let report = {
            let _train = pilote_obs::span("core.update.train");
            train_embedding(&mut self.net, &combined, &is_new, &cfg, opts, &mut self.rng)?
        };
        if kill == Some(UpdateStage::Trained) {
            return Ok(UpdateOutcome::Interrupted(UpdateStage::Trained));
        }

        // Store new-class exemplars (random subset of the incoming data,
        // as in §6.4) and refresh prototypes under the updated embedding.
        {
            let _exemplars = pilote_obs::span("core.update.exemplars");
            self.support.put_selected(
                new_data,
                &mut self.net,
                new_exemplar_budget,
                SelectionStrategy::Random,
                &mut self.rng,
            )?;
        }
        if kill == Some(UpdateStage::ExemplarsStored) {
            return Ok(UpdateOutcome::Interrupted(UpdateStage::ExemplarsStored));
        }
        {
            let _prototypes = pilote_obs::span("core.update.prototypes");
            self.refresh_prototypes()?;
        }
        Ok(UpdateOutcome::Completed(report))
    }

    /// `D₀ ∪ Dₙ`: the support set followed by `new_data`, with `is_new`
    /// marking the `Dₙ` rows.
    pub(crate) fn support_union(
        &self,
        new_data: &Dataset,
    ) -> Result<(Dataset, Vec<bool>), TensorError> {
        let d0 = self.support.to_dataset()?;
        let mut is_new = vec![false; d0.len()];
        is_new.extend(std::iter::repeat_n(true, new_data.len()));
        Ok((d0.concat(new_data)?, is_new))
    }

    /// Shared update tail: keeps up to `budget` random exemplars of each
    /// class in `new_data` (§6.4), drawn from `rng`, then refreshes every
    /// prototype.
    pub(crate) fn integrate(
        &mut self,
        new_data: &Dataset,
        budget: usize,
        rng: &mut Rng64,
    ) -> Result<(), TensorError> {
        self.support.put_selected(new_data, &mut self.net, budget, SelectionStrategy::Random, rng)?;
        self.refresh_prototypes()
    }

    /// Takes over `other`'s network, support set and classifier — a
    /// learner retrained from scratch — keeping this model's configuration
    /// and RNG stream and bumping its generation.
    pub(crate) fn adopt_learned(&mut self, other: Pilote) {
        self.net = other.net;
        self.support = other.support;
        self.classifier = other.classifier;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Recomputes every class prototype from the support set under the
    /// current embedding, and bumps the model [`Pilote::generation`] so
    /// prototype caches built against the previous classifier invalidate.
    ///
    /// The whole support set is embedded in one forward and each class's
    /// prototype is taken from its row range. Every kernel computes each
    /// output row from its input row alone (`docs/FLEET.md`), so the rows
    /// equal the class embedded on its own bit for bit, and the GEMM flop
    /// charge, linear in the row count, is the per-class sum.
    pub fn refresh_prototypes(&mut self) -> Result<(), TensorError> {
        let mut clf = NcmClassifier::new(self.cfg.net.embedding_dim);
        if !self.support.classes.is_empty() {
            let embeddings = self.net.embed(&self.support.to_dataset()?.features);
            let mut start = 0;
            for (label, features) in &self.support.classes {
                let end = start + features.rows();
                clf.set_prototype_from(*label, &embeddings.slice_rows(start, end)?)?;
                start = end;
            }
        }
        self.classifier = clf;
        self.generation = self.generation.wrapping_add(1);
        Ok(())
    }

    /// The model generation: incremented on every
    /// [`Pilote::refresh_prototypes`]. Two equal generations on the same
    /// model guarantee the classifier (labels and prototype tensors) is
    /// unchanged, which is what serving-side prototype caches key on.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Installs an externally supplied classifier — labels plus a
    /// `[classes, d]` prototype matrix — replacing the current one and
    /// bumping the [`Pilote::generation`] so serving caches invalidate.
    ///
    /// This is the deploy-path counterpart of
    /// [`Pilote::refresh_prototypes`]: where refresh recomputes prototypes
    /// from local exemplars, install accepts the exact values a deployment
    /// shipped (possibly quantised), so the device serves from what came
    /// over the wire rather than a cleaner local reconstruction.
    pub fn install_prototypes(
        &mut self,
        labels: Vec<usize>,
        prototypes: Tensor,
    ) -> Result<(), TensorError> {
        self.classifier = NcmClassifier::from_prototypes(labels, prototypes)?;
        self.generation = self.generation.wrapping_add(1);
        Ok(())
    }

    /// Classifies a `[n, input_dim]` feature batch.
    pub fn predict(&mut self, features: &Tensor) -> Result<Vec<usize>, TensorError> {
        let embeddings = self.net.embed(features);
        self.classifier.classify(&embeddings)
    }

    /// Batched serving entry point: one embedding forward and one pairwise
    /// distance kernel for the whole `[n, input_dim]` batch, returning
    /// `(label, squared distance to the winning prototype)` per row.
    ///
    /// Bitwise-identical to classifying each row in its own `[1, d]` call
    /// (every kernel computes each output row independently of its batch
    /// neighbours — see `docs/FLEET.md`). The distance stage is the fused
    /// packed-GEMM + squared-distance epilogue of `docs/KERNELS.md`, so
    /// serving cost is one GEMM per batch, not a GEMM plus a full `[n,
    /// classes]` combine sweep.
    pub fn classify_batch(&mut self, features: &Tensor) -> Result<Vec<(usize, f32)>, TensorError> {
        let embeddings = self.net.embed(features);
        self.classifier.classify_with_distances(&embeddings)
    }

    /// Accuracy on a labelled dataset.
    pub fn accuracy(&mut self, data: &Dataset) -> Result<f32, TensorError> {
        let pred = self.predict(&data.features)?;
        Ok(crate::metrics::accuracy(&pred, &data.labels))
    }

    /// The configuration in force.
    pub fn config(&self) -> &PiloteConfig {
        &self.cfg
    }

    /// Mutable configuration access (e.g. for α ablations between phases).
    pub fn config_mut(&mut self) -> &mut PiloteConfig {
        &mut self.cfg
    }

    /// The exemplar support set.
    pub fn support(&self) -> &SupportSet {
        &self.support
    }

    /// Mutable support set (edge cache management); call
    /// [`Pilote::refresh_prototypes`] afterwards.
    pub fn support_mut(&mut self) -> &mut SupportSet {
        &mut self.support
    }

    /// The embedding network.
    pub(crate) fn net(&self) -> &EmbeddingNet {
        &self.net
    }

    /// Mutable embedding network.
    pub fn net_mut(&mut self) -> &mut EmbeddingNet {
        &mut self.net
    }

    /// The NCM classifier.
    pub fn classifier(&self) -> &NcmClassifier {
        &self.classifier
    }

    /// Embeds features under the current model (inference mode).
    pub fn embed(&mut self, features: &Tensor) -> Tensor {
        self.net.embed(features)
    }

    /// Forked RNG for auxiliary sampling that must not perturb the model's
    /// own stream.
    pub fn fork_rng(&mut self) -> Rng64 {
        self.rng.fork()
    }

    /// Re-seeds the model's RNG stream. Used by the experiment harness so
    /// that repetition rounds cloned from one pre-trained model draw
    /// independent pair samples and exemplar subsets.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Rng64::new(seed);
    }
}

impl std::fmt::Debug for Pilote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pilote")
            .field("classes", &self.classifier.labels())
            .field("support_len", &self.support.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};

    fn tiny_scenario() -> (Dataset, Dataset, Dataset) {
        // Old classes: Still, Walk, Drive; new class: Run.
        let mut sim = Simulator::with_seed(11);
        let (all, _) = generate_features(
            &mut sim,
            &[
                (Activity::Still, 60),
                (Activity::Walk, 60),
                (Activity::Drive, 60),
                (Activity::Run, 60),
            ],
        )
        .unwrap();
        let mut rng = Rng64::new(1);
        let (train, test) = all.stratified_split(0.3, &mut rng).unwrap();
        let old = train
            .filter_classes(&[
                Activity::Still.label(),
                Activity::Walk.label(),
                Activity::Drive.label(),
            ])
            .unwrap();
        let new = train.filter_classes(&[Activity::Run.label()]).unwrap();
        (old, new, test)
    }

    #[test]
    fn support_set_round_trip() {
        let mut s = SupportSet::new();
        s.put_class(3, Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap());
        s.put_class(1, Tensor::from_rows(&[vec![5.0, 6.0]]).unwrap());
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels(), vec![3, 1]);
        let ds = s.to_dataset().unwrap();
        assert_eq!(ds.labels, vec![3, 3, 1]);
        // replacement
        s.put_class(1, Tensor::from_rows(&[vec![7.0, 8.0], vec![9.0, 0.0]]).unwrap());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn support_set_shrink_keeps_prefix() {
        let mut s = SupportSet::new();
        s.put_class(0, Tensor::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap());
        s.shrink_per_class(2);
        assert_eq!(s.class(0).unwrap().as_slice(), &[0.0, 1.0]);
        s.shrink_per_class(10); // no-op when larger
        assert_eq!(s.class(0).unwrap().rows(), 2);
    }

    #[test]
    fn pretrain_learns_separable_classes() {
        let (old, _, test) = tiny_scenario();
        let cfg = PiloteConfig::fast_test(5);
        let (mut model, report) =
            Pilote::pretrain(cfg, &old, 20, SelectionStrategy::Herding).unwrap();
        assert!(!report.epochs.is_empty());
        let old_test = test
            .filter_classes(&[
                Activity::Still.label(),
                Activity::Walk.label(),
                Activity::Drive.label(),
            ])
            .unwrap();
        let acc = model.accuracy(&old_test).unwrap();
        assert!(acc > 0.7, "pre-trained accuracy {acc}");
        assert_eq!(model.classifier().n_classes(), 3);
    }

    #[test]
    fn install_prototypes_replaces_classifier_and_bumps_generation() {
        let (old, _, test) = tiny_scenario();
        let cfg = PiloteConfig::fast_test(5);
        let (mut model, _) = Pilote::pretrain(cfg, &old, 20, SelectionStrategy::Herding).unwrap();
        let before = model.generation();
        let labels = model.classifier().labels().to_vec();
        let protos = model.classifier().prototype_matrix().clone();
        // Re-installing the exact matrix keeps predictions and bumps the
        // generation (caches must invalidate even on an identical install).
        model.install_prototypes(labels.clone(), protos.clone()).unwrap();
        assert_eq!(model.generation(), before + 1);
        let old_test = test
            .filter_classes(&[
                Activity::Still.label(),
                Activity::Walk.label(),
                Activity::Drive.label(),
            ])
            .unwrap();
        let acc_exact = model.accuracy(&old_test).unwrap();
        // A slightly perturbed (e.g. dequantised) matrix installs verbatim:
        // the classifier must serve the shipped values, not recompute.
        let mut noisy = protos.clone();
        noisy.as_mut_slice()[0] += 1e-3;
        model.install_prototypes(labels, noisy.clone()).unwrap();
        assert_eq!(model.generation(), before + 2);
        assert_eq!(model.classifier().prototype_matrix(), &noisy);
        let acc_noisy = model.accuracy(&old_test).unwrap();
        assert!((acc_exact - acc_noisy).abs() < 0.05);
    }

    #[test]
    fn learn_new_class_adds_class_and_keeps_old() {
        let (old, new, test) = tiny_scenario();
        let cfg = PiloteConfig::fast_test(6);
        let (model, _) = Pilote::pretrain(cfg, &old, 20, SelectionStrategy::Herding).unwrap();
        let mut model = model;
        let old_test = test
            .filter_classes(&[
                Activity::Still.label(),
                Activity::Walk.label(),
                Activity::Drive.label(),
            ])
            .unwrap();
        let before = model.accuracy(&old_test).unwrap();
        model.learn_new_class(&new, 20).unwrap();
        assert_eq!(model.classifier().n_classes(), 4);
        let after_old = model.accuracy(&old_test).unwrap();
        let run_test = test.filter_classes(&[Activity::Run.label()]).unwrap();
        let run_acc = model.accuracy(&run_test).unwrap();
        assert!(run_acc > 0.5, "new-class accuracy {run_acc}");
        assert!(after_old > before - 0.25, "old accuracy collapsed {before} → {after_old}");
    }

    #[test]
    fn clone_model_is_independent() {
        let (old, new, _) = tiny_scenario();
        let cfg = PiloteConfig::fast_test(7);
        let (model, _) = Pilote::pretrain(cfg, &old, 10, SelectionStrategy::Herding).unwrap();
        let mut copy = model.clone_model();
        copy.learn_new_class(&new, 10).unwrap();
        assert_eq!(copy.classifier().n_classes(), 4);
        assert_eq!(model.classifier().n_classes(), 3);
    }

    /// With α = 1 and frozen batch-norm statistics, the only gradient is
    /// the distillation one, and it is zero exactly when the anchor is
    /// the network as it entered training: no step moves a parameter bit,
    /// and every training and validation loss is 0.
    #[test]
    fn the_network_at_entry_is_the_distillation_anchor() {
        let (old, _, _) = tiny_scenario();
        let cfg = PiloteConfig::fast_test(8);
        let (mut model, _) = Pilote::pretrain(cfg.clone(), &old, 10, SelectionStrategy::Herding).unwrap();
        let before = model.net_mut().state_dict();
        let opts = TrainOptions {
            alpha: 1.0,
            distill_rows: (0..old.len()).collect(),
            scheme: PairScheme::Full,
            freeze_bn: true,
        };
        let is_new = vec![false; old.len()];
        let mut rng = Rng64::new(1);
        let report = train_embedding(model.net_mut(), &old, &is_new, &cfg, opts, &mut rng).unwrap();
        assert!(!report.epochs.is_empty());
        assert_eq!(report.skipped_steps, 0);
        for e in &report.epochs {
            assert_eq!((e.train_loss, e.val_loss), (0.0, Some(0.0)), "epoch {}", e.epoch);
        }
        let bits = |params: &[Tensor]| -> Vec<u32> {
            params.iter().flat_map(|p| p.as_slice().iter().map(|v| v.to_bits())).collect()
        };
        assert_eq!(bits(&model.net_mut().state_dict()), bits(&before));
    }

    #[test]
    fn generation_bumps_at_every_commit_point() {
        let (old, new, _) = tiny_scenario();
        let cfg = PiloteConfig::fast_test(9);
        let (mut model, _) = Pilote::pretrain(cfg, &old, 10, SelectionStrategy::Herding).unwrap();
        let g0 = model.generation();
        assert!(g0 > 0, "pretrain ends in refresh_prototypes");
        model.learn_new_class(&new, 10).unwrap();
        assert!(model.generation() > g0, "update must bump the generation");
        let g1 = model.generation();
        model.refresh_prototypes().unwrap();
        assert_eq!(model.generation(), g1 + 1);
    }

    #[test]
    fn classify_batch_matches_predict_and_per_row() {
        let (old, _, test) = tiny_scenario();
        let cfg = PiloteConfig::fast_test(10);
        let (mut model, _) = Pilote::pretrain(cfg, &old, 10, SelectionStrategy::Herding).unwrap();
        let batch = test.features.slice_rows(0, 9).unwrap();
        let batched = model.classify_batch(&batch).unwrap();
        let labels: Vec<usize> = batched.iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, model.predict(&batch).unwrap());
        for (i, &(label, dist)) in batched.iter().enumerate() {
            let row = Tensor::vector(batch.row(i)).reshape([1, batch.cols()]).unwrap();
            let single = model.classify_batch(&row).unwrap();
            assert_eq!(single[0].0, label);
            assert_eq!(single[0].1.to_bits(), dist.to_bits(), "row {i} not bitwise equal");
        }
    }

    #[test]
    fn train_report_totals() {
        let mut r = TrainReport::default();
        assert!(r.final_train_loss().is_nan());
        r.epochs.push(EpochStats { epoch: 0, train_loss: 1.0, val_loss: None, lr: 0.01, seconds: 0.5 });
        r.epochs.push(EpochStats { epoch: 1, train_loss: 0.5, val_loss: None, lr: 0.005, seconds: 0.25 });
        assert_eq!(r.final_train_loss(), 0.5);
        assert!((r.total_seconds() - 0.75).abs() < 1e-12);
    }
}
