//! Continual-learning strategies from the wider literature, on PILOTE's
//! backbone.
//!
//! The paper positions PILOTE against the broader continual-learning
//! literature (§2.1) without benchmarking it — the cited methods target
//! cloud-scale models. To make that positioning measurable (ablation A4)
//! this module holds edge-scale analogues of the canonical strategy
//! families:
//!
//! * GDumb — greedy balanced memory + retrain from scratch (Prabhu et al.
//!   2020), the body of [`crate::learner::Method::GDumb`];
//! * EWC — elastic weight consolidation, diagonal-Fisher quadratic penalty
//!   (Kirkpatrick et al. 2017), the training stage of
//!   [`crate::learner::Method::Ewc`];
//! * [`LwfClassifier`] — learning without forgetting via softened-logit
//!   distillation on a classification head (Li & Hoiem 2017). It replaces
//!   NCM with a softmax head, so it is a classifier of its own rather than
//!   a [`crate::learner::Method`].
//!
//! Naive fine-tuning and rehearsal need no code of their own: they are
//! [`crate::learner::Method::NaiveFinetune`] and the paper's Re-trained
//! baseline, [`crate::learner::Method::Retrained`].

use crate::config::PiloteConfig;
use crate::embedding::EmbeddingNet;
use crate::exemplar::SelectionStrategy;
use crate::pairs::{build_epoch_pairs, PairScheme};
use crate::pilote::{Pilote, TrainReport};
use pilote_har_data::Dataset;
use pilote_nn::loss::{contrastive_pair_loss, kd_soft_cross_entropy, softmax_cross_entropy};
use pilote_nn::sched::{HalvingLr, LrSchedule};
use pilote_nn::{Adam, Dense, Layer, Mode, Optimizer, Sequential};
use pilote_tensor::{Rng64, Tensor, TensorError};

/// EWC penalty strength λ.
pub(crate) const EWC_LAMBDA: f32 = 50.0;

/// LwF distillation temperature T.
pub(crate) const LWF_TEMPERATURE: f32 = 2.0;

/// GDumb: a balanced random memory of `budget` rows per class over the
/// support set and `new_data`, then a network re-initialised and trained
/// on the memory alone, which `model` adopts.
pub(crate) fn gdumb(
    model: &mut Pilote,
    new_data: &Dataset,
    budget: usize,
) -> Result<TrainReport, TensorError> {
    let cfg = model.config().clone();
    let mut rng = Rng64::new(cfg.seed ^ 0x9d0b);
    let mut memory = model.support().to_dataset()?.concat(new_data)?;
    let mut kept_rows = Vec::new();
    for label in memory.classes() {
        let idx = memory.class_indices(label);
        let chosen = rng.sample_indices(idx.len(), budget.min(idx.len()));
        kept_rows.extend(chosen.into_iter().map(|i| idx[i]));
    }
    memory = memory.select(&kept_rows)?;
    let (fresh, report) = Pilote::pretrain(
        PiloteConfig { seed: cfg.seed ^ 0x6d, ..cfg },
        &memory,
        budget,
        SelectionStrategy::Random,
    )?;
    model.adopt_learned(fresh);
    Ok(report)
}

/// EWC's training stage: contrastive fine-tuning on `new_data` alone with
/// the quadratic anchor `λ·Σ F_i (θ_i − θ*_i)²` ([`EWC_LAMBDA`]), the
/// diagonal Fisher `F` estimated on old-class pairs. Its loop keeps no
/// per-epoch statistics, so the report is empty.
pub(crate) fn ewc_finetune(
    model: &mut Pilote,
    new_data: &Dataset,
    rng: &mut Rng64,
) -> Result<TrainReport, TensorError> {
    let cfg = model.config().clone();
    let d0 = model.support().to_dataset()?;

    // ---- Fisher estimation on old-class contrastive pairs ---------------
    let net = model.net_mut();
    net.zero_grad();
    let is_new = vec![false; d0.len()];
    let pairs = build_epoch_pairs(&d0.labels, &is_new, PairScheme::Full, 4, rng);
    let mut fisher: Vec<Tensor> = Vec::new();
    if !pairs.is_empty() {
        let take = pairs.len().min(512);
        let batch = pairs.slice(0, take);
        let (fa, fb) = batch.gather(&d0.features)?;
        let stacked = Tensor::vstack(&[&fa, &fb])?;
        let emb = net.forward_train(&stacked);
        let ea = emb.slice_rows(0, take)?;
        let eb = emb.slice_rows(take, 2 * take)?;
        let (_, ga, gb) =
            contrastive_pair_loss(&ea, &eb, &batch.similar, cfg.margin, cfg.contrastive_form)?;
        net.backward(&Tensor::vstack(&[&ga, &gb])?);
        fisher = net
            .layers_mut()
            .params_and_grads()
            .into_iter()
            .map(|(_, g)| g.map(|v| v * v))
            .collect();
    }
    let anchor = net.state_dict();
    net.zero_grad();

    // ---- fine-tune on new data with the EWC gradient penalty -----------
    let schedule = HalvingLr { initial: cfg.initial_lr, min_lr: 1e-6 };
    let mut optimizer = Adam::new();
    for epoch in 0..cfg.max_epochs {
        let lr = schedule.lr_at(epoch);
        let is_new = vec![true; new_data.len()];
        let pairs = build_epoch_pairs(&new_data.labels, &is_new, PairScheme::Full, cfg.pairs_per_sample, rng);
        if pairs.is_empty() {
            break;
        }
        let mut start = 0usize;
        while start < pairs.len() {
            let end = (start + cfg.pair_batch).min(pairs.len());
            let batch = pairs.slice(start, end);
            start = end;
            let (fa, fb) = batch.gather(&new_data.features)?;
            net.zero_grad();
            let n = batch.len();
            let stacked = Tensor::vstack(&[&fa, &fb])?;
            let emb = net.forward_train(&stacked);
            let ea = emb.slice_rows(0, n)?;
            let eb = emb.slice_rows(n, 2 * n)?;
            let (_, ga, gb) =
                contrastive_pair_loss(&ea, &eb, &batch.similar, cfg.margin, cfg.contrastive_form)?;
            net.backward(&Tensor::vstack(&[&ga, &gb])?);
            // EWC penalty gradient: 2λ·F⊙(θ − θ*).
            if !fisher.is_empty() {
                for (pi, (param, grad)) in net.layers_mut().params_and_grads().into_iter().enumerate() {
                    let f = fisher[pi].as_slice();
                    let a = anchor[pi].as_slice();
                    for ((g, &p), (&fi, &ai)) in
                        grad.as_mut_slice().iter_mut().zip(param.as_slice()).zip(f.iter().zip(a))
                    {
                        *g += 2.0 * EWC_LAMBDA * fi * (p - ai);
                    }
                }
            }
            optimizer.step(net.layers_mut(), lr);
        }
    }
    Ok(TrainReport::default())
}

/// Learning-without-forgetting classifier: a softmax head on the embedding
/// backbone, updated with hard cross-entropy on the new class plus
/// temperature-softened distillation against the pre-update logits.
pub struct LwfClassifier {
    backbone: EmbeddingNet,
    head: Sequential,
    labels: Vec<usize>,
    cfg: PiloteConfig,
    rng: Rng64,
}

impl LwfClassifier {
    /// Builds the classifier from a pre-trained PILOTE model: the backbone
    /// is copied and a linear head is fitted on the support set with plain
    /// cross-entropy.
    pub fn from_pretrained(base: &Pilote) -> Result<LwfClassifier, TensorError> {
        let cfg = base.config().clone();
        let mut rng = Rng64::new(cfg.seed ^ 0x17f);
        let labels = base.classifier().labels().to_vec();
        let mut this = LwfClassifier {
            backbone: base.net().clone_frozen(),
            head: Sequential::new()
                .push(Dense::new(cfg.net.embedding_dim, labels.len(), &mut rng)),
            labels,
            cfg,
            rng,
        };
        let d0 = base.support().to_dataset()?;
        this.fit_head(&d0, None)?;
        Ok(this)
    }

    fn label_index(&self, label: usize) -> Option<usize> {
        self.labels.iter().position(|&l| l == label)
    }

    /// Trains the head (and lightly the backbone) with CE on `data`,
    /// optionally adding KD against `teacher` logits at [`LWF_TEMPERATURE`].
    fn fit_head(
        &mut self,
        data: &Dataset,
        mut teacher: Option<(&mut EmbeddingNet, &mut Sequential, usize)>,
    ) -> Result<(), TensorError> {
        let schedule = HalvingLr { initial: self.cfg.initial_lr, min_lr: 1e-6 };
        let mut optim_head = Adam::new();
        let mut optim_backbone = Adam::new();
        for epoch in 0..self.cfg.max_epochs {
            let lr = schedule.lr_at(epoch);
            let batches =
                pilote_nn::train::shuffled_batches(data.len(), self.cfg.pair_batch, &mut self.rng);
            for batch in batches {
                let feats = data.features.select_rows(&batch)?;
                let targets: Vec<usize> = batch
                    .iter()
                    .map(|&i| self.label_index(data.labels[i]).expect("label known"))
                    .collect();
                self.backbone.zero_grad();
                self.head.zero_grad();
                let emb = self.backbone.forward_train(&feats);
                let logits = self.head.forward(&emb, Mode::Train);
                let (_, mut grad_logits) = softmax_cross_entropy(&logits, &targets)?;
                if let Some((t_backbone, t_head, old_k)) = teacher.as_mut() {
                    let t_emb = t_backbone.embed(&feats);
                    let t_logits = t_head.forward(&t_emb, Mode::Eval);
                    // KD on the old-class logit slice only.
                    let old_cols: Vec<usize> = (0..*old_k).collect();
                    let s_old = select_cols(&logits, &old_cols)?;
                    let (_, kd_grad) = kd_soft_cross_entropy(&s_old, &t_logits, LWF_TEMPERATURE)?;
                    scatter_cols_add(&mut grad_logits, &kd_grad, &old_cols)?;
                }
                let grad_emb = self.head.backward(&grad_logits);
                self.backbone.backward(&grad_emb);
                optim_head.step(&mut self.head, lr);
                optim_backbone.step(self.backbone.layers_mut(), lr * 0.1);
            }
        }
        Ok(())
    }

    /// LwF incremental step: extend the head with one output, then train
    /// on the new data with CE (new class) + KD (old logits).
    pub fn learn_new_class(
        &mut self,
        new_data: &Dataset,
        new_label: usize,
    ) -> Result<(), TensorError> {
        let old_k = self.labels.len();
        let mut teacher_backbone = self.backbone.clone_frozen();
        let mut teacher_head = self.head.clone();

        // Extend the head: copy old weight columns into a wider layer.
        let emb_dim = self.cfg.net.embedding_dim;
        let mut new_head =
            Sequential::new().push(Dense::new(emb_dim, old_k + 1, &mut self.rng));
        {
            let old_params = self.head.state_dict();
            let pairs = new_head.params_and_grads();
            // params: [weight [emb, k+1], bias [k+1]]
            let (weight, _) = &pairs[0];
            let mut w = (*weight).clone();
            for i in 0..emb_dim {
                for j in 0..old_k {
                    let v = old_params[0].as_slice()[i * old_k + j];
                    w.as_mut_slice()[i * (old_k + 1) + j] = v;
                }
            }
            drop(pairs);
            let mut pairs = new_head.params_and_grads();
            pairs[0].0.as_mut_slice().copy_from_slice(w.as_slice());
            for j in 0..old_k {
                pairs[1].0.as_mut_slice()[j] = old_params[1].as_slice()[j];
            }
        }
        self.head = new_head;
        self.labels.push(new_label);

        // Train with CE + KD. `fit_head` handles the KD slice.
        self.fit_head(new_data, Some((&mut teacher_backbone, &mut teacher_head, old_k)))
    }

    /// Softmax-argmax prediction.
    pub fn predict(&mut self, features: &Tensor) -> Result<Vec<usize>, TensorError> {
        let emb = self.backbone.embed(features);
        let logits = self.head.forward(&emb, Mode::Eval);
        let mut out = Vec::with_capacity(logits.rows());
        for i in 0..logits.rows() {
            let row = Tensor::vector(logits.row(i));
            out.push(self.labels[row.argmax()?]);
        }
        Ok(out)
    }

    /// Accuracy on a labelled dataset.
    pub fn accuracy(&mut self, data: &Dataset) -> Result<f32, TensorError> {
        let pred = self.predict(&data.features)?;
        Ok(crate::metrics::accuracy(&pred, &data.labels))
    }
}

/// Extracts the given columns of a rank-2 tensor.
fn select_cols(t: &Tensor, cols: &[usize]) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([t.rows(), cols.len()]);
    for i in 0..t.rows() {
        for (jj, &j) in cols.iter().enumerate() {
            out.row_mut(i)[jj] = t.at(i, j);
        }
    }
    Ok(out)
}

/// Adds `src[:, jj]` into `dst[:, cols[jj]]`.
fn scatter_cols_add(dst: &mut Tensor, src: &Tensor, cols: &[usize]) -> Result<(), TensorError> {
    for i in 0..dst.rows() {
        for (jj, &j) in cols.iter().enumerate() {
            let add = src.at(i, jj);
            let cur = dst.at(i, j);
            dst.row_mut(i)[j] = cur + add;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};

    #[test]
    fn lwf_learns_the_new_class_on_its_head() {
        let mut sim = Simulator::with_seed(31);
        let (all, _) = generate_features(
            &mut sim,
            &[(Activity::Still, 50), (Activity::Drive, 50), (Activity::Run, 50)],
        )
        .unwrap();
        let mut rng = Rng64::new(4);
        let (train, test) = all.stratified_split(0.3, &mut rng).unwrap();
        let old = train
            .filter_classes(&[Activity::Still.label(), Activity::Drive.label()])
            .unwrap();
        let new = train.filter_classes(&[Activity::Run.label()]).unwrap();
        let (base, _) =
            Pilote::pretrain(PiloteConfig::fast_test(9), &old, 15, SelectionStrategy::Herding)
                .unwrap();
        let mut clf = LwfClassifier::from_pretrained(&base).unwrap();
        clf.learn_new_class(&new, Activity::Run.label()).unwrap();
        let accuracy = clf.accuracy(&test).unwrap();
        assert!((0.0..=1.0).contains(&accuracy), "accuracy {accuracy}");
        let predicted = clf.predict(&test.features).unwrap();
        assert!(predicted.contains(&Activity::Run.label()), "the new class is never predicted");
    }

    #[test]
    fn col_helpers_round_trip() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let sel = select_cols(&t, &[0, 2]).unwrap();
        assert_eq!(sel.as_slice(), &[1.0, 3.0, 4.0, 6.0]);
        let mut dst = Tensor::zeros([2, 3]);
        scatter_cols_add(&mut dst, &sel, &[0, 2]).unwrap();
        assert_eq!(dst.as_slice(), &[1.0, 0.0, 3.0, 4.0, 0.0, 6.0]);
    }
}
