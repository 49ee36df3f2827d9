//! One list of update rules for a [`Pilote`] learner.
//!
//! Every arm of the paper's three-model protocol (§6.1.3) and of the A4
//! strategy ablation starts from the same pre-trained model and learns
//! the same new-class data; a [`Method`] names the rule that updates the
//! model in place. Every method keeps one contract: afterwards the model
//! knows every class in `new_data`, stores at most `budget` random
//! exemplars per new class, and serves freshly refreshed prototypes.
//!
//! Each method keeps its own source of randomness, so every arm is a
//! fixed function of the model's seed: PILOTE draws from the model's own
//! stream, GDumb from `cfg.seed ^ 0x9d0b`, and every other method from a
//! [`Pilote::fork_rng`] fork.

use crate::pairs::PairScheme;
use crate::pilote::{train_embedding, Pilote, TrainOptions, TrainReport};
use crate::strategies::{ewc_finetune, gdumb};
use pilote_har_data::Dataset;
use pilote_tensor::{Rng64, TensorError};

/// A rule that integrates new classes into a [`Pilote`] in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// PILOTE's joint distillation + contrastive update (Algorithm 1).
    Pilote,
    /// The paper's Re-trained baseline: contrastive fine-tuning on
    /// `D₀ ∪ Dₙ` with no distillation — PILOTE with `α = 0` and full pair
    /// sampling.
    Retrained,
    /// The paper's Pre-trained baseline: the embedding stays frozen and
    /// the new classes only get prototypes.
    Pretrained,
    /// Contrastive fine-tuning on the new data alone — the lower bound
    /// every continual-learning paper reports.
    NaiveFinetune,
    /// GDumb (Prabhu et al. 2020): a greedy balanced memory and a network
    /// retrained from scratch on it.
    GDumb,
    /// Elastic weight consolidation (Kirkpatrick et al. 2017): fine-tuning
    /// on the new data under a diagonal-Fisher anchor.
    Ewc,
}

impl Method {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Pilote => "pilote",
            Method::Retrained => "retrained",
            Method::Pretrained => "pretrained",
            Method::NaiveFinetune => "naive-finetune",
            Method::GDumb => "gdumb",
            Method::Ewc => "ewc",
        }
    }

    /// Updates `model` with the classes in `new_data`, keeping at most
    /// `budget` random exemplars per new class, and refreshes every
    /// prototype. Returns the embedding-training report, which is empty
    /// for [`Method::Pretrained`] (nothing trains) and [`Method::Ewc`]
    /// (its loop keeps no per-epoch statistics).
    pub fn update(
        self,
        model: &mut Pilote,
        new_data: &Dataset,
        budget: usize,
    ) -> Result<TrainReport, TensorError> {
        // PILOTE and GDumb keep their own RNG; every other method is a
        // training stage followed by the shared tail, both drawing from one
        // fork of the model's stream.
        let train: TrainingStage = match self {
            Method::Pilote => return model.learn_new_class(new_data, budget),
            Method::GDumb => return gdumb(model, new_data, budget),
            Method::Retrained => retrain,
            Method::Pretrained => |_, _, _| Ok(TrainReport::default()),
            Method::NaiveFinetune => naive_finetune,
            Method::Ewc => ewc_finetune,
        };
        let mut rng = model.fork_rng();
        let report = train(model, new_data, &mut rng)?;
        model.integrate(new_data, budget, &mut rng)?;
        Ok(report)
    }
}

/// The training stage of a [`Method`] that draws from a
/// [`Pilote::fork_rng`] fork.
type TrainingStage = fn(&mut Pilote, &Dataset, &mut Rng64) -> Result<TrainReport, TensorError>;

/// [`Method::Retrained`]: contrastive fine-tuning on `D₀ ∪ Dₙ`.
fn retrain(
    model: &mut Pilote,
    new_data: &Dataset,
    rng: &mut Rng64,
) -> Result<TrainReport, TensorError> {
    let (combined, is_new) = model.support_union(new_data)?;
    contrastive_finetune(model, &combined, &is_new, rng)
}

/// [`Method::NaiveFinetune`]: contrastive fine-tuning on the new data
/// alone. One incoming class makes every sampled pair similar, so the
/// objective pulls the new class together with nothing holding the old
/// geometry in place.
fn naive_finetune(
    model: &mut Pilote,
    new_data: &Dataset,
    rng: &mut Rng64,
) -> Result<TrainReport, TensorError> {
    contrastive_finetune(model, new_data, &vec![true; new_data.len()], rng)
}

/// Contrastive-only fine-tuning of the embedding on `data`: no
/// distillation, full pair sampling, frozen batch-norm statistics.
fn contrastive_finetune(
    model: &mut Pilote,
    data: &Dataset,
    is_new: &[bool],
    rng: &mut Rng64,
) -> Result<TrainReport, TensorError> {
    let cfg = model.config().clone();
    let opts = TrainOptions {
        alpha: 0.0,
        distill_rows: Vec::new(),
        scheme: PairScheme::Full,
        freeze_bn: true,
    };
    train_embedding(model.net_mut(), data, is_new, &cfg, opts, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PiloteConfig;
    use crate::exemplar::SelectionStrategy;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};

    /// New-class exemplars kept per update — fewer than the fixture's
    /// new-class rows, so the cap is exercised.
    const BUDGET: usize = 7;

    /// Every variant, in declaration order.
    const ALL: [Method; 6] = [
        Method::Pilote,
        Method::Retrained,
        Method::Pretrained,
        Method::NaiveFinetune,
        Method::GDumb,
        Method::Ewc,
    ];

    /// Pre-trained Still/Drive model, the Run training rows, and a test
    /// set over all three classes.
    fn fixture() -> (Pilote, Dataset, Dataset) {
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
        let (model, _) =
            Pilote::pretrain(PiloteConfig::fast_test(9), &old, 15, SelectionStrategy::Herding)
                .unwrap();
        (model, new, test)
    }

    #[test]
    fn every_method_keeps_the_update_contract() {
        let (base, new, _) = fixture();
        let run = Activity::Run.label();
        assert!(new.len() > BUDGET, "the fixture must exceed the budget");
        let probe = new.features.slice_rows(0, 3).unwrap();
        for method in ALL {
            let mut model = base.clone_model();
            let before = model.embed(&probe);
            let generation = model.generation();
            method.update(&mut model, &new, BUDGET).unwrap();
            let name = method.name();
            assert!(model.classifier().labels().contains(&run), "{name}: new class unknown");
            assert!(
                model.classifier().prototype_matrix().as_slice().iter().all(|v| v.is_finite()),
                "{name}: non-finite prototypes"
            );
            let stored = model.support().class(run).unwrap().rows();
            assert!(stored <= BUDGET, "{name}: {stored} new-class exemplars over budget");
            assert!(model.generation() > generation, "{name}: generation did not move");
            if method == Method::Pretrained {
                assert_eq!(model.embed(&probe), before, "pretrained moved the embedding");
            }
        }
    }

    #[test]
    fn retrained_moves_embedding_and_learns() {
        let (base, new, test) = fixture();
        let mut model = base.clone_model();
        let probe = new.features.slice_rows(0, 3).unwrap();
        let before = model.embed(&probe);
        let report = Method::Retrained.update(&mut model, &new, 10).unwrap();
        assert!(!report.epochs.is_empty());
        let after = model.embed(&probe);
        assert!(before.max_abs_diff(&after).unwrap() > 1e-4, "embedding did not move");
        let run_test = test.filter_classes(&[Activity::Run.label()]).unwrap();
        assert!(model.accuracy(&run_test).unwrap() > 0.5);
    }

    #[test]
    fn retrained_retains_old_better_than_naive() {
        let (base, new, test) = fixture();
        let old_test = test
            .filter_classes(&[Activity::Still.label(), Activity::Drive.label()])
            .unwrap();
        let old_accuracy = |method: Method| {
            let mut model = base.clone_model();
            method.update(&mut model, &new, 15).unwrap();
            model.accuracy(&old_test).unwrap()
        };
        let naive = old_accuracy(Method::NaiveFinetune);
        let retrained = old_accuracy(Method::Retrained);
        assert!(retrained >= naive - 0.05, "retrained {retrained} vs naive {naive}");
    }

    #[test]
    fn method_names_are_stable() {
        let names: Vec<&str> = ALL.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            ["pilote", "retrained", "pretrained", "naive-finetune", "gdumb", "ewc"]
        );
    }
}
