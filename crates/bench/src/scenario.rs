//! Scenario construction and the three-model protocol of §6.1.3.
//!
//! Every experiment follows the same shape: pick one activity as the *new
//! class*, pre-train on the remaining four, then update with one
//! [`Method`] (pre-trained / re-trained / PILOTE, or a rival strategy) and
//! evaluate on a held-out test set spanning all five activities. The
//! pre-trained model is shared across methods and rounds, exactly as in
//! the paper ("the re-trained model and PILOTE in each scenario are based
//! on the same pre-trained model").
//!
//! The fleet benches share the rest of this module: the normalised
//! five-activity corpus, the two-class pre-train of the class-incremental
//! schedule, and the session slicer that feeds their serving phases.

use crate::scale::Scale;
use pilote_core::pilote::TrainReport;
use pilote_core::{Method, Pilote, PiloteConfig, SelectionStrategy, SupportSet};
use pilote_har_data::dataset::generate_features;
use pilote_har_data::features::extract_batch;
use pilote_har_data::preprocess::Normalizer;
use pilote_har_data::{Activity, Dataset, Simulator};
use pilote_tensor::{Rng64, Tensor, TensorError};
use std::time::Instant;

/// One incremental-learning scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The held-out activity learned on the edge.
    pub new_activity: Activity,
    /// Training data of the four old activities.
    pub train_old: Dataset,
    /// Training pool of the new activity (edge samples are drawn here).
    pub new_pool: Dataset,
    /// Test set over all five activities (30% stratified hold-out).
    pub test: Dataset,
}

impl Scenario {
    /// Old-class labels of this scenario.
    pub fn old_labels(&self) -> Vec<usize> {
        Activity::ALL
            .iter()
            .filter(|&&a| a != self.new_activity)
            .map(|a| a.label())
            .collect()
    }

    /// Test subset restricted to the old classes.
    pub fn old_test(&self) -> Dataset {
        self.test.filter_classes(&self.old_labels()).expect("labels exist")
    }

    /// Test subset restricted to the new class.
    pub fn new_test(&self) -> Dataset {
        self.test.filter_classes(&[self.new_activity.label()]).expect("label exists")
    }
}

/// Simulates the campaign and splits it into a scenario for
/// `new_activity`.
pub fn build_scenario(new_activity: Activity, scale: &Scale, seed: u64) -> Scenario {
    let mut sim = pilote_har_data::Simulator::with_seed(seed);
    let counts: Vec<(Activity, usize)> =
        Activity::ALL.iter().map(|&a| (a, scale.per_activity)).collect();
    let (data, _norm) = generate_features(&mut sim, &counts).expect("simulation");
    let mut rng = Rng64::new(seed ^ 0x5011);
    let (train, test) = data.stratified_split(scale.test_fraction(), &mut rng).expect("split");
    let old_labels: Vec<usize> = Activity::ALL
        .iter()
        .filter(|&&a| a != new_activity)
        .map(|a| a.label())
        .collect();
    Scenario {
        new_activity,
        train_old: train.filter_classes(&old_labels).expect("old classes"),
        new_pool: train.filter_classes(&[new_activity.label()]).expect("new class"),
        test,
    }
}

/// A pre-trained starting point shared by all strategies of a scenario.
pub struct PretrainedBase {
    /// The scenario this base was trained for.
    pub scenario: Scenario,
    /// The pre-trained model (support set at the scale's default budget).
    pub model: Pilote,
    /// Pre-training report.
    pub report: TrainReport,
}

/// Pre-trains on the scenario's old classes (cloud phase).
pub fn pretrain_base(scenario: Scenario, scale: &Scale, seed: u64) -> PretrainedBase {
    let (model, report) = pretrain(&scenario.train_old, scale, seed);
    PretrainedBase { scenario, model, report }
}

/// Cloud pre-training on `data`, leaving the model configured for edge
/// updates.
fn pretrain(data: &Dataset, scale: &Scale, seed: u64) -> (Pilote, TrainReport) {
    let mut cfg = PiloteConfig::paper(seed);
    cfg.max_epochs = scale.pretrain_epochs;
    cfg.pairs_per_sample = 8;
    // Cloud pre-training decays slowly enough to actually converge; the
    // edge updates below revert to the paper's halve-every-epoch schedule.
    cfg.lr_halve_every = 3;
    let (mut model, report) =
        Pilote::pretrain(cfg, data, scale.exemplars_per_class, SelectionStrategy::Herding)
            .expect("pretrain");
    // Edge updates run under the edge budget, not the cloud budget.
    model.config_mut().max_epochs = scale.max_epochs;
    model.config_mut().pairs_per_sample = 4;
    model.config_mut().lr_halve_every = 1;
    (model, report)
}

/// Re-selects the base model's support set at a different per-class budget
/// and/or strategy (used by the Fig. 6 sweep), returning a fresh clone.
pub fn with_support_budget(
    base: &PretrainedBase,
    exemplars_per_class: usize,
    strategy: SelectionStrategy,
    seed: u64,
) -> Pilote {
    let mut model = base.model.clone_model();
    model.reseed(seed);
    let mut rng = model.fork_rng();
    let support = SupportSet::select_from(
        &base.scenario.train_old,
        model.net_mut(),
        exemplars_per_class,
        strategy,
        &mut rng,
    )
    .expect("support selection");
    *model.support_mut() = support;
    model.refresh_prototypes().expect("prototypes");
    model
}

/// Metrics of one arm run on one scenario.
#[derive(Debug, Clone, Copy)]
pub struct ModelRun {
    /// Accuracy over the full five-class test set.
    pub accuracy: f32,
    /// Accuracy restricted to the four old classes.
    pub old_accuracy: f32,
    /// Accuracy restricted to the new class.
    pub new_accuracy: f32,
    /// Wall-clock seconds of the update.
    pub seconds: f64,
    /// Training epochs consumed.
    pub epochs: usize,
}

/// Scores a classifier on the scenario's test set, its old classes and
/// its new class. `accuracy` is the classifier's accuracy on a dataset.
pub(crate) fn evaluate(
    scenario: &Scenario,
    mut accuracy: impl FnMut(&Dataset) -> Result<f32, TensorError>,
) -> ModelRun {
    ModelRun {
        accuracy: accuracy(&scenario.test).expect("test eval"),
        old_accuracy: accuracy(&scenario.old_test()).expect("old eval"),
        new_accuracy: accuracy(&scenario.new_test()).expect("new eval"),
        seconds: 0.0,
        epochs: 0,
    }
}

/// Draws the round's new-class sample set from the pool.
pub(crate) fn draw_new_data(scenario: &Scenario, n: usize, seed: u64) -> Dataset {
    let mut rng = Rng64::new(seed ^ 0xd21a);
    scenario
        .new_pool
        .sample_class(scenario.new_activity.label(), n, &mut rng)
        .expect("new-class sample")
}

/// Runs one arm of the protocol: reseeds `model` with `round_seed`, draws
/// `new_exemplars` new-class samples, updates the model with `method`
/// (timed) and evaluates it.
pub fn run_arm(
    method: Method,
    model: &mut Pilote,
    scenario: &Scenario,
    new_exemplars: usize,
    round_seed: u64,
) -> (ModelRun, TrainReport) {
    model.reseed(round_seed);
    let new_data = draw_new_data(scenario, new_exemplars, round_seed);
    let start = Instant::now();
    let report = method
        .update(model, &new_data, new_exemplars)
        .unwrap_or_else(|e| panic!("{} update: {e}", method.name()));
    let seconds = start.elapsed().as_secs_f64();
    let run = evaluate(scenario, |data| model.accuracy(data));
    (ModelRun { seconds, epochs: report.epochs.len(), ..run }, report)
}

/// Activities the class-incremental fleet schedules pre-train on; the
/// other three arrive as increments.
pub(crate) const BASE_ACTIVITIES: [Activity; 2] = [Activity::Still, Activity::Walk];

/// The class-incremental schedule, learned one activity at a time.
pub(crate) const INCREMENTS: [Activity; 3] = [Activity::Run, Activity::Drive, Activity::EScooter];

/// Builds the five-activity corpus, keeping the fitted normaliser for the
/// deployment package, and splits a held-out test set. Returns
/// `(train, test, normaliser)`.
pub(crate) fn corpus(scale: &Scale, seed: u64) -> (Dataset, Dataset, Normalizer) {
    let mut sim = Simulator::with_seed(seed);
    let counts: Vec<(Activity, usize)> =
        Activity::ALL.iter().map(|&a| (a, scale.per_activity)).collect();
    let raw = sim.raw_dataset(&counts);
    let features = extract_batch(&raw).expect("feature extraction");
    let (norm, features) = Normalizer::fit_transform(&features).expect("normalise");
    let data = Dataset::new(features, raw.labels).expect("dataset");
    let mut rng = Rng64::new(seed ^ 0x5011);
    let (train, test) = data.stratified_split(scale.test_fraction(), &mut rng).expect("split");
    (train, test, norm)
}

/// Pre-trains on [`BASE_ACTIVITIES`] only: the class-incremental
/// schedule needs three increments of headroom.
pub(crate) fn pretrain_two_class(train: &Dataset, scale: &Scale, seed: u64) -> Pilote {
    let base_labels: Vec<usize> = BASE_ACTIVITIES.iter().map(|a| a.label()).collect();
    pretrain(&train.filter_classes(&base_labels).expect("base classes"), scale, seed).0
}

/// Next deterministic `[windows, 28]` slice of the eval pool, wrapping at
/// the end.
pub(crate) fn session_slice(eval: &Dataset, cursor: &mut usize, windows: usize) -> Tensor {
    let rows = eval.features.rows();
    let start = *cursor % rows.saturating_sub(windows).max(1);
    *cursor += windows;
    eval.features
        .slice_rows(start, (start + windows).min(rows))
        .expect("eval slice in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_partitions_classes() {
        let scale = Scale::quick();
        let s = build_scenario(Activity::Run, &scale, 1);
        assert_eq!(s.old_labels().len(), 4);
        assert!(!s.old_labels().contains(&Activity::Run.label()));
        assert_eq!(s.new_pool.classes(), vec![Activity::Run.label()]);
        assert_eq!(s.test.classes().len(), 5);
    }

    #[test]
    fn three_model_protocol_runs() {
        let scale = Scale::quick();
        let scenario = build_scenario(Activity::Run, &scale, 2);
        let base = pretrain_base(scenario, &scale, 2);
        let mut pre = base.model.clone_model();
        let (run_pre, _) = run_arm(Method::Pretrained, &mut pre, &base.scenario, 30, 7);
        let mut pil = base.model.clone_model();
        let (run_pil, _) = run_arm(Method::Pilote, &mut pil, &base.scenario, 30, 7);
        for r in [run_pre, run_pil] {
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!((0.0..=1.0).contains(&r.new_accuracy));
        }
        // Both models now know all 5 classes.
        assert_eq!(pre.classifier().n_classes(), 5);
        assert_eq!(pil.classifier().n_classes(), 5);
    }

    #[test]
    fn support_budget_rebase_changes_size() {
        let scale = Scale::quick();
        let scenario = build_scenario(Activity::Walk, &scale, 3);
        let base = pretrain_base(scenario, &scale, 3);
        let model = with_support_budget(&base, 10, SelectionStrategy::Random, 9);
        assert_eq!(model.support().len(), 10 * 4);
    }
}
