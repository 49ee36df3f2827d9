//! Model-quality monitoring: forgetting, prototype drift and NCM margins.
//!
//! The paper's central claim is that distillation prevents catastrophic
//! forgetting — this module is how the repo *watches* for it at run time.
//! A [`QualityMonitor`] holds a fixed, held-out probe set (already in
//! model feature space) and, at every [`Pilote`] generation bump
//! (pre-train, incremental update, rollback, degradation, federated
//! install), records:
//!
//! * **per-class probe accuracy** for every probe class the classifier
//!   knows;
//! * a **forgetting score**: the drop in mean old-class accuracy versus
//!   the previous observation ([`crate::metrics::forgetting`]; positive =
//!   forgot);
//! * **prototype drift**: the L2 distance of each class mean from its
//!   previous-generation position, plus a scale-free ratio against the
//!   previous prototype's norm;
//! * an **NCM margin histogram**: per probe window, the squared distance
//!   to the second-nearest prototype minus the nearest (via the same
//!   distance kernel as `classify_with_distances`) — collapsing margins
//!   mean the classes are blurring together even while accuracy holds.
//!
//! Three deterministic threshold rules turn the measurements into
//! [`QualityAlert`]s (consumed by `pilote-magneto`, which raises them as
//! `EventKind::AlertRaised` device events):
//!
//! | rule | fires when |
//! |------|------------|
//! | [`AlertRule::Forgetting`] | forgetting score > `FORGETTING_THRESHOLD` (0.10, i.e. 10 pts) |
//! | [`AlertRule::MarginCollapse`] | mean margin < `MARGIN_COLLAPSE_RATIO` (0.25) × the baseline mean margin |
//! | [`AlertRule::DriftSpike`] | any class drift ratio > `DRIFT_SPIKE_RATIO` (0.5 of the prototype norm) |
//!
//! With [`QualityMonitor::enable_adaptive`] the forgetting and drift
//! thresholds are re-derived per observation from the device's own probe
//! history instead of the shared constants (clamped to stay within 2× of
//! the base either way); the margin rule is already baseline-relative and
//! never adapts.
//!
//! The margin and drift rules only compare observations with the **same
//! class set**: adding a class redefines the margin (nearest vs
//! second-nearest over more prototypes) and legitimately moves old
//! prototypes to make room, so cross-class-set comparisons would alert on
//! healthy updates. Whenever the class set changes, the margin baseline is
//! re-anchored at the new measurement and drift alerts are suppressed for
//! that one observation (drift values are still reported). The forgetting
//! rule is exempt — old-class accuracy is well-defined no matter how many
//! classes the model has gained.
//!
//! Everything here is a deterministic function of the model and the probe
//! set — no randomness, no wall clock — so one seed produces
//! byte-identical reports at any `PILOTE_THREADS`. Monitoring runs
//! regardless of the `PILOTE_OBS` kill switch (alerts are device
//! *behaviour*, not telemetry); the margin histogram uses the standalone
//! [`HistogramSnapshot`] accumulator, which is not registry-gated.
//!
//! Probe classification rides the same fused packed-GEMM serving kernel
//! as live traffic (`docs/KERNELS.md`): the NCM distance matrix is one
//! GEMM dispatch with the squared-distance combine applied as a per-tile
//! epilogue, so quality sampling adds no second sweep over the probe's
//! `[n, classes]` distance output and its flop charge (and therefore the
//! virtual clock cost of every quality sample) is unchanged.

use crate::metrics;
use crate::pilote::Pilote;
use crate::session_metrics::{AccuracyMatrix, TaskGroup};
use pilote_har_data::Dataset;
use pilote_obs::HistogramSnapshot;
use pilote_tensor::TensorError;
use serde::{Deserialize, Serialize};

/// Margin histogram bucket bounds (squared-distance units). Fixed at
/// compile time so histograms from every device merge bucket-wise.
pub const MARGIN_BOUNDS: &[f64] =
    &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0];

/// Guards against division by a vanishing prototype norm in the drift
/// ratio.
const NORM_FLOOR: f32 = 1e-6;

/// Forgetting score (old-class accuracy drop, 0–1) above which
/// [`AlertRule::Forgetting`] fires.
const FORGETTING_THRESHOLD: f32 = 0.10;

/// Fraction of the baseline mean margin below which
/// [`AlertRule::MarginCollapse`] fires.
const MARGIN_COLLAPSE_RATIO: f64 = 0.25;

/// Per-class drift ratio (L2 drift / previous prototype norm) above which
/// [`AlertRule::DriftSpike`] fires.
const DRIFT_SPIKE_RATIO: f32 = 0.5;

/// Adaptive thresholds: how many most-recent prior observations feed the
/// derivation.
const ADAPTIVE_WINDOW: usize = 4;

/// Adaptive thresholds: prior observations needed before adaptation kicks
/// in; below this the base threshold applies.
const ADAPTIVE_MIN_HISTORY: usize = 3;

/// Adaptive thresholds: multiplier on the history's standard deviation (a
/// 3-sigma band).
const ADAPTIVE_HEADROOM: f64 = 3.0;

/// A per-device threshold derived from the device's own probe history
/// instead of a fleet-wide constant. Adaimi & Thomaz's lifelong-learning
/// study (PAPERS.md) shows per-user baselines diverge enough that shared
/// alert constants misfire: a device whose forgetting score naturally
/// jitters by 5 pts needs more headroom than one that sits at 0.
///
/// Returns `ADAPTIVE_HEADROOM ×` the standard deviation of the rule's
/// measured `history` (oldest first) over the last `ADAPTIVE_WINDOW`
/// observations, clamped to `[0.5 × base, 2.0 × base]` so a pathological
/// history can never disable the rule or make it hair-trigger. Returns
/// `base` while the history is shorter than `ADAPTIVE_MIN_HISTORY`. A
/// deterministic fold over the report history, so adaptation preserves
/// the byte-identical-across-runs contract.
fn adaptive_threshold(base: f64, history: &[f64]) -> f64 {
    if history.len() < ADAPTIVE_MIN_HISTORY {
        return base;
    }
    let tail = &history[history.len().saturating_sub(ADAPTIVE_WINDOW)..];
    let n = tail.len() as f64;
    let mean = tail.iter().sum::<f64>() / n;
    let var = tail.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (ADAPTIVE_HEADROOM * var.sqrt()).clamp(0.5 * base, 2.0 * base)
}

/// Which threshold rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertRule {
    /// Old-class accuracy dropped more than the threshold since the
    /// previous observation.
    Forgetting,
    /// The mean NCM margin fell below a fraction of its baseline.
    MarginCollapse,
    /// A class prototype jumped by a large fraction of its own norm.
    DriftSpike,
}

impl AlertRule {
    /// Stable machine-readable rule name (used in events and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            AlertRule::Forgetting => "forgetting",
            AlertRule::MarginCollapse => "margin_collapse",
            AlertRule::DriftSpike => "drift_spike",
        }
    }
}

/// One fired rule: the measured value and the threshold it crossed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityAlert {
    /// The rule that fired.
    pub rule: AlertRule,
    /// Model generation the measurement was taken at.
    pub generation: u64,
    /// The measured value (forgetting score, mean margin, or worst drift
    /// ratio, per rule).
    pub value: f64,
    /// The effective threshold the value crossed.
    pub threshold: f64,
}

/// Per-class measurements within one report, sorted by label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassQuality {
    /// Class label.
    pub label: usize,
    /// Probe accuracy for this class, or `-1.0` when the probe set has no
    /// rows of it (kept numeric so the report stays flat JSON).
    pub accuracy: f32,
    /// L2 distance of the prototype from its previous-generation position
    /// (0 for a class first seen in this observation).
    pub drift: f32,
    /// `drift` divided by the previous prototype's norm (scale-free; 0 for
    /// a first-seen class).
    pub drift_ratio: f32,
}

/// One observation of model quality at a specific generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Model generation observed.
    pub generation: u64,
    /// Accuracy over the probe rows whose true class the model knows.
    pub probe_accuracy: f32,
    /// Mean per-class accuracy over the monitored old classes.
    pub old_class_accuracy: f32,
    /// Drop in old-class accuracy versus the previous observation
    /// (positive = forgot; 0 on the first observation).
    pub forgetting: f32,
    /// Mean NCM margin (squared-distance units) over the probe; `-1.0`
    /// when the classifier has fewer than two classes.
    pub mean_margin: f64,
    /// Margin histogram over the probe, with [`MARGIN_BOUNDS`] buckets.
    pub margins: HistogramSnapshot,
    /// Per-class accuracy and drift, sorted by label.
    pub per_class: Vec<ClassQuality>,
    /// Alerts raised by this observation.
    pub alerts: Vec<QualityAlert>,
}

/// Watches a [`Pilote`] model across generations (see the module docs).
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    probe: Dataset,
    old_labels: Vec<usize>,
    last_generation: Option<u64>,
    prev_prototypes: Vec<(usize, Vec<f32>)>,
    prev_old_accuracy: Option<f32>,
    baseline_mean_margin: Option<f64>,
    /// Sorted class labels of the previous observation — margin and drift
    /// rules only fire when the class set is unchanged (see module docs).
    prev_known: Vec<usize>,
    /// When set, forgetting/drift thresholds are derived per observation
    /// from this monitor's own report history (see
    /// [`QualityMonitor::enable_adaptive`]).
    adaptive: bool,
    /// When set, every observation also stamps one row of the session ×
    /// task accuracy matrix (see [`crate::session_metrics`]).
    session_matrix: Option<AccuracyMatrix>,
    reports: Vec<QualityReport>,
}

impl QualityMonitor {
    /// Builds a monitor over `probe` (held-out windows **already in model
    /// feature space**). `old_labels` are the classes whose accuracy the
    /// forgetting score tracks — typically the pre-trained classes.
    pub fn new(probe: Dataset, old_labels: &[usize]) -> Self {
        let mut old_labels = old_labels.to_vec();
        old_labels.sort_unstable();
        old_labels.dedup();
        QualityMonitor {
            probe,
            old_labels,
            last_generation: None,
            prev_prototypes: Vec::new(),
            prev_old_accuracy: None,
            baseline_mean_margin: None,
            prev_known: Vec::new(),
            adaptive: false,
            session_matrix: None,
            reports: Vec::new(),
        }
    }

    /// Enables session-matrix recording (builder form): every observation
    /// appends one [`AccuracyMatrix`] row measuring the probe against each
    /// task group. The same probe classification pass feeds both the
    /// quality report and the matrix row, so recording adds no extra model
    /// evaluation (and therefore no extra virtual-clock cost).
    pub fn with_session_tasks(mut self, tasks: Vec<TaskGroup>) -> Self {
        self.session_matrix = Some(AccuracyMatrix::new(tasks));
        self
    }

    /// The session × task accuracy matrix, if recording is enabled.
    pub fn session_matrix(&self) -> Option<&AccuracyMatrix> {
        self.session_matrix.as_ref()
    }

    /// Enables per-device adaptive threshold derivation: from the next
    /// observation on, the forgetting and drift thresholds track this
    /// monitor's own report history instead of the shared constants (see
    /// the module docs).
    pub fn enable_adaptive(&mut self) {
        self.adaptive = true;
    }

    /// The monitored old-class labels, sorted.
    pub fn old_labels(&self) -> &[usize] {
        &self.old_labels
    }

    /// All reports taken so far, in observation order — the forgetting
    /// curve of this model.
    pub fn reports(&self) -> &[QualityReport] {
        &self.reports
    }

    /// The most recent report, if any.
    pub fn last_report(&self) -> Option<&QualityReport> {
        self.reports.last()
    }

    /// Total alerts raised across all observations.
    pub fn alert_count(&self) -> usize {
        self.reports.iter().map(|r| r.alerts.len()).sum()
    }

    /// The `(forgetting, drift)` thresholds in force for the *next*
    /// observation: the base constants when adaptation is off or the
    /// history is still short, otherwise the per-device derived values
    /// (the margin ratio never adapts — it is already baseline-relative).
    fn effective_thresholds(&self) -> (f32, f32) {
        if !self.adaptive {
            return (FORGETTING_THRESHOLD, DRIFT_SPIKE_RATIO);
        }
        let forgetting_history: Vec<f64> =
            self.reports.iter().map(|r| f64::from(r.forgetting)).collect();
        let drift_history: Vec<f64> = self
            .reports
            .iter()
            .map(|r| {
                r.per_class.iter().map(|c| f64::from(c.drift_ratio)).fold(0.0, f64::max)
            })
            .collect();
        (
            adaptive_threshold(f64::from(FORGETTING_THRESHOLD), &forgetting_history) as f32,
            adaptive_threshold(f64::from(DRIFT_SPIKE_RATIO), &drift_history) as f32,
        )
    }

    /// Samples the model if its generation moved since the last
    /// observation; returns `None` when the generation is unchanged.
    /// The first call always samples (the baseline observation).
    pub fn observe(&mut self, model: &mut Pilote) -> Result<Option<QualityReport>, TensorError> {
        let generation = model.generation();
        if self.last_generation == Some(generation) {
            return Ok(None);
        }
        let report = self.measure(model, generation)?;
        self.reports.push(report.clone());
        Ok(Some(report))
    }

    /// Takes the measurement and rolls the monitor state forward.
    fn measure(
        &mut self,
        model: &mut Pilote,
        generation: u64,
    ) -> Result<QualityReport, TensorError> {
        let embeddings = model.embed(&self.probe.features);
        let clf = model.classifier();
        let known = clf.labels().to_vec();
        let mut known_sorted = known.clone();
        known_sorted.sort_unstable();
        // Margin/drift comparisons are only meaningful against an
        // observation of the same class set (see module docs).
        let same_class_set = !self.prev_known.is_empty() && self.prev_known == known_sorted;
        let distances = clf.distances(&embeddings)?;
        let n = distances.rows();
        let k = distances.cols();

        // Winners + margins in one pass over the distance matrix.
        let mut predicted = Vec::with_capacity(n);
        let mut margins = HistogramSnapshot::with_bounds(MARGIN_BOUNDS);
        let mut margin_sum = 0.0f64;
        for row in 0..n {
            let mut best = (0usize, f32::INFINITY);
            let mut second = f32::INFINITY;
            for col in 0..k {
                let d = distances.at(row, col);
                if d < best.1 {
                    second = best.1;
                    best = (col, d);
                } else if d < second {
                    second = d;
                }
            }
            predicted.push(known[best.0]);
            if k >= 2 {
                let margin = f64::from(second) - f64::from(best.1);
                margins.record(margin);
                margin_sum += margin;
            }
        }
        let mean_margin = if k >= 2 && n > 0 { margin_sum / n as f64 } else { -1.0 };

        // Session-matrix row: same predictions, bucketed by task group.
        if let Some(matrix) = &mut self.session_matrix {
            matrix.record_predictions(generation, &self.probe, &predicted, &known_sorted);
        }

        // Per-class probe accuracy (only classes the model knows), probe
        // accuracy over those rows, and the old-class mean.
        let mut per_class: Vec<ClassQuality> = Vec::new();
        let mut known_correct = 0usize;
        let mut known_total = 0usize;
        let mut old_sum = 0.0f32;
        let mut old_classes = 0usize;
        for &label in &known {
            let rows = self.probe.class_indices(label);
            let accuracy = if rows.is_empty() {
                -1.0
            } else {
                let correct = rows.iter().filter(|&&r| predicted[r] == label).count();
                known_correct += correct;
                known_total += rows.len();
                correct as f32 / rows.len() as f32
            };
            if self.old_labels.contains(&label) && !rows.is_empty() {
                old_sum += accuracy;
                old_classes += 1;
            }
            per_class.push(ClassQuality { label, accuracy, drift: 0.0, drift_ratio: 0.0 });
        }
        per_class.sort_unstable_by_key(|c| c.label);
        let probe_accuracy =
            if known_total == 0 { -1.0 } else { known_correct as f32 / known_total as f32 };
        let old_class_accuracy =
            if old_classes == 0 { -1.0 } else { old_sum / old_classes as f32 };

        // Prototype drift against the previous generation.
        let mut worst_drift_ratio = 0.0f32;
        let mut current_prototypes: Vec<(usize, Vec<f32>)> = Vec::new();
        for class in &mut per_class {
            let Some(proto) = clf.prototype(class.label) else { continue };
            let current = proto.as_slice().to_vec();
            if let Some((_, prev)) =
                self.prev_prototypes.iter().find(|(l, _)| *l == class.label)
            {
                if prev.len() == current.len() {
                    let sq: f32 =
                        prev.iter().zip(&current).map(|(a, b)| (a - b) * (a - b)).sum();
                    let prev_norm: f32 = prev.iter().map(|v| v * v).sum::<f32>().sqrt();
                    class.drift = sq.sqrt();
                    class.drift_ratio = class.drift / prev_norm.max(NORM_FLOOR);
                    worst_drift_ratio = worst_drift_ratio.max(class.drift_ratio);
                }
            }
            current_prototypes.push((class.label, current));
        }

        // Forgetting versus the previous observation.
        let forgetting = match (self.prev_old_accuracy, old_class_accuracy >= 0.0) {
            (Some(before), true) => metrics::forgetting(before, old_class_accuracy),
            _ => 0.0,
        };

        // Threshold rules. Forgetting/drift thresholds may be adapted from
        // this monitor's own history; `self.reports` still holds only the
        // *prior* observations here, so a measurement never feeds its own
        // threshold.
        let (forgetting_threshold, drift_threshold) = self.effective_thresholds();
        let mut alerts = Vec::new();
        if forgetting > forgetting_threshold {
            alerts.push(QualityAlert {
                rule: AlertRule::Forgetting,
                generation,
                value: f64::from(forgetting),
                threshold: f64::from(forgetting_threshold),
            });
        }
        if let (true, Some(baseline)) = (same_class_set, self.baseline_mean_margin) {
            let floor = MARGIN_COLLAPSE_RATIO * baseline;
            if mean_margin >= 0.0 && mean_margin < floor {
                alerts.push(QualityAlert {
                    rule: AlertRule::MarginCollapse,
                    generation,
                    value: mean_margin,
                    threshold: floor,
                });
            }
        }
        if same_class_set && worst_drift_ratio > drift_threshold {
            alerts.push(QualityAlert {
                rule: AlertRule::DriftSpike,
                generation,
                value: f64::from(worst_drift_ratio),
                threshold: f64::from(drift_threshold),
            });
        }

        // Roll state forward. A changed class set re-anchors the margin
        // baseline: margins across different class counts are not
        // comparable.
        self.last_generation = Some(generation);
        if old_class_accuracy >= 0.0 {
            self.prev_old_accuracy = Some(old_class_accuracy);
        }
        if !same_class_set && mean_margin >= 0.0 {
            self.baseline_mean_margin = Some(mean_margin);
        }
        self.prev_prototypes = current_prototypes;
        self.prev_known = known_sorted;

        Ok(QualityReport {
            generation,
            probe_accuracy,
            old_class_accuracy,
            forgetting,
            mean_margin,
            margins,
            per_class,
            alerts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::Method;
    use crate::config::PiloteConfig;
    use crate::exemplar::SelectionStrategy;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};
    use pilote_tensor::Rng64;

    /// Pre-trained Still/Walk model, Run training pool, held-out probe.
    fn fixture(seed: u64) -> (Pilote, Dataset, Dataset) {
        let mut sim = Simulator::with_seed(21);
        let (all, _) = generate_features(
            &mut sim,
            &[(Activity::Still, 50), (Activity::Walk, 50), (Activity::Run, 50)],
        )
        .unwrap();
        let mut rng = Rng64::new(2);
        let (train, test) = all.stratified_split(0.3, &mut rng).unwrap();
        let old = train
            .filter_classes(&[Activity::Still.label(), Activity::Walk.label()])
            .unwrap();
        let new = train.filter_classes(&[Activity::Run.label()]).unwrap();
        let cfg = PiloteConfig::fast_test(seed);
        let (model, _) = Pilote::pretrain(cfg, &old, 15, SelectionStrategy::Herding).unwrap();
        (model, new, test)
    }

    fn old_labels() -> Vec<usize> {
        vec![Activity::Still.label(), Activity::Walk.label()]
    }

    #[test]
    fn observe_gates_on_generation() {
        let (mut model, _, probe) = fixture(3);
        let mut monitor = QualityMonitor::new(probe, &old_labels());
        let first = monitor.observe(&mut model).unwrap();
        assert!(first.is_some(), "first call must take the baseline");
        assert!(
            monitor.observe(&mut model).unwrap().is_none(),
            "unchanged generation must not re-sample"
        );
        model.refresh_prototypes().unwrap();
        assert!(monitor.observe(&mut model).unwrap().is_some());
        assert_eq!(monitor.reports().len(), 2);
    }

    #[test]
    fn session_matrix_rows_follow_observations() {
        use crate::session_metrics::TaskGroup;
        let (mut model, new, probe) = fixture(3);
        let tasks = vec![
            TaskGroup::new("base", &old_labels()),
            TaskGroup::new("run", &[Activity::Run.label()]),
        ];
        let mut monitor = QualityMonitor::new(probe, &old_labels())
            .with_session_tasks(tasks);
        monitor.observe(&mut model).unwrap().expect("baseline");
        let matrix = monitor.session_matrix().expect("recording enabled");
        assert_eq!(matrix.sessions(), 1);
        assert!(!matrix.rows()[0].known[1], "Run not learned yet");
        assert!(matrix.at(0, 1) >= 0.0, "probe has Run rows, so FWT is measurable");

        model.learn_new_class(&new, 15).unwrap();
        let report = monitor.observe(&mut model).unwrap().expect("post-update");
        let matrix = monitor.session_matrix().expect("recording enabled");
        assert_eq!(matrix.sessions(), 2);
        assert_eq!(matrix.rows()[1].generation, report.generation);
        assert!(matrix.rows()[1].known[1], "Run learned in session 1");
        assert_eq!(matrix.learned_session(1), Some(1));
        // An unchanged generation stamps nothing.
        assert!(monitor.observe(&mut model).unwrap().is_none());
        assert_eq!(monitor.session_matrix().unwrap().sessions(), 2);
    }

    #[test]
    fn baseline_report_measures_accuracy_and_margins() {
        let (mut model, _, probe) = fixture(3);
        let mut monitor = QualityMonitor::new(probe, &old_labels());
        let report = monitor.observe(&mut model).unwrap().expect("baseline");
        assert_eq!(report.generation, model.generation());
        assert!(report.old_class_accuracy > 0.7, "pretrain should separate Still/Walk");
        assert_eq!(report.forgetting, 0.0, "no previous observation to forget against");
        assert!(report.mean_margin > 0.0);
        assert_eq!(
            report.margins.total(),
            // Every probe row gets a margin once ≥ 2 classes exist.
            monitor.probe.len() as u64,
        );
        assert!(report.alerts.is_empty(), "a healthy baseline must not alert");
        // Per-class rows are sorted and the unknown class (Run) is absent.
        let labels: Vec<usize> = report.per_class.iter().map(|c| c.label).collect();
        assert_eq!(labels, old_labels());
    }

    #[test]
    fn retrained_alerts_pilote_does_not() {
        // Seed chosen so the tiny fixture separates the two strategies
        // cleanly: Re-trained forgets past the 10-pt threshold, PILOTE
        // stays well under it.
        let (model, new, probe) = fixture(6);

        let mut pilote = model.clone_model();
        let mut pilote_monitor =
            QualityMonitor::new(probe.clone(), &old_labels());
        pilote_monitor.observe(&mut pilote).unwrap().expect("baseline");
        pilote.learn_new_class(&new, 15).unwrap();
        let pilote_report =
            pilote_monitor.observe(&mut pilote).unwrap().expect("post-update sample");
        assert!(
            pilote_report.alerts.is_empty(),
            "PILOTE (distillation on) must not alert — margin/drift rules are \
             suppressed across a class-set change and forgetting stays under \
             threshold: {pilote_report:?}"
        );

        let mut retrained = model.clone_model();
        let mut retrained_monitor =
            QualityMonitor::new(probe, &old_labels());
        retrained_monitor.observe(&mut retrained).unwrap().expect("baseline");
        Method::Retrained.update(&mut retrained, &new, 15).unwrap();
        let retrained_report =
            retrained_monitor.observe(&mut retrained).unwrap().expect("post-update sample");
        assert!(
            retrained_report.forgetting > pilote_report.forgetting,
            "re-training (no distillation) must forget more than PILOTE: {} vs {}",
            retrained_report.forgetting,
            pilote_report.forgetting
        );
        assert!(
            !retrained_report.alerts.is_empty(),
            "re-trained update must raise at least one alert: {retrained_report:?}"
        );
    }

    #[test]
    fn drift_spike_fires_when_a_prototype_jumps() {
        let (mut model, _, probe) = fixture(4);
        let mut monitor = QualityMonitor::new(probe, &old_labels());
        monitor.observe(&mut model).unwrap().expect("baseline");
        // Teleport one class's support far away: its prototype moves by
        // much more than its own norm.
        let label = Activity::Still.label();
        let moved = model.support().class(label).unwrap().add_scalar(100.0);
        model.support_mut().put_class(label, moved);
        model.refresh_prototypes().unwrap();
        let report = monitor.observe(&mut model).unwrap().expect("post-jump sample");
        assert!(
            report.alerts.iter().any(|a| a.rule == AlertRule::DriftSpike),
            "teleported prototype must trip the drift rule: {report:?}"
        );
        let still = report.per_class.iter().find(|c| c.label == label).unwrap();
        assert!(still.drift_ratio > 0.5, "drift ratio {}", still.drift_ratio);
    }

    #[test]
    fn margin_and_drift_rules_skip_class_set_changes() {
        // Learning a brand-new class redefines margins and legitimately
        // moves prototypes; only the forgetting rule may judge that
        // observation, and the margin baseline re-anchors at the new
        // class count.
        let (mut model, new, probe) = fixture(6);
        let mut monitor = QualityMonitor::new(probe, &old_labels());
        monitor.observe(&mut model).unwrap().expect("baseline");
        let two_class_baseline = monitor.baseline_mean_margin.expect("baseline margin");
        model.learn_new_class(&new, 15).unwrap();
        let report = monitor.observe(&mut model).unwrap().expect("post-update sample");
        assert!(
            !report
                .alerts
                .iter()
                .any(|a| matches!(a.rule, AlertRule::MarginCollapse | AlertRule::DriftSpike)),
            "margin/drift rules must not fire across a class-set change: {report:?}"
        );
        assert_ne!(
            monitor.baseline_mean_margin,
            Some(two_class_baseline),
            "the margin baseline must re-anchor at the new class set"
        );
        assert_eq!(monitor.baseline_mean_margin, Some(report.mean_margin));
        // Drift values are still measured and reported, just not alerted.
        assert!(
            report.per_class.iter().any(|c| c.drift > 0.0),
            "drift must still be reported: {report:?}"
        );
    }

    #[test]
    fn adaptive_effective_threshold_derivation() {
        // Window 4, minimum history 3, headroom 3.0.
        let base = 0.10;
        // Short history: base applies unchanged.
        assert_eq!(adaptive_threshold(base, &[0.0, 0.01]), base);
        // Perfectly stable history: 3σ = 0, clamped up to 0.5 × base — a
        // quiet device gets a tighter trigger, never a disabled rule.
        assert_eq!(adaptive_threshold(base, &[0.02, 0.02, 0.02, 0.02]), 0.5 * base);
        // Noisy history: 3σ blows past the cap, clamped to 2 × base.
        assert_eq!(adaptive_threshold(base, &[0.0, 0.4, 0.0, 0.4]), 2.0 * base);
        // Mild jitter lands between the clamps: σ(±0.02 around mean) =
        // 0.02, so 3σ = 0.06 ∈ [0.05, 0.20].
        let mid = adaptive_threshold(base, &[0.00, 0.04, 0.00, 0.04]);
        assert!((mid - 0.06).abs() < 1e-12, "got {mid}");
        // Only the last `window` observations count: the wild early value
        // falls outside the window and must not raise the threshold.
        assert_eq!(adaptive_threshold(base, &[9.0, 0.02, 0.02, 0.02, 0.02]), 0.5 * base);
    }

    #[test]
    fn monitor_adapts_thresholds_from_its_own_history() {
        let (mut model, _, probe) = fixture(3);
        let base = (FORGETTING_THRESHOLD, DRIFT_SPIKE_RATIO);
        let mut monitor = QualityMonitor::new(probe, &old_labels());
        monitor.enable_adaptive();
        assert_eq!(monitor.effective_thresholds(), base, "no history yet: base thresholds apply");
        // Three stable observations of an untouched model (generation
        // bumped by prototype refreshes): forgetting history is all-zero,
        // so the derived threshold clamps down to 0.5 × base. The margin
        // rule never adapts: it has no entry in the effective thresholds.
        monitor.observe(&mut model).unwrap().expect("baseline");
        for _ in 0..2 {
            model.refresh_prototypes().unwrap();
            monitor.observe(&mut model).unwrap().expect("sample");
        }
        let (forgetting, drift_spike_ratio) = monitor.effective_thresholds();
        assert_eq!(forgetting, 0.5 * FORGETTING_THRESHOLD);
        assert_eq!(drift_spike_ratio, 0.5 * DRIFT_SPIKE_RATIO);
        // The alert's recorded threshold must carry the effective value:
        // teleport a prototype and check the drift alert's threshold.
        let label = Activity::Still.label();
        let moved = model.support().class(label).unwrap().add_scalar(100.0);
        model.support_mut().put_class(label, moved);
        model.refresh_prototypes().unwrap();
        let report = monitor.observe(&mut model).unwrap().expect("post-jump");
        let drift = report
            .alerts
            .iter()
            .find(|a| a.rule == AlertRule::DriftSpike)
            .expect("teleported prototype must still alert");
        assert_eq!(drift.threshold, f64::from(drift_spike_ratio));
    }

    #[test]
    fn report_serde_round_trip() {
        let (mut model, _, probe) = fixture(5);
        let mut monitor = QualityMonitor::new(probe, &old_labels());
        let report = monitor.observe(&mut model).unwrap().expect("baseline");
        let json = serde_json::to_string(&report).expect("serialise");
        let back: QualityReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, report);
    }
}

