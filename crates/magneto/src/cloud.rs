//! The cloud side of MAGNETO: pre-training, the one-time deployment
//! package, and the fleet telemetry rollup.

use pilote_core::pilote::TrainReport;
use pilote_core::{
    AccuracyMatrix, Pilote, PiloteConfig, SelectionStrategy, SessionSummary, SupportSet,
};
use pilote_har_data::preprocess::Normalizer;
use pilote_har_data::Dataset;
use pilote_nn::Checkpoint;
use pilote_obs::{GaugeSnapshot, HistogramSnapshot, Snapshot};
use pilote_tensor::TensorError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Class prototypes shipped with a deployment, installed on the device
/// verbatim via `Pilote::install_prototypes` so the edge serves from
/// exactly the (possibly quantised) values that crossed the wire instead
/// of a local recompute — otherwise quantisation error would be silently
/// repaired by the device and never show up in the measured accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShippedPrototypes {
    /// Class labels, one per prototype row.
    pub labels: Vec<usize>,
    /// `[classes, d]` prototype matrix in label order.
    pub matrix: pilote_tensor::Tensor,
}

/// Everything an edge device needs, shipped once (Fig. 2, right side,
/// step i): model parameters, exemplar support set, class prototypes,
/// and the feature normaliser fitted on the cloud corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deployment {
    /// Embedding-network parameters.
    pub checkpoint: Checkpoint,
    /// Per-class exemplar support set.
    pub support: SupportSet,
    /// Feature normaliser (train-fitted statistics).
    pub normalizer: Normalizer,
    /// Hyper-parameters the edge should keep using.
    pub config: PiloteConfig,
    /// Cloud-computed class prototypes, installed verbatim when present;
    /// when absent the device recomputes prototypes from the support set
    /// (the legacy behaviour).
    pub prototypes: Option<ShippedPrototypes>,
}

/// A deployment payload that could not be serialised for the wire.
///
/// Carries the encoder's message rather than the source error so the type
/// stays `Clone + PartialEq` (matching [`crate::edge::EdgeError`], which
/// wraps it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageError {
    /// What the wire encoder reported.
    pub detail: String,
}

impl std::fmt::Display for PackageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deployment payload not serialisable: {}", self.detail)
    }
}

impl std::error::Error for PackageError {}

impl Deployment {
    /// Packages `model` as it stands: its parameters, support set and
    /// configuration, with the corpus `normalizer`. No prototypes ship;
    /// the device recomputes them from the support set.
    pub fn from_model(model: &mut Pilote, normalizer: Normalizer) -> Deployment {
        Deployment {
            checkpoint: Checkpoint::capture(model.net_mut().layers_mut()),
            support: model.support().clone(),
            normalizer,
            config: model.config().clone(),
            prototypes: None,
        }
    }

    /// Exact wire size of the deployment payload in bytes: the binary
    /// f32 encoding of `docs/WIRE.md` ([`crate::wire::encode_deployment`]
    /// at [`pilote_edge_sim::WirePrecision::F32`]).
    ///
    /// This used to measure JSON text length — decimal-printed floats
    /// cost ~10+ bytes each, so every modeled install time was inflated
    /// by a format no real deployment would ship. Quantised deployments
    /// are sized by encoding at their own precision; see
    /// [`crate::wire::deployment_wire_bytes`].
    ///
    /// # Errors
    /// Returns [`PackageError`] when the payload cannot be encoded
    /// (e.g. a non-rank-2 exemplar tensor), instead of the
    /// `expect("serialisable")` panic this used to hide behind.
    pub fn wire_bytes(&self) -> Result<u64, PackageError> {
        crate::wire::deployment_wire_bytes(self, pilote_edge_sim::WirePrecision::F32)
            .map_err(|e| PackageError { detail: e.to_string() })
    }
}

/// Two per-device histograms under the same name disagreed on bucket
/// bounds, so the rollup cannot merge them bucket-wise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupError {
    /// The histogram name whose bounds disagreed.
    pub histogram: String,
}

impl std::fmt::Display for RollupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "histogram {:?} has mismatched bucket bounds across devices", self.histogram)
    }
}

impl std::error::Error for RollupError {}

/// Deterministic fleet-wide telemetry, merged on the cloud from per-device
/// [`Snapshot`]s in device-index order (see `docs/QUALITY.md`):
///
/// * **counters** — summed by name (counter merges are commutative);
/// * **histograms** — merged bucket-wise by name via
///   [`HistogramSnapshot::merge`] (same-bounds contract; a bounds mismatch
///   is a [`RollupError`], never a silent misfile);
/// * **gauges** — last write wins, in device-index order, so the value is
///   a deterministic function of the merge order alone.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryRollup {
    /// Devices merged in (kill-switched devices ship empty snapshots but
    /// are still counted).
    pub devices: usize,
    /// Per-device counters summed by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-by-device-index gauges by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Bucket-wise merged histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetryRollup {
    /// Empty rollup.
    pub fn new() -> Self {
        TelemetryRollup::default()
    }

    /// Merges one device's snapshot. Callers merge in device-index order;
    /// counter and histogram merges are commutative and associative, so
    /// the order only determines gauge last-writes.
    pub fn merge_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), RollupError> {
        self.devices += 1;
        for (name, value) in &snapshot.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, gauge) in &snapshot.gauges {
            self.gauges.insert(name.clone(), gauge.clone());
        }
        for (name, histogram) in &snapshot.histograms {
            match self.histograms.get(name) {
                Some(existing) => {
                    let merged = existing
                        .merge(histogram)
                        .ok_or_else(|| RollupError { histogram: name.clone() })?;
                    self.histograms.insert(name.clone(), merged);
                }
                None => {
                    self.histograms.insert(name.clone(), histogram.clone());
                }
            }
        }
        Ok(())
    }

    /// Total count across one named counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Fleet-wide continual-learning scenario telemetry: the cloud-side
/// rollup of per-device session × task accuracy matrices
/// (`pilote_core::session_metrics`, shipped as `PWM1` payloads).
///
/// Devices are merged in device-index order — the same contract as
/// [`TelemetryRollup`] — and every fleet curve is a serial fold over the
/// stored per-device summaries in that order, so the rollup is
/// byte-identical across runs and `PILOTE_THREADS` settings
/// (`docs/METRICS.md`).
///
/// Devices may have recorded different session counts (a device that
/// joined late has a shorter curve); the fleet curves are as long as the
/// longest device curve, each point averaging only the devices that
/// reached that session.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioRollup {
    /// Per-device derived metrics, in merge (device-index) order.
    pub per_device: Vec<SessionSummary>,
}

impl ScenarioRollup {
    /// Empty rollup.
    pub fn new() -> Self {
        ScenarioRollup::default()
    }

    /// Devices merged in so far.
    pub fn devices(&self) -> usize {
        self.per_device.len()
    }

    /// Merges one device's matrix. Callers merge in device-index order
    /// (the curve folds below iterate the stored order, so merge order is
    /// the only order there is).
    pub fn merge_matrix(&mut self, matrix: &AccuracyMatrix) {
        self.per_device.push(matrix.summary());
    }

    /// Position-wise mean over the per-device curves selected by `f`:
    /// point `i` averages the devices whose curve has an `i`-th point,
    /// accumulated in `f64` in device order. Empty when no device
    /// recorded anything.
    fn mean_curve(&self, f: impl Fn(&SessionSummary) -> &[f64]) -> Vec<f64> {
        let longest = self.per_device.iter().map(|s| f(s).len()).max().unwrap_or(0);
        (0..longest)
            .map(|i| {
                let mut sum = 0.0f64;
                let mut count = 0usize;
                for summary in &self.per_device {
                    if let Some(&v) = f(summary).get(i) {
                        sum += v;
                        count += 1;
                    }
                }
                sum / count as f64
            })
            .collect()
    }

    /// Position-wise percentile (nearest-rank, `p` in `[0, 100]`) over
    /// the per-device curves selected by `f`. Values at each position are
    /// sorted by total order (`f64::total_cmp`), so ties and signed zeros
    /// resolve deterministically.
    fn percentile_curve(&self, p: f64, f: impl Fn(&SessionSummary) -> &[f64]) -> Vec<f64> {
        let longest = self.per_device.iter().map(|s| f(s).len()).max().unwrap_or(0);
        (0..longest)
            .map(|i| {
                let mut values: Vec<f64> = self
                    .per_device
                    .iter()
                    .filter_map(|s| f(s).get(i).copied())
                    .collect();
                values.sort_unstable_by(f64::total_cmp);
                let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
                values[rank.clamp(1, values.len()) - 1]
            })
            .collect()
    }

    /// Fleet mean forgetting curve: point `i` averages, in `f64` and in
    /// device order, the devices whose forgetting curve has an `i`-th
    /// point. Empty when no device recorded anything.
    pub fn mean_forgetting_curve(&self) -> Vec<f64> {
        self.mean_curve(|s| &s.forgetting_curve)
    }

    /// Fleet mean average-accuracy curve.
    pub fn mean_accuracy_curve(&self) -> Vec<f64> {
        self.mean_curve(|s| &s.average_accuracy_curve)
    }

    /// Fleet percentile forgetting curve (nearest-rank; `p50` is the
    /// median device, `p90` the worst-but-one decile).
    pub fn percentile_forgetting_curve(&self, p: f64) -> Vec<f64> {
        self.percentile_curve(p, |s| &s.forgetting_curve)
    }
}

/// The cloud training service.
pub struct CloudServer {
    corpus: Dataset,
    normalizer: Normalizer,
    config: PiloteConfig,
}

impl CloudServer {
    /// New server over a labelled corpus with its fitted normaliser.
    pub fn new(corpus: Dataset, normalizer: Normalizer, config: PiloteConfig) -> Self {
        CloudServer { corpus, normalizer, config }
    }

    /// Labelled records available on the cloud.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Pre-trains a model on the given classes and packages the
    /// deployment (Fig. 2 right, step i).
    pub fn pretrain_and_package(
        &self,
        classes: &[usize],
        exemplars_per_class: usize,
    ) -> Result<(Deployment, TrainReport), TensorError> {
        let train = self.corpus.filter_classes(classes)?;
        let (mut model, report) = Pilote::pretrain(
            self.config.clone(),
            &train,
            exemplars_per_class,
            SelectionStrategy::Herding,
        )?;
        let mut deployment = Deployment::from_model(&mut model, self.normalizer.clone());
        // Compute the shipped prototypes through a device-equivalent net:
        // the network built for the checkpoint, exactly as the edge
        // install path builds it. The checkpoint carries parameters
        // but not BatchNorm running statistics, so prototypes taken from
        // the cloud training net would live in a different embedding
        // space than the device's probe embeddings. Through the restored
        // net they are bitwise what the device would recompute locally —
        // shipping them changes nothing at f32, and lets the wire codec
        // quantise the prototype section end-to-end.
        let mut rng = pilote_tensor::Rng64::new(self.config.seed ^ 0xed6e);
        let net = pilote_core::EmbeddingNet::restored(
            self.config.net.clone(),
            &deployment.checkpoint,
            &mut rng,
        )
        .map_err(|_| TensorError::Empty {
            op: "CloudServer::pretrain_and_package (restore into shadow net)",
        })?;
        let shadow = Pilote::from_parts(self.config.clone(), net, model.support().clone(), rng)?;
        deployment.prototypes = Some(ShippedPrototypes {
            labels: shadow.classifier().labels().to_vec(),
            matrix: shadow.classifier().prototype_matrix().clone(),
        });
        Ok((deployment, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};

    fn corpus() -> (Dataset, Normalizer) {
        let mut sim = Simulator::with_seed(9);
        generate_features(
            &mut sim,
            &[(Activity::Still, 40), (Activity::Walk, 40), (Activity::Run, 40)],
        )
        .expect("simulate")
    }

    #[test]
    fn pretrain_and_package_produces_complete_deployment() {
        let (data, norm) = corpus();
        let server = CloudServer::new(data, norm, PiloteConfig::fast_test(1));
        let classes = [Activity::Still.label(), Activity::Walk.label()];
        let (deployment, report) = server.pretrain_and_package(&classes, 10).unwrap();
        assert!(!report.epochs.is_empty());
        assert_eq!(deployment.support.labels().len(), 2);
        assert_eq!(deployment.support.len(), 20);
        assert!(deployment.checkpoint.param_count() > 0);
        assert!(deployment.wire_bytes().expect("serialisable") > 1000);
    }

    fn snapshot_with(
        counters: &[(&str, u64)],
        gauge_last: f64,
        histogram_values: &[f64],
    ) -> Snapshot {
        let mut snap = Snapshot { enabled: true, ..Default::default() };
        for (name, value) in counters {
            snap.counters.insert((*name).to_string(), *value);
        }
        snap.gauges.insert(
            "edge.clock_seconds".to_string(),
            GaugeSnapshot { last: gauge_last, min: gauge_last, max: gauge_last, count: 1 },
        );
        let mut h = HistogramSnapshot::with_bounds(&[1.0, 10.0]);
        for &v in histogram_values {
            h.record(v);
        }
        snap.histograms.insert("quality.margins".to_string(), h);
        snap
    }

    #[test]
    fn rollup_sums_counters_merges_histograms_and_keeps_last_gauge() {
        let a = snapshot_with(&[("edge.inference", 3), ("edge.batch_served", 8)], 1.5, &[0.5, 42.0]);
        let b = snapshot_with(&[("edge.inference", 2), ("edge.alert_raised", 1)], 9.25, &[5.0]);
        let mut rollup = TelemetryRollup::new();
        rollup.merge_snapshot(&a).expect("merge a");
        rollup.merge_snapshot(&b).expect("merge b");
        assert_eq!(rollup.devices, 2);
        assert_eq!(rollup.counter("edge.inference"), 5);
        assert_eq!(rollup.counter("edge.batch_served"), 8);
        assert_eq!(rollup.counter("edge.alert_raised"), 1);
        assert_eq!(rollup.counter("edge.absent"), 0);
        // Gauge: last write (device-index order) wins.
        assert_eq!(rollup.gauges["edge.clock_seconds"].last, 9.25);
        // Histogram: bucket-wise sum.
        assert_eq!(rollup.histograms["quality.margins"].counts, vec![1, 1, 1]);
        assert_eq!(rollup.histograms["quality.margins"].total(), 3);
        // Serde round-trip: the rollup is a report payload.
        let json = serde_json::to_string(&rollup).expect("serialise");
        let back: TelemetryRollup = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, rollup);
    }

    #[test]
    fn rollup_counter_totals_equal_per_device_sums() {
        let snaps = [
            snapshot_with(&[("edge.inference", 7)], 0.0, &[]),
            snapshot_with(&[("edge.inference", 11)], 0.0, &[]),
            snapshot_with(&[("edge.inference", 13)], 0.0, &[]),
        ];
        let mut rollup = TelemetryRollup::new();
        for s in &snaps {
            rollup.merge_snapshot(s).expect("merge");
        }
        let per_device: u64 = snaps.iter().map(|s| s.counters["edge.inference"]).sum();
        assert_eq!(rollup.counter("edge.inference"), per_device);
    }

    #[test]
    fn scenario_rollup_curves_merge_per_device_curves() {
        use pilote_core::TaskGroup;
        let tasks = || vec![TaskGroup::new("base", &[0]), TaskGroup::new("new", &[1])];
        // Device A: three sessions; device B joined late, only two.
        let mut a = AccuracyMatrix::new(tasks());
        a.record(1, vec![0.9, 0.2], vec![true, false]);
        a.record(2, vec![0.8, 0.7], vec![true, true]);
        a.record(3, vec![0.7, 0.6], vec![true, true]);
        let mut b = AccuracyMatrix::new(tasks());
        b.record(1, vec![1.0, -1.0], vec![true, false]);
        b.record(2, vec![0.5, 0.9], vec![true, true]);

        let mut rollup = ScenarioRollup::new();
        rollup.merge_matrix(&a);
        rollup.merge_matrix(&b);
        assert_eq!(rollup.devices(), 2);
        assert_eq!(rollup.per_device, vec![a.summary(), b.summary()]);

        // Each fleet point is the plain mean of the device curves that
        // reach that session; session 2 exists only on device A.
        let fa = a.summary().forgetting_curve;
        let fb = b.summary().forgetting_curve;
        let fleet = rollup.mean_forgetting_curve();
        assert_eq!(fleet.len(), 3);
        assert!((fleet[0] - (fa[0] + fb[0]) / 2.0).abs() < 1e-12);
        assert!((fleet[1] - (fa[1] + fb[1]) / 2.0).abs() < 1e-12);
        assert!((fleet[2] - fa[2]).abs() < 1e-12);
        let aa = a.summary().average_accuracy_curve;
        let ab = b.summary().average_accuracy_curve;
        let fleet_acc = rollup.mean_accuracy_curve();
        assert!((fleet_acc[0] - (aa[0] + ab[0]) / 2.0).abs() < 1e-12);

        // Nearest-rank percentiles: p50 of two values is the lower one,
        // p90 the upper.
        let p50 = rollup.percentile_forgetting_curve(50.0);
        let p90 = rollup.percentile_forgetting_curve(90.0);
        assert_eq!(p50[1], fa[1].min(fb[1]));
        assert_eq!(p90[1], fa[1].max(fb[1]));

        // Serde round-trip: the rollup is a report payload.
        let json = serde_json::to_string(&rollup).expect("serialise");
        let back: ScenarioRollup = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, rollup);
    }

    #[test]
    fn rollup_rejects_mismatched_histogram_bounds() {
        let a = snapshot_with(&[], 0.0, &[0.5]);
        let mut b = snapshot_with(&[], 0.0, &[]);
        b.histograms
            .insert("quality.margins".to_string(), HistogramSnapshot::with_bounds(&[2.0, 20.0]));
        let mut rollup = TelemetryRollup::new();
        rollup.merge_snapshot(&a).expect("merge a");
        let err = rollup.merge_snapshot(&b).expect_err("bounds mismatch must fail");
        assert_eq!(err.histogram, "quality.margins");
    }

    #[test]
    fn deployment_serde_round_trip() {
        let (data, norm) = corpus();
        let server = CloudServer::new(data, norm, PiloteConfig::fast_test(2));
        let (deployment, _) =
            server.pretrain_and_package(&[Activity::Still.label(), Activity::Run.label()], 5).unwrap();
        let json = serde_json::to_string(&deployment).unwrap();
        let back: Deployment = serde_json::from_str(&json).unwrap();
        assert_eq!(back.support, deployment.support);
        assert_eq!(back.checkpoint, deployment.checkpoint);
    }
}
