//! The edge side of MAGNETO: install a deployment once, then stream,
//! classify and incrementally learn — all on-device.
//!
//! Resilience (see `docs/RESILIENCE.md`): installs retry flaky transfers
//! with exponential backoff, incremental updates snapshot a last-good
//! [`Checkpoint`] and roll back on any failure, and persistent failures
//! degrade the device to its frozen pre-trained deployment — it keeps
//! classifying the old classes rather than going dark.

use crate::cloud::{Deployment, PackageError, RollupError};
use crate::events::{EventKind, EventLog};
use crate::federated::FederatedError;
use pilote_core::{
    AccuracyMatrix, EmbeddingNet, NcmClassifier, Pilote, QualityMonitor, QualityReport,
    SupportSet, TaskGroup, UpdateOutcome,
};
use pilote_edge_sim::faults::{
    backoff_before, FlakyLink, LinkFault, RETRY_DEADLINE_S, RETRY_MAX_ATTEMPTS,
};
use pilote_edge_sim::{DeviceProfile, LinkModel};
use pilote_har_data::dataset::Dataset;
use pilote_har_data::preprocess::PreprocessError;
use pilote_har_data::stream::{DriftMonitor, WindowAssembler};
use pilote_har_data::sensors::WINDOW_LEN;
use pilote_har_data::FEATURE_DIM;
use pilote_nn::persist::{Checkpoint, CheckpointError};
use pilote_obs::work;
use pilote_tensor::{Rng64, Tensor, TensorError};
use std::sync::Arc;

/// Typed errors for edge-device operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// Preprocessing rejected the input stream.
    Preprocess(PreprocessError),
    /// The deployment checkpoint could not be loaded.
    Checkpoint(CheckpointError),
    /// The cloud→edge transfer exhausted its retry budget.
    Link {
        /// Attempts made before giving up.
        attempts: usize,
        /// The last fault observed.
        last: LinkFault,
    },
    /// The deployment payload could not be serialised for the wire.
    Package(PackageError),
    /// A federated aggregation step failed.
    Federated(FederatedError),
    /// The fleet telemetry rollup could not merge per-device snapshots.
    Rollup(RollupError),
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::Tensor(e) => write!(f, "tensor error: {e}"),
            EdgeError::Preprocess(e) => write!(f, "preprocess error: {e}"),
            EdgeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            EdgeError::Link { attempts, last } => {
                write!(f, "transfer failed after {attempts} attempts: {last}")
            }
            EdgeError::Package(e) => write!(f, "package error: {e}"),
            EdgeError::Federated(e) => write!(f, "federated error: {e}"),
            EdgeError::Rollup(e) => write!(f, "rollup error: {e}"),
        }
    }
}

impl std::error::Error for EdgeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeError::Tensor(e) => Some(e),
            EdgeError::Preprocess(e) => Some(e),
            EdgeError::Checkpoint(e) => Some(e),
            EdgeError::Link { .. } => None,
            EdgeError::Package(e) => Some(e),
            EdgeError::Federated(e) => Some(e),
            EdgeError::Rollup(e) => Some(e),
        }
    }
}

impl From<TensorError> for EdgeError {
    fn from(e: TensorError) -> Self {
        EdgeError::Tensor(e)
    }
}

impl From<PreprocessError> for EdgeError {
    fn from(e: PreprocessError) -> Self {
        EdgeError::Preprocess(e)
    }
}

impl From<CheckpointError> for EdgeError {
    fn from(e: CheckpointError) -> Self {
        EdgeError::Checkpoint(e)
    }
}

impl From<PackageError> for EdgeError {
    fn from(e: PackageError) -> Self {
        EdgeError::Package(e)
    }
}

impl From<FederatedError> for EdgeError {
    fn from(e: FederatedError) -> Self {
        EdgeError::Federated(e)
    }
}

impl From<RollupError> for EdgeError {
    fn from(e: RollupError) -> Self {
        EdgeError::Rollup(e)
    }
}

/// Result of classifying one streamed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceOutcome {
    /// Predicted activity label.
    pub predicted: usize,
    /// Squared embedding-space distance to the winning prototype — a
    /// confidence proxy (smaller = more confident).
    pub distance: f32,
}

/// Status of a fault-aware incremental update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStatus {
    /// The update completed and passed post-update validation.
    Completed,
    /// The update failed; the last-good checkpoint + exemplar set were
    /// restored and the pending samples kept for a retry.
    RolledBack,
    /// Consecutive failures exhausted the retry budget; the device fell
    /// back to its frozen pre-trained deployment.
    Degraded,
}

/// Consecutive update failures after which a device degrades to its
/// pre-trained deployment.
pub const MAX_UPDATE_FAILURES: u32 = 3;

/// An edge device running the MAGNETO recognition loop.
pub struct EdgeDevice {
    profile: DeviceProfile,
    model: Pilote,
    assembler: WindowAssembler,
    drift: Option<DriftMonitor>,
    log: EventLog,
    /// Buffered labelled samples awaiting the next incremental update.
    pending: Vec<(usize, Tensor)>,
    /// The as-installed deployment (parameters + exemplars) — the frozen
    /// pre-trained state the device degrades to under persistent faults.
    baseline: ModelSnapshot,
    /// The most recent model state whose quality sample raised no alerts
    /// (parameters + exemplars; starts as the installed baseline itself,
    /// shared rather than copied). The fleet policy's strike-1 repair
    /// restores this snapshot.
    last_good: ModelSnapshot,
    /// Consecutive failed incremental updates.
    update_failures: u32,
    degraded: bool,
    /// Model generation the last [`EdgeDevice::serve_batch`] served at.
    /// Every writer of the NCM classifier bumps the generation, so a
    /// serve at a new generation is a prototype-cache rebuild; any
    /// committed model change (incremental update, rollback,
    /// degradation, federated install) counts as one on the next serve.
    served_generation: Option<u64>,
    /// Cache rebuilds counted by [`EdgeDevice::serve_batch`] so far.
    cache_rebuilds: u64,
    /// Model-quality monitor (forgetting / drift / margins), armed via
    /// [`EdgeDevice::arm_quality_monitor`]. Sampled at every generation
    /// bump; fired rules surface as [`EventKind::AlertRaised`].
    quality: Option<QualityMonitor>,
    /// Telemetry state as of the last delta upload
    /// ([`EdgeDevice::telemetry_delta`]); the next delta ships only what
    /// accumulated since.
    telemetry_baseline: pilote_obs::Snapshot,
}

/// A committed model state, parameters plus exemplars. Immutable once
/// taken, so the baseline, the last-good state and policy snapshots share
/// one copy.
type ModelSnapshot = Arc<(Checkpoint, SupportSet)>;

/// Pre-install device state captured by [`EdgeDevice::policy_snapshot`]
/// so a halted staged rollout can restore the device exactly.
pub(crate) struct PolicySnapshot {
    checkpoint: Checkpoint,
    support: SupportSet,
    baseline: ModelSnapshot,
    last_good: ModelSnapshot,
    update_failures: u32,
    degraded: bool,
}

impl EdgeDevice {
    /// Installs a cloud deployment onto a device, recording the download
    /// on the given link (Fig. 2 right, step i).
    pub fn install(
        profile: DeviceProfile,
        deployment: &Deployment,
        link: &LinkModel,
    ) -> Result<EdgeDevice, EdgeError> {
        Self::install_presized(profile, deployment, link, deployment.wire_bytes()?)
    }

    /// [`EdgeDevice::install`] with the deployment's wire size computed
    /// once by the caller. `payload_bytes` must equal
    /// [`Deployment::wire_bytes`] for this deployment — the value feeds
    /// the link transfer charge and the `Deployed` event, so a wrong size
    /// corrupts the device's virtual clock. Fleet installs amortize one
    /// serialization across the whole roster this way: the package is
    /// identical for every device, and re-serializing it per install
    /// dominates large-roster deploy time.
    pub fn install_presized(
        profile: DeviceProfile,
        deployment: &Deployment,
        link: &LinkModel,
        payload_bytes: u64,
    ) -> Result<EdgeDevice, EdgeError> {
        let mut log = EventLog::new();
        log.advance(link.transfer_seconds(payload_bytes));
        Self::build(profile, deployment, log, payload_bytes)
    }

    /// Installs over a flaky link, retrying failed transfer attempts with
    /// exponential backoff ([`backoff_before`]) until success,
    /// [`RETRY_MAX_ATTEMPTS`] attempts, or the [`RETRY_DEADLINE_S`]
    /// deadline. Every retry is recorded in the device's [`EventLog`]; an
    /// exhausted budget returns [`EdgeError::Link`].
    pub fn install_resilient(
        profile: DeviceProfile,
        deployment: &Deployment,
        flaky: &mut FlakyLink,
    ) -> Result<EdgeDevice, EdgeError> {
        let payload = deployment.wire_bytes()?;
        let mut log = EventLog::new();
        let mut last = None;
        let mut attempts = 0usize;
        for attempt in 1..=RETRY_MAX_ATTEMPTS {
            let backoff = backoff_before(attempt);
            if log.now() + backoff > RETRY_DEADLINE_S {
                break;
            }
            log.advance(backoff);
            attempts = attempt;
            let (cost, result) = flaky.attempt(payload);
            log.advance(cost);
            match result {
                Ok(()) => return Self::build(profile, deployment, log, payload),
                Err(fault) => {
                    last = Some(fault);
                    log.record(EventKind::TransferRetried {
                        attempt,
                        backoff_seconds: backoff_before(attempt + 1),
                    });
                }
            }
            if log.now() >= RETRY_DEADLINE_S {
                break;
            }
        }
        Err(EdgeError::Link {
            attempts,
            last: last.unwrap_or(LinkFault::Dropped),
        })
    }

    /// Shared install tail: build the network for the checkpoint, snapshot
    /// the baseline, stamp the `Deployed` event on the provided
    /// (already-advanced) log.
    fn build(
        profile: DeviceProfile,
        deployment: &Deployment,
        mut log: EventLog,
        payload_bytes: u64,
    ) -> Result<EdgeDevice, EdgeError> {
        let mut rng = Rng64::new(deployment.config.seed ^ 0xed6e);
        let net =
            EmbeddingNet::restored(deployment.config.net.clone(), &deployment.checkpoint, &mut rng)?;
        let mut model = Pilote::from_parts(
            deployment.config.clone(),
            net,
            deployment.support.clone(),
            rng,
        )?;
        // Serve from the shipped prototypes when the package carries them
        // — at quantised wire precisions these are the dequantised values,
        // so quantisation error reaches the serve path instead of being
        // silently repaired by a local recompute.
        if let Some(p) = &deployment.prototypes {
            model.install_prototypes(p.labels.clone(), p.matrix.clone())?;
        }
        let assembler = WindowAssembler::new(WINDOW_LEN, WINDOW_LEN, 1)
            .with_normalizer(deployment.normalizer.clone());
        log.record(EventKind::Deployed { payload_bytes });
        let baseline = Arc::new((deployment.checkpoint.clone(), deployment.support.clone()));
        Ok(EdgeDevice {
            profile,
            model,
            assembler,
            drift: None,
            log,
            pending: Vec::new(),
            last_good: Arc::clone(&baseline),
            baseline,
            update_failures: 0,
            degraded: false,
            served_generation: None,
            cache_rebuilds: 0,
            quality: None,
            telemetry_baseline: pilote_obs::Snapshot::default(),
        })
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Known activity labels.
    pub fn known_classes(&self) -> Vec<usize> {
        self.model.classifier().labels().to_vec()
    }

    /// Whether the device has degraded to its pre-trained deployment.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Consecutive failed incremental updates.
    pub fn update_failures(&self) -> u32 {
        self.update_failures
    }

    /// Windows dropped by the assembler's quarantine so far.
    pub fn quarantined_windows(&self) -> u64 {
        self.assembler.quarantined()
    }

    /// Arms the drift monitor with a reference feature matrix.
    pub fn arm_drift_monitor(&mut self, reference: &Tensor, threshold: f32) -> Result<(), EdgeError> {
        self.drift = Some(DriftMonitor::from_reference(reference, threshold)?);
        Ok(())
    }

    /// Arms the model-quality monitor with a held-out probe set (already
    /// in model feature space) and immediately takes the baseline
    /// observation at the current generation. `old_labels` are the classes
    /// whose accuracy the forgetting score tracks. Subsequent generation
    /// bumps (updates, rollbacks, degradation, federated installs) are
    /// sampled automatically; fired rules raise
    /// [`EventKind::AlertRaised`] in the device log.
    pub fn arm_quality_monitor(
        &mut self,
        probe: Dataset,
        old_labels: &[usize],
    ) -> Result<(), EdgeError> {
        self.quality = Some(QualityMonitor::new(probe, old_labels));
        self.sample_quality()?;
        Ok(())
    }

    /// [`EdgeDevice::arm_quality_monitor`] plus session-matrix recording:
    /// every observation also stamps one row of a session × task
    /// [`AccuracyMatrix`] (see `pilote_core::session_metrics` and
    /// `docs/METRICS.md`) and records [`EventKind::SessionRecorded`]. The
    /// baseline observation taken here is row 0, so pre-learning accuracy
    /// on not-yet-known tasks (forward transfer) is measured from the
    /// start.
    pub fn arm_quality_monitor_with_sessions(
        &mut self,
        probe: Dataset,
        old_labels: &[usize],
        tasks: Vec<TaskGroup>,
    ) -> Result<(), EdgeError> {
        self.quality = Some(QualityMonitor::new(probe, old_labels).with_session_tasks(tasks));
        self.sample_quality()?;
        Ok(())
    }

    /// The armed monitor's session × task accuracy matrix, when recording
    /// was enabled via [`EdgeDevice::arm_quality_monitor_with_sessions`].
    pub fn session_matrix(&self) -> Option<&AccuracyMatrix> {
        self.quality.as_ref().and_then(|m| m.session_matrix())
    }

    /// Samples the quality monitor if it is armed and the model generation
    /// moved since the last observation. The probe evaluation is charged
    /// to the virtual clock as modeled device work, and every alert in the
    /// report is raised as an [`EventKind::AlertRaised`] event.
    pub fn sample_quality(&mut self) -> Result<Option<QualityReport>, EdgeError> {
        let Some(monitor) = &mut self.quality else {
            return Ok(None);
        };
        let span = pilote_obs::span("edge.quality_sample");
        let flops_before = work::thread_flops();
        let report = monitor.observe(&mut self.model)?;
        // When the monitor records a session matrix, a fresh report means
        // a fresh row — summarise it for the event log while the monitor
        // borrow is live.
        let session_row = match (&report, monitor.session_matrix()) {
            (Some(_), Some(matrix)) => {
                let session = matrix.sessions().saturating_sub(1);
                let summary = matrix.summary();
                Some((session as u64, summary.average_accuracy, summary.final_forgetting))
            }
            _ => None,
        };
        let flops = work::thread_flops().wrapping_sub(flops_before);
        let device_seconds = self.profile.seconds_for_flops(flops);
        span.annotate("device_seconds", device_seconds);
        drop(span);
        self.log.advance(device_seconds);
        if let Some(report) = &report {
            if let Some((session, average_accuracy, forgetting)) = session_row {
                self.log.record(EventKind::SessionRecorded {
                    session,
                    generation: report.generation,
                    average_accuracy,
                    forgetting,
                });
            }
            for alert in &report.alerts {
                self.log.record(EventKind::AlertRaised {
                    rule: alert.rule.name().to_string(),
                    generation: alert.generation,
                    value: alert.value,
                    threshold: alert.threshold,
                });
            }
            if report.alerts.is_empty() {
                // An alert-free sample certifies the current state: make
                // it the rollback target for the policy's strike-1 repair.
                self.last_good = Arc::new((
                    Checkpoint::capture(self.model.net_mut().layers_mut()),
                    self.model.support().clone(),
                ));
            }
        }
        Ok(report)
    }

    /// The armed quality monitor's reports so far (the device's forgetting
    /// curve), or an empty slice when no monitor is armed.
    pub fn quality_reports(&self) -> &[QualityReport] {
        self.quality.as_ref().map(|m| m.reports()).unwrap_or(&[])
    }

    /// Enables per-device adaptive threshold derivation on the armed
    /// quality monitor — the forgetting/drift thresholds then track this
    /// device's own probe history instead of the shared constants (see
    /// [`QualityMonitor::enable_adaptive`]). No-op when no monitor is
    /// armed.
    pub fn enable_adaptive_thresholds(&mut self) {
        if let Some(monitor) = &mut self.quality {
            monitor.enable_adaptive();
        }
    }

    /// Restores the device's last alert-free state (the policy's strike-1
    /// repair), charging the prototype refresh to the virtual clock and
    /// recording [`EventKind::RepairRollback`].
    pub fn repair_rollback(&mut self, strike: u32) -> Result<(), EdgeError> {
        let flops_before = work::thread_flops();
        self.last_good.0.restore(self.model.net_mut().layers_mut())?;
        *self.model.support_mut() = self.last_good.1.clone();
        self.model.refresh_prototypes()?;
        let flops = work::thread_flops().wrapping_sub(flops_before);
        self.log.advance(self.profile.seconds_for_flops(flops));
        self.log.record(EventKind::RepairRollback { strike });
        Ok(())
    }

    /// Installs a cloud package **in place** (the policy's strike-2
    /// re-anchor, or a staged deployment rollout): restores the package's
    /// parameters + exemplars, refreshes prototypes, resets the
    /// degradation ladder, and re-bases both the degradation baseline and
    /// the last-good snapshot on the package. The caller charges the
    /// download on the device's link.
    pub fn adopt_deployment(&mut self, deployment: &Deployment) -> Result<(), EdgeError> {
        let flops_before = work::thread_flops();
        deployment.checkpoint.restore(self.model.net_mut().layers_mut())?;
        *self.model.support_mut() = deployment.support.clone();
        self.model.refresh_prototypes()?;
        if let Some(p) = &deployment.prototypes {
            self.model.install_prototypes(p.labels.clone(), p.matrix.clone())?;
        }
        let flops = work::thread_flops().wrapping_sub(flops_before);
        self.log.advance(self.profile.seconds_for_flops(flops));
        self.baseline = Arc::new((deployment.checkpoint.clone(), deployment.support.clone()));
        self.last_good = Arc::clone(&self.baseline);
        self.update_failures = 0;
        self.degraded = false;
        Ok(())
    }

    /// Freezes the device on its pre-trained baseline (the policy's
    /// strike-3 repair — same terminal state as [`MAX_UPDATE_FAILURES`]
    /// crash failures, but driven by model quality).
    pub fn policy_degrade(&mut self, strike: u32) -> Result<(), EdgeError> {
        let flops_before = work::thread_flops();
        self.baseline.0.restore(self.model.net_mut().layers_mut())?;
        *self.model.support_mut() = self.baseline.1.clone();
        self.model.refresh_prototypes()?;
        let flops = work::thread_flops().wrapping_sub(flops_before);
        self.log.advance(self.profile.seconds_for_flops(flops));
        self.pending.clear();
        self.degraded = true;
        self.log.record(EventKind::DegradedToPretrained { failures: strike });
        Ok(())
    }

    /// Captures the full policy-relevant state before a staged install so
    /// a halted rollout can restore it exactly.
    pub(crate) fn policy_snapshot(&mut self) -> PolicySnapshot {
        PolicySnapshot {
            checkpoint: Checkpoint::capture(self.model.net_mut().layers_mut()),
            support: self.model.support().clone(),
            baseline: Arc::clone(&self.baseline),
            last_good: Arc::clone(&self.last_good),
            update_failures: self.update_failures,
            degraded: self.degraded,
        }
    }

    /// Restores a [`EdgeDevice::policy_snapshot`] exactly (parameters,
    /// exemplars, ladder state), charging the prototype refresh to the
    /// virtual clock.
    pub(crate) fn policy_restore(&mut self, snap: PolicySnapshot) -> Result<(), EdgeError> {
        let flops_before = work::thread_flops();
        snap.checkpoint.restore(self.model.net_mut().layers_mut())?;
        *self.model.support_mut() = snap.support;
        self.model.refresh_prototypes()?;
        let flops = work::thread_flops().wrapping_sub(flops_before);
        self.log.advance(self.profile.seconds_for_flops(flops));
        self.baseline = snap.baseline;
        self.last_good = snap.last_good;
        self.update_failures = snap.update_failures;
        self.degraded = snap.degraded;
        Ok(())
    }

    /// Feeds a block of raw sensor samples (`[n, 22]`), classifying every
    /// completed window. Virtual time advances by the block's duration.
    ///
    /// Windows containing non-finite samples are quarantined by the
    /// assembler (never classified, never shown to the drift monitor) and
    /// surface as a [`EventKind::WindowsQuarantined`] log entry.
    pub fn stream(&mut self, samples: &Tensor) -> Result<Vec<InferenceOutcome>, EdgeError> {
        let quarantined_before = self.assembler.quarantined();
        let features = self.assembler.push_block(samples)?;
        let mut out = Vec::with_capacity(features.len());
        for f in features {
            let row = f.reshape([1, FEATURE_DIM])?;
            // Charge the virtual clock by *modeled* work, never by a host
            // wall-clock measurement: the flop delta below is a pure
            // function of the operand shapes, so the trace is identical on
            // a loaded laptop and an idle server (see docs/OBSERVABILITY.md).
            let flops_before = work::thread_flops();
            let (predicted, distance) = self.model.classify_batch(&row)?[0];
            let flops = work::thread_flops().wrapping_sub(flops_before);
            self.log.advance(self.profile.seconds_for_flops(flops));
            self.log.record(EventKind::Inference { predicted });
            if let Some(monitor) = &mut self.drift {
                monitor.observe(&f);
                if monitor.drifted() {
                    self.log.record(EventKind::DriftDetected { max_shift: monitor.max_shift() });
                    monitor.reset();
                }
            }
            out.push(InferenceOutcome { predicted, distance });
        }
        // Real-time stream: n samples at 120 Hz.
        self.log.advance(samples.rows() as f64 / 120.0);
        let quarantined = self.assembler.quarantined() - quarantined_before;
        if quarantined > 0 {
            self.log.record(EventKind::WindowsQuarantined { windows: quarantined });
        }
        Ok(out)
    }

    /// Buffers one user-labelled feature vector (e.g. the user tagged a
    /// session with a new activity name).
    pub fn label_sample(&mut self, label: usize, features: Tensor) {
        assert_eq!(features.len(), FEATURE_DIM, "feature width mismatch");
        self.pending.push((label, features));
    }

    /// Labelled samples waiting for the next update.
    pub fn pending_samples(&self) -> usize {
        self.pending.len()
    }

    /// Runs the PILOTE incremental update on the buffered samples
    /// (Fig. 2 right, step iii — entirely on-device). A failed update
    /// rolls back to the last-good checkpoint; see
    /// [`EdgeDevice::update_faulted`] for the full status.
    pub fn update(&mut self, exemplar_budget: usize) -> Result<(), EdgeError> {
        self.update_faulted(exemplar_budget, None).map(|_| ())
    }

    /// Crash-safe incremental update with an optional simulated
    /// kill-point (`pilote_edge_sim::faults::CrashPlan` supplies one by
    /// drawing an index into [`pilote_core::UpdateStage::ALL`]).
    ///
    /// The device snapshots its model parameters and exemplar set before
    /// the update. If the update is interrupted, errors, or produces
    /// non-finite parameters or prototypes, the snapshot is restored
    /// **exactly** — edge updates freeze batch-norm statistics, so
    /// restoring parameters + exemplars restores behaviour bit-for-bit —
    /// and the pending samples are kept for a retry. After
    /// [`MAX_UPDATE_FAILURES`] consecutive failures the device falls back
    /// to its frozen pre-trained deployment (the paper's Pre-trained
    /// baseline) and drops the pending batch.
    pub fn update_faulted(
        &mut self,
        exemplar_budget: usize,
        kill: Option<pilote_core::UpdateStage>,
    ) -> Result<UpdateStatus, EdgeError> {
        if self.pending.is_empty() {
            return Ok(UpdateStatus::Completed);
        }
        let labels: Vec<usize> = self.pending.iter().map(|(l, _)| *l).collect();
        let rows: Vec<Tensor> = self
            .pending
            .iter()
            .map(|(_, f)| f.reshape([1, FEATURE_DIM]))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&Tensor> = rows.iter().collect();
        let features = Tensor::vstack(&refs)?;
        let new_data = Dataset::new(features, labels.clone())?;
        let new_label = labels[0];

        // Last-good snapshot: parameters + exemplars. BN running stats
        // are frozen during edge updates, so this pair restores exact
        // pre-update behaviour.
        let snapshot = Checkpoint::capture(self.model.net_mut().layers_mut());
        let snapshot_support = self.model.support().clone();

        self.log.record(EventKind::UpdateStarted { new_label, samples: new_data.len() });
        let span = pilote_obs::span("edge.update");
        span.annotate("new_label", new_label as f64);
        // Modeled device time (shape-derived flops), not host wall time:
        // the update's virtual duration must not depend on host load.
        let flops_before = work::thread_flops();
        let outcome = self
            .model
            .learn_new_class_interruptible(&new_data, exemplar_budget, kill);
        let flops = work::thread_flops().wrapping_sub(flops_before);
        let device_seconds = self.profile.seconds_for_flops(flops);
        span.annotate("device_seconds", device_seconds);
        drop(span);
        self.log.advance(device_seconds);

        // Commit only a completed update whose weights AND prototypes are
        // finite; anything else rolls back.
        let committed = match outcome {
            Ok(UpdateOutcome::Completed(report))
                if pilote_nn::params_finite(self.model.net_mut().layers_mut())
                    && prototypes_finite(self.model.classifier()) =>
            {
                Some(report)
            }
            _ => None,
        };
        let status = match committed {
            Some(report) => {
                self.log.record(EventKind::UpdateFinished {
                    new_label,
                    epochs: report.epochs.len(),
                    seconds: device_seconds,
                });
                self.pending.clear();
                self.update_failures = 0;
                UpdateStatus::Completed
            }
            None => self.roll_back(new_label, &snapshot, snapshot_support)?,
        };
        // Every path above commits through `refresh_prototypes` (commit,
        // rollback, degradation), so the generation moved — sample the
        // quality monitor at the new model state.
        self.sample_quality()?;
        Ok(status)
    }

    /// Restores the last-good snapshot after a failed update and, under
    /// persistent failures, degrades to the pre-trained baseline.
    fn roll_back(
        &mut self,
        new_label: usize,
        snapshot: &Checkpoint,
        snapshot_support: SupportSet,
    ) -> Result<UpdateStatus, EdgeError> {
        snapshot.restore(self.model.net_mut().layers_mut())?;
        *self.model.support_mut() = snapshot_support;
        self.model.refresh_prototypes()?;
        self.update_failures += 1;
        self.log.record(EventKind::UpdateRolledBack {
            new_label,
            failures: self.update_failures,
        });
        if self.update_failures < MAX_UPDATE_FAILURES {
            return Ok(UpdateStatus::RolledBack);
        }
        // Persistent faults: give up on personalisation, keep recognising
        // the pre-trained classes (graceful degradation, tier 4).
        self.baseline.0.restore(self.model.net_mut().layers_mut())?;
        *self.model.support_mut() = self.baseline.1.clone();
        self.model.refresh_prototypes()?;
        self.pending.clear();
        self.degraded = true;
        self.log.record(EventKind::DegradedToPretrained { failures: self.update_failures });
        Ok(UpdateStatus::Degraded)
    }

    /// Classifies a pre-extracted feature batch (test harness path).
    pub fn classify_features(&mut self, features: &Tensor) -> Result<Vec<usize>, EdgeError> {
        Ok(self.model.predict(features)?)
    }

    /// Serves a pre-extracted feature batch (`[n, FEATURE_DIM]`): one
    /// embedding forward and one distance kernel for the whole batch,
    /// classified against the model's live NCM prototypes.
    ///
    /// Every kernel is band-parallel over output **rows**, with each row a
    /// pure serial function of its input row, so the outcomes here are
    /// bitwise identical to classifying each window on its own (the
    /// [`EdgeDevice::stream`] path) — see `docs/FLEET.md` for the contract.
    ///
    /// A serve at a [`Pilote::generation`] other than the last served one
    /// counts as a prototype-cache rebuild. The generation bumps at every
    /// model commit point (incremental update, rollback, degradation,
    /// federated install), so the counts track every classifier change.
    pub fn serve_batch(&mut self, features: &Tensor) -> Result<Vec<InferenceOutcome>, EdgeError> {
        if features.rows() == 0 {
            return Ok(Vec::new());
        }
        let generation = self.model.generation();
        let cache_rebuilt = self.served_generation != Some(generation);
        if cache_rebuilt {
            self.served_generation = Some(generation);
            self.cache_rebuilds += 1;
        }
        let span = pilote_obs::span("edge.serve_batch");
        span.annotate("windows", features.rows() as f64);
        // Modeled device time from shape-derived kernel work, as in
        // `stream` — never host wall time.
        let flops_before = work::thread_flops();
        let labelled = self.model.classify_batch(features)?;
        let flops = work::thread_flops().wrapping_sub(flops_before);
        let device_seconds = self.profile.seconds_for_flops(flops);
        span.annotate("device_seconds", device_seconds);
        drop(span);
        self.log.advance(device_seconds);
        self.log.record(EventKind::BatchServed {
            windows: features.rows() as u64,
            cache_rebuilt,
        });
        Ok(labelled
            .into_iter()
            .map(|(predicted, distance)| InferenceOutcome { predicted, distance })
            .collect())
    }

    /// Prototype-cache rebuilds counted by [`EdgeDevice::serve_batch`].
    pub fn cache_rebuilds(&self) -> u64 {
        self.cache_rebuilds
    }

    /// Model generation of the last [`EdgeDevice::serve_batch`], if any.
    pub fn serve_cache_generation(&self) -> Option<u64> {
        self.served_generation
    }

    /// Accuracy on a labelled feature dataset.
    pub fn accuracy(&mut self, data: &Dataset) -> Result<f32, EdgeError> {
        Ok(self.model.accuracy(data)?)
    }

    /// Direct access to the model (federated rounds exchange parameters).
    pub fn model_mut(&mut self) -> &mut Pilote {
        &mut self.model
    }

    /// Records a federated round in the log.
    pub fn note_federated_round(&mut self, participants: usize) {
        self.log.record(EventKind::FederatedRound { participants });
    }

    /// Appends an event to this device's log at the current virtual time
    /// (used by the federated coordinator and fleet orchestration).
    pub fn record_event(&mut self, kind: EventKind) {
        self.log.record(kind);
    }

    /// Advances this device's virtual clock (e.g. a fleet charging link
    /// transfer time for a federated round's parameter exchange).
    pub fn advance_clock(&mut self, seconds: f64) {
        self.log.advance(seconds);
    }

    /// Re-bounds this device's event-log ring buffer (`0` = unbounded; see
    /// [`crate::events::EventLog::set_capacity`]). Running totals — and
    /// therefore telemetry snapshots — are unaffected by the bound.
    pub fn set_event_capacity(&mut self, capacity: usize) {
        self.log.set_capacity(capacity);
    }

    /// A per-device telemetry snapshot assembled from **device-local**
    /// state: the event log's running per-metric totals (matching the
    /// [`EventKind::metric_name`] bridge — window events add their window
    /// counts, and totals survive ring-buffer eviction), the virtual clock
    /// and model generation (gauges), and the quality monitor's
    /// accumulated margin histogram. The process-global `pilote_obs`
    /// registry is deliberately not consulted: it sums over every device
    /// in the process and cannot be attributed back to one fleet member.
    /// Returns `Snapshot::default()` (all empty, `enabled: false`) under
    /// the `PILOTE_OBS` kill switch.
    pub fn telemetry_snapshot(&self) -> pilote_obs::Snapshot {
        if !pilote_obs::enabled() {
            return pilote_obs::Snapshot::default();
        }
        let mut snapshot = pilote_obs::Snapshot { enabled: true, ..Default::default() };
        snapshot.counters = self.log.totals().clone();
        let point = |v: f64| pilote_obs::GaugeSnapshot { last: v, min: v, max: v, count: 1 };
        snapshot.gauges.insert("edge.clock_seconds".to_string(), point(self.log.now()));
        snapshot
            .gauges
            .insert("edge.generation".to_string(), point(self.model.generation() as f64));
        if let Some(monitor) = &self.quality {
            let mut margins =
                pilote_obs::HistogramSnapshot::with_bounds(pilote_core::quality::MARGIN_BOUNDS);
            for report in monitor.reports() {
                if let Some(merged) = margins.merge(&report.margins) {
                    margins = merged;
                }
            }
            snapshot.histograms.insert("quality.margins".to_string(), margins);
            if let Some(last) = monitor.last_report() {
                snapshot
                    .gauges
                    .insert("quality.forgetting".to_string(), point(f64::from(last.forgetting)));
                snapshot.gauges.insert(
                    "quality.old_class_accuracy".to_string(),
                    point(f64::from(last.old_class_accuracy)),
                );
            }
            if let Some(matrix) = monitor.session_matrix() {
                let summary = matrix.summary();
                snapshot
                    .gauges
                    .insert("session.sessions".to_string(), point(summary.sessions as f64));
                snapshot.gauges.insert(
                    "session.average_accuracy".to_string(),
                    point(summary.average_accuracy),
                );
                snapshot
                    .gauges
                    .insert("session.forgetting".to_string(), point(summary.final_forgetting));
                if let Some(bwt) = summary.backward_transfer {
                    snapshot.gauges.insert("session.bwt".to_string(), point(bwt));
                }
                if let Some(fwt) = summary.forward_transfer {
                    snapshot.gauges.insert("session.fwt".to_string(), point(fwt));
                }
            }
        }
        snapshot
    }

    /// The **windowed** telemetry upload: everything that accumulated
    /// since the previous `telemetry_delta` call (or since install, for
    /// the first call), as a [`pilote_obs::Snapshot::delta_since`] payload
    /// — counter/histogram increments plus current gauge readings. Ships
    /// far fewer bytes than a whole-life [`EdgeDevice::telemetry_snapshot`]
    /// on a long-running device, and summing every delta at the cloud
    /// reproduces the full-snapshot rollup exactly (see `docs/SCALING.md`).
    ///
    /// Advances the upload baseline; under the `PILOTE_OBS` kill switch
    /// the delta is empty and the baseline does not move.
    pub fn telemetry_delta(&mut self) -> pilote_obs::Snapshot {
        if !pilote_obs::enabled() {
            return pilote_obs::Snapshot::default();
        }
        let full = self.telemetry_snapshot();
        let delta = full.delta_since(&self.telemetry_baseline);
        self.telemetry_baseline = full;
        delta
    }
}

/// Whether every stored prototype is finite.
fn prototypes_finite(clf: &NcmClassifier) -> bool {
    clf.labels()
        .iter()
        .all(|&l| clf.prototype(l).is_none_or(|p| p.all_finite()))
}

impl std::fmt::Debug for EdgeDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeDevice")
            .field("profile", &self.profile.name)
            .field("classes", &self.known_classes())
            .field("events", &self.log.events().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudServer;
    use pilote_core::PiloteConfig;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};
    use pilote_har_data::features::extract_batch;
    use pilote_har_data::preprocess::Normalizer;

    fn deployed_device() -> (EdgeDevice, Simulator, Normalizer) {
        let mut sim = Simulator::with_seed(31);
        let (data, norm) = generate_features(
            &mut sim,
            &[(Activity::Still, 50), (Activity::Walk, 50), (Activity::Run, 50)],
        )
        .expect("simulate");
        let server = CloudServer::new(data, norm.clone(), PiloteConfig::fast_test(5));
        let (deployment, _) = server
            .pretrain_and_package(&[Activity::Still.label(), Activity::Walk.label()], 15)
            .expect("package");
        let device = EdgeDevice::install(
            DeviceProfile::flagship_phone(),
            &deployment,
            &LinkModel::wifi(),
        )
        .expect("install");
        (device, sim, norm)
    }

    #[test]
    fn install_records_deployment_event() {
        let (device, _, _) = deployed_device();
        assert_eq!(device.log().events().len(), 1);
        assert!(matches!(device.log().events()[0].kind, EventKind::Deployed { payload_bytes } if payload_bytes > 0));
        assert_eq!(device.known_classes().len(), 2);
    }

    #[test]
    fn streaming_classifies_known_activity() {
        let (mut device, mut sim, _) = deployed_device();
        let session = sim.session(Activity::Still, 10);
        let outcomes = device.stream(&session).expect("stream");
        assert_eq!(outcomes.len(), 10);
        assert_eq!(device.log().inference_count(), 10);
        let correct = outcomes
            .iter()
            .filter(|o| o.predicted == Activity::Still.label())
            .count();
        assert!(correct >= 7, "only {correct}/10 Still windows recognised");
        // virtual clock advanced by ≥ the stream duration
        assert!(device.log().now() >= 10.0);
    }

    #[test]
    fn incremental_update_adds_class_on_device() {
        let (mut device, mut sim, norm) = deployed_device();
        // User labels some Run windows.
        let raw = sim.raw_dataset(&[(Activity::Run, 25)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
        for i in 0..features.rows() {
            device.label_sample(Activity::Run.label(), Tensor::vector(features.row(i)));
        }
        assert_eq!(device.pending_samples(), 25);
        device.update(20).expect("update");
        assert_eq!(device.pending_samples(), 0);
        assert_eq!(device.known_classes().len(), 3);
        assert_eq!(device.log().update_count(), 1);
    }

    /// Held-out Still/Walk probe windows, normalised with the deployment
    /// normaliser (the stream the monitor would realistically retain).
    fn probe_set(sim: &mut Simulator, norm: &Normalizer) -> Dataset {
        let raw = sim.raw_dataset(&[(Activity::Still, 20), (Activity::Walk, 20)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
        Dataset::new(features, raw.labels).expect("probe")
    }

    #[test]
    fn quality_monitor_baselines_then_samples_every_commit() {
        let (mut device, mut sim, norm) = deployed_device();
        let probe = probe_set(&mut sim, &norm);
        let old = [Activity::Still.label(), Activity::Walk.label()];
        let clock_before_arm = device.log().now();
        device
            .arm_quality_monitor(probe, &old)
            .expect("arm");
        assert_eq!(device.quality_reports().len(), 1, "arming takes the baseline");
        let baseline_generation = device.quality_reports()[0].generation;
        assert_eq!(device.quality_reports()[0].forgetting, 0.0);
        assert!(
            device.log().now() > clock_before_arm,
            "probe evaluation must advance the virtual clock"
        );

        // An incremental update commits a new generation → a second sample.
        let raw = sim.raw_dataset(&[(Activity::Run, 25)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
        for i in 0..features.rows() {
            device.label_sample(Activity::Run.label(), Tensor::vector(features.row(i)));
        }
        device.update(20).expect("update");
        assert_eq!(device.quality_reports().len(), 2, "the commit must be sampled");
        let last = device.quality_reports().last().expect("post-update report");
        assert!(last.generation > baseline_generation);
        // Per-class rows cover every class the model now knows; the new
        // class has no probe rows, so its accuracy is the -1.0 sentinel.
        assert_eq!(last.per_class.len(), 3);
        let run = last
            .per_class
            .iter()
            .find(|c| c.label == Activity::Run.label())
            .expect("new class row");
        assert_eq!(run.accuracy, -1.0, "no probe rows for the new class");
    }

    #[test]
    fn quality_alerts_are_recorded_as_events() {
        let (mut device, mut sim, norm) = deployed_device();
        let probe = probe_set(&mut sim, &norm);
        let old = [Activity::Still.label(), Activity::Walk.label()];
        device
            .arm_quality_monitor(probe, &old)
            .expect("arm");
        assert_eq!(device.log().alert_count(), 0, "healthy baseline must not alert");

        // Teleport one class's support set: its prototype jumps by far
        // more than its own norm, which must trip the drift-spike rule.
        let label = Activity::Still.label();
        let moved = device.model_mut().support().class(label).expect("class").add_scalar(100.0);
        device.model_mut().support_mut().put_class(label, moved);
        device.model_mut().refresh_prototypes().expect("refresh");
        device.sample_quality().expect("sample");
        assert!(device.log().alert_count() >= 1, "drift spike must raise an alert event");
        let raised = device.log().events().iter().any(|e| {
            matches!(&e.kind, EventKind::AlertRaised { rule, .. } if rule == "drift_spike")
        });
        assert!(raised, "the alert event must carry the rule name");
    }

    #[test]
    fn telemetry_snapshot_mirrors_the_device_log() {
        let (mut device, mut sim, _) = deployed_device();
        let session = sim.session(Activity::Still, 6);
        device.stream(&session).expect("stream");
        let snapshot = device.telemetry_snapshot();
        if !pilote_obs::enabled() {
            assert_eq!(snapshot, pilote_obs::Snapshot::default());
            return;
        }
        assert!(snapshot.enabled);
        assert_eq!(snapshot.counters.get("edge.deployed").copied(), Some(1));
        assert_eq!(snapshot.counters.get("edge.inference").copied(), Some(6));
        let clock = snapshot.gauges.get("edge.clock_seconds").expect("clock gauge");
        assert_eq!(clock.last, device.log().now());
        // Device-local snapshots are attributable: streaming on a second
        // device must not leak into this one's counters.
        let (mut other, mut sim2, _) = deployed_device();
        other.stream(&sim2.session(Activity::Walk, 9)).expect("stream");
        assert_eq!(device.telemetry_snapshot().counters.get("edge.inference").copied(), Some(6));
    }

    #[test]
    fn telemetry_deltas_sum_to_the_full_snapshot() {
        let (mut device, mut sim, _) = deployed_device();
        if !pilote_obs::enabled() {
            return; // kill switch: deltas are empty by contract
        }
        let mut summed = crate::cloud::TelemetryRollup::new();
        // Window 1: install + a short stream.
        device.stream(&sim.session(Activity::Still, 4)).expect("stream");
        summed.merge_snapshot(&device.telemetry_delta()).expect("merge w1");
        // Window 2: more streaming.
        device.stream(&sim.session(Activity::Walk, 5)).expect("stream");
        summed.merge_snapshot(&device.telemetry_delta()).expect("merge w2");
        // An idle window ships no counters at all.
        let idle = device.telemetry_delta();
        assert!(idle.counters.is_empty(), "idle delta must be counter-free");
        summed.merge_snapshot(&idle).expect("merge idle");
        // Conservation: the summed deltas equal the whole-life snapshot.
        let full = device.telemetry_snapshot();
        assert_eq!(summed.counters, full.counters);
        assert_eq!(summed.counter("edge.inference"), 9);
        assert_eq!(summed.gauges["edge.clock_seconds"].last, device.log().now());
        // Deltas are the point: window 2's payload excludes window 1's
        // history (9 lifetime inferences, only 5 in the second window).
        let mut fresh = crate::cloud::TelemetryRollup::new();
        let (mut device2, mut sim2, _) = deployed_device();
        device2.stream(&sim2.session(Activity::Still, 4)).expect("stream");
        device2.telemetry_delta();
        device2.stream(&sim2.session(Activity::Walk, 5)).expect("stream");
        fresh.merge_snapshot(&device2.telemetry_delta()).expect("merge");
        assert_eq!(fresh.counter("edge.inference"), 5);
        assert_eq!(fresh.counter("edge.deployed"), 0, "install predates the window");
    }

    #[test]
    fn bounded_event_log_does_not_change_telemetry() {
        let (mut bounded, mut sim_a, _) = deployed_device();
        let (mut unbounded, mut sim_b, _) = deployed_device();
        bounded.set_event_capacity(3);
        let a = sim_a.session(Activity::Still, 8);
        let b = sim_b.session(Activity::Still, 8);
        assert_eq!(a, b);
        bounded.stream(&a).expect("stream");
        unbounded.stream(&b).expect("stream");
        assert!(bounded.log().evicted() > 0, "the bound must actually evict");
        assert_eq!(bounded.log().events().len(), 3);
        // Same totals, same derived counts, same telemetry snapshot.
        assert_eq!(bounded.log().totals(), unbounded.log().totals());
        assert_eq!(bounded.log().inference_count(), unbounded.log().inference_count());
        assert_eq!(bounded.telemetry_snapshot(), unbounded.telemetry_snapshot());
    }

    #[test]
    fn install_presized_matches_install() {
        let (deployment, _, _) = deployment();
        let link = LinkModel::cellular_4g();
        let a = EdgeDevice::install(DeviceProfile::wearable(), &deployment, &link)
            .expect("install");
        let b = EdgeDevice::install_presized(
            DeviceProfile::wearable(),
            &deployment,
            &link,
            deployment.wire_bytes().expect("wire bytes"),
        )
        .expect("install presized");
        assert_eq!(
            serde_json::to_string(a.log().events()).expect("json"),
            serde_json::to_string(b.log().events()).expect("json"),
        );
        assert_eq!(a.log().now().to_bits(), b.log().now().to_bits());
    }

    fn deployment() -> (crate::cloud::Deployment, Simulator, Normalizer) {
        let mut sim = Simulator::with_seed(31);
        let (data, norm) = generate_features(
            &mut sim,
            &[(Activity::Still, 50), (Activity::Walk, 50), (Activity::Run, 50)],
        )
        .expect("simulate");
        let server = CloudServer::new(data, norm.clone(), PiloteConfig::fast_test(5));
        let (deployment, _) = server
            .pretrain_and_package(&[Activity::Still.label(), Activity::Walk.label()], 15)
            .expect("package");
        (deployment, sim, norm)
    }

    #[test]
    fn resilient_install_retries_until_success() {
        use pilote_edge_sim::faults::LinkFaultRates;
        let (deployment, _, _) = deployment();
        // Find a seed whose first attempt fails but a later one succeeds.
        for seed in 0..64u64 {
            let mut flaky = FlakyLink::new(
                LinkModel::wifi(),
                seed,
                LinkFaultRates::uniform(0.3),
            );
            let device = EdgeDevice::install_resilient(
                DeviceProfile::flagship_phone(),
                &deployment,
                &mut flaky,
            );
            let retries = flaky.faults();
            if let Ok(device) = device {
                if retries > 0 {
                    let logged = device
                        .log()
                        .events()
                        .iter()
                        .filter(|e| matches!(e.kind, EventKind::TransferRetried { .. }))
                        .count() as u64;
                    assert_eq!(logged, retries);
                    assert_eq!(device.known_classes().len(), 2);
                    return;
                }
            }
        }
        panic!("no seed produced a retry-then-success install");
    }

    #[test]
    fn resilient_install_gives_up_on_dead_link() {
        use pilote_edge_sim::faults::LinkFaultRates;
        let (deployment, _, _) = deployment();
        let mut flaky = FlakyLink::new(
            LinkModel::weak_cellular(),
            1,
            LinkFaultRates { drop: 1.0, timeout: 0.0, truncate: 0.0 },
        );
        match EdgeDevice::install_resilient(
            DeviceProfile::flagship_phone(),
            &deployment,
            &mut flaky,
        ) {
            Err(EdgeError::Link { attempts, last: LinkFault::Dropped }) => {
                assert!((1..=RETRY_MAX_ATTEMPTS).contains(&attempts));
            }
            other => panic!("expected Link error, got {other:?}"),
        }
    }

    #[test]
    fn interrupted_update_rolls_back_exactly() {
        let (mut device, mut sim, norm) = deployed_device();
        let raw = sim.raw_dataset(&[(Activity::Run, 25)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
        let probe = features.clone();
        let before = device.classify_features(&probe).expect("classify");
        let before_support = device.model_mut().support().clone();
        for i in 0..features.rows() {
            device.label_sample(Activity::Run.label(), Tensor::vector(features.row(i)));
        }
        let status = device
            .update_faulted(20, Some(pilote_core::UpdateStage::Trained))
            .expect("update");
        assert_eq!(status, UpdateStatus::RolledBack);
        // Exact rollback: same predictions, same exemplars, pending kept.
        assert_eq!(device.classify_features(&probe).expect("classify"), before);
        assert_eq!(*device.model_mut().support(), before_support);
        assert_eq!(device.pending_samples(), 25);
        assert_eq!(device.update_failures(), 1);
        // A subsequent clean update succeeds from the restored state.
        let status = device.update_faulted(20, None).expect("retry");
        assert_eq!(status, UpdateStatus::Completed);
        assert_eq!(device.known_classes().len(), 3);
        assert_eq!(device.update_failures(), 0);
    }

    #[test]
    fn persistent_failures_degrade_to_pretrained() {
        let (mut device, mut sim, norm) = deployed_device();
        let raw = sim.raw_dataset(&[(Activity::Run, 15)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
        for i in 0..features.rows() {
            device.label_sample(Activity::Run.label(), Tensor::vector(features.row(i)));
        }
        let probe = features.clone();
        let baseline_preds = device.classify_features(&probe).expect("classify");
        for failure in 1..=MAX_UPDATE_FAILURES {
            let status = device
                .update_faulted(10, Some(pilote_core::UpdateStage::Trained))
                .expect("update");
            if failure < MAX_UPDATE_FAILURES {
                assert_eq!(status, UpdateStatus::RolledBack);
            } else {
                assert_eq!(status, UpdateStatus::Degraded);
            }
        }
        assert!(device.is_degraded());
        assert_eq!(device.pending_samples(), 0);
        assert_eq!(device.known_classes().len(), 2);
        // The degraded device still classifies with the pre-trained model.
        assert_eq!(device.classify_features(&probe).expect("classify"), baseline_preds);
        assert!(device
            .log()
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::DegradedToPretrained { .. })));
    }

    #[test]
    fn corrupted_stream_quarantines_and_keeps_classifying() {
        let (mut device, mut sim, _) = deployed_device();
        let mut session = sim.session(Activity::Still, 10);
        session.row_mut(130)[3] = f32::NAN; // taints window 1 only
        let outcomes = device.stream(&session).expect("stream");
        assert_eq!(outcomes.len(), 9);
        assert_eq!(device.quarantined_windows(), 1);
        assert!(device
            .log()
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::WindowsQuarantined { windows: 1 })));
    }

    /// Regression test for the host/virtual clock mixing bug: the virtual
    /// clock used to be advanced by stopwatch-measured host time projected
    /// through the device profile, so traces varied with host load. Device
    /// time is now modeled from shape-derived kernel work, so an identical
    /// operation sequence must produce an *identical* event log — same
    /// events, same virtual timestamps — even while the host is saturated
    /// with busy-spinning threads.
    #[test]
    fn host_load_cannot_change_virtual_time_traces() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (mut quiet, mut sim_q, _) = deployed_device();
        let (mut loaded, mut sim_l, _) = deployed_device();
        let session_q = sim_q.session(Activity::Walk, 6);
        let session_l = sim_l.session(Activity::Walk, 6);
        assert_eq!(session_q, session_l, "same seed must give the same session");

        quiet.stream(&session_q).expect("stream");

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
            loaded.stream(&session_l).expect("stream");
            stop.store(true, Ordering::Relaxed);
        });

        assert_eq!(
            quiet.log(),
            loaded.log(),
            "virtual-time trace changed under host load"
        );
        assert!(quiet.log().now() > 0.0);
    }

    /// The batched serving contract: one `serve_batch` over n windows must
    /// be **bitwise** identical — labels and distances — to n single-window
    /// serves, because every kernel is band-parallel over output rows.
    #[test]
    fn serve_batch_is_bitwise_identical_to_per_window_serving() {
        let (mut batched, mut sim, norm) = deployed_device();
        let (mut single, _, _) = deployed_device();
        let raw = sim.raw_dataset(&[(Activity::Walk, 12)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");

        let all = batched.serve_batch(&features).expect("serve");
        assert_eq!(all.len(), features.rows());
        for (i, outcome) in all.iter().enumerate() {
            let row = Tensor::vector(features.row(i)).reshape([1, FEATURE_DIM]).expect("row");
            let one = single.serve_batch(&row).expect("serve one");
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].predicted, outcome.predicted, "window {i}");
            assert_eq!(
                one[0].distance.to_bits(),
                outcome.distance.to_bits(),
                "window {i}: batched distance must be bitwise equal"
            );
        }
        // One batch = one cache build + one BatchServed event for n windows.
        assert_eq!(batched.cache_rebuilds(), 1);
        assert_eq!(batched.log().served_count(), features.rows() as u64);
        // The per-window device rebuilt once too: generation never moved.
        assert_eq!(single.cache_rebuilds(), 1);
    }

    /// Cache coherence: every committed model change (update, rollback,
    /// degradation) bumps the generation and forces a rebuild on the next
    /// serve; serving twice at the same generation reuses the snapshot.
    #[test]
    fn serve_cache_rebuilds_only_when_generation_moves() {
        let (mut device, mut sim, norm) = deployed_device();
        let raw = sim.raw_dataset(&[(Activity::Run, 25)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");

        device.serve_batch(&features).expect("serve");
        device.serve_batch(&features).expect("serve again");
        assert_eq!(device.cache_rebuilds(), 1, "same generation must reuse the cache");
        let g0 = device.serve_cache_generation().expect("cache built");

        // A completed update commits through refresh_prototypes → new
        // generation → rebuild.
        for i in 0..features.rows() {
            device.label_sample(Activity::Run.label(), Tensor::vector(features.row(i)));
        }
        device.update(20).expect("update");
        let served = device.serve_batch(&features).expect("serve after update");
        assert_eq!(device.cache_rebuilds(), 2, "update must invalidate the cache");
        assert!(device.serve_cache_generation().expect("cache") > g0);
        // The rebuilt cache reflects the new class.
        assert!(served.iter().any(|o| o.predicted == Activity::Run.label()));

        // A rollback also commits (restores the snapshot) → rebuild again.
        for i in 0..5 {
            device.label_sample(Activity::Drive.label(), Tensor::vector(features.row(i)));
        }
        let status = device
            .update_faulted(20, Some(pilote_core::UpdateStage::Trained))
            .expect("faulted update");
        assert_eq!(status, UpdateStatus::RolledBack);
        device.serve_batch(&features).expect("serve after rollback");
        assert_eq!(device.cache_rebuilds(), 3, "rollback must invalidate the cache");
    }

    #[test]
    fn drift_monitor_fires_for_unseen_activity() {
        let (mut device, mut sim, norm) = deployed_device();
        let known = sim.raw_dataset(&[(Activity::Still, 30)]);
        let known_features =
            norm.transform(&extract_batch(&known).expect("features")).expect("norm");
        device.arm_drift_monitor(&known_features, 3.0).expect("arm");
        // Stream an unseen, very different activity.
        let session = sim.session(Activity::Run, 15);
        device.stream(&session).expect("stream");
        let drift_events = device
            .log()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::DriftDetected { .. }))
            .count();
        assert!(drift_events >= 1, "drift monitor never fired");
    }
}
