//! Self-healing fleet policy: the deterministic control loop that turns
//! [`pilote_core::QualityMonitor`] alerts into fleet actions.
//!
//! The paper's Q2 motivates on-device incremental learning precisely
//! because cloud round-trips are expensive — so a production fleet must
//! *autonomously* contain a device whose model is forgetting rather than
//! wait for an operator. The detectors exist (`core::quality`, PR 5) and
//! the actuators exist (FedAvg rounds, installs, rollback — PR 2/4/6);
//! this module closes the loop:
//!
//! 1. **Quarantine** — a device whose monitor fires a *triggering* rule
//!    (`forgetting` or `margin_collapse`; drift alone is advisory) is
//!    excluded from the next `QUARANTINE_ROUNDS` (2) completed FedAvg
//!    rounds. It still receives staged installs, and the exclusion is
//!    logged with the typed
//!    [`crate::events::ExclusionReason::Quarantined`] reason.
//! 2. **Repair escalation** — each *new* triggering alert bumps the
//!    device's strike count and walks PR 2's resilience ladder, now
//!    driven by model quality instead of crashes: strike 1 rolls back to
//!    the device's last-good snapshot, strike 2 re-anchors from the cloud
//!    package, strike 3 degrades to the frozen pre-trained deployment.
//! 3. **Staged rollouts** — federated installs (and deployment rollouts)
//!    proceed canary → cohort → fleet over a hash-routed, deterministic
//!    [`StagePlan`]. After each stage installs and samples, the stage's
//!    triggering-alert rate is compared against that stage's historical
//!    baseline; exceeding it by `HALT_MARGIN` (0.25) halts the
//!    rollout, restores the stage's pre-install snapshots, and screens
//!    every contributor for silent poison (a generation that moved
//!    without being sampled).
//! 4. **Adaptive thresholds** — per-device threshold derivation lives in
//!    `core::quality` ([`pilote_core::QualityMonitor::enable_adaptive`]);
//!    the fleet switches it on via
//!    [`crate::fleet::Fleet::enable_adaptive_thresholds`].
//!
//! Every decision here is a pure function of alert history, the stage
//! plan and the constants below — no randomness beyond the seeded stage
//! hash, no wall clock — so two runs (at any `PILOTE_THREADS`) make
//! byte-identical decisions. The orchestration that *applies* the decisions lives in
//! [`crate::fleet::Fleet::federated_round`] and
//! [`crate::fleet::Fleet::rollout_deployment`], which install through one
//! staged-install helper. A fleet without a policy runs the same round
//! and install with nothing to act on: nobody is held out, and its one
//! wave of every device cannot halt. See `docs/POLICY.md` for the full
//! state machine.

use crate::fleet::splitmix64;
use pilote_core::{AlertRule, QualityAlert, QualityReport};
use serde::{Deserialize, Serialize};

/// Domain-separation constant for the stage-assignment hash, so stage
/// membership is decorrelated from session routing under the same seed.
const STAGE_HASH_SALT: u64 = 0x57a6_e5a1;

/// Completed FedAvg rounds a newly quarantined device sits out (halted
/// rounds do not count down — nothing was installed).
pub(crate) const QUARANTINE_ROUNDS: usize = 2;

/// Fraction of the roster in the canary stage (at least one device).
const CANARY_FRACTION: f64 = 0.2;

/// Fraction of the roster in the cohort stage; the remainder is the fleet
/// stage.
const COHORT_FRACTION: f64 = 0.3;

/// How far a stage's triggering-alert rate may exceed its historical
/// baseline rate before the rollout halts (absolute rate margin).
const HALT_MARGIN: f64 = 0.25;

/// Absolute screening floor: a device whose probe old-class accuracy sits
/// more than this below its *armed baseline* (its first quality report) is
/// treated as triggering even when no alert fired. The forgetting rule
/// measures the drop versus the previous observation, so a device that was
/// already broken when last sampled — e.g. a halted canary restored to its
/// own silently-poisoned snapshot — shows a forgetting of zero forever;
/// this floor is what breaks that masking loop.
const SCREENING_ACCURACY_DROP: f32 = 0.2;

/// The three rollout stages, in install order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RolloutStage {
    /// The small first wave — the blast-radius probe.
    Canary,
    /// The mid-size second wave.
    Cohort,
    /// Everyone else.
    Fleet,
}

impl RolloutStage {
    /// All stages in install order.
    pub const ALL: [RolloutStage; 3] =
        [RolloutStage::Canary, RolloutStage::Cohort, RolloutStage::Fleet];

    /// Stable machine-readable stage name (used in events and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            RolloutStage::Canary => "canary",
            RolloutStage::Cohort => "cohort",
            RolloutStage::Fleet => "fleet",
        }
    }

    fn index(&self) -> usize {
        match self {
            RolloutStage::Canary => 0,
            RolloutStage::Cohort => 1,
            RolloutStage::Fleet => 2,
        }
    }
}

/// Deterministic stage membership: device indices hash-routed into
/// canary/cohort/fleet waves, each wave sorted ascending so installs walk
/// in device-index order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagePlan {
    /// Canary-stage device indices (never empty).
    pub canary: Vec<usize>,
    /// Cohort-stage device indices.
    pub cohort: Vec<usize>,
    /// Fleet-stage device indices.
    pub fleet: Vec<usize>,
}

impl StagePlan {
    fn build(devices: usize, seed: u64) -> StagePlan {
        let mut order: Vec<usize> = (0..devices).collect();
        // Hash-routed assignment: sort by a salted per-device hash (index
        // as tiebreak), then cut the waves off the front. Pure function
        // of (seed, roster size) — stable for the fleet's lifetime.
        order.sort_by_key(|&i| (splitmix64(seed ^ STAGE_HASH_SALT ^ i as u64), i));
        let canary_n = (((devices as f64) * CANARY_FRACTION).round() as usize).clamp(1, devices);
        let cohort_n =
            (((devices as f64) * COHORT_FRACTION).round() as usize).min(devices - canary_n);
        let mut canary: Vec<usize> = order[..canary_n].to_vec();
        let mut cohort: Vec<usize> = order[canary_n..canary_n + cohort_n].to_vec();
        let mut fleet: Vec<usize> = order[canary_n + cohort_n..].to_vec();
        canary.sort_unstable();
        cohort.sort_unstable();
        fleet.sort_unstable();
        StagePlan { canary, cohort, fleet }
    }

    /// Device indices of one stage, ascending.
    pub fn stage(&self, stage: RolloutStage) -> &[usize] {
        match stage {
            RolloutStage::Canary => &self.canary,
            RolloutStage::Cohort => &self.cohort,
            RolloutStage::Fleet => &self.fleet,
        }
    }
}

/// A device's standing with the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceHealth {
    /// Contributing and receiving normally.
    Healthy,
    /// Excluded from the next `rounds_left` completed FedAvg rounds; still
    /// receives staged installs.
    Quarantined {
        /// Completed rounds left to sit out.
        rounds_left: usize,
    },
    /// Third strike: frozen on the pre-trained deployment. Terminal —
    /// neither contributes nor receives.
    Degraded,
}

/// The repair the escalation ladder prescribes for a strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// Strike 1: restore the device's last-good snapshot.
    Rollback,
    /// Strike 2: re-install the cloud anchor package.
    Reanchor,
    /// Strike 3: freeze on the pre-trained deployment.
    Degrade,
}

/// Per-stage alert-rate history: the baseline a new stage install is
/// judged against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct StageBaseline {
    /// Triggering alerts across past non-halted installs of this stage.
    alerts: u64,
    /// Devices installed across those stages.
    installed: u64,
}

impl StageBaseline {
    fn rate(&self) -> f64 {
        if self.installed == 0 {
            0.0
        } else {
            self.alerts as f64 / self.installed as f64
        }
    }
}

/// Counts for reports — the policy's own telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicySummary {
    /// Roster size.
    pub devices: usize,
    /// Devices currently [`DeviceHealth::Healthy`].
    pub healthy: usize,
    /// Devices currently [`DeviceHealth::Quarantined`].
    pub quarantined: usize,
    /// Devices currently [`DeviceHealth::Degraded`].
    pub degraded: usize,
    /// Quarantine entries (including escalations of an active quarantine).
    pub quarantines: u64,
    /// Quarantines served out and lifted.
    pub lifts: u64,
    /// Strike-1 rollback repairs.
    pub rollbacks: u64,
    /// Strike-2 cloud re-anchor repairs.
    pub reanchors: u64,
    /// Strike-3 degradations.
    pub degrades: u64,
    /// Stage installs halted and rolled back.
    pub halts: u64,
    /// Policied FedAvg rounds that completed all stages.
    pub rounds_completed: u64,
    /// Policied FedAvg rounds halted mid-rollout.
    pub rounds_halted: u64,
}

/// The control-loop state for one fleet (see the module docs). Decisions
/// only — the [`crate::fleet::Fleet`] owns the devices and applies them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPolicy {
    plan: StagePlan,
    health: Vec<DeviceHealth>,
    strikes: Vec<u32>,
    /// Per-device count of quality reports the control loop has already
    /// inspected; anything past it is "new" at the next control step.
    seen_reports: Vec<usize>,
    baselines: [StageBaseline; 3],
    quarantines: u64,
    lifts: u64,
    rollbacks: u64,
    reanchors: u64,
    degrades: u64,
    halts: u64,
    rounds_completed: u64,
    rounds_halted: u64,
}

impl FleetPolicy {
    /// A policy over a roster of `devices`, with stage membership derived
    /// from `seed` (use the fleet's own seed so one seed fixes routing
    /// *and* staging).
    pub fn new(devices: usize, seed: u64) -> FleetPolicy {
        assert!(devices > 0, "a policy needs at least one device");
        FleetPolicy {
            plan: StagePlan::build(devices, seed),
            health: vec![DeviceHealth::Healthy; devices],
            strikes: vec![0; devices],
            seen_reports: vec![0; devices],
            baselines: [StageBaseline::default(); 3],
            quarantines: 0,
            lifts: 0,
            rollbacks: 0,
            reanchors: 0,
            degrades: 0,
            halts: 0,
            rounds_completed: 0,
            rounds_halted: 0,
        }
    }

    /// The deterministic stage plan.
    pub fn plan(&self) -> &StagePlan {
        &self.plan
    }

    /// A device's current standing.
    pub fn health(&self, index: usize) -> DeviceHealth {
        self.health[index]
    }

    /// A device's lifetime strike count.
    pub fn strikes(&self, index: usize) -> u32 {
        self.strikes[index]
    }

    /// Whether a device's parameters may enter the next average.
    pub fn contributes(&self, index: usize) -> bool {
        matches!(self.health[index], DeviceHealth::Healthy)
    }

    /// Whether a device receives staged installs (everyone but the
    /// degraded).
    pub fn receives(&self, index: usize) -> bool {
        !matches!(self.health[index], DeviceHealth::Degraded)
    }

    /// The first *triggering* alert in a report — `forgetting` or
    /// `margin_collapse`. Drift alone never triggers repair: prototypes
    /// legitimately jump on rollbacks and re-anchors.
    pub fn triggering_alert(report: &QualityReport) -> Option<&QualityAlert> {
        report
            .alerts
            .iter()
            .find(|a| matches!(a.rule, AlertRule::Forgetting | AlertRule::MarginCollapse))
    }

    /// Judges one not-yet-inspected report: a triggering alert wins;
    /// otherwise the absolute screening floor (`SCREENING_ACCURACY_DROP`,
    /// 0.2) against the device's
    /// armed-baseline accuracy catches a model that was *already* broken
    /// at its previous observation and therefore shows zero incremental
    /// forgetting. Returns the rule name driving the repair.
    pub fn judge(&self, report: &QualityReport, baseline_accuracy: Option<f32>) -> Option<String> {
        if let Some(alert) = FleetPolicy::triggering_alert(report) {
            return Some(alert.rule.name().to_string());
        }
        match baseline_accuracy {
            Some(base)
                if report.old_class_accuracy < base - SCREENING_ACCURACY_DROP =>
            {
                Some("screening_floor".to_string())
            }
            _ => None,
        }
    }

    /// The reports of `reports` the control loop has not inspected yet.
    pub fn unseen_reports<'a>(
        &self,
        index: usize,
        reports: &'a [QualityReport],
    ) -> &'a [QualityReport] {
        &reports[self.seen_reports[index].min(reports.len())..]
    }

    /// Marks the first `len` reports of a device as inspected.
    pub fn mark_seen(&mut self, index: usize, len: usize) {
        self.seen_reports[index] = self.seen_reports[index].max(len);
    }

    /// Registers a new triggering alert on a device: bumps its strike,
    /// (re-)enters quarantine with a full `QUARANTINE_ROUNDS` sentence, and returns the repair the ladder prescribes. Idempotent
    /// on a degraded device (already at the terminal rung).
    pub fn escalate(&mut self, index: usize) -> RepairAction {
        if matches!(self.health[index], DeviceHealth::Degraded) {
            return RepairAction::Degrade;
        }
        self.strikes[index] += 1;
        self.quarantines += 1;
        let action = match self.strikes[index] {
            1 => RepairAction::Rollback,
            2 => RepairAction::Reanchor,
            _ => RepairAction::Degrade,
        };
        match action {
            RepairAction::Rollback => self.rollbacks += 1,
            RepairAction::Reanchor => self.reanchors += 1,
            RepairAction::Degrade => self.degrades += 1,
        }
        self.health[index] = if action == RepairAction::Degrade {
            DeviceHealth::Degraded
        } else {
            DeviceHealth::Quarantined { rounds_left: QUARANTINE_ROUNDS }
        };
        action
    }

    /// Judges one finished stage install: `alerts` triggering alerts
    /// across `installed` devices, against the stage's historical
    /// baseline rate. Returns `true` when the rollout must halt. A
    /// non-halted stage folds into the baseline; a halted one does not
    /// (a poisoned wave must not inflate future tolerance).
    pub fn stage_completed(
        &mut self,
        stage: RolloutStage,
        installed: usize,
        alerts: u64,
    ) -> bool {
        if installed == 0 {
            return false;
        }
        let baseline = &mut self.baselines[stage.index()];
        let rate = alerts as f64 / installed as f64;
        let halted = rate > baseline.rate() + HALT_MARGIN;
        if halted {
            self.halts += 1;
        } else {
            baseline.alerts += alerts;
            baseline.installed += installed as u64;
        }
        halted
    }

    /// Closes a fully completed round: counts it, serves one round of
    /// every quarantine sentence, and returns the `(device, strikes)`
    /// pairs whose quarantine just lifted (health back to Healthy;
    /// strikes persist, so a relapse escalates rather than restarts).
    pub fn finish_round(&mut self) -> Vec<(usize, u32)> {
        self.rounds_completed += 1;
        let mut lifted = Vec::new();
        for (index, health) in self.health.iter_mut().enumerate() {
            if let DeviceHealth::Quarantined { rounds_left } = health {
                *rounds_left = rounds_left.saturating_sub(1);
                if *rounds_left == 0 {
                    *health = DeviceHealth::Healthy;
                    self.lifts += 1;
                    lifted.push((index, self.strikes[index]));
                }
            }
        }
        lifted
    }

    /// Counts a round that halted mid-rollout (quarantine sentences do
    /// not advance — nothing completed).
    pub fn note_halted_round(&mut self) {
        self.rounds_halted += 1;
    }

    /// Snapshot of the policy's counters and current health tallies.
    pub fn summary(&self) -> PolicySummary {
        let mut healthy = 0;
        let mut quarantined = 0;
        let mut degraded = 0;
        for h in &self.health {
            match h {
                DeviceHealth::Healthy => healthy += 1,
                DeviceHealth::Quarantined { .. } => quarantined += 1,
                DeviceHealth::Degraded => degraded += 1,
            }
        }
        PolicySummary {
            devices: self.health.len(),
            healthy,
            quarantined,
            degraded,
            quarantines: self.quarantines,
            lifts: self.lifts,
            rollbacks: self.rollbacks,
            reanchors: self.reanchors,
            degrades: self.degrades,
            halts: self.halts,
            rounds_completed: self.rounds_completed,
            rounds_halted: self.rounds_halted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_plan_partitions_the_roster_deterministically() {
        let a = StagePlan::build(10, 42);
        let b = StagePlan::build(10, 42);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(
            a,
            StagePlan::build(10, 43),
            "a different seed should (here) reshuffle the stages"
        );
        // Exact partition: every index exactly once, waves sized by
        // `CANARY_FRACTION` and `COHORT_FRACTION` (canary 2, cohort 3, fleet
        // 5 for n=10).
        assert_eq!(a.canary.len(), 2);
        assert_eq!(a.cohort.len(), 3);
        assert_eq!(a.fleet.len(), 5);
        let mut all: Vec<usize> =
            a.canary.iter().chain(&a.cohort).chain(&a.fleet).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Waves install in device-index order.
        assert!(a.canary.windows(2).all(|w| w[0] < w[1]));
        assert!(a.fleet.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tiny_roster_still_gets_a_canary() {
        let plan = StagePlan::build(1, 7);
        assert_eq!(plan.canary, vec![0]);
        assert!(plan.cohort.is_empty());
        assert!(plan.fleet.is_empty());
    }

    #[test]
    fn escalation_walks_the_resilience_ladder() {
        let mut policy = FleetPolicy::new(3, 1);
        assert!(policy.contributes(0));
        assert_eq!(policy.escalate(0), RepairAction::Rollback);
        assert_eq!(policy.health(0), DeviceHealth::Quarantined { rounds_left: 2 });
        assert!(!policy.contributes(0));
        assert!(policy.receives(0), "quarantined devices still receive installs");
        assert_eq!(policy.escalate(0), RepairAction::Reanchor);
        assert_eq!(
            policy.health(0),
            DeviceHealth::Quarantined { rounds_left: 2 },
            "escalation restarts the sentence"
        );
        assert_eq!(policy.escalate(0), RepairAction::Degrade);
        assert_eq!(policy.health(0), DeviceHealth::Degraded);
        assert!(!policy.receives(0), "degraded devices receive nothing");
        // Terminal rung is idempotent.
        assert_eq!(policy.escalate(0), RepairAction::Degrade);
        assert_eq!(policy.strikes(0), 3);
        let summary = policy.summary();
        assert_eq!(summary.quarantines, 3);
        assert_eq!((summary.rollbacks, summary.reanchors, summary.degrades), (1, 1, 1));
        assert_eq!((summary.healthy, summary.quarantined, summary.degraded), (2, 0, 1));
    }

    #[test]
    fn quarantine_lifts_after_serving_completed_rounds() {
        let mut policy = FleetPolicy::new(2, 1);
        policy.escalate(1);
        assert!(policy.finish_round().is_empty(), "one round served, one to go");
        // A halted round does not advance the sentence.
        policy.note_halted_round();
        assert_eq!(policy.health(1), DeviceHealth::Quarantined { rounds_left: 1 });
        let lifted = policy.finish_round();
        assert_eq!(lifted, vec![(1, 1)], "sentence served; strikes persist");
        assert_eq!(policy.health(1), DeviceHealth::Healthy);
        assert!(policy.contributes(1));
        let summary = policy.summary();
        assert_eq!(summary.lifts, 1);
        assert_eq!(summary.rounds_completed, 2);
        assert_eq!(summary.rounds_halted, 1);
    }

    #[test]
    fn stage_halts_against_its_rolling_baseline() {
        let mut policy = FleetPolicy::new(8, 1);
        // Clean history: two alert-free canary installs.
        assert!(!policy.stage_completed(RolloutStage::Canary, 2, 0));
        assert!(!policy.stage_completed(RolloutStage::Canary, 2, 0));
        // Rate 0.5 > baseline 0 + margin 0.25 → halt; and the poisoned
        // wave must not pollute the baseline.
        assert!(policy.stage_completed(RolloutStage::Canary, 2, 1));
        assert!(
            policy.stage_completed(RolloutStage::Canary, 2, 1),
            "an identical second spike must still halt (baseline unchanged)"
        );
        // Other stages keep independent baselines.
        assert!(!policy.stage_completed(RolloutStage::Fleet, 4, 1));
        assert_eq!(policy.summary().halts, 2);
        // Empty stages never halt.
        assert!(!policy.stage_completed(RolloutStage::Cohort, 0, 0));
    }

    #[test]
    fn policy_serde_round_trips() {
        let mut policy = FleetPolicy::new(5, 9);
        policy.escalate(2);
        policy.stage_completed(RolloutStage::Canary, 1, 1);
        policy.finish_round();
        let json = serde_json::to_string(&policy).expect("serialise");
        let back: FleetPolicy = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, policy);
        let summary_json = serde_json::to_string(&policy.summary()).expect("summary");
        let summary: PolicySummary =
            serde_json::from_str(&summary_json).expect("deserialise summary");
        assert_eq!(summary, policy.summary());
    }
}
