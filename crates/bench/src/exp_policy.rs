//! **Policy** — the closed quality loop on a fleet
//! (`BENCH_policy.json`; see `docs/POLICY.md`).
//!
//! One pre-training, two arms at the same seed with the same poison
//! schedule — the only difference is whether the self-healing policy
//! ([`pilote_magneto::FleetPolicy`]) is enabled:
//!
//! * **policy off** — a poisoned contributor's junk parameters are
//!   averaged into the federated round and installed fleet-wide; every
//!   armed monitor alerts at each subsequent generation and the damage
//!   never heals.
//! * **policy on** — the visibly-alerting device is quarantined and
//!   rolled back *before* collection; the silently-poisoned device's
//!   junk reaches the merge once, the canary stage alerts, the rollout
//!   halts (installs restored exactly), and suspect screening catches
//!   the culprit. Repeat offenses escalate rollback → cloud re-anchor →
//!   degrade-to-pretrained, so the arm ends with strictly fewer
//!   forgetting alerts and an intact fleet.
//!
//! All timestamps in the report are flop-modeled virtual seconds — never
//! host wall time — so the JSON is byte-identical for a fixed seed at
//! any `PILOTE_THREADS` (diffed by `scripts/ci.sh`).

use crate::report::{write_json, ForcedTelemetry, ReportError, Table};
use crate::scale::Scale;
use pilote_core::{Pilote, PiloteConfig, SelectionStrategy};
use pilote_edge_sim::{DeviceProfile, LinkModel};
use pilote_har_data::dataset::Dataset;
use pilote_har_data::features::extract_batch;
use pilote_har_data::preprocess::Normalizer;
use pilote_har_data::{Activity, Simulator};
use pilote_magneto::{Deployment, EdgeDevice, Fleet, FleetConfig, RolloutStage};
use pilote_nn::Layer;
use pilote_tensor::Rng64;
use serde_json::json;
use std::path::Path;

/// Devices in the policy fleet.
pub const FLEET_DEVICES: usize = 6;

/// Activities the cloud pre-trains on (the probe set covers both).
const BASE_ACTIVITIES: [Activity; 2] = [Activity::Still, Activity::Walk];

/// Federated rounds driven by the schedule.
const ROUNDS: usize = 6;

/// The device whose poisoning is *visible* (it samples its own monitor).
const VISIBLE_DEVICE: usize = 1;

/// The device that poisons *silently* (never samples — only the canary
/// stage or suspect screening can catch it), then re-offends twice.
const SILENT_DEVICE: usize = 4;

/// Builds the base-activity corpus and a held-out probe set.
fn corpus(scale: &Scale, seed: u64) -> (Dataset, Dataset, Normalizer) {
    let mut sim = Simulator::with_seed(seed);
    let counts: Vec<(Activity, usize)> =
        BASE_ACTIVITIES.iter().map(|&a| (a, scale.per_activity)).collect();
    let raw = sim.raw_dataset(&counts);
    let features = extract_batch(&raw).expect("feature extraction");
    let (norm, features) = Normalizer::fit_transform(&features).expect("normalise");
    let data = Dataset::new(features, raw.labels).expect("dataset");
    let mut rng = Rng64::new(seed ^ 0x70_11);
    let (train, test) = data.stratified_split(scale.test_fraction(), &mut rng).expect("split");
    (train, test, norm)
}

/// Pre-trains the two-class base model that every device deploys.
fn pretrain(train: &Dataset, scale: &Scale, seed: u64) -> Pilote {
    let mut cfg = PiloteConfig::paper(seed);
    cfg.max_epochs = scale.pretrain_epochs;
    cfg.pairs_per_sample = 8;
    cfg.lr_halve_every = 3;
    let (model, _) =
        Pilote::pretrain(cfg, train, scale.exemplars_per_class, SelectionStrategy::Herding)
            .expect("pretrain");
    model
}

/// Overwrites a device's net parameters with a fixed junk pattern and
/// commits the damage (prototypes recomputed through the ruined net) —
/// the model-quality failure the loop must contain. Deterministic: no
/// RNG, no host state.
fn poison(device: &mut EdgeDevice) {
    let model = device.model_mut();
    for (p, _) in model.net_mut().layers_mut().params_and_grads() {
        for (k, v) in p.as_mut_slice().iter_mut().enumerate() {
            *v = ((k % 7) as f32 - 3.0) * 1.5;
        }
    }
    model.refresh_prototypes().expect("refresh prototypes");
}

/// Forgetting alerts accumulated across a fleet's quality reports.
fn forgetting_alerts(fleet: &Fleet) -> usize {
    (0..fleet.len())
        .map(|i| {
            fleet
                .device(i)
                .quality_reports()
                .iter()
                .flat_map(|r| r.alerts.iter())
                .filter(|a| a.rule.name() == "forgetting")
                .count()
        })
        .sum()
}

/// Mean old-class probe accuracy over each device's last report.
fn mean_final_accuracy(fleet: &Fleet) -> f64 {
    let sum: f64 = (0..fleet.len())
        .map(|i| {
            fleet.device(i).quality_reports().last().expect("armed baseline").old_class_accuracy
                as f64
        })
        .sum();
    sum / fleet.len() as f64
}

/// One arm of the A/B: deploy, arm monitors, optionally enable the
/// policy, then drive the shared poison schedule. Returns the arm's JSON.
fn run_arm(
    deployment: &Deployment,
    probe: &Dataset,
    scale: &Scale,
    seed: u64,
    policy_on: bool,
) -> Result<serde_json::Value, ReportError> {
    let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
    let slots: Vec<(DeviceProfile, LinkModel)> = DeviceProfile::roster(FLEET_DEVICES)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let config = FleetConfig {
        seed: seed ^ 0x90_11c7,
        federated_every: 0, // rounds run explicitly by the schedule
        exemplar_budget: scale.exemplars_per_class,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::deploy(slots, deployment, config).expect("fleet deploy");
    let base_labels: Vec<usize> = BASE_ACTIVITIES.iter().map(|a| a.label()).collect();
    fleet.arm_quality_monitors(probe, &base_labels).expect("arm fleet");
    if policy_on {
        fleet.enable_policy(deployment.clone()).expect("enable policy");
        fleet.enable_adaptive_thresholds();
    }

    // The shared schedule: one clean round to fold stage baselines, a
    // double poisoning (one visible, one silent), a recovery round, then
    // the silent device re-offends twice — visibly, each after a clean
    // install sample so the forgetting rule has a fresh reference —
    // before a final clean round.
    for round in 0..ROUNDS {
        match round {
            1 => {
                poison(fleet.device_mut(VISIBLE_DEVICE));
                fleet.device_mut(VISIBLE_DEVICE).sample_quality().expect("sample visible");
                poison(fleet.device_mut(SILENT_DEVICE));
            }
            3 | 4 => {
                poison(fleet.device_mut(SILENT_DEVICE));
                fleet.device_mut(SILENT_DEVICE).sample_quality().expect("sample repeat");
            }
            _ => {}
        }
        fleet.federated_round().expect("federated round");
    }

    let devices: Vec<serde_json::Value> = (0..fleet.len())
        .map(|i| {
            let reports = fleet.device(i).quality_reports();
            let last = reports.last().expect("armed baseline");
            json!({
                "device": fleet.device(i).profile().name.clone(),
                "health": fleet.policy().map(|p| format!("{:?}", p.health(i))),
                "reports": reports.len(),
                "final_old_class_accuracy": last.old_class_accuracy,
                "final_forgetting": last.forgetting,
                "alerts": fleet.device(i).log().alert_count(),
                "virtual_now_s": fleet.device(i).log().now(),
            })
        })
        .collect();
    let arm = json!({
        "forgetting_alerts": forgetting_alerts(&fleet),
        "mean_final_old_class_accuracy": mean_final_accuracy(&fleet),
        "federated_rounds_completed": fleet.federated_rounds(),
        "policy": fleet.policy().map(|p| json!({
            "summary": serde_json::to_value(&p.summary()),
            "stage_plan": {
                "canary": p.plan().stage(RolloutStage::Canary),
                "cohort": p.plan().stage(RolloutStage::Cohort),
                "fleet": p.plan().stage(RolloutStage::Fleet),
            },
        })),
        "devices": devices,
    });
    Ok(arm)
}

/// Runs both arms and writes `BENCH_policy.json`. Returns the JSON
/// document (used by the determinism test and `scripts/ci.sh`).
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<serde_json::Value, ReportError> {
    eprintln!(
        "[policy] closed-loop A/B: {FLEET_DEVICES}-device fleet, {ROUNDS} rounds, \
         poison devices {VISIBLE_DEVICE} (visible) and {SILENT_DEVICE} (silent ×3)"
    );
    let telemetry = ForcedTelemetry::start();

    let (train, test, norm) = corpus(scale, seed);
    let mut model = pretrain(&train, scale, seed);
    let deployment = Deployment::from_model(&mut model, norm);
    let base_labels: Vec<usize> = BASE_ACTIVITIES.iter().map(|a| a.label()).collect();
    let probe = test.filter_classes(&base_labels).expect("probe classes");

    let off = run_arm(&deployment, &probe, scale, seed, false)?;
    let on = run_arm(&deployment, &probe, scale, seed, true)?;
    drop(telemetry);

    let mut t = Table::new(
        "Policy: closed-loop self-healing vs. open-loop (same seed, same poison)",
        &["arm", "forgetting alerts", "mean old-class acc", "rounds", "halts", "degraded"],
    );
    let count = |v: &serde_json::Value| {
        v.as_u64().map(|n| n.to_string()).unwrap_or_else(|| "-".to_string())
    };
    for (name, arm) in [("policy off", &off), ("policy on", &on)] {
        t.row(vec![
            name.to_string(),
            count(&arm["forgetting_alerts"]),
            format!("{:.4}", arm["mean_final_old_class_accuracy"].as_f64().unwrap_or(0.0)),
            count(&arm["federated_rounds_completed"]),
            count(&arm["policy"]["summary"]["halts"]),
            count(&arm["policy"]["summary"]["degrades"]),
        ]);
    }
    println!("{t}");

    let doc = json!({
        "seed": seed,
        "schedule": {
            "devices": FLEET_DEVICES,
            "rounds": ROUNDS,
            "visible_device": VISIBLE_DEVICE,
            "silent_device": SILENT_DEVICE,
            "probe_rows": probe.len(),
        },
        "determinism": "no host wall-clock fields: repairs, re-anchors and staged installs advance the flop-modeled virtual clock only — byte-identical for a fixed seed at any PILOTE_THREADS",
        "policy_off": off,
        "policy_on": on,
    });
    write_json(out, "BENCH_policy.json", &doc)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced scale for the acceptance test (the demo needs a competent
    /// two-class base model, not a converged one).
    fn tiny() -> Scale {
        Scale {
            per_activity: 100,
            rounds: 1,
            exemplars_per_class: 15,
            max_epochs: 3,
            pretrain_epochs: 4,
        }
    }

    /// Acceptance check: two runs at the same seed must produce identical
    /// JSON, and the closed loop must demonstrably win — the policy arm
    /// quarantines at canary, halts, repairs, and ends with strictly
    /// fewer forgetting alerts than the open-loop arm.
    #[test]
    #[ignore = "slow (two full policy A/Bs); run by the pilote-bench --ignored step of scripts/ci.sh"]
    fn policy_ab_is_deterministic_and_the_loop_closes() {
        let dir = std::env::temp_dir().join("pilote_policy_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let a = run(&tiny(), 9, &dir).expect("run a");
        let b = run(&tiny(), 9, &dir).expect("run b");
        assert_eq!(
            serde_json::to_string(&a).expect("json a"),
            serde_json::to_string(&b).expect("json b"),
            "same seed must produce identical policy JSON"
        );
        let off = &a["policy_off"];
        let on = &a["policy_on"];
        assert!(
            on["forgetting_alerts"].as_u64().expect("on alerts")
                < off["forgetting_alerts"].as_u64().expect("off alerts"),
            "the closed loop must end with strictly fewer forgetting alerts: {a:?}"
        );
        let summary = &on["policy"]["summary"];
        assert!(summary["halts"].as_u64().expect("halts") >= 1, "canary must halt: {summary:?}");
        assert!(
            summary["quarantines"].as_u64().expect("quarantines") >= 2,
            "both poisoned devices must be quarantined: {summary:?}"
        );
        assert_eq!(summary["degrades"], json!(1), "the repeat offender must degrade: {summary:?}");
        assert!(
            on["mean_final_old_class_accuracy"].as_f64().expect("on acc")
                > off["mean_final_old_class_accuracy"].as_f64().expect("off acc"),
            "self-healing must preserve fleet accuracy: {a:?}"
        );
    }
}

