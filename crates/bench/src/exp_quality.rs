//! **Quality** — model-quality observability on a fleet
//! (`BENCH_quality.json` + `trace_quality.json`; see `docs/QUALITY.md`).
//!
//! Two parts, one pre-training:
//!
//! 1. **A/B alert demo** — two standalone devices install the same
//!    two-class deployment and learn the same held-out activity from the
//!    same samples: one with PILOTE's distillation update, one with the
//!    Re-trained baseline (no distillation). Both carry an armed
//!    [`pilote_core::QualityMonitor`]; the Re-trained arm must trip the
//!    forgetting rule (an `AlertRaised` event in its log) while the
//!    PILOTE arm must not.
//! 2. **Fleet schedule** — a heterogeneous fleet serves sessions while
//!    three increments add one activity each (label → on-device update →
//!    federated round). Every generation bump is sampled by the armed
//!    monitors, producing per-device forgetting curves; afterwards each
//!    device ships its telemetry snapshot over its own link and the cloud
//!    merges them into a deterministic [`pilote_magneto::TelemetryRollup`].
//!
//! The span tree of the whole run is exported as a Chrome trace
//! (`trace_quality.json`, loadable in `chrome://tracing` / Perfetto):
//! timestamps are logical sequence numbers and durations carry modeled
//! flops — never host wall time — so both JSON files are byte-identical
//! for a fixed seed at any `PILOTE_THREADS` (diffed by `scripts/ci.sh`).

use crate::report::{write_json, ForcedTelemetry, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{corpus, pretrain_two_class, session_slice, BASE_ACTIVITIES, INCREMENTS};
use pilote_core::Method;
use pilote_edge_sim::{DeviceProfile, LinkModel};
use pilote_magneto::{Deployment, EdgeDevice, Fleet, FleetConfig};
use pilote_tensor::{Rng64, Tensor};
use serde_json::json;
use std::path::Path;

/// Devices in the quality fleet.
pub const FLEET_DEVICES: usize = 4;

/// Users routed into the fleet each serving phase.
const USERS: u64 = 6;

/// Feature windows per served session.
const WINDOWS_PER_SESSION: usize = 4;

/// Labelled samples per increment (also the update threshold, so the last
/// label triggers exactly one incremental update).
const LABELS_PER_INCREMENT: usize = 12;

/// JSON row for one quality report (the forgetting-curve sample).
fn report_row(r: &pilote_core::QualityReport) -> serde_json::Value {
    json!({
        "generation": r.generation,
        "probe_accuracy": r.probe_accuracy,
        "old_class_accuracy": r.old_class_accuracy,
        "forgetting": r.forgetting,
        "mean_margin": r.mean_margin,
        "alerts": r.alerts.iter().map(|a| a.rule.name()).collect::<Vec<_>>(),
    })
}

/// Runs both parts and writes `BENCH_quality.json` + `trace_quality.json`.
/// Returns the JSON document (used by the determinism test).
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<serde_json::Value, ReportError> {
    eprintln!(
        "[quality] A/B alert demo + {FLEET_DEVICES}-device fleet, {} increments",
        INCREMENTS.len()
    );
    let telemetry = ForcedTelemetry::start();

    // --- cloud: one corpus, one two-class pre-train, one package --------
    let (train, test, norm) = corpus(scale, seed);
    let mut model = pretrain_two_class(&train, scale, seed);
    let deployment = Deployment::from_model(&mut model, norm);
    let base_labels: Vec<usize> = BASE_ACTIVITIES.iter().map(|a| a.label()).collect();
    let probe = test.filter_classes(&base_labels).expect("probe classes");

    // --- part 1: A/B alert demo ----------------------------------------
    // Same deployment, same new-class samples, same seed — only the
    // update strategy differs.
    let budget = scale.exemplars_per_class;
    let first = INCREMENTS[0];
    let mut rng = Rng64::new(seed ^ 0xab_de);
    let ab_samples = train
        .filter_classes(&[first.label()])
        .expect("increment pool")
        .sample_class(first.label(), LABELS_PER_INCREMENT.max(budget), &mut rng)
        .expect("A/B batch");

    let arm = |retrain: bool| -> (f32, usize) {
        let mut device =
            EdgeDevice::install(DeviceProfile::flagship_phone(), &deployment, &LinkModel::wifi())
                .expect("install");
        device.arm_quality_monitor(probe.clone(), &base_labels).expect("arm");
        if retrain {
            Method::Retrained
                .update(device.model_mut(), &ab_samples, budget)
                .expect("retrained update");
            device.sample_quality().expect("sample");
        } else {
            for i in 0..ab_samples.features.rows() {
                device.label_sample(first.label(), Tensor::vector(ab_samples.features.row(i)));
            }
            device.update(budget).expect("pilote update");
        }
        let last = device.quality_reports().last().expect("post-update report");
        (last.forgetting, device.log().alert_count())
    };
    let (pilote_forgetting, pilote_alerts) = arm(false);
    let (retrained_forgetting, retrained_alerts) = arm(true);

    // --- part 2: fleet schedule with three increments -------------------
    let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
    let slots: Vec<(DeviceProfile, LinkModel)> = DeviceProfile::roster(FLEET_DEVICES)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let config = FleetConfig {
        seed: seed ^ 0x9a11,
        serve_chunk: 16,
        federated_every: 0, // rounds run explicitly after each increment
        update_threshold: LABELS_PER_INCREMENT,
        exemplar_budget: budget,
    ..FleetConfig::default()
    };
    let mut fleet = Fleet::deploy(slots, &deployment, config).expect("fleet deploy");
    fleet.arm_quality_monitors(&probe, &base_labels).expect("arm fleet");

    let mut session_cursor = 0usize;
    let mut rng = Rng64::new(seed ^ 0xf1e7_4a11);
    for (step, activity) in INCREMENTS.iter().enumerate() {
        // Serving phase: every user runs one session off the eval pool.
        for user in 0..USERS {
            let features = session_slice(&test, &mut session_cursor, WINDOWS_PER_SESSION);
            fleet.serve_session(user, &features).expect("serve session");
        }
        // One user teaches their device the increment activity; the last
        // label crosses the threshold and runs the on-device update.
        let labeller = step as u64;
        let samples = train
            .filter_classes(&[activity.label()])
            .expect("increment pool")
            .sample_class(activity.label(), LABELS_PER_INCREMENT, &mut rng)
            .expect("increment batch");
        for i in 0..samples.features.rows() {
            fleet
                .label_sample(labeller, activity.label(), Tensor::vector(samples.features.row(i)))
                .expect("label sample");
        }
        // The federated round spreads the new class to every device and
        // samples every armed monitor at the merged generation.
        fleet.federated_round().expect("federated round");
    }

    // --- rollup + report -------------------------------------------------
    let rollup = fleet.telemetry_rollup().expect("telemetry rollup");
    let curves: Vec<serde_json::Value> = (0..fleet.len())
        .map(|i| {
            json!({
                "device": fleet.device(i).profile().name.clone(),
                "alerts": fleet.device(i).log().alert_count(),
                "reports": fleet
                    .device(i)
                    .quality_reports()
                    .iter()
                    .map(report_row)
                    .collect::<Vec<_>>(),
            })
        })
        .collect();
    let fleet_alerts: usize = (0..fleet.len()).map(|i| fleet.device(i).log().alert_count()).sum();

    let mut t = Table::new(
        "Quality: forgetting curves across the 3-increment fleet schedule",
        &["device", "samples", "final forgetting", "final old-class acc", "alerts"],
    );
    for i in 0..fleet.len() {
        let reports = fleet.device(i).quality_reports();
        let last = reports.last().expect("armed devices always hold a baseline");
        t.row(vec![
            fleet.device(i).profile().name.clone(),
            reports.len().to_string(),
            format!("{:.4}", last.forgetting),
            format!("{:.4}", last.old_class_accuracy),
            fleet.device(i).log().alert_count().to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "A/B demo — PILOTE forgetting {pilote_forgetting:.4} ({pilote_alerts} alerts), \
         Re-trained forgetting {retrained_forgetting:.4} ({retrained_alerts} alerts)"
    );

    // --- chrome trace ----------------------------------------------------
    let trace = pilote_obs::export::chrome_trace(&pilote_obs::snapshot().spans);
    drop(telemetry);
    write_json(out, "trace_quality.json", &trace)?;

    let doc = json!({
        "seed": seed,
        "schedule": {
            "devices": FLEET_DEVICES,
            "base_activities": BASE_ACTIVITIES.iter().map(|a| a.label()).collect::<Vec<_>>(),
            "increments": INCREMENTS.iter().map(|a| a.label()).collect::<Vec<_>>(),
            "users": USERS,
            "windows_per_session": WINDOWS_PER_SESSION,
            "labels_per_increment": LABELS_PER_INCREMENT,
        },
        "determinism": "no host wall-clock fields: quality probes and telemetry uploads advance the flop-modeled virtual clock, trace timestamps are logical sequence numbers — byte-identical for a fixed seed at any PILOTE_THREADS",
        "ab_demo": {
            "pilote": { "forgetting": pilote_forgetting, "alerts": pilote_alerts },
            "retrained": { "forgetting": retrained_forgetting, "alerts": retrained_alerts },
            "probe_rows": probe.len(),
        },
        "fleet_alerts": fleet_alerts,
        "forgetting_curves": curves,
        "rollup": serde_json::to_value(&rollup),
    });
    write_json(out, "BENCH_quality.json", &doc)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced scale for the acceptance test. Slightly deeper than the
    /// other benches' tiny scales: the A/B demo needs enough distillation
    /// epochs for the PILOTE arm to actually protect old classes, or the
    /// two strategies are indistinguishable at test size.
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
    /// JSON, the Re-trained arm must alert while PILOTE does not, the
    /// rollup totals must cover the schedule, and the trace must hold a
    /// span for every lifecycle phase.
    #[test]
    #[ignore = "slow (two full quality schedules); run by the pilote-bench --ignored step of scripts/ci.sh"]
    fn quality_schedule_is_deterministic_and_alerts_discriminate() {
        let dir = std::env::temp_dir().join("pilote_quality_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let a = run(&tiny(), 5, &dir).expect("run a");
        let b = run(&tiny(), 5, &dir).expect("run b");
        assert_eq!(
            serde_json::to_string(&a).expect("json a"),
            serde_json::to_string(&b).expect("json b"),
            "same seed must produce identical quality JSON"
        );
        let ab = &a["ab_demo"];
        assert_eq!(
            ab["pilote"]["alerts"],
            json!(0),
            "PILOTE (distillation on) must not alert: {ab:?}"
        );
        assert!(
            ab["retrained"]["alerts"].as_u64().expect("count") >= 1,
            "Re-trained (no distillation) must raise an alert: {ab:?}"
        );
        // Rollup counters cover every device the schedule touched.
        assert_eq!(a["rollup"]["devices"], json!(FLEET_DEVICES));
        assert!(
            a["rollup"]["counters"]["edge.batch_served"].as_u64().expect("served") >= 1,
            "serving telemetry must reach the rollup"
        );
        // The exported trace holds ≥ 1 span per lifecycle phase.
        let trace: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(dir.join("trace_quality.json")).expect("trace file"),
        )
        .expect("trace parses");
        let events = trace["traceEvents"].as_array().expect("traceEvents");
        for phase in
            ["fleet.deploy", "fleet.session", "edge.update", "fleet.federated_round",
             "edge.quality_sample", "fleet.telemetry_rollup"]
        {
            assert!(
                events.iter().any(|e| e["name"] == json!(phase)),
                "trace must contain a {phase} span"
            );
        }
    }
}
