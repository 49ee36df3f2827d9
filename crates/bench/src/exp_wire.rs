//! **Wire** — accuracy-vs-bytes frontier of the binary wire codec
//! (`BENCH_wire.json`; see `docs/WIRE.md`).
//!
//! Pre-trains once, then replays the *same* fleet schedule under every
//! wire configuration in `f32/u16/i8 × full/delta`: deploy to a
//! heterogeneous fleet, have labelling users trigger on-device updates,
//! run two explicit federated rounds (so delta payloads exercise a
//! committed base), and upload one telemetry rollup. Every payload moves
//! through [`pilote_magneto::wire`], so the recorded byte totals are the
//! exact sizes the virtual links were charged with — not JSON-length
//! proxies.
//!
//! Alongside the codec configs the run records the **JSON-f32 baseline**:
//! the bytes the old `serde_json`-length accounting would have billed for
//! the same federated rounds. Three contracts are asserted and recorded:
//!
//! * `i8-delta` federated traffic is at least `MIN_SAVINGS`× smaller
//!   than the JSON-f32 baseline;
//! * `i8-delta` old-class accuracy is within `MAX_OLD_ACC_LOSS` of the
//!   lossless `f32-full` run;
//! * `i8-delta` moves fewer federated bytes than `f32-full`.
//!
//! No wall-clock fields: device time is flop-modeled, link time is
//! `LinkModel::transfer_seconds` over the binary payload sizes, so the
//! JSON is byte-identical across runs and `PILOTE_THREADS` settings
//! (`scripts/ci.sh` diffs two runs plus a `PILOTE_THREADS=4` run).

use crate::exp_faults::faulted_scenario;
use crate::report::{write_json, ForcedTelemetry, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{pretrain_base, session_slice};
use pilote_edge_sim::{DeviceProfile, LinkModel, WirePrecision};
use pilote_har_data::dataset::Dataset;
use pilote_magneto::{Deployment, Fleet, FleetConfig, WireConfig, WireTotals};
use pilote_nn::Checkpoint;
use pilote_tensor::{Rng64, Tensor};
use serde_json::json;
use std::path::Path;

/// Devices in the fleet (roster cycles flagship / budget / wearable;
/// links cycle wifi / 4G / weak cellular).
const WIRE_DEVICES: usize = 6;

/// Simulated users routed into the fleet.
const USERS: u64 = 8;

/// Feature windows per served session.
const WINDOWS_PER_SESSION: usize = 4;

/// Users who label the held-out activity before each federated round.
const LABELLING_USERS: u64 = 3;

/// Labelled samples per labelling user per batch (also the update
/// threshold, so the last label of a batch triggers exactly one
/// incremental update).
const LABELS_PER_USER: usize = 10;

/// Explicit federated rounds in the schedule. The second round runs
/// against the base committed by the first, so delta configs ship
/// genuine diffs, not just the initial full broadcast.
const FEDERATED_ROUNDS: usize = 2;

/// `i8-delta` must shrink federated traffic at least this much vs the
/// JSON-f32 baseline.
const MIN_SAVINGS: f64 = 4.0;

/// `i8-delta` may lose at most this much old-class accuracy vs the
/// lossless `f32-full` run.
const MAX_OLD_ACC_LOSS: f32 = 0.01;

/// One wire configuration's measurements.
struct ConfigRun {
    name: String,
    totals: WireTotals,
    committed_round: u64,
    old_accuracy: f32,
    new_accuracy: f32,
    clock_seconds_sum: f64,
    /// JSON-length accounting for the same federated rounds (the bytes
    /// the pre-codec implementation would have billed). Captured for
    /// every config, but the *baseline* is the `f32-full` run's value.
    json_federated_bytes: u64,
}

/// Runs the frontier sweep and writes `BENCH_wire.json`.
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<(), ReportError> {
    eprintln!(
        "[wire] {WIRE_DEVICES} devices, {USERS} users, {FEDERATED_ROUNDS} federated rounds per config, 6 wire configs"
    );
    let telemetry = ForcedTelemetry::start();

    // --- cloud: pre-train once, package once --------------------------
    let (scenario, norm, _sim) = faulted_scenario(scale, seed);
    // Every labeller labels a fresh batch before every round, so the
    // schedule reads this many distinct new-class rows.
    let labels_needed = FEDERATED_ROUNDS * LABELLING_USERS as usize * LABELS_PER_USER;
    let pool = scenario.new_pool.len();
    assert!(
        pool >= labels_needed,
        "wire schedule labels {labels_needed} new-class samples but the new-class pool holds {pool}; \
         raise --per-activity"
    );
    let mut base = pretrain_base(scenario, scale, seed);
    let deployment = Deployment::from_model(&mut base.model, norm);
    let old_test = base.scenario.old_test();
    let new_test = base.scenario.new_test();

    // One deterministic label stream shared by every config: enough
    // samples for every labeller to cross the update threshold once per
    // federated round.
    let new_label = base.scenario.new_activity.label();
    let mut rng = Rng64::new(seed ^ 0x31e7);
    let new_samples = base
        .scenario
        .new_pool
        .sample_class(new_label, labels_needed, &mut rng)
        .expect("new-class batch");

    // --- the sweep -----------------------------------------------------
    let configs = [
        WireConfig::full(WirePrecision::F32),
        WireConfig::delta(WirePrecision::F32),
        WireConfig::full(WirePrecision::U16),
        WireConfig::delta(WirePrecision::U16),
        WireConfig::full(WirePrecision::I8),
        WireConfig::delta(WirePrecision::I8),
    ];
    let json = JsonPricer::new(&deployment.checkpoint);
    let mut runs = Vec::with_capacity(configs.len());
    for cfg in configs {
        runs.push(run_config(
            cfg,
            &json,
            &base.scenario.test,
            &deployment,
            new_label,
            &new_samples,
            &old_test,
            &new_test,
            seed,
        ));
    }
    drop(telemetry);

    // --- contracts -----------------------------------------------------
    let f32_full = by_name(&runs, "f32-full");
    let i8_delta = by_name(&runs, "i8-delta");
    let json_baseline = f32_full.json_federated_bytes;
    let savings = json_baseline as f64 / i8_delta.totals.federated_bytes().max(1) as f64;
    let old_acc_loss = f32_full.old_accuracy - i8_delta.old_accuracy;

    // --- report --------------------------------------------------------
    let mut t = Table::new(
        "Wire: accuracy vs federated bytes (binary codec, exact link accounting)",
        &["config", "fed bytes", "deploy bytes", "telemetry", "old acc", "new acc", "clock sum (s)"],
    );
    for r in &runs {
        t.row(vec![
            r.name.clone(),
            r.totals.federated_bytes().to_string(),
            r.totals.deploy_bytes.to_string(),
            r.totals.telemetry_bytes.to_string(),
            format!("{:.4}", r.old_accuracy),
            format!("{:.4}", r.new_accuracy),
            format!("{:.4}", r.clock_seconds_sum),
        ]);
    }
    println!("{t}");
    println!(
        "json-f32 baseline (old accounting): {json_baseline} federated bytes; i8-delta saves {savings:.1}x at {old_acc_loss:+.4} old-class accuracy",
    );

    assert!(
        savings >= MIN_SAVINGS,
        "i8-delta must shrink federated bytes >= {MIN_SAVINGS}x vs json-f32 ({json_baseline} -> {} is {savings:.2}x)",
        i8_delta.totals.federated_bytes()
    );
    assert!(
        old_acc_loss <= MAX_OLD_ACC_LOSS,
        "i8-delta old-class accuracy lost {old_acc_loss:.4} vs f32-full (limit {MAX_OLD_ACC_LOSS})"
    );
    assert!(
        i8_delta.totals.federated_bytes() < f32_full.totals.federated_bytes(),
        "i8-delta must move fewer federated bytes than f32-full"
    );

    write_json(
        out,
        "BENCH_wire.json",
        &json!({
            "seed": seed,
            "schedule": {
                "devices": WIRE_DEVICES,
                "users": USERS,
                "windows_per_session": WINDOWS_PER_SESSION,
                "labelling_users": LABELLING_USERS,
                "labels_per_user": LABELS_PER_USER,
                "federated_rounds": FEDERATED_ROUNDS,
            },
            "determinism": "same pre-trained package replayed under each wire config; byte totals are the exact binary payload sizes charged to the virtual links — byte-identical for a fixed seed at any PILOTE_THREADS",
            "json_f32_baseline_federated_bytes": json_baseline,
            "contracts": {
                "min_savings_vs_json_f32": MIN_SAVINGS,
                "max_old_accuracy_loss": MAX_OLD_ACC_LOSS,
                "i8_delta_savings_vs_json_f32": savings,
                "i8_delta_old_accuracy_loss": old_acc_loss,
            },
            "frontier": runs.iter().map(|r| json!({
                "config": r.name,
                "wire_totals": r.totals,
                "federated_bytes": r.totals.federated_bytes(),
                "total_bytes": r.totals.total_bytes(),
                "json_federated_bytes": r.json_federated_bytes,
                "committed_round": r.committed_round,
                "old_accuracy": r.old_accuracy,
                "new_accuracy": r.new_accuracy,
                "clock_seconds_sum": r.clock_seconds_sum,
            })).collect::<Vec<_>>(),
        }),
    )?;
    Ok(())
}

fn by_name<'a>(runs: &'a [ConfigRun], name: &str) -> &'a ConfigRun {
    runs.iter().find(|r| r.name == name).expect("config in sweep")
}

/// Replays the fixed schedule under one wire config on a fresh fleet.
#[allow(clippy::too_many_arguments)]
fn run_config(
    wire: WireConfig,
    json: &JsonPricer,
    eval: &Dataset,
    deployment: &Deployment,
    new_label: usize,
    new_samples: &Dataset,
    old_test: &Dataset,
    new_test: &Dataset,
    seed: u64,
) -> ConfigRun {
    let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
    let slots: Vec<(DeviceProfile, LinkModel)> = DeviceProfile::roster(WIRE_DEVICES)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let config = FleetConfig {
        seed: seed ^ 0x31e3,
        serve_chunk: 16,
        federated_every: 0, // rounds fire explicitly below
        update_threshold: LABELS_PER_USER,
        wire,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::deploy(slots, deployment, config).expect("fleet deploy");

    // Identical schedule for every config: each federated round is
    // preceded by one serve pass and one labelling batch per labeller
    // (the batch crosses the update threshold, so round N merges fresh
    // on-device updates and round N+1 ships a genuine diff).
    let mut cursor = 0usize;
    let mut json_federated_bytes = 0u64;
    for round in 0..FEDERATED_ROUNDS {
        for user in 0..USERS {
            let features = session_slice(eval, &mut cursor, WINDOWS_PER_SESSION);
            fleet.serve_session(user, &features).expect("serve session");
        }
        for labeller in 0..LABELLING_USERS {
            let start =
                (round * LABELLING_USERS as usize + labeller as usize) * LABELS_PER_USER;
            for i in start..start + LABELS_PER_USER {
                fleet
                    .label_sample(labeller, new_label, Tensor::vector(new_samples.features.row(i)))
                    .expect("label sample");
            }
        }
        // What the pre-codec JSON-length accounting would have billed
        // for this round: each device uploads its checkpoint and
        // downloads the merge, both priced at serialised-JSON length.
        for i in 0..fleet.len() {
            let ckpt = Checkpoint::capture(fleet.device_mut(i).model_mut().net_mut().layers_mut());
            json_federated_bytes += json.len(&ckpt) * 2;
        }
        fleet.federated_round().expect("federated round");
    }
    fleet.telemetry_rollup().expect("telemetry rollup");

    let stats = fleet.stats();
    let n = fleet.len();
    let mut old_sum = 0.0f32;
    let mut new_sum = 0.0f32;
    for i in 0..n {
        old_sum += fleet.device_mut(i).model_mut().accuracy(old_test).expect("old eval");
        new_sum += fleet.device_mut(i).model_mut().accuracy(new_test).expect("new eval");
    }
    ConfigRun {
        name: wire.name(),
        totals: fleet.wire_totals(),
        committed_round: fleet.committed_round(),
        old_accuracy: old_sum / n as f32,
        new_accuracy: new_sum / n as f32,
        clock_seconds_sum: stats.devices.iter().map(|d| d.clock_seconds).sum(),
        json_federated_bytes,
    }
}

/// Prices a checkpoint at the length of its `Checkpoint::to_json()` text
/// (the pre-codec accounting) without building that 8 MB string. The
/// vendored serializer writes a finite f32 as its `{}` text, plus `.0`
/// when that text has no `.`, and a non-finite one as `null`. Every other
/// byte (keys, shapes, brackets, commas) depends only on the architecture,
/// so it is measured once, from an all-zero copy whose every value is
/// written `0.0`.
struct JsonPricer {
    shapes: Vec<Vec<usize>>,
    /// Bytes of the JSON text that are not parameter values.
    structural: u64,
}

impl JsonPricer {
    fn new(architecture: &Checkpoint) -> Self {
        let mut zeroed = architecture.clone();
        for p in &mut zeroed.params {
            p.as_mut_slice().fill(0.0);
        }
        let values = zeroed.param_count() as u64;
        let structural = zeroed.to_json().len() as u64 - 3 * values;
        JsonPricer { shapes: zeroed.shapes, structural }
    }

    /// `ckpt.to_json().len()`, for a checkpoint of the measured architecture.
    fn len(&self, ckpt: &Checkpoint) -> u64 {
        assert_eq!(ckpt.shapes, self.shapes, "priced a checkpoint of another architecture");
        let values: u64 =
            ckpt.params.iter().flat_map(|p| p.as_slice()).map(|&v| f32_json_len(v)).sum();
        self.structural + values
    }
}

/// Bytes the vendored serializer writes for one f32.
fn f32_json_len(v: f32) -> u64 {
    use std::fmt::Write;
    /// Counts the text of a `{}` without storing it.
    struct Count {
        len: u64,
        dot: bool,
    }
    impl Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.len += s.len() as u64;
            self.dot |= s.contains('.');
            Ok(())
        }
    }
    if !v.is_finite() {
        return "null".len() as u64;
    }
    let mut text = Count { len: 0, dot: false };
    write!(text, "{v}").expect("counting never fails");
    text.len + if text.dot { 0 } else { ".0".len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_core::{EmbeddingNet, NetConfig};
    use pilote_nn::persist::CHECKPOINT_VERSION;

    fn tiny(per_activity: usize) -> Scale {
        Scale {
            per_activity,
            rounds: 1,
            exemplars_per_class: 12,
            max_epochs: 2,
            pretrain_epochs: 2,
        }
    }

    /// 60 windows per activity leave 42 new-class training rows, fewer
    /// than the 60 the labelling schedule reads: the run must stop
    /// before pre-training, naming both counts, and hand the telemetry
    /// kill switch back as it found it.
    #[test]
    fn undersized_new_class_pool_fails_up_front() {
        let dir = std::env::temp_dir().join("pilote_wire_pool_test");
        let was_enabled = pilote_obs::enabled();
        pilote_obs::set_enabled(false);
        let outcome = std::panic::catch_unwind(|| run(&tiny(60), 7, &dir));
        let switch_after = pilote_obs::enabled();
        pilote_obs::set_enabled(was_enabled);
        let payload = outcome.expect_err("an undersized pool must panic");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            message.contains(
                "wire schedule labels 60 new-class samples but the new-class pool holds 42"
            ),
            "unexpected panic: {message}"
        );
        assert!(!switch_after, "a panicking runner must restore the kill switch");
    }

    /// The counted length equals `to_json().len()` on a captured network,
    /// priced from another network of the same architecture, and on values
    /// whose text takes every form: integral, signed zero, fractional,
    /// huge, subnormal, the largest finite, and non-finite.
    #[test]
    fn json_pricing_equals_the_serialised_length() {
        let mut net = EmbeddingNet::new(NetConfig::small(), &mut Rng64::new(1));
        let mut other = EmbeddingNet::new(NetConfig::small(), &mut Rng64::new(2));
        let captured = Checkpoint::capture(net.layers_mut());
        let pricer = JsonPricer::new(&Checkpoint::capture(other.layers_mut()));
        assert_eq!(pricer.len(&captured), captured.to_json().len() as u64);

        let odd = Tensor::vector(&[
            0.0,
            -0.0,
            1.0,
            0.1,
            1e30,
            f32::from_bits(1),
            f32::MAX,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ]);
        let odd =
            Checkpoint { version: CHECKPOINT_VERSION, shapes: vec![vec![10]], params: vec![odd] };
        assert_eq!(JsonPricer::new(&odd).len(&odd), odd.to_json().len() as u64);
    }

    /// Acceptance check: two runs at the same seed must produce the same
    /// JSON bytes (the run itself asserts the savings and accuracy
    /// contracts). 90 windows per activity leave 63 new-class training
    /// rows, enough for the 60-label schedule.
    #[test]
    #[ignore = "slow (six full fleet schedules, twice); run by the pilote-bench --ignored step of scripts/ci.sh"]
    fn wire_frontier_is_deterministic() {
        let dir = std::env::temp_dir().join("pilote_wire_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        run(&tiny(90), 7, &dir).expect("run a");
        let a = std::fs::read(dir.join("BENCH_wire.json")).expect("read a");
        run(&tiny(90), 7, &dir).expect("run b");
        let b = std::fs::read(dir.join("BENCH_wire.json")).expect("read b");
        assert_eq!(a, b, "same seed must produce byte-identical BENCH_wire.json");
    }
}
