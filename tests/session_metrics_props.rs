//! Property and integration tests for the session-level continual-learning
//! metrics layer (`docs/METRICS.md`):
//!
//! * **fold correctness**: for arbitrary matrices, every derived metric in
//!   [`SessionSummary`] equals an explicit reference recomputation from the
//!   raw `R[i][j]` cells — average-accuracy curve, forgetting curve, BWT
//!   and FWT, sentinel skipping included;
//! * **recorder integration**: a quality-monitored [`EdgeDevice`] stamps a
//!   matrix whose diagonal matches the accuracy recomputed from the
//!   device's own probe predictions;
//! * **rollup merge**: [`ScenarioRollup`] fleet curves equal the
//!   hand-computed position-wise mean / nearest-rank percentile over the
//!   per-device curves;
//! * **wire round-trip**: the `PWM1` codec reconstructs a recorded matrix
//!   bit-for-bit;
//! * **thread invariance**: the whole record path — train, probe, stamp —
//!   serialises byte-identically at 1 and 4 threads ([`ThreadConfig`] is
//!   process-wide, so those tests serialise on [`CONFIG_LOCK`], same
//!   pattern as `tests/parallel_props.rs`).

use pilote::magneto::wire;
use pilote::magneto::Deployment;
use pilote::prelude::*;
use pilote::tensor::parallel::{self, ThreadConfig};
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Guards no data: each test that compares thread counts sets every count
/// it runs at after taking it, so a test that failed while holding it
/// leaves nothing for the next one to distrust, and the next one takes it
/// over instead of failing on the poison.
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// Decodes a generated cell: values above 1.0 become the `-1.0`
/// unmeasured sentinel (the vendored proptest stand-in has no
/// `prop_oneof`, so specials are encoded in-band).
fn decode_cell(v: f32) -> f32 {
    if v > 1.0 {
        -1.0
    } else {
        v
    }
}

/// Builds a matrix from generated parts: `cells` is row-major with one
/// value per (session, task); `learned_at[j]` is the session at which task
/// `j` becomes known (values past the last row mean "never").
fn build_matrix(sessions: usize, cells: &[f32], learned_at: &[usize]) -> AccuracyMatrix {
    let tasks: Vec<TaskGroup> = learned_at
        .iter()
        .enumerate()
        .map(|(j, _)| TaskGroup::new(format!("task{j}"), &[j]))
        .collect();
    let width = tasks.len();
    let mut m = AccuracyMatrix::new(tasks);
    for i in 0..sessions {
        let accuracies: Vec<f32> =
            (0..width).map(|j| decode_cell(cells[i * width + j])).collect();
        let known: Vec<bool> = learned_at.iter().map(|&at| i >= at).collect();
        m.record(i as u64 + 1, accuracies, known);
    }
    m
}

/// Reference `learned(j)`: first row with the known flag set.
fn ref_learned(m: &AccuracyMatrix, j: usize) -> Option<usize> {
    (0..m.sessions()).find(|&i| m.rows()[i].known[j])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Every metric in `summary()` equals an explicit reference fold over
    /// the raw matrix cells.
    #[test]
    fn summary_matches_reference_recomputation(
        sessions in 1usize..6,
        width in 1usize..4,
        raw_cells in prop::collection::vec(0.0f32..1.3, 24..25),
        raw_learned in prop::collection::vec(0usize..8, 4..5),
    ) {
        let cells = &raw_cells[..sessions * width];
        let learned_at = &raw_learned[..width];
        let m = build_matrix(sessions, cells, learned_at);
        let s = m.summary();
        let last = sessions - 1;

        // Average-accuracy curve: mean over known, measured tasks per row.
        for i in 0..sessions {
            let vals: Vec<f64> = (0..width)
                .filter(|&j| m.rows()[i].known[j] && m.at(i, j) >= 0.0)
                .map(|j| f64::from(m.at(i, j)))
                .collect();
            let expected = if vals.is_empty() {
                -1.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            };
            prop_assert!((s.average_accuracy_curve[i] - expected).abs() < 1e-12);
        }
        prop_assert_eq!(s.average_accuracy, *s.average_accuracy_curve.last().unwrap());

        // Forgetting curve: drop from each previously-learned task's own
        // best, skipping sentinel cells on either side of the subtraction.
        for i in 0..sessions {
            let mut drops = Vec::new();
            for j in 0..width {
                let Some(learned) = ref_learned(&m, j) else { continue };
                if learned >= i || m.at(i, j) < 0.0 {
                    continue;
                }
                let best = (learned..i)
                    .map(|k| m.at(k, j))
                    .filter(|&a| a >= 0.0)
                    .fold(f32::NEG_INFINITY, f32::max);
                if best.is_finite() {
                    drops.push(f64::from(best) - f64::from(m.at(i, j)));
                }
            }
            let expected = if drops.is_empty() {
                0.0
            } else {
                drops.iter().sum::<f64>() / drops.len() as f64
            };
            prop_assert!((s.forgetting_curve[i] - expected).abs() < 1e-12);
        }
        prop_assert_eq!(s.final_forgetting, *s.forgetting_curve.last().unwrap());

        // BWT: final minus own-session accuracy over tasks learned before
        // the final session.
        let mut bwt = Vec::new();
        for j in 0..width {
            if let Some(learned) = ref_learned(&m, j) {
                if learned < last && m.at(learned, j) >= 0.0 && m.at(last, j) >= 0.0 {
                    bwt.push(f64::from(m.at(last, j)) - f64::from(m.at(learned, j)));
                }
            }
        }
        match s.backward_transfer {
            None => prop_assert!(bwt.is_empty()),
            Some(v) => {
                prop_assert!(!bwt.is_empty());
                prop_assert!((v - bwt.iter().sum::<f64>() / bwt.len() as f64).abs() < 1e-12);
            }
        }

        // FWT: pre-learning accuracy of tasks learned after session 0.
        let mut fwt = Vec::new();
        for j in 0..width {
            if let Some(learned) = ref_learned(&m, j) {
                if learned > 0 && m.at(learned - 1, j) >= 0.0 {
                    fwt.push(f64::from(m.at(learned - 1, j)));
                }
            }
        }
        match s.forward_transfer {
            None => prop_assert!(fwt.is_empty()),
            Some(v) => {
                prop_assert!(!fwt.is_empty());
                prop_assert!((v - fwt.iter().sum::<f64>() / fwt.len() as f64).abs() < 1e-12);
            }
        }
    }

    /// Fleet rollup curves are exactly the position-wise mean and
    /// nearest-rank percentile of the per-device curves.
    #[test]
    fn rollup_curves_merge_per_device_curves(
        device_sessions in prop::collection::vec(1usize..6, 1..5),
        raw_cells in prop::collection::vec(0.0f32..1.3, 30..31),
        p in 0.0f64..100.0,
    ) {
        let mut rollup = ScenarioRollup::new();
        let mut summaries = Vec::new();
        for (d, &sessions) in device_sessions.iter().enumerate() {
            // Two tasks: one known from session 0, one learned at row 1.
            let offset = (d * 7) % 18;
            let m = build_matrix(sessions, &raw_cells[offset..offset + sessions * 2], &[0, 1]);
            rollup.merge_matrix(&m);
            summaries.push(m.summary());
        }
        prop_assert_eq!(rollup.devices(), summaries.len());
        prop_assert_eq!(&rollup.per_device, &summaries);

        let longest = summaries.iter().map(|s| s.forgetting_curve.len()).max().unwrap();
        let mean = rollup.mean_forgetting_curve();
        let pct = rollup.percentile_forgetting_curve(p);
        prop_assert_eq!(mean.len(), longest);
        prop_assert_eq!(pct.len(), longest);
        for i in 0..longest {
            let mut at_i: Vec<f64> = summaries
                .iter()
                .filter_map(|s| s.forgetting_curve.get(i).copied())
                .collect();
            let expected_mean = at_i.iter().sum::<f64>() / at_i.len() as f64;
            prop_assert!((mean[i] - expected_mean).abs() < 1e-12);

            at_i.sort_unstable_by(f64::total_cmp);
            let rank = ((p / 100.0) * at_i.len() as f64).ceil() as usize;
            prop_assert_eq!(pct[i], at_i[rank.clamp(1, at_i.len()) - 1]);
        }
    }

    /// `PWM1` reconstructs any recorded matrix bit-for-bit, and the byte
    /// budget charged to the link model is the encoded length.
    #[test]
    fn wire_codec_round_trips_generated_matrices(
        sessions in 1usize..5,
        width in 1usize..4,
        raw_cells in prop::collection::vec(0.0f32..1.3, 20..21),
        raw_learned in prop::collection::vec(0usize..6, 4..5),
    ) {
        let m = build_matrix(sessions, &raw_cells[..sessions * width], &raw_learned[..width]);
        let bytes = wire::encode_session_matrix(&m);
        prop_assert_eq!(wire::session_matrix_wire_bytes(&m), bytes.len() as u64);
        let back = wire::decode_session_matrix(&bytes).expect("round trip");
        prop_assert_eq!(&back, &m);
    }
}

/// A two-class deployment plus a three-class probe (Run held out as the
/// increment), small enough for the integration tests below.
fn scenario_fixture() -> (Deployment, Dataset, Dataset) {
    let mut sim = Simulator::with_seed(4711);
    let (corpus, norm) = generate_features(
        &mut sim,
        &[(Activity::Still, 40), (Activity::Walk, 40), (Activity::Run, 40)],
    )
    .expect("simulate");
    let mut rng = Rng64::new(1);
    let (train, test) = corpus.stratified_split(0.3, &mut rng).expect("split");
    let base = [Activity::Still.label(), Activity::Walk.label()];
    let server = CloudServer::new(
        train.filter_classes(&base).expect("base"),
        norm,
        PiloteConfig::fast_test(4711),
    );
    let (deployment, _) = server.pretrain_and_package(&base, 10).expect("package");
    let new = train.filter_classes(&[Activity::Run.label()]).expect("run pool");
    (deployment, test, new)
}

/// Runs the class-incremental schedule on one device and returns it with
/// its matrix stamped: baseline row, then one row for the Run update.
fn run_schedule(deployment: &Deployment, probe: &Dataset, new: &Dataset) -> EdgeDevice {
    let base = [Activity::Still.label(), Activity::Walk.label()];
    let tasks = vec![
        TaskGroup::new("base", &base),
        TaskGroup::new("run", &[Activity::Run.label()]),
    ];
    let mut device =
        EdgeDevice::install(DeviceProfile::flagship_phone(), deployment, &LinkModel::wifi())
            .expect("install");
    device.arm_quality_monitor_with_sessions(probe.clone(), &base, tasks).expect("arm");
    for i in 0..new.features.rows() {
        device.label_sample(Activity::Run.label(), Tensor::vector(new.features.row(i)));
    }
    device.update(10).expect("update");
    device
}

/// The stamped diagonal equals the accuracy recomputed from the device's
/// own probe predictions, and the known flags follow the schedule.
#[test]
fn device_matrix_diagonal_matches_recomputed_probe_accuracy() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (deployment, probe, new) = scenario_fixture();
    let mut device = run_schedule(&deployment, &probe, &new);

    let matrix = device.session_matrix().expect("recording armed").clone();
    assert_eq!(matrix.sessions(), 2, "baseline row + one update row");
    assert_eq!(matrix.rows()[0].known, vec![true, false], "Run unknown at baseline");
    assert_eq!(matrix.rows()[1].known, vec![true, true]);
    assert_eq!(matrix.learned_session(1), Some(1));

    // Recompute the Run column of the final row from live predictions:
    // the model has not changed since the stamp, so they must agree
    // exactly.
    let predicted = device.classify_features(&probe.features).expect("classify");
    let run = Activity::Run.label();
    let (mut correct, mut total) = (0usize, 0usize);
    for (row, &label) in probe.labels.iter().enumerate() {
        if label == run {
            total += 1;
            if predicted[row] == run {
                correct += 1;
            }
        }
    }
    assert!(total > 0, "probe must hold Run rows");
    let expected = correct as f32 / total as f32;
    assert_eq!(matrix.at(1, 1), expected, "diagonal cell = recomputed probe accuracy");
    assert_eq!(matrix.own_task_accuracy(1), Some(expected));

    // Baseline row: an NCM classifier never predicts an unknown label,
    // so pre-learning Run accuracy is exactly zero (the FWT baseline).
    assert_eq!(matrix.at(0, 1), 0.0);
}

/// The full record path — train, probe, stamp, serialise — is
/// byte-identical at 1 and 4 threads.
#[test]
fn session_matrices_are_thread_invariant() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (deployment, probe, new) = scenario_fixture();
    let saved = parallel::current();

    let run_at = |threads: ThreadConfig| -> String {
        parallel::configure(threads);
        let device = run_schedule(&deployment, &probe, &new);
        let matrix = device.session_matrix().expect("recording armed");
        let mut rollup = ScenarioRollup::new();
        rollup.merge_matrix(matrix);
        serde_json::to_string(&(matrix, &rollup.per_device, rollup.mean_forgetting_curve()))
            .expect("serialise")
    };

    let serial = run_at(ThreadConfig::serial());
    let parallel4 = run_at(ThreadConfig { num_threads: 4, min_parallel_len: 0 });
    assert_eq!(serial, parallel4, "matrix JSON diverged between 1 and 4 threads");

    parallel::configure(saved);
}

/// The wire codec rejects a corrupted known flag with a typed error, and
/// an undersized payload never panics.
#[test]
fn wire_codec_rejects_corruption_with_typed_errors() {
    let m = build_matrix(2, &[0.5, 0.25, 0.75, 1.0], &[0, 1]);
    let mut bytes = wire::encode_session_matrix(&m);

    // Each row tails with (flag, f32) per task; flip the final flag byte.
    let flag_at = bytes.len() - 5;
    bytes[flag_at] = 9;
    assert!(wire::decode_session_matrix(&bytes).is_err(), "bad flag must be typed");

    let bytes = wire::encode_session_matrix(&m);
    for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(wire::decode_session_matrix(&bytes[..cut]).is_err());
    }
}
