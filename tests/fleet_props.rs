//! Property-based tests of the fleet serving subsystem (`docs/FLEET.md`):
//!
//! * **batched = per-window**: serving any feature batch through the
//!   prototype-cache path is bitwise identical to serving it one window at
//!   a time — labels equal, distances equal to the bit;
//! * **cache coherence**: after any interleaving of serves, incremental
//!   updates, rollbacks and federated installs, the cached classifier is
//!   never stale — serve outcomes always match an uncached classification
//!   of the live model, bitwise;
//! * **schedule determinism**: an identical fleet schedule produces
//!   identical stats and per-device event logs at any thread count;
//! * **ring-buffer conservation**: bounding the per-device event log never
//!   changes telemetry snapshots or derived counts vs. an unbounded log
//!   (evicted events fold into the running totals — `docs/SCALING.md`);
//! * **delta conservation**: windowed delta telemetry uploads summed at
//!   the cloud equal the whole-life full-snapshot rollup;
//! * **sharded serving**: [`pilote::magneto::Fleet::serve_sessions`] is
//!   bitwise identical to a per-device `serve_batch` walk at any thread
//!   count;
//! * **trace determinism**: bulk serving leaves the same span tree — names,
//!   sequence numbers, flops, attributes — as a `serve_session` loop, and
//!   `Fleet::deploy` the same `fleet.deploy` span, at 1 and 4 threads.
//!
//! The global [`ThreadConfig`], the telemetry switch and the span log are
//! process-wide, so every test here serialises on [`OBS_LOCK`].

use pilote::har_data::features::extract_batch;
use pilote::magneto::{Deployment, TelemetryRollup};
use pilote::prelude::*;
use pilote::tensor::parallel::{self, ThreadConfig};
use proptest::prelude::*;
use pilote::obs::SpanNode;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Held by every test in this binary: besides the thread config, the trace
/// tests compare the process-wide span log exactly, so no other test may
/// open spans while one runs (the `OBS_LOCK` pattern of
/// `tests/quality_props.rs`).
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pre-trained deployment shared by every case (pre-training per case
/// would dominate the suite's runtime).
struct Fixture {
    deployment: Deployment,
    /// Normalised Run features (the class devices can be asked to learn).
    run_features: Tensor,
    /// Normalised mixed-activity features for serving.
    eval_features: Tensor,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        let run_raw = sim.raw_dataset(&[(Activity::Run, 20)]);
        let run_features =
            norm.transform(&extract_batch(&run_raw).expect("features")).expect("normalise");
        let eval_raw = sim.raw_dataset(&[
            (Activity::Still, 8),
            (Activity::Walk, 8),
            (Activity::Run, 8),
        ]);
        let eval_features =
            norm.transform(&extract_batch(&eval_raw).expect("features")).expect("normalise");
        Fixture { deployment, run_features, eval_features }
    })
}

/// Installs a fresh device from the shared deployment.
fn device() -> EdgeDevice {
    EdgeDevice::install(DeviceProfile::budget_phone(), &fixture().deployment, &LinkModel::wifi())
        .expect("install")
}

/// Labels `n` Run samples on the device.
fn label_run_samples(dev: &mut EdgeDevice, n: usize) {
    let f = &fixture().run_features;
    for i in 0..n.min(f.rows()) {
        dev.label_sample(Activity::Run.label(), Tensor::vector(f.row(i)));
    }
}

/// Asserts that serving `features` through the device's prototype cache is
/// bitwise identical to an uncached classification of its live model.
fn assert_cache_coherent(dev: &mut EdgeDevice, features: &Tensor) {
    let served = dev.serve_batch(features).expect("serve");
    let uncached = dev.model_mut().classify_batch(features).expect("classify");
    assert_eq!(served.len(), uncached.len());
    for (i, (outcome, (label, distance))) in served.iter().zip(&uncached).enumerate() {
        assert_eq!(outcome.predicted, *label, "window {i}: cached label diverged");
        assert_eq!(
            outcome.distance.to_bits(),
            distance.to_bits(),
            "window {i}: cached distance diverged"
        );
    }
}

/// A fresh 4-device fleet over mixed links from the shared deployment,
/// with an explicit per-device event-log bound (`0` = unbounded).
fn fleet_bounded(federated_every: usize, event_capacity: usize) -> pilote::magneto::Fleet {
    let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
    let slots: Vec<(DeviceProfile, LinkModel)> = DeviceProfile::roster(4)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let config = FleetConfig {
        seed: 0xf1ee7,
        serve_chunk: 5,
        federated_every,
        update_threshold: 8,
        exemplar_budget: 15,
        event_capacity,
        ..FleetConfig::default()
    };
    Fleet::deploy(slots, &fixture().deployment, config).expect("deploy")
}

/// A fresh 4-device fleet with the default (never-evicting here) log bound.
fn fleet(federated_every: usize) -> pilote::magneto::Fleet {
    fleet_bounded(federated_every, pilote::magneto::events::DEFAULT_EVENT_CAPACITY)
}

/// Runs a small but complete fleet schedule — serves, labels that trigger
/// an update, and (per config) federated rounds — returning a canonical
/// trace: the stats JSON plus every device's event-log JSON.
fn run_schedule(federated_every: usize) -> String {
    let mut f = fleet(federated_every);
    let eval = &fixture().eval_features;
    for user in 0..6u64 {
        let start = (user as usize * 3) % (eval.rows() - 4);
        let session = eval.slice_rows(start, start + 4).expect("session");
        f.serve_session(user, &session).expect("serve");
    }
    let run = &fixture().run_features;
    for i in 0..8 {
        f.label_sample(2, Activity::Run.label(), Tensor::vector(run.row(i))).expect("label");
    }
    for user in 0..6u64 {
        let session = eval.slice_rows(0, 4).expect("session");
        f.serve_session(user, &session).expect("serve");
    }
    fleet_trace(&f)
}

/// Canonical trace of a fleet: the stats JSON plus every device's
/// event-log JSON, in device-index order.
fn fleet_trace(f: &pilote::magneto::Fleet) -> String {
    let stats = serde_json::to_string(&f.stats()).expect("stats json");
    let logs: Vec<String> = (0..f.len())
        .map(|i| serde_json::to_string(f.device(i).log()).expect("log json"))
        .collect();
    format!("{stats}\n{}", logs.join("\n"))
}

/// Serves a fixed mixed schedule — sessions, then labels that trigger one
/// incremental update, then more sessions — on `f`.
fn serve_mixed_schedule(f: &mut pilote::magneto::Fleet) {
    let eval = &fixture().eval_features;
    for user in 0..6u64 {
        let start = (user as usize * 3) % (eval.rows() - 4);
        let session = eval.slice_rows(start, start + 4).expect("session");
        f.serve_session(user, &session).expect("serve");
    }
    let run = &fixture().run_features;
    for i in 0..8 {
        f.label_sample(2, Activity::Run.label(), Tensor::vector(run.row(i))).expect("label");
    }
    for user in 0..4u64 {
        let session = eval.slice_rows(0, 4).expect("session");
        f.serve_session(user, &session).expect("serve");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Batched serving is bitwise identical to per-window serving for any
    /// sub-batch of the eval pool.
    #[test]
    fn batched_serving_equals_per_window(start in 0usize..20, len in 1usize..12) {
        let _guard = obs_lock();
        let eval = &fixture().eval_features;
        let start = start % (eval.rows() - 1);
        let end = (start + len).min(eval.rows());
        let batch = eval.slice_rows(start, end).expect("slice");
        let mut batched = device();
        let mut single = device();
        let all = batched.serve_batch(&batch).expect("serve batch");
        for (i, outcome) in all.iter().enumerate() {
            let row = batch.slice_rows(i, i + 1).expect("row");
            let one = single.serve_batch(&row).expect("serve row");
            prop_assert_eq!(one.len(), 1);
            prop_assert_eq!(one[0].predicted, outcome.predicted);
            prop_assert_eq!(one[0].distance.to_bits(), outcome.distance.to_bits());
        }
    }

    /// The prototype cache is never stale: any interleaving of serves,
    /// committed updates and rollbacks keeps serve outcomes bitwise equal
    /// to uncached classification of the live model.
    #[test]
    fn cache_stays_coherent_across_model_lifecycle(ops in prop::collection::vec(0u8..3, 1..6)) {
        let _guard = obs_lock();
        let mut dev = device();
        let eval = &fixture().eval_features;
        for op in ops {
            match op {
                // Serve (fills or reuses the cache).
                0 => { dev.serve_batch(eval).expect("serve"); }
                // Committed incremental update (bumps the generation).
                1 => {
                    if !dev.known_classes().contains(&Activity::Run.label()) {
                        label_run_samples(&mut dev, 10);
                        dev.update(15).expect("update");
                    }
                }
                // Failed update → exact rollback (also bumps the generation).
                _ => {
                    label_run_samples(&mut dev, 6);
                    dev.update_faulted(15, Some(pilote::core::UpdateStage::Trained))
                        .expect("faulted update");
                }
            }
            assert_cache_coherent(&mut dev, eval);
        }
    }

    /// Bounding the event log to any ring capacity changes **nothing**
    /// observable except the retained-event window: telemetry snapshots
    /// (whose counters read the running totals) and every derived count
    /// are identical to an unbounded log over the same schedule.
    #[test]
    fn bounded_event_logs_conserve_telemetry(capacity in 1usize..4) {
        let _guard = obs_lock();
        let mut bounded = fleet_bounded(0, capacity);
        let mut unbounded = fleet_bounded(0, 0);
        serve_mixed_schedule(&mut bounded);
        serve_mixed_schedule(&mut unbounded);
        prop_assert_eq!(
            serde_json::to_string(&bounded.stats()).expect("stats json"),
            serde_json::to_string(&unbounded.stats()).expect("stats json")
        );
        let mut evicted = 0u64;
        for i in 0..bounded.len() {
            let b = bounded.device(i).log();
            let u = unbounded.device(i).log();
            prop_assert!(b.events().len() <= capacity, "device {} over capacity", i);
            prop_assert_eq!(b.totals(), u.totals(), "device {} totals diverged", i);
            prop_assert_eq!(b.served_count(), u.served_count());
            prop_assert_eq!(b.inference_count(), u.inference_count());
            prop_assert_eq!(b.update_count(), u.update_count());
            prop_assert_eq!(
                serde_json::to_string(&bounded.device(i).telemetry_snapshot()).expect("snap"),
                serde_json::to_string(&unbounded.device(i).telemetry_snapshot()).expect("snap"),
                "device {} telemetry diverged", i
            );
            evicted += b.evicted();
        }
        // The schedule produces more events per routed device than any
        // capacity in range, so eviction genuinely happened.
        prop_assert!(evicted > 0, "schedule never overflowed a {}-slot ring", capacity);
    }
}

/// A federated install rewrites every device's parameters in place; the
/// per-device caches must all be invalidated by the generation bump.
#[test]
fn federated_install_invalidates_every_device_cache() {
    let _guard = obs_lock();
    let mut f = fleet(0);
    let eval = &fixture().eval_features;
    // Warm every cache.
    for i in 0..f.len() {
        f.device_mut(i).serve_batch(eval).expect("warm serve");
        assert_eq!(f.device(i).cache_rebuilds(), 1);
    }
    // Teach one device Run so the round actually changes parameters.
    label_run_samples(f.device_mut(0), 10);
    f.device_mut(0).update(15).expect("update");
    f.federated_round().expect("round");
    for i in 0..f.len() {
        let dev = f.device_mut(i);
        assert_cache_coherent(dev, eval);
        assert!(
            dev.cache_rebuilds() >= 2,
            "device {i}: federated install did not invalidate the cache"
        );
    }
}

/// The full fleet schedule — routing, chunked serving, updates, federated
/// rounds, virtual clocks — is bitwise identical at 1 and 4 threads.
#[test]
fn fleet_schedule_is_thread_invariant() {
    let _guard = obs_lock();
    let saved = parallel::current();
    parallel::configure(ThreadConfig::serial());
    let serial = run_schedule(4);
    parallel::configure(ThreadConfig { num_threads: 4, min_parallel_len: 0 });
    let threaded = run_schedule(4);
    parallel::configure(saved);
    assert_eq!(serial, threaded, "fleet schedule diverged between 1 and 4 threads");
}

/// Windowed delta uploads summed at the cloud equal the whole-life
/// full-snapshot rollup for the same schedule: counters and histograms are
/// conserved exactly (gauges are point-in-time and the delta fleet's
/// clocks carry extra upload charges, so they are not compared).
#[test]
fn delta_uploads_sum_to_full_snapshot_rollup() {
    let _guard = obs_lock();
    let mut delta_fleet = fleet(3);
    let mut full_fleet = fleet(3);
    let mut delta_rollup = TelemetryRollup::new();
    let eval = &fixture().eval_features;
    for window in 0..3 {
        for user in 0..4u64 {
            let start = ((window * 4 + user as usize) * 3) % (eval.rows() - 4);
            let session = eval.slice_rows(start, start + 4).expect("session");
            delta_fleet.serve_session(user, &session).expect("serve");
            full_fleet.serve_session(user, &session).expect("serve");
        }
        delta_fleet.upload_telemetry_deltas(&mut delta_rollup).expect("delta upload");
    }
    let full_rollup = full_fleet.telemetry_rollup().expect("rollup");
    if !pilote::obs::enabled() {
        assert!(delta_rollup.counters.is_empty(), "kill switch ships empty deltas");
        return;
    }
    assert_eq!(delta_rollup.counters, full_rollup.counters, "delta sums lost counter increments");
    assert_eq!(delta_rollup.histograms, full_rollup.histograms, "delta sums lost histogram buckets");
}

/// Ten 4-window sessions, one per user, over the eval pool.
fn ten_sessions() -> Vec<(u64, Tensor)> {
    let eval = &fixture().eval_features;
    (0..10u64)
        .map(|user| {
            let start = (user as usize * 3) % (eval.rows() - 4);
            (user, eval.slice_rows(start, start + 4).expect("session"))
        })
        .collect()
}

/// Bulk sharded serving ([`pilote::magneto::Fleet::serve_sessions`]) is
/// bitwise identical — outcomes, stats, per-device event logs, federated
/// schedule — to a reference walk that serves each session with one
/// `serve_batch` on its routed device, at 1 and 4 threads.
#[test]
fn bulk_serving_matches_serial_walk_at_any_thread_count() {
    let _guard = obs_lock();
    let saved = parallel::current();
    let sessions = ten_sessions();
    parallel::configure(ThreadConfig::serial());
    let mut reference = fleet(3);
    let mut expected = Vec::new();
    for (n, (user, session)) in sessions.iter().enumerate() {
        // 4-window sessions fit one 5-window serve chunk.
        let index = reference.route(*user);
        expected.extend(reference.device_mut(index).serve_batch(session).expect("serve"));
        if (n + 1) % 3 == 0 {
            reference.federated_round().expect("round");
        }
    }
    let mut reference_stats = reference.stats();
    reference_stats.sessions = sessions.len() as u64;
    reference_stats.windows = expected.len() as u64;
    for threads in [1usize, 4] {
        parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
        let mut f = fleet(3);
        let outcomes: Vec<_> =
            f.serve_sessions(&sessions).expect("bulk serve").into_iter().flatten().collect();
        assert_eq!(outcomes.len(), expected.len());
        for (i, (a, b)) in outcomes.iter().zip(&expected).enumerate() {
            assert_eq!(a.predicted, b.predicted, "window {i} at {threads} threads");
            assert_eq!(
                a.distance.to_bits(),
                b.distance.to_bits(),
                "window {i} at {threads} threads"
            );
        }
        assert_eq!(f.stats(), reference_stats, "stats at {threads} threads");
        for i in 0..f.len() {
            assert_eq!(
                serde_json::to_string(f.device(i).log()).expect("log json"),
                serde_json::to_string(reference.device(i).log()).expect("log json"),
                "device {i} log at {threads} threads"
            );
        }
    }
    parallel::configure(saved);
}

/// The span forest `f` leaves in the process-wide span log, starting from
/// a reset log and logical clock. Callers hold [`OBS_LOCK`] with telemetry
/// enabled.
fn traced(f: impl FnOnce()) -> Vec<SpanNode> {
    pilote::obs::reset();
    f();
    pilote::obs::span::finished()
}

/// Bulk serving leaves exactly the trace of a `serve_session` loop over
/// the same sessions — one `fleet.session` span per session in input
/// order, with its `edge.serve_batch` children, the scheduled
/// `fleet.federated_round`s between them, and identical sequence numbers,
/// flops and attributes — at 1 and 4 threads.
#[test]
fn bulk_serving_trace_matches_a_serve_session_loop_at_any_thread_count() {
    let _guard = obs_lock();
    let saved = (parallel::current(), pilote::obs::enabled());
    pilote::obs::set_enabled(true);
    let sessions = ten_sessions();
    parallel::configure(ThreadConfig::serial());
    let mut reference = fleet(3);
    let expected = traced(|| {
        for (user, session) in &sessions {
            reference.serve_session(*user, session).expect("serve");
        }
    });
    let session_spans = expected.iter().filter(|s| s.name == "fleet.session").count();
    assert_eq!(session_spans, sessions.len());
    for threads in [1usize, 4] {
        parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
        let mut f = fleet(3);
        let trace = traced(|| {
            f.serve_sessions(&sessions).expect("bulk serve");
        });
        assert_eq!(trace, expected, "bulk serving trace diverged at {threads} threads");
    }
    parallel::configure(saved.0);
    pilote::obs::set_enabled(saved.1);
}

/// `Fleet::deploy` fans installs out across bands yet leaves identical
/// device logs and an identical `fleet.deploy` span — flops included — at
/// 1 and 4 threads.
#[test]
fn deploy_trace_and_device_logs_are_thread_invariant() {
    let _guard = obs_lock();
    let saved = (parallel::current(), pilote::obs::enabled());
    pilote::obs::set_enabled(true);
    fixture();
    let runs: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            let mut deployed = None;
            let trace = traced(|| deployed = Some(fleet(0)));
            let f = deployed.expect("deployed");
            let logs: Vec<String> = (0..f.len())
                .map(|i| serde_json::to_string(f.device(i).log()).expect("log json"))
                .collect();
            (trace, logs)
        })
        .collect();
    parallel::configure(saved.0);
    pilote::obs::set_enabled(saved.1);
    let (trace, _) = &runs[0];
    assert_eq!(trace.len(), 1, "one root span: {trace:?}");
    assert_eq!(trace[0].name, "fleet.deploy");
    assert!(trace[0].flops > 0, "installs refresh prototypes through kernels");
    assert_eq!(runs[0], runs[1], "deploy diverged between 1 and 4 threads");
}
