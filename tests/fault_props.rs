//! Property-based tests of the fault-injection subsystem and the
//! resilience contract of `docs/RESILIENCE.md`:
//!
//! * one seed → one fault schedule, bit-for-bit, per fault family;
//! * quarantine counts match the injected non-finite corruption exactly;
//! * an interrupted incremental update rolls back to the last-good
//!   checkpoint **exactly** (identical predictions, identical support);
//! * no schedule — however hostile — panics the device or leaves a
//!   non-finite weight or prototype behind;
//! * the faulted pipeline stays bitwise thread-invariant (the PR 1
//!   determinism contract extends to fault runs).
//!
//! The fixed-seed matrix test at the bottom is what `scripts/ci.sh` runs
//! under several `PILOTE_FAULT_SEED` values.

use pilote::core::UpdateStage;
use pilote::edge_sim::faults::{
    CrashPlan, FlakyLink, LinkFaultRates, SensorFaultInjector, SensorFaultKind, SensorFaultRates,
};
use pilote::har_data::features::extract_batch;
use pilote::har_data::sensors::WINDOW_LEN;
use pilote::har_data::stream::WindowAssembler;
use pilote::magneto::Deployment;
use pilote::prelude::*;
use pilote::tensor::parallel::{self, ThreadConfig};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// The global [`ThreadConfig`] is process-wide; thread-variance tests
/// serialise on this, same as `tests/parallel_props.rs`.
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// One pre-trained deployment shared by every expensive property case
/// (pre-training per case would dominate the suite's runtime).
struct Fixture {
    deployment: Deployment,
    /// Normalised Run features the device can be asked to learn.
    run_features: Tensor,
    /// Normalised mixed-activity features for prediction comparisons.
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

/// Labels `n` Run samples (chosen by `rng`) on the device.
fn label_run_samples(dev: &mut EdgeDevice, n: usize, rng: &mut Rng64) {
    let f = &fixture().run_features;
    let picks = rng.sample_indices(f.rows(), n.min(f.rows()));
    for i in picks {
        dev.label_sample(Activity::Run.label(), Tensor::vector(f.row(i)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// One seed → one sensor-fault schedule: corrupted bytes and fault
    /// counts are identical across independent injectors.
    #[test]
    fn sensor_schedule_is_seed_deterministic(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
        windows in 1usize..8,
    ) {
        let mut sim = Simulator::with_seed(seed ^ 0xfeed);
        let originals: Vec<Tensor> =
            (0..windows).map(|_| sim.window(Activity::Walk)).collect();
        let mut a = SensorFaultInjector::new(seed, SensorFaultRates::uniform(rate));
        let mut b = SensorFaultInjector::new(seed, SensorFaultRates::uniform(rate));
        for w in &originals {
            let (mut wa, mut wb) = (w.clone(), w.clone());
            let ka = a.corrupt_window(&mut wa);
            let kb = b.corrupt_window(&mut wb);
            prop_assert_eq!(ka, kb);
            // NaN != NaN, so compare the raw bit patterns.
            let bits = |t: &Tensor| -> Vec<u32> {
                t.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&wa), bits(&wb));
        }
        prop_assert_eq!(a.counts(), b.counts());
    }

    /// The assembler quarantines exactly the windows that received a
    /// non-finite spike; finite corruption (dropout/stuck/saturation)
    /// passes through and still yields finite features.
    #[test]
    fn quarantine_count_matches_injected_spikes(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
    ) {
        let mut sim = Simulator::with_seed(seed ^ 0xbeef);
        let mut injector = SensorFaultInjector::new(seed, SensorFaultRates::uniform(rate));
        let mut assembler = WindowAssembler::new(WINDOW_LEN, WINDOW_LEN, 1);
        let mut spiked = 0u64;
        let total = 10usize;
        for _ in 0..total {
            let mut w = sim.window(Activity::Run);
            let kinds = injector.corrupt_window(&mut w);
            if kinds.contains(&SensorFaultKind::Spike) {
                spiked += 1;
            }
            for f in assembler.push_block(&w).expect("push") {
                prop_assert!(f.all_finite());
            }
        }
        prop_assert_eq!(assembler.quarantined(), spiked);
        prop_assert_eq!(assembler.emitted(), total as u64 - spiked);
    }

    /// Saturation clamping can never mask a spike, even when both fire on
    /// the same window: the saturation rail is computed with a
    /// NaN-skipping `f32::max` fold, so a NaN spike survives `clamp`
    /// unchanged and an Inf spike yields an Inf rail (a clamp no-op).
    /// Every spiked window therefore keeps at least one non-finite value
    /// for the quarantine check to catch.
    #[test]
    fn saturation_cannot_mask_spikes(seed in 0u64..10_000) {
        let mut rng = Rng64::new(seed.wrapping_mul(77));
        let mut w = Tensor::randn([30, 4], 0.0, 1.0, &mut rng);
        let mut injector = SensorFaultInjector::new(
            seed,
            SensorFaultRates { dropout: 0.0, stuck: 0.0, spike: 1.0, saturation: 1.0 },
        );
        let kinds = injector.corrupt_window(&mut w);
        prop_assert!(kinds.contains(&SensorFaultKind::Spike), "spike rate 1.0 must spike");
        prop_assert!(kinds.contains(&SensorFaultKind::Saturation), "saturation rate 1.0 must clamp");
        prop_assert!(
            w.as_slice().iter().any(|v| !v.is_finite()),
            "saturation clamp erased the spike's non-finite marker"
        );
    }

    /// One seed → one link-fault schedule, including per-attempt costs.
    #[test]
    fn link_schedule_is_seed_deterministic(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
    ) {
        let mut a = FlakyLink::new(LinkModel::weak_cellular(), seed, LinkFaultRates::uniform(rate));
        let mut b = FlakyLink::new(LinkModel::weak_cellular(), seed, LinkFaultRates::uniform(rate));
        for _ in 0..20 {
            let (cost_a, res_a) = a.attempt(50_000);
            let (cost_b, res_b) = b.attempt(50_000);
            prop_assert_eq!(cost_a.to_bits(), cost_b.to_bits());
            prop_assert_eq!(format!("{res_a:?}"), format!("{res_b:?}"));
        }
        prop_assert_eq!(a.faults(), b.faults());
    }
}

proptest! {
    // Each case runs a full (fast_test-sized) incremental update; keep the
    // case count low.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A kill at either stage restores predictions, support set, and
    /// failure accounting exactly; pending samples survive for the retry.
    #[test]
    fn interrupted_update_rolls_back_exactly(
        seed in 0u64..10_000,
        kill_idx in 0usize..UpdateStage::ALL.len(),
    ) {
        let mut dev = device();
        let eval = &fixture().eval_features;
        let before = dev.classify_features(eval).expect("eval before");
        let support_before = fixture().deployment.support.len();
        let mut rng = Rng64::new(seed);
        label_run_samples(&mut dev, 12, &mut rng);
        let pending = dev.pending_samples();
        let status = dev
            .update_faulted(10, Some(UpdateStage::ALL[kill_idx]))
            .expect("faulted update");
        prop_assert_eq!(status, pilote::magneto::UpdateStatus::RolledBack);
        prop_assert_eq!(dev.classify_features(eval).expect("eval after"), before);
        prop_assert_eq!(dev.model_mut().support().len(), support_before);
        prop_assert_eq!(dev.pending_samples(), pending);
        prop_assert_eq!(dev.update_failures(), 1);
        prop_assert!(!dev.is_degraded());
    }

    /// Hostile schedules (high fault rates on every family at once) never
    /// panic the device and never leave non-finite state behind.
    #[test]
    fn device_survives_hostile_schedules(
        seed in 0u64..10_000,
        rate in 0.5f64..1.0,
    ) {
        let mut dev = device();
        let mut sim = Simulator::with_seed(seed ^ 0xace);
        let mut injector = SensorFaultInjector::new(seed, SensorFaultRates::uniform(rate));
        let mut plan = CrashPlan::new(seed, rate);
        for _ in 0..3 {
            let mut session = sim.session(Activity::Still, 4);
            injector.corrupt_window(&mut session);
            let outcomes = dev.stream(&session).expect("stream");
            prop_assert!(outcomes.len() <= 4);
            let mut rng = Rng64::new(seed ^ 0x7e57);
            label_run_samples(&mut dev, 10, &mut rng);
            let kill = plan.next_kill(UpdateStage::ALL.len()).map(|i| UpdateStage::ALL[i]);
            dev.update_faulted(8, kill).expect("update never panics");
            if dev.is_degraded() {
                break;
            }
        }
        prop_assert!(pilote::nn::params_finite(dev.model_mut().net_mut().layers_mut()));
        let acc = dev.accuracy(&Dataset::new(
            fixture().eval_features.clone(),
            vec![Activity::Still.label(); fixture().eval_features.rows()],
        ).expect("dataset")).expect("accuracy");
        prop_assert!((0.0..=1.0).contains(&acc));
    }
}

/// The faulted inference pipeline is bitwise thread-invariant: same seed,
/// same corrupted stream, identical predictions and distances at any
/// thread count.
#[test]
fn faulted_pipeline_is_thread_invariant() {
    let _guard = CONFIG_LOCK.lock().unwrap();
    let saved = parallel::current();
    let run_once = |seed: u64| -> Vec<(usize, u32)> {
        let mut dev = device();
        let mut sim = Simulator::with_seed(seed);
        let mut injector = SensorFaultInjector::new(seed, SensorFaultRates::uniform(0.4));
        let mut out = Vec::new();
        for _ in 0..6 {
            let mut w = sim.window(Activity::Walk);
            injector.corrupt_window(&mut w);
            for o in dev.stream(&w).expect("stream") {
                out.push((o.predicted, o.distance.to_bits()));
            }
        }
        out
    };
    for seed in [3u64, 99] {
        parallel::configure(ThreadConfig::serial());
        let serial = run_once(seed);
        for threads in [2usize, 4] {
            parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
            assert_eq!(
                run_once(seed),
                serial,
                "faulted pipeline diverged from serial at {threads} thread(s)"
            );
        }
    }
    parallel::configure(saved);
}

/// Fixed-seed fault matrix — the deterministic sweep `scripts/ci.sh` runs
/// under several `PILOTE_FAULT_SEED` values. Exercises all three fault
/// families end to end at a hostile rate and asserts the resilience
/// invariants (no panic, finite state, exact rollback bookkeeping).
#[test]
fn fixed_seed_matrix() {
    let seed: u64 = std::env::var("PILOTE_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20230328);

    // Link family: a resilient install either succeeds or reports a typed
    // link error — never panics.
    let mut flaky =
        FlakyLink::new(LinkModel::weak_cellular(), seed, LinkFaultRates::uniform(0.6));
    let installed = EdgeDevice::install_resilient(
        DeviceProfile::budget_phone(),
        &fixture().deployment,
        &mut flaky,
    );
    assert!(flaky.attempts() >= 1);
    if let Ok(dev) = &installed {
        assert!(!dev.known_classes().is_empty());
    }

    // Sensor + process families on one device until it completes an
    // update, degrades, or exhausts the budget.
    let mut dev = device();
    let mut sim = Simulator::with_seed(seed);
    let mut injector = SensorFaultInjector::new(seed, SensorFaultRates::uniform(0.5));
    let mut plan = CrashPlan::new(seed, 0.7);
    let mut rng = Rng64::new(seed ^ 0x5eed);
    for _ in 0..4 {
        let mut session = sim.session(Activity::Walk, 3);
        injector.corrupt_window(&mut session);
        dev.stream(&session).expect("stream");
        label_run_samples(&mut dev, 10, &mut rng);
        let kill = plan.next_kill(UpdateStage::ALL.len()).map(|i| UpdateStage::ALL[i]);
        let status = dev.update_faulted(8, kill).expect("update");
        if matches!(status, pilote::magneto::UpdateStatus::Degraded) {
            assert!(dev.is_degraded());
            assert_eq!(dev.pending_samples(), 0);
            break;
        }
    }
    assert!(pilote::nn::params_finite(dev.model_mut().net_mut().layers_mut()));
}
