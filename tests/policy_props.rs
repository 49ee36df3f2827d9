//! Property and integration tests for the self-healing fleet policy
//! (`docs/POLICY.md`):
//!
//! * **determinism**: the full closed-loop schedule — quarantine, canary
//!   halt, suspect screening, re-anchor, degrade — produces byte-identical
//!   device logs, policy summaries and fleet stats across two runs and
//!   across `PILOTE_THREADS` 1 vs 4;
//! * **exclusion**: a quarantined device's weights never enter
//!   [`pilote::magneto::federated_average`] — the installed merge is
//!   bitwise equal to the average predicted from the healthy
//!   contributions alone, and the device logs a typed
//!   `FederatedExcluded { reason: Quarantined }`;
//! * **halt exactness**: a halted canary stage restores the staged
//!   devices' parameters bitwise to their pre-round state;
//! * **one round**: a round that fails leaves no trace in either mode,
//!   and a policy with nothing to act on leaves exactly the unpolicied
//!   round's trace.
//!
//! The global [`ThreadConfig`] is process-wide, so the thread-variance
//! test serialises on [`CONFIG_LOCK`], same as `tests/fleet_props.rs`.

use pilote::magneto::{
    federated_average, Deployment, EventKind, ExclusionReason, Fleet, FleetConfig, RolloutStage,
};
use pilote::nn::{Checkpoint, Layer};
use pilote::prelude::*;
use pilote::tensor::parallel::{self, ThreadConfig};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Guards no data: each test that compares thread counts sets every count
/// it runs at after taking it, so a test that failed while holding it
/// leaves nothing for the next one to distrust, and the next one takes it
/// over instead of failing on the poison.
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

const DEVICES: usize = 5;

struct Fixture {
    deployment: Deployment,
    probe: Dataset,
    old_labels: Vec<usize>,
}

/// One pre-trained two-class deployment plus a held-out probe set,
/// shared by every test (pre-training per test would dominate runtime).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut sim = Simulator::with_seed(47);
        let (data, norm) = generate_features(
            &mut sim,
            &[(Activity::Still, 50), (Activity::Walk, 50)],
        )
        .expect("simulate");
        let server = CloudServer::new(data, norm.clone(), PiloteConfig::fast_test(47));
        let old_labels = vec![Activity::Still.label(), Activity::Walk.label()];
        let (deployment, _) = server.pretrain_and_package(&old_labels, 12).expect("package");
        let probe_raw = sim.raw_dataset(&[(Activity::Still, 12), (Activity::Walk, 12)]);
        let features = norm
            .transform(
                &pilote::har_data::features::extract_batch(&probe_raw).expect("features"),
            )
            .expect("normalise");
        let probe = Dataset::new(features, probe_raw.labels).expect("probe");
        Fixture { deployment, probe, old_labels }
    })
}

/// A fleet over the shared deployment with no monitor armed, and with
/// the self-healing policy anchored on the deployment when `policy` is
/// set.
fn fixture_fleet(seed: u64, policy: bool) -> Fleet {
    let fx = fixture();
    let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
    let slots: Vec<(DeviceProfile, LinkModel)> = DeviceProfile::roster(DEVICES)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let config = FleetConfig { seed, federated_every: 0, ..FleetConfig::default() };
    let mut fleet = Fleet::deploy(slots, &fx.deployment, config).expect("deploy");
    if policy {
        fleet.enable_policy(fx.deployment.clone()).expect("enable policy");
    }
    fleet
}

/// A policied fleet over the shared deployment: armed monitors plus the
/// self-healing policy anchored on the deployment itself.
fn policied_fleet(seed: u64) -> Fleet {
    let fx = fixture();
    let mut fleet = fixture_fleet(seed, false);
    fleet.arm_quality_monitors(&fx.probe, &fx.old_labels).expect("arm");
    fleet.enable_policy(fx.deployment.clone()).expect("enable policy");
    fleet.enable_adaptive_thresholds();
    fleet
}

/// Overwrites a device's net parameters with a fixed junk pattern and
/// commits the damage — deterministic, no RNG.
fn poison(device: &mut EdgeDevice) {
    let model = device.model_mut();
    for (p, _) in model.net_mut().layers_mut().params_and_grads() {
        for (k, v) in p.as_mut_slice().iter_mut().enumerate() {
            *v = ((k % 7) as f32 - 3.0) * 1.5;
        }
    }
    model.refresh_prototypes().expect("refresh");
}

/// Runs the full closed-loop schedule (visible poison → quarantine,
/// silent poison → canary halt + screening, two re-offenses → re-anchor
/// then degrade, final clean round) and returns every observable output
/// as one string: per-device logs, policy summary, fleet stats.
fn run_schedule(seed: u64) -> String {
    let mut fleet = policied_fleet(seed);
    for round in 0..6 {
        match round {
            1 => {
                poison(fleet.device_mut(1));
                fleet.device_mut(1).sample_quality().expect("sample visible");
                poison(fleet.device_mut(3));
            }
            3 | 4 => {
                poison(fleet.device_mut(3));
                fleet.device_mut(3).sample_quality().expect("sample repeat");
            }
            _ => {}
        }
        fleet.federated_round().expect("round");
    }
    let logs: Vec<String> = (0..fleet.len())
        .map(|i| serde_json::to_string(fleet.device(i).log()).expect("log json"))
        .collect();
    let summary =
        serde_json::to_string(&fleet.policy().expect("policy").summary()).expect("summary json");
    let stats = serde_json::to_string(&fleet.stats()).expect("stats json");
    format!("{}\n{summary}\n{stats}", logs.join("\n"))
}

/// The whole closed loop is byte-identical across two runs and across
/// thread counts — quarantine decisions, halt decisions, repair ladder
/// and virtual clocks included.
#[test]
fn closed_loop_schedule_is_byte_identical_across_runs_and_threads() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = parallel::current();
    parallel::configure(ThreadConfig::serial());
    let serial_a = run_schedule(11);
    let serial_b = run_schedule(11);
    assert_eq!(serial_a, serial_b, "same seed, same threads must be identical");
    parallel::configure(ThreadConfig { num_threads: 4, min_parallel_len: 1 });
    let threaded = run_schedule(11);
    parallel::configure(prev);
    assert_eq!(serial_a, threaded, "PILOTE_THREADS must not leak into policy outputs");
}

/// A quarantined device's weights never reach the merge: the installed
/// parameters are bitwise the average of the healthy contributions alone.
#[test]
fn quarantined_weights_never_enter_the_federated_average() {
    let mut fleet = policied_fleet(23);
    fleet.federated_round().expect("clean round");

    // Poison device 1 visibly: the next control step quarantines it
    // before collection.
    poison(fleet.device_mut(1));
    fleet.device_mut(1).sample_quality().expect("sample");

    // Predict the merge from the healthy devices only. Their parameters
    // are untouched by the control step, so capturing now equals what
    // collection will see. The victim's rolled-back weights must NOT be
    // part of it either — quarantined means held out entirely.
    let healthy: Vec<usize> = (0..fleet.len()).filter(|&i| i != 1).collect();
    let contributions: Vec<(Checkpoint, usize)> = healthy
        .iter()
        .map(|&i| {
            let device = fleet.device_mut(i);
            let ckpt = Checkpoint::capture(device.model_mut().net_mut().layers_mut());
            let support = device.model_mut().support().len();
            (ckpt, support)
        })
        .collect();
    let predicted = federated_average(&contributions).expect("predicted merge");

    fleet.federated_round().expect("policied round");

    let events = fleet.device(1).log().events();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::FederatedExcluded { reason: ExclusionReason::Quarantined, .. }
        )),
        "the quarantined device must log a typed exclusion"
    );
    for &i in &healthy {
        let installed = Checkpoint::capture(fleet.device_mut(i).model_mut().net_mut().layers_mut());
        assert_eq!(
            serde_json::to_string(&installed).expect("installed json"),
            serde_json::to_string(&predicted).expect("predicted json"),
            "device {i} must install exactly the healthy-only average"
        );
    }
}

/// A halted stage restores its devices bitwise: the canary's parameters
/// after the halt equal its parameters before the round.
#[test]
fn halted_canary_installs_are_restored_bitwise() {
    let mut fleet = policied_fleet(31);
    fleet.federated_round().expect("clean round");

    // Silent poison on every non-canary contributor, so the canary
    // devices are clean victims of a merge dominated by junk (a single
    // poisoned 1-of-5 contribution dilutes below the alert thresholds).
    let canary = fleet.policy().expect("policy").plan().stage(RolloutStage::Canary).to_vec();
    let culprits: Vec<usize> = (0..fleet.len()).filter(|i| !canary.contains(i)).collect();
    assert!(!culprits.is_empty(), "a non-canary device exists");
    for &i in &culprits {
        poison(fleet.device_mut(i));
    }

    let before: Vec<String> = canary
        .iter()
        .map(|&i| {
            let ckpt = Checkpoint::capture(fleet.device_mut(i).model_mut().net_mut().layers_mut());
            serde_json::to_string(&ckpt).expect("checkpoint json")
        })
        .collect();

    fleet.federated_round().expect("halted round");

    let policy = fleet.policy().expect("policy");
    assert_eq!(policy.summary().halts, 1, "the poisoned merge must halt the canary");
    for (&i, expected) in canary.iter().zip(&before) {
        let after = Checkpoint::capture(fleet.device_mut(i).model_mut().net_mut().layers_mut());
        assert_eq!(
            &serde_json::to_string(&after).expect("after json"),
            expected,
            "canary device {i} must be restored exactly"
        );
        assert!(
            fleet
                .device(i)
                .log()
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::RolloutHalted { .. })),
            "canary device {i} must log the halt"
        );
    }
}

/// Every device's log and parameters, then the fleet stats and wire
/// totals, as JSON.
fn observables(fleet: &mut Fleet) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..fleet.len() {
        out.push(serde_json::to_string(fleet.device(i).log()).expect("log json"));
        let ckpt = Checkpoint::capture(fleet.device_mut(i).model_mut().net_mut().layers_mut());
        out.push(serde_json::to_string(&ckpt).expect("checkpoint json"));
    }
    out.push(serde_json::to_string(&fleet.stats()).expect("stats json"));
    out.push(serde_json::to_string(&fleet.wire_totals()).expect("wire totals json"));
    out
}

/// A round that fails — here because no device holds a sample — touches
/// nothing, with or without a policy: the merge is averaged before any
/// upload is charged or any exclusion logged.
#[test]
fn failed_round_leaves_no_trace() {
    for policy in [false, true] {
        let mut fleet = fixture_fleet(29, policy);
        for i in 0..fleet.len() {
            *fleet.device_mut(i).model_mut().support_mut() = SupportSet::new();
        }
        let before = observables(&mut fleet);
        let result = fleet.federated_round();
        assert!(
            matches!(result, Err(EdgeError::Federated(FederatedError::NoContributions))),
            "policy {policy}: a round without samples must fail, got {result:?}"
        );
        assert_eq!(
            observables(&mut fleet),
            before,
            "policy {policy}: the failed round left a trace"
        );
    }
}

/// A policy with nothing to act on — no monitor armed, so no report to
/// judge and no wave to halt — leaves exactly the unpolicied round's
/// trace. A device with an empty support set logs its exclusion before
/// it pays for and installs the merge.
#[test]
fn idle_policy_round_matches_the_unpolicied_round() {
    let run = |policy: bool| {
        let mut fleet = fixture_fleet(41, policy);
        *fleet.device_mut(2).model_mut().support_mut() = SupportSet::new();
        let net = fleet.device_mut(0).model_mut().net_mut().layers_mut();
        let (weights, _) = net.params_and_grads().into_iter().next().expect("a weight tensor");
        weights.map_inplace(|v| v * 1.05);
        fleet.federated_round().expect("first round");
        fleet.federated_round().expect("second round");
        fleet
    };
    let mut unpolicied = run(false);
    let mut idle = run(true);
    assert_eq!(observables(&mut idle), observables(&mut unpolicied));

    let events = unpolicied.device(2).log().events();
    let excluded = events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                EventKind::FederatedExcluded { reason: ExclusionReason::ZeroSupport, .. }
            )
        })
        .expect("the empty device must log a ZeroSupport exclusion");
    let installed = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::FederatedRound { .. }))
        .expect("the empty device must still receive the merge");
    assert!(
        excluded < installed && events[excluded].at_seconds < events[installed].at_seconds,
        "the exclusion must be stamped before the download: {:?} vs {:?}",
        events[excluded],
        events[installed]
    );
}
