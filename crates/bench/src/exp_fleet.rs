//! **Fleet** — deterministic multi-device orchestration and serving
//! (`BENCH_fleet.json`; see `docs/FLEET.md`).
//!
//! Pre-trains once on the cloud, deploys to a heterogeneous fleet of
//! [`FLEET_DEVICES`] devices over a mix of links, then runs a fixed
//! session schedule: users are hash-routed to devices, each session is
//! served through the **batched** prototype-cache path, a few users label
//! the held-out activity (triggering on-device incremental updates), and
//! a federated round fires every `FEDERATED_EVERY` sessions.
//!
//! Two contracts are asserted while the schedule runs and recorded in the
//! JSON:
//!
//! * **Batched = per-window**: the first session is replayed window-by-
//!   window on a reference device with the same deployment; labels and
//!   distances must match **bitwise**.
//! * **No wall-clock fields**: every timestamp is the flop-modeled virtual
//!   clock, so for a fixed seed the JSON is byte-identical across runs and
//!   `PILOTE_THREADS` settings (`scripts/ci.sh` diffs three runs).

use crate::exp_faults::faulted_scenario;
use crate::report::{write_json, ForcedTelemetry, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{pretrain_base, session_slice};
use pilote_edge_sim::{DeviceProfile, LinkModel};
use pilote_magneto::{Deployment, EdgeDevice, Fleet, FleetConfig, FleetStats, TelemetryRollup};
use pilote_tensor::{Rng64, Tensor};
use serde_json::json;
use std::path::Path;

/// Devices in the fleet (heterogeneous: the roster cycles flagship /
/// budget / wearable; links cycle wifi / 4G / weak cellular).
pub const FLEET_DEVICES: usize = 8;

/// Simulated users routed into the fleet.
const USERS: u64 = 10;

/// Sessions each user runs through the schedule.
const SESSIONS_PER_USER: usize = 2;

/// Feature windows per served session.
const WINDOWS_PER_SESSION: usize = 4;

/// A federated round fires after every this-many served sessions.
const FEDERATED_EVERY: usize = 5;

/// Users who label the held-out activity on their device.
const LABELLING_USERS: u64 = 3;

/// Labelled samples per labelling user (also the update threshold, so the
/// last label of each user triggers exactly one incremental update).
const LABELS_PER_USER: usize = 12;

/// Runs the fleet schedule and writes `BENCH_fleet.json`. Returns the
/// fleet-wide stats.
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<FleetStats, ReportError> {
    eprintln!(
        "[fleet] {FLEET_DEVICES} heterogeneous devices, {USERS} users × {SESSIONS_PER_USER} sessions, federated round every {FEDERATED_EVERY} sessions"
    );
    let telemetry = ForcedTelemetry::start();

    // --- cloud: pre-train once, package once --------------------------
    let (scenario, norm, _sim) = faulted_scenario(scale, seed);
    let mut base = pretrain_base(scenario, scale, seed);
    let deployment = Deployment::from_model(&mut base.model, norm);

    // --- fleet: heterogeneous devices over a link mix ------------------
    let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
    let slots: Vec<(DeviceProfile, LinkModel)> = DeviceProfile::roster(FLEET_DEVICES)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let config = FleetConfig {
        seed: seed ^ 0xf1ee7,
        serve_chunk: 16,
        federated_every: FEDERATED_EVERY,
        update_threshold: LABELS_PER_USER,
        exemplar_budget: scale.exemplars_per_class,
    ..FleetConfig::default()
    };
    let mut fleet = Fleet::deploy(slots, &deployment, config).expect("fleet deploy");
    // Reference device for the batched-vs-per-window assertion: same
    // deployment, served one window at a time.
    let mut reference =
        EdgeDevice::install(DeviceProfile::flagship_phone(), &deployment, &LinkModel::wifi())
            .expect("reference install");

    // --- the schedule --------------------------------------------------
    // Sessions draw deterministic slices from the held-out test pool;
    // labelling users draw from the new-activity training pool.
    let eval = &base.scenario.test;
    let new_label = base.scenario.new_activity.label();
    let mut rng = Rng64::new(seed ^ 0xf1e7);
    let new_samples = base
        .scenario
        .new_pool
        .sample_class(new_label, LABELS_PER_USER * LABELLING_USERS as usize, &mut rng)
        .expect("new-class batch");

    let mut batched_equals_per_window = true;
    let mut session_cursor = 0usize;
    for round in 0..SESSIONS_PER_USER {
        for user in 0..USERS {
            let features = session_slice(eval, &mut session_cursor, WINDOWS_PER_SESSION);
            let outcomes = fleet.serve_session(user, &features).expect("serve session");
            if round == 0 && user == 0 {
                batched_equals_per_window =
                    matches_per_window(&mut reference, &features, &outcomes);
            }
        }
        // After every user served once, the labelling users teach their
        // devices the held-out activity; the last sample of each batch
        // crosses the update threshold and runs the incremental update.
        if round == 0 {
            for labeller in 0..LABELLING_USERS {
                let start = labeller as usize * LABELS_PER_USER;
                for i in start..start + LABELS_PER_USER {
                    fleet
                        .label_sample(
                            labeller,
                            new_label,
                            Tensor::vector(new_samples.features.row(i)),
                        )
                        .expect("label sample");
                }
            }
        }
    }
    let stats = fleet.stats();
    let fleet_counters: std::collections::BTreeMap<String, u64> = pilote_obs::snapshot()
        .counters_with_prefix("fleet.")
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    drop(telemetry);

    // --- report --------------------------------------------------------
    let mut t = Table::new(
        "Fleet: deterministic multi-device serving (batched prototype-cache path)",
        &["device", "windows", "cache rebuilds", "updates", "classes", "virtual clock (s)"],
    );
    for d in &stats.devices {
        t.row(vec![
            d.name.clone(),
            d.windows_served.to_string(),
            d.cache_rebuilds.to_string(),
            d.updates.to_string(),
            d.classes.to_string(),
            format!("{:.4}", d.clock_seconds),
        ]);
    }
    t.row(vec![
        "TOTAL".into(),
        stats.windows.to_string(),
        String::new(),
        stats.devices.iter().map(|d| d.updates).sum::<usize>().to_string(),
        String::new(),
        format!("federated rounds: {}", stats.federated_rounds),
    ]);
    println!("{t}");
    println!(
        "batched serving bitwise-identical to per-window: {}",
        if batched_equals_per_window { "yes" } else { "NO — CONTRACT VIOLATED" }
    );

    assert!(
        batched_equals_per_window,
        "batched serving diverged from per-window classification"
    );

    write_json(
        out,
        "BENCH_fleet.json",
        &json!({
            "seed": seed,
            "schedule": {
                "devices": FLEET_DEVICES,
                "users": USERS,
                "sessions_per_user": SESSIONS_PER_USER,
                "windows_per_session": WINDOWS_PER_SESSION,
                "federated_every": FEDERATED_EVERY,
                "labelling_users": LABELLING_USERS,
                "labels_per_user": LABELS_PER_USER,
            },
            "determinism": "no host wall-clock fields: routing is a pure hash, device time is flop-modeled virtual seconds, link time is modeled transfer cost — byte-identical for a fixed seed at any PILOTE_THREADS",
            "batched_equals_per_window": batched_equals_per_window,
            "fleet_counters": fleet_counters,
            "stats": stats,
        }),
    )?;
    Ok(stats)
}

/// Default device count for `repro fleet --scale large`.
pub const LARGE_DEVICES: usize = 10_000;

/// Feature windows per served session in the large-scale run.
pub const LARGE_WINDOWS_PER_SESSION: usize = 8;

/// Serve-chunk in the large-scale run — small on purpose, so every session
/// emits several `BatchServed` events and the bounded logs actually evict.
pub const LARGE_SERVE_CHUNK: usize = 4;

/// Per-device event-log ring capacity in the large-scale run — far below
/// the event volume, so retained memory stays bounded while the running
/// totals keep every count.
pub const LARGE_EVENT_CAPACITY: usize = 8;

/// Sessions served between delta telemetry uploads in the large-scale run.
pub const LARGE_UPLOAD_EVERY: usize = 2048;

/// Runs the large-scale fleet benchmark (`repro fleet --scale large`) and
/// writes `BENCH_fleet_large.json`: `devices` devices deployed via the
/// band-sharded [`Fleet::deploy`], one 8-window session per device-count
/// of users served through [`Fleet::serve_sessions`], bounded event logs
/// ([`LARGE_EVENT_CAPACITY`] retained events per device), and windowed
/// **delta** telemetry uploads every [`LARGE_UPLOAD_EVERY`] sessions
/// summed into one cloud rollup.
///
/// Host wall-clock throughput (windows/sec) goes to **stderr only**; the
/// JSON contains virtual-time and conservation results exclusively, so it
/// is byte-identical across runs and `PILOTE_THREADS` settings
/// (`scripts/ci.sh` diffs a reduced-device smoke both ways).
pub fn run_large(
    scale: &Scale,
    seed: u64,
    out: &Path,
    devices: usize,
) -> Result<(), ReportError> {
    assert!(devices > 0, "--devices must be positive");
    eprintln!(
        "[fleet-large] {devices} devices, {devices} sessions × {LARGE_WINDOWS_PER_SESSION} windows, \
         event ring {LARGE_EVENT_CAPACITY}, delta upload every {LARGE_UPLOAD_EVERY} sessions"
    );
    let telemetry = ForcedTelemetry::start();

    // --- cloud: pre-train once, package once --------------------------
    let (scenario, norm, _sim) = faulted_scenario(scale, seed);
    let mut base = pretrain_base(scenario, scale, seed);
    let deployment = Deployment::from_model(&mut base.model, norm);

    // --- fleet: sharded install over the standard link mix -------------
    let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
    let slots: Vec<(DeviceProfile, LinkModel)> = DeviceProfile::roster(devices)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let config = FleetConfig {
        seed: seed ^ 0xf1ee7,
        serve_chunk: LARGE_SERVE_CHUNK,
        federated_every: 0,
        event_capacity: LARGE_EVENT_CAPACITY,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::deploy(slots, &deployment, config).expect("fleet deploy");

    // --- the schedule: one session per user, users = devices -----------
    let eval = &base.scenario.test;
    let mut cursor = 0usize;
    let sessions: Vec<(u64, Tensor)> = (0..devices as u64)
        .map(|user| (user, session_slice(eval, &mut cursor, LARGE_WINDOWS_PER_SESSION)))
        .collect();

    let mut rollup = TelemetryRollup::new();
    let mut delta_uploads = 0usize;
    let mut served_windows = 0u64;
    let started = std::time::Instant::now();
    for chunk in sessions.chunks(LARGE_UPLOAD_EVERY) {
        let outcomes = fleet.serve_sessions(chunk).expect("serve sessions");
        served_windows += outcomes.iter().map(|o| o.len() as u64).sum::<u64>();
        fleet.upload_telemetry_deltas(&mut rollup).expect("delta upload");
        delta_uploads += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    // Host wall-clock throughput: stderr only, never in the JSON.
    eprintln!(
        "[fleet-large] host throughput: {:.0} windows/sec ({} windows in {:.2}s wall)",
        served_windows as f64 / elapsed.max(1e-9),
        served_windows,
        elapsed
    );

    // --- conservation + aggregates (virtual time only) ------------------
    let stats = fleet.stats();
    let rollup_windows = rollup.counter("edge.batch_served");
    let conserved = rollup_windows == served_windows;
    let mut events_retained = 0u64;
    let mut events_evicted = 0u64;
    let mut max_retained = 0usize;
    for i in 0..fleet.len() {
        let log = fleet.device(i).log();
        events_retained += log.events().len() as u64;
        events_evicted += log.evicted();
        max_retained = max_retained.max(log.events().len());
    }
    let devices_serving = stats.devices.iter().filter(|d| d.windows_served > 0).count();
    let clock_sum: f64 = stats.devices.iter().map(|d| d.clock_seconds).sum();
    let clock_max = stats.devices.iter().map(|d| d.clock_seconds).fold(0.0f64, f64::max);
    drop(telemetry);

    println!(
        "fleet-large: {} devices ({} serving), {} sessions, {} windows, {} delta uploads",
        stats.devices.len(),
        devices_serving,
        stats.sessions,
        stats.windows,
        delta_uploads
    );
    println!(
        "fleet-large: rollup conserves windows: {} ({} retained events, {} evicted, ring ≤ {})",
        if conserved { "yes" } else { "NO — CONTRACT VIOLATED" },
        events_retained,
        events_evicted,
        max_retained
    );
    assert!(conserved, "delta rollup lost windows: {rollup_windows} != {served_windows}");
    assert!(
        max_retained <= LARGE_EVENT_CAPACITY,
        "a device exceeded its event ring capacity"
    );

    write_json(
        out,
        "BENCH_fleet_large.json",
        &json!({
            "seed": seed,
            "schedule": {
                "devices": devices,
                "sessions": devices,
                "windows_per_session": LARGE_WINDOWS_PER_SESSION,
                "serve_chunk": LARGE_SERVE_CHUNK,
                "federated_every": 0,
                "event_capacity": LARGE_EVENT_CAPACITY,
                "delta_upload_every_sessions": LARGE_UPLOAD_EVERY,
                "delta_uploads": delta_uploads,
            },
            "determinism": "sharded deploy + bulk serving merge in device-index order; no host wall-clock fields (throughput goes to stderr) — byte-identical for a fixed seed at any PILOTE_THREADS",
            "conservation": {
                "rollup_batch_served_equals_windows": conserved,
                "events_retained": events_retained,
                "events_evicted": events_evicted,
                "max_retained_per_device": max_retained,
            },
            "rollup": {
                "merged_uploads": rollup.devices,
                "counters": rollup.counters,
            },
            "totals": {
                "sessions": stats.sessions,
                "windows": stats.windows,
                "devices": stats.devices.len(),
                "devices_serving": devices_serving,
                "degraded": stats.devices.iter().filter(|d| d.degraded).count(),
                "clock_seconds_sum": clock_sum,
                "clock_seconds_max": clock_max,
            },
        }),
    )?;
    Ok(())
}

/// Replays a served session window-by-window on the reference device and
/// checks labels and distances bitwise.
fn matches_per_window(
    reference: &mut EdgeDevice,
    features: &Tensor,
    batched: &[pilote_magneto::InferenceOutcome],
) -> bool {
    batched.iter().enumerate().all(|(i, outcome)| {
        let row = features.slice_rows(i, i + 1).expect("window row");
        let one = reference.serve_batch(&row).expect("reference serve");
        one.len() == 1
            && one[0].predicted == outcome.predicted
            && one[0].distance.to_bits() == outcome.distance.to_bits()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            per_activity: 60,
            rounds: 1,
            exemplars_per_class: 12,
            max_epochs: 2,
            pretrain_epochs: 2,
        }
    }

    /// Acceptance check: two runs at the same seed must produce identical
    /// stats, the batched contract must hold, and updates + federated
    /// rounds must actually have happened.
    #[test]
    #[ignore = "slow (two full fleet schedules); run by the pilote-bench --ignored step of scripts/ci.sh"]
    fn fleet_schedule_is_deterministic_and_complete() {
        let dir = std::env::temp_dir().join("pilote_fleet_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let a = run(&tiny(), 7, &dir).expect("run a");
        let b = run(&tiny(), 7, &dir).expect("run b");
        assert_eq!(a, b, "same seed must produce identical fleet stats");
        assert_eq!(a.devices.len(), FLEET_DEVICES);
        assert_eq!(a.sessions, USERS * SESSIONS_PER_USER as u64);
        assert!(a.federated_rounds >= 1, "the schedule must run federated rounds");
        assert!(
            a.devices.iter().map(|d| d.updates).sum::<usize>() >= 1,
            "labelling users must trigger incremental updates"
        );
    }
}
