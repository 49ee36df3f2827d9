//! Fleet orchestration and serving: one coordinator owning N heterogeneous
//! [`EdgeDevice`]s, routing simulated user sessions to devices, serving
//! classification through the **batched** prototype-cache path, and
//! interleaving incremental updates with periodic federated rounds.
//!
//! Everything is deterministic by construction (see `docs/FLEET.md`):
//!
//! - **Routing** is a pure hash of `(fleet seed, user id)` — no load
//!   balancing on wall-clock state.
//! - **Time** is the per-device virtual clock: modeled kernel flops through
//!   [`DeviceProfile::seconds_for_flops`] plus modeled link transfers —
//!   never a host clock.
//! - **Serving** chunks each session through [`EdgeDevice::serve_batch`],
//!   which is bitwise identical to per-window classification.
//! - **Federated rounds** fire on a session-count schedule
//!   ([`FleetConfig::federated_every`]) or on demand, through one
//!   [`Fleet::federated_round`] body: a fleet without a policy is the
//!   policied fleet with nothing to act on — nobody is held out, and its
//!   single install wave cannot halt. The merge is averaged and encoded
//!   before any device is touched, so a failed round leaves no trace;
//!   then each participant's link is charged with its upload and every
//!   receiver's with its download. Payloads ship through the binary wire
//!   codec ([`crate::wire`], `docs/WIRE.md`) at the fleet's
//!   [`FleetConfig::wire`] setting — delta-encoded against the last
//!   committed broadcast when both ends are current, with a typed
//!   full-payload fallback for stale members — and what devices install
//!   is always the **decoded** payload.
//! - **Installs** — federated merges and [`Fleet::rollout_deployment`]
//!   packages — go through one staged-install helper: one wave of every
//!   device without a policy, canary → cohort → fleet with
//!   halt-and-restore under one ([`crate::policy`], `docs/POLICY.md`).
//!
//! At scale (10k+ devices — see `docs/SCALING.md`) the roster is
//! **sharded** across worker threads: [`Fleet::deploy`] installs
//! contiguous device-index bands in parallel, [`Fleet::serve_sessions`]
//! serves a whole batch of routed sessions with each device's work
//! executed on the shard that owns it, and the telemetry/federated wire
//! serialisation fans out per band. Every sharded path merges its per-band
//! results back in **device-index order**, and every span and flop the
//! workers produce is captured and adopted by the orchestrator in a fixed
//! order ([`pilote_obs::capture`]), so rollups, event ordering, stats and
//! traces are byte-identical to the serial walk at any `PILOTE_THREADS`
//! setting.

use crate::cloud::{Deployment, PackageError, ScenarioRollup, TelemetryRollup};
use crate::edge::{EdgeDevice, EdgeError, InferenceOutcome, UpdateStatus};
use crate::events::{EventKind, ExclusionReason, DEFAULT_EVENT_CAPACITY};
use crate::federated::federated_average;
use crate::policy::{FleetPolicy, RepairAction, RolloutStage, QUARANTINE_ROUNDS};
use crate::wire::{self, CodecError, WireConfig};
use pilote_core::TaskGroup;
use pilote_edge_sim::{DeviceProfile, LinkModel, WirePrecision};
use pilote_har_data::Dataset;
use pilote_nn::Checkpoint;
use pilote_tensor::{parallel, Tensor};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Tuning knobs for a [`Fleet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Seed for the routing hash (and anything else the fleet randomises).
    pub seed: u64,
    /// Maximum windows per [`EdgeDevice::serve_batch`] call; longer
    /// sessions are chunked. Chunking cannot change results — batched
    /// serving is bitwise identical at any batch size.
    pub serve_chunk: usize,
    /// Run a federated round after every this-many served sessions.
    /// `0` disables the schedule (rounds can still be run explicitly).
    pub federated_every: usize,
    /// Pending labelled samples that trigger an incremental update on a
    /// device. `0` disables auto-updates.
    pub update_threshold: usize,
    /// Exemplar budget per class handed to incremental updates.
    pub exemplar_budget: usize,
    /// Per-device event-log ring-buffer bound (`0` = unbounded). Evicted
    /// events stay folded into the log's running totals, so telemetry and
    /// derived counts are unaffected by the bound — see
    /// [`crate::events::EventLog`].
    pub event_capacity: usize,
    /// How deployments, federated round payloads and telemetry ship over
    /// the links ([`crate::wire`]). The default — bit-exact `f32` with
    /// deltas on — changes only byte counts and the virtual clocks they
    /// feed; quantised precisions additionally make every installed model
    /// the *decoded* (lossy) payload, so accuracy cost is real end to end.
    pub wire: WireConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0x5eed_f1ee,
            serve_chunk: 64,
            federated_every: 8,
            update_threshold: 20,
            exemplar_budget: 20,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            wire: WireConfig::default(),
        }
    }
}

/// A member's `base_round` after something wiped its copy of the last
/// committed broadcast (a re-anchor or an uncommitted package install):
/// never equal to any committed round, so the member's next federated
/// payload falls back to the full encoding.
const STALE_ROUND: u64 = u64::MAX;

/// One device slot: the device plus the link it talks to the cloud (and
/// the federated aggregator) over.
struct FleetMember {
    device: EdgeDevice,
    link: LinkModel,
    updates_completed: usize,
    /// The fleet round whose committed broadcast this member holds a
    /// bitwise copy of. Delta payloads are only exchanged with members
    /// whose `base_round` matches the fleet's committed round; everyone
    /// else gets the typed full-payload fallback ([`crate::wire`]).
    base_round: u64,
}

/// A deterministic multi-device deployment: routes user sessions to
/// devices, serves them through the batched prototype-cache path, and
/// interleaves local incremental updates with federated rounds.
pub struct Fleet {
    members: Vec<FleetMember>,
    config: FleetConfig,
    sessions_served: u64,
    windows_served: u64,
    /// Federated rounds completed (a halted round does not count).
    rounds_completed: usize,
    /// Self-healing control loop ([`crate::policy`]), armed via
    /// [`Fleet::enable_policy`]. When present, federated rounds and
    /// deployment rollouts run staged (canary → cohort → fleet) with
    /// quarantine, repair escalation and halt-and-rollback.
    policy: Option<PolicyState>,
    /// Committed broadcast round: bumps once per completed federated
    /// round or fleet-wide rollout. Delta payloads reference this round.
    round: u64,
    /// The last committed broadcast checkpoint — the shared reference
    /// both ends of a delta payload diff against. `None` never occurs
    /// after [`Fleet::deploy`] (the deployment checkpoint seeds it), but
    /// the codec's [`CodecError::MissingBase`] fallback keeps even that
    /// case well-typed.
    base: Option<Checkpoint>,
    /// Cumulative wire bytes moved, by traffic class.
    wire_totals: WireTotals,
}

/// The enabled policy plus the cloud anchor package its strike-2 repair
/// re-installs.
struct PolicyState {
    policy: FleetPolicy,
    anchor: Deployment,
    anchor_bytes: u64,
}

/// Cumulative wire bytes the fleet has moved, by traffic class — the
/// exact binary payload sizes that fed [`LinkModel::transfer_seconds`]
/// charges, summed over every device. `repro wire` sweeps these totals
/// across [`WireConfig`]s to draw the accuracy-vs-bytes frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTotals {
    /// Package installs: initial deploys, rollouts and re-anchors.
    pub deploy_bytes: u64,
    /// Federated round uploads (device → coordinator).
    pub federated_upload_bytes: u64,
    /// Federated round downloads (coordinator → device).
    pub federated_download_bytes: u64,
    /// Telemetry snapshot and delta uploads.
    pub telemetry_bytes: u64,
}

impl WireTotals {
    /// Upload + download bytes of federated rounds.
    pub fn federated_bytes(&self) -> u64 {
        self.federated_upload_bytes + self.federated_download_bytes
    }

    /// All bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.deploy_bytes + self.federated_bytes() + self.telemetry_bytes
    }
}

/// Per-device summary for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Device profile name.
    pub name: String,
    /// Windows classified through the batched serving path.
    pub windows_served: u64,
    /// Prototype-cache rebuilds (one per committed model change that was
    /// followed by a serve).
    pub cache_rebuilds: u64,
    /// Completed incremental updates.
    pub updates: usize,
    /// Activity classes the device currently recognises.
    pub classes: usize,
    /// Device virtual clock, in modeled seconds.
    pub clock_seconds: f64,
    /// Whether the device degraded to its pre-trained baseline.
    pub degraded: bool,
}

/// Fleet-wide summary for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Per-device summaries, in device-index order.
    pub devices: Vec<DeviceStats>,
    /// User sessions served.
    pub sessions: u64,
    /// Total windows classified across the fleet.
    pub windows: u64,
    /// Federated rounds completed.
    pub federated_rounds: usize,
}

/// SplitMix64 — the routing hash (also the policy's stage-assignment
/// hash). Chosen for determinism and full-avalanche mixing, not
/// cryptographic strength.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn codec_package_error(e: CodecError) -> PackageError {
    PackageError { detail: format!("wire codec: {e}") }
}

/// Encodes `deployment` at `precision` and decodes it straight back —
/// the package devices actually install — returning the decoded package
/// with its exact binary wire size. Routing installs through the codec
/// makes any quantisation loss real on the serve path instead of an
/// accounting fiction; at `F32` the decode is bitwise lossless.
fn package_for_wire(
    deployment: &Deployment,
    precision: WirePrecision,
) -> Result<(Deployment, u64), PackageError> {
    let encoded = wire::encode_deployment(deployment, precision).map_err(codec_package_error)?;
    let bytes = encoded.len() as u64;
    let package = wire::decode_deployment(&encoded).map_err(codec_package_error)?;
    Ok((package, bytes))
}

/// Encodes one member's federated upload — delta against the fleet's
/// committed base when the member is current, full otherwise — and
/// decodes it back exactly as the coordinator would. The **decoded**
/// checkpoint is what enters the average, so quantisation loss on
/// uploads is real end to end.
fn round_trip_upload(
    ckpt: &Checkpoint,
    base: Option<&Checkpoint>,
    round: u64,
    member_round: u64,
    cfg: WireConfig,
) -> Result<(Checkpoint, u64), CodecError> {
    let payload = match (cfg.delta && member_round == round, base) {
        (true, Some(b)) => wire::encode_round_delta(b, ckpt, round, cfg.precision)?,
        _ => wire::encode_round_full(ckpt, cfg.precision)?,
    };
    let bytes = payload.len() as u64;
    let decoded = wire::decode_round(&payload, base.map(|b| (b, round)))?;
    Ok((decoded, bytes))
}

/// The download side of a federated round: the merged model encoded at
/// most twice — the **canonical** payload current members receive (delta
/// against the committed base when enabled) and the **full fallback**
/// stale members receive — each decoded exactly once. Every receiver
/// installs decoded bits, and the canonical decode becomes the next
/// committed base.
struct RoundBroadcast {
    cfg: WireConfig,
    /// The round the canonical payload's delta references.
    round: u64,
    canonical_bytes: u64,
    canonical: Checkpoint,
    canonical_is_delta: bool,
    /// `(bytes, decoded)` of the full fallback, built by
    /// [`RoundBroadcast::ensure_full`] when some receiver is stale.
    full: Option<(u64, Checkpoint)>,
    /// The exact merged model, kept to encode the full fallback from.
    merged: Checkpoint,
}

impl RoundBroadcast {
    fn new(
        merged: Checkpoint,
        base: Option<&Checkpoint>,
        round: u64,
        cfg: WireConfig,
    ) -> Result<Self, CodecError> {
        let (payload, canonical_is_delta) = match (cfg.delta, base) {
            (true, Some(b)) => (wire::encode_round_delta(b, &merged, round, cfg.precision)?, true),
            _ => (wire::encode_round_full(&merged, cfg.precision)?, false),
        };
        let canonical = wire::decode_round(&payload, base.map(|b| (b, round)))?;
        Ok(RoundBroadcast {
            cfg,
            round,
            canonical_bytes: payload.len() as u64,
            canonical,
            canonical_is_delta,
            full: None,
            merged,
        })
    }

    /// Builds the full fallback payload. Must be called before
    /// [`RoundBroadcast::payload_for`] sees any stale member.
    fn ensure_full(&mut self) -> Result<(), CodecError> {
        if self.full.is_none() {
            let payload = wire::encode_round_full(&self.merged, self.cfg.precision)?;
            let decoded = wire::decode_round(&payload, None)?;
            self.full = Some((payload.len() as u64, decoded));
        }
        Ok(())
    }

    /// `(bytes, checkpoint to install, becomes current)` for a member
    /// whose committed round is `member_round`. A full-fallback receiver
    /// only becomes current when the precision is lossless — at `F32`
    /// both payloads decode to the same bits, while a quantised full
    /// decode differs from the canonical one, so the member would not
    /// hold the committed base and must keep falling back.
    fn payload_for(&self, member_round: u64) -> (u64, &Checkpoint, bool) {
        if !self.canonical_is_delta || member_round == self.round {
            (self.canonical_bytes, &self.canonical, true)
        } else {
            let (bytes, decoded) = self
                .full
                .as_ref()
                .expect("ensure_full is called before any stale member downloads");
            (*bytes, decoded, self.cfg.precision == WirePrecision::F32)
        }
    }
}

/// Serves one feature matrix on a device through the batched
/// prototype-cache path, `serve_chunk` windows at a time.
fn serve_chunked(
    device: &mut EdgeDevice,
    features: &Tensor,
    serve_chunk: usize,
) -> Result<Vec<InferenceOutcome>, EdgeError> {
    let mut outcomes = Vec::with_capacity(features.rows());
    for row in (0..features.rows()).step_by(serve_chunk) {
        let chunk = features.slice_rows(row, (row + serve_chunk).min(features.rows()))?;
        outcomes.extend(device.serve_batch(&chunk)?);
    }
    Ok(outcomes)
}

/// Runs `f(index, item)` over every item, fanning contiguous index
/// **bands** out across worker threads ([`parallel::for_each_band`]), and
/// returns the results in index order regardless of thread count or
/// timing.
///
/// Each call runs under [`pilote_obs::capture`] and is adopted here in
/// index order, so every item's spans, flops and (thread-local) device
/// clock deltas come out as in a serial in-order walk. Closures must
/// confine their other effects to the item itself plus commutative global
/// state (flop atomics, obs counters).
fn map_in_bands<T: Send, R: Send>(
    items: &mut [T],
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    // Items are coarse-grained work units (a device's whole install,
    // serving or wire workload), so the kernel layer's scalar-op threshold
    // (`min_parallel_len`) does not apply — only the configured thread
    // count gates the fan-out.
    let threads = parallel::current().num_threads;
    let mut slots: Vec<_> = items.iter_mut().map(|item| (item, None)).collect();
    parallel::for_each_band(&mut slots, 1, threads, |start, band| {
        for (offset, (item, out)) in band.iter_mut().enumerate() {
            *out = Some(pilote_obs::capture(|| f(start + offset, item)));
        }
    });
    slots
        .into_iter()
        .map(|(_, out)| {
            let (result, captured) = out.expect("for_each_band visits every item");
            pilote_obs::adopt(captured);
            result
        })
        .collect()
}

/// How a [`staged_install`] ended.
struct Installed {
    /// Devices of every completed wave, in install order. A halted wave's
    /// devices are restored and not listed.
    kept: Vec<usize>,
    /// Whether a wave halted, ending the install early.
    halted: bool,
}

/// Installs on the fleet in waves through `install(member)`; each wave
/// installs on every member, then samples every member's quality
/// monitor.
///
/// Without a policy there is one wave of every device. It cannot halt, so
/// nothing is snapshotted. With a policy the waves are canary → cohort →
/// fleet over the devices it [`FleetPolicy::receives`]: each device is
/// snapshotted before its install, and a wave whose triggering-alert rate
/// the policy halts on ([`FleetPolicy::stage_completed`]) is restored
/// bitwise. Its devices log `RolloutHalted` and have their post-install
/// reports marked seen — they are victims of the install, not suspects.
/// Earlier waves keep the install.
fn staged_install(
    members: &mut [FleetMember],
    mut policy: Option<&mut FleetPolicy>,
    mut install: impl FnMut(&mut FleetMember) -> Result<(), EdgeError>,
) -> Result<Installed, EdgeError> {
    let waves: Vec<(Option<RolloutStage>, Vec<usize>)> = match policy.as_deref() {
        None => vec![(None, (0..members.len()).collect())],
        Some(policy) => RolloutStage::ALL
            .into_iter()
            .map(|stage| {
                let stage_members = policy.plan().stage(stage).iter().copied();
                (Some(stage), stage_members.filter(|&i| policy.receives(i)).collect())
            })
            .collect(),
    };
    let mut kept = Vec::new();
    for (stage, indices) in waves {
        let mut snapshots = Vec::new();
        for &i in &indices {
            if stage.is_some() {
                snapshots.push(members[i].device.policy_snapshot());
            }
            install(&mut members[i])?;
        }
        let mut alerts = 0u64;
        for &i in &indices {
            let device = &mut members[i].device;
            let before = device.quality_reports().len();
            device.sample_quality()?;
            alerts += device.quality_reports()[before..]
                .iter()
                .filter(|r| FleetPolicy::triggering_alert(r).is_some())
                .count() as u64;
        }
        if let (Some(stage), Some(policy)) = (stage, policy.as_deref_mut()) {
            if policy.stage_completed(stage, indices.len(), alerts) {
                for (&i, snapshot) in indices.iter().zip(snapshots) {
                    let device = &mut members[i].device;
                    device.policy_restore(snapshot)?;
                    device.record_event(EventKind::RolloutHalted {
                        stage: stage.name().to_string(),
                        alerts,
                        stage_size: indices.len(),
                    });
                    policy.mark_seen(i, device.quality_reports().len());
                }
                return Ok(Installed { kept, halted: true });
            }
        }
        kept.extend(indices);
    }
    Ok(Installed { kept, halted: false })
}

/// Judges a device's not-yet-inspected quality reports (local update
/// samples, prior install samples), marks them seen, and escalates the
/// repair ladder on the first that triggers.
fn judge_and_repair(
    member: &mut FleetMember,
    state: &mut PolicyState,
    index: usize,
    totals: &mut WireTotals,
) -> Result<(), EdgeError> {
    let reports = member.device.quality_reports();
    let baseline = reports.first().map(|r| r.old_class_accuracy);
    let trigger = state
        .policy
        .unseen_reports(index, reports)
        .iter()
        .find_map(|r| state.policy.judge(r, baseline));
    state.policy.mark_seen(index, reports.len());
    if let Some(rule) = trigger {
        apply_repair(member, state, index, &rule, totals)?;
    }
    Ok(())
}

/// Escalates a device's strike and applies the prescribed repair —
/// rollback → re-anchor → degrade, PR 2's resilience ladder driven by
/// model quality. The repair bumps the model generation but is
/// deliberately left unsampled: the device is quarantined (suspect
/// screening never touches it), and its next staged install sample
/// judges the repaired state.
fn apply_repair(
    member: &mut FleetMember,
    state: &mut PolicyState,
    index: usize,
    rule: &str,
    totals: &mut WireTotals,
) -> Result<(), EdgeError> {
    let action = state.policy.escalate(index);
    let strike = state.policy.strikes(index);
    if action != RepairAction::Degrade {
        member.device.record_event(EventKind::QuarantineEntered {
            rule: rule.to_string(),
            strike,
            rounds: QUARANTINE_ROUNDS,
        });
    }
    match action {
        RepairAction::Rollback => member.device.repair_rollback(strike)?,
        RepairAction::Reanchor => {
            member.device.advance_clock(member.link.transfer_seconds(state.anchor_bytes));
            totals.deploy_bytes += state.anchor_bytes;
            member.device.adopt_deployment(&state.anchor)?;
            // The re-install wiped the device's copy of the committed
            // broadcast: its next federated payload must be a full one.
            member.base_round = STALE_ROUND;
            member.device.record_event(EventKind::Reanchored {
                payload_bytes: state.anchor_bytes,
                strike,
            });
        }
        RepairAction::Degrade => member.device.policy_degrade(strike)?,
    }
    state.policy.mark_seen(index, member.device.quality_reports().len());
    Ok(())
}

impl Fleet {
    /// Deploys the same cloud package onto every `(profile, link)` slot,
    /// charging each device's install download on its own link. Installs
    /// fan out across contiguous device-index bands; the roster, every
    /// device's clock and log, and the `fleet.deploy` span (flops
    /// included) are identical at any `PILOTE_THREADS` setting.
    pub fn deploy(
        mut slots: Vec<(DeviceProfile, LinkModel)>,
        deployment: &Deployment,
        config: FleetConfig,
    ) -> Result<Fleet, EdgeError> {
        assert!(!slots.is_empty(), "a fleet needs at least one device");
        assert!(config.serve_chunk > 0, "serve_chunk must be positive");
        let span = pilote_obs::span("fleet.deploy");
        span.annotate("devices", slots.len() as f64);
        // The package is identical for every device: encode and decode it
        // once at the configured precision and let every install share the
        // decoded package and its exact wire size.
        let (package, wire) = package_for_wire(deployment, config.wire.precision)?;
        let members = map_in_bands(&mut slots, |_, (profile, link)| {
            let mut device = EdgeDevice::install_presized(profile.clone(), &package, link, wire)?;
            device.set_event_capacity(config.event_capacity);
            Ok(FleetMember { device, link: *link, updates_completed: 0, base_round: 0 })
        })
        .into_iter()
        .collect::<Result<Vec<_>, EdgeError>>()?;
        drop(span);
        let deploy_bytes = wire * members.len() as u64;
        Ok(Fleet {
            members,
            config,
            sessions_served: 0,
            windows_served: 0,
            rounds_completed: 0,
            policy: None,
            round: 0,
            base: Some(package.checkpoint),
            wire_totals: WireTotals { deploy_bytes, ..WireTotals::default() },
        })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no devices (never true after [`Fleet::deploy`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The device a user is pinned to: a pure hash of the fleet seed and
    /// the user id, stable for the lifetime of the fleet.
    pub fn route(&self, user_id: u64) -> usize {
        (splitmix64(self.config.seed ^ user_id) % self.members.len() as u64) as usize
    }

    /// Device at `index`.
    pub fn device(&self, index: usize) -> &EdgeDevice {
        &self.members[index].device
    }

    /// Mutable device at `index` (test and harness access).
    pub fn device_mut(&mut self, index: usize) -> &mut EdgeDevice {
        &mut self.members[index].device
    }

    /// Federated rounds completed so far.
    pub fn federated_rounds(&self) -> usize {
        self.rounds_completed
    }

    /// Committed broadcast round — the generation delta payloads
    /// reference ([`crate::wire`]). Bumps once per completed federated
    /// round or fleet-wide rollout.
    pub fn committed_round(&self) -> u64 {
        self.round
    }

    /// The wire configuration this fleet's payloads ship under.
    pub fn wire_config(&self) -> WireConfig {
        self.config.wire
    }

    /// Cumulative wire bytes this fleet has moved, by traffic class —
    /// the exact payload sizes its links were charged with.
    pub fn wire_totals(&self) -> WireTotals {
        self.wire_totals
    }

    /// Serves one user session — a pre-extracted feature matrix
    /// (`[n, 28]`) — on the user's routed device, chunked through the
    /// batched prototype-cache path. Afterwards, runs any federated round
    /// the session schedule now owes ([`FleetConfig::federated_every`]).
    pub fn serve_session(
        &mut self,
        user_id: u64,
        features: &Tensor,
    ) -> Result<Vec<InferenceOutcome>, EdgeError> {
        let mut outcomes = self.serve_routed(&[(user_id, features)])?;
        Ok(outcomes.pop().expect("one session in, one outcome list out"))
    }

    /// Serves a batch of `(user_id, features)` sessions with the roster
    /// **sharded** across worker threads: sessions are routed up front,
    /// each device serves its own sessions in input order on the shard
    /// that owns it, and outcomes are returned in input order.
    ///
    /// Equivalent to calling [`Fleet::serve_session`] once per entry, in
    /// order — same outcomes, device clocks, event logs, counters,
    /// federated schedule (the batch is cut at every
    /// [`FleetConfig::federated_every`] boundary so rounds fire between
    /// exactly the same sessions) and trace: each session's
    /// `fleet.session` span opens on the worker that serves it and is
    /// adopted by the caller in input order, at any `PILOTE_THREADS`
    /// setting.
    ///
    /// # Errors
    /// Any serving error from the underlying devices. When an error is
    /// returned, sessions before the failing federated boundary have still
    /// been served and counted.
    pub fn serve_sessions(
        &mut self,
        sessions: &[(u64, Tensor)],
    ) -> Result<Vec<Vec<InferenceOutcome>>, EdgeError> {
        self.serve_routed(sessions)
    }

    /// The serving core behind [`Fleet::serve_session`] and
    /// [`Fleet::serve_sessions`].
    fn serve_routed<F: Borrow<Tensor> + Sync>(
        &mut self,
        sessions: &[(u64, F)],
    ) -> Result<Vec<Vec<InferenceOutcome>>, EdgeError> {
        let mut results = Vec::with_capacity(sessions.len());
        let mut next = 0usize;
        while next < sessions.len() {
            let remaining = sessions.len() - next;
            let group = if self.config.federated_every > 0 {
                let every = self.config.federated_every as u64;
                let until_round = every - (self.sessions_served % every);
                remaining.min(until_round as usize)
            } else {
                remaining
            };
            let group_sessions = &sessions[next..next + group];
            // Route the whole group first; each device then serves its own
            // sessions in input order, so per-device event order matches
            // the serial walk exactly.
            let mut per_device: Vec<Vec<usize>> = vec![Vec::new(); self.members.len()];
            for (pos, (user_id, _)) in group_sessions.iter().enumerate() {
                per_device[self.route(*user_id)].push(pos);
            }
            let serve_chunk = self.config.serve_chunk;
            // Fan out over busy devices only: one session never spawns.
            let mut busy: Vec<_> = self
                .members
                .iter_mut()
                .enumerate()
                .filter(|(index, _)| !per_device[*index].is_empty())
                .collect();
            let served = map_in_bands(&mut busy, |_, (index, member)| {
                let index = *index;
                per_device[index]
                    .iter()
                    .map(|&pos| {
                        let features = group_sessions[pos].1.borrow();
                        let captured = pilote_obs::capture(|| {
                            let span = pilote_obs::span("fleet.session");
                            span.annotate("device", index as f64);
                            span.annotate("windows", features.rows() as f64);
                            serve_chunked(&mut member.device, features, serve_chunk)
                        });
                        (pos, captured)
                    })
                    .collect::<Vec<_>>()
            });
            let mut by_position: Vec<_> = served.into_iter().flatten().collect();
            by_position.sort_unstable_by_key(|(pos, _)| *pos);
            let mut outcomes = Vec::with_capacity(group);
            for (_, (outcome, captured)) in by_position {
                pilote_obs::adopt(captured);
                outcomes.push(outcome);
            }
            for outcome in outcomes {
                results.push(outcome?);
            }
            let group_windows: u64 =
                group_sessions.iter().map(|(_, features)| features.borrow().rows() as u64).sum();
            self.sessions_served += group as u64;
            self.windows_served += group_windows;
            if pilote_obs::enabled() {
                pilote_obs::counter("fleet.sessions").add(group as u64);
                pilote_obs::counter("fleet.windows_served").add(group_windows);
            }
            if self.config.federated_every > 0
                && self.sessions_served.is_multiple_of(self.config.federated_every as u64)
            {
                self.federated_round()?;
            }
            next += group;
        }
        Ok(results)
    }

    /// Buffers one labelled feature vector on the user's routed device
    /// (the user tagged part of a session with an activity name). When the
    /// device's pending buffer reaches [`FleetConfig::update_threshold`],
    /// runs the incremental update in place.
    pub fn label_sample(
        &mut self,
        user_id: u64,
        label: usize,
        features: Tensor,
    ) -> Result<Option<UpdateStatus>, EdgeError> {
        let index = self.route(user_id);
        let member = &mut self.members[index];
        member.device.label_sample(label, features);
        if self.config.update_threshold > 0
            && member.device.pending_samples() >= self.config.update_threshold
        {
            let status = member
                .device
                .update_faulted(self.config.exemplar_budget, None)?;
            if status == UpdateStatus::Completed {
                member.updates_completed += 1;
            }
            if pilote_obs::enabled() {
                pilote_obs::counter("fleet.updates").inc();
            }
            return Ok(Some(status));
        }
        Ok(None)
    }

    /// Runs one federated round across the whole fleet, in device-index
    /// order:
    ///
    /// 1. with a policy, a control step acts on the quality reports
    ///    sampled since the last round (quarantine and repair,
    ///    `docs/POLICY.md`);
    /// 2. every device with a non-empty support set — and, with a policy,
    ///    that the policy lets contribute — uploads its parameters;
    /// 3. the uploads are averaged and the merge encoded for broadcast
    ///    before any device is touched, so a failed round leaves no trace;
    /// 4. each contributor pays its upload on its own link, and everyone
    ///    else logs a typed [`EventKind::FederatedExcluded`] —
    ///    `Quarantined` when the policy holds it out, else `ZeroSupport`
    ///    (a zero-sample model must not out-vote devices that hold data);
    /// 5. the merge installs through the staged-install helper: one wave
    ///    of every device without a policy, canary → cohort → fleet over
    ///    the receiving devices with one, each receiver paying its
    ///    download and sampling its quality monitor;
    /// 6. a halted install (policy only) screens every contributor for
    ///    silent poison and counts for nobody; a completed one commits
    ///    the decoded broadcast as the next delta base, counts the round
    ///    and serves one round of every quarantine sentence.
    ///
    /// Both directions ship through the binary codec ([`crate::wire`]) at
    /// the fleet's [`FleetConfig::wire`] setting: uploads and the merged
    /// broadcast are delta-encoded against the committed base when the
    /// member is current (full-payload fallback otherwise), and what gets
    /// averaged and installed is the **decoded** payload — so quantised
    /// precisions pay their accuracy cost for real, while the default
    /// `f32` round trip is bitwise lossless. Wire preparation fans out
    /// per band and merges back in device-index order, so the round is
    /// byte-identical across runs and `PILOTE_THREADS` settings.
    pub fn federated_round(&mut self) -> Result<(), EdgeError> {
        let Fleet { members, policy, config, round, base, wire_totals, rounds_completed, .. } =
            self;
        let span = pilote_obs::span("fleet.federated_round");
        span.annotate("devices", members.len() as f64);
        if let Some(state) = policy.as_mut() {
            for (index, member) in members.iter_mut().enumerate() {
                judge_and_repair(member, state, index, wire_totals)?;
            }
        }

        // Capture + encode + aggregator-side decode fan out across
        // shards; the decoded checkpoint is what enters the average.
        let cfg = config.wire;
        let committed = *round;
        let base_ref = base.as_ref();
        let policy_ref = policy.as_ref().map(|state| &state.policy);
        let held_out = |index| policy_ref.is_some_and(|p| !p.contributes(index));
        let payloads = map_in_bands(members, |index, member| {
            let support = member.device.model_mut().support().len();
            if support == 0 || held_out(index) {
                return None;
            }
            let ckpt = Checkpoint::capture(member.device.model_mut().net_mut().layers_mut());
            Some((round_trip_upload(&ckpt, base_ref, committed, member.base_round, cfg), support))
        });
        let mut contributions = Vec::new();
        let mut uploads = vec![None; members.len()];
        for (index, payload) in payloads.into_iter().enumerate() {
            if let Some((upload, support)) = payload {
                let (decoded, bytes) = upload.map_err(codec_package_error)?;
                contributions.push((decoded, support));
                uploads[index] = Some(bytes);
            }
        }
        let participants = contributions.len();
        let merged = federated_average(&contributions)?;
        let mut broadcast =
            RoundBroadcast::new(merged, base_ref, committed, cfg).map_err(codec_package_error)?;
        let receives = |index| policy_ref.is_none_or(|p| p.receives(index));
        if broadcast.canonical_is_delta
            && members.iter().enumerate().any(|(i, m)| receives(i) && m.base_round != committed)
        {
            broadcast.ensure_full().map_err(codec_package_error)?;
        }

        for ((index, member), upload) in members.iter_mut().enumerate().zip(&uploads) {
            if let Some(bytes) = *upload {
                member.device.advance_clock(member.link.transfer_seconds(bytes));
                wire_totals.federated_upload_bytes += bytes;
            } else {
                let reason = if held_out(index) {
                    ExclusionReason::Quarantined
                } else {
                    ExclusionReason::ZeroSupport
                };
                member.device.record_event(EventKind::FederatedExcluded { participants, reason });
            }
        }

        // Every install is the **decoded** broadcast payload for that
        // member — delta for current members, the full fallback for
        // stale ones.
        let installed = staged_install(members, policy.as_mut().map(|s| &mut s.policy), |member| {
            let (down, ckpt, _) = broadcast.payload_for(member.base_round);
            member.device.advance_clock(member.link.transfer_seconds(down));
            wire_totals.federated_download_bytes += down;
            ckpt.restore(member.device.model_mut().net_mut().layers_mut())?;
            member.device.model_mut().refresh_prototypes()?;
            member.device.note_federated_round(participants);
            Ok(())
        })?;

        if installed.halted {
            // Suspect screening: sample every contributor. The monitor
            // gates on generation, so a healthy contributor (sampled at
            // its last commit) yields nothing, while a silently poisoned
            // one — generation moved without a sample — now gets judged
            // and repaired. Judging includes the absolute screening
            // floor: a culprit that sat *inside* the halted wave was just
            // restored to its own poisoned snapshot, so its incremental
            // forgetting is zero, but its accuracy against the armed
            // baseline is not.
            let state = policy.as_mut().expect("only a policied install halts");
            for index in (0..members.len()).filter(|&i| uploads[i].is_some()) {
                members[index].device.sample_quality()?;
                judge_and_repair(&mut members[index], state, index, wire_totals)?;
            }
            state.policy.note_halted_round();
            drop(span);
            if pilote_obs::enabled() {
                pilote_obs::counter("fleet.policy.halted_rounds").inc();
            }
            return Ok(());
        }

        // Members that installed the canonical payload are current for
        // the new round; full-fallback and held-out members keep falling
        // back until a lossless install catches them up.
        let new_round = committed + 1;
        for &index in &installed.kept {
            let member = &mut members[index];
            let (_, _, current) = broadcast.payload_for(member.base_round);
            if current {
                member.base_round = new_round;
            }
        }
        *round = new_round;
        *base = Some(broadcast.canonical);
        *rounds_completed += 1;
        if let Some(state) = policy.as_mut() {
            for (index, strikes) in state.policy.finish_round() {
                members[index].device.record_event(EventKind::QuarantineLifted { strikes });
            }
        }
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.federated_rounds").inc();
        }
        Ok(())
    }

    /// Arms the self-healing control loop over this fleet
    /// ([`crate::policy`]): stage plan derived from the fleet seed, every
    /// device starting healthy, and `anchor` as the strike-2 re-anchor
    /// package. From then on [`Fleet::federated_round`] runs a control
    /// step and holds quarantined devices out of the merge, and both it
    /// and [`Fleet::rollout_deployment`] install in stages with
    /// halt-and-rollback.
    pub fn enable_policy(&mut self, anchor: Deployment) -> Result<(), EdgeError> {
        // The anchor re-installs over the wire: store the decoded package
        // at the configured precision with its exact binary size, so a
        // re-anchor ships (and installs) the same bits a deploy would.
        let (anchor, anchor_bytes) = package_for_wire(&anchor, self.config.wire.precision)?;
        self.policy = Some(PolicyState {
            policy: FleetPolicy::new(self.members.len(), self.config.seed),
            anchor,
            anchor_bytes,
        });
        Ok(())
    }

    /// The enabled self-healing policy, if any.
    pub fn policy(&self) -> Option<&FleetPolicy> {
        self.policy.as_ref().map(|s| &s.policy)
    }

    /// Enables per-device adaptive threshold derivation on every armed
    /// quality monitor: each device's forgetting/drift thresholds then
    /// track its own probe history instead of the shared constants (see
    /// [`pilote_core::QualityMonitor::enable_adaptive`]).
    pub fn enable_adaptive_thresholds(&mut self) {
        for member in &mut self.members {
            member.device.enable_adaptive_thresholds();
        }
    }

    /// Installs a new cloud package across the fleet through the same
    /// staged install as a federated round: one wave of every device
    /// without a policy; canary → cohort → fleet with halt-and-restore
    /// with one. Every installer pays the download on its own link and
    /// samples its quality monitor. Returns `true` when every wave
    /// completed, `false` when a wave halted (its installs restored
    /// exactly).
    ///
    /// A completed rollout re-bases the federated delta chain on the
    /// package checkpoint — every installer now holds exactly those bits
    /// — and, with a policy, makes the package the re-anchor target.
    pub fn rollout_deployment(&mut self, deployment: &Deployment) -> Result<bool, EdgeError> {
        // Every device installs the decoded wire package (lossless at
        // `f32`, genuinely quantised below it) and pays its exact binary
        // size on the link.
        let (package, wire) = package_for_wire(deployment, self.config.wire.precision)?;
        let Fleet { members, policy, round, base, wire_totals, .. } = self;
        let span = pilote_obs::span("fleet.rollout");
        span.annotate("devices", members.len() as f64);
        let installed = staged_install(members, policy.as_mut().map(|s| &mut s.policy), |member| {
            member.device.advance_clock(member.link.transfer_seconds(wire));
            wire_totals.deploy_bytes += wire;
            member.device.adopt_deployment(&package)?;
            member.device.record_event(EventKind::Deployed { payload_bytes: wire });
            Ok(())
        })?;
        if installed.halted {
            // Devices from completed waves keep the new package, but the
            // rollout never commits: their copy of the committed
            // broadcast is gone, so their next federated payload must be
            // a full one.
            for &index in &installed.kept {
                members[index].base_round = STALE_ROUND;
            }
            drop(span);
            if pilote_obs::enabled() {
                pilote_obs::counter("fleet.policy.halted_rollouts").inc();
            }
            return Ok(false);
        }
        // The package is the new federated delta base. Held-out devices
        // (degraded) never installed it and stay on the full-payload
        // fallback.
        *round += 1;
        for &index in &installed.kept {
            members[index].base_round = *round;
        }
        *base = Some(package.checkpoint.clone());
        if let Some(state) = policy.as_mut() {
            state.anchor = package;
            state.anchor_bytes = wire;
        }
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.rollouts").inc();
        }
        Ok(true)
    }

    /// Arms a [`pilote_core::QualityMonitor`] with the same probe set on
    /// every device, in device-index order. Each monitor takes its
    /// baseline measurement immediately and then samples at every later
    /// generation bump (updates, rollbacks, degradations and federated
    /// installs), raising [`crate::events::EventKind::AlertRaised`]
    /// events into the device log.
    pub fn arm_quality_monitors(
        &mut self,
        probe: &Dataset,
        old_labels: &[usize],
    ) -> Result<(), EdgeError> {
        for member in &mut self.members {
            member.device.arm_quality_monitor(probe.clone(), old_labels)?;
        }
        Ok(())
    }

    /// [`Fleet::arm_quality_monitors`] plus session-matrix recording on
    /// every device: each monitor also stamps one row of a session × task
    /// [`pilote_core::AccuracyMatrix`] per observation (the baseline taken
    /// here is row 0), collected fleet-wide by
    /// [`Fleet::session_matrix_rollup`].
    pub fn arm_quality_monitors_with_sessions(
        &mut self,
        probe: &Dataset,
        old_labels: &[usize],
        tasks: &[TaskGroup],
    ) -> Result<(), EdgeError> {
        for member in &mut self.members {
            member.device.arm_quality_monitor_with_sessions(
                probe.clone(),
                old_labels,
                tasks.to_vec(),
            )?;
        }
        Ok(())
    }

    /// Collects every device's telemetry snapshot over its own link
    /// (charging real wire bytes and modeled transfer time, like any other
    /// deployment traffic) and merges them into a deterministic fleet-wide
    /// [`TelemetryRollup`] in device-index order.
    ///
    /// Each payload is sized by the binary telemetry codec
    /// ([`crate::wire::snapshot_wire_bytes`]) — the exact bytes
    /// [`crate::wire::encode_snapshot`] would emit.
    ///
    /// Under `PILOTE_OBS=0` each device ships an empty snapshot — the
    /// rollup stays well-formed (all sections empty) and the devices are
    /// still counted, but no telemetry leaves the device.
    ///
    /// # Errors
    /// [`EdgeError::Rollup`] when two devices disagree on histogram
    /// bucket bounds.
    pub fn telemetry_rollup(&mut self) -> Result<TelemetryRollup, EdgeError> {
        let span = pilote_obs::span("fleet.telemetry_rollup");
        span.annotate("devices", self.members.len() as f64);
        // Snapshot + wire sizing fan out across shards; the clock charges
        // and the rollup merge run serially in device-index order, which
        // keeps gauge last-write-wins and histogram-bounds errors
        // identical to the serial walk.
        let payloads = map_in_bands(&mut self.members, |_, member| {
            let snapshot = member.device.telemetry_snapshot();
            let bytes = wire::snapshot_wire_bytes(&snapshot);
            (snapshot, bytes)
        });
        let mut rollup = TelemetryRollup::new();
        for (member, (snapshot, bytes)) in self.members.iter_mut().zip(payloads) {
            member.device.advance_clock(member.link.transfer_seconds(bytes));
            self.wire_totals.telemetry_bytes += bytes;
            rollup.merge_snapshot(&snapshot)?;
        }
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.telemetry_rollups").inc();
        }
        Ok(rollup)
    }

    /// Collects every device's **delta** telemetry — the increment since
    /// that device's previous upload ([`EdgeDevice::telemetry_delta`]) —
    /// charges each link with the (much smaller) delta payload, and merges
    /// the deltas into `rollup` in device-index order.
    ///
    /// Summing delta uploads at the cloud reproduces the full-snapshot
    /// rollup exactly: counter and histogram merges are commutative
    /// associative sums, and gauges ship their current value every upload
    /// so last-write-wins lands on the same device either way. See
    /// `docs/SCALING.md` for the wire protocol; the conservation property
    /// is tested in `tests/fleet_props.rs`.
    ///
    /// Under `PILOTE_OBS=0` each device ships an empty snapshot and keeps
    /// its baseline untouched.
    ///
    /// # Errors
    /// [`EdgeError::Rollup`] when two devices disagree on histogram
    /// bucket bounds.
    pub fn upload_telemetry_deltas(
        &mut self,
        rollup: &mut TelemetryRollup,
    ) -> Result<(), EdgeError> {
        let payloads = map_in_bands(&mut self.members, |_, member| {
            let delta = member.device.telemetry_delta();
            let bytes = wire::snapshot_wire_bytes(&delta);
            (delta, bytes)
        });
        for (member, (delta, bytes)) in self.members.iter_mut().zip(payloads) {
            member.device.advance_clock(member.link.transfer_seconds(bytes));
            self.wire_totals.telemetry_bytes += bytes;
            rollup.merge_snapshot(&delta)?;
        }
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.telemetry_uploads").inc();
        }
        Ok(())
    }

    /// Collects every device's session × task accuracy matrix over its
    /// own link (each payload sized by the binary `PWM1` codec,
    /// [`crate::wire::session_matrix_wire_bytes`]) and merges them into a
    /// [`ScenarioRollup`] in device-index order — the same merge-order
    /// contract as [`Fleet::telemetry_rollup`], so the fleet curves are
    /// byte-identical across runs and `PILOTE_THREADS` settings.
    ///
    /// Devices without session recording (armed via
    /// [`Fleet::arm_quality_monitors`] or not at all) ship nothing and are
    /// skipped. Unlike telemetry snapshots, matrices are device
    /// *behaviour* records fed by the always-on quality monitor, so the
    /// `PILOTE_OBS` kill switch does not empty them.
    pub fn session_matrix_rollup(&mut self) -> ScenarioRollup {
        let span = pilote_obs::span("fleet.session_matrix_rollup");
        span.annotate("devices", self.members.len() as f64);
        let payloads = map_in_bands(&mut self.members, |_, member| {
            member.device.session_matrix().map(|matrix| {
                let bytes = wire::session_matrix_wire_bytes(matrix);
                (matrix.clone(), bytes)
            })
        });
        let mut rollup = ScenarioRollup::new();
        for (member, payload) in self.members.iter_mut().zip(payloads) {
            let Some((matrix, bytes)) = payload else { continue };
            member.device.advance_clock(member.link.transfer_seconds(bytes));
            self.wire_totals.telemetry_bytes += bytes;
            rollup.merge_matrix(&matrix);
        }
        drop(span);
        if pilote_obs::enabled() {
            pilote_obs::counter("fleet.session_matrix_rollups").inc();
        }
        rollup
    }

    /// Fleet-wide summary.
    pub fn stats(&self) -> FleetStats {
        let devices = self
            .members
            .iter()
            .map(|m| DeviceStats {
                name: m.device.profile().name.clone(),
                windows_served: m.device.log().served_count(),
                cache_rebuilds: m.device.cache_rebuilds(),
                updates: m.updates_completed,
                classes: m.device.known_classes().len(),
                clock_seconds: m.device.log().now(),
                degraded: m.device.is_degraded(),
            })
            .collect();
        FleetStats {
            devices,
            sessions: self.sessions_served,
            windows: self.windows_served,
            federated_rounds: self.rounds_completed,
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("devices", &self.members.len())
            .field("sessions", &self.sessions_served)
            .field("federated_rounds", &self.rounds_completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudServer;
    use crate::events::EventKind;
    use crate::policy::DeviceHealth;
    use pilote_core::PiloteConfig;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::features::extract_batch;
    use pilote_har_data::preprocess::Normalizer;
    use pilote_har_data::{Activity, Simulator, FEATURE_DIM};

    fn deployment() -> (Deployment, Simulator, Normalizer) {
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

    fn slots(n: usize) -> Vec<(DeviceProfile, LinkModel)> {
        let links = [LinkModel::wifi(), LinkModel::cellular_4g(), LinkModel::weak_cellular()];
        DeviceProfile::roster(n)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, links[i % links.len()]))
            .collect()
    }

    fn fleet(n: usize, config: FleetConfig) -> (Fleet, Simulator, Normalizer) {
        let (deployment, sim, norm) = deployment();
        let fleet = Fleet::deploy(slots(n), &deployment, config).expect("deploy");
        (fleet, sim, norm)
    }

    fn session_features(sim: &mut Simulator, norm: &Normalizer, activity: Activity, windows: usize) -> Tensor {
        let raw = sim.raw_dataset(&[(activity, windows)]);
        norm.transform(&extract_batch(&raw).expect("features")).expect("norm")
    }

    #[test]
    fn routing_is_deterministic_and_spreads_users() {
        let (fleet, _, _) = fleet(8, FleetConfig::default());
        let hit: std::collections::BTreeSet<usize> =
            (0..200u64).map(|u| fleet.route(u)).collect();
        assert_eq!(hit.len(), 8, "200 users must reach all 8 devices");
        for u in 0..200u64 {
            assert_eq!(fleet.route(u), fleet.route(u));
        }
    }

    #[test]
    fn deploy_charges_each_link_separately() {
        let (fleet, _, _) = fleet(3, FleetConfig::default());
        // Slot 0 is wifi, slot 2 weak cellular: same payload, slower link,
        // later deployment timestamp.
        let t0 = fleet.device(0).log().now();
        let t2 = fleet.device(2).log().now();
        assert!(t2 > t0, "weak-cellular install must take longer than wifi");
    }

    #[test]
    fn sessions_are_served_on_the_routed_device_only() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(4, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 9);
        let user = 7u64;
        let index = fleet.route(user);
        let outcomes = fleet.serve_session(user, &features).expect("serve");
        assert_eq!(outcomes.len(), 9);
        for i in 0..fleet.len() {
            let expect = if i == index { 9 } else { 0 };
            assert_eq!(fleet.device(i).log().served_count(), expect, "device {i}");
        }
        assert_eq!(fleet.stats().windows, 9);
    }

    #[test]
    fn chunked_serving_is_bitwise_identical_to_one_big_batch() {
        // serve_chunk: 4 forces 3 chunks for 10 windows.
        let small =
            FleetConfig { serve_chunk: 4, federated_every: 0, ..FleetConfig::default() };
        let big =
            FleetConfig { serve_chunk: 1024, federated_every: 0, ..FleetConfig::default() };
        let (mut fleet_small, mut sim, norm) = fleet(4, small);
        let (mut fleet_big, _, _) = fleet(4, big);
        let features = session_features(&mut sim, &norm, Activity::Walk, 10);
        let a = fleet_small.serve_session(3, &features).expect("serve");
        let b = fleet_big.serve_session(3, &features).expect("serve");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.predicted, y.predicted);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
        }
    }

    #[test]
    fn labelling_past_threshold_triggers_an_update() {
        let cfg =
            FleetConfig { update_threshold: 10, federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Run, 10);
        let user = 1u64;
        let index = fleet.route(user);
        let mut last = None;
        for i in 0..features.rows() {
            last = fleet
                .label_sample(user, Activity::Run.label(), Tensor::vector(features.row(i)))
                .expect("label");
        }
        assert_eq!(last, Some(UpdateStatus::Completed));
        assert_eq!(fleet.device(index).known_classes().len(), 3);
        assert_eq!(fleet.stats().devices[index].updates, 1);
        // Other devices don't know Run until a federated round spreads it.
        for i in (0..fleet.len()).filter(|&i| i != index) {
            assert_eq!(fleet.device(i).known_classes().len(), 2);
        }
    }

    #[test]
    fn federated_schedule_fires_every_n_sessions() {
        let cfg = FleetConfig { federated_every: 3, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 2);
        for user in 0..7u64 {
            fleet.serve_session(user, &features).expect("serve");
        }
        assert_eq!(fleet.federated_rounds(), 2, "rounds after sessions 3 and 6");
        // Every device saw both rounds in its log.
        for i in 0..fleet.len() {
            let rounds = fleet
                .device(i)
                .log()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::FederatedRound { .. }))
                .count();
            assert_eq!(rounds, 2, "device {i}");
        }
    }

    #[test]
    fn federated_round_charges_link_time_and_invalidates_caches() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 4);
        fleet.serve_session(0, &features).expect("serve");
        let clocks_before: Vec<f64> = (0..3).map(|i| fleet.device(i).log().now()).collect();
        fleet.federated_round().expect("round");
        for (i, before) in clocks_before.iter().enumerate() {
            assert!(
                fleet.device(i).log().now() > *before,
                "device {i} paid no link time for the round"
            );
        }
        // The round reinstalls parameters on every device → generation
        // moved → the next serve on any device rebuilds its cache.
        for user in 0..64u64 {
            let idx = fleet.route(user);
            let before = fleet.device(idx).cache_rebuilds();
            let row = Tensor::vector(features.row(0)).reshape([1, FEATURE_DIM]).expect("row");
            fleet.serve_session(user, &row).expect("serve");
            if fleet.device(idx).log().served_count() > 1 {
                assert_eq!(
                    fleet.device(idx).cache_rebuilds(),
                    before + 1,
                    "device {idx} served before the round must rebuild after it"
                );
                return;
            }
        }
        panic!("no user routed back to an already-serving device");
    }

    /// Held-out Still/Walk probe windows, normalised with the deployment
    /// normaliser.
    fn probe_set(sim: &mut Simulator, norm: &Normalizer) -> Dataset {
        let raw = sim.raw_dataset(&[(Activity::Still, 15), (Activity::Walk, 15)]);
        let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
        Dataset::new(features, raw.labels).expect("probe")
    }

    #[test]
    fn federated_round_samples_armed_quality_monitors() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let probe = probe_set(&mut sim, &norm);
        let old = [Activity::Still.label(), Activity::Walk.label()];
        fleet.arm_quality_monitors(&probe, &old).expect("arm");
        for i in 0..fleet.len() {
            assert_eq!(fleet.device(i).quality_reports().len(), 1, "device {i} baseline");
        }
        // The round installs merged parameters everywhere → every armed
        // monitor must sample the new generation.
        fleet.federated_round().expect("round");
        for i in 0..fleet.len() {
            assert_eq!(
                fleet.device(i).quality_reports().len(),
                2,
                "device {i} must sample the federated install"
            );
        }
    }

    #[test]
    fn f32_delta_rounds_match_full_rounds_bitwise_and_cost_less_link_time() {
        let delta_cfg = FleetConfig {
            update_threshold: 10,
            federated_every: 0,
            wire: WireConfig::delta(WirePrecision::F32),
            ..FleetConfig::default()
        };
        let full_cfg =
            FleetConfig { wire: WireConfig::full(WirePrecision::F32), ..delta_cfg.clone() };
        let (mut with_delta, mut sim, norm) = fleet(3, delta_cfg);
        let (mut with_full, _, _) = fleet(3, full_cfg);
        // Diverge one device with a local update — identically on both
        // fleets — so round payloads carry real parameter changes.
        let features = session_features(&mut sim, &norm, Activity::Run, 10);
        for i in 0..features.rows() {
            for f in [&mut with_delta, &mut with_full] {
                f.label_sample(1, Activity::Run.label(), Tensor::vector(features.row(i)))
                    .expect("label");
            }
        }
        with_delta.federated_round().expect("delta round");
        with_full.federated_round().expect("full round");
        assert_eq!(with_delta.committed_round(), 1);
        assert_eq!(with_full.committed_round(), 1);
        let mut delta_time = 0.0;
        let mut full_time = 0.0;
        for i in 0..with_delta.len() {
            let a =
                Checkpoint::capture(with_delta.device_mut(i).model_mut().net_mut().layers_mut());
            let b =
                Checkpoint::capture(with_full.device_mut(i).model_mut().net_mut().layers_mut());
            assert_eq!(a, b, "device {i}: f32 delta and full rounds must agree bitwise");
            delta_time += with_delta.device(i).log().now();
            full_time += with_full.device(i).log().now();
        }
        // The two never-updated devices upload near-empty deltas (every
        // layer still matches the committed base), dwarfing the few bytes
        // of per-layer flag overhead the changed payloads add.
        assert!(
            delta_time < full_time,
            "delta rounds must cost less total link time: {delta_time} vs {full_time}"
        );
    }

    #[test]
    fn quantised_rounds_commit_and_keep_the_fleet_serving() {
        let cfg = FleetConfig {
            federated_every: 0,
            wire: WireConfig::delta(WirePrecision::I8),
            ..FleetConfig::default()
        };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 4);
        fleet.serve_session(0, &features).expect("serve");
        fleet.federated_round().expect("round");
        assert_eq!(fleet.committed_round(), 1);
        // The second round deltas against the base the first one committed.
        fleet.federated_round().expect("second round");
        assert_eq!(fleet.committed_round(), 2);
        fleet.serve_session(1, &features).expect("serve after quantised installs");
    }

    #[test]
    fn unpolicied_rollout_rebases_the_delta_chain() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, _, _) = fleet(2, cfg);
        let (package, _, _) = deployment();
        assert!(fleet.rollout_deployment(&package).expect("rollout"));
        assert_eq!(fleet.committed_round(), 1, "a fleet-wide install commits a new base");
        fleet.federated_round().expect("round after rollout");
        assert_eq!(fleet.committed_round(), 2);
    }

    #[test]
    fn telemetry_rollup_totals_match_per_device_snapshots() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(3, cfg);
        let features = session_features(&mut sim, &norm, Activity::Still, 5);
        for user in 0..6u64 {
            fleet.serve_session(user, &features).expect("serve");
        }
        let clocks_before: Vec<f64> = (0..3).map(|i| fleet.device(i).log().now()).collect();
        let per_device: Vec<_> = (0..3).map(|i| fleet.device(i).telemetry_snapshot()).collect();
        let rollup = fleet.telemetry_rollup().expect("rollup");
        assert_eq!(rollup.devices, 3);
        if !pilote_obs::enabled() {
            assert!(rollup.counters.is_empty(), "kill switch ships empty snapshots");
            return;
        }
        // Rollup counters are exactly the sum of the per-device snapshots.
        let mut expected = std::collections::BTreeMap::new();
        for snap in &per_device {
            for (name, value) in &snap.counters {
                *expected.entry(name.clone()).or_insert(0u64) += value;
            }
        }
        assert_eq!(rollup.counters, expected);
        assert_eq!(rollup.counter("edge.batch_served"), 30, "6 sessions × 5 windows");
        // Shipping the snapshot charges each device's own link.
        for (i, before) in clocks_before.iter().enumerate() {
            assert!(
                fleet.device(i).log().now() > *before,
                "device {i} paid no link time for its telemetry upload"
            );
        }
    }

    #[test]
    fn stats_summarise_the_fleet() {
        let cfg = FleetConfig { federated_every: 2, ..FleetConfig::default() };
        let (mut fleet, mut sim, norm) = fleet(8, cfg);
        let features = session_features(&mut sim, &norm, Activity::Walk, 3);
        for user in 0..8u64 {
            fleet.serve_session(user, &features).expect("serve");
        }
        let stats = fleet.stats();
        assert_eq!(stats.devices.len(), 8);
        assert_eq!(stats.sessions, 8);
        assert_eq!(stats.windows, 24);
        assert_eq!(stats.federated_rounds, 4);
        assert_eq!(
            stats.devices.iter().map(|d| d.windows_served).sum::<u64>(),
            24
        );
        // Serde round-trip: FleetStats is a report payload.
        let json = serde_json::to_string(&stats).expect("serialise");
        let back: FleetStats = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, stats);
    }

    /// Runs `f` under an `n`-thread zero-threshold config, restoring the
    /// previous config afterwards. Kernel results are thread-count
    /// invariant, so a concurrent test observing the temporary config can
    /// only change scheduling, never outcomes.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let prev = parallel::current();
        parallel::configure(parallel::ThreadConfig { num_threads: n, min_parallel_len: 1 });
        let out = f();
        parallel::configure(prev);
        out
    }

    fn log_json(fleet: &Fleet, index: usize) -> String {
        serde_json::to_string(fleet.device(index).log()).expect("log json")
    }

    #[test]
    fn bulk_serving_matches_serial_sessions_at_any_thread_count() {
        let cfg = FleetConfig { federated_every: 3, ..FleetConfig::default() };
        let (mut serial, mut sim, norm) = fleet(4, cfg.clone());
        let sessions: Vec<(u64, Tensor)> = (0..7u64)
            .map(|u| (u, session_features(&mut sim, &norm, Activity::Walk, 4)))
            .collect();
        let mut expected = Vec::new();
        for (user, features) in &sessions {
            expected.push(serial.serve_session(*user, features).expect("serve"));
        }
        for n in [1usize, 4] {
            let (mut sharded, _, _) = fleet(4, cfg.clone());
            let got = with_threads(n, || sharded.serve_sessions(&sessions).expect("serve"));
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().flatten().zip(expected.iter().flatten()) {
                assert_eq!(a.predicted, b.predicted);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
            assert_eq!(sharded.federated_rounds(), serial.federated_rounds(), "{n} threads");
            assert_eq!(
                serde_json::to_string(&sharded.stats()).expect("stats json"),
                serde_json::to_string(&serial.stats()).expect("stats json"),
                "{n} threads"
            );
            for i in 0..serial.len() {
                assert_eq!(
                    log_json(&sharded, i),
                    log_json(&serial, i),
                    "device {i} log at {n} threads"
                );
            }
        }
    }

    #[test]
    fn delta_uploads_sum_to_the_full_snapshot_rollup() {
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let (mut fleet_delta, mut sim, norm) = fleet(3, cfg.clone());
        let (mut fleet_full, _, _) = fleet(3, cfg);
        let still = session_features(&mut sim, &norm, Activity::Still, 5);
        let walk = session_features(&mut sim, &norm, Activity::Walk, 6);
        let mut delta_rollup = TelemetryRollup::new();
        // Two upload windows for the delta fleet, one whole-life snapshot
        // upload for the reference fleet — same served schedule.
        for features in [&still, &walk] {
            for user in 0..4u64 {
                fleet_delta.serve_session(user, features).expect("serve");
                fleet_full.serve_session(user, features).expect("serve");
            }
            fleet_delta.upload_telemetry_deltas(&mut delta_rollup).expect("upload");
        }
        let full_rollup = fleet_full.telemetry_rollup().expect("rollup");
        if !pilote_obs::enabled() {
            assert!(delta_rollup.counters.is_empty(), "kill switch ships empty deltas");
            return;
        }
        // Counters and histograms are conserved exactly; gauges are
        // point-in-time (the delta fleet's clocks include an extra upload
        // charge) and device counts differ (one merge per upload), so
        // neither is compared.
        assert_eq!(delta_rollup.counters, full_rollup.counters);
        assert_eq!(delta_rollup.histograms, full_rollup.histograms);
    }

    #[test]
    fn deploy_applies_the_configured_event_capacity() {
        // serve_chunk 2 → a 6-window session emits 3 BatchServed events,
        // overflowing the 2-slot ring on top of the install event.
        let cfg = FleetConfig {
            event_capacity: 2,
            serve_chunk: 2,
            federated_every: 0,
            ..FleetConfig::default()
        };
        let (mut fleet, mut sim, norm) = fleet(2, cfg);
        assert_eq!(fleet.device(0).log().capacity(), 2);
        let features = session_features(&mut sim, &norm, Activity::Still, 6);
        let user = 0u64;
        let index = fleet.route(user);
        fleet.serve_session(user, &features).expect("serve");
        assert!(fleet.device(index).log().events().len() <= 2, "ring must stay bounded");
        assert!(fleet.device(index).log().evicted() > 0, "schedule must overflow the ring");
        // Derived counts read the running totals, not the retained window.
        assert_eq!(fleet.device(index).log().served_count(), 6);
        assert_eq!(fleet.stats().devices[index].windows_served, 6);
    }

    /// A policied fleet: armed monitors plus the self-healing policy
    /// anchored on the original deployment.
    fn policied_fleet(n: usize) -> (Fleet, Deployment) {
        let (deployment, mut sim, norm) = deployment();
        let cfg = FleetConfig { federated_every: 0, ..FleetConfig::default() };
        let mut fleet = Fleet::deploy(slots(n), &deployment, cfg).expect("deploy");
        let probe = probe_set(&mut sim, &norm);
        let old = [Activity::Still.label(), Activity::Walk.label()];
        fleet.arm_quality_monitors(&probe, &old).expect("arm");
        fleet.enable_policy(deployment.clone()).expect("policy");
        (fleet, deployment)
    }

    /// Overwrites a device's net parameters with a fixed junk pattern and
    /// commits the damage (prototypes recomputed through the ruined net),
    /// collapsing old-class probe accuracy.
    fn poison(device: &mut EdgeDevice) {
        use pilote_nn::Layer;
        let model = device.model_mut();
        for (p, _) in model.net_mut().layers_mut().params_and_grads() {
            for (k, v) in p.as_mut_slice().iter_mut().enumerate() {
                *v = ((k % 7) as f32 - 3.0) * 1.5;
            }
        }
        model.refresh_prototypes().expect("refresh");
    }

    #[test]
    fn policy_quarantines_alerting_device_and_completes_the_round() {
        let (mut fleet, _) = policied_fleet(5);
        let victim = 2usize;
        poison(fleet.device_mut(victim));
        let report =
            fleet.device_mut(victim).sample_quality().expect("sample").expect("report");
        assert!(FleetPolicy::triggering_alert(&report).is_some(), "poison must alert");

        fleet.federated_round().expect("round");

        // The control step quarantined and rolled the victim back before
        // collection, so the merge stayed clean and every stage completed.
        let policy = fleet.policy().expect("policy");
        assert!(matches!(policy.health(victim), DeviceHealth::Quarantined { .. }));
        assert_eq!(policy.strikes(victim), 1);
        let summary = policy.summary();
        assert_eq!(summary.quarantines, 1);
        assert_eq!(summary.rollbacks, 1);
        assert_eq!(summary.halts, 0);
        assert_eq!(summary.rounds_completed, 1);
        let events = fleet.device(victim).log().events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::QuarantineEntered { strike: 1, .. })));
        assert!(events.iter().any(|e| matches!(e.kind, EventKind::RepairRollback { strike: 1 })));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::FederatedExcluded { reason: ExclusionReason::Quarantined, .. }
        )));
        for i in (0..fleet.len()).filter(|&i| i != victim) {
            assert!(
                fleet
                    .device(i)
                    .log()
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::FederatedRound { .. })),
                "healthy device {i} must finish the staged install"
            );
        }
    }

    #[test]
    fn silent_poison_halts_the_canary_and_screening_catches_the_culprit() {
        let (mut fleet, _) = policied_fleet(5);
        // The culprit never samples its monitor: the bad weights enter
        // the merge and only the canary stage can catch them.
        let culprit = 2usize;
        poison(fleet.device_mut(culprit));

        fleet.federated_round().expect("round");

        let policy = fleet.policy().expect("policy");
        let summary = policy.summary();
        assert_eq!(summary.halts, 1, "canary must halt on the poisoned merge");
        assert_eq!(summary.rounds_halted, 1);
        assert_eq!(summary.rounds_completed, 0);
        assert_eq!(fleet.federated_rounds(), 0, "halted rounds don't count");
        assert!(
            matches!(policy.health(culprit), DeviceHealth::Quarantined { .. }),
            "screening must quarantine the silent contributor"
        );
        // Canary devices were restored and told why; devices outside the
        // canary never installed the poisoned merge.
        let canary: std::collections::BTreeSet<usize> =
            policy.plan().stage(RolloutStage::Canary).iter().copied().collect();
        for i in 0..fleet.len() {
            let halted = fleet
                .device(i)
                .log()
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::RolloutHalted { .. }));
            assert_eq!(halted, canary.contains(&i), "device {i}");
        }
    }

    #[test]
    fn staged_rollout_completes_and_halted_rollout_restores_installs() {
        let (mut fleet, deployment) = policied_fleet(4);
        // A clean package clears every stage.
        assert!(fleet.rollout_deployment(&deployment).expect("rollout"));
        for i in 0..fleet.len() {
            let installs = fleet
                .device(i)
                .log()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Deployed { .. }))
                .count();
            assert_eq!(installs, 2, "device {i}: initial install + staged rollout");
        }
        assert_eq!(fleet.policy().expect("policy").summary().halts, 0);
    }
}
