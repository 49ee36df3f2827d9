//! The four workloads. Each is a closed loop: one caller in one process
//! waits for every call to return before making the next, as one user's
//! device or one fleet coordinator does.
//!
//! | workload          | timed op                      | exercises                                   | bypasses                 |
//! |-------------------|-------------------------------|---------------------------------------------|--------------------------|
//! | `edge_update`     | `EdgeDevice::update_faulted`  | m=512 forward/backward, losses, Adam         | serving, wire, fleet     |
//! | `edge_stream`     | `EdgeDevice::stream` (1 window)| window assembly, feature extraction, m=1 net | training, wire, fleet    |
//! | `fleet_serve`     | `Fleet::serve_sessions`       | routing, serve cache hits, m=8 net           | training, wire           |
//! | `fleet_lifecycle` | `Fleet::serve_session`        | serving beside updates and federated rounds  | —                        |
//!
//! Inputs come from the seed alone; outputs are checked against an
//! independent reference path, and every failed check counts as a failed
//! operation.

use crate::setup::{new_class_batch, AnyResult, Base, Scale, NEW_ACTIVITY};
use crate::trace::Recorder;
use pilote_core::{EmbeddingNet, Pilote};
use pilote_edge_sim::{DeviceProfile, LinkModel};
use pilote_har_data::sensors::WINDOW_LEN;
use pilote_har_data::stream::WindowAssembler;
use pilote_har_data::{Activity, Simulator};
use pilote_magneto::{Deployment, EdgeDevice, Fleet, FleetConfig, InferenceOutcome, UpdateStatus};
use pilote_obs::work::kernel_totals;
use pilote_tensor::{Rng64, Tensor};
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh device, 10 labelled windows, one timed on-device update.
    EdgeUpdate,
    /// One device classifying a raw 120 Hz stream one window per call.
    EdgeStream,
    /// Read-only bulk serving of hash-routed sessions across a fleet.
    FleetServe,
    /// Serving interleaved with on-device updates and federated rounds.
    FleetLifecycle,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::EdgeUpdate,
        Workload::EdgeStream,
        Workload::FleetServe,
        Workload::FleetLifecycle,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeUpdate => "edge_update",
            Workload::EdgeStream => "edge_stream",
            Workload::FleetServe => "fleet_serve",
            Workload::FleetLifecycle => "fleet_lifecycle",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations every pass runs whatever the time budget; accuracy is
    /// measured over exactly this prefix, so it is a function of the seed
    /// alone.
    pub fn min_ops(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Workload::EdgeUpdate, false) => 4,
            (Workload::EdgeStream, false) => STREAM_BLOCKS,
            (Workload::FleetServe, false) => 20,
            (Workload::FleetLifecycle, false) => 2,
            (Workload::EdgeStream, true) => 10,
            (_, true) => 1,
        }
    }

    /// Batch rows and whether the pass trains at them: the shape of the
    /// step that blocks this workload's headline result.
    pub fn main_shape(self) -> (usize, bool) {
        match self {
            // Updates dominate the lifecycle's time as well.
            Workload::EdgeUpdate | Workload::FleetLifecycle => (512, true),
            Workload::EdgeStream => (1, false),
            Workload::FleetServe => (SESSION_WINDOWS, false),
        }
    }

    /// Rows per serving call: one streamed window, or one session.
    pub fn serve_rows(self) -> usize {
        match self {
            Workload::EdgeUpdate | Workload::EdgeStream => 1,
            Workload::FleetServe | Workload::FleetLifecycle => SESSION_WINDOWS,
        }
    }
}

/// One-second blocks replayed by `edge_stream`: five 120 s sessions.
const STREAM_BLOCKS: usize = 600;
/// Seconds of each raw session `edge_stream` replays.
const SESSION_SECONDS: usize = 120;
/// Windows per served session.
pub const SESSION_WINDOWS: usize = 8;
/// Sessions per `Fleet::serve_sessions` call in `fleet_serve`.
const SESSIONS_PER_CALL: usize = 32;
/// Distinct users sessions are drawn from.
const USERS: usize = 4096;
/// Accuracy below which a pass's outputs count as broken: chance over
/// the five activities is 0.2.
const ACC_FLOOR: f64 = 0.25;
/// `fleet_serve` checks the first session of every this-many calls.
const SERVE_CHECK_EVERY: usize = 25;

/// The workload's installs: what set-up deploys before the loop runs.
pub enum State {
    /// `edge_update` installs a fresh device per operation.
    Nothing,
    /// `edge_stream`'s device.
    Device(Box<EdgeDevice>),
    /// A deployed fleet.
    Fleet(Box<Fleet>),
}

/// The workload's installs onto `base`'s deployment.
pub fn install(workload: Workload, base: &Base, scale: &Scale, seed: u64) -> AnyResult<State> {
    let deployment = &base.deployment;
    Ok(match workload {
        Workload::EdgeUpdate => State::Nothing,
        Workload::EdgeStream => State::Device(Box::new(install_device(deployment)?)),
        Workload::FleetServe => State::Fleet(Box::new(deploy_fleet(
            deployment,
            scale.serve_devices,
            FleetConfig {
                seed: seed ^ 0xf1ee7,
                serve_chunk: 64,
                federated_every: 0,
                update_threshold: 0,
                ..FleetConfig::default()
            },
        )?)),
        Workload::FleetLifecycle => State::Fleet(Box::new(deploy_fleet(
            deployment,
            scale.lifecycle_devices,
            FleetConfig {
                seed: seed ^ 0xf1ee7,
                federated_every: 0,
                update_threshold: scale.update_samples,
                exemplar_budget: scale.update_samples,
                ..FleetConfig::default()
            },
        )?)),
    })
}

/// A flagship phone on wifi with `deployment` installed.
pub fn install_device(deployment: &Deployment) -> AnyResult<EdgeDevice> {
    Ok(EdgeDevice::install(
        DeviceProfile::flagship_phone(),
        deployment,
        &LinkModel::wifi(),
    )?)
}

/// `devices` heterogeneous devices (flagship/budget/wearable) over a
/// wifi/4G/weak-cellular link mix, each with its own model RNG stream.
pub fn deploy_fleet(
    deployment: &Deployment,
    devices: usize,
    config: FleetConfig,
) -> AnyResult<Fleet> {
    let links = [
        LinkModel::wifi(),
        LinkModel::cellular_4g(),
        LinkModel::weak_cellular(),
    ];
    let slots = DeviceProfile::roster(devices)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, links[i % links.len()]))
        .collect();
    let seed = config.seed;
    let mut fleet = Fleet::deploy(slots, deployment, config)?;
    for i in 0..fleet.len() {
        fleet
            .device_mut(i)
            .model_mut()
            .reseed(device_stream(seed, i as u64));
    }
    Ok(fleet)
}

/// The model RNG seed of device `index`. Every install of a package
/// starts the same RNG, so without this every device would draw the same
/// validation split on its first update, and the update's size (which
/// follows the split) would be fixed by the run's seed instead of varying
/// from device to device as it does across real devices.
fn device_stream(seed: u64, index: u64) -> u64 {
    seed ^ (index << 32) ^ 0xd0_5eed
}

/// Raw 120×22 sensor blocks and their activity labels for `edge_stream`:
/// five sessions, one per activity, interleaved block by block.
pub fn stream_blocks(seed: u64) -> AnyResult<Vec<(Tensor, usize)>> {
    let mut sim = Simulator::with_seed(seed ^ 0x57_12ea);
    let sessions: Vec<Tensor> = Activity::ALL
        .iter()
        .map(|&a| sim.session(a, SESSION_SECONDS))
        .collect();
    (0..STREAM_BLOCKS)
        .map(|k| {
            let (activity, second) = (k % Activity::ALL.len(), k / Activity::ALL.len());
            let block =
                sessions[activity].slice_rows(second * WINDOW_LEN, (second + 1) * WINDOW_LEN)?;
            Ok((block, Activity::ALL[activity].label()))
        })
        .collect()
}

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until the timed calls add up to this many seconds, and at least
    /// the workload's minimum operations.
    Seconds(f64),
    /// Exactly this many operations (the traced replay of a pass).
    Ops(usize),
}

/// Everything one pass over a workload measured.
pub struct Pass {
    /// Spans of the public calls (kept only when tracing).
    pub rec: Recorder,
    /// Latency of each headline operation, seconds.
    pub op_s: Vec<f64>,
    /// Operations the budget counted (updates, calls or cycles).
    pub ops: usize,
    /// Seconds inside all timed calls.
    pub busy_s: f64,
    /// Windows classified or learned by timed calls.
    pub windows: u64,
    /// `(busy_s, windows)` as they stood at the end of each operation.
    pub progress: Vec<(f64, u64)>,
    /// Timed calls made.
    pub attempted: u64,
    /// Timed calls that errored, returned a bad status or failed a check.
    pub failed: u64,
    /// Accuracy over the workload's fixed prefix.
    pub acc: f64,
    /// `(dispatches, flops)` per kernel kind inside timed calls.
    pub kernels: Vec<(&'static str, u64, u64)>,
    /// Seconds of each on-device update (lifecycle: the labelling call
    /// that triggered it).
    pub update_s: Vec<f64>,
    /// Seconds of each federated round.
    pub round_s: Vec<f64>,
    /// Serve-cache rebuilds during the pass.
    pub cache_rebuilds: u64,
    /// Updates that did not complete.
    pub rolled_back: u64,
    /// Windows the stream assembler quarantined.
    pub quarantined: u64,
}

impl Pass {
    fn new(traced: bool) -> Self {
        Pass {
            rec: Recorder::new(traced),
            op_s: Vec::new(),
            ops: 0,
            busy_s: 0.0,
            windows: 0,
            progress: Vec::new(),
            attempted: 0,
            failed: 0,
            acc: 0.0,
            kernels: kernel_totals()
                .into_iter()
                .map(|(n, _, _)| (n, 0, 0))
                .collect(),
            update_s: Vec::new(),
            round_s: Vec::new(),
            cache_rebuilds: 0,
            rolled_back: 0,
            quarantined: 0,
        }
    }

    /// Runs one public call inside a span, timing it and charging its
    /// kernel work to the pass.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let before = kernel_totals();
        let token = self.rec.enter(name);
        let started = Instant::now();
        let out = f();
        let seconds = started.elapsed().as_secs_f64();
        self.rec.exit(token);
        let after = kernel_totals();
        for ((_, d, f), ((_, d0, f0), (_, d1, f1))) in
            self.kernels.iter_mut().zip(before.into_iter().zip(after))
        {
            *d += d1.saturating_sub(d0);
            *f += f1.saturating_sub(f0);
        }
        self.busy_s += seconds;
        self.attempted += 1;
        (out, seconds)
    }

    /// Counts one operation of the budget as done.
    fn end_op(&mut self) {
        self.ops += 1;
        self.progress.push((self.busy_s, self.windows));
    }

    /// Total flops inside timed calls.
    pub fn flops(&self) -> u64 {
        self.kernels.iter().map(|(_, _, f)| f).sum()
    }

    /// Windows per second of timed calls over operations `ops`.
    pub fn throughput(&self, ops: std::ops::Range<usize>) -> f64 {
        let at = |i: usize| {
            if i == 0 {
                (0.0, 0)
            } else {
                self.progress[i - 1]
            }
        };
        let ((s0, w0), (s1, w1)) = (at(ops.start), at(ops.end));
        (w1 - w0) as f64 / (s1 - s0)
    }
}

/// What a pass runs against.
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Set-up output.
    pub base: &'a Base,
    /// Sizes.
    pub scale: &'a Scale,
    /// The run's seed.
    pub seed: u64,
    /// `edge_stream`'s input blocks (empty for the other workloads).
    pub blocks: &'a [(Tensor, usize)],
    /// Operations every pass runs; accuracy is measured over them.
    pub min_ops: usize,
}

impl Ctx<'_> {
    /// Whether a pass under `budget` that has run `done` operations and
    /// spent `busy_s` in timed calls goes on.
    fn more(&self, budget: Budget, done: usize, busy_s: f64) -> bool {
        match budget {
            Budget::Seconds(seconds) => done < self.min_ops || busy_s < seconds,
            Budget::Ops(n) => done < n,
        }
    }
}

/// Runs one pass of `ctx.workload` against the installed `state`.
pub fn run_pass(ctx: &Ctx<'_>, state: State, budget: Budget, traced: bool) -> AnyResult<Pass> {
    let mut pass = Pass::new(traced);
    match (ctx.workload, state) {
        (Workload::EdgeUpdate, _) => edge_update(ctx, budget, &mut pass)?,
        (Workload::EdgeStream, State::Device(device)) => {
            edge_stream(ctx, *device, budget, &mut pass)?
        }
        (Workload::FleetServe, State::Fleet(fleet)) => fleet_serve(ctx, *fleet, budget, &mut pass)?,
        (Workload::FleetLifecycle, State::Fleet(fleet)) => {
            fleet_lifecycle(ctx, *fleet, budget, &mut pass)?
        }
        (workload, _) => return Err(format!("{} needs its own installs", workload.name()).into()),
    }
    if pass.acc < ACC_FLOOR {
        pass.failed += 1;
    }
    Ok(pass)
}

/// Labels `data`'s rows as the held-out activity on `device`.
fn label_all(pass: &mut Pass, device: &mut EdgeDevice, data: &pilote_har_data::Dataset) {
    for i in 0..data.len() {
        let row = Tensor::vector(data.features.row(i));
        pass.rec.span("EdgeDevice::label_sample", || {
            device.label_sample(NEW_ACTIVITY.label(), row)
        });
    }
}

/// Whether every prototype of the model is finite.
fn prototypes_finite(device: &mut EdgeDevice) -> bool {
    let classifier = device.model_mut().classifier();
    classifier.prototype_matrix().all_finite() && classifier.n_classes() > 0
}

fn edge_update(ctx: &Ctx<'_>, budget: Budget, pass: &mut Pass) -> AnyResult<()> {
    let n = ctx.scale.update_samples;
    let acc_ops = ctx.min_ops;
    let mut acc_sum = 0.0;
    while ctx.more(budget, pass.ops, pass.busy_s) {
        let op = pass.ops as u64;
        pass.rec.set_op(op);
        let token = pass.rec.enter("op");
        let batch = new_class_batch(ctx.base, n, ctx.seed ^ op)?;
        let mut device = pass.rec.span("EdgeDevice::install", || {
            install_device(&ctx.base.deployment)
        })?;
        device.model_mut().reseed(device_stream(ctx.seed, op));
        label_all(pass, &mut device, &batch);
        let (status, seconds) = pass.timed("EdgeDevice::update_faulted", || {
            device.update_faulted(n, None)
        });
        pass.op_s.push(seconds);
        pass.update_s.push(seconds);
        pass.windows += n as u64;
        let completed = matches!(status, Ok(UpdateStatus::Completed));
        if !completed {
            pass.rolled_back += 1;
        }
        if !(completed && pass.rec.span("check", || prototypes_finite(&mut device))) {
            pass.failed += 1;
        }
        if pass.ops < acc_ops {
            acc_sum += f64::from(
                pass.rec
                    .span("EdgeDevice::accuracy", || device.accuracy(&ctx.base.test))?,
            );
        }
        pass.rec.exit(token);
        pass.end_op();
    }
    pass.acc = acc_sum / acc_ops.min(pass.ops) as f64;
    Ok(())
}

/// A model classifying exactly as a freshly installed device does, built
/// from the deployment through public `pilote-core` calls only.
pub fn reference_model(deployment: &Deployment) -> AnyResult<Pilote> {
    let mut net = EmbeddingNet::new(deployment.config.net.clone(), &mut Rng64::new(0));
    deployment.checkpoint.restore(net.layers_mut())?;
    Ok(Pilote::from_parts(
        deployment.config.clone(),
        net,
        deployment.support.clone(),
        Rng64::new(0),
    )?)
}

/// The stream assembler a device runs: one-second windows, no overlap,
/// no denoising, the deployment's normaliser.
pub fn device_assembler(deployment: &Deployment) -> WindowAssembler {
    WindowAssembler::new(WINDOW_LEN, WINDOW_LEN, 1).with_normalizer(deployment.normalizer.clone())
}

fn edge_stream(
    ctx: &Ctx<'_>,
    mut device: EdgeDevice,
    budget: Budget,
    pass: &mut Pass,
) -> AnyResult<()> {
    let quarantined_before = device.quarantined_windows();
    // The first pass over all blocks, kept for the output check.
    let mut first: Vec<Option<InferenceOutcome>> = Vec::new();
    while ctx.more(budget, pass.ops, pass.busy_s) {
        let op = pass.ops;
        pass.rec.set_op(op as u64);
        let (block, _) = &ctx.blocks[op % ctx.blocks.len()];
        let (outcome, seconds) = pass.timed("EdgeDevice::stream", || device.stream(block));
        pass.op_s.push(seconds);
        let single = match outcome {
            Ok(out) if out.len() == 1 => Some(out[0]),
            _ => None,
        };
        pass.windows += u64::from(single.is_some());
        if single.is_none() {
            pass.failed += 1;
        }
        if op < ctx.blocks.len() {
            first.push(single);
        }
        pass.end_op();
    }
    pass.quarantined = device.quarantined_windows() - quarantined_before;

    // Replay the first pass through a separate assembler and the batched
    // classifier; labels and distances must agree bitwise.
    let token = pass.rec.enter("check");
    let mut assembler = device_assembler(&ctx.base.deployment);
    let mut rows = Vec::with_capacity(first.len());
    for (block, _) in &ctx.blocks[..first.len()] {
        for window in assembler.push_block(block)? {
            rows.push(window.reshape([1, window.len()])?);
        }
    }
    let expected = if rows.len() == first.len() {
        let refs: Vec<&Tensor> = rows.iter().collect();
        reference_model(&ctx.base.deployment)?.classify_batch(&Tensor::vstack(&refs)?)?
    } else {
        Vec::new()
    };
    let mut hits = 0usize;
    for (i, got) in first.iter().enumerate() {
        let agrees = match (got, expected.get(i)) {
            (Some(o), Some(&(label, distance))) => {
                o.predicted == label && o.distance.to_bits() == distance.to_bits()
            }
            _ => false,
        };
        if got.is_some() && !agrees {
            pass.failed += 1;
        }
        if matches!(got, Some(o) if o.predicted == ctx.blocks[i].1) {
            hits += 1;
        }
    }
    pass.rec.exit(token);
    pass.acc = hits as f64 / first.len().max(1) as f64;
    Ok(())
}

/// Sessions as `Fleet::serve_sessions` takes them: `(user, rows)`.
type Sessions = Vec<(u64, Tensor)>;

/// `count` sessions of `SESSION_WINDOWS` consecutive test rows for
/// random users, with the rows' true labels.
fn draw_sessions(
    base: &Base,
    count: usize,
    rng: &mut Rng64,
) -> AnyResult<(Sessions, Vec<Vec<usize>>)> {
    let test = &base.test;
    let mut sessions = Vec::with_capacity(count);
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        let user = rng.below(USERS) as u64;
        let start = rng.below(test.len() - SESSION_WINDOWS);
        sessions.push((
            user,
            test.features.slice_rows(start, start + SESSION_WINDOWS)?,
        ));
        labels.push(test.labels[start..start + SESSION_WINDOWS].to_vec());
    }
    Ok((sessions, labels))
}

fn total_cache_rebuilds(fleet: &Fleet) -> u64 {
    (0..fleet.len())
        .map(|i| fleet.device(i).cache_rebuilds())
        .sum()
}

/// One session per device, so every serve cache is built.
fn warm_every_device(base: &Base, fleet: &mut Fleet) -> AnyResult<()> {
    let mut covered = vec![false; fleet.len()];
    let mut warm = Vec::new();
    let rows = base.test.features.slice_rows(0, SESSION_WINDOWS)?;
    let mut user = 0u64;
    while warm.len() < fleet.len() {
        let device = fleet.route(user);
        if !covered[device] {
            covered[device] = true;
            warm.push((user, rows.clone()));
        }
        user += 1;
    }
    fleet.serve_sessions(&warm)?;
    Ok(())
}

fn fleet_serve(ctx: &Ctx<'_>, mut fleet: Fleet, budget: Budget, pass: &mut Pass) -> AnyResult<()> {
    pass.rec
        .span("warm_up", || warm_every_device(ctx.base, &mut fleet))?;
    let rebuilds_before = total_cache_rebuilds(&fleet);
    let mut reference = install_device(&ctx.base.deployment)?;
    let acc_ops = ctx.min_ops;
    let (mut hits, mut scored) = (0usize, 0usize);
    while ctx.more(budget, pass.ops, pass.busy_s) {
        let op = pass.ops;
        pass.rec.set_op(op as u64);
        let mut rng = Rng64::new(ctx.seed ^ 0x5e55 ^ ((op as u64) << 20));
        let (sessions, labels) = draw_sessions(ctx.base, SESSIONS_PER_CALL, &mut rng)?;
        let (served, seconds) =
            pass.timed("Fleet::serve_sessions", || fleet.serve_sessions(&sessions));
        pass.op_s.push(seconds);
        let Ok(served) = served else {
            pass.failed += 1;
            pass.end_op();
            continue;
        };
        pass.windows += served.iter().map(|s| s.len() as u64).sum::<u64>();
        let mut ok = served.len() == sessions.len();
        if op.is_multiple_of(SERVE_CHECK_EVERY) {
            ok &= pass.rec.span("check", || {
                matches_per_window(&mut reference, &sessions[0].1, &served[0])
            });
        }
        if !ok {
            pass.failed += 1;
        }
        if op < acc_ops {
            for (outcomes, truth) in served.iter().zip(&labels) {
                hits += outcomes
                    .iter()
                    .zip(truth)
                    .filter(|(o, &t)| o.predicted == t)
                    .count();
                scored += truth.len();
            }
        }
        pass.end_op();
    }
    pass.cache_rebuilds = total_cache_rebuilds(&fleet) - rebuilds_before;
    pass.acc = hits as f64 / scored.max(1) as f64;
    Ok(())
}

/// Whether a batched session's outcomes equal, bitwise, serving each
/// window alone on `reference` (the fleet's batched-serving contract).
fn matches_per_window(
    reference: &mut EdgeDevice,
    features: &Tensor,
    batched: &[InferenceOutcome],
) -> bool {
    batched.len() == features.rows()
        && batched.iter().enumerate().all(|(i, outcome)| {
            let Ok(row) = features.slice_rows(i, i + 1) else {
                return false;
            };
            matches!(reference.serve_batch(&row), Ok(v) if v.len() == 1
                && v[0].predicted == outcome.predicted
                && v[0].distance.to_bits() == outcome.distance.to_bits())
        })
}

fn fleet_lifecycle(
    ctx: &Ctx<'_>,
    mut fleet: Fleet,
    budget: Budget,
    pass: &mut Pass,
) -> AnyResult<()> {
    let acc_ops = ctx.min_ops;
    let rebuilds_before = total_cache_rebuilds(&fleet);
    while ctx.more(budget, pass.ops, pass.busy_s) {
        let cycle = pass.ops as u64;
        pass.rec.set_op(cycle);
        let token = pass.rec.enter("cycle");
        let mut rng = Rng64::new(ctx.seed ^ 0x11fe ^ (cycle << 20));
        let (sessions, _) = draw_sessions(ctx.base, ctx.scale.lifecycle_sessions, &mut rng)?;
        for (user, rows) in sessions {
            let (served, seconds) =
                pass.timed("Fleet::serve_session", || fleet.serve_session(user, &rows));
            pass.op_s.push(seconds);
            match served {
                Ok(out) if out.len() == rows.rows() => pass.windows += out.len() as u64,
                _ => pass.failed += 1,
            }
        }
        // User `cycle` labels the held-out activity; the last label crosses
        // the update threshold and runs the on-device update in place.
        let batch = new_class_batch(
            ctx.base,
            ctx.scale.update_samples,
            ctx.seed ^ 0x1abe1 ^ cycle,
        )?;
        let mut update = None;
        for i in 0..batch.len() {
            let row = Tensor::vector(batch.features.row(i));
            let (status, seconds) = pass.timed("Fleet::label_sample", || {
                fleet.label_sample(cycle, NEW_ACTIVITY.label(), row)
            });
            match status {
                Ok(Some(status)) => {
                    pass.update_s.push(seconds);
                    update = Some(status);
                }
                Ok(None) => {}
                Err(_) => pass.failed += 1,
            }
        }
        if update != Some(UpdateStatus::Completed) {
            pass.rolled_back += 1;
            pass.failed += 1;
        }
        let (round, seconds) = pass.timed("Fleet::federated_round", || fleet.federated_round());
        pass.round_s.push(seconds);
        if round.is_err() {
            pass.failed += 1;
        }
        pass.end_op();
        if pass.ops == acc_ops {
            let mut sum = 0.0;
            for i in 0..fleet.len() {
                let device = fleet.device_mut(i);
                sum += f64::from(
                    pass.rec
                        .span("EdgeDevice::accuracy", || device.accuracy(&ctx.base.test))?,
                );
            }
            pass.acc = sum / fleet.len() as f64;
        }
        pass.rec.exit(token);
    }
    pass.cache_rebuilds = total_cache_rebuilds(&fleet) - rebuilds_before;
    Ok(())
}
