//! The per-layer profile of a traced run.
//!
//! Layer numbers come from three places:
//!
//! * the two passes of the run: kernel work inside timed calls, counts
//!   the workload produced, and the traced ÷ untraced time;
//! * set-up stage timings;
//! * standalone timings of each layer at the workload's main shape, built
//!   from the same public pieces the system composes (`Dense`,
//!   `BatchNorm1d`, the losses, `Adam`, the wire codec, FedAvg, ...).
//!
//! Each timing is a median over repetitions, and each composed stage is
//! also timed whole, so the `*coverage` ratios show how much of the whole
//! the parts explain.

use crate::setup::{new_class_batch, AnyError, AnyResult, Base, SetupTimings, NEW_ACTIVITY};
use crate::stats::median;
use crate::workloads::{
    deploy_fleet, device_assembler, install_device, reference_model, Ctx, Pass, SESSION_WINDOWS,
};
use pilote_core::pairs::{build_epoch_pairs, PairScheme};
use pilote_core::{EmbeddingNet, NetConfig, Pilote};
use pilote_edge_sim::{WirePrecision, HOST_REF_FLOPS_PER_SEC};
use pilote_har_data::features::extract_windows;
use pilote_har_data::{Activity, Simulator};
use pilote_magneto::{federated_average, wire, Fleet, FleetConfig, UpdateStatus};
use pilote_nn::loss::{contrastive_pair_loss, distillation_loss};
use pilote_nn::{Adam, BatchNorm1d, Checkpoint, Dense, Layer, Mode, Optimizer, ReLU};
use pilote_tensor::parallel::{self, ThreadConfig};
use pilote_tensor::{Rng64, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Devices in the fleet the serving-overhead and round stages run on.
const PROFILE_DEVICES: usize = 8;
/// Sessions per profiled `serve_sessions` call.
const PROFILE_SESSIONS: usize = 32;
/// Rows of the standalone loss timings (one pair batch, one distillation
/// batch of the paper configuration).
const LOSS_ROWS: usize = 256;

/// Per-layer metrics, in the order they were measured.
pub type Layers = Vec<(&'static str, f64)>;

/// Median seconds per call of `f` over `reps` samples. A first call
/// sizes an inner loop so that each sample lasts at least a millisecond;
/// any call that fails ends the profile.
fn per_call<R, E: Into<Box<dyn std::error::Error>>>(
    reps: usize,
    mut f: impl FnMut() -> Result<R, E>,
) -> AnyResult<f64> {
    let started = Instant::now();
    black_box(f().map_err(Into::into)?);
    let once = started.elapsed().as_secs_f64();
    let inner = ((1e-3 / once.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        for _ in 0..inner {
            black_box(f().map_err(Into::into)?);
        }
        samples.push(started.elapsed().as_secs_f64() / inner as f64);
    }
    Ok(median(&samples))
}

/// Median seconds per call of `whole` minus `parts`, timed back to back
/// in every sample so that host-speed drift between samples cancels out
/// of the difference.
fn overhead<E: Into<Box<dyn std::error::Error>>>(
    reps: usize,
    mut whole: impl FnMut() -> Result<(), E>,
    mut parts: impl FnMut() -> Result<(), E>,
) -> AnyResult<f64> {
    let started = Instant::now();
    whole().map_err(Into::into)?;
    let once = started.elapsed().as_secs_f64();
    let inner = ((1e-3 / once.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        for _ in 0..inner {
            whole().map_err(Into::into)?;
        }
        let whole_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        for _ in 0..inner {
            parts().map_err(Into::into)?;
        }
        samples.push((whole_s - started.elapsed().as_secs_f64()) / inner as f64);
    }
    Ok(median(&samples))
}

/// `per_call` for calls that cannot fail.
fn per_call_infallible<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    per_call(reps, || Ok::<R, std::convert::Infallible>(f()))
        .expect("an infallible call cannot fail")
}

/// Everything the profile reads besides the system itself.
pub struct Inputs<'a> {
    /// The run's context.
    pub ctx: &'a Ctx<'a>,
    /// The untraced pass.
    pub plain: &'a Pass,
    /// The traced replay of the same operations.
    pub traced: &'a Pass,
    /// Set-up stage timings.
    pub setup: &'a SetupTimings,
    /// Host calibration drift across the run.
    pub calib_drift: f64,
}

/// Measures every per-layer metric for one traced run.
pub fn run(inputs: &Inputs<'_>) -> AnyResult<Layers> {
    let ctx = inputs.ctx;
    let reps = ctx.scale.profile_reps;
    let mut out = Layers::new();
    pass_metrics(inputs, &mut out);
    let (m, train) = ctx.workload.main_shape();
    net_layers(m, train, reps, ctx.seed, &mut out);
    losses_and_optimizer(ctx.base, reps, &mut out)?;
    core_update(ctx, reps, &mut out)?;
    core_serving(ctx, reps, &mut out)?;
    let setup = inputs.setup;
    out.push(("core.pretrain.train_s", setup.pretrain_train_s));
    out.push(("core.pretrain.epoch_s", median(&setup.pretrain_epoch_s)));
    out.push((
        "core.support_select_s",
        setup.pretrain_s - setup.pretrain_train_s,
    ));
    har_stages(ctx, reps, &mut out)?;
    out.push(("har.simulate_s", setup.simulate_s));
    out.push(("har.extract_batch_s", setup.extract_batch_s));
    magneto_stages(ctx, reps, &mut out)?;
    out.push(("host.calib_drift", inputs.calib_drift));
    Ok(out)
}

/// Kernel mix, modeled-vs-host time and workload counts from the passes.
fn pass_metrics(inputs: &Inputs<'_>, out: &mut Layers) {
    let plain = inputs.plain;
    let flops = plain.flops() as f64;
    let calls = plain.attempted.max(1) as f64;
    let dispatches: u64 = plain.kernels.iter().map(|(_, d, _)| d).sum();
    out.push(("tensor.gflop_per_op", flops / 1e9 / calls));
    out.push(("tensor.dispatches_per_op", dispatches as f64 / calls));
    out.push(("tensor.achieved_gflops", flops / 1e9 / plain.busy_s));
    let share = |kind: &str| {
        plain
            .kernels
            .iter()
            .find(|(n, _, _)| *n == kind)
            .map_or(0.0, |(_, _, f)| *f as f64)
            / flops.max(1.0)
    };
    out.push(("tensor.matmul_share", share("tensor.matmul")));
    out.push(("tensor.matmul_t_share", share("tensor.matmul_t")));
    out.push(("tensor.t_matmul_share", share("tensor.t_matmul")));
    out.push(("tensor.pairwise_dist_share", share("tensor.pairwise_dist")));
    let ops = plain.ops.max(1) as f64;
    out.push((
        "magneto.cache_rebuilds_per_op",
        plain.cache_rebuilds as f64 / ops,
    ));
    out.push((
        "magneto.updates_rolled_back",
        (plain.rolled_back + inputs.traced.rolled_back) as f64,
    ));
    out.push((
        "har.windows_quarantined",
        (plain.quarantined + inputs.traced.quarantined) as f64,
    ));
    out.push((
        "edge_sim.model_over_host",
        flops / HOST_REF_FLOPS_PER_SEC / plain.busy_s,
    ));
    out.push(("obs.trace_overhead", inputs.traced.busy_s / plain.busy_s));
    out.push(("core.accuracy", plain.acc));
}

/// Dense and BatchNorm+ReLU layers of the paper backbone, timed one by
/// one at `m` rows, forward and backward. Batch norm runs on frozen
/// statistics, as on-device updates and serving do.
fn net_layers(m: usize, train: bool, reps: usize, seed: u64, out: &mut Layers) {
    const DENSE: [[&str; 2]; 5] = [
        ["nn.dense0.fwd_us", "nn.dense0.bwd_us"],
        ["nn.dense1.fwd_us", "nn.dense1.bwd_us"],
        ["nn.dense2.fwd_us", "nn.dense2.bwd_us"],
        ["nn.dense3.fwd_us", "nn.dense3.bwd_us"],
        ["nn.dense4.fwd_us", "nn.dense4.bwd_us"],
    ];
    const BN_RELU: [[&str; 2]; 4] = [
        ["nn.bn_relu0.fwd_us", "nn.bn_relu0.bwd_us"],
        ["nn.bn_relu1.fwd_us", "nn.bn_relu1.bwd_us"],
        ["nn.bn_relu2.fwd_us", "nn.bn_relu2.bwd_us"],
        ["nn.bn_relu3.fwd_us", "nn.bn_relu3.bwd_us"],
    ];
    let config = NetConfig::paper();
    let mut widths = vec![config.input_dim];
    widths.extend(&config.hidden);
    widths.push(config.embedding_dim);
    let mut rng = Rng64::new(seed ^ 0x1a7e);
    let input = Tensor::randn([m, config.input_dim], 0.0, 1.0, &mut rng);
    let mut x = input.clone();
    let mut layers_s = 0.0;
    for (i, names) in DENSE.iter().enumerate() {
        let mut dense = Dense::new(widths[i], widths[i + 1], &mut rng);
        let fwd = per_call_infallible(reps, || dense.forward(&x, Mode::Eval));
        let y = dense.forward(&x, Mode::Eval);
        let grad = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut rng);
        let bwd = per_call_infallible(reps, || dense.backward(&grad));
        out.push((names[0], fwd * 1e6));
        out.push((names[1], bwd * 1e6));
        layers_s += fwd + if train { bwd } else { 0.0 };
        x = y;
        if let Some(names) = BN_RELU.get(i) {
            let (mut bn, mut relu) = (BatchNorm1d::new(widths[i + 1]), ReLU::new());
            let fwd = per_call_infallible(reps, || {
                relu.forward(&bn.forward(&x, Mode::Eval), Mode::Eval)
            });
            let y = relu.forward(&bn.forward(&x, Mode::Eval), Mode::Eval);
            let bwd = per_call_infallible(reps, || bn.backward(&relu.backward(&grad)));
            out.push((names[0], fwd * 1e6));
            out.push((names[1], bwd * 1e6));
            layers_s += fwd + if train { bwd } else { 0.0 };
            x = y;
        }
    }
    // The whole network at the same shape; 1 vs 2 kernel threads.
    let mut net = EmbeddingNet::new(config, &mut rng);
    let grad = Tensor::randn([m, widths[widths.len() - 1]], 0.0, 1.0, &mut rng);
    let mut whole = || {
        let y = net.forward_mode(&input, Mode::Eval);
        if train {
            net.backward(&grad);
        }
        y
    };
    let one = per_call_infallible(reps, &mut whole);
    let threads = parallel::current();
    parallel::configure(ThreadConfig {
        num_threads: 2,
        ..threads
    });
    let two = per_call_infallible(reps, &mut whole);
    parallel::configure(threads);
    out.push(("nn.layer_coverage", layers_s / one));
    out.push(("tensor.t2_speedup", one / two));
}

/// The two losses, one Adam step and a checkpoint round trip of the
/// paper backbone.
fn losses_and_optimizer(base: &Base, reps: usize, out: &mut Layers) -> AnyResult<()> {
    let cfg = &base.deployment.config;
    let mut rng = Rng64::new(cfg.seed ^ 0x1055);
    let a = Tensor::randn([LOSS_ROWS, cfg.net.embedding_dim], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([LOSS_ROWS, cfg.net.embedding_dim], 0.0, 1.0, &mut rng);
    let similar: Vec<bool> = (0..LOSS_ROWS).map(|i| i % 2 == 0).collect();
    let contrastive = per_call(reps, || {
        contrastive_pair_loss(&a, &b, &similar, cfg.margin, cfg.contrastive_form)
    })?;
    let distill = per_call(reps, || distillation_loss(&a, &b))?;
    out.push(("nn.contrastive_loss_us", contrastive * 1e6));
    out.push(("nn.distill_loss_us", distill * 1e6));

    let mut net = EmbeddingNet::new(cfg.net.clone(), &mut rng);
    let x = Tensor::randn([LOSS_ROWS, cfg.net.input_dim], 0.0, 1.0, &mut rng);
    let y = net.forward_mode(&x, Mode::Eval);
    net.backward(&y);
    let mut adam = Adam::new();
    let step = per_call_infallible(reps, || adam.step(net.layers_mut(), 1e-6));
    out.push(("nn.adam_step_ms", step * 1e3));
    let capture = per_call_infallible(reps, || Checkpoint::capture(net.layers_mut()));
    let checkpoint = Checkpoint::capture(net.layers_mut());
    let restore = per_call(reps, || checkpoint.restore(net.layers_mut()))?;
    out.push(("nn.checkpoint_capture_ms", capture * 1e3));
    out.push(("nn.checkpoint_restore_ms", restore * 1e3));
    Ok(())
}

/// One on-device update taken apart: `learn_new_class` on a bit-identical
/// clone of a device's model (its `TrainReport`), the device's own
/// `update_faulted` on the same samples right after, and one training
/// step rebuilt from the public pieces.
fn core_update(ctx: &Ctx<'_>, reps: usize, out: &mut Layers) -> AnyResult<()> {
    let n = ctx.scale.update_samples;
    let batch = new_class_batch(ctx.base, n, ctx.seed ^ 0xc10e)?;
    let (mut train_s, mut rest_s, mut overhead_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut epochs = 0;
    let mut skipped = 0;
    let mut step_model = None;
    for _ in 0..reps.min(3) {
        let mut device = install_device(&ctx.base.deployment)?;
        for i in 0..batch.len() {
            device.label_sample(NEW_ACTIVITY.label(), Tensor::vector(batch.features.row(i)));
        }
        let mut clone = device.model_mut().clone_model();
        step_model.get_or_insert_with(|| clone.clone_model());
        let started = Instant::now();
        let report = clone.learn_new_class(&batch, n)?;
        let learn_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let status = device.update_faulted(n, None)?;
        let device_s = started.elapsed().as_secs_f64();
        if status != UpdateStatus::Completed {
            return Err("profiled update did not complete".into());
        }
        train_s.push(report.total_seconds());
        rest_s.push(learn_s - report.total_seconds());
        overhead_s.push(device_s - learn_s);
        epochs = report.epochs.len();
        skipped += report.skipped_steps;
    }
    let train_s = median(&train_s);
    out.push(("core.update.train_s", train_s));
    out.push(("core.update.epoch_s", train_s / epochs.max(1) as f64));
    out.push(("core.update.rest_s", median(&rest_s)));
    out.push(("core.train.skipped_steps", skipped as f64));
    out.push(("magneto.update_overhead_s", median(&overhead_s)));
    let mut step_model = step_model.ok_or("no update was profiled")?;

    // One pair batch of the update's first epoch, replayed step by step.
    let cfg = step_model.config().clone();
    let d0 = step_model.support().to_dataset()?;
    let combined = d0.concat(&batch)?;
    let mut is_new = vec![false; d0.len()];
    is_new.resize(combined.len(), true);
    let mut rng = Rng64::new(ctx.seed ^ 0x9a15);
    let per_anchor = cfg.pairs_per_sample * 4;
    let pairs_s = per_call_infallible(reps, || {
        build_epoch_pairs(
            &combined.labels,
            &is_new,
            PairScheme::Reduced,
            per_anchor,
            &mut rng,
        )
    });
    let pairs = build_epoch_pairs(
        &combined.labels,
        &is_new,
        PairScheme::Reduced,
        per_anchor,
        &mut rng,
    );
    let pairs = pairs.slice(0, pairs.len().min(cfg.pair_batch));
    let distill_rows: Vec<usize> = (0..d0.len().min(cfg.distill_batch)).collect();
    let distill_features = combined.features.select_rows(&distill_rows)?;
    let teacher = step_model.net_mut().clone_frozen().embed(&distill_features);
    let net = step_model.net_mut();
    let mut adam = Adam::new();
    let mut step = || -> AnyResult<()> {
        let fa = combined.features.select_rows(&pairs.a)?;
        let fb = combined.features.select_rows(&pairs.b)?;
        net.zero_grad();
        let emb = net.forward_mode(&Tensor::vstack(&[&fa, &fb])?, Mode::Eval);
        let ea = emb.slice_rows(0, pairs.len())?;
        let eb = emb.slice_rows(pairs.len(), 2 * pairs.len())?;
        let (_, ga, gb) =
            contrastive_pair_loss(&ea, &eb, &pairs.similar, cfg.margin, cfg.contrastive_form)?;
        let weight = 1.0 - cfg.alpha;
        net.backward(&Tensor::vstack(&[&ga.scale(weight), &gb.scale(weight)])?);
        let student = net.forward_mode(&distill_features, Mode::Eval);
        let (_, grad) = distillation_loss(&student, &teacher)?;
        net.backward(&grad.scale(cfg.alpha));
        adam.step(net.layers_mut(), cfg.initial_lr);
        Ok(())
    };
    let step_s = per_call(reps, &mut step)?;
    out.push(("core.train_step_ms", step_s * 1e3));
    out.push(("core.pairs_ms", pairs_s * 1e3));
    Ok(())
}

/// Embedding, NCM and prototype refresh at the workload's serving rows.
fn core_serving(ctx: &Ctx<'_>, reps: usize, out: &mut Layers) -> AnyResult<()> {
    let mut model = reference_model(&ctx.base.deployment)?;
    let rows = ctx
        .base
        .test
        .features
        .slice_rows(0, ctx.workload.serve_rows())?;
    let embed = per_call_infallible(reps, || model.embed(&rows));
    let embeddings = model.embed(&rows);
    let ncm = per_call(reps, || {
        model.classifier().classify_with_distances(&embeddings)
    })?;
    let refresh = per_call(reps, || model.refresh_prototypes())?;
    out.push(("core.embed_us", embed * 1e6));
    out.push(("core.ncm_us", ncm * 1e6));
    out.push(("core.refresh_prototypes_ms", refresh * 1e3));
    Ok(())
}

/// The one-second raw block the stream stages are timed on.
fn profile_block(ctx: &Ctx<'_>) -> Tensor {
    Simulator::with_seed(ctx.seed ^ 0xb10c).session(Activity::Walk, 1)
}

/// The stream front end, per one-second block.
fn har_stages(ctx: &Ctx<'_>, reps: usize, out: &mut Layers) -> AnyResult<()> {
    let block = profile_block(ctx);
    let mut assembler = device_assembler(&ctx.base.deployment);
    let push = per_call(reps, || assembler.push_block(&block))?;
    let extract = per_call(reps, || extract_windows(std::slice::from_ref(&block)))?;
    let features = extract_windows(std::slice::from_ref(&block))?;
    let normalizer = &ctx.base.deployment.normalizer;
    let normalize = per_call(reps, || normalizer.transform(&features))?;
    out.push(("har.push_block_us", push * 1e6));
    out.push(("har.extract_us", extract * 1e6));
    out.push(("har.normalize_us", normalize * 1e6));
    Ok(())
}

/// Device- and fleet-level costs of `pilote-magneto`.
fn magneto_stages(ctx: &Ctx<'_>, reps: usize, out: &mut Layers) -> AnyResult<()> {
    let deployment = &ctx.base.deployment;
    let install = per_call(reps, || install_device(deployment))?;
    let encode = per_call(reps, || {
        wire::encode_deployment(deployment, WirePrecision::F32)
    })?;
    let bytes = wire::encode_deployment(deployment, WirePrecision::F32)?;
    let decode = per_call(reps, || wire::decode_deployment(&bytes))?;
    out.push(("magneto.install_ms", install * 1e3));
    out.push(("magneto.deploy.encode_ms", encode * 1e3));
    out.push(("magneto.deploy.decode_ms", decode * 1e3));

    // Streaming: the device call against its assembler + classifier parts.
    let block = profile_block(ctx);
    let mut device = install_device(deployment)?;
    let mut assembler = device_assembler(deployment);
    let mut model = reference_model(deployment)?;
    let stream = overhead(
        reps,
        || device.stream(&block).map(drop).map_err(AnyError::from),
        || {
            let window = assembler.push_block(&block)?.pop().ok_or("no window")?;
            model.classify_batch(&window.reshape([1, window.len()])?)?;
            Ok::<(), AnyError>(())
        },
    )?;
    out.push(("magneto.stream_overhead_us", stream * 1e6));
    let rows = ctx
        .base
        .test
        .features
        .slice_rows(0, ctx.workload.serve_rows())?;
    let serve = per_call(reps, || device.serve_batch(&rows))?;
    out.push(("magneto.serve_batch_us", serve * 1e6));

    // Bulk serving against a serial walk of the same routed calls.
    let devices = PROFILE_DEVICES.min(ctx.scale.serve_devices);
    let config = FleetConfig {
        seed: ctx.seed ^ 0xf1ee7,
        federated_every: 0,
        update_threshold: 0,
        ..FleetConfig::default()
    };
    let mut fleet = deploy_fleet(deployment, devices, config)?;
    let mut rng = Rng64::new(ctx.seed ^ 0x5e55);
    let test = &ctx.base.test;
    let sessions: Vec<(u64, Tensor)> = (0..PROFILE_SESSIONS)
        .map(|_| {
            let start = rng.below(test.len() - SESSION_WINDOWS);
            Ok((
                rng.next_u64(),
                test.features.slice_rows(start, start + SESSION_WINDOWS)?,
            ))
        })
        .collect::<AnyResult<_>>()?;
    let bulk = per_call(reps, || fleet.serve_sessions(&sessions))?;
    let serial = per_call(reps, || -> AnyResult<()> {
        for (user, rows) in &sessions {
            let index = fleet.route(*user);
            fleet.device_mut(index).serve_batch(rows)?;
        }
        Ok(())
    })?;
    out.push(("magneto.serve_sessions_overhead", bulk / serial));

    round_stages(ctx, &mut fleet, reps, out)
}

/// Every device's checkpoint and support size, as a round uploads them.
fn capture_all(fleet: &mut Fleet) -> Vec<(Checkpoint, usize)> {
    (0..fleet.len())
        .map(|i| {
            let model = fleet.device_mut(i).model_mut();
            (
                Checkpoint::capture(model.net_mut().layers_mut()),
                model.support().len(),
            )
        })
        .collect()
}

/// A federated round replayed stage by stage on `fleet` — capture,
/// delta encode, decode, FedAvg, broadcast, install — then run whole on
/// the same state. Each round starts as in `fleet_lifecycle`: one device
/// changed since the last round, so its upload and the broadcast carry
/// every layer while the other uploads are near-empty deltas.
fn round_stages(ctx: &Ctx<'_>, fleet: &mut Fleet, reps: usize, out: &mut Layers) -> AnyResult<()> {
    let deployed = &ctx.base.deployment.checkpoint;
    // A warm round leaves every device on a merged model that differs
    // from the deployment; `base` tracks the fleet's committed broadcast.
    let mut base = federated_average(&capture_all(fleet))?;
    fleet.federated_round()?;
    let n = fleet.len();
    let mut stages: [Vec<f64>; 5] = Default::default();
    let mut whole = Vec::new();
    let bytes_before = fleet.wire_totals().federated_bytes();
    for _ in 0..reps.max(3) {
        let changed = fleet.device_mut(0).model_mut();
        deployed.restore(changed.net_mut().layers_mut())?;
        changed.refresh_prototypes()?;
        let round = fleet.committed_round();

        let started = Instant::now();
        let captured = capture_all(fleet);
        let capture_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let uploads = captured
            .iter()
            .map(|(c, _)| wire::encode_round_delta(&base, c, round, WirePrecision::F32))
            .collect::<Result<Vec<_>, _>>()?;
        let mut encode_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let contributions = uploads
            .iter()
            .zip(&captured)
            .map(|(bytes, (_, support))| {
                Ok((wire::decode_round(bytes, Some((&base, round)))?, *support))
            })
            .collect::<AnyResult<Vec<_>>>()?;
        let mut decode_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let merged = federated_average(&contributions)?;
        let average_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let broadcast = wire::encode_round_delta(&base, &merged, round, WirePrecision::F32)?;
        encode_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let installed = wire::decode_round(&broadcast, Some((&base, round)))?;
        decode_s += started.elapsed().as_secs_f64();
        // Install into copies, so the whole round below starts from the
        // same state the stages did.
        let mut copies: Vec<Pilote> = (0..n)
            .map(|i| fleet.device_mut(i).model_mut().clone_model())
            .collect();
        let started = Instant::now();
        for model in &mut copies {
            installed.restore(model.net_mut().layers_mut())?;
            model.refresh_prototypes()?;
        }
        let install_s = started.elapsed().as_secs_f64();
        drop(copies);
        for (stage, s) in stages
            .iter_mut()
            .zip([capture_s, encode_s, decode_s, average_s, install_s])
        {
            stage.push(s);
        }

        let started = Instant::now();
        fleet.federated_round()?;
        whole.push(started.elapsed().as_secs_f64());
        base = merged;
    }
    let bytes = fleet.wire_totals().federated_bytes() - bytes_before;
    let medians: Vec<f64> = stages.iter().map(|s| median(s)).collect();
    let names = [
        "magneto.round.capture_ms",
        "magneto.round.encode_ms",
        "magneto.round.decode_ms",
        "magneto.round.average_ms",
        "magneto.round.install_ms",
    ];
    for (name, s) in names.into_iter().zip(&medians) {
        out.push((name, s * 1e3));
    }
    out.push((
        "magneto.round.coverage",
        medians.iter().sum::<f64>() / median(&whole),
    ));
    out.push((
        "magneto.round.bytes_per_device",
        bytes as f64 / (whole.len() * n) as f64,
    ));
    Ok(())
}
