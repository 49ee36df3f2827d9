//! The MAGNETO payload codec — exact binary encodings for every byte
//! that crosses the cloud↔edge link (`docs/WIRE.md`).
//!
//! Four payload families share the checked little-endian primitives of
//! [`pilote_edge_sim::wire`]:
//!
//! * **Deployments** (`PWD1`) — checkpoint, exemplar support set,
//!   shipped prototypes, normaliser and config. Tensor sections carry
//!   either bit-exact `f32` values or per-column affine codes
//!   ([`QuantizedMatrix`]) at the payload's [`WirePrecision`].
//! * **Federated round payloads** (`PWR1`) — a full checkpoint, or a
//!   per-layer delta against the last committed round's broadcast
//!   ([`pilote_nn::CheckpointDelta`]). At `F32` a delta round-trips
//!   bitwise; at `U16`/`I8` the *arithmetic diff* is quantised, which is
//!   where delta + quantisation compound: diffs span a far tighter range
//!   than raw weights, so the same 8-bit budget buys a much finer step.
//! * **Telemetry** (`PWS1`) — [`pilote_obs::Snapshot`]s (both full
//!   snapshots and since-last-rollup deltas use the same shape), with
//!   `f64` statistics encoded as IEEE-754 bits, never decimal text.
//! * **Session matrices** (`PWM1`) — the continual-learning accuracy
//!   matrix of `pilote_core::session_metrics` (task definitions plus
//!   per-session rows), `f32` accuracies bit-exact; the fleet's
//!   scenario rollup ships these (`docs/METRICS.md`).
//!
//! Every encoder's `len()` **is** the byte count charged to the link
//! model, so wire bytes → modeled transfer time with no format fudge
//! factor; the decoders are total (typed [`CodecError`]s, no panics) and
//! every production path decodes what it shipped — quantisation loss is
//! real, not an accounting fiction.

use crate::cloud::{Deployment, ShippedPrototypes};
use pilote_core::PiloteConfig;
use pilote_core::config::NetConfig;
use pilote_core::session_metrics::SessionRecord;
use pilote_core::{AccuracyMatrix, EmbeddingNet, SupportSet, TaskGroup};
use pilote_edge_sim::quantize::{QuantizeError, Quantization, QuantizedMatrix};
use pilote_edge_sim::wire::{WireError, WirePrecision, WireReader, WireWriter};
use pilote_har_data::preprocess::Normalizer;
use pilote_har_data::FEATURE_DIM;
use pilote_nn::delta::{CheckpointDelta, DeltaError};
use pilote_nn::loss::ContrastiveForm;
use pilote_nn::Checkpoint;
use pilote_obs::{GaugeSnapshot, HistogramSnapshot, KernelStats, Snapshot, SpanNode};
use pilote_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Deployment payload magic.
pub const DEPLOYMENT_MAGIC: [u8; 4] = *b"PWD1";
/// Federated round payload magic.
pub const ROUND_MAGIC: [u8; 4] = *b"PWR1";
/// Telemetry payload magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PWS1";
/// Session-matrix payload magic (the continual-learning accuracy matrix,
/// `pilote_core::session_metrics`).
pub const SESSION_MATRIX_MAGIC: [u8; 4] = *b"PWM1";

/// Span trees deeper than this are rejected as corrupt rather than
/// recursed into (a hostile payload could otherwise exhaust the stack).
const MAX_SPAN_DEPTH: usize = 64;

/// How a fleet ships its payloads: tensor precision plus whether
/// federated rounds use delta encoding against the last committed
/// broadcast.
///
/// The default — bit-exact `f32` with deltas on — changes **only** byte
/// counts and the virtual clocks they feed; model numerics, alerts and
/// policy decisions are untouched, because an `F32` encode/decode (full
/// or delta) is bitwise lossless. Quantised precisions trade accuracy
/// for bytes; the frontier is measured by `repro wire`
/// (`results/BENCH_wire.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireConfig {
    /// Precision tensor sections are encoded at.
    pub precision: WirePrecision,
    /// Delta-encode federated round payloads when sender and receiver
    /// share a committed base (stale members fall back to full payloads).
    pub delta: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig { precision: WirePrecision::F32, delta: true }
    }
}

impl WireConfig {
    /// Full-payload config at `precision`.
    pub fn full(precision: WirePrecision) -> Self {
        WireConfig { precision, delta: false }
    }

    /// Delta-enabled config at `precision`.
    pub fn delta(precision: WirePrecision) -> Self {
        WireConfig { precision, delta: true }
    }

    /// Stable name used in benchmark output: `"i8-delta"`, `"f32-full"`,
    /// …
    pub fn name(&self) -> String {
        format!("{}-{}", self.precision.name(), if self.delta { "delta" } else { "full" })
    }
}

/// Errors from encoding or decoding a MAGNETO payload.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The byte stream itself was malformed.
    Wire(WireError),
    /// A tensor section could not be quantised (non-finite values).
    Quantize(QuantizeError),
    /// A tensor could not be assembled from the decoded sections.
    Tensor(TensorError),
    /// A delta payload could not be applied to the receiver's base.
    Delta(DeltaError),
    /// A delta payload arrived but the receiver holds no base checkpoint
    /// to apply it against — the sender must fall back to a full payload.
    MissingBase,
    /// Decoded sections disagree structurally (e.g. a quantised section's
    /// shape does not match its announced dims).
    Structure {
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Wire(e) => write!(f, "wire error: {e}"),
            CodecError::Quantize(e) => write!(f, "quantise error: {e}"),
            CodecError::Tensor(e) => write!(f, "tensor error: {e}"),
            CodecError::Delta(e) => write!(f, "delta error: {e}"),
            CodecError::MissingBase => {
                write!(f, "delta payload received with no base checkpoint to apply it against")
            }
            CodecError::Structure { detail } => write!(f, "payload structure error: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Wire(e) => Some(e),
            CodecError::Quantize(e) => Some(e),
            CodecError::Tensor(e) => Some(e),
            CodecError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Wire(e)
    }
}

impl From<QuantizeError> for CodecError {
    fn from(e: QuantizeError) -> Self {
        CodecError::Quantize(e)
    }
}

impl From<TensorError> for CodecError {
    fn from(e: TensorError) -> Self {
        CodecError::Tensor(e)
    }
}

impl From<DeltaError> for CodecError {
    fn from(e: DeltaError) -> Self {
        CodecError::Delta(e)
    }
}

fn quantization_of(precision: WirePrecision) -> Option<Quantization> {
    match precision {
        WirePrecision::F32 => None,
        WirePrecision::U16 => Some(Quantization::U16),
        WirePrecision::I8 => Some(Quantization::I8),
    }
}

/// Rank-2 view for per-column quantisation: rank-2 tensors quantise
/// column-wise as-is; anything else flattens to a single column.
fn rank2_view(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.rank() == 2 {
        Ok(t.clone())
    } else {
        t.reshape([t.len(), 1])
    }
}

// ---------------------------------------------------------------------
// Tensor sections
// ---------------------------------------------------------------------

/// Writes one tensor section: rank, dims, then values — raw `f32` bits
/// at `F32`, a [`QuantizedMatrix`] wire section otherwise.
fn write_tensor(w: &mut WireWriter, t: &Tensor, precision: WirePrecision) -> Result<(), CodecError> {
    w.u64(t.rank() as u64);
    for &d in t.shape().dims() {
        w.u64(d as u64);
    }
    match quantization_of(precision) {
        None => w.f32s(t.as_slice()),
        Some(mode) => {
            QuantizedMatrix::encode(&rank2_view(t)?, mode)?.to_wire(w);
        }
    }
    Ok(())
}

/// Reads one tensor section written by [`write_tensor`].
fn read_tensor(r: &mut WireReader<'_>, precision: WirePrecision) -> Result<Tensor, CodecError> {
    let rank = r.len_for("tensor rank", 8)?;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r.u64()? as usize);
    }
    // Untrusted dims: a wrapped product would pass the bounds check below
    // and build a tensor whose shape disagrees with its data.
    let len = dims
        .iter()
        .try_fold(1usize, |len, &d| len.checked_mul(d))
        .ok_or(WireError::LengthOverflow { context: "tensor dims", announced: u64::MAX })?;
    let t = match quantization_of(precision) {
        None => {
            if r.remaining() / 4 < len {
                return Err(WireError::LengthOverflow {
                    context: "tensor values",
                    announced: len as u64,
                }
                .into());
            }
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(r.f32()?);
            }
            Tensor::from_vec(data, dims.clone())?
        }
        Some(_) => {
            let q = QuantizedMatrix::from_wire(r)?;
            if q.rows() * q.cols() != len {
                return Err(CodecError::Structure {
                    detail: format!(
                        "quantised section holds {} values, dims {:?} need {len}",
                        q.rows() * q.cols(),
                        dims
                    ),
                });
            }
            q.decode().reshape(dims.clone())?
        }
    };
    Ok(t)
}

fn write_checkpoint(w: &mut WireWriter, c: &Checkpoint, precision: WirePrecision) -> Result<(), CodecError> {
    w.u32(c.version);
    w.u64(c.params.len() as u64);
    for p in &c.params {
        write_tensor(w, p, precision)?;
    }
    Ok(())
}

fn read_checkpoint(r: &mut WireReader<'_>, precision: WirePrecision) -> Result<Checkpoint, CodecError> {
    let version = r.u32()?;
    let n = r.len_for("checkpoint tensors", 8)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(read_tensor(r, precision)?);
    }
    Ok(Checkpoint {
        version,
        shapes: params.iter().map(|p| p.shape().dims().to_vec()).collect(),
        params,
    })
}

// ---------------------------------------------------------------------
// Deployment payloads
// ---------------------------------------------------------------------

/// Encodes a deployment at `precision`. Tensor sections (checkpoint
/// parameters, exemplar features, shipped prototypes) follow the
/// precision; the normaliser and config are always bit-exact — they are
/// tiny and getting them wrong corrupts every downstream feature.
pub fn encode_deployment(d: &Deployment, precision: WirePrecision) -> Result<Vec<u8>, CodecError> {
    let mut w = WireWriter::new();
    write_deployment(&mut w, d, precision)?;
    Ok(w.into_bytes())
}

/// Exact byte count [`encode_deployment`] produces for `d` at
/// `precision` — the number the link model is charged with. The same
/// writer code runs into a counting [`WireWriter`], so no payload is built.
pub fn deployment_wire_bytes(d: &Deployment, precision: WirePrecision) -> Result<u64, CodecError> {
    let mut w = WireWriter::counting();
    write_deployment(&mut w, d, precision)?;
    Ok(w.len() as u64)
}

/// Writes the deployment payload [`encode_deployment`] describes into `w`.
fn write_deployment(w: &mut WireWriter, d: &Deployment, precision: WirePrecision) -> Result<(), CodecError> {
    w.raw(&DEPLOYMENT_MAGIC);
    w.u8(precision.tag());
    write_checkpoint(w, &d.checkpoint, precision)?;
    // Support set.
    let labels = d.support.labels();
    w.u64(labels.len() as u64);
    for label in labels {
        w.u64(label as u64);
        let features = d.support.class(label).ok_or_else(|| CodecError::Structure {
            detail: format!("support label {label} vanished during encode"),
        })?;
        write_tensor(w, features, precision)?;
    }
    // Shipped prototypes.
    match &d.prototypes {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.u64(p.labels.len() as u64);
            for &l in &p.labels {
                w.u64(l as u64);
            }
            write_tensor(w, &p.matrix, precision)?;
        }
    }
    // Normaliser (always exact).
    w.u64(d.normalizer.dim() as u64);
    w.f32s(d.normalizer.mean());
    w.f32s(d.normalizer.std());
    write_config(w, &d.config);
    Ok(())
}

/// Decodes a deployment payload. The result is what the device installs:
/// at quantised precisions the checkpoint, exemplars and prototypes carry
/// real reconstruction error.
pub fn decode_deployment(bytes: &[u8]) -> Result<Deployment, CodecError> {
    let mut r = WireReader::with_magic(bytes, DEPLOYMENT_MAGIC)?;
    let precision = WirePrecision::from_tag(r.u8()?)?;
    let checkpoint = read_checkpoint(&mut r, precision)?;
    let n_classes = r.len_for("support classes", 8)?;
    let mut support = SupportSet::new();
    for _ in 0..n_classes {
        let label = r.u64()? as usize;
        let features = read_tensor(&mut r, precision)?;
        support.put_class(label, features);
    }
    let prototypes = match r.u8()? {
        0 => None,
        1 => {
            let n = r.len_for("prototype labels", 8)?;
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(r.u64()? as usize);
            }
            let matrix = read_tensor(&mut r, precision)?;
            Some(ShippedPrototypes { labels, matrix })
        }
        tag => return Err(WireError::BadTag { context: "prototype presence", tag }.into()),
    };
    let dim = r.len_for("normalizer columns", 8)?;
    let mut mean = Vec::with_capacity(dim);
    for _ in 0..dim {
        mean.push(r.f32()?);
    }
    let mut std = Vec::with_capacity(dim);
    for _ in 0..dim {
        std.push(r.f32()?);
    }
    let normalizer = Normalizer::from_parts(mean, std)
        .map_err(|e| CodecError::Structure { detail: e.to_string() })?;
    let config = read_config(&mut r)?;
    r.finish()?;
    let deployment = Deployment { checkpoint, support, normalizer, config, prototypes };
    check_deployment_sections(&deployment)?;
    Ok(deployment)
}

/// Checks a decoded deployment's sections against its own `config.net`,
/// so installing it can neither panic nor build a network at a width the
/// payload chooses: the checkpoint must hold exactly the shapes
/// [`EmbeddingNet::new`] builds, and the normaliser and every support
/// class must be `FEATURE_DIM` columns wide, the width the device's
/// feature extractor emits. Shipped prototype widths are left to the
/// serve path, which rejects them with a typed [`TensorError`].
fn check_deployment_sections(d: &Deployment) -> Result<(), CodecError> {
    let structure = |detail: String| Err(CodecError::Structure { detail });
    let net = &d.config.net;
    if net.input_dim != FEATURE_DIM {
        return structure(format!("config input_dim {} is not {FEATURE_DIM}", net.input_dim));
    }
    let (shapes, expected) = (&d.checkpoint.shapes, EmbeddingNet::param_shapes(net));
    let tensors = shapes.len().max(expected.len());
    if let Some(i) = (0..tensors).find(|&i| shapes.get(i) != expected.get(i)) {
        return structure(format!(
            "checkpoint tensor {i} is {:?}, config.net builds {:?}",
            shapes.get(i),
            expected.get(i)
        ));
    }
    let columns = d.normalizer.dim();
    if columns != FEATURE_DIM {
        return structure(format!("normaliser covers {columns} columns, not {FEATURE_DIM}"));
    }
    for label in d.support.labels() {
        let dims = d.support.class(label).map(|t| t.shape().dims());
        if !matches!(dims, Some(&[_, cols]) if cols == FEATURE_DIM) {
            let detail = format!("support class {label} has dims {dims:?}, not [n, {FEATURE_DIM}]");
            return structure(detail);
        }
    }
    Ok(())
}

fn write_config(w: &mut WireWriter, cfg: &PiloteConfig) {
    w.u64(cfg.net.input_dim as u64);
    w.u64(cfg.net.hidden.len() as u64);
    for &h in &cfg.net.hidden {
        w.u64(h as u64);
    }
    w.u64(cfg.net.embedding_dim as u64);
    w.f32(cfg.alpha);
    w.f32(cfg.margin);
    w.u8(match cfg.contrastive_form {
        ContrastiveForm::SquaredMargin => 0,
        ContrastiveForm::Hadsell => 1,
    });
    w.f32(cfg.initial_lr);
    w.u64(cfg.lr_halve_every as u64);
    w.u64(cfg.distill_batch as u64);
    w.u64(cfg.max_epochs as u64);
    w.u64(cfg.pair_batch as u64);
    w.u64(cfg.pairs_per_sample as u64);
    w.f32(cfg.val_fraction);
    w.f32(cfg.early_stop_threshold);
    w.u64(cfg.early_stop_patience as u64);
    w.u64(cfg.seed);
}

fn read_config(r: &mut WireReader<'_>) -> Result<PiloteConfig, CodecError> {
    let input_dim = r.u64()? as usize;
    let n_hidden = r.len_for("hidden layers", 8)?;
    let mut hidden = Vec::with_capacity(n_hidden);
    for _ in 0..n_hidden {
        hidden.push(r.u64()? as usize);
    }
    let embedding_dim = r.u64()? as usize;
    let alpha = r.f32()?;
    let margin = r.f32()?;
    let contrastive_form = match r.u8()? {
        0 => ContrastiveForm::SquaredMargin,
        1 => ContrastiveForm::Hadsell,
        tag => return Err(WireError::BadTag { context: "ContrastiveForm", tag }.into()),
    };
    Ok(PiloteConfig {
        net: NetConfig { input_dim, hidden, embedding_dim },
        alpha,
        margin,
        contrastive_form,
        initial_lr: r.f32()?,
        lr_halve_every: r.u64()? as usize,
        distill_batch: r.u64()? as usize,
        max_epochs: r.u64()? as usize,
        pair_batch: r.u64()? as usize,
        pairs_per_sample: r.u64()? as usize,
        val_fraction: r.f32()?,
        early_stop_threshold: r.f32()?,
        early_stop_patience: r.u64()? as usize,
        seed: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// Federated round payloads
// ---------------------------------------------------------------------

const ROUND_FULL: u8 = 0;
const ROUND_DELTA: u8 = 1;

/// Encodes a full checkpoint round payload at `precision`.
pub fn encode_round_full(target: &Checkpoint, precision: WirePrecision) -> Result<Vec<u8>, CodecError> {
    let mut w = WireWriter::with_magic(ROUND_MAGIC);
    w.u8(precision.tag());
    w.u8(ROUND_FULL);
    write_checkpoint(&mut w, target, precision)?;
    Ok(w.into_bytes())
}

/// Encodes a delta round payload: per-layer diffs of `target` against
/// `base`, tagged with `base_generation` (the round both ends committed).
///
/// At `F32`, changed layers ship their raw target bits — the decoded
/// checkpoint is bitwise identical to `target`. At `U16`/`I8` the
/// *arithmetic diff* `target − base` is quantised: between consecutive
/// rounds diffs span a range orders of magnitude tighter than raw
/// weights, so the affine step — `range / 255` for i8 — is
/// correspondingly finer. That compounding is the whole point of
/// delta + quantisation.
pub fn encode_round_delta(
    base: &Checkpoint,
    target: &Checkpoint,
    base_generation: u64,
    precision: WirePrecision,
) -> Result<Vec<u8>, CodecError> {
    let delta = CheckpointDelta::diff(base, target, base_generation)?;
    let mut w = WireWriter::with_magic(ROUND_MAGIC);
    w.u8(precision.tag());
    w.u8(ROUND_DELTA);
    w.u64(delta.base_generation);
    w.u32(delta.version);
    w.u64(delta.layers.len() as u64);
    for (layer, b) in delta.layers.iter().zip(&base.params) {
        match layer {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                match quantization_of(precision) {
                    None => write_tensor(&mut w, t, precision)?,
                    Some(mode) => {
                        let diff: Vec<f32> = t
                            .as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .map(|(next, prev)| next - prev)
                            .collect();
                        let diff = Tensor::from_vec(diff, t.shape().dims().to_vec())?;
                        w.u64(diff.rank() as u64);
                        for &d in diff.shape().dims() {
                            w.u64(d as u64);
                        }
                        QuantizedMatrix::encode(&rank2_view(&diff)?, mode)?.to_wire(&mut w);
                    }
                }
            }
        }
    }
    Ok(w.into_bytes())
}

/// Decodes a round payload into the checkpoint it carries.
///
/// `base` is the receiver's committed broadcast and its generation; a
/// delta payload fails with [`CodecError::MissingBase`] when the receiver
/// holds none, or [`DeltaError::GenerationMismatch`] (wrapped) when the
/// generations disagree — the typed signals for "request a full payload
/// instead". Full payloads ignore `base`.
pub fn decode_round(
    bytes: &[u8],
    base: Option<(&Checkpoint, u64)>,
) -> Result<Checkpoint, CodecError> {
    let mut r = WireReader::with_magic(bytes, ROUND_MAGIC)?;
    let precision = WirePrecision::from_tag(r.u8()?)?;
    let kind = r.u8()?;
    let out = match kind {
        ROUND_FULL => read_checkpoint(&mut r, precision)?,
        ROUND_DELTA => {
            let (base, held_generation) = base.ok_or(CodecError::MissingBase)?;
            let base_generation = r.u64()?;
            let version = r.u32()?;
            let n = r.len_for("delta layers", 1)?;
            if base_generation != held_generation {
                return Err(DeltaError::GenerationMismatch {
                    expected: base_generation,
                    found: held_generation,
                }
                .into());
            }
            if n != base.params.len() {
                return Err(DeltaError::StructureMismatch {
                    detail: format!("payload has {n} layers, base has {}", base.params.len()),
                }
                .into());
            }
            let mut layers = Vec::with_capacity(n);
            for i in 0..n {
                match r.u8()? {
                    0 => layers.push(None),
                    1 => {
                        let section = read_tensor(&mut r, precision)?;
                        let value = match quantization_of(precision) {
                            // F32 ships the raw target bits.
                            None => section,
                            // Quantised modes ship the diff; rebuild the
                            // target from the receiver's base.
                            Some(_) => {
                                let b = &base.params[i];
                                if b.shape() != section.shape() {
                                    return Err(DeltaError::StructureMismatch {
                                        detail: format!(
                                            "layer {i}: diff {:?} vs base {:?}",
                                            section.shape().dims(),
                                            b.shape().dims()
                                        ),
                                    }
                                    .into());
                                }
                                let data: Vec<f32> = b
                                    .as_slice()
                                    .iter()
                                    .zip(section.as_slice())
                                    .map(|(prev, d)| prev + d)
                                    .collect();
                                Tensor::from_vec(data, b.shape().dims().to_vec())?
                            }
                        };
                        layers.push(Some(value));
                    }
                    tag => {
                        return Err(WireError::BadTag { context: "delta layer presence", tag }
                            .into())
                    }
                }
            }
            let delta = CheckpointDelta {
                version,
                base_generation,
                shapes: base.shapes.clone(),
                layers,
            };
            delta.apply(base, held_generation)?
        }
        tag => return Err(WireError::BadTag { context: "round payload kind", tag }.into()),
    };
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Telemetry payloads
// ---------------------------------------------------------------------

/// Encodes a telemetry snapshot (full or delta — both are
/// [`Snapshot`]s). Infallible: every field is a plain scalar or string.
pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    let mut w = WireWriter::with_magic(SNAPSHOT_MAGIC);
    w.u8(s.enabled as u8);
    w.u64(s.counters.len() as u64);
    for (name, &v) in &s.counters {
        w.str(name);
        w.u64(v);
    }
    w.u64(s.gauges.len() as u64);
    for (name, g) in &s.gauges {
        w.str(name);
        w.f64(g.last);
        w.f64(g.min);
        w.f64(g.max);
        w.u64(g.count);
    }
    w.u64(s.histograms.len() as u64);
    for (name, h) in &s.histograms {
        w.str(name);
        w.u64(h.bounds.len() as u64);
        for &b in &h.bounds {
            w.f64(b);
        }
        w.u64(h.counts.len() as u64);
        for &c in &h.counts {
            w.u64(c);
        }
        w.u64(h.nan);
    }
    w.u64(s.kernels.len() as u64);
    for (name, k) in &s.kernels {
        w.str(name);
        w.u64(k.dispatches);
        w.u64(k.flops);
    }
    write_spans(&mut w, &s.spans);
    w.into_bytes()
}

/// Decodes a telemetry snapshot payload.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, CodecError> {
    let mut r = WireReader::with_magic(bytes, SNAPSHOT_MAGIC)?;
    let enabled = match r.u8()? {
        0 => false,
        1 => true,
        tag => return Err(WireError::BadTag { context: "snapshot enabled", tag }.into()),
    };
    let mut s = Snapshot { enabled, ..Default::default() };
    let n = r.len_for("snapshot counters", 9)?;
    for _ in 0..n {
        let name = r.str()?;
        s.counters.insert(name, r.u64()?);
    }
    let n = r.len_for("snapshot gauges", 9)?;
    for _ in 0..n {
        let name = r.str()?;
        let g = GaugeSnapshot { last: r.f64()?, min: r.f64()?, max: r.f64()?, count: r.u64()? };
        s.gauges.insert(name, g);
    }
    let n = r.len_for("snapshot histograms", 9)?;
    for _ in 0..n {
        let name = r.str()?;
        let nb = r.len_for("histogram bounds", 8)?;
        let mut bounds = Vec::with_capacity(nb);
        for _ in 0..nb {
            bounds.push(r.f64()?);
        }
        let nc = r.len_for("histogram counts", 8)?;
        let mut counts = Vec::with_capacity(nc);
        for _ in 0..nc {
            counts.push(r.u64()?);
        }
        let nan = r.u64()?;
        s.histograms.insert(name, HistogramSnapshot { bounds, counts, nan });
    }
    let n = r.len_for("snapshot kernels", 9)?;
    for _ in 0..n {
        let name = r.str()?;
        let k = KernelStats { dispatches: r.u64()?, flops: r.u64()? };
        s.kernels.insert(name, k);
    }
    s.spans = read_spans(&mut r, 0)?;
    r.finish()?;
    Ok(s)
}

/// Exact byte count [`encode_snapshot`] produces — what telemetry
/// uploads charge the link with.
pub fn snapshot_wire_bytes(s: &Snapshot) -> u64 {
    encode_snapshot(s).len() as u64
}

// ---------------------------------------------------------------------
// Session-matrix payloads
// ---------------------------------------------------------------------

/// Encodes a session × task [`AccuracyMatrix`] (see
/// `pilote_core::session_metrics`): the task definitions (name + label
/// set) followed by every row's generation, per-task known flag and
/// per-task `f32` accuracy, bit-exact. Infallible: every field is a
/// plain scalar or string.
pub fn encode_session_matrix(m: &AccuracyMatrix) -> Vec<u8> {
    let mut w = WireWriter::with_magic(SESSION_MATRIX_MAGIC);
    w.u64(m.tasks().len() as u64);
    for task in m.tasks() {
        w.str(&task.name);
        w.u64(task.labels.len() as u64);
        for &label in &task.labels {
            w.u64(label as u64);
        }
    }
    w.u64(m.rows().len() as u64);
    for row in m.rows() {
        w.u64(row.generation);
        for (j, &acc) in row.accuracies.iter().enumerate() {
            w.u8(row.known[j] as u8);
            w.f32(acc);
        }
    }
    w.into_bytes()
}

/// Decodes a session-matrix payload, re-validating the row shape through
/// [`AccuracyMatrix::from_parts`].
pub fn decode_session_matrix(bytes: &[u8]) -> Result<AccuracyMatrix, CodecError> {
    let mut r = WireReader::with_magic(bytes, SESSION_MATRIX_MAGIC)?;
    let nt = r.len_for("session matrix tasks", 9)?;
    let mut tasks = Vec::with_capacity(nt);
    for _ in 0..nt {
        let name = r.str()?;
        let nl = r.len_for("task labels", 8)?;
        let mut labels = Vec::with_capacity(nl);
        for _ in 0..nl {
            labels.push(r.u64()? as usize);
        }
        tasks.push(TaskGroup { name, labels });
    }
    let nr = r.len_for("session matrix rows", 8)?;
    let mut rows = Vec::with_capacity(nr);
    for _ in 0..nr {
        let generation = r.u64()?;
        let mut accuracies = Vec::with_capacity(nt);
        let mut known = Vec::with_capacity(nt);
        for _ in 0..nt {
            known.push(match r.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(WireError::BadTag { context: "session known flag", tag }.into())
                }
            });
            accuracies.push(r.f32()?);
        }
        rows.push(SessionRecord { generation, accuracies, known });
    }
    r.finish()?;
    AccuracyMatrix::from_parts(tasks, rows)
        .map_err(|e| CodecError::Structure { detail: e.to_string() })
}

/// Exact byte count [`encode_session_matrix`] produces — what a matrix
/// upload charges the link with.
pub fn session_matrix_wire_bytes(m: &AccuracyMatrix) -> u64 {
    encode_session_matrix(m).len() as u64
}

fn write_spans(w: &mut WireWriter, spans: &[SpanNode]) {
    w.u64(spans.len() as u64);
    for span in spans {
        w.str(&span.name);
        w.u64(span.seq_open);
        w.u64(span.seq_close);
        w.u64(span.flops);
        w.u64(span.attrs.len() as u64);
        for (name, &v) in &span.attrs {
            w.str(name);
            w.f64(v);
        }
        write_spans(w, &span.children);
    }
}

fn read_spans(r: &mut WireReader<'_>, depth: usize) -> Result<Vec<SpanNode>, CodecError> {
    if depth > MAX_SPAN_DEPTH {
        return Err(CodecError::Structure {
            detail: format!("span tree deeper than {MAX_SPAN_DEPTH}"),
        });
    }
    let n = r.len_for("spans", 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let seq_open = r.u64()?;
        let seq_close = r.u64()?;
        let flops = r.u64()?;
        let na = r.len_for("span attrs", 9)?;
        let mut attrs = std::collections::BTreeMap::new();
        for _ in 0..na {
            let attr = r.str()?;
            attrs.insert(attr, r.f64()?);
        }
        let children = read_spans(r, depth + 1)?;
        out.push(SpanNode { name, seq_open, seq_close, flops, attrs, children });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudServer;
    use pilote_har_data::dataset::generate_features;
    use pilote_har_data::{Activity, Simulator};

    fn deployment() -> Deployment {
        let mut sim = Simulator::with_seed(17);
        let (data, norm) = generate_features(
            &mut sim,
            &[(Activity::Still, 40), (Activity::Walk, 40), (Activity::Run, 40)],
        )
        .expect("simulate");
        let server = CloudServer::new(data, norm, PiloteConfig::fast_test(3));
        let (d, _) = server
            .pretrain_and_package(&[Activity::Still.label(), Activity::Walk.label()], 10)
            .expect("package");
        d
    }

    #[test]
    fn f32_deployment_round_trips_bitwise() {
        let d = deployment();
        let bytes = encode_deployment(&d, WirePrecision::F32).unwrap();
        assert_eq!(bytes.len() as u64, deployment_wire_bytes(&d, WirePrecision::F32).unwrap());
        let back = decode_deployment(&bytes).unwrap();
        assert_eq!(back.checkpoint, d.checkpoint);
        assert_eq!(back.support, d.support);
        assert_eq!(back.prototypes, d.prototypes);
        assert_eq!(back.normalizer, d.normalizer);
        assert_eq!(back.config, d.config);
    }

    /// The counted size is the encoded length at every precision, with and
    /// without shipped prototypes, for the paper network and the small one.
    #[test]
    fn deployment_wire_bytes_counts_what_encode_writes() {
        let base = deployment();
        let mut rng = pilote_tensor::Rng64::new(5);
        for net in [NetConfig::paper(), NetConfig::small()] {
            let mut d = base.clone();
            let mut model = EmbeddingNet::new(net.clone(), &mut rng);
            d.checkpoint = Checkpoint::capture(model.layers_mut());
            d.config.net = net.clone();
            let labels = d.support.labels();
            let matrix = Tensor::randn([labels.len(), net.embedding_dim], 0.0, 1.0, &mut rng);
            for prototypes in [Some(ShippedPrototypes { labels, matrix }), None] {
                d.prototypes = prototypes;
                for precision in [WirePrecision::F32, WirePrecision::U16, WirePrecision::I8] {
                    let encoded = encode_deployment(&d, precision).unwrap().len() as u64;
                    let case = format!("{net:?} {precision:?} prototypes {}", d.prototypes.is_some());
                    assert_eq!(deployment_wire_bytes(&d, precision).unwrap(), encoded, "{case}");
                }
            }
        }
    }

    #[test]
    fn quantised_deployments_shrink_and_stay_close() {
        let d = deployment();
        let f32_bytes = deployment_wire_bytes(&d, WirePrecision::F32).unwrap();
        let u16_bytes = deployment_wire_bytes(&d, WirePrecision::U16).unwrap();
        let i8_bytes = deployment_wire_bytes(&d, WirePrecision::I8).unwrap();
        assert!(u16_bytes < f32_bytes);
        assert!(i8_bytes < u16_bytes);
        let back = decode_deployment(&encode_deployment(&d, WirePrecision::I8).unwrap()).unwrap();
        for (a, b) in back.checkpoint.params.iter().zip(&d.checkpoint.params) {
            assert_eq!(a.shape(), b.shape());
            assert!(a.max_abs_diff(b).unwrap().is_finite());
        }
        // The decoded package really is lossy — quantisation is not an
        // accounting fiction.
        assert_ne!(back.checkpoint, d.checkpoint);
    }

    /// The structure error that decoding `d` after a bit-exact encode must
    /// return. The tests below only decode their mutants: installing one
    /// would panic or allocate at a width the payload chose.
    fn structure_error_of(d: &Deployment) -> String {
        match decode_deployment(&encode_deployment(d, WirePrecision::F32).unwrap()) {
            Err(CodecError::Structure { detail }) => detail,
            other => panic!("expected a structure error, got {:?}", other.map(drop)),
        }
    }

    #[test]
    fn a_hidden_width_the_checkpoint_does_not_hold_is_a_structure_error() {
        // An install would build an 80 × 2^40 first layer before
        // `Checkpoint::restore` compared shapes.
        let mut d = deployment();
        d.config.net.hidden[0] = 1 << 40;
        assert!(structure_error_of(&d).starts_with("checkpoint tensor 0"));
    }

    #[test]
    fn a_normaliser_narrower_than_the_features_is_a_structure_error() {
        let mut d = deployment();
        d.normalizer = Normalizer::from_parts(vec![0.0; 3], vec![1.0; 3]).unwrap();
        assert!(structure_error_of(&d).starts_with("normaliser"));
    }

    #[test]
    fn support_features_narrower_than_the_features_are_a_structure_error() {
        let mut d = deployment();
        let label = d.support.labels()[0];
        d.support.put_class(label, Tensor::zeros([4, 3]));
        assert!(structure_error_of(&d).starts_with(&format!("support class {label}")));
    }

    #[test]
    fn a_net_input_width_other_than_the_features_is_a_structure_error() {
        // The checkpoint agrees with `input_dim = 3`, while the normaliser
        // and the support keep the FEATURE_DIM columns the device extracts.
        let mut d = deployment();
        d.config.net.input_dim = 3;
        let mut net = EmbeddingNet::new(d.config.net.clone(), &mut pilote_tensor::Rng64::new(1));
        d.checkpoint = Checkpoint::capture(net.layers_mut());
        assert!(structure_error_of(&d).starts_with("config input_dim 3"));
    }

    #[test]
    fn tensor_dims_whose_product_wraps_are_a_typed_error() {
        // Dims [2^62 + 1, 4] multiply to 2^64 + 4, which wraps to 4: the
        // four values that follow would pass an unchecked bounds test.
        let mut w = WireWriter::with_magic(ROUND_MAGIC);
        w.u8(WirePrecision::F32.tag());
        w.u8(ROUND_FULL);
        w.u32(1);
        w.u64(1);
        w.u64(2);
        w.u64((1 << 62) + 1);
        w.u64(4);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.f32(v);
        }
        assert!(matches!(
            decode_round(&w.into_bytes(), None),
            Err(CodecError::Wire(WireError::LengthOverflow { context: "tensor dims", .. }))
        ));
    }

    #[test]
    fn f32_checkpoint_payload_matches_closed_form() {
        let d = deployment();
        let bytes = encode_round_full(&d.checkpoint, WirePrecision::F32).unwrap();
        // magic (4) + precision (1) + kind (1) + the closed form
        // `Checkpoint::wire_bytes` promises for the binary f32 layout.
        assert_eq!(bytes.len() as u64, 6 + d.checkpoint.wire_bytes());
    }

    #[test]
    fn f32_delta_round_trips_bitwise_and_elides_unchanged_layers() {
        let d = deployment();
        let base = d.checkpoint.clone();
        let mut target = base.clone();
        // Perturb a small layer (the first Dense bias) so the elision of
        // the large unchanged weight matrices dominates the payload.
        target.params[1].as_mut_slice()[7] += 0.25;
        let delta_bytes = encode_round_delta(&base, &target, 3, WirePrecision::F32).unwrap();
        let full_bytes = encode_round_full(&target, WirePrecision::F32).unwrap();
        assert!(delta_bytes.len() < full_bytes.len() / 2);
        let back = decode_round(&delta_bytes, Some((&base, 3))).unwrap();
        assert_eq!(back, target);
    }

    #[test]
    fn delta_against_wrong_generation_is_typed() {
        let d = deployment();
        let base = d.checkpoint.clone();
        let bytes = encode_round_delta(&base, &base, 5, WirePrecision::F32).unwrap();
        assert!(matches!(
            decode_round(&bytes, Some((&base, 4))),
            Err(CodecError::Delta(DeltaError::GenerationMismatch { expected: 5, found: 4 }))
        ));
        assert_eq!(decode_round(&bytes, None), Err(CodecError::MissingBase));
    }

    #[test]
    fn quantised_delta_rebuilds_near_target() {
        let d = deployment();
        let base = d.checkpoint.clone();
        let mut target = base.clone();
        for p in &mut target.params {
            for v in p.as_mut_slice() {
                *v += 0.01;
            }
        }
        let bytes = encode_round_delta(&base, &target, 1, WirePrecision::I8).unwrap();
        let back = decode_round(&bytes, Some((&base, 1))).unwrap();
        for (a, b) in back.params.iter().zip(&target.params) {
            // Diff range is ~0.01, so the i8 step is ~4e-5.
            assert!(a.max_abs_diff(b).unwrap() < 1e-3);
        }
        let full = encode_round_full(&target, WirePrecision::F32).unwrap();
        assert!(bytes.len() < full.len() / 3);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut s = Snapshot { enabled: true, ..Default::default() };
        s.counters.insert("edge.inference".into(), 42);
        s.gauges.insert(
            "edge.clock_seconds".into(),
            GaugeSnapshot { last: 1.5, min: -0.0, max: f64::MAX, count: 3 },
        );
        let mut h = HistogramSnapshot::with_bounds(&[1.0, 10.0]);
        h.record(0.5);
        h.record(f64::NAN);
        s.histograms.insert("quality.margins".into(), h);
        s.kernels.insert("gemm".into(), KernelStats { dispatches: 9, flops: 1 << 40 });
        s.spans = vec![SpanNode {
            name: "serve".into(),
            seq_open: 1,
            seq_close: 4,
            flops: 77,
            attrs: [("windows".to_string(), 3.5)].into_iter().collect(),
            children: vec![SpanNode {
                name: "embed".into(),
                seq_open: 2,
                seq_close: 3,
                flops: 70,
                attrs: Default::default(),
                children: Vec::new(),
            }],
        }];
        let bytes = encode_snapshot(&s);
        assert_eq!(bytes.len() as u64, snapshot_wire_bytes(&s));
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, s);
        // Binary is materially smaller than the JSON it replaces.
        let json_len = serde_json::to_string(&s).unwrap().len();
        assert!(bytes.len() < json_len);
    }

    #[test]
    fn session_matrix_round_trips_bitwise() {
        let mut m = AccuracyMatrix::new(vec![
            TaskGroup::new("base", &[0, 1]),
            TaskGroup::new("run", &[2]),
        ]);
        m.record(3, vec![0.9375, -1.0], vec![true, false]);
        m.record(4, vec![0.875, 0.75], vec![true, true]);
        let bytes = encode_session_matrix(&m);
        assert_eq!(bytes.len() as u64, session_matrix_wire_bytes(&m));
        let back = decode_session_matrix(&bytes).unwrap();
        assert_eq!(back, m);
        // Binary is materially smaller than the JSON it replaces.
        let json_len = serde_json::to_string(&m).unwrap().len();
        assert!(bytes.len() < json_len);
    }

    #[test]
    fn corrupt_session_matrix_payloads_are_typed_errors() {
        let m = AccuracyMatrix::new(vec![TaskGroup::new("base", &[0])]);
        let mut bytes = encode_session_matrix(&m);
        bytes[0] = b'X';
        assert!(matches!(
            decode_session_matrix(&bytes),
            Err(CodecError::Wire(WireError::BadMagic { .. }))
        ));
        assert!(matches!(
            decode_session_matrix(b"PWM1"),
            Err(CodecError::Wire(WireError::UnexpectedEof { .. }))
        ));
        // A bad known-flag tag is caught, not coerced.
        let mut m = AccuracyMatrix::new(vec![TaskGroup::new("base", &[0])]);
        m.record(1, vec![0.5], vec![true]);
        let mut bytes = encode_session_matrix(&m);
        let flag_at = bytes.len() - 5; // last row: u8 flag then f32 accuracy
        assert_eq!(bytes[flag_at], 1);
        bytes[flag_at] = 7;
        assert!(matches!(
            decode_session_matrix(&bytes),
            Err(CodecError::Wire(WireError::BadTag { context: "session known flag", .. }))
        ));
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let d = deployment();
        let mut bytes = encode_deployment(&d, WirePrecision::F32).unwrap();
        assert!(matches!(
            decode_deployment(&bytes[..bytes.len() / 2]),
            Err(CodecError::Wire(_))
        ));
        bytes[0] = b'X';
        assert!(matches!(
            decode_deployment(&bytes),
            Err(CodecError::Wire(WireError::BadMagic { .. }))
        ));
        assert!(matches!(
            decode_snapshot(b"PWS1"),
            Err(CodecError::Wire(WireError::UnexpectedEof { .. }))
        ));
    }
}
