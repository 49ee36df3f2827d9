//! **Q2 (§6.3)** — edge applicability: per-epoch latency, epochs to
//! converge, accuracy within the epoch budget, and support-set storage.
//!
//! Paper claims to check: "with less than 200 exemplars per class
//! (< 256 KB), PILOTE can reach an accuracy of 93.72% within 20 training
//! epochs, and each epoch costs less than 0.5 s"; "2 500 exemplars in
//! compressed format would take 3.2 MB".

use crate::report::{write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{build_scenario, pretrain_base, run_arm};
use pilote_core::Method;
use pilote_edge_sim::memory::{model_bytes, ValueWidth};
use pilote_edge_sim::quantize::{Quantization, QuantizedMatrix};
use pilote_edge_sim::{DeviceProfile, MemoryBudget};
use pilote_har_data::{Activity, FEATURE_DIM};
use serde_json::json;
use std::path::Path;

/// Measured Q2 quantities.
#[derive(Debug, Clone)]
pub struct TimingResult {
    /// Mean seconds per incremental-update epoch on the host, or `None`
    /// when the update ran zero epochs (there is no per-epoch latency to
    /// report; the old `max(1)` clamp silently printed `0.000 s` instead
    /// of surfacing the empty run).
    pub epoch_seconds_host: Option<f64>,
    /// Epochs the update ran before stopping (may genuinely be 0, e.g.
    /// when the pair population is empty at tiny scales).
    pub epochs: usize,
    /// Accuracy after the update.
    pub accuracy: f32,
    /// Raw f32 bytes of the 200/class support set (old classes + new).
    pub support_bytes_f32: u64,
    /// Bytes of the same support set under i8 quantisation.
    pub support_bytes_i8: u64,
    /// Bytes of the embedding model's parameters.
    pub model_param_bytes: u64,
}

/// Runs the timing/storage measurements.
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<TimingResult, ReportError> {
    eprintln!("[timing] measuring the PILOTE edge update (new class Run)");
    let scenario = build_scenario(Activity::Run, scale, seed);
    let mut base = pretrain_base(scenario, scale, seed);
    let n_new = scale.exemplars_per_class;

    let mut model = base.model.clone_model();
    let (run, report) = run_arm(Method::Pilote, &mut model, &base.scenario, n_new, seed ^ 0x42);
    // A zero-epoch run has no per-epoch latency; report it as such rather
    // than clamping the divisor and printing a bogus 0-second epoch.
    let epochs = report.epochs.len();
    let epoch_seconds =
        (epochs > 0).then(|| report.total_seconds() / epochs as f64);
    if epochs == 0 {
        eprintln!("[timing] WARNING: the update ran 0 epochs — per-epoch latency unavailable");
    }

    // Storage accounting on the *actual* stored support set.
    let support = model.support().to_dataset().expect("support");
    let budget_f32 = MemoryBudget::new(support.len(), FEATURE_DIM, ValueWidth::F32);
    let quantized = QuantizedMatrix::encode(&support.features, Quantization::I8).expect("encode");
    let params = base.model.net_mut().param_count();

    let result = TimingResult {
        epoch_seconds_host: epoch_seconds,
        epochs,
        accuracy: run.accuracy,
        support_bytes_f32: budget_f32.total_bytes(),
        support_bytes_i8: quantized.storage_bytes(),
        model_param_bytes: model_bytes(params),
    };

    let fmt_epoch = |s: Option<f64>| match s {
        Some(v) => format!("{v:.3} s"),
        None => "n/a (0 epochs)".to_string(),
    };
    let mut t = Table::new("Q2: edge applicability measurements", &["quantity", "value"]);
    t.row(vec!["update epochs".into(), result.epochs.to_string()]);
    t.row(vec!["epoch wall-time (host)".into(), fmt_epoch(result.epoch_seconds_host)]);
    for device in [DeviceProfile::flagship_phone(), DeviceProfile::budget_phone(), DeviceProfile::wearable()]
    {
        t.row(vec![
            format!("epoch wall-time ({})", device.name),
            fmt_epoch(result.epoch_seconds_host.map(|s| device.project_seconds(s))),
        ]);
    }
    t.row(vec!["accuracy after update".into(), format!("{:.4}", result.accuracy)]);
    t.row(vec![
        format!("support set ({} exemplars, f32)", support.len()),
        format!("{:.1} KB", result.support_bytes_f32 as f64 / 1000.0),
    ]);
    t.row(vec![
        "support set (i8 quantised)".into(),
        format!("{:.1} KB", result.support_bytes_i8 as f64 / 1000.0),
    ]);
    t.row(vec![
        format!("model parameters ({params})"),
        format!("{:.2} MB", result.model_param_bytes as f64 / 1e6),
    ]);
    // The paper's 2500-exemplar reference point.
    let ref_2500 = MemoryBudget::new(2500, FEATURE_DIM, ValueWidth::F32);
    t.row(vec![
        "2500-exemplar cache (f32)".into(),
        format!("{:.2} MB", ref_2500.total_bytes() as f64 / 1e6),
    ]);
    println!("{t}");

    write_json(
        out,
        "timing.json",
        &json!({
            // null (not 0.0) when the update ran zero epochs.
            "epoch_seconds_host": result.epoch_seconds_host,
            "epochs": result.epochs,
            "accuracy": result.accuracy,
            "support_bytes_f32": result.support_bytes_f32,
            "support_bytes_i8": result.support_bytes_i8,
            "model_param_bytes": result.model_param_bytes,
        }),
    )?;
    Ok(result)
}
