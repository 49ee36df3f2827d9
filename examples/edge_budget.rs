//! Edge resource budgeting (Q2): how many exemplars fit on a device, what
//! does quantisation buy, and what does an update cost in device time and
//! cloud bandwidth?
//!
//! ```text
//! cargo run --release --example edge_budget
//! ```

use pilote::edge_sim::memory::{model_bytes, ValueWidth};
use pilote::edge_sim::quantize::{Quantization, QuantizedMatrix};
use pilote::edge_sim::link::cloud_vs_edge;
use pilote::har_data::sensors::{CHANNELS, WINDOW_LEN};
use pilote::prelude::*;

fn main() {
    // ---- exemplar storage across devices --------------------------------
    println!("== Support-set storage ==");
    let budget = MemoryBudget::new(200 * 5, FEATURE_DIM, ValueWidth::F32);
    println!(
        "200 exemplars/class × 5 classes × {FEATURE_DIM} features (f32): {:.0} KB",
        budget.total_bytes() as f64 / 1000.0
    );
    for device in
        [DeviceProfile::flagship_phone(), DeviceProfile::budget_phone(), DeviceProfile::wearable()]
    {
        let max = budget.exemplars_fitting(device.storage_bytes / 100); // allow 1% of storage
        println!(
            "  {:<15} 1% of storage holds {:>8} exemplars",
            device.name, max
        );
    }

    // ---- what quantisation buys -----------------------------------------
    println!("\n== Quantisation ==");
    let mut sim = Simulator::with_seed(3);
    let (data, _) = generate_features(&mut sim, &[(Activity::Walk, 200)]).expect("simulate");
    for mode in [Quantization::U16, Quantization::I8] {
        let q = QuantizedMatrix::encode(&data.features, mode).expect("encode");
        println!(
            "  {mode:?}: {:>7} bytes (raw {} bytes), max reconstruction error {:.5}",
            q.storage_bytes(),
            data.features.len() * 4,
            q.max_error(&data.features).expect("error")
        );
    }

    // ---- update latency projected onto devices ---------------------------
    println!("\n== Edge update latency ==");
    let mut rng = Rng64::new(9);
    let (train, _) = data.stratified_split(0.3, &mut rng).expect("split");
    let mut meter = LatencyMeter::new();
    let mut cfg = PiloteConfig::paper(3);
    cfg.net = NetConfig::small(); // wearable-class backbone
    cfg.max_epochs = 4;
    let (mut model, _) = meter.time("pretrain", || {
        Pilote::pretrain(cfg, &train, 40, SelectionStrategy::Herding).expect("pretrain")
    });
    let emb_probe = train.features.slice_rows(0, 1).expect("probe");
    meter.time("inference_1_window", || model.embed(&emb_probe));
    for device in
        [DeviceProfile::flagship_phone(), DeviceProfile::budget_phone(), DeviceProfile::wearable()]
    {
        println!(
            "  {:<15} pretrain {:>8.2}s   per-window inference {:>8.4}s",
            device.name,
            meter.projected_seconds("pretrain", &device).unwrap(),
            meter.projected_seconds("inference_1_window", &device).unwrap(),
        );
    }

    // ---- cloud vs edge traffic -------------------------------------------
    println!("\n== One day of HAR: cloud loop vs edge deployment ==");
    let window_bytes = (WINDOW_LEN * CHANNELS * 4) as u64;
    let params = EmbeddingNet::param_count_of(&NetConfig::paper());
    for (name, link) in [("wifi", LinkModel::wifi()), ("4g", LinkModel::cellular_4g())] {
        let cmp = cloud_vs_edge(&link, 86_400, window_bytes, model_bytes(params), budget.total_bytes());
        println!(
            "  {:<6} cloud: {:>8.0}s link-time, {:>7.1} MB/day | edge bootstrap: {:>6.2}s, {:>5.2} MB once",
            name,
            cmp.cloud_link_seconds,
            cmp.cloud_bytes as f64 / 1e6,
            cmp.edge_bootstrap_seconds,
            cmp.edge_bytes as f64 / 1e6
        );
    }
}
