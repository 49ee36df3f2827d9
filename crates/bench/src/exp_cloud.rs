//! A5 — the cloud-vs-edge cost comparison motivating the MAGNETO design
//! (Fig. 1/2 of the paper): a cloud deployment ships every sensor window
//! over the network forever; the edge deployment downloads the model and
//! support set once.

use crate::report::{write_json, ReportError, Table};
use pilote_core::{EmbeddingNet, NetConfig};
use pilote_edge_sim::link::cloud_vs_edge;
use pilote_edge_sim::memory::{model_bytes, ValueWidth};
use pilote_edge_sim::{LinkModel, MemoryBudget};
use pilote_har_data::sensors::{CHANNELS, WINDOW_LEN};
use pilote_har_data::FEATURE_DIM;
use serde_json::json;
use std::path::Path;

/// Runs the A5 comparison for one day of continuous recognition.
pub fn run(out: &Path) -> Result<Vec<(String, f64, f64)>, ReportError> {
    // One raw window = 120 samples × 22 channels × 4 bytes.
    let window_bytes = (WINDOW_LEN * CHANNELS * 4) as u64;
    let windows_per_day = 86_400u64; // one-second windows

    let params = EmbeddingNet::param_count_of(&NetConfig::paper());
    let model_b = model_bytes(params);
    let support_b = MemoryBudget::new(200 * 5, FEATURE_DIM, ValueWidth::F32).total_bytes();

    let mut rows = Vec::new();
    let mut t = Table::new(
        "A5: one day of HAR — cloud round-trips vs one-time edge download",
        &["link", "cloud link-time (s/day)", "cloud data (MB/day)", "edge bootstrap (s, once)", "edge data (MB, once)"],
    );
    for (name, link) in [
        ("wifi", LinkModel::wifi()),
        ("cellular-4g", LinkModel::cellular_4g()),
        ("weak-cellular", LinkModel::weak_cellular()),
    ] {
        let cmp = cloud_vs_edge(&link, windows_per_day, window_bytes, model_b, support_b);
        t.row(vec![
            name.into(),
            format!("{:.0}", cmp.cloud_link_seconds),
            format!("{:.1}", cmp.cloud_bytes as f64 / 1e6),
            format!("{:.2}", cmp.edge_bootstrap_seconds),
            format!("{:.2}", cmp.edge_bytes as f64 / 1e6),
        ]);
        rows.push((name.to_string(), cmp.cloud_link_seconds, cmp.edge_bootstrap_seconds));
    }
    println!("{t}");
    write_json(
        out,
        "cloud_vs_edge.json",
        &json!(rows
            .iter()
            .map(|(n, c, e)| json!({"link": n, "cloud_seconds_per_day": c, "edge_bootstrap_seconds": e}))
            .collect::<Vec<_>>()),
    )?;
    Ok(rows)
}
