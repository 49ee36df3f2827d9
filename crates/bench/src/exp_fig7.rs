//! **Figure 7** — model accuracy as a function of the number of new-class
//! ('Run') exemplars, with 200 representative exemplars per old class —
//! the extreme-edge question (Q3).
//!
//! Paper shape: PILOTE reaches ~90% with only 30 Run exemplars and
//! dominates the re-trained model, most clearly below 50 exemplars; the
//! pre-trained model is a flat warm-start line.

use crate::report::{write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{build_scenario, pretrain_base, run_arm};
use pilote_core::Method;
use pilote_har_data::Activity;
use serde_json::json;
use std::path::Path;

/// Sweep over new-class exemplar counts (the paper's x-axis).
pub const NEW_COUNTS: [usize; 7] = [5, 10, 20, 30, 50, 100, 200];

/// One point of the sweep.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// New-class exemplars available on the edge.
    pub new_exemplars: usize,
    /// Pre-trained accuracy (prototype from the same few samples).
    pub pretrained: f32,
    /// Re-trained accuracy.
    pub retrained: f32,
    /// PILOTE accuracy.
    pub pilote: f32,
}

/// Runs the Figure 7 sweep.
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<Vec<Fig7Point>, ReportError> {
    let scenario = build_scenario(Activity::Run, scale, seed);
    let base = pretrain_base(scenario, scale, seed);
    let mut points = Vec::new();

    for &n_new in &NEW_COUNTS {
        eprintln!("[fig7] {} new-class exemplars", n_new);
        let accuracy = |method, round_seed| {
            let mut model = base.model.clone_model();
            run_arm(method, &mut model, &base.scenario, n_new, round_seed).0.accuracy
        };
        points.push(Fig7Point {
            new_exemplars: n_new,
            pretrained: accuracy(Method::Pretrained, seed ^ 0x70),
            retrained: accuracy(Method::Retrained, seed ^ 0x71),
            pilote: accuracy(Method::Pilote, seed ^ 0x71),
        });
    }

    let mut t = Table::new(
        "Figure 7: accuracy vs new-class ('Run') exemplar count (200/old class)",
        &["new exemplars", "Pre-trained", "Re-trained", "PILOTE"],
    );
    for p in &points {
        t.row(vec![
            p.new_exemplars.to_string(),
            format!("{:.4}", p.pretrained),
            format!("{:.4}", p.retrained),
            format!("{:.4}", p.pilote),
        ]);
    }
    println!("{t}");

    write_json(
        out,
        "fig7.json",
        &json!(points
            .iter()
            .map(|p| json!({
                "new_exemplars": p.new_exemplars,
                "pretrained": p.pretrained,
                "retrained": p.retrained,
                "pilote": p.pilote,
            }))
            .collect::<Vec<_>>()),
    )?;
    Ok(points)
}
