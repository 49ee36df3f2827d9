//! **Table 2** — accuracy of the pre-trained / re-trained / PILOTE models
//! on the five new-class scenarios, mean ± std over repetition rounds.

use crate::report::{pm, write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{build_scenario, pretrain_base, run_arm};
use pilote_core::metrics::mean_std;
use pilote_core::Method;
use pilote_har_data::Activity;
use serde_json::json;
use std::path::Path;

/// Result row for one scenario.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The new class of the scenario.
    pub new_class: String,
    /// Pre-trained accuracy (deterministic: one pre-trained model).
    pub pretrained: f32,
    /// Re-trained mean ± std.
    pub retrained: (f32, f32),
    /// PILOTE mean ± std.
    pub pilote: (f32, f32),
}

/// Runs the full Table 2 protocol.
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<Vec<Table2Row>, ReportError> {
    let mut rows = Vec::new();
    for (si, &activity) in Activity::ALL.iter().enumerate() {
        eprintln!("[table2] scenario {}/5: new class {}", si + 1, activity);
        let scenario = build_scenario(activity, scale, seed + si as u64);
        let base = pretrain_base(scenario, scale, seed + si as u64);
        let n_new = scale.exemplars_per_class;

        // Pre-trained: deterministic given the base, one round.
        let mut pre = base.model.clone_model();
        let (pre_run, _) =
            run_arm(Method::Pretrained, &mut pre, &base.scenario, n_new, seed ^ 0xbeef);

        let mut retr_acc = Vec::with_capacity(scale.rounds);
        let mut pil_acc = Vec::with_capacity(scale.rounds);
        for round in 0..scale.rounds {
            let round_seed = seed + 1000 * (round as u64 + 1) + si as u64;
            let accuracy = |method| {
                let mut m = base.model.clone_model();
                run_arm(method, &mut m, &base.scenario, n_new, round_seed).0.accuracy
            };
            retr_acc.push(accuracy(Method::Retrained));
            pil_acc.push(accuracy(Method::Pilote));
            eprintln!(
                "[table2]   round {}: re-trained {:.4}, pilote {:.4}",
                round + 1,
                retr_acc[round],
                pil_acc[round]
            );
        }
        rows.push(Table2Row {
            new_class: activity.name().to_string(),
            pretrained: pre_run.accuracy,
            retrained: mean_std(&retr_acc),
            pilote: mean_std(&pil_acc),
        });
    }

    let mut table = Table::new(
        "Table 2: accuracy without and with considering catastrophic forgetting",
        &["New class", "Pre-trained", "Re-trained", "PILOTE"],
    );
    for r in &rows {
        table.row(vec![
            r.new_class.clone(),
            format!("{:.4}", r.pretrained),
            pm(r.retrained.0, r.retrained.1),
            pm(r.pilote.0, r.pilote.1),
        ]);
    }
    println!("{table}");
    write_json(
        out,
        "table2.json",
        &json!(rows
            .iter()
            .map(|r| json!({
                "new_class": r.new_class,
                "pretrained": r.pretrained,
                "retrained_mean": r.retrained.0,
                "retrained_std": r.retrained.1,
                "pilote_mean": r.pilote.0,
                "pilote_std": r.pilote.1,
            }))
            .collect::<Vec<_>>()),
    )?;
    Ok(rows)
}
