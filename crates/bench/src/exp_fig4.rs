//! **Figure 4** — confusion matrices of the three models when learning
//! the new class 'Run' with 200 exemplars per class in the support set.
//!
//! The paper's headline observation: the re-trained model floods 'Run'
//! with false positives at the expense of 'Walk'; PILOTE keeps the
//! boundary.

use crate::report::{write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{build_scenario, pretrain_base, run_arm};
use pilote_core::{ConfusionMatrix, Method, Pilote};
use pilote_har_data::{Activity, Dataset};
use serde_json::json;
use std::path::Path;

fn confusion(model: &mut Pilote, test: &Dataset) -> ConfusionMatrix {
    let labels: Vec<usize> = Activity::ALL.iter().map(|a| a.label()).collect();
    let names: Vec<String> = Activity::ALL.iter().map(|a| a.name().to_string()).collect();
    let pred = model.predict(&test.features).expect("predict");
    ConfusionMatrix::from_predictions(&labels, &names, &pred, &test.labels)
}

fn matrix_json(m: &ConfusionMatrix) -> serde_json::Value {
    json!({
        "labels": Activity::ALL.iter().map(|a| a.name()).collect::<Vec<_>>(),
        "rates": m.normalized(),
        "accuracy": m.accuracy(),
        "run_recall": m.recall(Activity::Run.label()),
        "walk_recall": m.recall(Activity::Walk.label()),
        "run_precision": m.precision(Activity::Run.label()),
    })
}

/// Runs the Figure 4 protocol. Returns `(pretrained, retrained, pilote)`
/// confusion matrices.
pub fn run(
    scale: &Scale,
    seed: u64,
    out: &Path,
) -> Result<(ConfusionMatrix, ConfusionMatrix, ConfusionMatrix), ReportError> {
    eprintln!("[fig4] scenario: new class Run, {} exemplars/class", scale.exemplars_per_class);
    let scenario = build_scenario(Activity::Run, scale, seed);
    let base = pretrain_base(scenario, scale, seed);
    let n_new = scale.exemplars_per_class;

    let arms =
        [(Method::Pretrained, seed ^ 1), (Method::Retrained, seed ^ 2), (Method::Pilote, seed ^ 2)];
    let [cm_pre, cm_retr, cm_pil] = arms.map(|(method, round_seed)| {
        let mut model = base.model.clone_model();
        run_arm(method, &mut model, &base.scenario, n_new, round_seed);
        confusion(&mut model, &base.scenario.test)
    });

    for (name, cm) in [("Pre-trained", &cm_pre), ("Re-trained", &cm_retr), ("PILOTE", &cm_pil)] {
        println!("Figure 4 — {name} (accuracy {:.4})\n{cm}", cm.accuracy());
    }

    // The paper's qualitative claim, in one comparison table.
    let mut t = Table::new(
        "Figure 4 summary: the Run/Walk boundary",
        &["model", "Walk recall", "Run recall", "Run precision"],
    );
    for (name, cm) in [("pre-trained", &cm_pre), ("re-trained", &cm_retr), ("pilote", &cm_pil)] {
        t.row(vec![
            name.into(),
            format!("{:.4}", cm.recall(Activity::Walk.label())),
            format!("{:.4}", cm.recall(Activity::Run.label())),
            format!("{:.4}", cm.precision(Activity::Run.label())),
        ]);
    }
    println!("{t}");

    write_json(
        out,
        "fig4.json",
        &json!({
            "pretrained": matrix_json(&cm_pre),
            "retrained": matrix_json(&cm_retr),
            "pilote": matrix_json(&cm_pil),
        }),
    )?;
    Ok((cm_pre, cm_retr, cm_pil))
}
