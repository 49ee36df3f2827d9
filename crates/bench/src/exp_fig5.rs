//! **Figure 5** — 2-D visualisation of the embedding spaces of the three
//! models (new class 'Run' excluded from pre-training, 200 representative
//! exemplars per class).
//!
//! We emit PCA scatter series per model (CSV-ready JSON) and, because a
//! scatter plot is not a checkable claim, quantitative separation scores:
//! the paper's statement is that the re-trained model separates Run/Walk
//! better than the pre-trained model but worse than PILOTE.

use crate::report::{write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{build_scenario, pretrain_base, run_arm};
use pilote_core::projection::{pairwise_separation, scatter_2d, separation_score};
use pilote_core::{Method, Pilote};
use pilote_har_data::{Activity, Dataset};
use serde_json::json;
use std::path::Path;

/// Separation diagnostics of one model's embedding space.
#[derive(Debug, Clone, Copy)]
pub struct SpaceQuality {
    /// All-class separation score.
    pub global: f32,
    /// Run-vs-Walk pairwise separation.
    pub run_walk: f32,
}

fn analyse(model: &mut Pilote, test: &Dataset) -> (SpaceQuality, serde_json::Value) {
    let emb = model.embed(&test.features);
    let quality = SpaceQuality {
        global: separation_score(&emb, &test.labels).expect("separation"),
        run_walk: pairwise_separation(&emb, &test.labels, Activity::Run.label(), Activity::Walk.label())
            .expect("run/walk separation"),
    };
    let scatter = scatter_2d(&emb, &test.labels).expect("scatter");
    let series = json!(scatter
        .labels
        .iter()
        .zip(&scatter.points)
        .map(|(&label, pts)| json!({
            "class": Activity::from_label(label).map(|a| a.name()).unwrap_or("?"),
            "points": pts.iter().map(|&(x, y)| json!([x, y])).collect::<Vec<_>>(),
        }))
        .collect::<Vec<_>>());
    (quality, series)
}

/// Runs the Figure 5 protocol; returns the three models' space quality in
/// `(pretrained, retrained, pilote)` order.
pub fn run(
    scale: &Scale,
    seed: u64,
    out: &Path,
) -> Result<(SpaceQuality, SpaceQuality, SpaceQuality), ReportError> {
    eprintln!("[fig5] embedding spaces (new class Run)");
    let scenario = build_scenario(Activity::Run, scale, seed);
    let base = pretrain_base(scenario, scale, seed);
    let n_new = scale.exemplars_per_class;

    // Subsample the test set for the scatter (plots need ~100 pts/class).
    let mut rng = pilote_tensor::Rng64::new(seed ^ 0xf15);
    let mut keep = Vec::new();
    for label in base.scenario.test.classes() {
        let sub = base.scenario.test.sample_class(label, 100, &mut rng).expect("subsample");
        keep.push(sub);
    }
    let mut plot_set = keep.remove(0);
    for d in keep {
        plot_set = plot_set.concat(&d).expect("concat");
    }

    let arms =
        [(Method::Pretrained, seed ^ 1), (Method::Retrained, seed ^ 2), (Method::Pilote, seed ^ 2)];
    let [(q_pre, s_pre), (q_retr, s_retr), (q_pil, s_pil)] = arms.map(|(method, round_seed)| {
        let mut model = base.model.clone_model();
        run_arm(method, &mut model, &base.scenario, n_new, round_seed);
        analyse(&mut model, &plot_set)
    });

    let mut t = Table::new(
        "Figure 5: embedding-space separation scores (higher = cleaner clusters)",
        &["model", "global", "Run vs Walk"],
    );
    for (name, q) in [("pre-trained", q_pre), ("re-trained", q_retr), ("pilote", q_pil)] {
        t.row(vec![name.into(), format!("{:.3}", q.global), format!("{:.3}", q.run_walk)]);
    }
    println!("{t}");

    write_json(
        out,
        "fig5.json",
        &json!({
            "pretrained": {"separation": q_pre.global, "run_walk": q_pre.run_walk, "scatter": s_pre},
            "retrained": {"separation": q_retr.global, "run_walk": q_retr.run_walk, "scatter": s_retr},
            "pilote": {"separation": q_pil.global, "run_walk": q_pil.run_walk, "scatter": s_pil},
        }),
    )?;
    Ok((q_pre, q_retr, q_pil))
}
