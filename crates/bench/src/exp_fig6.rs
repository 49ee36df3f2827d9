//! **Figure 6** — model accuracy as a function of the support set's size
//! (exemplars per class), for representative (herding) and random
//! exemplar-selection strategies. New class 'Run' excluded from
//! pre-training.
//!
//! Paper shape to reproduce: accuracy rises with exemplar count; the
//! pre-trained model is nearly flat; with very few exemplars (< 50) the
//! re-trained model drops *below* the pre-trained model while PILOTE stays
//! above it.

use crate::report::{write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{build_scenario, pretrain_base, run_arm, with_support_budget};
use pilote_core::{Method, SelectionStrategy};
use pilote_har_data::Activity;
use serde_json::json;
use std::path::Path;

/// Default sweep over exemplars-per-class (the paper's x-axis reaches
/// 2 500 total ≈ 500/class; we stop at 400 to stay within the simulated
/// training pool).
pub const BUDGETS: [usize; 6] = [10, 25, 50, 100, 200, 400];

/// One point of the sweep.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Exemplar-selection strategy.
    pub strategy: &'static str,
    /// Exemplars per class.
    pub budget: usize,
    /// Accuracy of the three models.
    pub pretrained: f32,
    /// Re-trained accuracy.
    pub retrained: f32,
    /// PILOTE accuracy.
    pub pilote: f32,
}

/// Runs the Figure 6 sweep.
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<Vec<Fig6Point>, ReportError> {
    let scenario = build_scenario(Activity::Run, scale, seed);
    let base = pretrain_base(scenario, scale, seed);
    let max_budget = scale.train_per_activity();
    let mut points = Vec::new();

    for strategy in [SelectionStrategy::Herding, SelectionStrategy::Random] {
        for &budget in BUDGETS.iter().filter(|&&b| b <= max_budget) {
            eprintln!("[fig6] strategy {} budget {}", strategy.name(), budget);
            // Support set rebuilt at this budget; the new class receives
            // the same number of (random) exemplars.
            let rebased = with_support_budget(&base, budget, strategy, seed ^ budget as u64);

            let accuracy = |method, round_seed| {
                let mut model = rebased.clone_model();
                run_arm(method, &mut model, &base.scenario, budget, round_seed).0.accuracy
            };
            points.push(Fig6Point {
                strategy: strategy.name(),
                budget,
                pretrained: accuracy(Method::Pretrained, seed ^ 0xa),
                retrained: accuracy(Method::Retrained, seed ^ 0xb),
                pilote: accuracy(Method::Pilote, seed ^ 0xb),
            });
        }
    }

    let mut t = Table::new(
        "Figure 6: accuracy vs support-set size (exemplars per class)",
        &["strategy", "exemplars/class", "Pre-trained", "Re-trained", "PILOTE"],
    );
    for p in &points {
        t.row(vec![
            p.strategy.into(),
            p.budget.to_string(),
            format!("{:.4}", p.pretrained),
            format!("{:.4}", p.retrained),
            format!("{:.4}", p.pilote),
        ]);
    }
    println!("{t}");

    write_json(
        out,
        "fig6.json",
        &json!(points
            .iter()
            .map(|p| json!({
                "strategy": p.strategy,
                "budget": p.budget,
                "pretrained": p.pretrained,
                "retrained": p.retrained,
                "pilote": p.pilote,
            }))
            .collect::<Vec<_>>()),
    )?;
    Ok(points)
}
