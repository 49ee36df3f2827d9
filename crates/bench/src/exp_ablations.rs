//! Ablations A1–A4: the design choices DESIGN.md calls out.
//!
//! * **A1 α sweep** — α = 0 is the re-trained baseline, α = 1 freezes
//!   learning entirely; the paper fixes α = 0.5.
//! * **A2 margin sweep** — the contrastive margin `m` of Eq. 2, in both
//!   the paper's `m² − d²` form and the Hadsell `(m − d)²` form.
//! * **A3 pair scheme** — the §5.2 reduced pair population vs full pairs:
//!   accuracy and update wall-time.
//! * **A4 strategy comparison** — PILOTE vs the canonical CL families,
//!   every arm learning one new-class draw from one pre-trained model.

use crate::report::{write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::{
    build_scenario, draw_new_data, evaluate, pretrain_base, run_arm, PretrainedBase,
};
use pilote_core::pairs::PairScheme;
use pilote_core::pilote::{train_embedding, TrainOptions};
use pilote_core::strategies::LwfClassifier;
use pilote_core::Method;
use pilote_har_data::Activity;
use pilote_nn::loss::ContrastiveForm;
use serde_json::json;
use std::path::Path;
use std::time::Instant;

fn base_for(scale: &Scale, seed: u64) -> PretrainedBase {
    let scenario = build_scenario(Activity::Run, scale, seed);
    pretrain_base(scenario, scale, seed)
}

/// A1: accuracy as a function of the balancing weight α.
pub fn alpha_sweep(scale: &Scale, seed: u64, out: &Path) -> Result<Vec<(f32, f32, f32)>, ReportError> {
    let base = base_for(scale, seed);
    let n_new = scale.exemplars_per_class;
    let mut rows = Vec::new();
    for &alpha in &[0.0f32, 0.25, 0.5, 0.75, 0.9] {
        eprintln!("[ablate-alpha] alpha = {alpha}");
        let mut model = base.model.clone_model();
        model.config_mut().alpha = alpha;
        let (run, _) = run_arm(Method::Pilote, &mut model, &base.scenario, n_new, seed ^ 0xa1);
        rows.push((alpha, run.accuracy, run.old_accuracy));
    }
    let mut t = Table::new("A1: balancing weight α", &["alpha", "accuracy", "old-class accuracy"]);
    for &(a, acc, old) in &rows {
        t.row(vec![format!("{a:.2}"), format!("{acc:.4}"), format!("{old:.4}")]);
    }
    println!("{t}");
    write_json(
        out,
        "ablate_alpha.json",
        &json!(rows.iter().map(|&(a, acc, old)| json!({"alpha": a, "accuracy": acc, "old_accuracy": old})).collect::<Vec<_>>()),
    )?;
    Ok(rows)
}

/// A2: accuracy as a function of the contrastive margin and loss form.
pub fn margin_sweep(scale: &Scale, seed: u64, out: &Path) -> Result<Vec<(String, f32, f32)>, ReportError> {
    let base = base_for(scale, seed);
    let n_new = scale.exemplars_per_class;
    let mut rows = Vec::new();
    for form in [ContrastiveForm::SquaredMargin, ContrastiveForm::Hadsell] {
        for &margin in &[1.0f32, 2.0, 4.0, 8.0] {
            eprintln!("[ablate-margin] {form:?} m = {margin}");
            let mut model = base.model.clone_model();
            model.config_mut().margin = margin;
            model.config_mut().contrastive_form = form;
            let (run, _) = run_arm(Method::Pilote, &mut model, &base.scenario, n_new, seed ^ 0xa2);
            rows.push((format!("{form:?}/m={margin}"), margin, run.accuracy));
        }
    }
    let mut t = Table::new("A2: contrastive margin & form", &["configuration", "accuracy"]);
    for (name, _, acc) in &rows {
        t.row(vec![name.clone(), format!("{acc:.4}")]);
    }
    println!("{t}");
    write_json(
        out,
        "ablate_margin.json",
        &json!(rows.iter().map(|(n, m, a)| json!({"config": n, "margin": m, "accuracy": a})).collect::<Vec<_>>()),
    )?;
    Ok(rows)
}

/// A3: the reduced pair scheme of §5.2 vs full pairs — accuracy and
/// wall-time of the incremental update.
pub fn pair_scheme_sweep(
    scale: &Scale,
    seed: u64,
    out: &Path,
) -> Result<Vec<(String, f32, f64)>, ReportError> {
    let base = base_for(scale, seed);
    let n_new = scale.exemplars_per_class;
    let mut rows = Vec::new();
    for scheme in [PairScheme::Reduced, PairScheme::Full] {
        eprintln!("[ablate-pairs] scheme {}", scheme.name());
        let mut model = base.model.clone_model();
        model.reseed(seed ^ 0xa3);
        // Re-implement the update with an explicit scheme (learn_new_class
        // hard-codes Reduced, which is PILOTE's definition).
        let mut rng = model.fork_rng();
        let new_data = base
            .scenario
            .new_pool
            .sample_class(base.scenario.new_activity.label(), n_new, &mut rng)
            .expect("sample");
        let d0 = model.support().to_dataset().expect("support");
        let combined = d0.concat(&new_data).expect("concat");
        let mut is_new = vec![false; d0.len()];
        is_new.extend(std::iter::repeat_n(true, new_data.len()));
        let cfg = model.config().clone();
        let start = Instant::now();
        let opts = TrainOptions {
            alpha: cfg.alpha,
            distill_rows: (0..d0.len()).collect(),
            scheme,
            freeze_bn: true,
        };
        train_embedding(model.net_mut(), &combined, &is_new, &cfg, opts, &mut rng).expect("train");
        let seconds = start.elapsed().as_secs_f64();
        for label in new_data.classes() {
            let class = new_data.filter_classes(&[label]).expect("class");
            model.support_mut().put_class(label, class.features);
        }
        model.refresh_prototypes().expect("prototypes");
        let acc = model.accuracy(&base.scenario.test).expect("eval");
        rows.push((scheme.name().to_string(), acc, seconds));
    }
    let mut t = Table::new("A3: pair scheme (§5.2 reduction)", &["scheme", "accuracy", "update seconds"]);
    for (name, acc, secs) in &rows {
        t.row(vec![name.clone(), format!("{acc:.4}"), format!("{secs:.2}")]);
    }
    println!("{t}");
    write_json(
        out,
        "ablate_pairs.json",
        &json!(rows.iter().map(|(n, a, s)| json!({"scheme": n, "accuracy": a, "seconds": s})).collect::<Vec<_>>()),
    )?;
    Ok(rows)
}

/// A4: PILOTE vs the canonical continual-learning strategy families.
pub fn strategy_comparison(
    scale: &Scale,
    seed: u64,
    out: &Path,
) -> Result<Vec<(String, f32, f32, f32)>, ReportError> {
    let base = base_for(scale, seed);
    let n_new = scale.exemplars_per_class;
    let round_seed = seed ^ 0xa4;
    let mut rows = Vec::new();
    for method in
        [Method::Pilote, Method::NaiveFinetune, Method::Retrained, Method::GDumb, Method::Ewc]
    {
        eprintln!("[ablate-strategies] {}", method.name());
        let mut model = base.model.clone_model();
        let (run, _) = run_arm(method, &mut model, &base.scenario, n_new, round_seed);
        rows.push((method.name().to_string(), run.accuracy, run.old_accuracy, run.new_accuracy));
    }

    // LwF classifies with a softmax head instead of NCM, so it is no
    // `Method`; it learns the same draw and is scored the same way.
    eprintln!("[ablate-strategies] lwf");
    let new_data = draw_new_data(&base.scenario, n_new, round_seed);
    let mut lwf = LwfClassifier::from_pretrained(&base.model).expect("lwf head");
    lwf.learn_new_class(&new_data, base.scenario.new_activity.label()).expect("lwf update");
    let run = evaluate(&base.scenario, |data| lwf.accuracy(data));
    rows.push(("lwf".to_string(), run.accuracy, run.old_accuracy, run.new_accuracy));

    let mut t = Table::new(
        "A4: continual-learning strategy comparison (new class Run)",
        &["strategy", "accuracy", "old-class acc", "new-class acc"],
    );
    for (name, acc, old, new) in &rows {
        t.row(vec![name.clone(), format!("{acc:.4}"), format!("{old:.4}"), format!("{new:.4}")]);
    }
    println!("{t}");
    write_json(
        out,
        "ablate_strategies.json",
        &json!(rows
            .iter()
            .map(|(n, a, o, w)| json!({"strategy": n, "accuracy": a, "old_accuracy": o, "new_accuracy": w}))
            .collect::<Vec<_>>()),
    )?;
    Ok(rows)
}
