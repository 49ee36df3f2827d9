//! Multi-step incremental learning: activities arrive one at a time, the
//! way a deployed MAGNETO device would meet them — pre-train on three,
//! then learn 'E-scooter' and later 'Run', tracking forgetting after each
//! step and comparing against the re-trained baseline.
//!
//! ```text
//! cargo run --release --example incremental_har
//! ```

use pilote::core::metrics::forgetting;
use pilote::prelude::*;

fn eval(model: &mut Pilote, test: &Dataset, classes: &[usize]) -> f32 {
    model
        .accuracy(&test.filter_classes(classes).expect("classes"))
        .expect("eval")
}

fn main() {
    let mut sim = Simulator::with_seed(11);
    let (data, _) = generate_features(
        &mut sim,
        &[
            (Activity::Still, 150),
            (Activity::Walk, 150),
            (Activity::Drive, 150),
            (Activity::EScooter, 150),
            (Activity::Run, 150),
        ],
    )
    .expect("simulation");
    let mut rng = Rng64::new(3);
    let (train, test) = data.stratified_split(0.3, &mut rng).expect("split");

    let initial: Vec<usize> =
        [Activity::Still, Activity::Walk, Activity::Drive].iter().map(|a| a.label()).collect();
    let mut cfg = PiloteConfig::paper(11);
    cfg.max_epochs = 10;
    let (model, _) = Pilote::pretrain(
        cfg,
        &train.filter_classes(&initial).expect("initial"),
        100,
        SelectionStrategy::Herding,
    )
    .expect("pretrain");

    let mut pilote = model.clone_model();
    let mut retrained = model.clone_model();
    let mut known = initial.clone();
    println!("pre-trained on {:?}", known);

    for new_activity in [Activity::EScooter, Activity::Run] {
        let new_label = new_activity.label();
        let new_data = train
            .filter_classes(&[new_label])
            .expect("new data")
            .sample_class(new_label, 80, &mut rng)
            .expect("sample");

        let old_pil = eval(&mut pilote, &test, &known);
        let old_ret = eval(&mut retrained, &test, &known);

        pilote.learn_new_class(&new_data, 80).expect("pilote update");
        Method::Retrained.update(&mut retrained, &new_data, 80).expect("retrained update");

        known.push(new_label);
        let pil_old_after = eval(&mut pilote, &test, &known[..known.len() - 1]);
        let ret_old_after = eval(&mut retrained, &test, &known[..known.len() - 1]);

        println!("\n=== learned {} (now {} classes) ===", new_activity, known.len());
        println!(
            "  PILOTE    : all-class acc {:.3}, old-class acc {:.3}, forgetting {:+.3}",
            eval(&mut pilote, &test, &known),
            pil_old_after,
            forgetting(old_pil, pil_old_after),
        );
        println!(
            "  Re-trained: all-class acc {:.3}, old-class acc {:.3}, forgetting {:+.3}",
            eval(&mut retrained, &test, &known),
            ret_old_after,
            forgetting(old_ret, ret_old_after),
        );
    }

    println!("\nsupport set now holds {} exemplars across {} classes", pilote.support().len(), known.len());
}
