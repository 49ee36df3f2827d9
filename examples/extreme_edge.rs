//! The extreme-edge question (Q3 / Figure 7): how few new-class samples
//! does PILOTE need? Sweeps the number of 'Run' exemplars from 5 to 100
//! and prints accuracy for PILOTE vs the re-trained baseline — watch the
//! gap open up below ~50 samples.
//!
//! ```text
//! cargo run --release --example extreme_edge
//! ```

use pilote::prelude::*;

fn main() {
    let mut sim = Simulator::with_seed(17);
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
    let mut rng = Rng64::new(5);
    let (train, test) = data.stratified_split(0.3, &mut rng).expect("split");

    let old: Vec<usize> = [Activity::Still, Activity::Walk, Activity::Drive, Activity::EScooter]
        .iter()
        .map(|a| a.label())
        .collect();
    let mut cfg = PiloteConfig::paper(17);
    cfg.max_epochs = 10;
    let (base, _) = Pilote::pretrain(
        cfg,
        &train.filter_classes(&old).expect("old"),
        100,
        SelectionStrategy::Herding,
    )
    .expect("pretrain");
    let mut warm = base.clone_model();
    let warm_acc = warm
        .accuracy(&test.filter_classes(&old).expect("old test"))
        .expect("eval");
    println!("warm start: old-class accuracy {warm_acc:.3}\n");
    println!("{:>12} {:>10} {:>10}", "Run samples", "PILOTE", "Re-trained");

    let run_pool = train.filter_classes(&[Activity::Run.label()]).expect("run pool");
    for n in [5usize, 10, 20, 30, 50, 100] {
        let new_data =
            run_pool.sample_class(Activity::Run.label(), n, &mut rng).expect("sample");

        let mut pilote = base.clone_model();
        pilote.learn_new_class(&new_data, n).expect("pilote");
        let pil_acc = pilote.accuracy(&test).expect("eval");

        let mut retr = base.clone_model();
        Method::Retrained.update(&mut retr, &new_data, n).expect("retrained");
        let ret_acc = retr.accuracy(&test).expect("eval");

        println!("{n:>12} {pil_acc:>10.3} {ret_acc:>10.3}");
    }
    println!("\n(the paper's Fig. 7: PILOTE reaches ~90% with 30 exemplars and dominates below 50)");
}
