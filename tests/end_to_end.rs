//! End-to-end integration: simulator → preprocessing → features →
//! pre-training → incremental edge update → NCM inference, asserting the
//! paper's qualitative claims at test scale.

use pilote::prelude::*;

/// Builds a 5-activity corpus, returning `(old_train, new_pool, test)` for
/// the "Run arrives on the edge" scenario.
fn scenario(seed: u64, per_class: usize) -> (Dataset, Dataset, Dataset) {
    let mut sim = Simulator::with_seed(seed);
    let counts: Vec<(Activity, usize)> =
        Activity::ALL.iter().map(|&a| (a, per_class)).collect();
    let (data, _) = generate_features(&mut sim, &counts).expect("simulate");
    let mut rng = Rng64::new(seed ^ 0xe2e);
    let (train, test) = data.stratified_split(0.3, &mut rng).expect("split");
    let old_labels: Vec<usize> = Activity::ALL
        .iter()
        .filter(|&&a| a != Activity::Run)
        .map(|a| a.label())
        .collect();
    (
        train.filter_classes(&old_labels).expect("old"),
        train.filter_classes(&[Activity::Run.label()]).expect("new"),
        test,
    )
}

#[test]
fn full_pipeline_learns_and_retains() {
    let (old, new_pool, test) = scenario(101, 80);
    let cfg = PiloteConfig::fast_test(101);
    let (model, report) =
        Pilote::pretrain(cfg, &old, 25, SelectionStrategy::Herding).expect("pretrain");
    assert!(!report.epochs.is_empty(), "pre-training ran no epochs");

    let old_labels: Vec<usize> = Activity::ALL
        .iter()
        .filter(|&&a| a != Activity::Run)
        .map(|a| a.label())
        .collect();
    let old_test = test.filter_classes(&old_labels).expect("old test");
    let run_test = test.filter_classes(&[Activity::Run.label()]).expect("run test");

    let mut pilote = model.clone_model();
    let before_old = pilote.accuracy(&old_test).expect("eval");
    assert!(before_old > 0.6, "pre-trained old-class accuracy {before_old}");

    let mut rng = Rng64::new(7);
    let new_data = new_pool.sample_class(Activity::Run.label(), 25, &mut rng).expect("sample");
    pilote.learn_new_class(&new_data, 25).expect("update");

    let after_old = pilote.accuracy(&old_test).expect("eval");
    let run_acc = pilote.accuracy(&run_test).expect("eval");
    assert!(run_acc > 0.5, "PILOTE failed to learn Run: {run_acc}");
    assert!(
        after_old > before_old - 0.25,
        "catastrophic forgetting: old acc {before_old} → {after_old}"
    );
    assert_eq!(pilote.classifier().n_classes(), 5);
}

#[test]
fn pilote_retains_old_classes_at_least_as_well_as_retrained() {
    // The paper's Table 2 / Fig. 4 claim, aggregated over seeds to absorb
    // run-to-run variance at this tiny scale.
    let mut pilote_old_sum = 0.0f32;
    let mut retrained_old_sum = 0.0f32;
    for seed in [11u64, 22, 33] {
        let (old, new_pool, test) = scenario(seed, 80);
        let cfg = PiloteConfig::fast_test(seed);
        let (base, _) =
            Pilote::pretrain(cfg, &old, 25, SelectionStrategy::Herding).expect("pretrain");
        let old_labels: Vec<usize> = Activity::ALL
            .iter()
            .filter(|&&a| a != Activity::Run)
            .map(|a| a.label())
            .collect();
        let old_test = test.filter_classes(&old_labels).expect("old test");
        let mut rng = Rng64::new(seed);
        let new_data =
            new_pool.sample_class(Activity::Run.label(), 20, &mut rng).expect("sample");

        let mut p = base.clone_model();
        p.learn_new_class(&new_data, 20).expect("pilote");
        pilote_old_sum += p.accuracy(&old_test).expect("eval");

        let mut r = base.clone_model();
        Method::Retrained.update(&mut r, &new_data, 20).expect("retrained");
        retrained_old_sum += r.accuracy(&old_test).expect("eval");
    }
    assert!(
        pilote_old_sum >= retrained_old_sum - 0.15,
        "PILOTE old-class retention ({pilote_old_sum}) far below re-trained ({retrained_old_sum})"
    );
}

#[test]
fn distillation_anchors_old_embeddings() {
    // The mechanism claim, as a controlled comparison: run the *same*
    // incremental update twice — once with a strong distillation weight
    // (α = 0.9) and once with none (α = 0) — and measure how far the
    // old-class exemplar embeddings drift from the frozen teacher. The
    // distilled update must drift less.
    let (old, new_pool, _) = scenario(55, 80);
    let cfg = PiloteConfig::fast_test(55);
    let (base, _) = Pilote::pretrain(cfg, &old, 25, SelectionStrategy::Herding).expect("pretrain");
    let support = base.support().to_dataset().expect("support");

    let mut teacher = base.clone_model();
    let anchor = teacher.embed(&support.features);

    let mut rng = Rng64::new(55);
    let new_data = new_pool.sample_class(Activity::Run.label(), 25, &mut rng).expect("sample");

    let drift_at = |alpha: f32| {
        let mut m = base.clone_model();
        m.config_mut().alpha = alpha;
        m.learn_new_class(&new_data, 25).expect("update");
        m.embed(&support.features).try_sub(&anchor).unwrap().norm()
    };
    let anchored = drift_at(0.9);
    let free = drift_at(0.0);
    assert!(
        anchored < free,
        "distillation did not anchor embeddings: α=0.9 drift {anchored} vs α=0 drift {free}"
    );
}

#[test]
fn pretrained_baseline_never_moves_the_network() {
    let (old, new_pool, _) = scenario(77, 60);
    let cfg = PiloteConfig::fast_test(77);
    let (base, _) = Pilote::pretrain(cfg, &old, 20, SelectionStrategy::Herding).expect("pretrain");
    let mut model = base.clone_model();
    let probe = new_pool.features.slice_rows(0, 4).expect("probe");
    let before = model.embed(&probe);
    let mut rng = Rng64::new(77);
    let new_data = new_pool.sample_class(Activity::Run.label(), 20, &mut rng).expect("sample");
    Method::Pretrained.update(&mut model, &new_data, 20).expect("update");
    let after = model.embed(&probe);
    assert!(before.max_abs_diff(&after).unwrap() < 1e-6);
    assert_eq!(model.classifier().n_classes(), 5);
}

#[test]
fn incremental_learning_is_reproducible_given_seeds() {
    let (old, new_pool, test) = scenario(88, 60);
    let run = |seed: u64| {
        let cfg = PiloteConfig::fast_test(seed);
        let (mut m, _) =
            Pilote::pretrain(cfg, &old, 20, SelectionStrategy::Herding).expect("pretrain");
        let mut rng = Rng64::new(seed);
        let new_data =
            new_pool.sample_class(Activity::Run.label(), 20, &mut rng).expect("sample");
        m.learn_new_class(&new_data, 20).expect("update");
        m.accuracy(&test).expect("eval")
    };
    assert_eq!(run(5), run(5), "same seed must give identical accuracy");
}
