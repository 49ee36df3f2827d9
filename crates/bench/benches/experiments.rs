//! End-to-end benchmarks of the experiment building blocks: one
//! incremental-update epoch (the paper's "< 0.5 s per epoch" claim, Q2),
//! a full PILOTE edge update, and the exemplar-selection step — all at a
//! reduced scale so `cargo bench` completes in minutes on one core.

use criterion::{criterion_group, criterion_main, Criterion};
use pilote_bench::scenario::{build_scenario, pretrain_base, run_arm};
use pilote_bench::Scale;
use pilote_core::{Method, Pilote, PiloteConfig, SelectionStrategy};
use pilote_har_data::Activity;
use std::hint::black_box;

fn bench_scale() -> Scale {
    Scale { per_activity: 120, rounds: 1, exemplars_per_class: 40, max_epochs: 3, ..Scale::default() }
}

fn bench_pilote_update(c: &mut Criterion) {
    let scale = bench_scale();
    let scenario = build_scenario(Activity::Run, &scale, 99);
    let base = pretrain_base(scenario, &scale, 99);
    let mut group = c.benchmark_group("edge_update");
    group.bench_function("pilote_update_40ex_3epochs", |b| {
        b.iter(|| {
            let mut m = base.model.clone_model();
            black_box(run_arm(Method::Pilote, &mut m, &base.scenario, 40, 7));
        });
    });
    group.bench_function("pretrained_arm_40ex", |b| {
        b.iter(|| {
            let mut m = base.model.clone_model();
            black_box(run_arm(Method::Pretrained, &mut m, &base.scenario, 40, 7));
        });
    });
    group.finish();
}

fn bench_pretrain(c: &mut Criterion) {
    let scale = bench_scale();
    let scenario = build_scenario(Activity::Walk, &scale, 98);
    let mut group = c.benchmark_group("cloud_pretrain");
    group.bench_function("pretrain_4class_84per", |b| {
        b.iter(|| {
            let mut cfg = PiloteConfig::paper(1);
            cfg.max_epochs = 2;
            cfg.pairs_per_sample = 2;
            let (model, _) = Pilote::pretrain(
                cfg,
                &scenario.train_old,
                20,
                SelectionStrategy::Herding,
            )
            .unwrap();
            black_box(model);
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_pilote_update, bench_pretrain
}
criterion_main!(benches);
