//! **Obs** — deterministic observability capture (`BENCH_obs.json`), plus
//! the kill-switch overhead benchmark.
//!
//! Runs one instrumented edge lifecycle — pre-train → deploy → stream raw
//! windows → label → incremental update — and snapshots the whole
//! `pilote-obs` registry (counters, gauges, histograms, kernel dispatch
//! statistics and the span tree). The snapshot contains **no host
//! wall-clock value**: spans are stamped with logical sequence numbers and
//! dispatched-flop counts, device time is modeled from work, and every
//! gauge is a deterministic function of the seed. `BENCH_obs.json` is
//! therefore byte-identical for a fixed seed at any `PILOTE_THREADS` and
//! under any host load (`scripts/ci.sh` diffs two runs to enforce this).
//!
//! The second half benchmarks the `PILOTE_OBS` kill switch on the kernel
//! hot loop (the GEMM `repro kernels` anchors on). Host wall-times from
//! that benchmark go to **stderr only** — they must never enter the
//! diffable JSON.

use crate::exp_faults::faulted_scenario;
use crate::report::{write_json, ReportError, Table};
use crate::scale::Scale;
use crate::scenario::pretrain_base;
use pilote_edge_sim::{DeviceProfile, LinkModel};
use pilote_har_data::Activity;
use pilote_magneto::{Deployment, EdgeDevice, UpdateStatus};
use pilote_obs::Snapshot;
use pilote_tensor::{Rng64, Tensor};
use serde_json::json;
use std::path::Path;
use std::time::Instant;

/// Raw eval windows streamed through the deployed device per activity.
const STREAM_WINDOWS_PER_ACTIVITY: usize = 4;

/// Hot-loop repetitions for the kill-switch overhead measurement, about
/// 5 ms per trial. The figure is host time that nothing checks: at this
/// length scheduler jitter moves it by several percent either way. The
/// measured cost of tracing is perfbench's `obs.trace_overhead`.
const OVERHEAD_REPS: usize = 200;

/// Runs the instrumented lifecycle, writes `BENCH_obs.json` and benchmarks
/// the kill-switch overhead (stderr only). Returns the telemetry snapshot.
pub fn run(scale: &Scale, seed: u64, out: &Path) -> Result<Snapshot, ReportError> {
    eprintln!("[obs] instrumented edge lifecycle (pretrain → deploy → stream → update)");
    let was_enabled = pilote_obs::enabled();
    pilote_obs::reset();

    // --- the instrumented lifecycle -----------------------------------
    let (scenario, norm, mut sim) = faulted_scenario(scale, seed);
    let mut base = pretrain_base(scenario, scale, seed);

    let deployment = Deployment::from_model(&mut base.model, norm);
    let mut device =
        EdgeDevice::install(DeviceProfile::budget_phone(), &deployment, &LinkModel::wifi())
            .expect("install");

    // Stream a few raw windows of every activity through the deployed
    // device: exercises the window assembler counters, the inference
    // events and the flops-modeled virtual clock.
    for &activity in &Activity::ALL {
        let raw = sim.raw_dataset(&[(activity, STREAM_WINDOWS_PER_ACTIVITY)]);
        for window in &raw.windows {
            device.stream(window).expect("stream");
        }
    }

    // Label new-class samples and run one incremental update end to end.
    let mut rng = Rng64::new(seed ^ 0x0b5);
    let batch = scale.exemplars_per_class.min(base.scenario.new_pool.len());
    let new_label = base.scenario.new_activity.label();
    let new_data = base
        .scenario
        .new_pool
        .sample_class(new_label, batch, &mut rng)
        .expect("new-class batch");
    for i in 0..new_data.features.rows() {
        device.label_sample(new_label, Tensor::vector(new_data.features.row(i)));
    }
    let status = device.update_faulted(scale.exemplars_per_class, None).expect("update");
    assert!(matches!(status, UpdateStatus::Completed), "clean update must complete");

    let snapshot = pilote_obs::snapshot();
    let virtual_now = device.log().now();

    // --- report -------------------------------------------------------
    let mut t = Table::new(
        "Obs: deterministic telemetry snapshot (one edge lifecycle)",
        &["section", "entries", "detail"],
    );
    t.row(vec![
        "counters".into(),
        snapshot.counters.len().to_string(),
        snapshot
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    t.row(vec![
        "gauges".into(),
        snapshot.gauges.len().to_string(),
        snapshot.gauges.keys().cloned().collect::<Vec<_>>().join(", "),
    ]);
    t.row(vec![
        "kernels".into(),
        snapshot.kernels.len().to_string(),
        snapshot
            .kernels
            .iter()
            .map(|(k, s)| format!("{k}×{}", s.dispatches))
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    t.row(vec![
        "root spans".into(),
        snapshot.spans.len().to_string(),
        snapshot.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>().join(", "),
    ]);
    t.row(vec![
        "virtual clock".into(),
        String::new(),
        format!("{virtual_now:.6} modeled device-seconds"),
    ]);
    println!("{t}");

    write_json(
        out,
        "BENCH_obs.json",
        &json!({
            "seed": seed,
            "scale": {
                "per_activity": scale.per_activity,
                "exemplars_per_class": scale.exemplars_per_class,
                "max_epochs": scale.max_epochs,
                "pretrain_epochs": scale.pretrain_epochs,
            },
            "determinism": "no host wall-clock fields: spans carry logical sequence numbers and flop counts, device time is modeled from dispatched work — byte-identical for a fixed seed at any PILOTE_THREADS and under any host load",
            "virtual_clock_seconds": virtual_now,
            "telemetry": snapshot,
        }),
    )?;

    // --- kill-switch overhead (host wall-time, stderr only) -----------
    overhead_benchmark(seed);
    pilote_obs::set_enabled(was_enabled);
    Ok(snapshot)
}

/// Times the `repro kernels` GEMM hot loop with telemetry enabled vs
/// disabled. Host wall-times — printed to stderr only, never written to
/// `BENCH_obs.json` (the diffed artefact must not depend on host speed),
/// and checked by no gate.
fn overhead_benchmark(seed: u64) {
    let mut rng = Rng64::new(seed ^ 0x0b5e);
    let a = Tensor::randn([64, 128], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([128, 64], 0.0, 1.0, &mut rng);
    let time_loop = || {
        let t0 = Instant::now();
        for _ in 0..OVERHEAD_REPS {
            std::hint::black_box(a.matmul(&b).expect("matmul"));
        }
        t0.elapsed().as_secs_f64()
    };
    // Warm up once, then interleave the two modes and keep the fastest
    // trial of each — the minimum is the standard noise-robust estimator
    // for a tight loop (scheduler interference only ever adds time).
    time_loop();
    let (mut disabled_s, mut enabled_s) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        pilote_obs::set_enabled(false);
        disabled_s = disabled_s.min(time_loop());
        pilote_obs::set_enabled(true);
        enabled_s = enabled_s.min(time_loop());
    }
    let overhead_pct = (enabled_s - disabled_s) / disabled_s * 100.0;
    eprintln!(
        "[obs] kill-switch hot loop ({OVERHEAD_REPS}× 64×128×64 GEMM): \
         enabled {:.3} ms, disabled {:.3} ms, overhead {overhead_pct:+.2}% \
         (unchecked host wall-time, stderr only; perfbench's traced \
         obs.trace_overhead measures the cost of tracing)",
        enabled_s * 1e3,
        disabled_s * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            per_activity: 60,
            rounds: 1,
            exemplars_per_class: 12,
            max_epochs: 2,
            pretrain_epochs: 2,
        }
    }

    /// The acceptance check of the tentpole: two runs at the same seed must
    /// serialise to identical bytes, and the snapshot must cover every
    /// layer of the stack (kernels, training gauges, edge counters, spans).
    #[test]
    #[ignore = "slow (two full lifecycles); run by the pilote-bench --ignored step of scripts/ci.sh"]
    fn obs_snapshot_is_deterministic_and_covers_the_stack() {
        let dir = std::env::temp_dir().join("pilote_obs_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        pilote_obs::set_enabled(true);
        let a = run(&tiny(), 7, &dir).expect("run a");
        let b = run(&tiny(), 7, &dir).expect("run b");
        assert_eq!(
            serde_json::to_string(&a).expect("serialise"),
            serde_json::to_string(&b).expect("serialise"),
            "same seed must produce byte-identical telemetry"
        );
        assert!(a.kernels.contains_key("tensor.matmul"), "kernel layer instrumented");
        assert!(a.gauges.contains_key("nn.train.loss"), "training loop instrumented");
        assert!(a.counters.contains_key("edge.update_finished"), "edge events bridged");
        assert!(a.counters.contains_key("stream.windows_emitted"), "assembler instrumented");
        assert!(
            a.spans.iter().any(|s| s.name == "edge.update"),
            "update lifecycle traced"
        );
    }
}
