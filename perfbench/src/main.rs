//! `perfbench`: the end-to-end and per-layer host-time benchmark of the
//! PILOTE workspace.
//!
//! ```text
//! perfbench [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! perfbench compare <parent-runs> <change-runs>
//! ```
//!
//! A run sets up (simulate, extract, pre-train, package, install), then
//! drives one workload in a closed loop for `--seconds` of timed calls
//! and prints one JSON result as the last line of standard output:
//! the end-to-end metrics untraced, or with `--trace 1` the per-layer
//! metrics of a traced replay and a layer profile. Every run also writes
//! a run record under `DIR/runs/` for `compare`, and a traced run writes
//! `DIR/trace_W.json`. See `README.md` beside this file.

mod calib;
mod compare;
mod profile;
mod setup;
mod spec;
mod stats;
mod trace;
mod workloads;

use serde_json::{json, Value};
use setup::{build_base, AnyResult, Scale};
use stats::{median, percentile, stretch_median, supported_tail};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workloads::{install, run_pass, stream_blocks, Budget, Ctx, Pass, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20230328;

/// A parsed `run` command line.
#[derive(Debug)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench [run] --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n       \
         perfbench compare <parent-runs> <change-runs>",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut parsed = RunArgs {
        workload: Workload::EdgeUpdate,
        seed: DEFAULT_SEED,
        seconds: spec::spec().run_seconds,
        traced: false,
        out: PathBuf::from("target/perfbench"),
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone means on; `--trace 0|1` is explicit.
            "--trace" => {
                parsed.traced = it
                    .next_if(|v| matches!(v.as_str(), "0" | "1"))
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// What a run prints and records.
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    calib_drift: f64,
    detail: Value,
    trace: Option<Value>,
}

/// Peak resident set size of this process in MiB, where the platform
/// reports it (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())?;
    Some(kib / 1024.0)
}

/// Runs one workload; the heart of the `run` command.
fn execute(args: &RunArgs) -> AnyResult<Outcome> {
    // One kernel thread whatever PILOTE_THREADS says: on a shared host,
    // multi-threaded runs do not repeat, and a device runs one thread.
    let threads = pilote_tensor::parallel::current();
    pilote_tensor::parallel::configure(pilote_tensor::ThreadConfig {
        num_threads: 1,
        ..threads
    });
    // End-to-end numbers are measured with telemetry off; work
    // accounting, which the virtual clocks need, stays on regardless.
    pilote_obs::set_enabled(false);
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::BENCH
    };
    let workload = args.workload;
    let calib_before = calib::reading();
    let calib = |before: f64| {
        let after = calib::reading();
        (
            calib::drift(before, after),
            json!({ "before_s": before, "after_s": after }),
        )
    };

    // Set-up, repeated: `setup_s` is the median of the repetitions.
    let reps = if args.traced { 1 } else { scale.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        drop(prepared.take());
        let started = Instant::now();
        let base = build_base(args.seed, &scale)?;
        let state = install(workload, &base, &scale, args.seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some((base, state));
    }
    let (base, state) = prepared.ok_or("no set-up ran")?;
    let blocks = if workload == Workload::EdgeStream {
        stream_blocks(args.seed)?
    } else {
        Vec::new()
    };
    let min_ops = workload.min_ops(args.smoke);
    let ctx = Ctx {
        workload,
        base: &base,
        scale: &scale,
        seed: args.seed,
        blocks: &blocks,
        min_ops,
    };

    if !args.traced {
        let pass = run_pass(&ctx, state, Budget::Seconds(args.seconds), false)?;
        let (calib_drift, readings) = calib(calib_before);
        // The tail and the throughput are medians over stretches of the
        // run, so a burst of host noise in a few stretches does not move
        // them; each stretch's p90 has at least ten samples beyond it.
        let op_p90 = stretch_median(pass.op_s.len(), 100, |r| percentile(&pass.op_s[r], 90.0));
        let metrics = vec![
            ("setup_s", median(&setup_s)),
            ("op_ms_p50", percentile(&pass.op_s, 50.0) * 1e3),
            ("op_ms_p90", op_p90 * 1e3),
            (
                "windows_per_s",
                stretch_median(pass.ops, 1, |r| pass.throughput(r)),
            ),
        ];
        return Ok(Outcome {
            metrics,
            attempted: pass.attempted,
            failed: pass.failed,
            calib_drift,
            detail: detail(&pass, &setup_s, readings),
            trace: None,
        });
    }

    // Traced run: a third of the budget untraced, then the same
    // operations again with telemetry and spans on, then the layer
    // profile, which takes about as long again.
    let plain = run_pass(&ctx, state, Budget::Seconds(args.seconds / 3.0), false)?;
    let state = install(workload, &base, &scale, args.seed)?;
    pilote_obs::reset();
    pilote_obs::set_enabled(true);
    let traced = run_pass(&ctx, state, Budget::Ops(plain.ops), true);
    pilote_obs::set_enabled(false);
    pilote_obs::reset();
    let traced = traced?;
    let (calib_drift, readings) = calib(calib_before);
    let inputs = profile::Inputs {
        ctx: &ctx,
        plain: &plain,
        traced: &traced,
        setup: &base.timings,
        calib_drift,
    };
    let metrics = profile::run(&inputs)?;
    Ok(Outcome {
        metrics,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        calib_drift,
        detail: detail(&plain, &setup_s, readings),
        trace: Some(traced.rec.chrome_trace(workload.name())),
    })
}

/// Context a run record keeps beyond the metrics.
fn detail(pass: &Pass, setup_s: &[f64], calibration: Value) -> Value {
    let tail = supported_tail(pass.op_s.len())
        .map(|p| json!({ "percentile": p, "op_ms": percentile(&pass.op_s, p) * 1e3 }));
    let p50 = |v: &[f64]| (!v.is_empty()).then(|| median(v));
    json!({
        "ops": pass.ops,
        "op_samples": pass.op_s.len(),
        "supported_tail": tail,
        "busy_s": pass.busy_s,
        "windows": pass.windows,
        "setup_reps_s": setup_s,
        "update_s_p50": p50(&pass.update_s),
        "round_s_p50": p50(&pass.round_s),
        "cache_rebuilds": pass.cache_rebuilds,
        "acc": pass.acc,
        "peak_rss_mib": peak_rss_mib(),
        "calibration": calibration
    })
}

/// Checks the emitted metrics against the declaration and renders the
/// `metrics` object, in declaration order.
fn render_metrics(metrics: &[(&'static str, f64)], traced: bool) -> Result<Value, String> {
    let declared = spec::spec().metrics(traced);
    let mut emitted: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
    emitted.sort_unstable();
    let mut expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    expected.sort_unstable();
    if emitted != expected {
        return Err(format!(
            "emitted metrics {emitted:?} differ from BENCHMARK.json {expected:?}"
        ));
    }
    let mut out = Vec::with_capacity(declared.len());
    for m in declared {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", m.name));
        }
        out.push((
            m.name.clone(),
            json!({ "value": value, "unit": m.unit.clone() }),
        ));
    }
    Ok(Value::Object(out))
}

fn write_json(path: &std::path::Path, value: &Value) -> AnyResult<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, serde_json::to_string(value)? + "\n")
        .map_err(|e| format!("{}: {e}", path.display()).into())
}

fn run_main(args: &[String]) -> ExitCode {
    let args = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match execute(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let metrics = match render_metrics(&outcome.metrics, args.traced) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    let correct = outcome.failed == 0;
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics.clone()
    });
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let record = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.traced,
        "smoke": args.smoke,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "calib_drift": outcome.calib_drift,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "detail": outcome.detail
    });
    let kind = if args.traced { "trace" } else { "e2e" };
    let record_path = args.out.join("runs").join(format!(
        "{}-{kind}-s{}-{started}.json",
        args.workload.name(),
        args.seed
    ));
    let mut files = vec![(record_path, record)];
    if let Some(trace) = outcome.trace {
        files.push((
            args.out
                .join(format!("trace_{}.json", args.workload.name())),
            trace,
        ));
    }
    for (path, value) in &files {
        if let Err(e) = write_json(path, value) {
            eprintln!("perfbench: cannot write {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.calib_drift > compare::NOISY_DRIFT {
        eprintln!(
            "perfbench: host noise: calibration drifted {:.1}% across the run",
            outcome.calib_drift * 100.0
        );
    }
    match serde_json::to_string(&result) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        _ => run_main(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_lines_parse() {
        let a = parse_run(&args(
            "--workload fleet_serve --seed 5 --seconds 2.5 --trace 1 --out x",
        ))
        .expect("driver form");
        assert_eq!(a.workload, Workload::FleetServe);
        assert_eq!((a.seed, a.seconds, a.traced), (5, 2.5, true));
        assert_eq!(a.out, PathBuf::from("x"));
        let b = parse_run(&args("--trace --workload edge_stream")).expect("bare --trace");
        assert!(b.traced);
        assert_eq!(b.seed, DEFAULT_SEED);
        assert!(
            !parse_run(&args("--workload edge_stream --trace 0"))
                .expect("--trace 0")
                .traced
        );
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(
            parse_run(&args("--seed 1")).is_err(),
            "a workload is required"
        );
        assert!(parse_run(&args("--workload edge_update --seconds 0")).is_err());
    }

    #[test]
    fn workloads_match_the_declaration() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, spec::spec().workloads);
    }

    /// Every workload, untraced and traced, at smoke sizes: the checks
    /// pass, and the emitted names are valid and exactly the declared ones.
    #[test]
    fn smoke_pass_of_every_workload() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let run = RunArgs {
                    workload,
                    seed: 3,
                    seconds: 0.05,
                    traced,
                    out: PathBuf::new(),
                    smoke: true,
                };
                let outcome = execute(&run).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert_eq!(outcome.failed, 0, "{} traced={traced}", workload.name());
                assert!(outcome.attempted > 0);
                assert!(outcome.metrics.iter().all(|(n, _)| spec::valid_name(n)));
                render_metrics(&outcome.metrics, traced)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
                assert_eq!(outcome.trace.is_some(), traced);
            }
        }
    }
}
