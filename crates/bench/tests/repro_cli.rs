//! CLI contract tests for the `repro` binary: usage errors must exit with
//! status 2 and print a usage message listing every runner, so scripts and
//! CI can distinguish "bad invocation" from "experiment failed" (status 1).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Every runner the usage message must enumerate.
const RUNNERS: &[&str] =
    &[
        "all", "table2", "fig4", "fig5", "fig6", "fig7", "timing", "ablate-alpha",
        "ablate-margin", "ablate-pairs", "ablate-strategies", "cloud-vs-edge", "kernels",
        "faults", "obs", "fleet", "quality", "policy", "wire", "scenarios", "index",
    ];

#[test]
fn unknown_experiment_prints_usage_and_exits_nonzero() {
    let output = repro().arg("no-such-experiment").output().expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "usage errors must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: repro"), "stderr must carry the usage line:\n{stderr}");
    for runner in RUNNERS {
        assert!(stderr.contains(runner), "usage must list the `{runner}` runner:\n{stderr}");
    }
}

#[test]
fn missing_experiment_prints_usage_and_exits_nonzero() {
    let output = repro().output().expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "a bare `repro` is a usage error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: repro"), "stderr must carry the usage line:\n{stderr}");
}

#[test]
fn unknown_flag_and_bad_scale_are_usage_errors() {
    let output = repro().args(["fleet", "--frobnicate"]).output().expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "unknown flags must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag: --frobnicate"), "stderr must name the flag:\n{stderr}");

    let output = repro().args(["fleet", "--scale", "huge"]).output().expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "bad --scale values must exit 2");
}
