//! `perfbench compare <parent-runs> <change-runs>`: one row per
//! end-to-end metric × workload, with each side's median and quartiles,
//! the share of pairs the change won, and a verdict.
//!
//! A change is **better** when it wins at least nine tenths of the pairs
//! (ties count for neither) and its median beats the parent's by more than
//! the parent's interquartile range. Otherwise it is **worse** when its
//! median is worse than the parent's by more than the metric's bound in
//! `BENCHMARK.json`, and **same** when it is within the bound — unless the
//! parent's own spread is wider than the bound, which leaves the metric
//! **unresolved** (unless every change run beats every parent run).
//!
//! Runs are paired by seed where both sides ran it, otherwise in order.
//! A run whose host-noise witness drifted by more than 5% is flagged
//! noisy and still counted.

use crate::setup::AnyResult;
use crate::spec::{spec, MetricSpec};
use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Calibration drift above which a run is flagged noisy.
pub const NOISY_DRIFT: f64 = 0.05;

/// The parts of a run record `compare` reads.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// Whether it was a traced run.
    pub traced: bool,
    /// Host-noise drift across the run.
    pub calib_drift: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    fn from_value(v: &Value) -> Option<RunRecord> {
        Some(RunRecord {
            workload: v["workload"].as_str()?.to_string(),
            seed: v["seed"].as_u64()?,
            traced: v["traced"].as_bool()?,
            calib_drift: v["calib_drift"].as_f64()?,
            metrics: v["metrics"]
                .as_object()?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m["value"].as_f64()?)))
                .collect(),
        })
    }
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won by the pairs rule.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Within the bound.
    Same,
    /// The parent's own spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs `parent` and `change` runs by seed where possible, the rest in
/// order, returning each side's value of `metric`.
fn pairs(parent: &[&RunRecord], change: &[&RunRecord], metric: &str) -> Vec<(f64, f64)> {
    let value = |r: &RunRecord| r.metrics.get(metric).copied();
    let mut out = Vec::new();
    let (mut left_p, mut left_c) = (Vec::new(), change.to_vec());
    for p in parent {
        match left_c.iter().position(|c| c.seed == p.seed) {
            Some(i) => out.push((value(p), value(left_c.remove(i)))),
            None => left_p.push(*p),
        }
    }
    out.extend(
        left_p
            .into_iter()
            .zip(left_c)
            .map(|(p, c)| (value(p), value(c))),
    );
    out.into_iter()
        .filter_map(|(p, c)| Some((p?, c?)))
        .collect()
}

/// The verdict and the share of pairs won, for values paired as
/// `(parent, change)`.
pub fn verdict(paired: &[(f64, f64)], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let won = paired.iter().filter(|(p, c)| sign * (c - p) > 0.0).count();
    let share = won as f64 / paired.len().max(1) as f64;
    let parent: Vec<f64> = paired.iter().map(|p| p.0).collect();
    let change: Vec<f64> = paired.iter().map(|p| p.1).collect();
    let (q1, p_med, q3) = quartiles(&parent);
    let (_, c_med, _) = quartiles(&change);
    let gain = sign * (c_med - p_med);
    if share >= 0.9 && gain > q3 - q1 {
        return (Verdict::Better, share);
    }
    let scale = p_med.abs().max(f64::MIN_POSITIVE);
    let all_better = paired
        .iter()
        .all(|(_, c)| parent.iter().all(|p| sign * (c - p) > 0.0));
    if (q3 - q1) / scale > bound && !all_better {
        return (Verdict::Unresolved, share);
    }
    if -gain / scale > bound {
        return (Verdict::Worse, share);
    }
    (Verdict::Same, share)
}

/// Reads run records: a record file, a JSON list of records, a directory
/// of record files, or `FILE:KEY` for the list under `KEY` of a JSON
/// object (as in `baseline.json`).
pub fn load(arg: &str) -> AnyResult<Vec<RunRecord>> {
    let (path, key) = match arg.rsplit_once(':') {
        Some((file, key)) if !Path::new(arg).exists() => (Path::new(file), Some(key)),
        _ => (Path::new(arg), None),
    };
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut out = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let values = match (key, v) {
            (Some(k), v) => v[k]
                .as_array()
                .ok_or(format!("{}: no list {k:?}", file.display()))?
                .to_vec(),
            (None, Value::Array(a)) => a,
            (None, v) => vec![v],
        };
        out.extend(values.iter().filter_map(RunRecord::from_value));
    }
    if out.is_empty() {
        return Err(format!("{arg}: no run records").into());
    }
    Ok(out)
}

fn describe(values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    format!("{q2:.6} [{q1:.6}, {q3:.6}]")
}

fn row(
    workload: &str,
    m: &MetricSpec,
    parent: &[&RunRecord],
    change: &[&RunRecord],
) -> Option<String> {
    let paired = pairs(parent, change, &m.name);
    if paired.is_empty() {
        return None;
    }
    let (v, share) = verdict(&paired, m.higher_is_better, m.bound?);
    let p: Vec<f64> = paired.iter().map(|x| x.0).collect();
    let c: Vec<f64> = paired.iter().map(|x| x.1).collect();
    let noisy = |runs: &[&RunRecord]| runs.iter().filter(|r| r.calib_drift > NOISY_DRIFT).count();
    Some(format!(
        "{workload:<16} {:<18} {:<38} {:<38} {:>5.2} {:<10} {}/{}",
        m.name,
        describe(&p),
        describe(&c),
        share,
        v.name(),
        noisy(parent),
        noisy(change)
    ))
}

fn untraced_runs<'a>(runs: &'a [RunRecord], workload: &str) -> Vec<&'a RunRecord> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .collect()
}

/// The `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: perfbench compare <parent-runs> <change-runs>");
        eprintln!(
            "  each side: a run-record file or directory, or FILE:KEY for a list inside FILE"
        );
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<18} {:<38} {:<38} {:>5} {:<10} noisy(p/c)",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict"
    );
    for workload in &spec().workloads {
        let (p, c) = (
            untraced_runs(&parent, workload),
            untraced_runs(&change, workload),
        );
        for m in &spec().end_to_end {
            if let Some(line) = row(workload, m, &p, &c) {
                println!("{line}");
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(f: impl Fn(usize) -> (f64, f64)) -> Vec<(f64, f64)> {
        (0..10).map(f).collect()
    }

    #[test]
    fn clear_win_is_better() {
        // Lower is better; every change run beats its pair by ~10%.
        let paired = ten(|i| (100.0 + i as f64 * 0.1, 90.0 + i as f64 * 0.1));
        assert_eq!(verdict(&paired, false, 0.1), (Verdict::Better, 1.0));
    }

    #[test]
    fn eight_of_ten_wins_is_not_better() {
        let paired = ten(|i| (100.0, if i < 8 { 95.0 } else { 101.0 }));
        assert_eq!(verdict(&paired, false, 0.1).0, Verdict::Same);
    }

    #[test]
    fn regression_beyond_bound_is_worse() {
        // Higher is better; the change is 20% lower with a 10% bound.
        let paired = ten(|i| (50.0 + i as f64 * 0.01, 40.0 + i as f64 * 0.01));
        assert_eq!(verdict(&paired, true, 0.1), (Verdict::Worse, 0.0));
    }

    #[test]
    fn small_regression_within_bound_is_same() {
        let paired = ten(|i| (10.0 + i as f64 * 0.001, 10.5 + i as f64 * 0.001));
        assert_eq!(verdict(&paired, false, 0.1).0, Verdict::Same);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        // Parent runs swing ±50% around 10; the change is 30% worse.
        let paired = ten(|i| {
            let p = if i % 2 == 0 { 5.0 } else { 15.0 };
            (p, 13.0 + i as f64 * 0.01)
        });
        assert_eq!(verdict(&paired, false, 0.1).0, Verdict::Unresolved);
    }

    #[test]
    fn noisy_parent_still_resolves_when_change_dominates() {
        // Every change run is below every parent run: a clean win even
        // though the parent's spread is wider than the bound.
        let paired = ten(|i| (if i % 2 == 0 { 20.0 } else { 40.0 }, 5.0 + i as f64 * 0.1));
        assert_eq!(verdict(&paired, false, 0.1).0, Verdict::Better);
    }

    #[test]
    fn pairs_match_seeds_then_order() {
        let rec = |seed: u64, v: f64| RunRecord {
            workload: "w".into(),
            seed,
            traced: false,
            calib_drift: 0.0,
            metrics: [("m".to_string(), v)].into_iter().collect(),
        };
        let parent = [rec(1, 1.0), rec(2, 2.0), rec(3, 3.0)];
        let change = [rec(3, 30.0), rec(9, 90.0), rec(1, 10.0)];
        let p: Vec<&RunRecord> = parent.iter().collect();
        let c: Vec<&RunRecord> = change.iter().collect();
        assert_eq!(
            pairs(&p, &c, "m"),
            vec![(1.0, 10.0), (3.0, 30.0), (2.0, 90.0)]
        );
    }
}
