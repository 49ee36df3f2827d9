//! The benchmark's declared interface, read from the repository-root
//! `BENCHMARK.json` at compile time so the emitted metric names, units and
//! bounds cannot drift from the declaration (a test checks both ways).

use serde_json::Value;
use std::sync::OnceLock;

const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name as emitted.
    pub name: String,
    /// Unit as emitted.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The metric set a run emits: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The declaration embedded in this binary.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(SPEC_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        root[key]
            .as_array()
            .ok_or(format!("{key} is not a list"))?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: m["name"]
                        .as_str()
                        .ok_or("metric without a name")?
                        .to_string(),
                    unit: m["unit"]
                        .as_str()
                        .ok_or("metric without a unit")?
                        .to_string(),
                    higher_is_better: match m["better"].as_str() {
                        Some("higher") => true,
                        Some("lower") => false,
                        _ => return Err("better must be higher or lower".to_string()),
                    },
                    bound: m["bound"].as_f64(),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: root["run_seconds"].as_f64().ok_or("run_seconds missing")?,
        workloads: root["workloads"]
            .as_array()
            .ok_or("workloads is not a list")?
            .iter()
            .map(|w| {
                w["name"]
                    .as_str()
                    .map(str::to_string)
                    .ok_or("workload without a name")
            })
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Whether `name` is made only of `[A-Za-z0-9_.-]` and is non-empty.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_is_well_formed() {
        let spec = spec();
        assert!(spec.run_seconds >= 1.0);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn names_are_plain() {
        assert!(valid_name("nn.dense0.fwd_us"));
        assert!(!valid_name("nn dense"));
        assert!(!valid_name(""));
        let spec = spec();
        let names = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| &m.name);
        assert!(names.clone().all(|n| valid_name(n)));
        let mut sorted: Vec<_> = names.collect();
        let total = sorted.len();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), total, "metric names are unique");
    }
}
