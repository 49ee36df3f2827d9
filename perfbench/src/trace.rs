//! Benchmark-side wall-clock spans, kept in memory and written once at
//! exit as a Chrome trace (`chrome://tracing`, Perfetto).
//!
//! Spans wrap the public calls a workload makes. They are the host-time
//! counterpart of `pilote_obs` spans, which are stamped with logical time
//! only and so cannot say where wall time went.

use serde_json::{json, Value};
use std::time::Instant;

/// One closed span; times are microseconds since the recorder started.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: u64,
}

/// Records nested spans when enabled; a disabled recorder costs one
/// branch per call, so untraced passes run the same code.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags spans opened from now on with workload operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span named `name`, nested under any open span; close it
    /// with [`Recorder::exit`] and the returned token.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `enter` returned `token` for (and, defensively,
    /// any span left open inside it).
    pub fn exit(&mut self, token: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        while let Some(index) = self.open.pop() {
            self.spans[index].end_us = now;
            if index == token {
                break;
            }
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.enter(name);
        let out = f();
        self.exit(token);
        out
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children's intervals cover.
    fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = span.start_us;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_us - span.start_us) - covered
            })
            .collect()
    }

    /// The Chrome trace-event document: one complete (`"X"`) event per
    /// span, with the operation id, parent index and self time in `args`.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .zip(self.self_times_us())
            .enumerate()
            .map(|(index, (span, self_us))| {
                json!({
                    "name": span.name,
                    "cat": workload,
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.end_us - span.start_us,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span": index,
                        "op": span.op,
                        "parent": span.parent,
                        "self_us": self_us
                    }
                })
            })
            .collect();
        json!({ "displayTimeUnit": "ms", "traceEvents": events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        // Hand-built intervals: outer [0, 100] with children [10, 30] and
        // [20, 50] (overlapping) and a grandchild inside the first.
        rec.spans = vec![
            Span {
                name: "outer",
                start_us: 0.0,
                end_us: 100.0,
                parent: None,
                op: 0,
            },
            Span {
                name: "a",
                start_us: 10.0,
                end_us: 30.0,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "b",
                start_us: 20.0,
                end_us: 50.0,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "a1",
                start_us: 12.0,
                end_us: 18.0,
                parent: Some(1),
                op: 0,
            },
        ];
        assert_eq!(rec.self_times_us(), vec![60.0, 14.0, 30.0, 6.0]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", || 7), 7);
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn nesting_and_ops_are_recorded() {
        let mut rec = Recorder::new(true);
        rec.set_op(3);
        let outer = rec.enter("outer");
        rec.span("inner", || ());
        rec.exit(outer);
        rec.span("next", || ());
        let trace = rec.chrome_trace("w");
        let events = trace["traceEvents"].as_array().expect("events");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["name"].as_str(), Some("outer"));
        assert_eq!(events[0]["args"]["op"].as_u64(), Some(3));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert!(matches!(events[2]["args"]["parent"], Value::Null));
    }
}
