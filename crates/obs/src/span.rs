//! Scoped trace spans with parent/child nesting.
//!
//! A span is opened with [`span`] and closed when its guard drops; spans
//! opened while another span is open on the same thread become its
//! children. Spans are **never stamped with host time**. Each records:
//!
//! * `seq_open` / `seq_close` — ticks of a global logical clock (one tick
//!   per span open or close), which totally order the span tree;
//! * `flops` — the kernel work (see [`crate::work`]) dispatched by this
//!   thread while the span was open, a deterministic cost measure;
//! * optional named `f64` attributes (e.g. the modeled device seconds a
//!   `pilote-magneto` update charged to the virtual clock).
//!
//! Spans are intended for orchestration code (training phases, edge
//! updates, fleet operations). Work fanned out to other threads runs
//! under [`capture`] and joins the orchestrator's tree when it
//! [`adopt`]s the captures in a fixed order; work run inline is captured
//! the same way, so the span tree is byte-identical across runs and
//! thread counts.
//!
//! ```
//! use pilote_obs as obs;
//! obs::set_enabled(true);
//! obs::reset();
//! {
//!     let update = obs::span("update");
//!     update.annotate("samples", 25.0);
//!     let _train = obs::span("train");
//! } // guards drop: "train" nests under "update"
//! let spans = obs::snapshot().spans;
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].children[0].name, "train");
//! obs::reset();
//! ```

use crate::work;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One finished span (and, recursively, its finished children).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Logical-clock tick at open.
    pub seq_open: u64,
    /// Logical-clock tick at close.
    pub seq_close: u64,
    /// Kernel flops dispatched by the opening thread while the span was
    /// open (includes children).
    pub flops: u64,
    /// Named numeric attributes.
    pub attrs: BTreeMap<String, f64>,
    /// Child spans, in completion order.
    pub children: Vec<SpanNode>,
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static FINISHED: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, outermost first. While open, a node's
    /// `flops` field holds the thread-flop reading at open time.
    static STACK: RefCell<Vec<SpanNode>> = const { RefCell::new(Vec::new()) };
    /// The innermost [`capture`] running on this thread, if any: it owns
    /// the logical clock and the finished roots until it returns.
    static CAPTURE: RefCell<Option<Captured>> = const { RefCell::new(None) };
}

/// Spans and flops held aside by [`capture`] until [`adopt`]ed.
#[derive(Debug, Default)]
#[must_use = "captured spans and flops are lost unless adopted"]
pub struct Captured {
    flops: u64,
    ticks: u64,
    spans: Vec<SpanNode>,
}

/// Reserves `n` consecutive logical-clock ticks and returns the first:
/// from the innermost capture's private clock, else from the global one.
fn reserve_ticks(n: u64) -> u64 {
    CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(capture) => {
            capture.ticks += n;
            capture.ticks - n
        }
        None => SEQ.fetch_add(n, Ordering::Relaxed),
    })
}

/// Records finished spans under the innermost open span, else as roots of
/// the innermost capture, else in the global log.
fn attach(nodes: impl IntoIterator<Item = SpanNode>) {
    let nodes = STACK.with(|s| match s.borrow_mut().last_mut() {
        Some(parent) => {
            parent.children.extend(nodes);
            None
        }
        None => Some(nodes),
    });
    if let Some(nodes) = nodes {
        CAPTURE.with(|c| match c.borrow_mut().as_mut() {
            Some(capture) => capture.spans.extend(nodes),
            None => FINISHED.lock().expect("span log poisoned").extend(nodes),
        });
    }
}

/// Runs `f` with its spans and flops held aside for [`adopt`].
///
/// Inside `f` the thread has no open span and a private logical clock
/// from tick 0, so spans closing at the top become roots of the capture.
/// The flops `f` dispatches are taken off this thread's
/// [`crate::work::thread_flops`] total when it returns (deltas measured
/// inside `f` are unaffected). Flops are captured even with telemetry
/// off; spans only with it on. Spans opened in `f` must close in it.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Captured) {
    let flops_before = work::thread_flops();
    let outer = crate::enabled()
        .then(|| (STACK.take(), CAPTURE.replace(Some(Captured::default()))));
    let result = f();
    let mut captured = match outer {
        Some((stack, capture)) => {
            STACK.set(stack);
            CAPTURE.replace(capture).expect("capture state is installed until it returns")
        }
        None => Captured::default(),
    };
    captured.flops = work::thread_flops().wrapping_sub(flops_before);
    work::set_thread_flops(flops_before);
    (result, captured)
}

/// Merges a [`capture`] into the calling thread's trace: its spans nest
/// under the innermost open span (or become roots), their ticks re-based
/// onto the logical clock as if they had run here and now, and its flops
/// are credited to this thread's total. Adopting captures in a fixed order
/// yields the same tree and numbering whichever threads ran them.
pub fn adopt(captured: Captured) {
    work::set_thread_flops(work::thread_flops().wrapping_add(captured.flops));
    if captured.ticks == 0 {
        return;
    }
    let base = reserve_ticks(captured.ticks);
    let mut spans = captured.spans;
    for node in &mut spans {
        rebase(node, base);
    }
    attach(spans);
}

fn rebase(node: &mut SpanNode, base: u64) {
    node.seq_open += base;
    node.seq_close += base;
    for child in &mut node.children {
        rebase(child, base);
    }
}

/// Opens a span; it closes (and is recorded) when the returned guard
/// drops. Returns an inert guard when telemetry is disabled.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: false };
    }
    let node = SpanNode {
        name: name.to_string(),
        seq_open: reserve_ticks(1),
        seq_close: 0,
        flops: work::thread_flops(),
        attrs: BTreeMap::new(),
        children: Vec::new(),
    };
    STACK.with(|s| s.borrow_mut().push(node));
    SpanGuard { active: true }
}

/// Closes its span on drop. `!Send` by construction (spans belong to the
/// thread that opened them).
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// Attaches a named numeric attribute to the innermost open span on
    /// this thread (this guard's span, when called before any child span
    /// is opened).
    pub fn annotate(&self, key: &str, value: f64) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.attrs.insert(key.to_string(), value);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(mut node) = STACK.with(|s| s.borrow_mut().pop()) else {
            return; // reset() cleared the stack mid-span
        };
        node.seq_close = reserve_ticks(1);
        node.flops = work::thread_flops().wrapping_sub(node.flops);
        attach([node]);
    }
}

/// Finished root spans recorded so far, in completion order.
pub fn finished() -> Vec<SpanNode> {
    FINISHED.lock().expect("span log poisoned").clone()
}

/// Clears the finished-span log, the calling thread's open-span stack and
/// the logical clock. Called by [`crate::reset`].
pub(crate) fn reset() {
    FINISHED.lock().expect("span log poisoned").clear();
    STACK.with(|s| s.borrow_mut().clear());
    SEQ.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_sequence_numbers() {
        let _guard = crate::registry::tests::LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = crate::enabled();
        crate::set_enabled(true);
        crate::reset();
        {
            let outer = span("outer");
            outer.annotate("k", 2.5);
            {
                let _inner = span("inner");
                work::record(work::KernelKind::MatMul, 64);
            }
            {
                let _second = span("second");
            }
        }
        let roots = finished();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.attrs["k"], 2.5);
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[1].name, "second");
        // The logical clock orders opens/closes: outer opens first, closes
        // last; the span's work includes its children's.
        assert_eq!(outer.seq_open, 0);
        assert!(outer.seq_close > outer.children[1].seq_close);
        assert_eq!(outer.children[0].flops, 64);
        assert!(outer.flops >= 64);
        crate::reset();
        crate::set_enabled(saved);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::registry::tests::LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = crate::enabled();
        crate::set_enabled(true);
        crate::reset();
        crate::set_enabled(false);
        {
            let g = span("ghost");
            g.annotate("x", 1.0);
        }
        crate::set_enabled(true);
        assert!(finished().is_empty());
        crate::reset();
        crate::set_enabled(saved);
    }

    /// The unit of work the capture tests fan out: two sibling spans, one
    /// with a child and kernel work.
    fn unit(flops: u64) {
        {
            let a = span("a");
            a.annotate("flops", flops as f64);
            let _b = span("b");
            work::record(work::KernelKind::MatVec, flops);
        }
        let _c = span("c");
    }

    #[test]
    fn adopted_captures_match_the_inline_walk_on_any_thread() {
        let _guard = crate::registry::tests::LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = crate::enabled();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = span("outer");
            unit(3);
            unit(5);
        }
        let inline = finished();
        crate::reset();
        {
            let _outer = span("outer");
            let before = work::thread_flops();
            let ((), here) = capture(|| unit(3));
            let there = std::thread::scope(|s| s.spawn(|| capture(|| unit(5)).1).join())
                .expect("worker");
            // Nothing leaks into this thread's tree or total until adopted.
            assert_eq!(work::thread_flops(), before);
            adopt(here);
            adopt(there);
        }
        assert_eq!(finished(), inline);
        assert_eq!(inline[0].flops, 8);
        assert_eq!(inline[0].children.len(), 4);
        crate::reset();
        crate::set_enabled(saved);
    }

    #[test]
    fn flops_are_captured_with_telemetry_off() {
        let _guard = crate::registry::tests::LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = crate::enabled();
        crate::set_enabled(false);
        let before = work::thread_flops();
        let ((), captured) = capture(|| unit(7));
        assert_eq!(work::thread_flops(), before);
        adopt(captured);
        assert_eq!(work::thread_flops(), before + 7);
        crate::set_enabled(saved);
    }

    #[test]
    fn span_node_serde_round_trip() {
        let node = SpanNode {
            name: "n".into(),
            seq_open: 3,
            seq_close: 9,
            flops: 1234,
            attrs: [("device_seconds".to_string(), 0.25)].into_iter().collect(),
            children: vec![SpanNode {
                name: "c".into(),
                seq_open: 4,
                seq_close: 5,
                flops: 10,
                attrs: BTreeMap::new(),
                children: Vec::new(),
            }],
        };
        let json = serde_json::to_string(&node).expect("serialise");
        let back: SpanNode = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, node);
    }
}
