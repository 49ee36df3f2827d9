//! Kernel work accounting: how much computation has been dispatched, in
//! approximate floating-point operations, per kernel kind.
//!
//! This module is the deterministic *currency of time* for the rest of the
//! workspace. Every instrumented tensor kernel calls [`record`] once per
//! dispatch with a flop estimate computed **from operand shapes alone**
//! (`2·m·n·k` for a GEMM, and so on), on the dispatching thread, *before*
//! any band fan-out. The count is therefore identical at every
//! `PILOTE_THREADS` setting and on every host — which is what lets
//! `pilote-magneto` advance its virtual device clock by *modeled* work
//! instead of host wall-time measurements.
//!
//! Two tallies are kept:
//!
//! * a **thread-local** flop total ([`thread_flops`]) — used by callers
//!   that need the work attributable to their own computation (the edge
//!   device's virtual clock, span costs) without interference from
//!   unrelated threads (e.g. concurrently running tests);
//! * **global** per-kind dispatch/flop totals ([`kernel_totals`]) — the
//!   `tensor.*` kernel section of [`crate::Snapshot`].
//!
//! Work accounting is **not** gated by the `PILOTE_OBS` kill switch: the
//! virtual-clock model must behave identically whether or not telemetry is
//! collected. The cost is one thread-local add and two relaxed atomic adds
//! per kernel dispatch — far below the cost of any kernel worth counting
//! (benchmarked by `repro obs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The instrumented kernel families of `pilote-tensor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// `A @ B` (blocked GEMM).
    MatMul,
    /// `A @ Bᵀ` (backprop `dX`, pairwise dot products).
    MatMulT,
    /// `Aᵀ @ B` (backprop `dW`).
    TMatMul,
    /// Matrix–vector product.
    MatVec,
    /// Pairwise squared Euclidean distances (NCM scoring, contrastive
    /// loss).
    PairwiseDist,
}

impl KernelKind {
    /// Every instrumented kind, in a fixed order.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::MatMul,
        KernelKind::MatMulT,
        KernelKind::TMatMul,
        KernelKind::MatVec,
        KernelKind::PairwiseDist,
    ];

    /// Stable metric name (`tensor.<kernel>`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::MatMul => "tensor.matmul",
            KernelKind::MatMulT => "tensor.matmul_t",
            KernelKind::TMatMul => "tensor.t_matmul",
            KernelKind::MatVec => "tensor.matvec",
            KernelKind::PairwiseDist => "tensor.pairwise_dist",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

thread_local! {
    static THREAD_FLOPS: Cell<u64> = const { Cell::new(0) };
}

static DISPATCHES: [AtomicU64; 5] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static FLOPS: [AtomicU64; 5] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Records one kernel dispatch of approximately `flops` floating-point
/// operations. Called by `pilote-tensor` on the dispatching thread; always
/// on (see module docs).
#[inline]
pub fn record(kind: KernelKind, flops: u64) {
    THREAD_FLOPS.with(|c| c.set(c.get().wrapping_add(flops)));
    let i = kind.index();
    DISPATCHES[i].fetch_add(1, Ordering::Relaxed);
    FLOPS[i].fetch_add(flops, Ordering::Relaxed);
}

/// Total flops dispatched *by the calling thread* since it started (or
/// since its counter last wrapped). Take a delta around a computation to
/// obtain its deterministic cost.
#[inline]
pub fn thread_flops() -> u64 {
    THREAD_FLOPS.with(Cell::get)
}

/// Overwrites the calling thread's running total ([`crate::capture`] and
/// [`crate::adopt`] move work between threads; global totals stay put).
pub(crate) fn set_thread_flops(flops: u64) {
    THREAD_FLOPS.with(|c| c.set(flops));
}

/// Global `(name, dispatches, flops)` totals per kernel kind, in
/// [`KernelKind::ALL`] order.
pub fn kernel_totals() -> Vec<(&'static str, u64, u64)> {
    KernelKind::ALL
        .iter()
        .map(|k| {
            let i = k.index();
            (k.name(), DISPATCHES[i].load(Ordering::Relaxed), FLOPS[i].load(Ordering::Relaxed))
        })
        .collect()
}

/// Clears the global per-kind totals (thread-local totals are deltas by
/// construction and never need resetting). Called by [`crate::reset`].
pub(crate) fn reset_globals() {
    for i in 0..KernelKind::ALL.len() {
        DISPATCHES[i].store(0, Ordering::Relaxed);
        FLOPS[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_flops_is_a_running_total() {
        let before = thread_flops();
        record(KernelKind::MatMul, 100);
        record(KernelKind::PairwiseDist, 23);
        assert_eq!(thread_flops() - before, 123);
    }

    #[test]
    fn thread_flops_isolated_across_threads() {
        let before = thread_flops();
        std::thread::scope(|s| {
            s.spawn(|| {
                record(KernelKind::MatVec, 1_000_000);
            })
            .join()
            .expect("worker");
        });
        assert_eq!(thread_flops(), before, "another thread's work must not leak in");
    }

    #[test]
    fn kernel_totals_follow_records() {
        // Globals are shared across parallel tests; assert on deltas of a
        // kind no other test in this crate touches concurrently.
        let before: u64 = kernel_totals()
            .iter()
            .find(|(n, _, _)| *n == "tensor.t_matmul")
            .map(|(_, d, _)| *d)
            .unwrap_or(0);
        record(KernelKind::TMatMul, 42);
        let after = kernel_totals()
            .iter()
            .find(|(n, _, _)| *n == "tensor.t_matmul")
            .map(|(_, d, _)| *d)
            .unwrap_or(0);
        assert_eq!(after - before, 1);
    }

    #[test]
    fn names_are_unique_and_prefixed() {
        let names: Vec<_> = KernelKind::ALL.iter().map(|k| k.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.iter().all(|n| n.starts_with("tensor.")));
    }
}
