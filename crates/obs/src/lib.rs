//! # pilote-obs
//!
//! Deterministic observability for the PILOTE workspace: a metrics
//! registry (counters, gauges, fixed-bucket histograms), scoped trace
//! spans with parent/child nesting, and kernel work accounting — designed
//! so that **one seed ⇒ byte-identical telemetry at any thread count**,
//! matching the threading contract of `docs/THREADING.md`.
//!
//! The determinism contract (full statement in `docs/OBSERVABILITY.md`):
//!
//! * **No telemetry value is ever derived from the host wall clock.** This
//!   crate does not import [`std::time`] at all (grep-enforced by
//!   `scripts/ci.sh`). Spans are stamped with a logical sequence counter
//!   and *work* (floating-point operations dispatched while the span was
//!   open), both of which are functions of the computation alone.
//! * Host wall-time may still be *measured* by harness code (benchmarks,
//!   `EpochStats::seconds`) but lives in a separate domain: it must be
//!   projected through `pilote_edge_sim::DeviceProfile` from a
//!   deterministic work count — never from a host measurement — before it
//!   enters device-time telemetry such as the `EventLog` virtual clock.
//! * Counters are commutative (atomic adds), gauges and histograms are
//!   only written from deterministic values, and spans reach the tree
//!   either from the orchestration thread or through [`capture`] /
//!   [`adopt`] in a fixed order, so `PILOTE_THREADS` cannot reorder or
//!   change anything that [`snapshot`] reports.
//!
//! ## Kill switch
//!
//! `PILOTE_OBS=0` (or `false`/`off`) disables the registry and span
//! collection; every recording call becomes a single relaxed atomic load.
//! [`work`] accounting stays on regardless — the virtual-clock model of
//! `pilote-magneto` depends on it, and behaviour must not change with the
//! telemetry switch. The disabled-path overhead is benchmarked by
//! `repro obs` (< 5 % on the kernel hot loop; in practice unmeasurable).
//!
//! ```
//! use pilote_obs as obs;
//! obs::set_enabled(true);
//! obs::counter("demo.widgets").add(3);
//! let g = obs::gauge("demo.loss");
//! g.set(0.25);
//! {
//!     let _span = obs::span("demo.phase");
//!     obs::counter("demo.widgets").inc();
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters.get("demo.widgets"), Some(&4));
//! obs::reset();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod export;
pub mod registry;
pub mod span;
pub mod work;

pub use registry::{
    counter, gauge, histogram, reset, snapshot, Counter, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, KernelStats, Snapshot,
};
pub use span::{adopt, capture, span, Captured, SpanGuard, SpanNode};
pub use work::KernelKind;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

fn enabled_cell() -> &'static AtomicBool {
    static CELL: OnceLock<AtomicBool> = OnceLock::new();
    CELL.get_or_init(|| {
        let on = match std::env::var("PILOTE_OBS") {
            Ok(v) => {
                let v = v.trim().to_ascii_lowercase();
                !(v == "0" || v == "false" || v == "off")
            }
            Err(_) => true,
        };
        AtomicBool::new(on)
    })
}

/// Whether telemetry collection is enabled (the `PILOTE_OBS` kill switch,
/// default on). Recording calls check this first; when disabled they cost
/// one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    enabled_cell().load(Ordering::Relaxed)
}

/// Programmatically flips the kill switch (overrides `PILOTE_OBS`).
/// Used by the benchmark harness to measure the disabled path.
pub fn set_enabled(on: bool) {
    enabled_cell().store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_toggles() {
        let saved = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(saved);
    }
}
