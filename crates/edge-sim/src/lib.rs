//! # pilote-edge-sim
//!
//! Edge-device resource simulation for the PILOTE reproduction.
//!
//! The paper's Q2 ("Applicability on the edge") argues in bytes and
//! seconds: a 2 500-exemplar support set ≈ 3.2 MB, 200 exemplars per class
//! < 256 KB, an incremental epoch < 0.5 s. Real phones are unavailable in
//! this environment, so this crate provides the measurable substitutes:
//!
//! * [`device`] — named device profiles (flagship phone, budget phone,
//!   microcontroller-class) with RAM/storage budgets and a CPU slowdown
//!   factor relative to the benchmark host;
//! * [`memory`] — byte accounting for support sets, model parameters and
//!   the edge cache budget `K` of Algorithm 1 (`m = K/(s−1)`);
//! * [`quantize`] — affine i8 / u16 exemplar compression with measured
//!   reconstruction error (the paper stores exemplars "in compressed
//!   format");
//! * [`link`] — a cloud↔edge transfer model (bandwidth + RTT) used by the
//!   A5 cloud-vs-edge experiment motivated by the paper's Fig. 1/2;
//! * [`latency`] — a stopwatch harness that scales host wall-clock by the
//!   device profile's CPU factor;
//! * [`faults`] — deterministic, seed-driven fault injection (sensor
//!   corruption, flaky links, update kill-points) used to exercise the
//!   resilience tiers of `docs/RESILIENCE.md`;
//! * [`wire`] — checked binary wire primitives (little-endian, bit-exact
//!   floats) underpinning the compact payload codec of `docs/WIRE.md`.

// Library code must not panic on recoverable conditions (tier-0 of the
// resilience contract); tests may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod device;
pub mod faults;
pub mod latency;
pub mod link;
pub mod memory;
pub mod quantize;
pub mod wire;

pub use device::{DeviceProfile, HOST_REF_FLOPS_PER_SEC};
pub use faults::{
    CrashPlan, FaultCounts, FaultPlan, FlakyLink, LinkFault, LinkFaultRates, SensorFaultInjector,
    SensorFaultKind, SensorFaultRates,
};
pub use latency::LatencyMeter;
pub use link::LinkModel;
pub use memory::MemoryBudget;
pub use quantize::{QuantizeError, QuantizedMatrix, Quantization};
pub use wire::{WireError, WirePrecision, WireReader, WireWriter};
