//! # pilote-magneto
//!
//! The MAGNETO platform of the PILOTE paper (§3): *sMArt sensinG for humaN
//! activity rEcogniTiOn*. MAGNETO's edge-based architecture is:
//!
//! 1. an initial HAR model is **pre-trained on the cloud** as a warm
//!    starting point ([`cloud::CloudServer`]);
//! 2. the model and its exemplar support set are **downloaded once** to
//!    the device ([`cloud::Deployment`]);
//! 3. the device performs **streaming inference** and **local incremental
//!    updates** with no further data exchange ([`edge::EdgeDevice`]) —
//!    sensor data never leaves the device;
//! 4. every step is recorded in a typed, virtually-clocked event log
//!    ([`events::EventLog`]) so deployments are auditable and testable.
//!
//! The [`federated`] module holds the aggregation rule of the paper's §7
//! future-work direction: FedAvg-style collaboration where devices share
//! *model parameters*, never data — consistent with MAGNETO's privacy
//! stance. Rounds run on a [`fleet::Fleet`], which scales the edge loop
//! out: a deterministic multi-device fleet routes user sessions to
//! heterogeneous devices, serves them through the batched prototype-cache
//! path, and interleaves incremental updates with federated rounds (see
//! `docs/FLEET.md`). The [`policy`] module closes the quality loop on
//! top of it: quarantine, rollback → re-anchor → degrade repairs, and
//! canary → cohort → fleet staged rollouts with auto halt (see
//! `docs/POLICY.md`). A fleet without a policy runs the same round and
//! the same install, with nothing held out and one wave that cannot halt.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cloud;
pub mod edge;
pub mod events;
pub mod federated;
pub mod fleet;
pub mod policy;
pub mod wire;

pub use cloud::{
    CloudServer, Deployment, PackageError, RollupError, ScenarioRollup, ShippedPrototypes,
    TelemetryRollup,
};
pub use edge::{EdgeDevice, EdgeError, InferenceOutcome, UpdateStatus, MAX_UPDATE_FAILURES};
pub use events::{Event, EventKind, EventLog, ExclusionReason};
pub use federated::{federated_average, FederatedError};
pub use fleet::{DeviceStats, Fleet, FleetConfig, FleetStats, WireTotals};
pub use policy::{
    DeviceHealth, FleetPolicy, PolicySummary, RepairAction, RolloutStage, StagePlan,
};
pub use wire::{CodecError, WireConfig};
