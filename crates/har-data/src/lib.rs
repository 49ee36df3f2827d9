//! # pilote-har-data
//!
//! Synthetic human-activity sensor data in the style of the MAGNETO
//! platform's data-collection campaigns, plus the paper's preprocessing and
//! feature-extraction pipeline.
//!
//! The PILOTE paper (EDBT 2023) evaluates on a proprietary ~100 GB campaign
//! of smartphone sensor recordings (~200 k one-second windows, 22 sensors at
//! ~120 Hz, five activities: *Drive*, *E-scooter*, *Run*, *Still*, *Walk*).
//! That corpus was never released, so this crate implements the closest
//! synthetic equivalent that exercises the same code paths:
//!
//! * [`activity`] — the five activity classes with physically motivated
//!   signal models (gait harmonics for Walk/Run, engine/motor vibration for
//!   Drive/E-scooter, near-silence for Still). Walk and Run deliberately
//!   overlap in cadence and amplitude across the simulated user population,
//!   reproducing the Run↔Walk confusability that drives the paper's
//!   catastrophic-forgetting story (Fig. 4).
//! * [`sensors`] — the 22-channel layout: five 3-axis sensors
//!   (accelerometer, gyroscope, magnetometer, linear acceleration, gravity)
//!   plus seven scalar channels.
//! * [`simulate`] — per-user variation (cadence, amplitude, phone
//!   orientation, sensor noise/bias) and window/session generation.
//! * [`preprocess`] — linear-time denoising (moving average), z-score
//!   normalisation with train-fitted statistics, and segmentation of long
//!   sessions into one-second windows (§5, "preprocessing steps … with
//!   linear time operations").
//! * [`features`] — the 80 statistical features (§6.1.1): per-channel
//!   mean/variance, per-triad magnitude/jerk/energy statistics, and six
//!   window-global summaries.
//! * [`dataset`] — feature datasets with stratified splits, class
//!   filtering and subsampling for the incremental-learning scenarios.
//!
//! Fallible preprocessing paths report typed [`preprocess::PreprocessError`]s
//! instead of panicking — this crate runs against live edge sensor streams,
//! where a corrupted window must be quarantined, not crash the device
//! (`docs/RESILIENCE.md`).

// Library code must not panic on recoverable conditions (tier-0 of the
// resilience contract); tests may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod activity;
pub mod dataset;
pub mod features;
pub mod preprocess;
pub mod sensors;
pub mod simulate;
pub mod stream;

pub use activity::Activity;
pub use dataset::Dataset;
pub use features::FEATURE_DIM;
pub use preprocess::PreprocessError;
pub use simulate::Simulator;
