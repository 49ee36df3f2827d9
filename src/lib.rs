//! # PILOTE — incremental human-activity learning at the extreme edge
//!
//! A from-scratch Rust reproduction of *"On Handling Catastrophic
//! Forgetting for Incremental Learning of Human Physical Activity on the
//! Edge"* (Zuo, Arvanitakis & Hacid, EDBT 2023).
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`tensor`] | dense f32 tensors, RNG, linear algebra |
//! | [`nn`] | layers, losses, optimizers, training utilities |
//! | [`har_data`] | synthetic sensor simulator, preprocessing, features |
//! | [`core`] | the PILOTE learner, its update methods (baselines, strategies), metrics |
//! | [`edge_sim`] | device profiles, memory accounting, quantisation, fault injection |
//! | [`magneto`] | cloud pre-training, deployments, the resilient edge device, federation, fleet orchestration |
//!
//! ## Quickstart
//!
//! ```
//! use pilote::prelude::*;
//!
//! // 1. Simulate a small labelled corpus (4 old classes + Run held out).
//! let mut sim = Simulator::with_seed(7);
//! let (data, _norm) = generate_features(
//!     &mut sim,
//!     &[
//!         (Activity::Still, 40),
//!         (Activity::Walk, 40),
//!         (Activity::Drive, 40),
//!         (Activity::Run, 40),
//!     ],
//! )
//! .unwrap();
//! let mut rng = Rng64::new(1);
//! let (train, test) = data.stratified_split(0.3, &mut rng).unwrap();
//! let old = train
//!     .filter_classes(&[Activity::Still.label(), Activity::Walk.label(), Activity::Drive.label()])
//!     .unwrap();
//! let new = train.filter_classes(&[Activity::Run.label()]).unwrap();
//!
//! // 2. Pre-train on the "cloud", then learn Run on the "edge".
//! let cfg = PiloteConfig::fast_test(7);
//! let (mut model, _) = Pilote::pretrain(cfg, &old, 15, SelectionStrategy::Herding).unwrap();
//! model.learn_new_class(&new, 15).unwrap();
//!
//! // 3. Classify.
//! let acc = model.accuracy(&test).unwrap();
//! assert!(acc > 0.5);
//! ```

pub use pilote_core as core;
pub use pilote_edge_sim as edge_sim;
pub use pilote_magneto as magneto;
pub use pilote_obs as obs;
pub use pilote_har_data as har_data;
pub use pilote_nn as nn;
pub use pilote_tensor as tensor;

/// The most common imports in one place.
pub mod prelude {
    pub use pilote_core::pairs::PairScheme;
    pub use pilote_core::{
        accuracy, select_exemplars, AccuracyMatrix, ConfusionMatrix, EmbeddingNet, Method,
        NcmClassifier, NetConfig, Pilote, PiloteConfig, QualityMonitor, QualityReport,
        SelectionStrategy, SessionRecord, SessionSummary, SupportSet, TaskGroup,
    };
    pub use pilote_edge_sim::{
        CrashPlan, DeviceProfile, FaultPlan, FlakyLink, LatencyMeter, LinkFaultRates, LinkModel,
        MemoryBudget, SensorFaultInjector, SensorFaultRates,
    };
    pub use pilote_magneto::{
        CloudServer, EdgeDevice, EdgeError, FederatedError, Fleet, FleetConfig, FleetPolicy,
        FleetStats, ScenarioRollup, TelemetryRollup, UpdateStatus,
    };
    pub use pilote_har_data::dataset::generate_features;
    pub use pilote_har_data::{Activity, Dataset, Simulator, FEATURE_DIM};
    pub use pilote_nn::loss::ContrastiveForm;
    pub use pilote_tensor::{Rng64, Tensor};
}
