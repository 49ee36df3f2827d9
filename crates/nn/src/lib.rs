//! # pilote-nn
//!
//! A compact neural-network stack with hand-derived analytic backprop,
//! built on [`pilote_tensor`]. It provides exactly the mathematical objects
//! the PILOTE paper (EDBT 2023) instantiates in PyTorch:
//!
//! * **Layers** ([`layer`]): [`layer::Dense`], [`layer::BatchNorm1d`] and
//!   [`layer::ReLU`], composed by [`layer::Sequential`]. Every layer
//!   caches its forward activations and implements an analytic backward
//!   pass that is verified against central finite differences (see
//!   [`gradcheck`]).
//! * **Losses** ([`loss`]): the margin contrastive loss of Eq. 2 (both the
//!   paper's `m² − d²` form and the classic Hadsell `(m − d)²` form), the
//!   embedding distillation loss of Algorithm 1 line 11, plus MSE, softmax
//!   cross-entropy and temperature-scaled knowledge distillation for the
//!   classifier-based continual-learning baselines.
//! * **Optimizer** ([`optim`]): Adam, the optimizer the paper trains with.
//! * **Schedulers** ([`sched`]): including the paper's "start at 0.01 and
//!   halve every epoch" rule.
//! * **Training utilities** ([`train`]): mini-batch iteration, the paper's
//!   early-stopping rule (validation-loss change below `1e-4` for five
//!   consecutive epochs), and per-epoch history records.
//!
//! The module-based design (rather than a general autograd tape) keeps the
//! backward passes auditable: each is a dozen lines of textbook calculus,
//! and each is pinned by unit tests and property-based gradient checks.

#![warn(missing_docs)]

pub mod delta;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod persist;
pub mod sched;
pub mod train;

pub use layer::{BatchNorm1d, Dense, Layer, Mode, ReLU, Sequential};
pub use optim::{Adam, Optimizer};
pub use delta::{CheckpointDelta, DeltaError};
pub use persist::{Checkpoint, CheckpointError};
pub use sched::{HalvingLr, LrSchedule, StepLr};
pub use train::{grad_norm, grads_finite, observe_epoch, params_finite, EarlyStopper, EpochStats};
