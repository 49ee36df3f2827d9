//! Loss functions.
//!
//! Every loss returns the scalar value together with the analytic gradient
//! with respect to its tensor inputs, so callers can chain directly into
//! [`crate::layer::Layer::backward`]. All gradients are verified against
//! finite differences in this crate's test suite.

mod classification;
mod contrastive;
mod distillation;

pub use classification::{kd_soft_cross_entropy, mse_loss, softmax, softmax_cross_entropy};
pub use contrastive::{contrastive_pair_loss, ContrastiveForm};
pub use distillation::distillation_loss;
