//! Federated collaboration — the paper's §7 future-work direction:
//! "one can consider the model's scaling up or collaborative learning with
//! strong privacy-preserving guarantees, e.g., Federated Learning."
//!
//! Devices exchange **model parameters only** (FedAvg, McMahan et al.
//! 2017), never sensor data — consistent with MAGNETO's privacy stance.
//! Prototype sharing works the same way: class means in embedding space
//! are aggregated, not raw exemplars.
//!
//! This module is the aggregation rule alone: [`federated_average`] and
//! its typed [`FederatedError`]s. Rounds — who contributes, the wire
//! payloads and link charges, the install — are run by
//! [`crate::fleet::Fleet::federated_round`], one body for fleets with and
//! without the self-healing policy; a round of two devices is a
//! two-device fleet.

use pilote_nn::Checkpoint;
use pilote_tensor::{Tensor, TensorError};

/// Errors from federated parameter aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum FederatedError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// Contributions carry different checkpoint format versions. Averaging
    /// across formats and silently stamping the result with one of them
    /// would mislabel the merged model; the round must be rejected until
    /// every participant runs the same format.
    VersionSkew {
        /// Version of the first contribution (the reference).
        expected: u32,
        /// The disagreeing version.
        found: u32,
    },
    /// Two contributions disagree on the shape of one parameter tensor.
    LayerShapeMismatch {
        /// Index of the offending layer in [`Checkpoint::shapes`] order.
        layer: usize,
        /// Shape of that layer in the first contribution.
        expected: Vec<usize>,
        /// Shape of that layer in the disagreeing contribution.
        found: Vec<usize>,
    },
    /// The contribution list was empty, or every contribution had zero
    /// weight.
    NoContributions,
}

impl std::fmt::Display for FederatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederatedError::Tensor(e) => write!(f, "tensor error: {e}"),
            FederatedError::VersionSkew { expected, found } => write!(
                f,
                "checkpoint version skew: expected v{expected}, found v{found}"
            ),
            FederatedError::LayerShapeMismatch { layer, expected, found } => write!(
                f,
                "layer {layer} shape mismatch: expected {expected:?}, found {found:?}"
            ),
            FederatedError::NoContributions => {
                write!(f, "no weighted contributions to average")
            }
        }
    }
}

impl std::error::Error for FederatedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FederatedError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for FederatedError {
    fn from(e: TensorError) -> Self {
        FederatedError::Tensor(e)
    }
}

/// Weighted FedAvg over parameter snapshots.
///
/// `contributions` pairs each client's checkpoint with its local sample
/// count; the result is the sample-weighted mean of every parameter.
///
/// # Errors
/// Fails when the list is empty, the total weight is zero, checkpoints
/// disagree on format version ([`FederatedError::VersionSkew`]) or any
/// layer's shape ([`FederatedError::LayerShapeMismatch`], which names the
/// offending layer index and both shapes).
pub fn federated_average(
    contributions: &[(Checkpoint, usize)],
) -> Result<Checkpoint, FederatedError> {
    let Some(((first, _), rest)) = contributions.split_first() else {
        return Err(FederatedError::NoContributions);
    };
    let total_weight: f64 = contributions.iter().map(|(_, w)| *w as f64).sum();
    if total_weight <= 0.0 {
        return Err(FederatedError::NoContributions);
    }
    for (ckpt, _) in rest {
        if ckpt.version != first.version {
            return Err(FederatedError::VersionSkew {
                expected: first.version,
                found: ckpt.version,
            });
        }
        if ckpt.shapes.len() != first.shapes.len() {
            return Err(FederatedError::LayerShapeMismatch {
                layer: first.shapes.len().min(ckpt.shapes.len()),
                expected: first.shapes.get(ckpt.shapes.len()).cloned().unwrap_or_default(),
                found: ckpt.shapes.get(first.shapes.len()).cloned().unwrap_or_default(),
            });
        }
        for (layer, (exp, got)) in first.shapes.iter().zip(&ckpt.shapes).enumerate() {
            if exp != got {
                return Err(FederatedError::LayerShapeMismatch {
                    layer,
                    expected: exp.clone(),
                    found: got.clone(),
                });
            }
        }
    }
    let mut averaged: Vec<Tensor> =
        first.params.iter().map(|p| Tensor::zeros(p.shape().clone())).collect();
    for (ckpt, weight) in contributions {
        let w = *weight as f64 / total_weight;
        for (acc, p) in averaged.iter_mut().zip(&ckpt.params) {
            acc.axpy(w as f32, p)?;
        }
    }
    Ok(Checkpoint { version: first.version, shapes: first.shapes.clone(), params: averaged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_nn::{Dense, Layer, Sequential};
    use pilote_tensor::Rng64;

    fn checkpoint_with(value: f32) -> Checkpoint {
        let mut rng = Rng64::new(1);
        let mut net = Sequential::new().push(Dense::new(2, 2, &mut rng));
        for (p, _) in net.params_and_grads() {
            p.as_mut_slice().fill(value);
        }
        Checkpoint::capture(&mut net)
    }

    #[test]
    fn unweighted_average_of_two() {
        let avg =
            federated_average(&[(checkpoint_with(0.0), 1), (checkpoint_with(2.0), 1)]).unwrap();
        for p in &avg.params {
            for &v in p.as_slice() {
                assert!((v - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn weights_shift_the_average() {
        let avg =
            federated_average(&[(checkpoint_with(0.0), 3), (checkpoint_with(4.0), 1)]).unwrap();
        for p in &avg.params {
            for &v in p.as_slice() {
                assert!((v - 1.0).abs() < 1e-6); // (0·3 + 4·1)/4
            }
        }
    }

    #[test]
    fn average_of_identical_models_is_identity() {
        let c = checkpoint_with(0.7);
        let avg = federated_average(&[(c.clone(), 5), (c.clone(), 9)]).unwrap();
        for (a, b) in avg.params.iter().zip(&c.params) {
            assert!(a.max_abs_diff(b).unwrap() < 1e-6);
        }
    }

    /// Regression: merging a v1 and a v2 checkpoint used to silently stamp
    /// the result with the first contributor's version. Mixed-version
    /// rounds must be rejected instead.
    #[test]
    fn mixed_version_contributions_rejected() {
        let v1 = checkpoint_with(1.0);
        let mut v2 = checkpoint_with(2.0);
        v2.version = v1.version + 1;
        match federated_average(&[(v1.clone(), 1), (v2, 1)]) {
            Err(FederatedError::VersionSkew { expected, found }) => {
                assert_eq!(expected, v1.version);
                assert_eq!(found, v1.version + 1);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn structural_mismatch_names_the_offending_layer() {
        let mut rng = Rng64::new(2);
        // Same first layer, different second layer: the error must point at
        // layer index 2 (Dense stores weight then bias per layer).
        let mut a = Sequential::new().push(Dense::new(3, 2, &mut rng)).push(Dense::new(2, 4, &mut rng));
        let mut b = Sequential::new().push(Dense::new(3, 2, &mut rng)).push(Dense::new(2, 5, &mut rng));
        let ca = Checkpoint::capture(&mut a);
        let cb = Checkpoint::capture(&mut b);
        match federated_average(&[(ca.clone(), 1), (cb.clone(), 1)]) {
            Err(FederatedError::LayerShapeMismatch { layer, expected, found }) => {
                assert_eq!(layer, 2, "first disagreeing parameter tensor");
                assert_eq!(expected, ca.shapes[2]);
                assert_eq!(found, cb.shapes[2]);
                assert_ne!(expected, found);
            }
            other => panic!("expected LayerShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn structural_mismatch_rejected() {
        let mut rng = Rng64::new(2);
        let mut other = Sequential::new().push(Dense::new(3, 2, &mut rng));
        let wrong = Checkpoint::capture(&mut other);
        assert!(federated_average(&[(checkpoint_with(1.0), 1), (wrong, 1)]).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(federated_average(&[]), Err(FederatedError::NoContributions));
    }

    #[test]
    fn zero_total_weight_rejected() {
        let c = checkpoint_with(1.0);
        assert_eq!(
            federated_average(&[(c.clone(), 0), (c, 0)]),
            Err(FederatedError::NoContributions)
        );
    }
}
