//! Model persistence — the MAGNETO deployment step ships a pre-trained
//! model from the cloud to edge devices as a parameter snapshot.
//!
//! A [`Checkpoint`] carries the parameter tensors of a
//! [`crate::layer::Sequential`] (or any [`Layer`]) together with a format
//! version and a structural fingerprint, so loading into a mismatched
//! architecture fails loudly instead of silently mangling weights.

use crate::layer::Layer;
use pilote_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A serialisable parameter snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Shape of every parameter tensor, in stable order — the structural
    /// fingerprint checked on load.
    pub shapes: Vec<Vec<usize>>,
    /// The parameter tensors.
    pub params: Vec<Tensor>,
}

/// Errors from checkpoint load/save.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was produced by an incompatible (older) format
    /// version.
    VersionMismatch {
        /// Version found in the payload.
        found: u32,
    },
    /// The checkpoint comes from a *newer* format than this build
    /// understands — a stale edge binary receiving a fresh cloud payload.
    /// Distinct from [`CheckpointError::VersionMismatch`] so deployments
    /// can report "update the device" rather than "corrupt file".
    VersionTooNew {
        /// Version found in the payload.
        found: u32,
    },
    /// The parameter structure does not match the target model.
    StructureMismatch {
        /// Human-readable detail.
        detail: String,
    },
    /// A parameter tensor contains NaN/Inf values. Restoring it would
    /// poison every subsequent forward pass, so loading refuses up front.
    NonFinite {
        /// Index of the offending parameter tensor.
        tensor: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found } => {
                write!(f, "checkpoint version {found} != supported {CHECKPOINT_VERSION}")
            }
            CheckpointError::VersionTooNew { found } => {
                write!(
                    f,
                    "checkpoint version {found} is newer than supported {CHECKPOINT_VERSION}; \
                     update this binary"
                )
            }
            CheckpointError::StructureMismatch { detail } => {
                write!(f, "checkpoint structure mismatch: {detail}")
            }
            CheckpointError::NonFinite { tensor } => {
                write!(f, "checkpoint parameter tensor {tensor} contains non-finite values")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Captures a model's parameters.
    pub fn capture(model: &mut dyn Layer) -> Checkpoint {
        let params: Vec<Tensor> =
            model.params_and_grads().into_iter().map(|(p, _)| p.clone()).collect();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            shapes: params.iter().map(|p| p.shape().dims().to_vec()).collect(),
            params,
        }
    }

    /// Validates version and parameter finiteness without touching a
    /// model — the checks shared by [`Checkpoint::restore`] and callers
    /// that vet a payload before accepting it.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.version > CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionTooNew { found: self.version });
        }
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch { found: self.version });
        }
        for (i, p) in self.params.iter().enumerate() {
            if !p.all_finite() {
                return Err(CheckpointError::NonFinite { tensor: i });
            }
        }
        Ok(())
    }

    /// Restores parameters into a structurally identical model.
    ///
    /// Rejects newer-than-supported versions and non-finite parameter
    /// values before writing anything, so a failed restore never leaves
    /// the model half-updated.
    pub fn restore(&self, model: &mut dyn Layer) -> Result<(), CheckpointError> {
        self.validate()?;
        let pairs = model.params_and_grads();
        if pairs.len() != self.params.len() {
            return Err(CheckpointError::StructureMismatch {
                detail: format!("{} tensors in checkpoint, model has {}", self.params.len(), pairs.len()),
            });
        }
        for (i, ((param, _), saved)) in pairs.into_iter().zip(&self.params).enumerate() {
            if param.shape() != saved.shape() {
                return Err(CheckpointError::StructureMismatch {
                    detail: format!(
                        "tensor {i}: checkpoint {:?} vs model {:?}",
                        saved.shape().dims(),
                        param.shape().dims()
                    ),
                });
            }
            param.as_mut_slice().copy_from_slice(saved.as_slice());
        }
        Ok(())
    }

    /// Serialises to JSON (debug/inspection format; the shipped wire
    /// format is the binary codec of `docs/WIRE.md`).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation is infallible")
    }

    /// Exact size of this checkpoint's binary wire encoding in bytes
    /// (the full-f32 layout of `docs/WIRE.md`): a `u32` version, a `u64`
    /// tensor count, then per tensor a `u64` rank, `u64` dims and the
    /// values as raw IEEE-754 `f32` bits.
    ///
    /// This used to report the JSON text length — decimal-printed floats
    /// cost ~10+ bytes each, inflating every modeled transfer time by a
    /// format we would never ship. The magneto wire codec asserts its
    /// encoder produces exactly this many bytes.
    pub fn wire_bytes(&self) -> u64 {
        let header = 4u64 + 8;
        let tensors: u64 = self
            .params
            .iter()
            .map(|p| 8 + 8 * p.shape().dims().len() as u64 + 4 * p.len() as u64)
            .sum();
        header + tensors
    }

    /// Number of scalar parameters stored.
    pub fn param_count(&self) -> usize {
        self.params.iter().map(Tensor::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{BatchNorm1d, Dense, Mode, ReLU, Sequential};
    use pilote_tensor::Rng64;

    fn net(seed: u64) -> Sequential {
        let mut rng = Rng64::new(seed);
        Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(BatchNorm1d::new(8))
            .push(ReLU::new())
            .push(Dense::new(8, 2, &mut rng))
    }

    #[test]
    fn capture_restore_round_trip() {
        let mut source = net(1);
        let mut target = net(2);
        let mut rng = Rng64::new(3);
        let x = Tensor::randn([5, 4], 0.0, 1.0, &mut rng);
        let expected = source.forward(&x, Mode::Eval);
        let ckpt = Checkpoint::capture(&mut source);
        ckpt.restore(&mut target).unwrap();
        let got = target.forward(&x, Mode::Eval);
        // BN running stats are NOT parameters, so feed identical (default)
        // running stats: both nets are fresh, so outputs must match.
        assert!(expected.max_abs_diff(&got).unwrap() < 1e-6);
    }

    #[test]
    fn sizes_count_every_parameter() {
        let mut source = net(4);
        let ckpt = Checkpoint::capture(&mut source);
        assert!(ckpt.wire_bytes() > 0);
        assert_eq!(ckpt.param_count(), 4 * 8 + 8 + 2 * 8 + 8 * 2 + 2);
    }

    #[test]
    fn structure_mismatch_is_detected() {
        let mut source = net(5);
        let ckpt = Checkpoint::capture(&mut source);
        let mut rng = Rng64::new(6);
        let mut wrong = Sequential::new().push(Dense::new(4, 9, &mut rng));
        match ckpt.restore(&mut wrong) {
            Err(CheckpointError::StructureMismatch { .. }) => {}
            other => panic!("expected structure mismatch, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut source = net(7);
        let mut ckpt = Checkpoint::capture(&mut source);
        ckpt.version = 0;
        let mut target = net(8);
        assert_eq!(
            ckpt.restore(&mut target),
            Err(CheckpointError::VersionMismatch { found: 0 })
        );
    }

    #[test]
    fn newer_version_is_rejected_distinctly() {
        let mut source = net(9);
        let mut ckpt = Checkpoint::capture(&mut source);
        ckpt.version = CHECKPOINT_VERSION + 1;
        let mut target = net(10);
        assert_eq!(
            ckpt.restore(&mut target),
            Err(CheckpointError::VersionTooNew { found: CHECKPOINT_VERSION + 1 })
        );
    }

    #[test]
    fn non_finite_parameters_are_rejected_without_mutating_model() {
        let mut source = net(11);
        let mut ckpt = Checkpoint::capture(&mut source);
        ckpt.params[1].as_mut_slice()[0] = f32::NAN;
        let mut target = net(12);
        let before = Checkpoint::capture(&mut target);
        assert_eq!(ckpt.restore(&mut target), Err(CheckpointError::NonFinite { tensor: 1 }));
        // The failed restore must not have written anything.
        assert_eq!(Checkpoint::capture(&mut target), before);
    }
}
