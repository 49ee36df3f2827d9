//! # pilote-core
//!
//! The PILOTE algorithm (EDBT 2023): **P**ushing **I**ncremental
//! **L**earning **O**n human activities at the ex**T**reme **E**dge.
//!
//! PILOTE learns a metric embedding of human-activity feature vectors with
//! a Siamese network and classifies with nearest-class-mean (NCM) over
//! small exemplar support sets. When a new activity class appears on the
//! edge device, the model is updated with a joint loss
//!
//! ```text
//! L = α·L_distill + (1 − α)·L_contrastive          (Algorithm 1, line 10)
//! ```
//!
//! where the distillation term pins old-class exemplar embeddings to the
//! pre-trained ("teacher") embedding space, preventing catastrophic
//! forgetting, while the contrastive term carves out space for the new
//! class.
//!
//! Crate layout:
//!
//! * [`config`] — hyper-parameters (paper defaults: `α = 0.5`,
//!   FC `80 → 1024 → 512 → 128 → 64 → 128` with BatchNorm + ReLU, Adam,
//!   halving LR from 0.01, early stop at `Δval < 1e-4` ×5).
//! * [`embedding`] — the Siamese embedding network.
//! * [`exemplar`] — support-set selection (herding of Algorithm 1 lines
//!   1–7, plus random/boundary ablations).
//! * [`ncm`] — class prototypes and the NCM classifier (Eq. 1).
//! * [`pairs`] — contrastive pair construction, including the reduced
//!   scheme of §5.2.
//! * [`pilote`] — the incremental learner (pre-train on the cloud, learn
//!   new classes on the edge).
//! * [`learner`] — [`Method`], the one list of in-place update rules:
//!   PILOTE, the paper's *pre-trained* and *re-trained* comparison points,
//!   and the naive fine-tune, GDumb and EWC strategies.
//! * [`strategies`] — the GDumb and EWC bodies, and the LwF softmax-head
//!   classifier for the A4 ablation.
//! * [`metrics`] — accuracy, confusion matrices, forgetting measures.
//! * [`projection`] — PCA projection of embedding spaces (Fig. 5) and
//!   cluster separation scores.
//! * [`quality`] — run-time quality monitoring: forgetting scores,
//!   prototype drift and NCM margin histograms with deterministic alert
//!   rules.
//! * [`session_metrics`] — the session × task accuracy matrix and the
//!   continual-learning metrics derived from it (average accuracy,
//!   forgetting curves, backward/forward transfer).

pub mod config;
pub mod embedding;
pub mod exemplar;
pub mod learner;
pub mod metrics;
pub mod ncm;
pub mod pairs;
pub mod pilote;
pub mod projection;
pub mod quality;
pub mod session_metrics;
pub mod strategies;

pub use config::{NetConfig, PiloteConfig};
pub use embedding::EmbeddingNet;
pub use exemplar::{select_exemplars, SelectionStrategy};
pub use metrics::{accuracy, ConfusionMatrix};
pub use learner::Method;
pub use ncm::NcmClassifier;
pub use pilote::{Pilote, SupportSet, TrainReport, UpdateOutcome, UpdateStage};
pub use quality::{AlertRule, ClassQuality, QualityAlert, QualityMonitor, QualityReport};
pub use session_metrics::{AccuracyMatrix, SessionRecord, SessionSummary, TaskGroup};
