//! The nearest-class-mean classifier (Eq. 1).
//!
//! ```text
//! y* = argmin_y dist(φ_Θ(x), μ_y),   μ_y = (1/n_y)·Σ φ_Θ(p_i)
//! ```
//!
//! Prototypes are computed from exemplar support sets, never from full
//! class data — that is what keeps the edge memory footprint constant.

use pilote_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// NCM classifier over class prototypes in embedding space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NcmClassifier {
    /// Class labels, in prototype-row order.
    labels: Vec<usize>,
    /// `[classes, d]` prototype matrix.
    prototypes: Tensor,
}

impl NcmClassifier {
    /// Builds an empty classifier with embedding width `d`.
    pub fn new(d: usize) -> Self {
        NcmClassifier { labels: Vec::new(), prototypes: Tensor::zeros([0, d]) }
    }

    /// Builds a classifier directly from a prototype matrix: one row of
    /// `prototypes` (`[classes, d]`) per entry of `labels`, installed
    /// as-is without re-averaging. This is the wire-decode path: a device
    /// receiving quantised prototypes serves from *exactly* the shipped
    /// values, so the accuracy cost of quantisation is measured, not
    /// hidden behind a local recompute.
    ///
    /// # Errors
    /// [`TensorError::ShapeMismatch`] when `labels` and prototype rows
    /// disagree in count, or `prototypes` is not rank 2;
    /// [`TensorError::Empty`] on duplicate labels (two rows would alias
    /// one class).
    pub fn from_prototypes(labels: Vec<usize>, prototypes: Tensor) -> Result<Self, TensorError> {
        if prototypes.rank() != 2 || prototypes.rows() != labels.len() {
            return Err(TensorError::ShapeMismatch {
                left: prototypes.shape().dims().to_vec(),
                right: vec![labels.len()],
                op: "NcmClassifier::from_prototypes",
            });
        }
        for (i, l) in labels.iter().enumerate() {
            if labels[..i].contains(l) {
                return Err(TensorError::Empty { op: "NcmClassifier::from_prototypes (duplicate label)" });
            }
        }
        Ok(NcmClassifier { labels, prototypes })
    }

    /// The full `[classes, d]` prototype matrix (row order matches
    /// [`NcmClassifier::labels`]) — the wire-encode counterpart of
    /// [`NcmClassifier::from_prototypes`].
    pub fn prototype_matrix(&self) -> &Tensor {
        &self.prototypes
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.prototypes.cols()
    }

    /// Number of known classes.
    pub fn n_classes(&self) -> usize {
        self.labels.len()
    }

    /// Known class labels (prototype order).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The prototype of `label`, if known.
    pub fn prototype(&self, label: usize) -> Option<Tensor> {
        let row = self.labels.iter().position(|&l| l == label)?;
        Some(Tensor::vector(self.prototypes.row(row)))
    }

    /// Inserts or replaces the prototype of `label` with the mean of
    /// `embeddings` (`[n, d]`, n ≥ 1).
    pub fn set_prototype_from(&mut self, label: usize, embeddings: &Tensor) -> Result<(), TensorError> {
        let mu = crate::exemplar::class_prototype(embeddings)?;
        self.set_prototype(label, &mu)
    }

    /// Inserts or replaces the prototype of `label` directly.
    pub fn set_prototype(&mut self, label: usize, prototype: &Tensor) -> Result<(), TensorError> {
        if prototype.rank() != 1 || prototype.len() != self.dim() {
            return Err(TensorError::ShapeMismatch {
                left: prototype.shape().dims().to_vec(),
                right: vec![self.dim()],
                op: "NcmClassifier::set_prototype",
            });
        }
        match self.labels.iter().position(|&l| l == label) {
            Some(row) => {
                self.prototypes.row_mut(row).copy_from_slice(prototype.as_slice());
            }
            None => {
                self.labels.push(label);
                self.prototypes =
                    Tensor::vstack(&[&self.prototypes, &prototype.reshape([1, self.dim()])?])?;
            }
        }
        Ok(())
    }

    /// Removes a class prototype; returns whether it existed.
    pub fn remove(&mut self, label: usize) -> bool {
        let Some(row) = self.labels.iter().position(|&l| l == label) else {
            return false;
        };
        self.labels.remove(row);
        let keep: Vec<usize> =
            (0..self.prototypes.rows()).filter(|&r| r != row).collect();
        self.prototypes = self.prototypes.select_rows(&keep).expect("rows in range");
        true
    }

    /// Squared distances `[n, classes]` from each embedding row to each
    /// prototype.
    ///
    /// Rides the fused `pairwise_sq_dists` kernel: the `‖x‖² − 2x·μ + ‖μ‖²`
    /// combine is an epilogue of the packed GEMM (`docs/KERNELS.md`), so
    /// the whole NCM hot path is one kernel dispatch with no second sweep
    /// over the `[n, classes]` output.
    pub fn distances(&self, embeddings: &Tensor) -> Result<Tensor, TensorError> {
        if self.n_classes() == 0 {
            return Err(TensorError::Empty { op: "NcmClassifier::distances" });
        }
        embeddings.pairwise_sq_dists(&self.prototypes)
    }

    /// Classifies each embedding row to the nearest prototype's label.
    pub fn classify(&self, embeddings: &Tensor) -> Result<Vec<usize>, TensorError> {
        let d = self.distances(embeddings)?;
        Ok(d.argmin_rows()?.into_iter().map(|r| self.labels[r]).collect())
    }

    /// Classifies each embedding row, returning `(label, squared distance
    /// to the winning prototype)` per row.
    ///
    /// One [`Tensor::pairwise_sq_dists`] call covers the whole batch, and
    /// every output row is a pure function of its input row, so the result
    /// is bitwise-identical to classifying each row in its own `[1, d]`
    /// call — the batched-serving contract of `docs/FLEET.md`.
    pub fn classify_with_distances(
        &self,
        embeddings: &Tensor,
    ) -> Result<Vec<(usize, f32)>, TensorError> {
        let d = self.distances(embeddings)?;
        let winners = d.argmin_rows()?;
        Ok(winners
            .into_iter()
            .enumerate()
            .map(|(row, col)| (self.labels[col], d.at(row, col)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_tensor::Rng64;

    fn two_class() -> NcmClassifier {
        let mut clf = NcmClassifier::new(2);
        clf.set_prototype(7, &Tensor::vector(&[0.0, 0.0])).unwrap();
        clf.set_prototype(9, &Tensor::vector(&[10.0, 0.0])).unwrap();
        clf
    }

    #[test]
    fn classify_nearest() {
        let clf = two_class();
        let x = Tensor::from_rows(&[vec![1.0, 1.0], vec![9.0, -1.0]]).unwrap();
        assert_eq!(clf.classify(&x).unwrap(), vec![7, 9]);
    }

    #[test]
    fn from_prototypes_installs_rows_verbatim() {
        let clf = two_class();
        let direct = NcmClassifier::from_prototypes(
            clf.labels().to_vec(),
            clf.prototype_matrix().clone(),
        )
        .unwrap();
        assert_eq!(direct, clf);
        let x = Tensor::from_rows(&[vec![1.0, 1.0], vec![9.0, -1.0]]).unwrap();
        assert_eq!(direct.classify(&x).unwrap(), vec![7, 9]);
    }

    #[test]
    fn from_prototypes_rejects_bad_shapes_and_duplicates() {
        let m = Tensor::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        assert!(matches!(
            NcmClassifier::from_prototypes(vec![1], m.clone()),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            NcmClassifier::from_prototypes(vec![3, 3], m),
            Err(TensorError::Empty { .. })
        ));
    }

    #[test]
    fn labels_are_arbitrary_not_dense() {
        let clf = two_class();
        assert_eq!(clf.labels(), &[7, 9]);
        assert!(clf.prototype(8).is_none());
        assert_eq!(clf.prototype(9).unwrap().as_slice(), &[10.0, 0.0]);
    }

    #[test]
    fn prototype_replacement() {
        let mut clf = two_class();
        clf.set_prototype(7, &Tensor::vector(&[100.0, 0.0])).unwrap();
        assert_eq!(clf.n_classes(), 2);
        let x = Tensor::from_rows(&[vec![1.0, 0.0]]).unwrap();
        assert_eq!(clf.classify(&x).unwrap(), vec![9]);
    }

    #[test]
    fn set_prototype_from_uses_means() {
        let e0 = Tensor::from_rows(&[vec![0.0, 0.0], vec![2.0, 0.0]]).unwrap();
        let e1 = Tensor::from_rows(&[vec![10.0, 10.0]]).unwrap();
        let mut clf = NcmClassifier::new(2);
        clf.set_prototype_from(0, &e0).unwrap();
        clf.set_prototype_from(1, &e1).unwrap();
        assert_eq!(clf.prototype(0).unwrap().as_slice(), &[1.0, 0.0]);
        assert_eq!(clf.prototype(1).unwrap().as_slice(), &[10.0, 10.0]);
    }

    #[test]
    fn remove_class() {
        let mut clf = two_class();
        assert!(clf.remove(7));
        assert!(!clf.remove(7));
        assert_eq!(clf.n_classes(), 1);
        let x = Tensor::from_rows(&[vec![0.0, 0.0]]).unwrap();
        assert_eq!(clf.classify(&x).unwrap(), vec![9]);
    }

    #[test]
    fn empty_classifier_errors() {
        let clf = NcmClassifier::new(3);
        assert!(clf.classify(&Tensor::zeros([1, 3])).is_err());
    }

    #[test]
    fn classification_invariant_to_insertion_order() {
        let mut rng = Rng64::new(1);
        let protos: Vec<Tensor> =
            (0..4).map(|_| Tensor::randn([3], 0.0, 1.0, &mut rng)).collect();
        let mut a = NcmClassifier::new(3);
        let mut b = NcmClassifier::new(3);
        for (i, p) in protos.iter().enumerate() {
            a.set_prototype(i, p).unwrap();
        }
        for (i, p) in protos.iter().enumerate().rev() {
            b.set_prototype(i, p).unwrap();
        }
        let x = Tensor::randn([20, 3], 0.0, 2.0, &mut rng);
        assert_eq!(a.classify(&x).unwrap(), b.classify(&x).unwrap());
    }

    #[test]
    fn classify_with_distances_matches_per_row_calls() {
        let mut rng = Rng64::new(9);
        let mut clf = NcmClassifier::new(4);
        for label in [3, 11, 4] {
            clf.set_prototype(label, &Tensor::randn([4], 0.0, 1.0, &mut rng)).unwrap();
        }
        let x = Tensor::randn([13, 4], 0.0, 2.0, &mut rng);
        let batched = clf.classify_with_distances(&x).unwrap();
        assert_eq!(batched.len(), 13);
        for (i, &(label, dist)) in batched.iter().enumerate() {
            let row = Tensor::vector(x.row(i)).reshape([1, 4]).unwrap();
            let single = clf.classify_with_distances(&row).unwrap();
            assert_eq!(single.len(), 1);
            assert_eq!(single[0].0, label);
            // Bitwise, not approximate: the batched kernel computes each
            // output row independently.
            assert_eq!(single[0].1.to_bits(), dist.to_bits());
        }
    }

    #[test]
    fn distances_shape() {
        let clf = two_class();
        let x = Tensor::zeros([5, 2]);
        let d = clf.distances(&x).unwrap();
        assert_eq!(d.shape().dims(), &[5, 2]);
        assert_eq!(d.at(0, 0), 0.0);
        assert_eq!(d.at(0, 1), 100.0);
    }

    #[test]
    fn serde_round_trip() {
        let clf = two_class();
        let json = serde_json::to_string(&clf).unwrap();
        let back: NcmClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(back, clf);
    }
}
