//! Contrastive pair construction.
//!
//! §5.2 of the paper reduces the pair budget during an edge update: with
//! `n_t` new samples, the contrastive term needs only the `C(n_t, 2)`
//! new×new pairs plus new×old pairs — old×old boundaries are already held
//! in place by the distillation loss. [`PairScheme::Reduced`] implements
//! that scheme; [`PairScheme::Full`] is the classic all-pairs sampling used
//! for cloud pre-training and by the re-trained baseline.
//!
//! The per-step hot path of `train_embedding` does not gather pair
//! features here: it lists the `a` then `b` rows of a batch and hands them
//! to `EmbeddingNet::forward_rows`, which selects each distinct row once,
//! band-parallel through `Tensor::select_rows`. [`PairSet::gather`], which
//! materialises the two feature batches, serves the EWC arm of
//! `strategies`.
//!
//! Threading: [`sample_pairs`], [`build_epoch_pairs`] and
//! [`PairSet::shuffle`] are *deliberately serial*: their output is defined
//! by the order of draws from a single [`Rng64`] stream, and any parallel
//! partition would change the stream and hence the experiment results (see
//! `docs/THREADING.md`).

use pilote_tensor::{Rng64, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Which pair population to sample from during an incremental update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PairScheme {
    /// All pairs over `D₀ ∪ Dₙ` (quadratic in the support set).
    Full,
    /// New×new and new×old pairs only (the §5.2 reduction).
    #[default]
    Reduced,
}

impl PairScheme {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PairScheme::Full => "full",
            PairScheme::Reduced => "reduced",
        }
    }
}

/// A batch of index pairs with similarity flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairSet {
    /// Left-hand row indices.
    pub a: Vec<usize>,
    /// Right-hand row indices.
    pub b: Vec<usize>,
    /// `similar[i]` ⇔ `labels[a[i]] == labels[b[i]]`.
    pub similar: Vec<bool>,
}

impl PairSet {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Appends another pair set.
    pub fn extend(&mut self, other: PairSet) {
        self.a.extend(other.a);
        self.b.extend(other.b);
        self.similar.extend(other.similar);
    }

    /// Shuffles pairs in unison.
    pub fn shuffle(&mut self, rng: &mut Rng64) {
        for i in (1..self.len()).rev() {
            let j = rng.below(i + 1);
            self.a.swap(i, j);
            self.b.swap(i, j);
            self.similar.swap(i, j);
        }
    }

    /// The pair slice `[start, end)` as a new set.
    pub fn slice(&self, start: usize, end: usize) -> PairSet {
        PairSet {
            a: self.a[start..end].to_vec(),
            b: self.b[start..end].to_vec(),
            similar: self.similar[start..end].to_vec(),
        }
    }

    /// Gathers the two feature batches `(A, B)` for this pair set from a
    /// `[n, d]` feature matrix.
    pub fn gather(&self, features: &Tensor) -> Result<(Tensor, Tensor), TensorError> {
        Ok((features.select_rows(&self.a)?, features.select_rows(&self.b)?))
    }
}

/// Samples `pairs_per_anchor` partners for each anchor, aiming for a
/// 50/50 similar/dissimilar balance where the partner pool allows it.
///
/// * `labels` — label of every row in the dataset;
/// * `anchors` — row indices to anchor pairs on;
/// * `partners` — row indices eligible as the other pair member.
///
/// Self-pairs are excluded. If the pool lacks one polarity entirely (e.g.
/// all partners share the anchor's class), all pairs take the available
/// polarity.
pub fn sample_pairs(
    labels: &[usize],
    anchors: &[usize],
    partners: &[usize],
    pairs_per_anchor: usize,
    rng: &mut Rng64,
) -> PairSet {
    // Partition the partner pool by class once.
    let mut by_class: std::collections::BTreeMap<usize, Vec<usize>> = std::collections::BTreeMap::new();
    for &p in partners {
        by_class.entry(labels[p]).or_default().push(p);
    }
    let total_partners = partners.len();
    let mut out = PairSet::default();

    for &anchor in anchors {
        let ya = labels[anchor];
        let same = by_class.get(&ya).map_or(&[][..], |v| &v[..]);
        // Exclude the anchor itself from its own similar pool.
        let same_count = same.iter().filter(|&&p| p != anchor).count();
        let diff_count = total_partners - same.len();
        for k in 0..pairs_per_anchor {
            let want_similar = k % 2 == 0;
            let use_similar = match (same_count > 0, diff_count > 0) {
                (true, true) => want_similar,
                (true, false) => true,
                (false, true) => false,
                (false, false) => continue,
            };
            let partner = if use_similar {
                loop {
                    let cand = same[rng.below(same.len())];
                    if cand != anchor {
                        break cand;
                    }
                }
            } else {
                // Rejection-sample a different-class partner.
                loop {
                    let cand = partners[rng.below(total_partners)];
                    if labels[cand] != ya {
                        break cand;
                    }
                }
            };
            out.a.push(anchor);
            out.b.push(partner);
            out.similar.push(use_similar);
        }
    }
    out
}

/// Builds the epoch's pair population for an incremental update.
///
/// * `labels` — per-row labels of the combined `D₀ ∪ Dₙ` matrix;
/// * `is_new[i]` — whether row `i` belongs to the incoming new-class data;
/// * `pairs_per_anchor` — sampling density.
///
/// `Full` anchors every row against every row; `Reduced` anchors only the
/// new rows (new×new plus new×old), implementing §5.2.
pub fn build_epoch_pairs(
    labels: &[usize],
    is_new: &[bool],
    scheme: PairScheme,
    pairs_per_anchor: usize,
    rng: &mut Rng64,
) -> PairSet {
    assert_eq!(labels.len(), is_new.len(), "labels/is_new length mismatch");
    let all: Vec<usize> = (0..labels.len()).collect();
    let mut pairs = match scheme {
        PairScheme::Full => sample_pairs(labels, &all, &all, pairs_per_anchor, rng),
        PairScheme::Reduced => {
            let new_rows: Vec<usize> =
                all.iter().copied().filter(|&i| is_new[i]).collect();
            sample_pairs(labels, &new_rows, &all, pairs_per_anchor, rng)
        }
    };
    pairs.shuffle(rng);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_have_correct_similarity_flags() {
        let labels = vec![0, 0, 1, 1, 2];
        let all: Vec<usize> = (0..5).collect();
        let mut rng = Rng64::new(1);
        let ps = sample_pairs(&labels, &all, &all, 6, &mut rng);
        for i in 0..ps.len() {
            assert_eq!(ps.similar[i], labels[ps.a[i]] == labels[ps.b[i]]);
            assert_ne!(ps.a[i], ps.b[i], "self-pair produced");
        }
    }

    #[test]
    fn balance_is_roughly_half() {
        let labels: Vec<usize> = (0..100).map(|i| i % 4).collect();
        let all: Vec<usize> = (0..100).collect();
        let mut rng = Rng64::new(2);
        let ps = sample_pairs(&labels, &all, &all, 10, &mut rng);
        let sim = ps.similar.iter().filter(|&&s| s).count();
        assert_eq!(sim * 2, ps.len());
    }

    #[test]
    fn singleton_class_anchor_gets_only_dissimilar() {
        let labels = vec![0, 1, 1, 1];
        let mut rng = Rng64::new(3);
        let ps = sample_pairs(&labels, &[0], &[0, 1, 2, 3], 4, &mut rng);
        assert_eq!(ps.len(), 4);
        assert!(ps.similar.iter().all(|&s| !s));
    }

    #[test]
    fn all_same_class_gets_only_similar() {
        let labels = vec![5, 5, 5];
        let mut rng = Rng64::new(4);
        let ps = sample_pairs(&labels, &[0, 1], &[0, 1, 2], 4, &mut rng);
        assert!(ps.similar.iter().all(|&s| s));
    }

    #[test]
    fn lone_sample_produces_no_pairs() {
        let labels = vec![0];
        let mut rng = Rng64::new(5);
        let ps = sample_pairs(&labels, &[0], &[0], 4, &mut rng);
        assert!(ps.is_empty());
    }

    #[test]
    fn reduced_scheme_anchors_only_new_rows() {
        let labels = vec![0, 0, 1, 1, 2, 2];
        let is_new = vec![false, false, false, false, true, true];
        let mut rng = Rng64::new(6);
        let ps = build_epoch_pairs(&labels, &is_new, PairScheme::Reduced, 6, &mut rng);
        assert!(!ps.is_empty());
        for i in 0..ps.len() {
            assert!(is_new[ps.a[i]], "reduced scheme anchored an old row");
        }
    }

    #[test]
    fn full_scheme_anchors_everything() {
        let labels = vec![0, 0, 1, 1];
        let is_new = vec![false, false, true, true];
        let mut rng = Rng64::new(7);
        let ps = build_epoch_pairs(&labels, &is_new, PairScheme::Full, 4, &mut rng);
        let anchored: std::collections::BTreeSet<usize> = ps.a.iter().copied().collect();
        assert_eq!(anchored.len(), 4);
    }

    #[test]
    fn reduced_is_smaller_than_full() {
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let mut is_new = vec![false; 60];
        for m in is_new.iter_mut().take(60).skip(50) {
            *m = true;
        }
        let mut rng = Rng64::new(8);
        let full = build_epoch_pairs(&labels, &is_new, PairScheme::Full, 4, &mut rng);
        let reduced = build_epoch_pairs(&labels, &is_new, PairScheme::Reduced, 4, &mut rng);
        assert!(reduced.len() < full.len() / 3);
    }

    #[test]
    fn gather_and_slice_round_trip() {
        let features =
            Tensor::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let ps = PairSet { a: vec![0, 2], b: vec![3, 1], similar: vec![false, true] };
        let (a, b) = ps.gather(&features).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 2.0]);
        assert_eq!(b.as_slice(), &[3.0, 1.0]);
        let s = ps.slice(1, 2);
        assert_eq!(s.a, vec![2]);
        assert_eq!(s.similar, vec![true]);
    }

    #[test]
    fn shuffle_preserves_pairings() {
        let labels = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let all: Vec<usize> = (0..8).collect();
        let mut rng = Rng64::new(9);
        let mut ps = sample_pairs(&labels, &all, &all, 4, &mut rng);
        let before: std::collections::BTreeSet<(usize, usize, bool)> = (0..ps.len())
            .map(|i| (ps.a[i], ps.b[i], ps.similar[i]))
            .collect();
        ps.shuffle(&mut rng);
        let after: std::collections::BTreeSet<(usize, usize, bool)> =
            (0..ps.len()).map(|i| (ps.a[i], ps.b[i], ps.similar[i])).collect();
        assert_eq!(before, after);
        for i in 0..ps.len() {
            assert_eq!(ps.similar[i], labels[ps.a[i]] == labels[ps.b[i]]);
        }
    }
}
