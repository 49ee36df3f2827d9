//! Experiment sizing.
//!
//! The paper's campaign has ~200 k records; on this single-core benchmark
//! host we default to 600 windows per activity (3 000 total), which keeps
//! each experiment minutes-scale while preserving every relative result.
//! `quick()` is for smoke runs. The full campaign would be 40 000 windows
//! per activity, 5 rounds, 200 exemplars per class, a 20-epoch update cap
//! and 40 pre-training epochs — only practical on a multi-core host. Every
//! scale holds out `TEST_PERCENT` (30%) of the records, as the paper does.

use serde::{Deserialize, Serialize};

/// Percentage of records held out as the test set — the paper splits 30%.
const TEST_PERCENT: usize = 30;

/// Dataset/repetition sizing for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Simulated windows generated per activity (before the test split).
    pub per_activity: usize,
    /// Repetition rounds for mean ± std (paper: 5).
    pub rounds: usize,
    /// Default exemplars per class in the support set (paper: 200).
    pub exemplars_per_class: usize,
    /// Hard epoch cap for edge updates (paper reports convergence within
    /// 20; updates converge faster).
    pub max_epochs: usize,
    /// Epoch budget for cloud pre-training (run closer to convergence —
    /// the paper's pre-training "benefits from the rich computation
    /// resources on the Cloud").
    pub pretrain_epochs: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            per_activity: 600,
            rounds: 5,
            exemplars_per_class: 200,
            max_epochs: 12,
            pretrain_epochs: 16,
        }
    }
}

impl Scale {
    /// Smoke-test sizing (~seconds per experiment).
    pub fn quick() -> Self {
        Scale {
            per_activity: 120,
            rounds: 2,
            exemplars_per_class: 50,
            max_epochs: 6,
            pretrain_epochs: 8,
        }
    }

    /// Test fraction as a float.
    pub fn test_fraction(&self) -> f32 {
        TEST_PERCENT as f32 / 100.0
    }

    /// Training windows available per activity after the split.
    pub fn train_per_activity(&self) -> usize {
        self.per_activity - self.per_activity * TEST_PERCENT / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_protocol() {
        let s = Scale::default();
        assert_eq!(TEST_PERCENT, 30);
        assert_eq!(s.rounds, 5);
        assert_eq!(s.exemplars_per_class, 200);
    }

    #[test]
    fn train_split_arithmetic() {
        let s = Scale { per_activity: 600, ..Scale::default() };
        assert_eq!(s.train_per_activity(), 420);
        assert!((s.test_fraction() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn quick_is_smaller() {
        let q = Scale::quick();
        let d = Scale::default();
        assert!(q.per_activity < d.per_activity);
        assert!(q.rounds < d.rounds);
    }
}
