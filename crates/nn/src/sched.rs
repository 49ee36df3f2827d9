//! Learning-rate schedules.
//!
//! The paper (§6.1.2): "the learning rate starts from 0.01 and decreases by
//! half every training epoch" — that is [`HalvingLr`].

/// A learning-rate schedule: maps an epoch index (0-based) to a rate.
pub trait LrSchedule {
    /// Learning rate to use during `epoch`.
    fn lr_at(&self, epoch: usize) -> f32;
}

/// The paper's schedule: `lr₀ · 0.5^epoch`, floored at `min_lr` so very
/// long runs don't underflow to zero updates.
#[derive(Debug, Clone, Copy)]
pub struct HalvingLr {
    /// Initial learning rate (paper: 0.01).
    pub initial: f32,
    /// Lower bound on the rate.
    pub min_lr: f32,
}

impl HalvingLr {
    /// The paper's configuration: start at 0.01, halve each epoch, floor at
    /// `1e-6`.
    pub fn paper() -> Self {
        HalvingLr { initial: 0.01, min_lr: 1e-6 }
    }
}

impl LrSchedule for HalvingLr {
    fn lr_at(&self, epoch: usize) -> f32 {
        (self.initial * 0.5f32.powi(epoch.min(127) as i32)).max(self.min_lr)
    }
}

/// Step decay: multiply by `gamma` every `step_size` epochs.
#[derive(Debug, Clone, Copy)]
pub struct StepLr {
    /// Initial learning rate.
    pub initial: f32,
    /// Epochs between decays.
    pub step_size: usize,
    /// Multiplicative decay factor.
    pub gamma: f32,
}

impl LrSchedule for StepLr {
    fn lr_at(&self, epoch: usize) -> f32 {
        let steps = (epoch / self.step_size.max(1)).min(127);
        self.initial * self.gamma.powi(steps as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halving_matches_paper_rule() {
        let s = HalvingLr::paper();
        assert_eq!(s.lr_at(0), 0.01);
        assert_eq!(s.lr_at(1), 0.005);
        assert_eq!(s.lr_at(2), 0.0025);
    }

    #[test]
    fn halving_floors_at_min() {
        let s = HalvingLr::paper();
        assert_eq!(s.lr_at(1000), 1e-6);
        // no overflow panic at extreme epochs
        assert!(s.lr_at(usize::MAX) >= 1e-6);
    }

    #[test]
    fn step_decays_at_boundaries() {
        let s = StepLr { initial: 1.0, step_size: 10, gamma: 0.1 };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert!((s.lr_at(10) - 0.1).abs() < 1e-9);
        assert!((s.lr_at(25) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn step_size_zero_does_not_divide_by_zero() {
        let s = StepLr { initial: 1.0, step_size: 0, gamma: 0.5 };
        assert_eq!(s.lr_at(3), 0.125);
    }
}
