//! Deterministic, seed-driven fault injection for the edge pipeline.
//!
//! Real MAGNETO deployments do not see clean data: sensors drop samples,
//! channels freeze, drivers emit NaN bursts, ADCs saturate, cellular links
//! time out mid-download, and incremental updates get killed by the OS or
//! a dying battery. This module generates all of those faults from a
//! single seed so that every schedule is exactly reproducible:
//!
//! * [`SensorFaultInjector`] corrupts raw `[time, channels]` sensor
//!   windows ahead of the window assembler (dropout gaps, stuck channels,
//!   NaN/Inf spikes, rail saturation);
//! * [`FlakyLink`] wraps a [`LinkModel`] with drop / timeout / truncation
//!   faults for the cloud→edge transfer, paired with a fixed retry rule:
//!   at most [`RETRY_MAX_ATTEMPTS`] attempts, [`backoff_before`]'s
//!   exponential backoff and the [`RETRY_DEADLINE_S`] deadline;
//! * [`CrashPlan`] decides, per incremental update, whether the process is
//!   killed and at which kill-point.
//!
//! **Determinism contract** (same as `docs/THREADING.md`): one seed → one
//! fault schedule → bit-identical pipeline outcome at any thread count.
//! Each fault family draws from its own forked [`Rng64`] stream, so adding
//! faults of one kind never perturbs the schedule of another.

use crate::link::LinkModel;
use pilote_tensor::{Rng64, Tensor};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Sensor faults
// ---------------------------------------------------------------------------

/// The kinds of sensor-stream corruption the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensorFaultKind {
    /// A gap of zeroed samples (the sensor stopped reporting).
    Dropout,
    /// One channel freezes at its last value for the rest of the window.
    Stuck,
    /// Isolated NaN / ±Inf cells (driver glitch, bad I²C read).
    Spike,
    /// One channel is hard-clipped to a rail (ADC saturation).
    Saturation,
}

impl SensorFaultKind {
    /// All fault kinds, in injection order.
    pub const ALL: [SensorFaultKind; 4] = [
        SensorFaultKind::Dropout,
        SensorFaultKind::Stuck,
        SensorFaultKind::Spike,
        SensorFaultKind::Saturation,
    ];
}

/// Per-window probabilities of each sensor-fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorFaultRates {
    /// Probability of a dropout gap per window.
    pub dropout: f64,
    /// Probability of a stuck channel per window.
    pub stuck: f64,
    /// Probability of a NaN/Inf spike burst per window.
    pub spike: f64,
    /// Probability of a saturated channel per window.
    pub saturation: f64,
}

impl SensorFaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        SensorFaultRates { dropout: 0.0, stuck: 0.0, spike: 0.0, saturation: 0.0 }
    }

    /// The same rate for every fault kind.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        SensorFaultRates { dropout: rate, stuck: rate, spike: rate, saturation: rate }
    }

    /// The rate of the given kind.
    pub fn rate(&self, kind: SensorFaultKind) -> f64 {
        match kind {
            SensorFaultKind::Dropout => self.dropout,
            SensorFaultKind::Stuck => self.stuck,
            SensorFaultKind::Spike => self.spike,
            SensorFaultKind::Saturation => self.saturation,
        }
    }
}

/// Injection counters, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Dropout gaps injected.
    pub dropout: u64,
    /// Stuck channels injected.
    pub stuck: u64,
    /// NaN/Inf bursts injected.
    pub spike: u64,
    /// Saturated channels injected.
    pub saturation: u64,
}

impl FaultCounts {
    /// Total faults injected across kinds.
    pub fn total(&self) -> u64 {
        self.dropout + self.stuck + self.spike + self.saturation
    }

    fn bump(&mut self, kind: SensorFaultKind) {
        match kind {
            SensorFaultKind::Dropout => self.dropout += 1,
            SensorFaultKind::Stuck => self.stuck += 1,
            SensorFaultKind::Spike => self.spike += 1,
            SensorFaultKind::Saturation => self.saturation += 1,
        }
    }
}

/// Seed-driven corruptor of raw `[time, channels]` sensor windows.
///
/// Call [`SensorFaultInjector::corrupt_window`] on each window *before* it
/// enters the `WindowAssembler`; the injector decides per window (and per
/// fault kind, in the fixed order of [`SensorFaultKind::ALL`]) whether to
/// corrupt, using one Bernoulli draw per kind so the schedule depends only
/// on the seed and the number of windows seen.
#[derive(Debug, Clone)]
pub struct SensorFaultInjector {
    rates: SensorFaultRates,
    rng: Rng64,
    counts: FaultCounts,
    windows_seen: u64,
    windows_faulted: u64,
}

impl SensorFaultInjector {
    /// New injector with its own RNG stream.
    pub fn new(seed: u64, rates: SensorFaultRates) -> Self {
        SensorFaultInjector {
            rates,
            rng: Rng64::new(seed ^ 0x5e25_0af1),
            counts: FaultCounts::default(),
            windows_seen: 0,
            windows_faulted: 0,
        }
    }

    /// Per-kind injection counters so far.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Windows passed through the injector.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Windows that received at least one fault.
    pub fn windows_faulted(&self) -> u64 {
        self.windows_faulted
    }

    /// Corrupts one `[time, channels]` window in place and returns the
    /// kinds injected (empty when the window passed through clean).
    ///
    /// # Panics
    /// Panics if `window` is not a rank-2 tensor with at least one row and
    /// one column.
    pub fn corrupt_window(&mut self, window: &mut Tensor) -> Vec<SensorFaultKind> {
        assert!(
            window.rank() == 2 && window.rows() > 0 && window.cols() > 0,
            "fault injection needs a non-empty [time, channels] window"
        );
        self.windows_seen += 1;
        let (n, c) = (window.rows(), window.cols());
        let mut injected = Vec::new();
        for kind in SensorFaultKind::ALL {
            // One draw per kind regardless of outcome keeps the schedule a
            // pure function of (seed, windows_seen).
            if !self.rng.bernoulli(self.rates.rate(kind)) {
                continue;
            }
            match kind {
                SensorFaultKind::Dropout => {
                    let len = 1 + self.rng.below((n / 4).max(1));
                    let start = self.rng.below(n);
                    let end = (start + len).min(n);
                    for t in start..end {
                        for v in window.row_mut(t) {
                            *v = 0.0;
                        }
                    }
                }
                SensorFaultKind::Stuck => {
                    let ch = self.rng.below(c);
                    let start = self.rng.below(n);
                    let frozen = window.at(start, ch);
                    for t in start..n {
                        window.row_mut(t)[ch] = frozen;
                    }
                }
                SensorFaultKind::Spike => {
                    let burst = 1 + self.rng.below(4);
                    for _ in 0..burst {
                        let t = self.rng.below(n);
                        let ch = self.rng.below(c);
                        window.row_mut(t)[ch] = match self.rng.below(3) {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            _ => f32::NEG_INFINITY,
                        };
                    }
                }
                SensorFaultKind::Saturation => {
                    let ch = self.rng.below(c);
                    let rail = (0..n).map(|t| window.at(t, ch).abs()).fold(0.0f32, f32::max)
                        * 0.25
                        + 1e-3;
                    for t in 0..n {
                        let v = &mut window.row_mut(t)[ch];
                        *v = v.clamp(-rail, rail);
                    }
                }
            }
            self.counts.bump(kind);
            injected.push(kind);
        }
        if !injected.is_empty() {
            self.windows_faulted += 1;
        }
        injected
    }
}

// ---------------------------------------------------------------------------
// Link faults
// ---------------------------------------------------------------------------

/// A failed transfer attempt on a flaky link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkFault {
    /// The payload never arrived (connection reset, cell handover).
    Dropped,
    /// The transfer stalled past its timeout.
    TimedOut {
        /// Virtual seconds wasted before the timeout fired.
        after_seconds: f64,
    },
    /// Only a prefix of the payload arrived.
    Truncated {
        /// Bytes actually delivered before the cut.
        delivered_bytes: u64,
    },
}

impl std::fmt::Display for LinkFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkFault::Dropped => write!(f, "transfer dropped"),
            LinkFault::TimedOut { after_seconds } => {
                write!(f, "transfer timed out after {after_seconds:.2}s")
            }
            LinkFault::Truncated { delivered_bytes } => {
                write!(f, "transfer truncated at {delivered_bytes} bytes")
            }
        }
    }
}

/// Per-attempt probabilities of each link-fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultRates {
    /// Probability the attempt is dropped outright.
    pub drop: f64,
    /// Probability the attempt times out.
    pub timeout: f64,
    /// Probability the payload arrives truncated.
    pub truncate: f64,
}

impl LinkFaultRates {
    /// A perfectly reliable link.
    pub fn none() -> Self {
        LinkFaultRates { drop: 0.0, timeout: 0.0, truncate: 0.0 }
    }

    /// The same rate for every fault kind.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        LinkFaultRates { drop: rate, timeout: rate, truncate: rate }
    }
}

/// A [`LinkModel`] that fails some attempts, deterministically per seed.
#[derive(Debug, Clone)]
pub struct FlakyLink {
    /// The underlying (fault-free) link model.
    pub link: LinkModel,
    rates: LinkFaultRates,
    rng: Rng64,
    attempts: u64,
    faults: u64,
}

impl FlakyLink {
    /// New flaky link over `link` with its own RNG stream.
    pub fn new(link: LinkModel, seed: u64, rates: LinkFaultRates) -> Self {
        FlakyLink { link, rates, rng: Rng64::new(seed ^ 0x11aa_7a3d), attempts: 0, faults: 0 }
    }

    /// Attempts one transfer of `payload_bytes`. Returns the virtual
    /// seconds the attempt consumed and whether it succeeded; a failed
    /// attempt still costs link time (that is the point of timeouts).
    pub fn attempt(&mut self, payload_bytes: u64) -> (f64, Result<(), LinkFault>) {
        self.attempts += 1;
        let full = self.link.transfer_seconds(payload_bytes);
        // Fixed draw order — the schedule is a pure function of
        // (seed, attempts).
        let dropped = self.rng.bernoulli(self.rates.drop);
        let timed_out = self.rng.bernoulli(self.rates.timeout);
        let truncated = self.rng.bernoulli(self.rates.truncate);
        let frac = self.rng.uniform();
        if dropped {
            self.faults += 1;
            // A reset costs one round trip before the sender notices.
            return (self.link.rtt_seconds, Err(LinkFault::Dropped));
        }
        if timed_out {
            self.faults += 1;
            // The stall burns between 1× and 3× the nominal transfer time.
            let wasted = full * (1.0 + 2.0 * frac);
            return (wasted, Err(LinkFault::TimedOut { after_seconds: wasted }));
        }
        if truncated {
            self.faults += 1;
            let delivered = (payload_bytes as f64 * frac) as u64;
            let cost = self.link.transfer_seconds(delivered);
            return (cost, Err(LinkFault::Truncated { delivered_bytes: delivered }));
        }
        (full, Ok(()))
    }

    /// Attempts made so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Attempts that failed.
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

/// Maximum transfer attempts of a retried install.
pub const RETRY_MAX_ATTEMPTS: usize = 5;

/// Backoff before the second attempt, in seconds.
const RETRY_BASE_BACKOFF_S: f64 = 0.5;

/// Multiplier applied to the backoff after each failure.
const RETRY_BACKOFF_FACTOR: f64 = 2.0;

/// A retried install gives up once cumulative virtual time exceeds this
/// deadline, in seconds.
pub const RETRY_DEADLINE_S: f64 = 120.0;

/// Backoff to sleep before `attempt` (1-based; the first attempt has no
/// backoff): 0.5 s before the second, doubling after each failure to
/// 4 s before the fifth.
pub fn backoff_before(attempt: usize) -> f64 {
    if attempt <= 1 {
        0.0
    } else {
        RETRY_BASE_BACKOFF_S * RETRY_BACKOFF_FACTOR.powi(attempt as i32 - 2)
    }
}

// ---------------------------------------------------------------------------
// Process faults
// ---------------------------------------------------------------------------

/// Decides, per incremental update, whether the process is killed and at
/// which of the update's kill-points (0-based stage index).
#[derive(Debug, Clone)]
pub struct CrashPlan {
    rate: f64,
    rng: Rng64,
    updates: u64,
    kills: u64,
}

impl CrashPlan {
    /// New plan with its own RNG stream; `rate` is the per-update
    /// probability of a crash.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        CrashPlan { rate, rng: Rng64::new(seed ^ 0xc4a5_4a11), updates: 0, kills: 0 }
    }

    /// Draws the fate of the next update: `None` (runs to completion) or
    /// `Some(stage)` with `stage < stages` naming the kill-point.
    pub fn next_kill(&mut self, stages: usize) -> Option<usize> {
        assert!(stages > 0, "an update needs at least one kill-point");
        self.updates += 1;
        // Both draws always happen, keeping the schedule a pure function
        // of (seed, updates).
        let crash = self.rng.bernoulli(self.rate);
        let stage = self.rng.below(stages);
        if crash {
            self.kills += 1;
            Some(stage)
        } else {
            None
        }
    }

    /// Updates scheduled so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Updates that were killed.
    pub fn kills(&self) -> u64 {
        self.kills
    }
}

// ---------------------------------------------------------------------------
// Master plan
// ---------------------------------------------------------------------------

/// One seed → one complete fault schedule for all three pipeline stages.
///
/// The three injectors draw from independent forked streams, so e.g.
/// raising the sensor-fault rate never changes *which* updates crash.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Sensor-stream corruption (ahead of the window assembler).
    pub sensors: SensorFaultInjector,
    /// Cloud→edge link faults (during deployment).
    pub link: LinkFaultRates,
    /// Incremental-update kill schedule.
    pub crashes: CrashPlan,
    seed: u64,
}

impl FaultPlan {
    /// Builds a plan where every fault family fires at `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            sensors: SensorFaultInjector::new(seed, SensorFaultRates::uniform(rate)),
            link: LinkFaultRates::uniform(rate),
            crashes: CrashPlan::new(seed, rate),
            seed,
        }
    }

    /// The master seed this plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A flaky link over `link` driven by this plan's seed and rates.
    pub fn flaky_link(&self, link: LinkModel) -> FlakyLink {
        FlakyLink::new(link, self.seed, self.link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(seed: u64) -> Tensor {
        let mut rng = Rng64::new(seed);
        Tensor::randn([30, 4], 0.0, 1.0, &mut rng)
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        for seed in [0u64, 7, 991] {
            let mut a = SensorFaultInjector::new(seed, SensorFaultRates::uniform(0.5));
            let mut b = SensorFaultInjector::new(seed, SensorFaultRates::uniform(0.5));
            for w in 0..20 {
                let mut wa = window(w);
                let mut wb = window(w);
                assert_eq!(a.corrupt_window(&mut wa), b.corrupt_window(&mut wb));
                assert_eq!(wa.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                           wb.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            }
            assert_eq!(a.counts(), b.counts());
        }
    }

    #[test]
    fn zero_rates_never_corrupt() {
        let mut inj = SensorFaultInjector::new(3, SensorFaultRates::none());
        let clean = window(1);
        let mut w = clean.clone();
        for _ in 0..50 {
            assert!(inj.corrupt_window(&mut w).is_empty());
        }
        assert_eq!(w, clean);
        assert_eq!(inj.counts().total(), 0);
        assert_eq!(inj.windows_seen(), 50);
        assert_eq!(inj.windows_faulted(), 0);
    }

    #[test]
    fn spike_produces_non_finite_and_dropout_zeroes() {
        let mut inj = SensorFaultInjector::new(
            11,
            SensorFaultRates { dropout: 0.0, stuck: 0.0, spike: 1.0, saturation: 0.0 },
        );
        let mut w = window(2);
        let kinds = inj.corrupt_window(&mut w);
        assert_eq!(kinds, vec![SensorFaultKind::Spike]);
        assert!(!w.all_finite(), "spike must leave a non-finite cell");

        let mut inj = SensorFaultInjector::new(
            11,
            SensorFaultRates { dropout: 1.0, stuck: 0.0, spike: 0.0, saturation: 0.0 },
        );
        let mut w = window(3);
        inj.corrupt_window(&mut w);
        let zero_rows = (0..w.rows()).filter(|&t| w.row(t).iter().all(|&v| v == 0.0)).count();
        assert!(zero_rows >= 1, "dropout must zero at least one full row");
        assert!(w.all_finite());
    }

    #[test]
    fn saturation_reduces_dynamic_range() {
        let mut inj = SensorFaultInjector::new(
            5,
            SensorFaultRates { dropout: 0.0, stuck: 0.0, spike: 0.0, saturation: 1.0 },
        );
        let clean = window(4);
        let mut w = clean.clone();
        inj.corrupt_window(&mut w);
        // Some channel's max |value| must have shrunk.
        let max_abs = |t: &Tensor, ch: usize| {
            (0..t.rows()).map(|r| t.at(r, ch).abs()).fold(0.0f32, f32::max)
        };
        assert!((0..clean.cols()).any(|ch| max_abs(&w, ch) < max_abs(&clean, ch)));
    }

    #[test]
    fn flaky_link_schedule_is_deterministic() {
        let mk = || FlakyLink::new(LinkModel::weak_cellular(), 17, LinkFaultRates::uniform(0.4));
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..32 {
            let ra = a.attempt(10_000);
            let rb = b.attempt(10_000);
            assert_eq!(ra.0.to_bits(), rb.0.to_bits());
            assert_eq!(ra.1, rb.1);
        }
        assert_eq!(a.faults(), b.faults());
        assert!(a.faults() > 0, "40% fault rate should fail sometimes in 32 attempts");
    }

    #[test]
    fn reliable_link_matches_link_model() {
        let link = LinkModel::wifi();
        let mut flaky = FlakyLink::new(link, 1, LinkFaultRates::none());
        let (cost, ok) = flaky.attempt(1_000_000);
        assert!(ok.is_ok());
        assert!((cost - link.transfer_seconds(1_000_000)).abs() < 1e-12);
    }

    #[test]
    fn retry_policy_backoff_grows_exponentially() {
        assert_eq!(backoff_before(1), 0.0);
        assert!((backoff_before(2) - 0.5).abs() < 1e-12);
        assert!((backoff_before(3) - 1.0).abs() < 1e-12);
        assert!((backoff_before(5) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn crash_plan_is_deterministic_and_counts() {
        let mk = || CrashPlan::new(23, 0.5);
        let (mut a, mut b) = (mk(), mk());
        let fates_a: Vec<_> = (0..40).map(|_| a.next_kill(2)).collect();
        let fates_b: Vec<_> = (0..40).map(|_| b.next_kill(2)).collect();
        assert_eq!(fates_a, fates_b);
        assert_eq!(a.kills(), fates_a.iter().filter(|f| f.is_some()).count() as u64);
        assert!(a.kills() > 0 && a.kills() < 40);
        assert!(fates_a.iter().flatten().all(|&s| s < 2));
    }

    #[test]
    fn fault_plan_families_are_independent() {
        // Changing the sensor rate must not change the crash schedule.
        let mut lo = FaultPlan::uniform(9, 0.2);
        let mut hi = FaultPlan::uniform(9, 0.2);
        let mut w = window(5);
        hi.sensors.corrupt_window(&mut w); // consume sensor stream only on one plan
        let a: Vec<_> = (0..16).map(|_| lo.crashes.next_kill(2)).collect();
        let b: Vec<_> = (0..16).map(|_| hi.crashes.next_kill(2)).collect();
        assert_eq!(a, b);
    }
}
