//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (weight initialisation,
//! synthetic sensor simulation, pair sampling, exemplar selection ties,
//! experiment repetition rounds) draws from [`Rng64`], a xoshiro256++
//! generator seeded through SplitMix64. A single `u64` therefore pins the
//! entire experiment pipeline, which is what lets the benchmark harness
//! report mean ± std over five *independent but reproducible* rounds exactly
//! as the paper does.

use serde::{Deserialize, Serialize};

/// A seedable, cloneable xoshiro256++ pseudo-random generator.
///
/// Not cryptographically secure; statistical quality is more than sufficient
/// for simulation and ML initialisation workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rng64 {
    state: [u64; 4],
    /// Cached second output of the last Box–Muller draw.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { state, spare_normal: None }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform_f32(&mut self) -> f32 {
        self.uniform() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform_f32()
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is undefined");
        let bound = bound as u64;
        // Rejection-free fast path is fine here: bias for bound << 2^64 is
        // negligible for simulation purposes, but we keep the standard
        // rejection loop for exactness.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi as usize;
            }
        }
    }

    /// Standard normal sample (Box–Muller, with the spare value cached).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let (u1, u2) = self.box_muller_uniforms();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// The two uniforms one Box–Muller pair consumes; `u1` must be
    /// strictly positive for the logarithm, so it is redrawn until it is.
    #[inline]
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let mut u1 = self.uniform();
        while u1 <= f64::EPSILON {
            u1 = self.uniform();
        }
        (u1, self.uniform())
    }

    /// Leaves the generator exactly where `n` calls of [`Rng64::normal`]
    /// would: the same raw draws, `u1` redraws included, without the
    /// logarithms and trigonometry. Only a half-used final pair is
    /// computed, because its spare is what the next `normal` returns.
    ///
    /// A network built to receive a checkpoint skips its initialisation
    /// draws this way, so every later draw from the stream is unchanged.
    pub fn skip_normals(&mut self, n: usize) {
        let mut n = n;
        if n > 0 && self.spare_normal.take().is_some() {
            n -= 1;
        }
        for _ in 0..n / 2 {
            self.box_muller_uniforms();
        }
        if n % 2 == 1 {
            self.normal();
        }
    }

    /// Normal sample with the given mean and standard deviation, as `f32`.
    #[inline]
    pub fn normal_f32(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal() as f32
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (uniformly, without
    /// replacement) using a partial Fisher–Yates over an index vector.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Derives an independent child generator; used to give each parallel
    /// experiment round its own stream.
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng64::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng64::new(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng64::new(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn skip_normals_leaves_the_stream_where_drawing_would() {
        // Starting with and without a spare, across odd and even counts.
        let cases = [(1, 0, 0), (2, 0, 1), (3, 0, 2), (4, 1, 0), (5, 1, 1), (6, 1, 7), (7, 0, 1001)];
        for (seed, pre, n) in cases {
            let mut drawn = Rng64::new(seed);
            for _ in 0..pre {
                drawn.normal();
            }
            let mut skipped = drawn.clone();
            for _ in 0..n {
                drawn.normal();
            }
            skipped.skip_normals(n);
            assert_eq!(skipped, drawn, "seed {seed}, {pre} drawn before, skip {n}");
            assert_eq!(skipped.normal().to_bits(), drawn.normal().to_bits());
            assert_eq!(skipped.next_u64(), drawn.next_u64());
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng64::new(9);
        let idx = rng.sample_indices(50, 20);
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(idx.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_full_is_permutation() {
        let mut rng = Rng64::new(13);
        let mut idx = rng.sample_indices(10, 10);
        idx.sort_unstable();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = Rng64::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng64::new(23);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng64::new(29);
        assert!((0..100).all(|_| !rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }
}
