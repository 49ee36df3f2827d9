//! Host-noise witness: a calibration loop that runs no repository code.
//!
//! A fixed scalar loop and a memory-streaming loop are timed before and
//! after each workload. On a quiet host both take the same time; when
//! another tenant steals the core or the memory bus in between, the two
//! readings drift apart and `compare` flags the run as noisy.

use std::hint::black_box;
use std::time::Instant;

/// Words streamed by the memory loop: 32 MiB, larger than any last-level
/// cache this runs on.
const STREAM_WORDS: usize = 8 << 20;

/// Iterations of the dependent scalar loop.
const SCALAR_ITERS: u64 = 20_000_000;

/// Repetitions whose fastest is the reading: interference only ever
/// slows a repetition down.
const REPS: usize = 5;

/// Seconds of the fastest of `REPS` scalar-plus-streaming passes.
pub fn reading() -> f64 {
    let buffer: Vec<u32> = (0..STREAM_WORDS as u32).collect();
    (0..REPS)
        .map(|_| {
            let started = Instant::now();
            black_box(scalar_loop(black_box(SCALAR_ITERS)));
            black_box(stream_sum(black_box(&buffer)));
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Relative change between two readings, `|after − before| / before`.
pub fn drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before
}

/// A xorshift chain feeding a float accumulator: latency-bound and
/// impossible to vectorise or fold away.
fn scalar_loop(iters: u64) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999_999 + (x >> 40) as f64;
    }
    acc
}

/// Two passes over the buffer, bandwidth-bound.
fn stream_sum(buffer: &[u32]) -> u64 {
    (0..2)
        .map(|_| buffer.iter().map(|&v| u64::from(v)).sum::<u64>())
        .sum()
}
