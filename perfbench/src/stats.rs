//! Order statistics shared by the runner and `compare`.

use std::ops::Range;

/// Nearest-rank percentile of an unsorted sample, `p` in `(0, 100]`.
/// The rank is `ceil(p/100 · n)`, clamped to `1..=n`.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median by nearest rank (the lower middle value of an even sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One-based nearest rank of percentile `p` in a sample of `n`. The
/// epsilon keeps exact products such as 99.9% of 10 000 from rounding up
/// a rank through binary representation error.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest of p99.9/p99/p95/p90/p75 that leaves at least ten samples
/// strictly beyond its nearest rank in a sample of `n`, or `None` when
/// the sample is too small for any of them.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| n >= 10 + rank(n, p))
}

/// Most stretches a run is cut into for [`stretch_median`].
const STRETCHES: usize = 10;

/// Cuts `n` consecutive samples into up to [`STRETCHES`] equal stretches
/// of at least `min_len` samples each; a sample shorter than `min_len` is
/// one stretch.
fn stretches(n: usize, min_len: usize) -> impl Iterator<Item = Range<usize>> {
    let k = (n / min_len.max(1)).clamp(1, STRETCHES);
    (0..k).map(move |i| i * n / k..(i + 1) * n / k)
}

/// Median over the [`stretches`] of a run of `stat` on each stretch. A
/// burst of host noise lasting less than half the run moves a few
/// stretches and not the median, where it would move a statistic of the
/// whole run. When `n` is 0, `stat` sees one empty range.
pub fn stretch_median(n: usize, min_len: usize, stat: impl Fn(Range<usize>) -> f64) -> f64 {
    let per_stretch: Vec<f64> = stretches(n, min_len).map(stat).collect();
    median(&per_stretch)
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here agree
/// with the acceptance check. A single value is its own quartiles.
///
/// # Panics
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Unsorted input and an even sample take the lower middle value.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(39), None);
        // n = 40: p75 has rank 30, ten beyond.
        assert_eq!(supported_tail(40), Some(75.0));
        // n = 100: p90 has rank 90, ten beyond; p95 only five.
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn stretches_cover_the_run_in_order() {
        let cut = |n, min_len| stretches(n, min_len).collect::<Vec<_>>();
        assert_eq!(cut(5, 100), vec![0..5]);
        assert_eq!(cut(0, 100), vec![0..0]);
        assert_eq!(cut(250, 100), vec![0..125, 125..250]);
        let many = cut(1003, 1);
        assert_eq!(many.len(), STRETCHES);
        assert_eq!((many[0].start, many[9].end), (0, 1003));
        assert!(many.windows(2).all(|w| w[0].end == w[1].start));
        // One slow stretch of ten does not move the median.
        let mut v = vec![1.0; 1000];
        v[..100].iter_mut().for_each(|x| *x = 9.0);
        assert_eq!(
            stretch_median(v.len(), 100, |r| percentile(&v[r], 95.0)),
            1.0
        );
        assert_eq!(percentile(&v, 95.0), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
