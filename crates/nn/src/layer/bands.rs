//! Banded passes for the element-wise layers, after the rules for new
//! kernels in `docs/THREADING.md`: an element-wise output is written in
//! row bands and a per-column reduction in column bands, so each output
//! element and each column's f64 chain is computed whole by one thread,
//! whatever the thread count. Every pass is gated on
//! [`parallel::effective_threads`] of its element count.

use pilote_tensor::parallel;
use std::ops::Range;

/// Calls `f(i, row)` for each row `i` of the `[m, d]` row-major buffer
/// `out`, in row bands.
pub(crate) fn rows(out: &mut [f32], d: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if out.is_empty() {
        return;
    }
    let threads = parallel::effective_threads(out.len());
    parallel::for_each_band(out, d, threads, |i0, band| {
        for (r, row) in band.chunks_exact_mut(d).enumerate() {
            f(i0 + r, row);
        }
    });
}

/// [`rows`] over two `[m, d]` outputs written together: `f(i, a_row, b_row)`.
pub(crate) fn rows2<A: Send, B: Send>(
    a: &mut [A],
    b: &mut [B],
    d: usize,
    f: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    assert_eq!(a.len(), b.len(), "paired outputs differ in length");
    if a.is_empty() {
        return;
    }
    assert!(a.len().is_multiple_of(d), "output not a whole number of rows");
    let band = |i0: usize, a: &mut [A], b: &mut [B]| {
        for (r, (ar, br)) in a.chunks_exact_mut(d).zip(b.chunks_exact_mut(d)).enumerate() {
            f(i0 + r, ar, br);
        }
    };
    let threads = parallel::effective_threads(a.len());
    if threads <= 1 {
        return band(0, a, b);
    }
    // One job per row band, holding that band's rows of both outputs.
    let ranges = parallel::band_ranges(a.len() / d, threads);
    let mut jobs = Vec::with_capacity(ranges.len());
    let (mut a, mut b) = (a, b);
    for range in ranges {
        let (ha, ta) = std::mem::take(&mut a).split_at_mut(range.len() * d);
        let (hb, tb) = std::mem::take(&mut b).split_at_mut(range.len() * d);
        jobs.push((range.start, ha, hb));
        (a, b) = (ta, tb);
    }
    let bands = jobs.len();
    parallel::for_each_band(&mut jobs, 1, bands, |_, jobs| {
        for (i0, a, b) in jobs {
            band(*i0, a, b);
        }
    });
}

/// Per-column accumulators over `m` rows of width `d`, one `T` per column
/// starting at `zero`: `f(i, cols, acc)` folds row `i`'s columns `cols`
/// into `acc[..cols.len()]`, called with `i` ascending, so each column
/// keeps one row-ascending chain. Columns go in bands.
pub(crate) fn column_sums<T: Copy + Send>(
    m: usize,
    d: usize,
    zero: T,
    f: impl Fn(usize, Range<usize>, &mut [T]) + Sync,
) -> Vec<T> {
    let mut sums = vec![zero; d];
    let threads = parallel::effective_threads(m * d);
    parallel::for_each_band(&mut sums, 1, threads, |j0, band| {
        for i in 0..m {
            f(i, j0..j0 + band.len(), band);
        }
    });
    sums
}
