//! The 80 statistical features of §6.1.1.
//!
//! The paper: "We extract 80 statistical features such as the average, the
//! variance for each feature, the average jerk, and the variance of the
//! jerk for each three-dimensional feature sensor." The concrete layout
//! implemented here (and documented in DESIGN.md §5):
//!
//! | slot      | content                                                     |
//! |-----------|-------------------------------------------------------------|
//! | 0..44     | per-channel mean and variance (22 channels × 2)             |
//! | 44..74    | per-triad (5 triads × 6): magnitude mean, magnitude        |
//! |           | variance, jerk mean, jerk variance, energy, zero-crossing  |
//! |           | rate of the mean-removed magnitude                          |
//! | 74..80    | window-global: total energy, mean |derivative|, min, max,   |
//! |           | range, std of per-channel energies                          |
//!
//! Extraction is a single pass over the window per statistic — linear time,
//! matching the paper's edge-latency argument. Each pass reads the window
//! one sample row at a time as a slice, so the per-element work is the
//! arithmetic alone, with no shape lookup or rank check per element.

use crate::sensors::{Triad, CHANNELS};
use crate::simulate::RawDataset;
use pilote_tensor::{parallel, Tensor, TensorError};

/// Dimensionality of the feature vector (the embedding network's input).
pub const FEATURE_DIM: usize = 80;

/// Offset of the per-channel block.
const CHANNEL_BLOCK: usize = 0;
/// Offset of the per-triad block.
const TRIAD_BLOCK: usize = 44;
/// Offset of the global block.
const GLOBAL_BLOCK: usize = 74;

/// Extracts the 80-dimensional feature vector from a `[time, 22]` window.
pub fn extract(window: &Tensor) -> Result<Tensor, TensorError> {
    if window.rank() != 2 || window.cols() != CHANNELS {
        return Err(TensorError::ShapeMismatch {
            left: window.shape().dims().to_vec(),
            right: vec![CHANNELS],
            op: "features::extract",
        });
    }
    let n = window.rows();
    if n < 2 {
        return Err(TensorError::Empty { op: "features::extract (need ≥ 2 samples)" });
    }
    let nf = n as f64;
    let mut out = vec![0.0f32; FEATURE_DIM];
    // The samples, one `CHANNELS`-wide row slice each, in time order.
    let samples = || window.as_slice().chunks_exact(CHANNELS);

    // ---- per-channel mean/variance -------------------------------------
    let mut ch_mean = [0.0f64; CHANNELS];
    let mut ch_var = [0.0f64; CHANNELS];
    for row in samples() {
        for (m, &x) in ch_mean.iter_mut().zip(row) {
            *m += x as f64;
        }
    }
    for m in &mut ch_mean {
        *m /= nf;
    }
    for row in samples() {
        for ((v, &x), &mean) in ch_var.iter_mut().zip(row).zip(&ch_mean) {
            let d = x as f64 - mean;
            *v += d * d;
        }
    }
    for v in &mut ch_var {
        *v /= nf;
    }
    for ch in 0..CHANNELS {
        out[CHANNEL_BLOCK + 2 * ch] = ch_mean[ch] as f32;
        out[CHANNEL_BLOCK + 2 * ch + 1] = ch_var[ch] as f32;
    }

    // ---- per-triad statistics -------------------------------------------
    for (ti, triad) in Triad::ALL.iter().enumerate() {
        let [cx, cy, cz] = triad.channels();
        let mut mags = Vec::with_capacity(n);
        for row in samples() {
            let (x, y, z) = (row[cx], row[cy], row[cz]);
            mags.push((x * x + y * y + z * z).sqrt());
        }
        let mag_mean = mags.iter().map(|&v| v as f64).sum::<f64>() / nf;
        let mag_var =
            mags.iter().map(|&v| (v as f64 - mag_mean).powi(2)).sum::<f64>() / nf;

        // Jerk: per-sample derivative magnitude of the 3-D signal.
        let mut jerks = Vec::with_capacity(n - 1);
        for (prev, row) in samples().zip(samples().skip(1)) {
            let dx = row[cx] - prev[cx];
            let dy = row[cy] - prev[cy];
            let dz = row[cz] - prev[cz];
            jerks.push((dx * dx + dy * dy + dz * dz).sqrt());
        }
        let jn = jerks.len() as f64;
        let jerk_mean = jerks.iter().map(|&v| v as f64).sum::<f64>() / jn;
        let jerk_var =
            jerks.iter().map(|&v| (v as f64 - jerk_mean).powi(2)).sum::<f64>() / jn;

        // Mean squared magnitude (signal energy).
        let energy = mags.iter().map(|&v| (v as f64).powi(2)).sum::<f64>() / nf;

        // Zero-crossing rate of the mean-removed magnitude — a cheap
        // dominant-frequency proxy (≈ 2·f/rate for a sinusoid).
        let mut crossings = 0usize;
        let mut prev = mags[0] as f64 - mag_mean;
        for &m in &mags[1..] {
            let cur = m as f64 - mag_mean;
            if prev.signum() != cur.signum() && cur != 0.0 {
                crossings += 1;
            }
            prev = cur;
        }
        let zcr = crossings as f64 / (n - 1) as f64;

        let base = TRIAD_BLOCK + 6 * ti;
        out[base] = mag_mean as f32;
        out[base + 1] = mag_var as f32;
        out[base + 2] = jerk_mean as f32;
        out[base + 3] = jerk_var as f32;
        out[base + 4] = energy as f32;
        out[base + 5] = zcr as f32;
    }

    // ---- window-global statistics ----------------------------------------
    let mut total_energy = 0.0f64;
    let mut mean_abs_deriv = 0.0f64;
    let mut gmin = f64::INFINITY;
    let mut gmax = f64::NEG_INFINITY;
    let mut ch_energy = [0.0f64; CHANNELS];
    let mut prev: Option<&[f32]> = None;
    for row in samples() {
        for (ch, (&x, e)) in row.iter().zip(&mut ch_energy).enumerate() {
            let v = x as f64;
            total_energy += v * v;
            *e += v * v;
            gmin = gmin.min(v);
            gmax = gmax.max(v);
            if let Some(prev) = prev {
                mean_abs_deriv += (v - prev[ch] as f64).abs();
            }
        }
        prev = Some(row);
    }
    total_energy /= nf * CHANNELS as f64;
    mean_abs_deriv /= (n - 1) as f64 * CHANNELS as f64;
    for e in &mut ch_energy {
        *e /= nf;
    }
    let e_mean = ch_energy.iter().sum::<f64>() / CHANNELS as f64;
    let e_std = (ch_energy.iter().map(|&e| (e - e_mean).powi(2)).sum::<f64>()
        / CHANNELS as f64)
        .sqrt();

    out[GLOBAL_BLOCK] = total_energy as f32;
    out[GLOBAL_BLOCK + 1] = mean_abs_deriv as f32;
    out[GLOBAL_BLOCK + 2] = gmin as f32;
    out[GLOBAL_BLOCK + 3] = gmax as f32;
    out[GLOBAL_BLOCK + 4] = (gmax - gmin) as f32;
    out[GLOBAL_BLOCK + 5] = e_std as f32;

    Tensor::from_vec(out, [FEATURE_DIM])
}

/// Extracts features from a slice of `[time, 22]` windows in parallel,
/// producing an `[n, 80]` feature matrix.
///
/// This is the batched feature front-end of the serving path: both offline
/// dataset preparation ([`extract_batch`]) and the streaming assembler's
/// block path (`WindowAssembler::push_block`) funnel their windows through
/// it, so feature extraction is batch-shaped end to end before the
/// GEMM-shaped embedding/classification stages take over.
///
/// Windows are processed in contiguous bands via the `pilote-tensor`
/// parallel layer (`docs/THREADING.md`); each window's feature vector is
/// computed by exactly one thread with the serial [`extract`] kernel, so
/// the matrix is bitwise-identical at any thread count. The first error
/// encountered (in window order) is returned.
pub fn extract_windows(windows: &[Tensor]) -> Result<Tensor, TensorError> {
    let n = windows.len();
    let work: usize = windows.iter().map(Tensor::len).sum();
    let threads = parallel::effective_threads(work);
    let bands = parallel::map_bands(n, threads, |range| {
        let mut data = Vec::with_capacity(range.len() * FEATURE_DIM);
        for w in &windows[range] {
            data.extend_from_slice(extract(w)?.as_slice());
        }
        Ok::<Vec<f32>, TensorError>(data)
    });
    let mut data = Vec::with_capacity(n * FEATURE_DIM);
    for band in bands {
        data.extend_from_slice(&band?);
    }
    Tensor::from_vec(data, [n, FEATURE_DIM])
}

/// Extracts features from every window of a raw dataset in parallel,
/// producing an `[n, 80]` feature matrix. See [`extract_windows`].
pub fn extract_batch(raw: &RawDataset) -> Result<Tensor, TensorError> {
    extract_windows(&raw.windows)
}

/// Human-readable name of feature `index` (for reports and debugging).
pub fn feature_name(index: usize) -> String {
    assert!(index < FEATURE_DIM, "feature index {index} out of range");
    if index < TRIAD_BLOCK {
        let ch = index / 2;
        let stat = if index.is_multiple_of(2) { "mean" } else { "var" };
        format!("{}_{stat}", crate::sensors::channel_name(ch))
    } else if index < GLOBAL_BLOCK {
        let ti = (index - TRIAD_BLOCK) / 6;
        let stat = ["mag_mean", "mag_var", "jerk_mean", "jerk_var", "energy", "zcr"]
            [(index - TRIAD_BLOCK) % 6];
        format!("{}_{stat}", Triad::ALL[ti].name())
    } else {
        ["total_energy", "mean_abs_deriv", "global_min", "global_max", "global_range", "energy_std"]
            [index - GLOBAL_BLOCK]
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::simulate::Simulator;
    use pilote_tensor::Rng64;

    #[test]
    fn feature_vector_has_contract_dimension() {
        let mut sim = Simulator::with_seed(1);
        let f = extract(&sim.window(Activity::Walk)).unwrap();
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f.all_finite());
    }

    #[test]
    fn rejects_wrong_channel_count() {
        assert!(extract(&Tensor::zeros([120, 10])).is_err());
        assert!(extract(&Tensor::zeros([1, CHANNELS])).is_err());
    }

    #[test]
    fn constant_window_features() {
        let w = Tensor::full([120, CHANNELS], 2.0);
        let f = extract(&w).unwrap();
        // channel 0 mean = 2, var = 0
        assert!((f.as_slice()[0] - 2.0).abs() < 1e-5);
        assert!(f.as_slice()[1].abs() < 1e-7);
        // jerk of a constant signal is zero
        assert!(f.as_slice()[TRIAD_BLOCK + 2].abs() < 1e-7);
        // min = max = 2 → range 0
        assert!((f.as_slice()[GLOBAL_BLOCK + 2] - 2.0).abs() < 1e-6);
        assert!(f.as_slice()[GLOBAL_BLOCK + 4].abs() < 1e-6);
    }

    #[test]
    fn zcr_tracks_frequency() {
        // Build a window whose accelerometer x is a pure sinusoid.
        let mut data = vec![0.0f32; 120 * CHANNELS];
        for t in 0..120 {
            data[t * CHANNELS] = (std::f32::consts::TAU * 5.0 * t as f32 / 120.0).sin();
        }
        let w = Tensor::from_vec(data, [120, CHANNELS]).unwrap();
        let f = extract(&w).unwrap();
        // Magnitude of the accelerometer triad = |sin|; mean-removed |sin|
        // crosses zero at 4× the base frequency: ≈ 20 crossings / 119.
        let zcr = f.as_slice()[TRIAD_BLOCK + 5];
        assert!(zcr > 0.1 && zcr < 0.25, "zcr {zcr}");
    }

    #[test]
    fn run_has_higher_jerk_than_still() {
        let mut sim = Simulator::with_seed(2);
        let acc_jerk = TRIAD_BLOCK + 2; // accelerometer jerk mean
        let mean_of = |sim: &mut Simulator, a: Activity| {
            (0..10)
                .map(|_| extract(&sim.window(a)).unwrap().as_slice()[acc_jerk])
                .sum::<f32>()
                / 10.0
        };
        let run = mean_of(&mut sim, Activity::Run);
        let still = mean_of(&mut sim, Activity::Still);
        assert!(run > 3.0 * still, "run {run} vs still {still}");
    }

    #[test]
    fn batch_extraction_matches_single() {
        let mut sim = Simulator::with_seed(3);
        let raw = sim.raw_dataset(&[(Activity::Walk, 4), (Activity::Drive, 3)]);
        let batch = extract_batch(&raw).unwrap();
        assert_eq!(batch.shape().dims(), &[7, FEATURE_DIM]);
        for (i, w) in raw.windows.iter().enumerate() {
            let single = extract(w).unwrap();
            let row = Tensor::vector(batch.row(i));
            assert!(row.max_abs_diff(&single).unwrap() < 1e-7, "row {i}");
        }
    }

    #[test]
    fn feature_names_are_unique_and_total() {
        let names: Vec<String> = (0..FEATURE_DIM).map(feature_name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), FEATURE_DIM);
        assert_eq!(names[0], "accelerometer_x_mean");
        assert_eq!(names[44], "accelerometer_mag_mean");
        assert_eq!(names[79], "energy_std");
    }

    #[test]
    fn features_finite_for_extreme_inputs() {
        let mut rng = Rng64::new(4);
        let w = Tensor::randn([120, CHANNELS], 0.0, 1e4, &mut rng);
        let f = extract(&w).unwrap();
        assert!(f.all_finite());
    }
}
