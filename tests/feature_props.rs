//! `features::extract` reads its window through row slices and computes
//! what it computed when it read each element through `Tensor::at`, bit
//! for bit.
//!
//! `reference_extract` below is the body `extract` had before, verbatim:
//! the same statistics with every accumulator summed in the same order.
//! The inputs are simulated windows of every activity and windows holding
//! ±0, subnormals, ±1e30, NaN and ±∞, at n ∈ {2, 3, 119, 120, 121}
//! samples, so the one-step jerk and derivative loops run at their
//! shortest and around the 120-sample window length.
//!
//! A NaN must meet a NaN, but its payload is not compared: where two NaNs
//! meet (an input NaN and the default NaN of ∞ − ∞), which payload
//! survives is picked per instruction by the compiler, which treats `fadd`
//! and `fmul` as commutative (see `layer_props.rs`).

use pilote::har_data::features::{extract, FEATURE_DIM};
use pilote::har_data::sensors::{Triad, CHANNELS};
use pilote::prelude::{Activity, Rng64, Simulator, Tensor};
use pilote::tensor::TensorError;

const CHANNEL_BLOCK: usize = 0;
const TRIAD_BLOCK: usize = 44;
const GLOBAL_BLOCK: usize = 74;

const HEIGHTS: [usize; 5] = [2, 3, 119, 120, 121];

/// Every special value the inputs mix in.
const SPECIALS: [f32; 10] = [
    0.0,
    -0.0,
    f32::MIN_POSITIVE / 2.0,
    -f32::MIN_POSITIVE / 8.0,
    1e30,
    -1e30,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
];

/// The pre-change `features::extract`, verbatim.
fn reference_extract(window: &Tensor) -> Result<Tensor, TensorError> {
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

    // ---- per-channel mean/variance -------------------------------------
    let mut ch_mean = [0.0f64; CHANNELS];
    let mut ch_var = [0.0f64; CHANNELS];
    for t in 0..n {
        for (ch, m) in ch_mean.iter_mut().enumerate() {
            *m += window.at(t, ch) as f64;
        }
    }
    for m in &mut ch_mean {
        *m /= nf;
    }
    for t in 0..n {
        for (ch, v) in ch_var.iter_mut().enumerate() {
            let d = window.at(t, ch) as f64 - ch_mean[ch];
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
        for t in 0..n {
            let (x, y, z) = (window.at(t, cx), window.at(t, cy), window.at(t, cz));
            mags.push((x * x + y * y + z * z).sqrt());
        }
        let mag_mean = mags.iter().map(|&v| v as f64).sum::<f64>() / nf;
        let mag_var =
            mags.iter().map(|&v| (v as f64 - mag_mean).powi(2)).sum::<f64>() / nf;

        // Jerk: per-sample derivative magnitude of the 3-D signal.
        let mut jerks = Vec::with_capacity(n - 1);
        for t in 1..n {
            let dx = window.at(t, cx) - window.at(t - 1, cx);
            let dy = window.at(t, cy) - window.at(t - 1, cy);
            let dz = window.at(t, cz) - window.at(t - 1, cz);
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
    for t in 0..n {
        #[allow(clippy::needless_range_loop)] // `ch` also indexes the window
        for ch in 0..CHANNELS {
            let v = window.at(t, ch) as f64;
            total_energy += v * v;
            ch_energy[ch] += v * v;
            gmin = gmin.min(v);
            gmax = gmax.max(v);
            if t > 0 {
                mean_abs_deriv += (v - window.at(t - 1, ch) as f64).abs();
            }
        }
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

/// `[n, CHANNELS]`: the first `n` samples of a simulated session.
fn simulated(sim: &mut Simulator, activity: Activity, n: usize) -> Tensor {
    sim.session(activity, 2).slice_rows(0, n).expect("a session holds 240 samples")
}

/// Asserts `extract` and `reference_extract` agree bit for bit on `window`.
fn assert_same(window: &Tensor, what: &str) {
    let got = extract(window).expect("extract");
    let want = reference_extract(window).expect("reference");
    assert_eq!(got.len(), FEATURE_DIM);
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let (gb, wb) = (g.to_bits(), w.to_bits());
        let same = gb == wb || (g.is_nan() && w.is_nan());
        assert!(same, "{what}: feature {i} is {g} ({gb:#x}), the reference {w} ({wb:#x})");
    }
}

#[test]
fn extract_equals_the_element_accessor_body_on_simulated_windows() {
    let mut sim = Simulator::with_seed(2269);
    for activity in Activity::ALL {
        for n in HEIGHTS {
            for rep in 0..4 {
                let window = simulated(&mut sim, activity, n);
                assert_same(&window, &format!("{activity:?}, n = {n}, rep {rep}"));
            }
        }
    }
}

#[test]
fn extract_equals_the_element_accessor_body_on_special_values() {
    let mut sim = Simulator::with_seed(7);
    let mut rng = Rng64::new(11);
    for n in HEIGHTS {
        // Every element a special value, cycling through the list.
        let cycled: Vec<f32> = (0..n * CHANNELS).map(|i| SPECIALS[i % SPECIALS.len()]).collect();
        let cycled = Tensor::from_vec(cycled, [n, CHANNELS]).expect("shape");
        assert_same(&cycled, &format!("cycled specials, n = {n}"));

        // One special value filling a whole window.
        for &v in &SPECIALS {
            assert_same(&Tensor::full([n, CHANNELS], v), &format!("all {v:e}, n = {n}"));
        }

        // A simulated window with each special value at a few random places.
        for (k, &v) in SPECIALS.iter().enumerate() {
            let mut window = simulated(&mut sim, Activity::ALL[k % Activity::ALL.len()], n);
            let data = window.as_mut_slice();
            for _ in 0..3 {
                let at = rng.below(data.len());
                data[at] = v;
            }
            assert_same(&window, &format!("simulated with {v:e}, n = {n}"));
        }

        // Finite extremes only: ±1e30 overflows the f32 magnitudes to ∞.
        let mut window = simulated(&mut sim, Activity::Run, n);
        for (i, x) in window.as_mut_slice().iter_mut().enumerate() {
            match i % 5 {
                0 => *x = 1e30,
                1 => *x = -1e30,
                2 => *x = f32::MIN_POSITIVE / 4.0,
                _ => {}
            }
        }
        assert_same(&window, &format!("finite extremes, n = {n}"));
    }
}
