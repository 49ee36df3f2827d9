//! Sensor-window simulation.
//!
//! Each generated window simulates one second of smartphone sensor data for
//! one activity performed by one randomly drawn "user". User-level
//! variation (cadence, amplitude, travel speed, phone orientation, sensor
//! bias) is the dominant source of intra-class spread, exactly as in a real
//! data-collection campaign with many volunteers.

use crate::activity::Activity;
use crate::sensors::{Scalar, Triad, CHANNELS, SAMPLE_RATE_HZ, WINDOW_LEN};
use pilote_tensor::{Rng64, Tensor};

/// Standard gravity (m/s²).
pub const GRAVITY: f32 = 9.81;

/// Maximum phone-orientation deviation from the canonical pose, in
/// radians. Larger values make classes harder to separate.
const ORIENTATION_JITTER: f32 = 0.7;

/// A 3×3 rotation matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation([[f32; 3]; 3]);

impl Rotation {
    /// Identity rotation.
    pub fn identity() -> Self {
        Rotation([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Rotation of `angle` radians about the (normalised) `axis`
    /// (Rodrigues' formula).
    pub fn axis_angle(axis: [f32; 3], angle: f32) -> Self {
        let norm = (axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2]).sqrt();
        if norm < 1e-9 {
            return Rotation::identity();
        }
        let (x, y, z) = (axis[0] / norm, axis[1] / norm, axis[2] / norm);
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        Rotation([
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ])
    }

    /// Random rotation with angle uniform in `[0, max_angle]`.
    pub fn random(max_angle: f32, rng: &mut Rng64) -> Self {
        let axis = [
            rng.normal_f32(0.0, 1.0),
            rng.normal_f32(0.0, 1.0),
            rng.normal_f32(0.0, 1.0),
        ];
        Rotation::axis_angle(axis, rng.uniform_f32() * max_angle)
    }

    /// Composition `self ∘ other` (apply `other` first, then `self`).
    pub fn compose(&self, other: &Rotation) -> Rotation {
        let mut out = [[0.0f32; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.0[i][k] * other.0[k][j]).sum();
            }
        }
        Rotation(out)
    }

    /// Applies the rotation to a vector.
    #[inline]
    pub fn apply(&self, v: [f32; 3]) -> [f32; 3] {
        let m = &self.0;
        [
            m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
        ]
    }
}

/// How the phone is carried — each mode has a distinct orientation
/// regime, amplitude attenuation and noise floor, so every activity class
/// is a *union of well-separated modes* rather than one smooth cluster.
/// This is what makes a small exemplar set genuinely under-sample a class
/// (the paper's forgetting dynamics depend on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryMode {
    /// Trouser pocket: strongly tilted, impacts amplified.
    Pocket,
    /// In hand: mild tilt, tremor noise.
    Hand,
    /// Backpack / bag: arbitrary orientation, damped motion.
    Backpack,
    /// Vehicle mount / armband: nearly canonical pose.
    Mount,
}

impl CarryMode {
    /// All modes.
    pub const ALL: [CarryMode; 4] =
        [CarryMode::Pocket, CarryMode::Hand, CarryMode::Backpack, CarryMode::Mount];
}

/// Concrete per-window "user" parameters drawn from an activity's
/// population model.
#[derive(Debug, Clone)]
struct UserDraw {
    gait_hz: f32,
    gait_amp: f32,
    harmonic2: f32,
    vib_hz: f32,
    vib_amp: f32,
    speed: f32,
    sway: f32,
    bump_rate: f32,
    bump_amp: f32,
    noise: f32,
    phase: f32,
    heading: f32,
    rotation: Rotation,
    acc_bias: [f32; 3],
    in_pocket: bool,
    light_level: f32,
    /// Whether GPS has a fix this window (urban canyons, pockets).
    gps_available: bool,
    /// Per-user global motion-amplitude scaling.
    amp_scale: f32,
    /// Hand-carry tremor noise σ (0 unless carried in hand).
    tremor: f32,
}

/// A raw (pre-feature-extraction) dataset of sensor windows.
#[derive(Debug, Clone)]
pub struct RawDataset {
    /// One `[WINDOW_LEN, 22]` tensor per record.
    pub windows: Vec<Tensor>,
    /// Canonical activity label of each record.
    pub labels: Vec<usize>,
}

impl RawDataset {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// The sensor-data simulator: [`WINDOW_LEN`]-sample windows at
/// [`SAMPLE_RATE_HZ`] with nominal sensor noise.
#[derive(Debug, Clone)]
pub struct Simulator {
    rng: Rng64,
}

impl Simulator {
    /// New simulator with the given seed, which fully determines all
    /// generated data.
    pub fn with_seed(seed: u64) -> Self {
        Simulator { rng: Rng64::new(seed) }
    }

    fn draw_user(&mut self, activity: Activity) -> UserDraw {
        let m = activity.model();
        let r = &mut self.rng;
        let u = |r: &mut Rng64, (lo, hi): (f32, f32)| r.uniform_range(lo, hi.max(lo + 1e-9));

        // Carry mode: a discrete within-class regime.
        let carry = CarryMode::ALL[r.below(4)];
        let (carry_angle, carry_amp, carry_noise, tremor) = match carry {
            CarryMode::Pocket => (1.5, 1.25, 0.02, 0.0),
            CarryMode::Hand => (0.4, 0.8, 0.05, 0.18),
            CarryMode::Backpack => (3.0, 0.55, 0.04, 0.0),
            CarryMode::Mount => (0.15, 1.0, 0.0, 0.0),
        };
        let base_rotation = Rotation::random(carry_angle, r);
        let jitter = Rotation::random(ORIENTATION_JITTER, r);

        // Terrain regime for vehicle activities: rough roads shake harder.
        let (bump_factor, vib_factor) = if m.vibration_hz.1 > 0.0 {
            if r.bernoulli(0.5) {
                (2.5, 1.4) // rough
            } else {
                (0.4, 0.8) // smooth
            }
        } else {
            (1.0, 1.0)
        };

        UserDraw {
            gait_hz: u(r, m.gait_hz),
            gait_amp: u(r, m.gait_amp),
            harmonic2: m.harmonic2,
            vib_hz: u(r, m.vibration_hz),
            vib_amp: u(r, m.vibration_amp) * vib_factor,
            speed: u(r, m.speed),
            sway: u(r, m.sway),
            bump_rate: m.bump_rate * bump_factor,
            bump_amp: m.bump_amp,
            noise: m.noise + carry_noise,
            phase: r.uniform_f32() * std::f32::consts::TAU,
            heading: r.uniform_f32() * std::f32::consts::TAU,
            rotation: Rotation::compose(&base_rotation, &jitter),
            acc_bias: [
                r.normal_f32(0.0, 0.05),
                r.normal_f32(0.0, 0.05),
                r.normal_f32(0.0, 0.05),
            ],
            in_pocket: carry == CarryMode::Pocket || carry == CarryMode::Backpack,
            light_level: match activity {
                Activity::Drive => r.uniform_range(1.0, 3.0),
                _ => r.uniform_range(2.0, 5.0),
            },
            gps_available: r.bernoulli(0.75),
            amp_scale: r.uniform_range(0.7, 1.3) * carry_amp,
            tremor,
        }
    }

    /// Generates one `[WINDOW_LEN, 22]` window of the given activity.
    pub fn window(&mut self, activity: Activity) -> Tensor {
        self.samples(activity, WINDOW_LEN)
    }

    /// `n` consecutive samples `[n, 22]` of one activity from one user
    /// draw.
    fn samples(&mut self, activity: Activity, n: usize) -> Tensor {
        let user = self.draw_user(activity);
        let dt = 1.0 / SAMPLE_RATE_HZ;
        let mut data = vec![0.0f32; n * CHANNELS];

        // Earth magnetic field in the local frame, rotated by heading.
        let (sh, ch) = user.heading.sin_cos();
        let mag_earth = [30.0 * ch, 30.0 * sh, -45.0];

        // Road-bump excitation: an exponentially decaying impulse train.
        let mut bump = 0.0f32;
        let bump_p = (user.bump_rate * dt) as f64;

        for t_idx in 0..n {
            let t = t_idx as f32 * dt;
            let tau = std::f32::consts::TAU;

            // -------- body-frame kinematics --------
            let gait = user.amp_scale
                * user.gait_amp
                * ((tau * user.gait_hz * t + user.phase).sin()
                    + user.harmonic2 * (2.0 * tau * user.gait_hz * t + 2.0 * user.phase).sin());
            let vib = user.amp_scale * user.vib_amp * (tau * user.vib_hz * t + user.phase).sin();
            if user.bump_rate > 0.0 && self.rng.bernoulli(bump_p) {
                bump += user.bump_amp * self.rng.normal_f32(0.0, 1.0);
            }
            bump *= 0.82; // ~10 ms decay constant at 120 Hz

            // Lateral/forward motion: gait couples into the horizontal
            // plane at half amplitude; vehicles get smooth speed noise.
            let vertical = gait + vib + bump;
            let forward = 0.5 * gait * (tau * user.gait_hz * t).cos()
                + 0.3 * vib
                + self.rng.normal_f32(0.0, user.noise);
            let lateral =
                0.35 * gait * (tau * user.gait_hz * t + 1.3).sin() + self.rng.normal_f32(0.0, user.noise);

            let lin_body = [lateral, forward, vertical];
            let grav_body = [0.0, 0.0, GRAVITY];
            let acc_body =
                [lin_body[0] + grav_body[0], lin_body[1] + grav_body[1], lin_body[2] + grav_body[2]];

            // Gyroscope: sway about all three axes at gait (or slow
            // vehicle) frequency.
            let sway_hz = if user.gait_hz > 0.0 { user.gait_hz } else { 0.4 };
            let gyro_body = [
                user.sway * (tau * sway_hz * t + user.phase).sin(),
                user.sway * 0.7 * (tau * sway_hz * t + user.phase + 0.9).sin(),
                user.sway * 0.4 * (tau * sway_hz * t + user.phase + 2.1).sin(),
            ];

            // -------- rotate into the (jittered) phone frame --------
            let noise = |rng: &mut Rng64, s: f32| rng.normal_f32(0.0, s);
            let rot = &user.rotation;
            let acc = rot.apply(acc_body);
            let lin = rot.apply(lin_body);
            let grav = rot.apply(grav_body);
            let gyr = rot.apply(gyro_body);
            let mag = rot.apply(mag_earth);

            let row = &mut data[t_idx * CHANNELS..(t_idx + 1) * CHANNELS];
            for (axis, &base) in Triad::Accelerometer.channels().iter().enumerate() {
                row[base] = acc[axis]
                    + user.acc_bias[axis]
                    + noise(&mut self.rng, user.noise + user.tremor);
            }
            for (axis, &base) in Triad::Gyroscope.channels().iter().enumerate() {
                row[base] = gyr[axis] + noise(&mut self.rng, 0.35 * user.noise);
            }
            let mag_distort = if activity == Activity::Drive { 5.0 } else { 0.0 };
            for (axis, &base) in Triad::Magnetometer.channels().iter().enumerate() {
                row[base] = mag[axis]
                    + mag_distort * (axis as f32 - 1.0)
                    + noise(&mut self.rng, 1.5 + 2.5 * user.noise);
            }
            for (axis, &base) in Triad::LinearAcceleration.channels().iter().enumerate() {
                row[base] = lin[axis] + noise(&mut self.rng, user.noise);
            }
            for (axis, &base) in Triad::Gravity.channels().iter().enumerate() {
                row[base] = grav[axis] + noise(&mut self.rng, 0.02);
            }

            // -------- scalar channels --------
            row[Scalar::Pressure.channel()] =
                0.02 * user.speed * (0.3 * t).sin() + noise(&mut self.rng, 0.05);
            row[Scalar::Light.channel()] = if user.in_pocket {
                noise(&mut self.rng, 0.05).abs()
            } else {
                user.light_level + noise(&mut self.rng, 0.2)
            };
            row[Scalar::Proximity.channel()] =
                if user.in_pocket { 1.0 } else { 0.0 } + noise(&mut self.rng, 0.02);
            row[Scalar::GpsSpeed.channel()] = if user.gps_available {
                (user.speed + noise(&mut self.rng, 0.8)).max(0.0)
            } else {
                // No fix: the platform reports zero speed plus jitter.
                noise(&mut self.rng, 0.1).abs()
            };
            row[Scalar::AudioLevel.channel()] = match activity {
                Activity::Drive => 0.45,
                Activity::EScooter => 0.38,
                Activity::Run => 0.3,
                Activity::Walk => 0.22,
                Activity::Still => 0.12,
            } + noise(&mut self.rng, 0.15);
            row[Scalar::Temperature.channel()] = noise(&mut self.rng, 0.3);
            row[Scalar::StepRate.channel()] = if user.gait_hz > 0.0 {
                user.gait_hz + noise(&mut self.rng, 0.45)
            } else if user.vib_amp > 0.0 {
                // Road vibration fools the pedometer into phantom steps.
                noise(&mut self.rng, 0.6).abs()
            } else {
                noise(&mut self.rng, 0.05).abs()
            };
        }

        Tensor::from_vec(data, [n, CHANNELS]).expect("length by construction")
    }

    /// Generates `n` windows of one activity.
    pub fn windows(&mut self, activity: Activity, n: usize) -> Vec<Tensor> {
        (0..n).map(|_| self.window(activity)).collect()
    }

    /// Generates a continuous multi-second session `[seconds·rate, 22]` of
    /// one activity (one user throughout) — input for the segmentation
    /// tests and the streaming example.
    pub fn session(&mut self, activity: Activity, seconds: usize) -> Tensor {
        // A session is a sequence of windows from a single user draw; we
        // approximate by fixing the seed-derived user via one long window.
        self.samples(activity, seconds * SAMPLE_RATE_HZ as usize)
    }

    /// Generates a labelled raw dataset with `count` windows per activity
    /// in `counts`.
    pub fn raw_dataset(&mut self, counts: &[(Activity, usize)]) -> RawDataset {
        let total: usize = counts.iter().map(|&(_, c)| c).sum();
        let mut windows = Vec::with_capacity(total);
        let mut labels = Vec::with_capacity(total);
        for &(activity, count) in counts {
            for _ in 0..count {
                windows.push(self.window(activity));
                labels.push(activity.label());
            }
        }
        RawDataset { windows, labels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilote_tensor::reduce::Axis;

    #[test]
    fn window_shape_and_finiteness() {
        let mut sim = Simulator::with_seed(1);
        for a in Activity::ALL {
            let w = sim.window(a);
            assert_eq!(w.shape().dims(), &[WINDOW_LEN, CHANNELS]);
            assert!(w.all_finite(), "{a}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let w1 = Simulator::with_seed(9).window(Activity::Walk);
        let w2 = Simulator::with_seed(9).window(Activity::Walk);
        assert_eq!(w1, w2);
    }

    #[test]
    fn still_has_lowest_accel_variance() {
        let mut sim = Simulator::with_seed(2);
        let var_of = |sim: &mut Simulator, a: Activity| {
            let w = sim.window(a);
            let v = w.var_axis(Axis::Rows).unwrap();
            // variance of the vertical accelerometer channel
            v.as_slice()[2]
        };
        let still: f32 =
            (0..10).map(|_| var_of(&mut sim, Activity::Still)).sum::<f32>() / 10.0;
        let run: f32 = (0..10).map(|_| var_of(&mut sim, Activity::Run)).sum::<f32>() / 10.0;
        assert!(still < run / 10.0, "still {still} vs run {run}");
    }

    #[test]
    fn gravity_magnitude_is_preserved_by_rotation() {
        let mut sim = Simulator::with_seed(3);
        let w = sim.window(Activity::Walk);
        // Mean gravity-vector magnitude should be ≈ 9.81 regardless of
        // phone orientation.
        let mut mags = 0.0f32;
        for t in 0..WINDOW_LEN {
            let [cx, cy, cz] = Triad::Gravity.channels();
            let g = [w.at(t, cx), w.at(t, cy), w.at(t, cz)];
            mags += (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
        }
        let mean = mags / WINDOW_LEN as f32;
        assert!((mean - GRAVITY).abs() < 0.2, "mean gravity magnitude {mean}");
    }

    #[test]
    fn gps_speed_separates_drive_from_still() {
        // GPS has per-window dropout, so compare means over many windows.
        let mut sim = Simulator::with_seed(4);
        let mean_speed = |sim: &mut Simulator, a: Activity| {
            let c = Scalar::GpsSpeed.channel();
            (0..20)
                .map(|_| {
                    let w = sim.window(a);
                    (0..WINDOW_LEN).map(|t| w.at(t, c)).sum::<f32>() / WINDOW_LEN as f32
                })
                .sum::<f32>()
                / 20.0
        };
        let drive = mean_speed(&mut sim, Activity::Drive);
        let still = mean_speed(&mut sim, Activity::Still);
        assert!(drive > 2.0, "drive speed {drive}");
        assert!(still < 1.0, "still speed {still}");
    }

    #[test]
    fn rotation_is_orthonormal() {
        let mut rng = Rng64::new(5);
        for _ in 0..20 {
            let r = Rotation::random(1.0, &mut rng);
            let e = [
                r.apply([1.0, 0.0, 0.0]),
                r.apply([0.0, 1.0, 0.0]),
                r.apply([0.0, 0.0, 1.0]),
            ];
            for i in 0..3 {
                let n: f32 = e[i].iter().map(|v| v * v).sum();
                assert!((n - 1.0).abs() < 1e-4);
                for j in i + 1..3 {
                    let d: f32 = e[i].iter().zip(&e[j]).map(|(a, b)| a * b).sum();
                    assert!(d.abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn zero_axis_rotation_is_identity() {
        let r = Rotation::axis_angle([0.0, 0.0, 0.0], 1.0);
        assert_eq!(r.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn session_has_requested_length() {
        let mut sim = Simulator::with_seed(6);
        let s = sim.session(Activity::Walk, 5);
        assert_eq!(s.shape().dims(), &[5 * 120, CHANNELS]);
        // Later windows keep the standard length.
        assert_eq!(sim.window(Activity::Walk).shape().dims(), &[WINDOW_LEN, CHANNELS]);
    }

    #[test]
    fn raw_dataset_counts_and_labels() {
        let mut sim = Simulator::with_seed(7);
        let ds = sim.raw_dataset(&[(Activity::Run, 3), (Activity::Still, 2)]);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.labels, vec![2, 2, 2, 3, 3]);
    }

    #[test]
    fn step_rate_reflects_cadence_for_gait_activities() {
        let mut sim = Simulator::with_seed(8);
        let c = Scalar::StepRate.channel();
        let mean_rate = |w: &Tensor| (0..WINDOW_LEN).map(|t| w.at(t, c)).sum::<f32>() / 120.0;
        let run = mean_rate(&sim.window(Activity::Run));
        let still = mean_rate(&sim.window(Activity::Still));
        assert!(run > 1.5, "run step rate {run}");
        assert!(still < 0.5, "still step rate {still}");
    }
}
