//! End-to-end synthetic reproduction of the paper's body-sensor experiment
//! (Sec. VI-B).
//!
//! 20 subjects wear three TelosB motion nodes (waist, left shin, right
//! shin); each node reports accelerometer x/y/z and gyroscope u/v. Subjects
//! perform two activities — *rest at standing* (+1) and *rest at sitting*
//! (−1). Crucially, "no instruction was given to the subjects regarding the
//! exact placement and orientation of the sensing nodes": we model this as a
//! random orientation per (user, node), fixed across both activities.
//!
//! The generated raw traces then run through the paper's processing chain:
//! generated at 40 Hz → downsampled to 20 Hz → z-normalized → 3.2 s windows
//! with 50 % overlap (70 segments per activity) → 40 features per node → 120
//! features per segment.

use crate::dataset::{MultiUserDataset, UserData};
use crate::features::node_features;
use crate::imu::{generate_imu_trace, ActivityModel, UserTraits};
use crate::signal::Signal;
use crate::window::{samples_for_windows, sliding_windows};
use plos_linalg::Vector;
use rand::SeedableRng;

/// Parameters of the body-sensor generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodySensorSpec {
    /// Number of subjects (paper: 20).
    pub num_users: usize,
    /// Windowed segments per activity per subject (paper: 70).
    pub segments_per_activity: usize,
    /// Processing rate after downsampling, Hz (paper: 20).
    pub sample_rate_hz: f64,
    /// Window length in seconds (paper: 3.2).
    pub window_secs: f64,
    /// Window overlap fraction (paper: 0.5).
    pub overlap: f64,
    /// Strength of personal traits in `[0, 1]`. The body-sensor dataset is
    /// the paper's *most* personal one (free placement), so the default is
    /// high.
    pub personal_variation: f64,
}

impl Default for BodySensorSpec {
    fn default() -> Self {
        BodySensorSpec {
            num_users: 20,
            segments_per_activity: 70,
            sample_rate_hz: 20.0,
            window_secs: 3.2,
            overlap: 0.5,
            personal_variation: 0.6,
        }
    }
}

/// Motion model of one activity at one body region.
///
/// Standing: upright gravity on every node, pronounced postural sway.
/// Sitting: reclined waist, shins angled forward under the chair, much less
/// sway. The absolute values are nominal; the classifier only needs the two
/// classes to differ consistently while user traits perturb both.
fn activity_model(activity: i8, node: usize) -> ActivityModel {
    match (activity, node) {
        // Standing: upright posture, pronounced sway, restless drift.
        (1, 0) => ActivityModel {
            name: "rest-standing/waist",
            accel_base: [0.05, 0.02, 0.99],
            sway_amp: [0.045, 0.040, 0.012],
            sway_freq_hz: 0.65,
            gyro_amp: [0.08, 0.065, 0.02],
            gyro_freq_hz: 0.65,
            noise_std: 0.04,
            drift_std: 0.12,
            drift_tau_s: 3.0,
        },
        (1, _) => ActivityModel {
            name: "rest-standing/shin",
            accel_base: [0.02, 0.01, 1.0],
            sway_amp: [0.035, 0.028, 0.009],
            sway_freq_hz: 0.8,
            gyro_amp: [0.06, 0.045, 0.015],
            gyro_freq_hz: 0.8,
            noise_std: 0.04,
            drift_std: 0.10,
            drift_tau_s: 3.0,
        },
        // Sitting: mild recline, shins angled, calmer but still drifting.
        (-1, 0) => ActivityModel {
            name: "rest-sitting/waist",
            accel_base: [0.12, 0.04, 0.97],
            sway_amp: [0.030, 0.024, 0.008],
            sway_freq_hz: 0.40,
            gyro_amp: [0.045, 0.034, 0.012],
            gyro_freq_hz: 0.40,
            noise_std: 0.04,
            drift_std: 0.10,
            drift_tau_s: 4.0,
        },
        (-1, _) => ActivityModel {
            name: "rest-sitting/shin",
            accel_base: [0.13, 0.05, 0.96],
            sway_amp: [0.022, 0.017, 0.006],
            sway_freq_hz: 0.35,
            gyro_amp: [0.034, 0.026, 0.010],
            gyro_freq_hz: 0.35,
            noise_std: 0.04,
            drift_std: 0.10,
            drift_tau_s: 4.0,
        },
        _ => unreachable!("activity labels are ±1"),
    }
}

/// Generates the body-sensor multi-user dataset.
///
/// Deterministic given `seed`. Each user contributes
/// `2 × segments_per_activity` samples of dimension 120 with labels
/// `+1` (standing) / `−1` (sitting).
///
/// # Panics
///
/// Panics if any spec field is zero/degenerate.
// Allowed: `per_activity` always holds 3 nodes of 5 TelosB channels each
// and windows come from `sliding_windows` over the channel length, so the
// nested `[node][ch]` and window-range accesses are in bounds by
// construction.
#[allow(clippy::indexing_slicing)]
pub fn generate_body_sensor(spec: &BodySensorSpec, seed: u64) -> MultiUserDataset {
    assert!(spec.num_users > 0, "num_users must be positive");
    assert!(spec.segments_per_activity > 0, "segments_per_activity must be positive");
    let window_len = (spec.window_secs * spec.sample_rate_hz).round() as usize;
    assert!(window_len > 1, "window too short");

    let needed_20hz = samples_for_windows(spec.segments_per_activity, window_len, spec.overlap);
    // Generate at 2x the processing rate so the downsampling path is real.
    let raw_rate = spec.sample_rate_hz * 2.0;
    let needed_raw = needed_20hz * 2;

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut users = Vec::with_capacity(spec.num_users);

    for _user in 0..spec.num_users {
        // One set of traits per node, shared by both activities: the device
        // is placed once.
        let node_traits: Vec<UserTraits> =
            (0..3).map(|_| UserTraits::sample(spec.personal_variation, true, &mut rng)).collect();

        let mut features: Vec<Vector> = Vec::new();
        let mut labels: Vec<i8> = Vec::new();

        // Generate and downsample both activities first; normalization
        // statistics are computed over the user's *whole* recording (the
        // paper normalizes the full 5-minute session), so the
        // between-activity mean shift — the main class signal — survives.
        let mut per_activity: Vec<(i8, Vec<Vec<Signal>>)> = Vec::with_capacity(2);
        for &activity in &[1i8, -1i8] {
            let mut node_channels: Vec<Vec<Signal>> = Vec::with_capacity(3);
            for (node, traits) in node_traits.iter().enumerate() {
                let model = activity_model(activity, node);
                let trace = generate_imu_trace(&model, traits, needed_raw, raw_rate, &mut rng);
                let processed: Vec<Signal> = trace
                    .telosb_channels()
                    .into_iter()
                    .map(|s| s.downsample(spec.sample_rate_hz))
                    .collect();
                node_channels.push(processed);
            }
            per_activity.push((activity, node_channels));
        }
        // Joint per-channel z-normalization across both activities.
        for node in 0..3 {
            for ch in 0..5 {
                let mut all: Vec<f64> = Vec::new();
                for (_, channels) in &per_activity {
                    all.extend_from_slice(channels[node][ch].samples());
                }
                let n = all.len() as f64;
                let mean = all.iter().sum::<f64>() / n;
                let std = (all.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
                for (_, channels) in &mut per_activity {
                    let rate = channels[node][ch].sample_rate_hz();
                    let normalized: Vec<f64> = channels[node][ch]
                        .samples()
                        .iter()
                        .map(|x| if std > 0.0 { (x - mean) / std } else { x - mean })
                        .collect();
                    channels[node][ch] = Signal::new(rate, normalized);
                }
            }
        }

        for (activity, node_channels) in &per_activity {
            let n = node_channels[0][0].len();
            for range in sliding_windows(n, window_len, spec.overlap) {
                let mut combined: Vec<f64> = Vec::with_capacity(120);
                for channels in node_channels {
                    let slice = |c: usize| &channels[c].samples()[range.clone()];
                    let nf = node_features(slice(0), slice(1), slice(2), slice(3), slice(4));
                    combined.extend(nf.iter().copied());
                }
                features.push(Vector::from(combined));
                labels.push(*activity);
            }
        }
        users.push(UserData::new(features, labels));
    }
    MultiUserDataset::new(users)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> BodySensorSpec {
        BodySensorSpec { num_users: 3, segments_per_activity: 10, ..Default::default() }
    }

    #[test]
    fn shape_matches_paper_configuration() {
        let d = generate_body_sensor(&small_spec(), 0);
        assert_eq!(d.num_users(), 3);
        assert_eq!(d.dim(), 120);
        for u in d.users() {
            assert_eq!(u.num_samples(), 20);
            let standing = u.truth.iter().filter(|&&y| y == 1).count();
            assert_eq!(standing, 10);
        }
    }

    #[test]
    fn features_are_finite() {
        let d = generate_body_sensor(&small_spec(), 1);
        for u in d.users() {
            for f in &u.features {
                assert!(f.is_finite());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = small_spec();
        assert_eq!(generate_body_sensor(&spec, 7), generate_body_sensor(&spec, 7));
        assert_ne!(generate_body_sensor(&spec, 7), generate_body_sensor(&spec, 8));
    }

    #[test]
    fn classes_differ_within_each_user() {
        // A nearest-centroid rule fit on a user's own data should beat
        // chance comfortably: the two activities have distinct signatures.
        let d = generate_body_sensor(&small_spec(), 2);
        for u in d.users() {
            let dim = u.dim();
            let mut mean_pos = Vector::zeros(dim);
            let mut mean_neg = Vector::zeros(dim);
            let (mut np, mut nn) = (0.0, 0.0);
            for (f, &y) in u.features.iter().zip(&u.truth) {
                if y == 1 {
                    mean_pos += f;
                    np += 1.0;
                } else {
                    mean_neg += f;
                    nn += 1.0;
                }
            }
            mean_pos.scale_mut(1.0 / np);
            mean_neg.scale_mut(1.0 / nn);
            let correct = u
                .features
                .iter()
                .zip(&u.truth)
                .filter(|(f, &y)| {
                    let pred = if f.distance_squared(&mean_pos) < f.distance_squared(&mean_neg) {
                        1
                    } else {
                        -1
                    };
                    pred == y
                })
                .count();
            let acc = correct as f64 / u.num_samples() as f64;
            assert!(acc > 0.85, "within-user separability too low: {acc}");
        }
    }

    #[test]
    fn users_exhibit_personal_traits() {
        // Feature centroids of the same activity should differ more across
        // users than the within-user activity noise would explain.
        let d = generate_body_sensor(&small_spec(), 3);
        let centroid = |t: usize| {
            let u = d.user(t);
            let mut m = Vector::zeros(u.dim());
            let mut n = 0.0;
            for (f, &y) in u.features.iter().zip(&u.truth) {
                if y == 1 {
                    m += f;
                    n += 1.0;
                }
            }
            m.scale_mut(1.0 / n);
            m
        };
        let c0 = centroid(0);
        let c1 = centroid(1);
        assert!(c0.distance(&c1) > 0.5, "users look identical: {}", c0.distance(&c1));
    }

    #[test]
    fn personal_variation_scales_user_differences() {
        // Cross-user centroid gaps must grow with the variation knob
        // (residual gaps at zero variation come from noise and postural
        // drift realizations).
        let gap_at = |variation: f64| {
            let spec = BodySensorSpec {
                personal_variation: variation,
                num_users: 2,
                segments_per_activity: 8,
                ..Default::default()
            };
            let d = generate_body_sensor(&spec, 4);
            let centroid = |t: usize| {
                let u = d.user(t);
                let mut m = Vector::zeros(u.dim());
                let mut n = 0.0;
                for (f, &y) in u.features.iter().zip(&u.truth) {
                    if y == 1 {
                        m += f;
                        n += 1.0;
                    }
                }
                m.scale_mut(1.0 / n);
                m
            };
            centroid(0).distance(&centroid(1))
        };
        assert!(gap_at(0.9) > gap_at(0.0), "strong variation should separate users more than none");
    }
}
