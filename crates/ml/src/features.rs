//! Feature and target encoding for the mitigation model.
//!
//! The paper's model input is "the ego vehicle's speed, relative distance to
//! the leading vehicle, lane line positions, and historical gas and steering
//! values from previous control cycles"; outputs are the expected gas and
//! steering commands. We encode one control cycle as [`FEATURE_DIM`]
//! normalised values and the model target as [`TARGET_DIM`] values
//! (normalised acceleration and steering).

use adas_simulator::World;

/// Number of input features per control cycle.
pub const FEATURE_DIM: usize = 9;
/// Number of regression targets.
pub const TARGET_DIM: usize = 2;
/// History window length in control cycles (0.2 s at 100 Hz).
pub const WINDOW: usize = 20;

/// Normalisation constants.
const V_SCALE: f64 = 30.0;
const RD_SCALE: f64 = 100.0;
const RS_SCALE: f64 = 15.0;
const LINE_SCALE: f64 = 2.0;
const KAPPA_SCALE: f64 = 0.05;
const ACCEL_SCALE: f64 = 5.0;
const STEER_SCALE: f64 = 0.1;
const GATE_STEER_SCALE: f64 = 0.5;

/// Raw (physical-unit) state of one control cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StateFeatures {
    /// Ego speed, m/s.
    pub ego_speed: f64,
    /// Relative distance to the lead, metres (`f64::INFINITY` when none).
    pub lead_distance: f64,
    /// Closing speed, m/s (0 or `f64::NAN` when no lead; [`encode`] treats
    /// any non-finite value as "no closing motion").
    ///
    /// [`encode`]: StateFeatures::encode
    pub closing_speed: f64,
    /// Distance to the left lane line, metres.
    pub left_line: f64,
    /// Distance to the right lane line, metres.
    pub right_line: f64,
    /// Road/path curvature, 1/m.
    pub curvature: f64,
    /// Heading error relative to the road tangent, radians (from the
    /// redundant IMU/localisation source).
    pub heading: f64,
    /// Previous cycle's acceleration command, m/s².
    pub prev_accel: f64,
    /// Previous cycle's steering command, radians.
    pub prev_steer: f64,
}

/// Normalises and clamps one feature; non-finite inputs (a NaN "no lead"
/// channel, an infinite distance) map to `fallback` instead of poisoning
/// the window — `f64::clamp` propagates NaN, and one NaN feature would
/// zero out every LSTM gate downstream.
fn norm(value: f64, scale: f64, fallback: f64) -> f64 {
    if value.is_finite() {
        (value / scale).clamp(-2.0, 2.0)
    } else {
        fallback
    }
}

impl StateFeatures {
    /// Reads the fault-free (ground-truth) state of one control cycle from
    /// the world, with `prev` as the previous cycle's executed command.
    #[must_use]
    pub fn observe(world: &World, prev: ControlTarget) -> Self {
        let truth = world.lead_observation();
        let ego = world.ego().state();
        let half = world.road().lane_width() / 2.0;
        Self {
            ego_speed: ego.v,
            lead_distance: truth.map_or(f64::INFINITY, |o| o.distance),
            closing_speed: truth.map_or(0.0, |o| o.closing_speed),
            left_line: half - ego.d,
            right_line: half + ego.d,
            curvature: world.road().curvature_at(ego.s),
            heading: ego.psi,
            prev_accel: prev.accel,
            prev_steer: prev.steer,
        }
    }

    /// Encodes into the model's normalised feature vector.
    #[must_use]
    pub fn encode(&self) -> [f64; FEATURE_DIM] {
        let rd = if self.lead_distance.is_finite() {
            (self.lead_distance / RD_SCALE).min(1.5)
        } else {
            // No lead (or sensor dropout): saturate at the far horizon.
            1.5
        };
        [
            norm(self.ego_speed, V_SCALE, 0.0),
            rd,
            norm(self.closing_speed, RS_SCALE, 0.0),
            norm(self.left_line, LINE_SCALE, 2.0),
            norm(self.right_line, LINE_SCALE, 2.0),
            norm(self.curvature, KAPPA_SCALE, 0.0),
            norm(self.heading, 0.2, 0.0),
            norm(self.prev_accel, ACCEL_SCALE, 0.0),
            norm(self.prev_steer, STEER_SCALE, 0.0),
        ]
    }
}

/// A control output in physical units, with target encoding/decoding.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControlTarget {
    /// Acceleration command, m/s².
    pub accel: f64,
    /// Steering command, radians.
    pub steer: f64,
}

impl ControlTarget {
    /// Encodes into the normalised target vector.
    #[must_use]
    pub fn encode(&self) -> [f64; TARGET_DIM] {
        [
            (self.accel / ACCEL_SCALE).clamp(-2.0, 2.0),
            (self.steer / STEER_SCALE).clamp(-2.0, 2.0),
        ]
    }

    /// Decodes a normalised model output back to physical units.
    #[must_use]
    pub fn decode(out: &[f64]) -> Self {
        Self {
            accel: out.first().copied().unwrap_or(0.0) * ACCEL_SCALE,
            steer: out.get(1).copied().unwrap_or(0.0) * STEER_SCALE,
        }
    }

    /// The normalised prediction discrepancy used by the CUSUM gate:
    /// `|Δaccel|/5 + |Δsteer|/0.5`. The gate's steering normaliser is
    /// deliberately coarser than the training-target scale: small steering
    /// disagreements must not hold the system in recovery mode, or control
    /// never returns to the ADAS and its (unpoisoned) lane centering.
    #[must_use]
    pub fn discrepancy(&self, other: &Self) -> f64 {
        (self.accel - other.accel).abs() / ACCEL_SCALE
            + (self.steer - other.steer).abs() / GATE_STEER_SCALE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_normalises_into_small_range() {
        let f = StateFeatures {
            ego_speed: 22.0,
            lead_distance: 55.0,
            closing_speed: 9.0,
            left_line: 1.75,
            right_line: 1.75,
            curvature: 0.002,
            heading: 0.01,
            prev_accel: -2.0,
            prev_steer: 0.01,
        };
        let e = f.encode();
        assert_eq!(e.len(), FEATURE_DIM);
        assert!(e.iter().all(|v| v.abs() <= 2.0));
    }

    #[test]
    fn infinite_distance_saturates() {
        let f = StateFeatures {
            lead_distance: f64::INFINITY,
            ..StateFeatures::default()
        };
        assert_eq!(f.encode()[1], 1.5);
    }

    #[test]
    fn non_finite_channels_never_poison_the_vector() {
        // "No lead" reported as NaN (the trace convention) or INFINITY
        // must yield a fully finite feature vector — one NaN here would
        // propagate through every LSTM gate downstream.
        let f = StateFeatures {
            ego_speed: 25.0,
            lead_distance: f64::NAN,
            closing_speed: f64::NAN,
            left_line: f64::NEG_INFINITY,
            right_line: f64::INFINITY,
            curvature: f64::NAN,
            heading: 0.0,
            prev_accel: 0.0,
            prev_steer: f64::NAN,
        };
        let e = f.encode();
        assert!(e.iter().all(|v| v.is_finite()), "{e:?}");
        assert_eq!(e[2], 0.0, "NaN closing speed reads as no closing motion");
    }

    #[test]
    fn in_range_values_unchanged_by_sanitisation() {
        // The NaN guards must be bit-transparent for ordinary inputs —
        // cached datasets/models are fingerprinted over these encodings.
        let f = StateFeatures {
            ego_speed: 22.0,
            lead_distance: 55.0,
            closing_speed: 9.0,
            left_line: 1.75,
            right_line: 1.75,
            curvature: 0.002,
            heading: 0.01,
            prev_accel: -2.0,
            prev_steer: 0.01,
        };
        let e = f.encode();
        assert_eq!(e[0], 22.0 / 30.0);
        assert_eq!(e[2], 9.0 / 15.0);
        assert_eq!(e[3], 1.75 / 2.0);
    }

    #[test]
    fn target_round_trip() {
        let t = ControlTarget {
            accel: -3.0,
            steer: 0.1,
        };
        let d = ControlTarget::decode(&t.encode());
        assert!((d.accel - t.accel).abs() < 1e-12);
        assert!((d.steer - t.steer).abs() < 1e-12);
    }

    #[test]
    fn decode_handles_short_slices() {
        let d = ControlTarget::decode(&[]);
        assert_eq!(d.accel, 0.0);
        assert_eq!(d.steer, 0.0);
    }

    #[test]
    fn discrepancy_is_zero_for_identical() {
        let t = ControlTarget {
            accel: 1.0,
            steer: -0.2,
        };
        assert_eq!(t.discrepancy(&t), 0.0);
    }

    #[test]
    fn discrepancy_combines_both_axes() {
        let a = ControlTarget {
            accel: 0.0,
            steer: 0.0,
        };
        let b = ControlTarget {
            accel: 5.0,
            steer: 0.5,
        };
        assert!((a.discrepancy(&b) - 2.0).abs() < 1e-12);
    }
}
