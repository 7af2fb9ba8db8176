//! Automated lane centering: the lateral half of the ADAS.
//!
//! Mirrors OpenPilot's architecture: the ALC is a *path follower* — it
//! converts the perception module's planned path curvature (which already
//! contains the model's lane-centering correction, see
//! [`adas_perception::PerceptionFrame::path_centering`]) into a front-wheel
//! angle via the bicycle model, with first-order smoothing.
//!
//! Because all lane-keeping intelligence lives in the (attackable) path
//! output, a road-patch attack that bends the planned path steers the
//! vehicle out of its lane with nothing downstream to correct it — the
//! paper's ALC attack. An optional auxiliary feedback on the raw lane-line
//! predictions is provided for ablation studies (disabled by default, as in
//! OpenPilot).

use adas_codec::{Encode, Writer};
use adas_perception::PerceptionFrame;
use adas_simulator::math::atan;

/// ALC tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlcConfig {
    /// Vehicle wheelbase used for the curvature → steering conversion,
    /// metres.
    pub wheelbase: f64,
    /// First-order smoothing time constant on the steering command,
    /// seconds.
    pub command_tau: f64,
    /// Absolute steering angle limit, radians.
    pub steer_limit: f64,
    /// Auxiliary feedback gain from the raw lane-line offset, rad/m
    /// (0 = OpenPilot-faithful pure path following; used by ablations).
    pub aux_offset_gain: f64,
    /// Magnitude limit of the auxiliary feedback, radians.
    pub aux_feedback_limit: f64,
}

impl Default for AlcConfig {
    fn default() -> Self {
        Self {
            wheelbase: 2.7,
            command_tau: 0.08,
            steer_limit: 0.5,
            aux_offset_gain: 0.0,
            aux_feedback_limit: 0.02,
        }
    }
}

impl Encode for AlcConfig {
    fn encode(&self, w: &mut Writer) {
        let Self {
            wheelbase,
            command_tau,
            steer_limit,
            aux_offset_gain,
            aux_feedback_limit,
        } = *self;
        for v in [
            wheelbase,
            command_tau,
            steer_limit,
            aux_offset_gain,
            aux_feedback_limit,
        ] {
            w.f64(v);
        }
    }
}

/// The ALC controller (stateful: output smoothing).
#[derive(Debug, Clone)]
pub struct AlcController {
    config: AlcConfig,
    smoothed: Option<f64>,
}

impl AlcController {
    /// Creates a controller.
    #[must_use]
    pub fn new(config: AlcConfig) -> Self {
        Self {
            config,
            smoothed: None,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AlcConfig {
        &self.config
    }

    /// Computes the front-wheel steering command for one cycle.
    pub fn steer(&mut self, frame: &PerceptionFrame, dt: f64) -> f64 {
        let cfg = self.config;
        let mut target = atan(cfg.wheelbase * frame.path_curvature());
        if cfg.aux_offset_gain != 0.0 {
            let aux = (-cfg.aux_offset_gain * frame.lanes.lateral_offset())
                .clamp(-cfg.aux_feedback_limit, cfg.aux_feedback_limit);
            target += aux;
        }
        target = target.clamp(-cfg.steer_limit, cfg.steer_limit);

        let out = match self.smoothed {
            Some(prev) if dt > 0.0 => {
                let alpha = (dt / cfg.command_tau).min(1.0);
                prev + alpha * (target - prev)
            }
            _ => target,
        };
        self.smoothed = Some(out);
        out
    }

    /// Resets controller state (new run).
    pub fn reset(&mut self) {
        self.smoothed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_perception::{LanePrediction, PerceptionFrame};

    fn frame(kappa: f64, centering: f64) -> PerceptionFrame {
        PerceptionFrame {
            desired_curvature: kappa,
            path_centering: centering,
            ..PerceptionFrame::neutral(20.0)
        }
    }

    #[test]
    fn follows_path_curvature() {
        let mut alc = AlcController::new(AlcConfig::default());
        let kappa = 1.0 / 400.0;
        let steer = alc.steer(&frame(kappa, 0.0), 0.01);
        assert!((steer - atan(2.7 * kappa)).abs() < 1e-9);
    }

    #[test]
    fn centering_adds_to_feedforward() {
        let mut alc = AlcController::new(AlcConfig::default());
        let steer = alc.steer(&frame(0.0, 0.005), 0.01);
        assert!((steer - atan(2.7 * 0.005)).abs() < 1e-9);
    }

    #[test]
    fn poisoned_path_is_followed_blindly() {
        // The attack's whole premise: with the centering folded into the
        // (poisoned) path, the follower has no independent correction.
        let mut alc = AlcController::new(AlcConfig::default());
        let poisoned = frame(0.0006, 0.0);
        let steer = alc.steer(&poisoned, 0.01);
        assert!(steer > 0.0);
    }

    #[test]
    fn smoothing_limits_step_response() {
        let mut alc = AlcController::new(AlcConfig::default());
        let _ = alc.steer(&frame(0.0, 0.0), 0.01);
        let step = alc.steer(&frame(0.02, 0.0), 0.01);
        let target = atan(2.7 * 0.02);
        assert!(
            step < target * 0.5,
            "smoothing too weak: {step} vs {target}"
        );
    }

    #[test]
    fn steer_limit_enforced() {
        let mut alc = AlcController::new(AlcConfig::default());
        let mut last = 0.0;
        for _ in 0..500 {
            last = alc.steer(&frame(5.0, 0.0), 0.01);
        }
        assert!(last <= AlcConfig::default().steer_limit + 1e-12);
    }

    #[test]
    fn aux_feedback_optional() {
        let cfg = AlcConfig {
            aux_offset_gain: 0.05,
            ..AlcConfig::default()
        };
        let mut alc = AlcController::new(cfg);
        let mut f = frame(0.0, 0.0);
        // Vehicle right of center (offset −0.5) → steer left.
        f.lanes = LanePrediction {
            left_line: 2.25,
            right_line: 1.25,
        };
        let steer = alc.steer(&f, 0.01);
        assert!(steer > 0.0);
        assert!(steer <= cfg.aux_feedback_limit + 1e-12);
    }

    #[test]
    fn reset_clears_smoothing() {
        let mut alc = AlcController::new(AlcConfig::default());
        let _ = alc.steer(&frame(0.05, 0.0), 0.01);
        alc.reset();
        let fresh = alc.steer(&frame(0.0, 0.0), 0.01);
        assert_eq!(fresh, 0.0);
    }
}
