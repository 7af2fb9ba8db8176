//! Adaptive cruise control: the longitudinal half of the ADAS.
//!
//! The controller emulates OpenPilot v0.9.7's observed longitudinal
//! behaviour as characterised by the paper's benign-run measurements
//! (Table IV, Fig. 5): it holds a comfortable gap during steady following,
//! but *reacts late and brakes aggressively* when closing in on a slower
//! lead — the paper measures hard-brake commands of 15.7–86.7 % and a speed
//! overshoot from 21.7 m/s down to 9.6 m/s in a benign approach.
//!
//! Mechanically this comes from a two-regime planner: a steady-state gap
//! follower plus a kinematic "required deceleration" term that only kicks in
//! once the constant-deceleration stop distance starts to violate the
//! minimum gap — late, and then strong.

use crate::pid::{Pid, PidConfig};
use adas_codec::{Encode, Writer};
use adas_perception::PerceptionFrame;

/// ACC tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccConfig {
    /// Cruise set speed, m/s.
    pub set_speed: f64,
    /// Constant part of the desired following gap, metres.
    pub gap_offset: f64,
    /// Time-gap part of the desired following gap, seconds.
    pub time_gap: f64,
    /// Gap below which the planner aims to never fall, metres.
    pub min_gap: f64,
    /// Required-deceleration level at which emergency-style planner braking
    /// engages, m/s² (the "late reaction" knob).
    pub brake_engage_decel: f64,
    /// Gain applied to the required deceleration once engaged.
    pub brake_gain: f64,
    /// Most negative acceleration the planner may command, m/s². OpenPilot's
    /// planner can command hard braking; the PANDA-style safety check (when
    /// enabled) clamps this downstream.
    pub max_decel: f64,
    /// Most positive acceleration the planner may command, m/s².
    pub max_accel: f64,
    /// Proportional gain on gap error during steady following.
    pub gap_gain: f64,
    /// Gain on speed difference to the lead during steady following.
    pub speed_match_gain: f64,
    /// Time constant of the closing-speed tracker, seconds. Like
    /// OpenPilot's lead Kalman filter, the planner estimates the closing
    /// speed by low-pass filtering the *derivative of the predicted
    /// distance* — which is why distance-only adversarial perturbations
    /// (whose tier jumps corrupt the derivative) defeat the planner's speed
    /// matching.
    pub closing_tau: f64,
}

impl Default for AccConfig {
    fn default() -> Self {
        Self {
            set_speed: adas_simulator::units::mph(50.0),
            gap_offset: 4.5,
            time_gap: 1.8,
            min_gap: 6.0,
            brake_engage_decel: 1.3,
            brake_gain: 1.35,
            max_decel: -9.0,
            max_accel: 2.0,
            gap_gain: 0.06,
            speed_match_gain: 0.45,
            closing_tau: 1.6,
        }
    }
}

impl Encode for AccConfig {
    fn encode(&self, w: &mut Writer) {
        let Self {
            set_speed,
            gap_offset,
            time_gap,
            min_gap,
            brake_engage_decel,
            brake_gain,
            max_decel,
            max_accel,
            gap_gain,
            speed_match_gain,
            closing_tau,
        } = *self;
        for v in [
            set_speed,
            gap_offset,
            time_gap,
            min_gap,
            brake_engage_decel,
            brake_gain,
            max_decel,
            max_accel,
            gap_gain,
            speed_match_gain,
            closing_tau,
        ] {
            w.f64(v);
        }
    }
}

/// Longitudinal plan for one control cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongitudinalPlan {
    /// Commanded acceleration, m/s².
    pub accel: f64,
    /// Whether a lead vehicle is currently constraining the plan.
    pub lead_engaged: bool,
}

/// The ACC controller (stateful: cruise-speed PI loop plus the lead
/// closing-speed tracker).
#[derive(Debug, Clone)]
pub struct AccController {
    config: AccConfig,
    cruise_pid: Pid,
    /// `(previous perceived distance, filtered closing-speed estimate)`.
    lead_tracker: Option<(f64, f64)>,
}

impl AccController {
    /// Creates a controller.
    #[must_use]
    pub fn new(config: AccConfig) -> Self {
        let cruise_pid = Pid::new(PidConfig {
            kp: 0.6,
            ki: 0.05,
            kd: 0.0,
            out_min: config.max_decel,
            out_max: config.max_accel,
        });
        Self {
            config,
            cruise_pid,
            lead_tracker: None,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AccConfig {
        &self.config
    }

    /// Desired steady-state following gap at `speed`, metres.
    #[must_use]
    pub fn desired_gap(&self, speed: f64) -> f64 {
        self.config.gap_offset + self.config.time_gap * speed
    }

    /// Produces the longitudinal plan for one cycle from the perception
    /// frame (which may be fault-injected).
    pub fn plan(&mut self, frame: &PerceptionFrame, dt: f64) -> LongitudinalPlan {
        let cfg = self.config;
        let v = frame.ego_speed;
        let cruise_accel = self.cruise_pid.update(cfg.set_speed - v, dt);

        let Some(lead) = frame.lead else {
            self.lead_tracker = None;
            return LongitudinalPlan {
                accel: cruise_accel,
                lead_engaged: false,
            };
        };

        // Lead tracker: the planner's closing-speed estimate comes from the
        // filtered derivative of the predicted distance, initialised from
        // the DNN's own speed output on (re-)acquisition.
        let gap = lead.distance;
        let closing = match self.lead_tracker {
            Some((prev_gap, est)) if dt > 0.0 => {
                let raw = (prev_gap - gap) / dt;
                let alpha = (dt / cfg.closing_tau).min(1.0);
                est + alpha * (raw - est)
            }
            _ => lead.closing_speed,
        };
        self.lead_tracker = Some((gap, closing));

        // Steady-state follower: proportional on gap error plus speed
        // matching. The speed-match term phases in with proximity — the
        // planner does not slow for a lead it believes is still far, which
        // is (a) OpenPilot's observed late-braking behaviour in benign runs
        // (Fig. 5) and (b) exactly what the distance-inflating patch attack
        // exploits.
        let d_des = self.desired_gap(v);
        let gap_err = gap - d_des;
        let proximity = ((1.3 * d_des - gap) / (0.5 * d_des)).clamp(0.0, 1.0);
        let follow_accel = cfg.gap_gain * gap_err - cfg.speed_match_gain * closing * proximity;

        let mut accel = cruise_accel.min(follow_accel);

        // Late, aggressive braking: the constant deceleration needed to stop
        // closing before eating into the minimum gap. Engages only once
        // substantial — OpenPilot's observed behaviour.
        if closing > 0.0 {
            let margin = (gap - cfg.min_gap).max(0.8);
            let required = closing * closing / (2.0 * margin);
            if required > cfg.brake_engage_decel {
                accel = accel.min(-cfg.brake_gain * required);
            }
        }

        LongitudinalPlan {
            accel: accel.clamp(cfg.max_decel, cfg.max_accel),
            lead_engaged: true,
        }
    }

    /// Resets controller state (new run).
    pub fn reset(&mut self) {
        self.cruise_pid.reset();
        self.lead_tracker = None;
    }

    /// The current closing-speed estimate, if a lead is being tracked.
    #[must_use]
    pub fn tracked_closing_speed(&self) -> Option<f64> {
        self.lead_tracker.map(|(_, est)| est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_perception::{LeadPrediction, PerceptionFrame};
    use adas_simulator::units::mph;

    fn frame(v: f64, lead: Option<LeadPrediction>) -> PerceptionFrame {
        PerceptionFrame {
            lead,
            ..PerceptionFrame::neutral(v)
        }
    }

    fn lead(distance: f64, closing: f64, v: f64) -> LeadPrediction {
        LeadPrediction {
            distance,
            closing_speed: closing,
            lead_speed: v,
        }
    }

    #[test]
    fn accelerates_to_set_speed_without_lead() {
        let mut acc = AccController::new(AccConfig::default());
        let p = acc.plan(&frame(10.0, None), 0.01);
        assert!(p.accel > 1.0);
        assert!(!p.lead_engaged);
    }

    #[test]
    fn holds_set_speed() {
        let mut acc = AccController::new(AccConfig::default());
        let p = acc.plan(&frame(mph(50.0), None), 0.01);
        assert!(p.accel.abs() < 0.2);
    }

    #[test]
    fn no_braking_when_lead_far_and_slow_closing() {
        let mut acc = AccController::new(AccConfig::default());
        // 90 m gap, barely closing: cruise continues.
        let p = acc.plan(&frame(mph(50.0), Some(lead(90.0, 1.0, mph(48.0)))), 0.01);
        assert!(p.accel > -0.5, "accel={}", p.accel);
    }

    #[test]
    fn late_brake_is_aggressive() {
        let mut acc = AccController::new(AccConfig::default());
        let v = mph(50.0);
        let closing = v - mph(30.0); // ≈ 8.9 m/s
                                     // Far: not yet braking hard.
        let far = acc.plan(&frame(v, Some(lead(70.0, closing, mph(30.0)))), 0.01);
        // Near: hard brake.
        let near = acc.plan(&frame(v, Some(lead(22.0, closing, mph(30.0)))), 0.01);
        assert!(far.accel > -3.0, "far accel = {}", far.accel);
        assert!(near.accel < -3.0, "near accel = {}", near.accel);
    }

    #[test]
    fn steady_following_keeps_gap() {
        // At the desired gap with matched speed, the plan is near zero.
        let mut acc = AccController::new(AccConfig::default());
        let v = mph(30.0);
        let gap = acc.desired_gap(v);
        let p = acc.plan(&frame(v, Some(lead(gap, 0.0, v))), 0.01);
        assert!(p.accel.abs() < 0.4, "accel={}", p.accel);
        assert!(p.lead_engaged);
    }

    #[test]
    fn desired_gap_matches_paper_following_distance() {
        // Paper Table IV: stable following distance ≈ 26–30 m behind a
        // 30 mph lead.
        let acc = AccController::new(AccConfig::default());
        let gap = acc.desired_gap(mph(30.0));
        assert!((26.0..31.0).contains(&gap), "gap={gap}");
    }

    #[test]
    fn blindness_causes_reacceleration() {
        // Lead disappears (close-range blindness): the planner reverts to
        // cruise and accelerates — the Fig. 6 failure.
        let mut acc = AccController::new(AccConfig::default());
        let v = mph(20.0);
        let engaged = acc.plan(&frame(v, Some(lead(3.0, 5.0, mph(10.0)))), 0.01);
        assert!(engaged.accel < -2.0);
        let blind = acc.plan(&frame(v, None), 0.01);
        assert!(blind.accel > 0.5, "accel={}", blind.accel);
    }

    #[test]
    fn plan_respects_decel_floor() {
        let mut acc = AccController::new(AccConfig::default());
        let p = acc.plan(&frame(30.0, Some(lead(2.0, 20.0, 0.0))), 0.01);
        assert!(p.accel >= AccConfig::default().max_decel - 1e-9);
    }

    #[test]
    fn opening_gap_never_triggers_emergency_term() {
        let mut acc = AccController::new(AccConfig::default());
        let p = acc.plan(&frame(mph(30.0), Some(lead(12.0, -3.0, mph(40.0)))), 0.01);
        // Lead pulling away at short gap: mild response only.
        assert!(p.accel > -1.5, "accel={}", p.accel);
    }
}
