//! OpenPilot-like ADAS control stack: ACC (longitudinal) + ALC (lateral).
//!
//! The controllers consume [`adas_perception::PerceptionFrame`]s — possibly
//! fault-injected by the attack engine — and produce an [`AdasCommand`]
//! (acceleration + steering) that the platform arbitrates against the safety
//! interventions before actuation.
//!
//! # Example
//!
//! ```
//! use adas_control::{AdasConfig, AdasController};
//! use adas_perception::PerceptionFrame;
//!
//! let mut adas = AdasController::new(AdasConfig::default());
//! let cmd = adas.control(&PerceptionFrame::neutral(15.0), 0.01);
//! assert!(cmd.accel > 0.0); // below set speed → accelerate
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acc;
pub mod alc;
pub mod pid;

pub use acc::{AccConfig, AccController, LongitudinalPlan};
pub use alc::{AlcConfig, AlcController};
pub use pid::{Pid, PidConfig};

use adas_codec::{Encode, Writer};
use adas_perception::PerceptionFrame;

/// Combined ADAS output for one control cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdasCommand {
    /// Longitudinal acceleration command, m/s².
    pub accel: f64,
    /// Front-wheel steering angle command, radians.
    pub steer: f64,
    /// Whether a lead vehicle constrained the longitudinal plan.
    pub lead_engaged: bool,
}

/// Configuration of the full control stack.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdasConfig {
    /// Longitudinal (ACC) parameters.
    pub acc: AccConfig,
    /// Lateral (ALC) parameters.
    pub alc: AlcConfig,
}

impl Encode for AdasConfig {
    fn encode(&self, w: &mut Writer) {
        let Self { acc, alc } = self;
        w.put(acc);
        w.put(alc);
    }
}

/// The combined ACC + ALC controller.
#[derive(Debug, Clone)]
pub struct AdasController {
    acc: AccController,
    alc: AlcController,
}

impl AdasController {
    /// Creates the stack from a configuration.
    #[must_use]
    pub fn new(config: AdasConfig) -> Self {
        Self {
            acc: AccController::new(config.acc),
            alc: AlcController::new(config.alc),
        }
    }

    /// Access to the longitudinal controller.
    #[must_use]
    pub fn acc(&self) -> &AccController {
        &self.acc
    }

    /// Runs one control cycle.
    pub fn control(&mut self, frame: &PerceptionFrame, dt: f64) -> AdasCommand {
        let plan = self.acc.plan(frame, dt);
        let steer = self.alc.steer(frame, dt);
        AdasCommand {
            accel: plan.accel,
            steer,
            lead_engaged: plan.lead_engaged,
        }
    }

    /// Resets all controller state (new run).
    pub fn reset(&mut self) {
        self.acc.reset();
        self.alc.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_perception::{LeadPrediction, PerceptionFrame};
    use adas_simulator::units::mph;

    #[test]
    fn control_combines_both_axes() {
        let mut adas = AdasController::new(AdasConfig::default());
        let mut frame = PerceptionFrame::neutral(mph(50.0));
        frame.desired_curvature = 1.0 / 500.0;
        frame.lead = Some(LeadPrediction {
            distance: 20.0,
            closing_speed: 9.0,
            lead_speed: mph(30.0),
        });
        let cmd = adas.control(&frame, 0.01);
        assert!(cmd.accel < -2.0, "should brake, got {}", cmd.accel);
        assert!(cmd.steer > 0.0, "should steer into the bend");
        assert!(cmd.lead_engaged);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut adas = AdasController::new(AdasConfig::default());
        for _ in 0..100 {
            let _ = adas.control(&PerceptionFrame::neutral(5.0), 0.01);
        }
        adas.reset();
        let mut fresh = AdasController::new(AdasConfig::default());
        let a = adas.control(&PerceptionFrame::neutral(5.0), 0.01);
        let b = fresh.control(&PerceptionFrame::neutral(5.0), 0.01);
        assert!((a.accel - b.accel).abs() < 1e-9);
    }
}
