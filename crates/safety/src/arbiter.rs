//! Priority arbitration among safety interventions.
//!
//! The paper assigns fixed priorities to resolve conflicts: **AEB highest,
//! safety checking lowest**, with the human driver in between. Concretely:
//!
//! * If AEB is braking, its pedal command wins the longitudinal channel and
//!   — because emergency braking owns the actuators — the driver's steering
//!   is *not* forwarded. This is the conflict the paper highlights in
//!   Observation 4: under mixed attacks, adding AEB can lower the prevention
//!   rate because it overrides the driver's lateral correction.
//! * Otherwise, driver inputs (brake and/or steering) override the ADAS/ML.
//! * Otherwise, an active ML-mitigation command overrides the ADAS.
//! * The PANDA-style safety check constrains the ADAS/ML command only; it is
//!   applied before arbitration by the platform.

use adas_control::AdasCommand;
use adas_simulator::{VehicleCommand, VehicleParams};

use crate::driver::DriverAction;

/// Who won the longitudinal / lateral channel this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandSource {
    /// The ADAS (ACC/ALC) command.
    Adas,
    /// The ML mitigation model.
    Ml,
    /// The human driver.
    Driver,
    /// The automatic emergency braking system.
    Aeb,
}

/// Result of arbitrating one control cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arbitration {
    /// The actuator command to execute.
    pub command: VehicleCommand,
    /// Longitudinal channel winner.
    pub longitudinal: CommandSource,
    /// Lateral channel winner.
    pub lateral: CommandSource,
}

/// Inputs to the arbiter for one cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterInputs {
    /// ADAS command after any safety checking.
    pub adas: AdasCommand,
    /// ML mitigation command, if the recovery mode is active.
    pub ml: Option<AdasCommand>,
    /// Driver action (brake and/or steering).
    pub driver: DriverAction,
    /// AEB brake fraction, if the AEBS is braking.
    pub aeb_brake: Option<f64>,
}

/// Arbitrates one cycle with the paper's priority order (AEB > driver > ML >
/// ADAS).
#[must_use]
pub fn arbitrate(inputs: &ArbiterInputs, params: &VehicleParams) -> Arbitration {
    // Baseline: ADAS or (if active) ML.
    let (mut base, base_src) = match inputs.ml {
        Some(ml) => (ml, CommandSource::Ml),
        None => (inputs.adas, CommandSource::Adas),
    };
    let mut longitudinal = base_src;
    let mut lateral = base_src;

    // Driver overrides ML/ADAS per channel.
    let mut driver_brake = None;
    if let Some(brake) = inputs.driver.brake {
        driver_brake = Some(brake);
        longitudinal = CommandSource::Driver;
    }
    if let Some(steer) = inputs.driver.steer {
        base.steer = steer;
        lateral = CommandSource::Driver;
    }

    // AEB overrides everything it touches — and while it is braking the
    // automation owns the actuators, so the driver's steering correction is
    // suppressed (steering reverts to the ADAS/ML value).
    let mut aeb_brake = None;
    if let Some(brake) = inputs.aeb_brake {
        aeb_brake = Some(brake);
        longitudinal = CommandSource::Aeb;
        if lateral == CommandSource::Driver {
            base.steer = match inputs.ml {
                Some(ml) => ml.steer,
                None => inputs.adas.steer,
            };
            lateral = base_src;
        }
    }

    // Build the actuator command.
    let command = if let Some(brake) = aeb_brake {
        VehicleCommand {
            gas: 0.0,
            brake,
            steer: base.steer,
        }
    } else if let Some(brake) = driver_brake {
        // Emergency brake, zero throttle, steering per lateral winner.
        VehicleCommand {
            gas: 0.0,
            brake,
            steer: base.steer,
        }
    } else {
        VehicleCommand::from_accel(base.accel, params).with_steer(base.steer)
    };

    Arbitration {
        command,
        longitudinal,
        lateral,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adas(accel: f64, steer: f64) -> AdasCommand {
        AdasCommand {
            accel,
            steer,
            lead_engaged: true,
        }
    }

    fn params() -> VehicleParams {
        VehicleParams::sedan()
    }

    fn base_inputs() -> ArbiterInputs {
        ArbiterInputs {
            adas: adas(1.0, 0.02),
            ml: None,
            driver: DriverAction::default(),
            aeb_brake: None,
        }
    }

    #[test]
    fn adas_passthrough_when_nothing_active() {
        let arb = arbitrate(&base_inputs(), &params());
        assert_eq!(arb.longitudinal, CommandSource::Adas);
        assert_eq!(arb.lateral, CommandSource::Adas);
        assert!(arb.command.gas > 0.0);
        assert!((arb.command.steer - 0.02).abs() < 1e-12);
    }

    #[test]
    fn ml_overrides_adas() {
        let mut inputs = base_inputs();
        inputs.ml = Some(adas(-2.0, 0.0));
        let arb = arbitrate(&inputs, &params());
        assert_eq!(arb.longitudinal, CommandSource::Ml);
        assert!(arb.command.brake > 0.0);
    }

    #[test]
    fn driver_brake_overrides_ml_and_adas() {
        let mut inputs = base_inputs();
        inputs.ml = Some(adas(2.0, 0.0));
        inputs.driver.brake = Some(0.9);
        let arb = arbitrate(&inputs, &params());
        assert_eq!(arb.longitudinal, CommandSource::Driver);
        assert_eq!(arb.command.brake, 0.9);
        assert_eq!(arb.command.gas, 0.0, "zero throttle during driver brake");
        // Steering unchanged: still the ML value (the active automation).
        assert_eq!(arb.lateral, CommandSource::Ml);
    }

    #[test]
    fn driver_steer_overrides_lateral_only() {
        let mut inputs = base_inputs();
        inputs.driver.steer = Some(-0.1);
        let arb = arbitrate(&inputs, &params());
        assert_eq!(arb.lateral, CommandSource::Driver);
        assert_eq!(arb.longitudinal, CommandSource::Adas);
        assert_eq!(arb.command.steer, -0.1);
        assert!(arb.command.gas > 0.0);
    }

    #[test]
    fn aeb_wins_longitudinal() {
        let mut inputs = base_inputs();
        inputs.driver.brake = Some(0.5);
        inputs.aeb_brake = Some(1.0);
        let arb = arbitrate(&inputs, &params());
        assert_eq!(arb.longitudinal, CommandSource::Aeb);
        assert_eq!(arb.command.brake, 1.0);
        assert_eq!(arb.command.gas, 0.0);
    }

    #[test]
    fn aeb_suppresses_driver_steering() {
        // The paper's Observation 4 conflict: with AEB active the driver's
        // lateral correction is overridden back to the ADAS steering.
        let mut inputs = base_inputs();
        inputs.driver.steer = Some(-0.2);
        inputs.aeb_brake = Some(0.95);
        let arb = arbitrate(&inputs, &params());
        assert_eq!(arb.lateral, CommandSource::Adas);
        assert!((arb.command.steer - 0.02).abs() < 1e-12);
    }

    #[test]
    fn without_aeb_driver_keeps_steering_while_braking() {
        let mut inputs = base_inputs();
        inputs.driver.steer = Some(-0.2);
        inputs.driver.brake = Some(0.8);
        let arb = arbitrate(&inputs, &params());
        assert_eq!(arb.lateral, CommandSource::Driver);
        assert_eq!(arb.command.steer, -0.2);
        assert_eq!(arb.command.brake, 0.8);
    }

    #[test]
    fn aeb_with_ml_reverts_steer_to_ml() {
        let mut inputs = base_inputs();
        inputs.ml = Some(adas(0.5, 0.07));
        inputs.driver.steer = Some(-0.2);
        inputs.aeb_brake = Some(0.9);
        let arb = arbitrate(&inputs, &params());
        assert_eq!(arb.lateral, CommandSource::Ml);
        assert!((arb.command.steer - 0.07).abs() < 1e-12);
    }
}
