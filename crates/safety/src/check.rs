//! Firmware-style safety constraint checking (PANDA replica).
//!
//! OpenPilot's PANDA CAN interface enforces command-range limits in firmware;
//! the paper replicates the logic in software because PANDA is unavailable in
//! simulation. The checker bounds the ADAS acceleration command to
//! `[-3.5, 2.0]` m/s² (ISO 22179-derived, the exact PANDA thresholds the
//! paper cites) and rate-limits the steering command. It applies to the
//! *ADAS/ML* outputs only; emergency actors (AEB, the human driver) act
//! below this layer.

use adas_control::AdasCommand;

/// Safety-check limits; defaults follow the paper / PANDA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyCheckConfig {
    /// Maximum allowed commanded acceleration, m/s².
    pub max_accel: f64,
    /// Minimum allowed commanded acceleration (most negative), m/s².
    pub min_accel: f64,
    /// Maximum steering angle magnitude the ADAS may command, radians.
    pub max_steer: f64,
    /// Maximum steering-angle change per second, rad/s.
    pub max_steer_rate: f64,
}

impl Default for SafetyCheckConfig {
    fn default() -> Self {
        Self {
            max_accel: 2.0,
            min_accel: -3.5,
            max_steer: 0.45,
            max_steer_rate: 0.5,
        }
    }
}

/// Outcome of checking one command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckedCommand {
    /// The (possibly clamped) command to forward.
    pub command: AdasCommand,
    /// True if the acceleration had to be limited.
    pub accel_limited: bool,
    /// True if the steering had to be limited.
    pub steer_limited: bool,
}

/// Stateful safety checker (remembers the last steering command for rate
/// limiting and counts violations).
#[derive(Debug, Clone)]
pub struct SafetyCheck {
    config: SafetyCheckConfig,
    last_steer: f64,
    violations: u64,
}

impl SafetyCheck {
    /// Creates a checker.
    #[must_use]
    pub fn new(config: SafetyCheckConfig) -> Self {
        Self {
            config,
            last_steer: 0.0,
            violations: 0,
        }
    }

    /// Total number of commands that required clamping so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Checks and clamps one ADAS command.
    pub fn check(&mut self, command: AdasCommand, dt: f64) -> CheckedCommand {
        let c = self.config;
        let accel = command.accel.clamp(c.min_accel, c.max_accel);
        let accel_limited = accel != command.accel;

        let steer_abs = command.steer.clamp(-c.max_steer, c.max_steer);
        let max_delta = c.max_steer_rate * dt;
        let steer = steer_abs.clamp(self.last_steer - max_delta, self.last_steer + max_delta);
        let steer_limited = (steer - command.steer).abs() > 1e-12;
        self.last_steer = steer;

        if accel_limited || steer_limited {
            self.violations += 1;
        }
        CheckedCommand {
            command: AdasCommand {
                accel,
                steer,
                lead_engaged: command.lead_engaged,
            },
            accel_limited,
            steer_limited,
        }
    }

    /// Resets the rate-limit memory and violation counter (new run).
    pub fn reset(&mut self) {
        self.last_steer = 0.0;
        self.violations = 0;
    }
}

impl Default for SafetyCheck {
    fn default() -> Self {
        Self::new(SafetyCheckConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(accel: f64, steer: f64) -> AdasCommand {
        AdasCommand {
            accel,
            steer,
            lead_engaged: false,
        }
    }

    #[test]
    fn passes_compliant_commands() {
        let mut sc = SafetyCheck::default();
        let out = sc.check(cmd(1.0, 0.001), 0.01);
        assert!(!out.accel_limited && !out.steer_limited);
        assert_eq!(out.command.accel, 1.0);
        assert_eq!(sc.violations(), 0);
    }

    #[test]
    fn clamps_hard_braking_to_paper_limit() {
        let mut sc = SafetyCheck::default();
        let out = sc.check(cmd(-8.0, 0.0), 0.01);
        assert!(out.accel_limited);
        assert_eq!(out.command.accel, -3.5);
    }

    #[test]
    fn clamps_excess_acceleration() {
        let mut sc = SafetyCheck::default();
        let out = sc.check(cmd(4.0, 0.0), 0.01);
        assert_eq!(out.command.accel, 2.0);
    }

    #[test]
    fn rate_limits_steering() {
        let mut sc = SafetyCheck::default();
        // 0.5 rad/s × 0.01 s = 0.005 rad per step.
        let out = sc.check(cmd(0.0, 0.3), 0.01);
        assert!(out.steer_limited);
        assert!((out.command.steer - 0.005).abs() < 1e-12);
        // Next step continues from the limited value.
        let out2 = sc.check(cmd(0.0, 0.3), 0.01);
        assert!((out2.command.steer - 0.010).abs() < 1e-12);
    }

    #[test]
    fn absolute_steer_limit() {
        let mut sc = SafetyCheck::default();
        let mut last = 0.0;
        for _ in 0..200 {
            last = sc.check(cmd(0.0, 1.0), 0.01).command.steer;
        }
        assert!((last - SafetyCheckConfig::default().max_steer).abs() < 1e-9);
    }

    #[test]
    fn counts_violations() {
        let mut sc = SafetyCheck::default();
        let _ = sc.check(cmd(-9.0, 0.0), 0.01);
        let _ = sc.check(cmd(0.0, 0.0), 0.01);
        let _ = sc.check(cmd(3.0, 0.0), 0.01);
        assert_eq!(sc.violations(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut sc = SafetyCheck::default();
        let _ = sc.check(cmd(0.0, 0.3), 0.01);
        sc.reset();
        assert_eq!(sc.violations(), 0);
        let out = sc.check(cmd(0.0, 0.3), 0.01);
        assert!((out.command.steer - 0.005).abs() < 1e-12);
    }
}
