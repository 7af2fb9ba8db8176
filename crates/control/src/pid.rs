//! A small PID controller with output limits and anti-windup.

/// PID gains and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Lower output bound.
    pub out_min: f64,
    /// Upper output bound.
    pub out_max: f64,
}

/// A PID controller instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    prev_error: Option<f64>,
}

impl Pid {
    /// Creates a controller from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `out_min > out_max`.
    #[must_use]
    pub fn new(config: PidConfig) -> Self {
        assert!(config.out_min <= config.out_max, "inverted output bounds");
        Self {
            config,
            integral: 0.0,
            prev_error: None,
        }
    }

    /// Advances the controller by `dt` with the given error and returns the
    /// clamped output. Integral windup is prevented by conditional
    /// integration (the integral freezes while the output is saturated in
    /// the error's direction).
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        let c = self.config;
        let derivative = match self.prev_error {
            Some(prev) if dt > 0.0 => (error - prev) / dt,
            _ => 0.0,
        };
        self.prev_error = Some(error);

        let unclamped = c.kp * error + c.ki * (self.integral + error * dt) + c.kd * derivative;
        let saturated_high = unclamped > c.out_max && error > 0.0;
        let saturated_low = unclamped < c.out_min && error < 0.0;
        if !saturated_high && !saturated_low {
            self.integral += error * dt;
        }
        (c.kp * error + c.ki * self.integral + c.kd * derivative).clamp(c.out_min, c.out_max)
    }

    /// Resets integral and derivative history.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(kp: f64, ki: f64, kd: f64) -> Pid {
        Pid::new(PidConfig {
            kp,
            ki,
            kd,
            out_min: -1.0,
            out_max: 1.0,
        })
    }

    #[test]
    fn proportional_only() {
        let mut p = pid(0.5, 0.0, 0.0);
        assert!((p.update(1.0, 0.01) - 0.5).abs() < 1e-12);
        assert!((p.update(-0.4, 0.01) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn output_clamped() {
        let mut p = pid(10.0, 0.0, 0.0);
        assert_eq!(p.update(5.0, 0.01), 1.0);
        assert_eq!(p.update(-5.0, 0.01), -1.0);
    }

    #[test]
    fn integral_accumulates() {
        let mut p = pid(0.0, 1.0, 0.0);
        let mut out = 0.0;
        for _ in 0..100 {
            out = p.update(0.5, 0.01);
        }
        assert!((out - 0.5).abs() < 0.02, "out={out}");
    }

    #[test]
    fn anti_windup_freezes_integral() {
        let mut p = pid(0.0, 10.0, 0.0);
        for _ in 0..1000 {
            let _ = p.update(1.0, 0.01); // saturated at +1 the whole time
        }
        // Error reverses; output must unwind quickly, not after a long
        // integral discharge.
        let mut steps = 0;
        loop {
            let out = p.update(-1.0, 0.01);
            steps += 1;
            if out < 0.0 || steps > 200 {
                break;
            }
        }
        assert!(steps < 50, "windup held for {steps} steps");
    }

    #[test]
    fn derivative_damps_change() {
        let mut p = pid(0.0, 0.0, 0.01);
        let _ = p.update(0.0, 0.01);
        let out = p.update(0.5, 0.01); // error rising fast
        assert!(out > 0.0);
        let out2 = p.update(0.5, 0.01); // error steady → derivative zero
        assert_eq!(out2, 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = pid(0.0, 1.0, 1.0);
        let _ = p.update(1.0, 0.1);
        let _ = p.update(1.0, 0.1);
        p.reset();
        let out = p.update(0.0, 0.1);
        assert_eq!(out, 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted output bounds")]
    fn inverted_bounds_panic() {
        let _ = Pid::new(PidConfig {
            kp: 1.0,
            ki: 0.0,
            kd: 0.0,
            out_min: 1.0,
            out_max: -1.0,
        });
    }
}
