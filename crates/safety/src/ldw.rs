//! Lane departure warning (LDW).
//!
//! A camera-based alert that fires when the vehicle's body edge approaches a
//! lane line. Its output is one of the driver model's lateral triggers
//! (paper Table II). The warning consumes the perception module's lane-line
//! predictions — in the paper's threat model the adversarial road patch
//! poisons the *desired curvature* output, while lane-line positions remain
//! usable, which is why LDW still helps against ALC attacks.

/// LDW parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdwConfig {
    /// Edge-to-line distance below which the warning fires, metres.
    pub warn_distance: f64,
    /// Additional early warning when drifting outward faster than this,
    /// m/s, inside `warn_distance + margin`.
    pub drift_rate: f64,
    /// Extra distance margin for the drift-based warning, metres.
    pub drift_margin: f64,
}

impl Default for LdwConfig {
    fn default() -> Self {
        Self {
            warn_distance: 0.30,
            drift_rate: 0.35,
            drift_margin: 0.30,
        }
    }
}

/// Stateful LDW (estimates the drift rate between frames).
#[derive(Debug, Clone)]
pub struct Ldw {
    config: LdwConfig,
    prev_distance: Option<f64>,
    first_alert_time: Option<f64>,
}

impl Ldw {
    /// Creates the warning system.
    #[must_use]
    pub fn new(config: LdwConfig) -> Self {
        Self {
            config,
            prev_distance: None,
            first_alert_time: None,
        }
    }

    /// Time of the first alert, if any.
    #[must_use]
    pub fn first_alert_time(&self) -> Option<f64> {
        self.first_alert_time
    }

    /// Evaluates the warning for one step.
    ///
    /// `edge_distance` is the (perceived) distance from the vehicle's body
    /// edge to the nearest lane line, metres; may be negative once the edge
    /// pokes over the line.
    pub fn evaluate(&mut self, edge_distance: f64, time: f64, dt: f64) -> bool {
        let c = self.config;
        let rate = match self.prev_distance {
            Some(prev) if dt > 0.0 => (prev - edge_distance) / dt, // positive = closing
            _ => 0.0,
        };
        self.prev_distance = Some(edge_distance);

        let alert = edge_distance < c.warn_distance
            || (rate > c.drift_rate && edge_distance < c.warn_distance + c.drift_margin);
        if alert && self.first_alert_time.is_none() {
            self.first_alert_time = Some(time);
        }
        alert
    }

    /// Resets the drift estimator (new run).
    pub fn reset(&mut self) {
        self.prev_distance = None;
        self.first_alert_time = None;
    }
}

impl Default for Ldw {
    fn default() -> Self {
        Self::new(LdwConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_vehicle_no_alert() {
        let mut ldw = Ldw::default();
        assert!(!ldw.evaluate(0.8, 0.0, 0.01));
        assert!(ldw.first_alert_time().is_none());
    }

    #[test]
    fn close_to_line_alerts() {
        let mut ldw = Ldw::default();
        assert!(ldw.evaluate(0.2, 1.0, 0.01));
        assert_eq!(ldw.first_alert_time(), Some(1.0));
    }

    #[test]
    fn fast_drift_alerts_early() {
        let mut ldw = Ldw::default();
        let _ = ldw.evaluate(0.55, 0.0, 0.01);
        // Closing at 1 m/s (0.01 m per 10 ms step) inside the margin band.
        assert!(ldw.evaluate(0.54, 0.01, 0.01));
    }

    #[test]
    fn slow_drift_far_from_line_is_fine() {
        let mut ldw = Ldw::default();
        let _ = ldw.evaluate(0.80, 0.0, 0.01);
        assert!(!ldw.evaluate(0.7999, 0.01, 0.01));
    }

    #[test]
    fn negative_distance_always_alerts() {
        let mut ldw = Ldw::default();
        assert!(ldw.evaluate(-0.1, 0.0, 0.01));
    }

    #[test]
    fn first_alert_latched() {
        let mut ldw = Ldw::default();
        let _ = ldw.evaluate(0.1, 2.0, 0.01);
        let _ = ldw.evaluate(0.05, 3.0, 0.01);
        assert_eq!(ldw.first_alert_time(), Some(2.0));
    }

    #[test]
    fn reset_clears() {
        let mut ldw = Ldw::default();
        let _ = ldw.evaluate(0.1, 2.0, 0.01);
        ldw.reset();
        assert!(ldw.first_alert_time().is_none());
    }
}
