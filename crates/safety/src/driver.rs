//! Rule-based human-driver reaction simulator (paper Table II).
//!
//! At Level-2 autonomy the driver must monitor and intervene. The simulator
//! watches the *true* world — a physical adversarial patch fools the DNN,
//! not human eyes — and reacts after a configurable reaction time
//! (default 2.5 s, swept 1.0–3.5 s in the paper's Table VII):
//!
//! | Activation condition                  | Reaction                        |
//! |---------------------------------------|---------------------------------|
//! | FCW alert, unsafe cruise speed,       | emergency brake, zero throttle, |
//! | unexpected acceleration, unsafe       | steering unchanged              |
//! | following distance, vehicle cutting in|                                 |
//! | LDW, unsafe distance to lane lines    | steer back to the lane center   |
//!
//! The emergency-brake profile ramps to a strong pedal level, following
//! driver brake-response studies (Gaspar & McGehee).

/// Driver model parameters; defaults follow the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Time between a hazard becoming observable and the driver acting,
    /// seconds.
    pub reaction_time: f64,
    /// Peak emergency brake fraction.
    pub brake_peak: f64,
    /// Time to ramp from first pedal contact to the peak, seconds.
    pub brake_ramp: f64,
    /// Following distance below which the driver panics, metres (the paper
    /// uses "less than a vehicle length").
    pub unsafe_follow_distance: f64,
    /// Cruise speed is unsafe above `speed_limit × unsafe_cruise_factor`
    /// (the paper uses +10 % of the limit).
    pub unsafe_cruise_factor: f64,
    /// Posted speed limit, m/s.
    pub speed_limit: f64,
    /// Gap below which commanded acceleration towards the lead alarms the
    /// driver, metres.
    pub unexpected_accel_gap: f64,
    /// Commanded acceleration above which (with a close lead) the driver
    /// considers it unexpected, m/s².
    pub unexpected_accel_threshold: f64,
    /// Edge-to-line distance below which the driver corrects laterally,
    /// metres (the paper uses 0.5 m).
    pub lane_line_threshold: f64,
    /// Proportional steering gain on lateral offset, rad/m.
    pub steer_gain_offset: f64,
    /// Damping steering gain on heading error, rad/rad.
    pub steer_gain_heading: f64,
    /// Driver steering authority, radians.
    pub steer_limit: f64,
    /// Threat must stay clear this long before the driver releases the
    /// brake, seconds.
    pub release_hold: f64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            reaction_time: 2.5,
            brake_peak: 0.55,
            brake_ramp: 0.4,
            unsafe_follow_distance: 4.9,
            unsafe_cruise_factor: 1.1,
            speed_limit: adas_simulator::units::mph(50.0),
            unexpected_accel_gap: 20.0,
            unexpected_accel_threshold: 1.0,
            lane_line_threshold: 0.5,
            steer_gain_offset: 0.09,
            steer_gain_heading: 1.0,
            steer_limit: 0.25,
            release_hold: 2.0,
        }
    }
}

impl DriverConfig {
    /// A config identical to the default except for the reaction time — the
    /// Table VII sweep.
    #[must_use]
    pub fn with_reaction_time(reaction_time: f64) -> Self {
        Self {
            reaction_time,
            ..Self::default()
        }
    }
}

/// What the driver can observe in one step (ground truth + alerts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverInputs {
    /// Simulation clock, seconds.
    pub time: f64,
    /// Whether the FCW alert is sounding.
    pub fcw_alert: bool,
    /// Whether an LDW alert is active.
    pub ldw_alert: bool,
    /// Ego speed, m/s.
    pub ego_speed: f64,
    /// Acceleration the ADAS is commanding this cycle, m/s².
    pub adas_accel: f64,
    /// The vehicle's realised acceleration, m/s² — what the driver's body
    /// actually feels.
    pub ego_accel: f64,
    /// True bumper gap and closing speed to the lead, if one exists.
    pub true_lead: Option<(f64, f64)>,
    /// Whether another vehicle is cutting into the lane.
    pub cut_in: bool,
    /// True lateral offset of the ego from its lane center, metres.
    pub lateral_offset: f64,
    /// True heading error relative to the road tangent, radians.
    pub heading_error: f64,
    /// True distance from the ego's body edge to the nearest lane line,
    /// metres.
    pub lane_line_distance: f64,
}

/// Which longitudinal condition first triggered the driver (for analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrakeTrigger {
    /// Forward collision warning from the AEBS.
    FcwAlert,
    /// Speed above 110 % of the limit.
    UnsafeCruiseSpeed,
    /// Throttle while close behind the lead.
    UnexpectedAcceleration,
    /// Gap below one vehicle length.
    UnsafeFollowingDistance,
    /// Vehicle cutting in from an adjacent lane.
    CutIn,
}

/// Driver output for one step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DriverAction {
    /// Emergency brake fraction, if braking.
    pub brake: Option<f64>,
    /// Corrective steering angle, if steering.
    pub steer: Option<f64>,
}

/// The stateful driver model.
#[derive(Debug, Clone)]
pub struct DriverModel {
    config: DriverConfig,
    // Longitudinal channel.
    accel_anomaly_steps: u32,
    brake_scheduled: Option<f64>,
    braking_since: Option<f64>,
    last_brake_threat: Option<f64>,
    first_brake_trigger: Option<(f64, BrakeTrigger)>,
    // Lateral channel.
    steer_scheduled: Option<f64>,
    steering: bool,
    last_steer_threat: Option<f64>,
    first_steer_trigger: Option<f64>,
}

impl DriverModel {
    /// Creates a driver with the given parameters.
    #[must_use]
    pub fn new(config: DriverConfig) -> Self {
        Self {
            config,
            accel_anomaly_steps: 0,
            brake_scheduled: None,
            braking_since: None,
            last_brake_threat: None,
            first_brake_trigger: None,
            steer_scheduled: None,
            steering: false,
            last_steer_threat: None,
            first_steer_trigger: None,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Time and cause of the first longitudinal trigger condition, if any.
    #[must_use]
    pub fn first_brake_trigger(&self) -> Option<(f64, BrakeTrigger)> {
        self.first_brake_trigger
    }

    /// Time of the first lateral trigger condition, if any.
    #[must_use]
    pub fn first_steer_trigger(&self) -> Option<f64> {
        self.first_steer_trigger
    }

    /// True while the emergency brake is being applied.
    #[must_use]
    pub fn is_braking(&self) -> bool {
        self.braking_since.is_some()
    }

    /// True while the corrective steering is being applied.
    #[must_use]
    pub fn is_steering(&self) -> bool {
        self.steering
    }

    fn brake_threat(&self, inputs: &DriverInputs) -> Option<BrakeTrigger> {
        let c = &self.config;
        if inputs.fcw_alert {
            return Some(BrakeTrigger::FcwAlert);
        }
        if inputs.ego_speed > c.speed_limit * c.unsafe_cruise_factor {
            return Some(BrakeTrigger::UnsafeCruiseSpeed);
        }
        if let Some((rd, closing)) = inputs.true_lead {
            if rd < c.unsafe_follow_distance {
                return Some(BrakeTrigger::UnsafeFollowingDistance);
            }
            // Sustained felt acceleration towards a close lead: the driver
            // needs ~0.25 s of it before registering it as anomalous.
            if closing > 1.0
                && rd < c.unexpected_accel_gap
                && inputs.ego_accel > c.unexpected_accel_threshold
                && self.accel_anomaly_steps >= 25
            {
                return Some(BrakeTrigger::UnexpectedAcceleration);
            }
        }
        if inputs.cut_in {
            return Some(BrakeTrigger::CutIn);
        }
        None
    }

    fn steer_threat(&self, inputs: &DriverInputs) -> bool {
        inputs.ldw_alert || inputs.lane_line_distance < self.config.lane_line_threshold
    }

    /// Advances the driver by one step and returns any manual inputs.
    pub fn update(&mut self, inputs: &DriverInputs) -> DriverAction {
        let c = self.config;
        let t = inputs.time;

        // ---- Longitudinal channel ----------------------------------------
        let accel_anomalous = inputs.ego_accel > c.unexpected_accel_threshold
            && inputs
                .true_lead
                .is_some_and(|(rd, closing)| closing > 1.0 && rd < c.unexpected_accel_gap);
        if accel_anomalous {
            self.accel_anomaly_steps = self.accel_anomaly_steps.saturating_add(1);
        } else {
            self.accel_anomaly_steps = 0;
        }
        let threat = self.brake_threat(inputs);
        if let Some(cause) = threat {
            self.last_brake_threat = Some(t);
            if self.first_brake_trigger.is_none() {
                self.first_brake_trigger = Some((t, cause));
            }
            if self.braking_since.is_none() && self.brake_scheduled.is_none() {
                self.brake_scheduled = Some(t + c.reaction_time);
            }
        }
        if let Some(when) = self.brake_scheduled {
            if t >= when {
                self.brake_scheduled = None;
                // Act only if the threat was still live recently; otherwise
                // the driver relaxes without braking.
                if self.last_brake_threat.is_some_and(|lt| t - lt <= 1.0) {
                    self.braking_since = Some(t);
                }
            }
        }
        if let Some(_since) = self.braking_since {
            let clear = self
                .last_brake_threat
                .is_none_or(|lt| t - lt > c.release_hold);
            if clear && inputs.ego_speed > 0.5 {
                self.braking_since = None;
            }
        }
        let brake = self.braking_since.map(|since| {
            let ramp = ((t - since) / c.brake_ramp).clamp(0.0, 1.0);
            c.brake_peak * ramp.max(0.2)
        });

        // ---- Lateral channel ----------------------------------------------
        if self.steer_threat(inputs) {
            self.last_steer_threat = Some(t);
            if self.first_steer_trigger.is_none() {
                self.first_steer_trigger = Some(t);
            }
            if !self.steering && self.steer_scheduled.is_none() {
                self.steer_scheduled = Some(t + c.reaction_time);
            }
        }
        if let Some(when) = self.steer_scheduled {
            if t >= when {
                self.steer_scheduled = None;
                if self.last_steer_threat.is_some_and(|lt| t - lt <= 1.0) {
                    self.steering = true;
                }
            }
        }
        // Release the wheel only once the vehicle is centred AND the lateral
        // threat has stayed quiet — an alerted driver keeps correcting while
        // the automation keeps pulling towards the line.
        if self.steering
            && inputs.lateral_offset.abs() < 0.15
            && inputs.heading_error.abs() < 0.02
            && self.last_steer_threat.is_none_or(|lt| t - lt > 1.5)
        {
            self.steering = false;
        }
        let steer = if self.steering {
            Some(
                (-c.steer_gain_offset * inputs.lateral_offset
                    - c.steer_gain_heading * inputs.heading_error)
                    .clamp(-c.steer_limit, c.steer_limit),
            )
        } else {
            None
        };

        DriverAction { brake, steer }
    }

    /// Resets all driver state (new run).
    pub fn reset(&mut self) {
        *self = Self::new(self.config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_inputs(t: f64) -> DriverInputs {
        DriverInputs {
            time: t,
            fcw_alert: false,
            ldw_alert: false,
            ego_speed: 20.0,
            adas_accel: 0.0,
            ego_accel: 0.0,
            true_lead: None,
            cut_in: false,
            lateral_offset: 0.0,
            heading_error: 0.0,
            lane_line_distance: 0.8,
        }
    }

    fn run_driver(
        driver: &mut DriverModel,
        mut make: impl FnMut(f64) -> DriverInputs,
        t0: f64,
        t1: f64,
    ) -> Vec<(f64, DriverAction)> {
        let mut out = Vec::new();
        let mut t = t0;
        while t < t1 {
            out.push((t, driver.update(&make(t))));
            t += 0.01;
        }
        out
    }

    #[test]
    fn no_threat_no_action() {
        let mut d = DriverModel::new(DriverConfig::default());
        let log = run_driver(&mut d, quiet_inputs, 0.0, 5.0);
        assert!(log
            .iter()
            .all(|(_, a)| a.brake.is_none() && a.steer.is_none()));
        assert!(d.first_brake_trigger().is_none());
    }

    #[test]
    fn fcw_brake_after_reaction_time() {
        let mut d = DriverModel::new(DriverConfig::default());
        let log = run_driver(
            &mut d,
            |t| DriverInputs {
                fcw_alert: true,
                true_lead: Some((20.0, 8.0)),
                ..quiet_inputs(t)
            },
            0.0,
            4.0,
        );
        let first_brake = log
            .iter()
            .find(|(_, a)| a.brake.is_some())
            .expect("driver must brake")
            .0;
        assert!((first_brake - 2.5).abs() < 0.05, "braked at {first_brake}");
        assert_eq!(d.first_brake_trigger().unwrap().1, BrakeTrigger::FcwAlert);
        assert!((d.first_brake_trigger().unwrap().0 - 0.0).abs() < 1e-9);
    }

    #[test]
    fn shorter_reaction_time_brakes_sooner() {
        let mut d = DriverModel::new(DriverConfig::with_reaction_time(1.0));
        let log = run_driver(
            &mut d,
            |t| DriverInputs {
                fcw_alert: true,
                true_lead: Some((20.0, 8.0)),
                ..quiet_inputs(t)
            },
            0.0,
            3.0,
        );
        let first = log.iter().find(|(_, a)| a.brake.is_some()).unwrap().0;
        assert!((first - 1.0).abs() < 0.05);
    }

    #[test]
    fn brake_ramps_to_peak() {
        let mut d = DriverModel::new(DriverConfig::default());
        let log = run_driver(
            &mut d,
            |t| DriverInputs {
                fcw_alert: true,
                true_lead: Some((20.0, 8.0)),
                ..quiet_inputs(t)
            },
            0.0,
            4.0,
        );
        let peak = log
            .iter()
            .filter_map(|(_, a)| a.brake)
            .fold(0.0_f64, f64::max);
        assert!((peak - DriverConfig::default().brake_peak).abs() < 1e-9);
    }

    #[test]
    fn unsafe_following_distance_triggers() {
        let mut d = DriverModel::new(DriverConfig::default());
        let _ = run_driver(
            &mut d,
            |t| DriverInputs {
                true_lead: Some((3.0, 2.0)),
                ..quiet_inputs(t)
            },
            0.0,
            0.1,
        );
        assert_eq!(
            d.first_brake_trigger().unwrap().1,
            BrakeTrigger::UnsafeFollowingDistance
        );
    }

    #[test]
    fn unexpected_acceleration_triggers_after_sustained_burst() {
        let mut d = DriverModel::new(DriverConfig::default());
        // A brief blip is ignored…
        for t in 0..10 {
            let _ = d.update(&DriverInputs {
                true_lead: Some((15.0, 5.0)),
                ego_accel: 1.5,
                ..quiet_inputs(t as f64 * 0.01)
            });
        }
        let _ = d.update(&DriverInputs {
            true_lead: Some((15.0, 5.0)),
            ego_accel: 0.0,
            ..quiet_inputs(0.1)
        });
        assert!(d.first_brake_trigger().is_none());
        // …but a sustained burst registers.
        for t in 0..40 {
            let _ = d.update(&DriverInputs {
                true_lead: Some((15.0, 5.0)),
                ego_accel: 1.5,
                ..quiet_inputs(0.2 + t as f64 * 0.01)
            });
        }
        assert_eq!(
            d.first_brake_trigger().unwrap().1,
            BrakeTrigger::UnexpectedAcceleration
        );
    }

    #[test]
    fn overspeed_triggers() {
        let mut d = DriverModel::new(DriverConfig::default());
        let limit = DriverConfig::default().speed_limit;
        let _ = d.update(&DriverInputs {
            ego_speed: limit * 1.2,
            ..quiet_inputs(0.0)
        });
        assert_eq!(
            d.first_brake_trigger().unwrap().1,
            BrakeTrigger::UnsafeCruiseSpeed
        );
    }

    #[test]
    fn cut_in_triggers() {
        let mut d = DriverModel::new(DriverConfig::default());
        let _ = d.update(&DriverInputs {
            cut_in: true,
            ..quiet_inputs(0.0)
        });
        assert_eq!(d.first_brake_trigger().unwrap().1, BrakeTrigger::CutIn);
    }

    #[test]
    fn transient_threat_is_forgotten() {
        // Threat lasts 0.2 s then disappears; at the end of the reaction time
        // the driver should not slam the brakes.
        let mut d = DriverModel::new(DriverConfig::default());
        let log = run_driver(
            &mut d,
            |t| DriverInputs {
                fcw_alert: t < 0.2,
                true_lead: Some((60.0, 1.0)),
                ..quiet_inputs(t)
            },
            0.0,
            6.0,
        );
        assert!(log.iter().all(|(_, a)| a.brake.is_none()));
    }

    #[test]
    fn steering_corrects_lane_drift() {
        let mut d = DriverModel::new(DriverConfig::default());
        let log = run_driver(
            &mut d,
            |t| DriverInputs {
                lateral_offset: 1.2,
                lane_line_distance: 0.2,
                ..quiet_inputs(t)
            },
            0.0,
            4.0,
        );
        let (when, act) = log
            .iter()
            .find(|(_, a)| a.steer.is_some())
            .expect("driver must steer");
        assert!((when - 2.5).abs() < 0.05);
        // Off to the left → steer right (negative).
        assert!(act.steer.unwrap() < 0.0);
        assert!(d.first_steer_trigger().is_some());
    }

    #[test]
    fn steering_releases_once_centered() {
        let mut d = DriverModel::new(DriverConfig::default());
        // Trigger and engage.
        let _ = run_driver(
            &mut d,
            |t| DriverInputs {
                lateral_offset: 1.0,
                lane_line_distance: 0.1,
                ..quiet_inputs(t)
            },
            0.0,
            3.0,
        );
        assert!(d.is_steering());
        // Vehicle back in the center with the threat quiet: the driver holds
        // on briefly, then releases.
        let mut t = 3.0;
        while t < 6.0 {
            let _ = d.update(&DriverInputs {
                lateral_offset: 0.05,
                heading_error: 0.0,
                lane_line_distance: 0.8,
                ..quiet_inputs(t)
            });
            t += 0.01;
        }
        assert!(!d.is_steering());
    }

    #[test]
    fn brake_releases_after_threat_clears() {
        let mut d = DriverModel::new(DriverConfig::default());
        // Persistent threat for 4 s.
        let _ = run_driver(
            &mut d,
            |t| DriverInputs {
                fcw_alert: true,
                true_lead: Some((15.0, 6.0)),
                ..quiet_inputs(t)
            },
            0.0,
            4.0,
        );
        assert!(d.is_braking());
        // Threat gone; release after release_hold.
        let log = run_driver(&mut d, quiet_inputs, 4.0, 8.0);
        assert!(!d.is_braking());
        assert!(log.iter().any(|(_, a)| a.brake.is_none()));
    }

    #[test]
    fn ldw_alert_triggers_steering_channel() {
        let mut d = DriverModel::new(DriverConfig::default());
        let _ = d.update(&DriverInputs {
            ldw_alert: true,
            ..quiet_inputs(0.0)
        });
        assert!(d.first_steer_trigger().is_some());
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut d = DriverModel::new(DriverConfig::default());
        let _ = d.update(&DriverInputs {
            fcw_alert: true,
            ..quiet_inputs(0.0)
        });
        d.reset();
        assert!(d.first_brake_trigger().is_none());
        assert!(!d.is_braking());
    }
}
