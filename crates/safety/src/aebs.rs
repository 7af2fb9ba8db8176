//! Advanced emergency braking system (AEBS) with forward collision warning.
//!
//! Implements the paper's TTC-based phase-controlled AEBS (Section III-C,
//! Eqs. (1)–(4), Table I), which follows UN R152 / Euro NCAP style
//! guidelines:
//!
//! * `ttc = RD / RS`                                          (1)
//! * `T_stop = V_ego / a_driver`                              (2)
//! * `t_fcw = T_react + T_stop`                               (3)
//! * `t_pb1 = V/3.8`, `t_pb2 = V/5.8`, `t_fb = V/9.8`         (4)
//!
//! | TTC in    | [t_fcw, t_pb1] | [t_pb1, t_pb2] | [t_pb2, t_fb] | [t_fb, 0] |
//! |-----------|----------------|----------------|---------------|-----------|
//! | Action    | FCW alert      | 90 % brake     | 95 % brake    | 100 %     |
//!
//! The paper evaluates three configurations (Section III-C): disabled,
//! enabled on compromised (DNN) data, and enabled on an independent sensor;
//! the *data source selection* happens in the platform — this module only
//! sees an `(RD, RS)` pair.

use adas_codec::{Encode, Writer};

/// Which data feeds the AEBS — the paper's three configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AebsMode {
    /// AEBS disabled entirely (some car models turn AEB off while the ADAS
    /// is engaged).
    #[default]
    Disabled,
    /// AEBS consumes the same (possibly fault-injected) DNN predictions the
    /// ACC uses.
    Compromised,
    /// AEBS consumes an independent, secure data source (e.g. radar).
    Independent,
}

impl AebsMode {
    /// True when the AEBS runs at all.
    #[must_use]
    pub fn enabled(self) -> bool {
        !matches!(self, AebsMode::Disabled)
    }

    /// Stable wire code (0 disabled, 1 compromised, 2 independent).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            AebsMode::Disabled => 0,
            AebsMode::Compromised => 1,
            AebsMode::Independent => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(AebsMode::Disabled),
            1 => Some(AebsMode::Compromised),
            2 => Some(AebsMode::Independent),
            _ => None,
        }
    }
}

impl Encode for AebsMode {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.code());
    }
}

/// AEBS tuning parameters; defaults follow the paper exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AebsConfig {
    /// Assumed human braking deceleration used for the FCW horizon
    /// (Eq. (2)), m/s².
    pub driver_decel: f64,
    /// Assumed human reaction time (Eq. (3)), seconds.
    pub driver_react_time: f64,
    /// Speed divisor for the first partial-braking phase (Eq. (4)).
    pub pb1_divisor: f64,
    /// Speed divisor for the second partial-braking phase.
    pub pb2_divisor: f64,
    /// Speed divisor for the full-braking phase.
    pub fb_divisor: f64,
    /// Brake fraction applied in the first phase.
    pub pb1_brake: f64,
    /// Brake fraction applied in the second phase.
    pub pb2_brake: f64,
    /// Brake fraction applied in the full-braking phase.
    pub fb_brake: f64,
}

impl Default for AebsConfig {
    fn default() -> Self {
        Self {
            driver_decel: 4.9,
            driver_react_time: 2.5,
            pb1_divisor: 3.8,
            pb2_divisor: 5.8,
            fb_divisor: 9.8,
            pb1_brake: 0.90,
            pb2_brake: 0.95,
            fb_brake: 1.00,
        }
    }
}

/// Braking phase currently active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AebsStage {
    /// No warning, no braking.
    Inactive,
    /// FCW alert only.
    Warning,
    /// 90 % partial braking.
    PartialOne,
    /// 95 % partial braking.
    PartialTwo,
    /// 100 % full braking.
    Full,
}

/// Output of one AEBS evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AebsOutput {
    /// Stage reached this step.
    pub stage: AebsStage,
    /// Whether the FCW alert is sounding (true for every stage ≥ Warning).
    pub fcw_alert: bool,
    /// Commanded brake fraction, if braking.
    pub brake: Option<f64>,
    /// The TTC the decision was based on, seconds.
    pub ttc: f64,
    /// The FCW threshold `t_fcw` used this step, seconds.
    pub t_fcw: f64,
}

/// Stateful AEBS: latches escalation so the brake does not chatter between
/// phases as TTC recovers during the stop.
#[derive(Debug, Clone)]
pub struct Aebs {
    config: AebsConfig,
    mode: AebsMode,
    latched_stage: AebsStage,
    first_brake_time: Option<f64>,
    first_fcw_time: Option<f64>,
}

impl Aebs {
    /// Creates an AEBS in the given mode.
    #[must_use]
    pub fn new(config: AebsConfig, mode: AebsMode) -> Self {
        Self {
            config,
            mode,
            latched_stage: AebsStage::Inactive,
            first_brake_time: None,
            first_fcw_time: None,
        }
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> AebsMode {
        self.mode
    }

    /// Time of the first braking activation, if any (for the paper's
    /// "mitigation time" metric).
    #[must_use]
    pub fn first_brake_time(&self) -> Option<f64> {
        self.first_brake_time
    }

    /// Time of the first FCW alert, if any.
    #[must_use]
    pub fn first_fcw_time(&self) -> Option<f64> {
        self.first_fcw_time
    }

    /// The FCW threshold for a given ego speed (Eq. (3)).
    #[must_use]
    pub fn t_fcw(&self, ego_speed: f64) -> f64 {
        self.config.driver_react_time + ego_speed / self.config.driver_decel
    }

    /// Evaluates the AEBS for one step.
    ///
    /// `distance`/`closing_speed` describe the lead vehicle as seen by this
    /// AEBS's data source (`None` when that source reports no lead);
    /// `ego_speed` comes from the CAN bus; `time` is the simulation clock.
    pub fn evaluate(&mut self, lead: Option<(f64, f64)>, ego_speed: f64, time: f64) -> AebsOutput {
        let t_fcw = self.t_fcw(ego_speed);
        if !self.mode.enabled() {
            return AebsOutput {
                stage: AebsStage::Inactive,
                fcw_alert: false,
                brake: None,
                ttc: f64::INFINITY,
                t_fcw,
            };
        }

        let ttc = match lead {
            Some((rd, rs)) if rs > 1e-6 && rd >= 0.0 => rd / rs,
            _ => f64::INFINITY,
        };

        let c = self.config;
        let v = ego_speed;
        let mut stage = if ttc <= v / c.fb_divisor {
            AebsStage::Full
        } else if ttc <= v / c.pb2_divisor {
            AebsStage::PartialTwo
        } else if ttc <= v / c.pb1_divisor {
            AebsStage::PartialOne
        } else if ttc <= t_fcw {
            AebsStage::Warning
        } else {
            AebsStage::Inactive
        };

        // Latch: once an emergency braking stage engages, the intervention
        // brakes the vehicle to a standstill (it does not feather on and
        // off as TTC recovers during the stop). This hold is what lets the
        // AEB arrest a lateral drift by stopping the vehicle outright — the
        // paper's observation that AEB prevents out-of-lane accidents.
        if ego_speed < 0.1 {
            self.latched_stage = AebsStage::Inactive;
        } else {
            stage = stage.max(self.latched_stage);
            if stage >= AebsStage::PartialOne {
                self.latched_stage = stage;
            }
        }

        let brake = match stage {
            AebsStage::Inactive | AebsStage::Warning => None,
            AebsStage::PartialOne => Some(c.pb1_brake),
            AebsStage::PartialTwo => Some(c.pb2_brake),
            AebsStage::Full => Some(c.fb_brake),
        };
        let fcw_alert = stage > AebsStage::Inactive;
        if fcw_alert && self.first_fcw_time.is_none() {
            self.first_fcw_time = Some(time);
        }
        if brake.is_some() && self.first_brake_time.is_none() {
            self.first_brake_time = Some(time);
        }

        AebsOutput {
            stage,
            fcw_alert,
            brake,
            ttc,
            t_fcw,
        }
    }

    /// Resets latches and trigger times (new run).
    pub fn reset(&mut self) {
        self.latched_stage = AebsStage::Inactive;
        self.first_brake_time = None;
        self.first_fcw_time = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_simulator::units::mph;

    fn aebs() -> Aebs {
        Aebs::new(AebsConfig::default(), AebsMode::Independent)
    }

    #[test]
    fn disabled_never_acts() {
        let mut a = Aebs::new(AebsConfig::default(), AebsMode::Disabled);
        let out = a.evaluate(Some((1.0, 20.0)), 25.0, 0.0);
        assert_eq!(out.stage, AebsStage::Inactive);
        assert!(out.brake.is_none());
        assert!(!out.fcw_alert);
    }

    #[test]
    fn table_i_phase_thresholds() {
        // V = 19 m/s → t_pb1 = 5.0, t_pb2 ≈ 3.276, t_fb ≈ 1.939,
        // t_fcw = 2.5 + 19/4.9 ≈ 6.378.
        let v: f64 = 19.0;
        let cases = [
            (6.0, AebsStage::Warning),
            (4.5, AebsStage::PartialOne),
            (2.5, AebsStage::PartialTwo),
            (1.5, AebsStage::Full),
            (8.0, AebsStage::Inactive),
        ];
        for (ttc, expected) in cases {
            let mut a = aebs();
            let rs = 8.0;
            let out = a.evaluate(Some((ttc * rs, rs)), v, 0.0);
            assert_eq!(out.stage, expected, "ttc={ttc}");
        }
    }

    #[test]
    fn brake_levels_match_table_i() {
        let v = 19.0;
        let mut a = aebs();
        assert_eq!(a.evaluate(Some((4.5 * 8.0, 8.0)), v, 0.0).brake, Some(0.90));
        a.reset();
        assert_eq!(a.evaluate(Some((2.5 * 8.0, 8.0)), v, 0.0).brake, Some(0.95));
        a.reset();
        assert_eq!(a.evaluate(Some((1.5 * 8.0, 8.0)), v, 0.0).brake, Some(1.00));
    }

    #[test]
    fn fcw_threshold_formula() {
        let a = aebs();
        // Paper Table IV S1: t_fcw ≈ 4.42 s at V ≈ 9.4 m/s.
        let t = a.t_fcw(9.4);
        assert!((t - (2.5 + 9.4 / 4.9)).abs() < 1e-12);
        assert!((t - 4.42).abs() < 0.05);
    }

    #[test]
    fn no_ttc_when_opening() {
        let mut a = aebs();
        let out = a.evaluate(Some((30.0, -2.0)), mph(50.0), 0.0);
        assert!(out.ttc.is_infinite());
        assert_eq!(out.stage, AebsStage::Inactive);
    }

    #[test]
    fn no_lead_no_action() {
        let mut a = aebs();
        let out = a.evaluate(None, mph(50.0), 0.0);
        assert_eq!(out.stage, AebsStage::Inactive);
    }

    #[test]
    fn latches_across_ttc_recovery() {
        let mut a = aebs();
        let v = 20.0;
        // Enter full braking.
        let out = a.evaluate(Some((4.0, 10.0)), v, 1.0);
        assert_eq!(out.stage, AebsStage::Full);
        // TTC recovers a bit (rs drops as we brake) but threat persists:
        // stage must not drop to a lighter phase.
        let out = a.evaluate(Some((4.0, 2.0)), 12.0, 1.1);
        assert_eq!(out.stage, AebsStage::Full, "must stay latched");
        // Fully stopped: release.
        let out = a.evaluate(Some((4.0, 0.0)), 0.0, 2.0);
        assert_eq!(out.stage, AebsStage::Inactive);
    }

    #[test]
    fn records_first_trigger_times() {
        let mut a = aebs();
        assert!(a.first_brake_time().is_none());
        let _ = a.evaluate(Some((100.0, 5.0)), 20.0, 0.5); // ttc 20: nothing
        let _ = a.evaluate(Some((20.0, 8.0)), 20.0, 1.5); // ttc 2.5: brake
        assert_eq!(a.first_brake_time(), Some(1.5));
        let _ = a.evaluate(Some((10.0, 8.0)), 18.0, 2.0);
        assert_eq!(a.first_brake_time(), Some(1.5), "first time latched");
    }

    #[test]
    fn warning_precedes_braking_when_approaching() {
        // Sweep a closing approach: the first alert must be a pure warning
        // before any braking phase fires (the Table I cascade).
        let mut a = aebs();
        let mut saw_warning_first = false;
        let mut rd = 120.0;
        let v = mph(50.0);
        let rs = v - mph(30.0);
        let mut t = 0.0;
        loop {
            let out = a.evaluate(Some((rd, rs)), v, t);
            if out.brake.is_some() {
                break;
            }
            if out.stage == AebsStage::Warning {
                saw_warning_first = true;
            }
            rd -= rs * 0.01;
            t += 0.01;
            assert!(rd > 0.0, "never braked during entire approach");
        }
        assert!(saw_warning_first);
    }

    #[test]
    fn reset_clears_latch() {
        let mut a = aebs();
        let _ = a.evaluate(Some((4.0, 10.0)), 20.0, 0.0);
        a.reset();
        assert!(a.first_brake_time().is_none());
        let out = a.evaluate(Some((200.0, 1.0)), 20.0, 0.0);
        assert_eq!(out.stage, AebsStage::Inactive);
    }
}
