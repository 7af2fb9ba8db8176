//! Per-run metric aggregation.
//!
//! Collects, while a run executes, every quantity the paper's tables report:
//! minimum TTC and the FCW threshold at that moment (Table IV), the hardest
//! brake command, the stable following distance, the minimum distance to
//! lane lines (Table V), hazard/accident outcomes, and
//! intervention trigger times (Table VI's mitigation times / trigger rates).

use crate::hazards::AccidentKind;

/// Streaming aggregator updated every simulation step.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    min_ttc: Option<f64>,
    t_fcw_at_min_ttc: f64,
    max_brake: f64,
    min_lane_line_distance: Option<f64>,
    follow_sum: f64,
    follow_count: u64,
    steps: u64,
}

impl RunMetrics {
    /// A fresh aggregator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one step of ground truth into the aggregator.
    ///
    /// * `true_rd`/`closing` — the real gap and closing speed, if a lead
    ///   vehicle exists;
    /// * `t_fcw_now` — the AEBS's FCW horizon at the current ego speed;
    /// * `brake_cmd` — the brake fraction actually sent to the actuators;
    /// * `lane_line_distance` — edge-to-line distance, metres.
    pub fn step(
        &mut self,
        true_rd: Option<f64>,
        closing: Option<f64>,
        t_fcw_now: f64,
        brake_cmd: f64,
        lane_line_distance: f64,
    ) {
        self.steps += 1;
        if let (Some(rd), Some(cl)) = (true_rd, closing) {
            if cl > 1e-6 {
                let ttc = rd / cl;
                if self.min_ttc.is_none_or(|m| ttc < m) {
                    self.min_ttc = Some(ttc);
                    self.t_fcw_at_min_ttc = t_fcw_now;
                }
            }
            // "Stable following": closing nearly zero at a plausible gap.
            if cl.abs() < 1.0 && (5.0..80.0).contains(&rd) {
                self.follow_sum += rd;
                self.follow_count += 1;
            }
        }
        self.max_brake = self.max_brake.max(brake_cmd);
        if self
            .min_lane_line_distance
            .is_none_or(|m| lane_line_distance < m)
        {
            self.min_lane_line_distance = Some(lane_line_distance);
        }
    }

    /// Finalises the aggregates into a [`RunRecord`] skeleton; outcome and
    /// intervention fields are filled by the platform.
    #[must_use]
    pub fn finish(&self) -> RunRecord {
        RunRecord {
            min_ttc: self.min_ttc.unwrap_or(f64::INFINITY),
            t_fcw_at_min_ttc: self.t_fcw_at_min_ttc,
            max_brake: self.max_brake,
            avg_following_distance: if self.follow_count > 0 {
                self.follow_sum / self.follow_count as f64
            } else {
                f64::NAN
            },
            min_lane_line_distance: self.min_lane_line_distance.unwrap_or(f64::NAN),
            steps: self.steps,
            ..RunRecord::default()
        }
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Minimum ground-truth TTC over the run, seconds.
    pub min_ttc: f64,
    /// FCW threshold at the minimum-TTC moment, seconds (Table IV's t_fcw).
    pub t_fcw_at_min_ttc: f64,
    /// Hardest brake actuator command over the run, fraction.
    pub max_brake: f64,
    /// Mean gap during stable following, metres (NaN when never stable).
    pub avg_following_distance: f64,
    /// Minimum edge-to-lane-line distance, metres.
    pub min_lane_line_distance: f64,
    /// Steps executed (runs end early on accidents).
    pub steps: u64,
    /// First H1 hazard time, seconds.
    pub h1_time: Option<f64>,
    /// First H2 hazard time, seconds.
    pub h2_time: Option<f64>,
    /// Accident, if one ended the run.
    pub accident: Option<AccidentKind>,
    /// Accident time, seconds.
    pub accident_time: Option<f64>,
    /// First fault activation time, seconds.
    pub fault_start: Option<f64>,
    /// First AEB braking activation time, seconds.
    pub aeb_trigger: Option<f64>,
    /// First driver longitudinal trigger condition time, seconds.
    pub driver_brake_trigger: Option<f64>,
    /// First driver lateral trigger condition time, seconds.
    pub driver_steer_trigger: Option<f64>,
    /// Whether the ML recovery mode ever activated.
    pub ml_activated: bool,
}

impl Default for RunRecord {
    fn default() -> Self {
        Self {
            min_ttc: f64::INFINITY,
            t_fcw_at_min_ttc: 0.0,
            max_brake: 0.0,
            avg_following_distance: f64::NAN,
            min_lane_line_distance: f64::NAN,
            steps: 0,
            h1_time: None,
            h2_time: None,
            accident: None,
            accident_time: None,
            fault_start: None,
            aeb_trigger: None,
            driver_brake_trigger: None,
            driver_steer_trigger: None,
            ml_activated: false,
        }
    }
}

impl RunRecord {
    /// True when any hazard occurred.
    #[must_use]
    pub fn hazard(&self) -> bool {
        self.h1_time.is_some() || self.h2_time.is_some()
    }

    /// True when no accident ended the run (the paper's "accident
    /// prevented" counting for attacked runs).
    #[must_use]
    pub fn prevented(&self) -> bool {
        self.accident.is_none()
    }

    /// Mitigation delay of an intervention: time from fault activation to
    /// the intervention's trigger condition, seconds. `None` when either
    /// never happened.
    #[must_use]
    pub fn mitigation_time(&self, trigger: Option<f64>) -> Option<f64> {
        match (self.fault_start, trigger) {
            (Some(f), Some(t)) if t >= f => Some(t - f),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_min_ttc_and_fcw_horizon() {
        let mut m = RunMetrics::new();
        m.step(Some(50.0), Some(5.0), 7.0, 0.0, 0.8); // ttc 10
        m.step(Some(20.0), Some(8.0), 6.5, 0.1, 0.8); // ttc 2.5 ← min
        m.step(Some(30.0), Some(5.0), 7.1, 0.0, 0.8); // ttc 6
        let r = m.finish();
        assert!((r.min_ttc - 2.5).abs() < 1e-12);
        assert!((r.t_fcw_at_min_ttc - 6.5).abs() < 1e-12);
    }

    #[test]
    fn tracks_max_brake() {
        let mut m = RunMetrics::new();
        for b in [0.1, 0.7, 0.3] {
            m.step(None, None, 7.0, b, 0.8);
        }
        assert!((m.finish().max_brake - 0.7).abs() < 1e-12);
    }

    #[test]
    fn following_distance_only_counts_stable_phase() {
        let mut m = RunMetrics::new();
        // Fast closing: not stable.
        m.step(Some(70.0), Some(9.0), 7.0, 0.0, 0.8);
        // Stable at 28 m.
        for _ in 0..10 {
            m.step(Some(28.0), Some(0.2), 7.0, 0.0, 0.8);
        }
        let r = m.finish();
        assert!((r.avg_following_distance - 28.0).abs() < 1e-9);
    }

    #[test]
    fn no_following_is_nan() {
        let mut m = RunMetrics::new();
        m.step(None, None, 7.0, 0.0, 0.8);
        assert!(m.finish().avg_following_distance.is_nan());
    }

    #[test]
    fn min_lane_line_distance() {
        let mut m = RunMetrics::new();
        for d in [0.8, 0.4, 0.55] {
            m.step(None, None, 7.0, 0.0, d);
        }
        assert!((m.finish().min_lane_line_distance - 0.4).abs() < 1e-12);
    }

    #[test]
    fn opening_gap_never_sets_ttc() {
        let mut m = RunMetrics::new();
        m.step(Some(50.0), Some(-3.0), 7.0, 0.0, 0.8);
        assert!(m.finish().min_ttc.is_infinite());
    }

    #[test]
    fn record_prevention_logic() {
        let mut r = RunRecord::default();
        assert!(r.prevented());
        r.accident = Some(AccidentKind::ForwardCollision);
        assert!(!r.prevented());
    }

    #[test]
    fn mitigation_time_requires_both_events() {
        let mut r = RunRecord::default();
        assert_eq!(r.mitigation_time(Some(5.0)), None);
        r.fault_start = Some(3.0);
        assert_eq!(r.mitigation_time(Some(5.0)), Some(2.0));
        assert_eq!(r.mitigation_time(None), None);
        // Trigger before the fault (benign-phase trigger) does not count.
        assert_eq!(r.mitigation_time(Some(1.0)), None);
    }

    #[test]
    fn hazard_flag() {
        let mut r = RunRecord::default();
        assert!(!r.hazard());
        r.h2_time = Some(4.0);
        assert!(r.hazard());
    }
}
