//! Parameterisations of the two physical patches.

/// Maximum true relative distance at which the lead-vehicle patch is
/// perceived and the RD fault activates, metres (paper Table III).
pub const RD_TRIGGER_RANGE: f64 = 80.0;

/// The escalating RD offset for a given true relative distance, following
/// the paper's tiering: +10 m below 80 m, +15 m below 25 m, +38 m below
/// 20 m; `None` outside the patch's effective range.
#[must_use]
pub fn rd_offset_for(true_rd: f64) -> Option<f64> {
    if true_rd < 20.0 {
        Some(38.0)
    } else if true_rd < 25.0 {
        Some(15.0)
    } else if true_rd < RD_TRIGGER_RANGE {
        Some(10.0)
    } else {
        None
    }
}

/// Parameters of the lead-vehicle rear patch (ACC attack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdFault {
    /// Activation range, metres.
    pub trigger_range: f64,
    /// Scale applied to the tiered offsets (1.0 = paper values), for
    /// ablation studies.
    pub offset_scale: f64,
}

impl Default for RdFault {
    fn default() -> Self {
        Self {
            trigger_range: RD_TRIGGER_RANGE,
            offset_scale: 1.0,
        }
    }
}

impl RdFault {
    /// Offset to add to the perceived distance, if the patch is effective at
    /// this true distance.
    #[must_use]
    pub fn offset(&self, true_rd: f64) -> Option<f64> {
        if true_rd >= self.trigger_range {
            return None;
        }
        rd_offset_for(true_rd.min(RD_TRIGGER_RANGE - 1e-9)).map(|o| o * self.offset_scale)
    }
}

/// Parameters of the road patch (ALC attack).
///
/// The curvature deviation is specified as the paper's 3 % of the lateral
/// planner's full-scale curvature range; the default full scale of
/// ±0.03 1/m puts the injected bias at 9×10⁻⁴ 1/m — enough to drift a
/// highway-speed vehicle across its lane within a few seconds, matching the
/// attack-success timing of the Dirty-Road-Patch study the paper replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvatureFault {
    /// Arc length at which the patch area begins, metres.
    pub patch_start_s: f64,
    /// Fractional deviation (0.03 = the paper's 3 %).
    pub deviation: f64,
    /// Full-scale curvature the deviation is relative to, 1/m.
    pub full_scale: f64,
    /// Sign of the induced drift (+1 drifts left).
    pub direction: f64,
    /// How long the DNN outputs stay poisoned once triggered, seconds
    /// (`None` = for the rest of the run, i.e. the patch stays in view).
    pub duration: Option<f64>,
    /// Whether the poisoned path also pins the perceived lane position to
    /// centred (true for Dirty-Road-Patch style attacks, where the whole
    /// path model is bent).
    pub poison_lane_feedback: bool,
}

impl Default for CurvatureFault {
    fn default() -> Self {
        Self {
            patch_start_s: 150.0,
            deviation: 0.03,
            full_scale: 0.024,
            direction: 1.0,
            duration: Some(12.0),
            poison_lane_feedback: true,
        }
    }
}

impl CurvatureFault {
    /// The injected curvature offset, 1/m.
    #[must_use]
    pub fn delta_kappa(&self) -> f64 {
        self.direction.signum() * self.deviation * self.full_scale
    }

    /// True when the ego at arc length `s` has reached the patch.
    #[must_use]
    pub fn reached(&self, ego_s: f64) -> bool {
        ego_s >= self.patch_start_s
    }

    /// True when the fault is still in effect at `elapsed` seconds after
    /// activation.
    #[must_use]
    pub fn still_active(&self, elapsed: f64) -> bool {
        self.duration.is_none_or(|d| elapsed <= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tiering_matches_table_iii() {
        assert_eq!(rd_offset_for(79.0), Some(10.0));
        assert_eq!(rd_offset_for(30.0), Some(10.0));
        assert_eq!(rd_offset_for(24.0), Some(15.0));
        assert_eq!(rd_offset_for(19.0), Some(38.0));
        assert_eq!(rd_offset_for(5.0), Some(38.0));
        assert_eq!(rd_offset_for(80.0), None);
        assert_eq!(rd_offset_for(120.0), None);
    }

    #[test]
    fn rd_fault_respects_custom_range() {
        let f = RdFault {
            trigger_range: 50.0,
            offset_scale: 1.0,
        };
        assert_eq!(f.offset(60.0), None);
        assert_eq!(f.offset(40.0), Some(10.0));
    }

    #[test]
    fn rd_fault_scales_offsets() {
        let f = RdFault {
            offset_scale: 0.5,
            ..RdFault::default()
        };
        assert_eq!(f.offset(19.0), Some(19.0));
    }

    #[test]
    fn curvature_delta_is_three_percent_of_full_scale() {
        let f = CurvatureFault::default();
        assert!((f.delta_kappa() - 0.03 * f.full_scale).abs() < 1e-12);
        let right = CurvatureFault {
            direction: -1.0,
            ..CurvatureFault::default()
        };
        assert!(right.delta_kappa() < 0.0);
    }

    #[test]
    fn patch_trigger_position() {
        let f = CurvatureFault::default();
        assert!(!f.reached(100.0));
        assert!(f.reached(150.0));
        assert!(f.reached(400.0));
    }

    #[test]
    fn duration_bounds_activity() {
        let forever = CurvatureFault {
            duration: None,
            ..CurvatureFault::default()
        };
        assert!(forever.still_active(1e6));
        let brief = CurvatureFault {
            duration: Some(2.0),
            ..CurvatureFault::default()
        };
        assert!(brief.still_active(1.9));
        assert!(!brief.still_active(2.1));
        // The default models driving past a finite road patch.
        let default = CurvatureFault::default();
        assert!(default.still_active(5.0));
        assert!(!default.still_active(20.0));
    }

    proptest! {
        #[test]
        fn offsets_monotone_nonincreasing_range(rd in 0.0f64..200.0) {
            // Offsets only grow as the gap shrinks.
            if let Some(o) = rd_offset_for(rd) {
                prop_assert!((10.0..=38.0).contains(&o));
                if let Some(closer) = rd_offset_for((rd - 6.0).max(0.0)) {
                    prop_assert!(closer >= o);
                }
            } else {
                prop_assert!(rd >= RD_TRIGGER_RANGE);
            }
        }
    }
}
