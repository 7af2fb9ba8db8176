//! Perception output types shared by the control stack and the fault
//! injector.

/// DNN-style prediction of the lead vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadPrediction {
    /// Predicted bumper-to-bumper relative distance (RD), metres.
    pub distance: f64,
    /// Predicted closing speed (ego minus lead), m/s.
    pub closing_speed: f64,
    /// Predicted lead absolute speed, m/s.
    pub lead_speed: f64,
}

impl LeadPrediction {
    /// Time to collision implied by the prediction, seconds; infinite when
    /// not closing.
    #[must_use]
    pub fn ttc(&self) -> f64 {
        if self.closing_speed > 1e-6 && self.distance >= 0.0 {
            self.distance / self.closing_speed
        } else {
            f64::INFINITY
        }
    }
}

/// DNN-style prediction of the lane geometry around the ego vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanePrediction {
    /// Distance from the vehicle centerline to the left lane line, metres
    /// (positive when the line is to the left, i.e. the vehicle is inside).
    pub left_line: f64,
    /// Distance from the vehicle centerline to the right lane line, metres.
    pub right_line: f64,
}

impl LanePrediction {
    /// Predicted lateral offset of the vehicle from the lane center
    /// (left-positive), metres.
    #[must_use]
    pub fn lateral_offset(&self) -> f64 {
        (self.right_line - self.left_line) / 2.0
    }

    /// Predicted lane width, metres.
    #[must_use]
    pub fn lane_width(&self) -> f64 {
        self.left_line + self.right_line
    }

    /// Distance from the *nearer* line to the vehicle centerline, metres.
    #[must_use]
    pub fn nearest_line(&self) -> f64 {
        self.left_line.min(self.right_line)
    }
}

/// One perception cycle's worth of DNN outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerceptionFrame {
    /// Lead vehicle prediction; `None` when no lead is detected (out of
    /// range, out of lane, or inside the close-range blind zone).
    pub lead: Option<LeadPrediction>,
    /// Lane geometry prediction.
    pub lanes: LanePrediction,
    /// Desired path curvature the planner should follow, 1/m (positive
    /// curves left). The reciprocal of the turning radius.
    pub desired_curvature: f64,
    /// Lane-centering correction folded into the planned path, 1/m. In
    /// OpenPilot the DNN's path output already steers back to the lane
    /// center; a road-patch attack bends the *whole* path, which removes
    /// this correction along with poisoning [`Self::desired_curvature`].
    pub path_centering: f64,
    /// Ego speed as read by the ADAS (from the CAN bus, not the camera),
    /// m/s.
    pub ego_speed: f64,
}

impl PerceptionFrame {
    /// A frame with no lead, centred lanes and zero curvature — useful as a
    /// neutral starting value and in tests.
    #[must_use]
    pub fn neutral(ego_speed: f64) -> Self {
        Self {
            lead: None,
            lanes: LanePrediction {
                left_line: 1.75,
                right_line: 1.75,
            },
            desired_curvature: 0.0,
            path_centering: 0.0,
            ego_speed,
        }
    }

    /// Total path curvature the lateral controller should track:
    /// the planned road curvature plus the centering correction.
    #[must_use]
    pub fn path_curvature(&self) -> f64 {
        self.desired_curvature + self.path_centering
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lead_ttc() {
        let lead = LeadPrediction {
            distance: 40.0,
            closing_speed: 8.0,
            lead_speed: 13.0,
        };
        assert!((lead.ttc() - 5.0).abs() < 1e-12);
        let opening = LeadPrediction {
            closing_speed: -1.0,
            ..lead
        };
        assert!(opening.ttc().is_infinite());
    }

    #[test]
    fn lane_offsets() {
        let lanes = LanePrediction {
            left_line: 1.25,
            right_line: 2.25,
        };
        // Right line farther → vehicle is left of center.
        assert!((lanes.lateral_offset() - 0.5).abs() < 1e-12);
        assert!((lanes.lane_width() - 3.5).abs() < 1e-12);
        assert!((lanes.nearest_line() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn neutral_frame_is_centered() {
        let f = PerceptionFrame::neutral(20.0);
        assert!(f.lead.is_none());
        assert_eq!(f.lanes.lateral_offset(), 0.0);
        assert_eq!(f.desired_curvature, 0.0);
        assert_eq!(f.ego_speed, 20.0);
    }
}
