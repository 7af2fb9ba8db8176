//! Road geometry: piecewise line/arc centerlines with multiple lanes.
//!
//! Roads are parameterised by arc length `s` along a reference line (the
//! center of the ego vehicle's starting lane). Lateral position `d` is
//! measured to the left of the reference line. This frenet frame is what the
//! vehicle dynamics integrate in; cartesian points are derived analytically
//! per segment for plotting and distance checks.

use crate::math::{sin_cos, Vec2};

/// Identifier of a lane on the road. Lane `0` is the rightmost lane; the ego
/// vehicle starts in [`Road::ego_lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId(pub u8);

impl std::fmt::Display for LaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lane {}", self.0)
    }
}

/// One homogeneous piece of road: a straight (`curvature == 0`) or an arc of
/// constant curvature (positive curves left).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadSegment {
    /// Length of the segment along the reference line, metres.
    pub length: f64,
    /// Signed curvature 1/R of the reference line, 1/m. Positive is a left
    /// turn.
    pub curvature: f64,
}

impl RoadSegment {
    /// A straight segment.
    #[must_use]
    pub fn straight(length: f64) -> Self {
        Self {
            length,
            curvature: 0.0,
        }
    }

    /// An arc segment with the given signed radius (positive turns left).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is zero.
    #[must_use]
    pub fn arc(length: f64, radius: f64) -> Self {
        assert!(radius != 0.0, "arc radius must be non-zero");
        Self {
            length,
            curvature: 1.0 / radius,
        }
    }
}

/// A multi-lane road with a piecewise line/arc reference line.
#[derive(Debug, Clone, PartialEq)]
pub struct Road {
    segments: Vec<RoadSegment>,
    /// Cumulative start `s` of each segment (same length as `segments`).
    starts: Vec<f64>,
    /// Cartesian pose at the start of each segment: position + heading.
    anchors: Vec<(Vec2, f64)>,
    total_length: f64,
    lane_width: f64,
    lane_count: u8,
    ego_lane: LaneId,
}

impl Road {
    /// Lane width in metres (MetaDrive's default highway lane is 3.5 m).
    pub const DEFAULT_LANE_WIDTH: f64 = 3.5;

    fn from_segments(segments: Vec<RoadSegment>, lane_width: f64, lane_count: u8) -> Self {
        assert!(!segments.is_empty(), "road needs at least one segment");
        assert!(lane_count >= 1);
        let mut starts = Vec::with_capacity(segments.len());
        let mut anchors = Vec::with_capacity(segments.len());
        let mut s = 0.0;
        let mut pos = Vec2::default();
        let mut heading = 0.0_f64;
        for seg in &segments {
            assert!(seg.length > 0.0, "segment length must be positive");
            starts.push(s);
            anchors.push((pos, heading));
            s += seg.length;
            if seg.curvature.abs() < 1e-12 {
                let (sin_h, cos_h) = sin_cos(heading);
                pos = pos + Vec2::new(cos_h, sin_h) * seg.length;
            } else {
                let k = seg.curvature;
                let dtheta = k * seg.length;
                let r = 1.0 / k;
                // Rotate about the arc center.
                let (sin_h, cos_h) = sin_cos(heading);
                let center = pos + Vec2::new(-sin_h, cos_h) * r;
                let rel = pos - center;
                pos = center + rel.rotated(dtheta);
                heading += dtheta;
            }
        }
        Self {
            segments,
            starts,
            anchors,
            total_length: s,
            lane_width,
            lane_count,
            ego_lane: LaneId(1.min(lane_count - 1)),
        }
    }

    /// Total length of the reference line, metres.
    #[must_use]
    pub fn total_length(&self) -> f64 {
        self.total_length
    }

    /// Lane width in metres.
    #[must_use]
    pub fn lane_width(&self) -> f64 {
        self.lane_width
    }

    /// Number of lanes.
    #[must_use]
    pub fn lane_count(&self) -> u8 {
        self.lane_count
    }

    /// Lane the ego vehicle starts in (the reference line runs through its
    /// center).
    #[must_use]
    pub fn ego_lane(&self) -> LaneId {
        self.ego_lane
    }

    /// Lateral offset of a lane's center from the reference line, metres
    /// (positive to the left).
    #[must_use]
    pub fn lane_center_offset(&self, lane: LaneId) -> f64 {
        (f64::from(lane.0) - f64::from(self.ego_lane.0)) * self.lane_width
    }

    /// The lane whose band contains lateral offset `d`, if any.
    #[must_use]
    pub fn lane_at_offset(&self, d: f64) -> Option<LaneId> {
        for lane in 0..self.lane_count {
            let c = self.lane_center_offset(LaneId(lane));
            if (d - c).abs() <= self.lane_width / 2.0 {
                return Some(LaneId(lane));
            }
        }
        None
    }

    /// Signed lateral distance from offset `d` to the nearest boundary line of
    /// the given lane: positive while inside the lane band, negative outside.
    #[must_use]
    pub fn distance_to_lane_boundary(&self, lane: LaneId, d: f64) -> f64 {
        let c = self.lane_center_offset(lane);
        self.lane_width / 2.0 - (d - c).abs()
    }

    fn segment_index(&self, s: f64) -> usize {
        if s <= 0.0 {
            return 0;
        }
        match self
            .starts
            .binary_search_by(|start| start.partial_cmp(&s).expect("finite s"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Reference-line curvature at arc length `s` (clamped to the road's
    /// extent), 1/m.
    #[must_use]
    pub fn curvature_at(&self, s: f64) -> f64 {
        let s = s.clamp(0.0, self.total_length);
        self.segments[self.segment_index(s)].curvature
    }

    /// Reference-line heading at arc length `s`, radians.
    #[must_use]
    pub fn heading_at(&self, s: f64) -> f64 {
        let s = s.clamp(0.0, self.total_length);
        let i = self.segment_index(s);
        let (_, h0) = self.anchors[i];
        h0 + self.segments[i].curvature * (s - self.starts[i])
    }

    /// Cartesian point of the reference line at arc length `s`.
    #[must_use]
    pub fn point_at(&self, s: f64) -> Vec2 {
        let s = s.clamp(0.0, self.total_length);
        let i = self.segment_index(s);
        let (p0, h0) = self.anchors[i];
        let ds = s - self.starts[i];
        let k = self.segments[i].curvature;
        let (sin_h, cos_h) = sin_cos(h0);
        if k.abs() < 1e-12 {
            p0 + Vec2::new(cos_h, sin_h) * ds
        } else {
            let r = 1.0 / k;
            let center = p0 + Vec2::new(-sin_h, cos_h) * r;
            (p0 - center).rotated(k * ds) + center
        }
    }

    /// Cartesian point at arc length `s`, lateral offset `d` (left-positive).
    #[must_use]
    pub fn frenet_to_cartesian(&self, s: f64, d: f64) -> Vec2 {
        let p = self.point_at(s);
        let (sin_h, cos_h) = sin_cos(self.heading_at(s));
        p + Vec2::new(-sin_h, cos_h) * d
    }

    /// Iterates over the road's segments.
    pub fn segments(&self) -> impl Iterator<Item = &RoadSegment> {
        self.segments.iter()
    }
}

/// Builder for [`Road`] values, plus the two highway maps the paper's
/// evaluation uses (a straight and a curvy dry highway).
#[derive(Debug, Clone)]
pub struct RoadBuilder {
    segments: Vec<RoadSegment>,
    lane_width: f64,
    lane_count: u8,
}

impl RoadBuilder {
    /// Starts an empty road description.
    #[must_use]
    pub fn new() -> Self {
        Self {
            segments: Vec::new(),
            lane_width: Road::DEFAULT_LANE_WIDTH,
            lane_count: 3,
        }
    }

    /// A straight three-lane highway of the given length — the map used for
    /// the paper's 60 m initial-distance runs.
    #[must_use]
    pub fn straight_highway(length: f64) -> Self {
        let mut b = Self::new();
        b.segments.push(RoadSegment::straight(length));
        b
    }

    /// A curvy three-lane highway: alternating straights and moderate-radius
    /// highway curves (400–600 m radius, both directions), matching the
    /// "curvy road" condition under which the paper reports the ego catching
    /// up over 230 m and OpenPilot's lateral weaknesses (Table V, S3).
    #[must_use]
    pub fn curvy_highway(length: f64) -> Self {
        let mut b = Self::new();
        let pattern = [
            RoadSegment::straight(250.0),
            RoadSegment::arc(300.0, 450.0),
            RoadSegment::straight(150.0),
            RoadSegment::arc(250.0, -400.0),
            RoadSegment::straight(200.0),
            RoadSegment::arc(300.0, 600.0),
        ];
        let mut total = 0.0;
        'outer: loop {
            for seg in pattern {
                if total >= length {
                    break 'outer;
                }
                b.segments.push(seg);
                total += seg.length;
            }
        }
        b
    }

    /// Appends a straight stretch.
    #[must_use]
    pub fn straight(mut self, length: f64) -> Self {
        self.segments.push(RoadSegment::straight(length));
        self
    }

    /// Appends an arc with signed radius (positive turns left).
    #[must_use]
    pub fn arc(mut self, length: f64, radius: f64) -> Self {
        self.segments.push(RoadSegment::arc(length, radius));
        self
    }

    /// Sets the lane width (default 3.5 m).
    #[must_use]
    pub fn lane_width(mut self, width: f64) -> Self {
        assert!(width > 0.0);
        self.lane_width = width;
        self
    }

    /// Sets the number of lanes (default 3).
    #[must_use]
    pub fn lane_count(mut self, count: u8) -> Self {
        assert!(count >= 1);
        self.lane_count = count;
        self
    }

    /// Finalises the road.
    ///
    /// # Panics
    ///
    /// Panics if no segments were added.
    #[must_use]
    pub fn build(self) -> Road {
        Road::from_segments(self.segments, self.lane_width, self.lane_count)
    }
}

impl Default for RoadBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn straight_road_geometry() {
        let road = RoadBuilder::straight_highway(1000.0).build();
        assert_eq!(road.total_length(), 1000.0);
        assert_eq!(road.curvature_at(500.0), 0.0);
        assert_eq!(road.heading_at(500.0), 0.0);
        let p = road.point_at(123.0);
        assert!((p.x - 123.0).abs() < 1e-9 && p.y.abs() < 1e-9);
    }

    #[test]
    fn arc_road_total_turn() {
        // Quarter circle of radius 100: length = π/2 * 100.
        let len = std::f64::consts::FRAC_PI_2 * 100.0;
        let road = RoadBuilder::new().arc(len, 100.0).build();
        assert!((road.heading_at(len) - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        let end = road.point_at(len);
        assert!((end.x - 100.0).abs() < 1e-9, "{end:?}");
        assert!((end.y - 100.0).abs() < 1e-9, "{end:?}");
    }

    #[test]
    fn right_turn_has_negative_curvature() {
        let road = RoadBuilder::new().arc(100.0, -400.0).build();
        assert!(road.curvature_at(50.0) < 0.0);
        assert!(road.point_at(100.0).y < 0.0);
    }

    #[test]
    fn segment_lookup_at_joints() {
        let road = RoadBuilder::new().straight(100.0).arc(100.0, 200.0).build();
        assert_eq!(road.curvature_at(99.999), 0.0);
        assert!((road.curvature_at(100.0) - 1.0 / 200.0).abs() < 1e-12);
        assert!((road.curvature_at(150.0) - 1.0 / 200.0).abs() < 1e-12);
        // Clamped beyond the end.
        assert!((road.curvature_at(10_000.0) - 1.0 / 200.0).abs() < 1e-12);
        assert_eq!(road.curvature_at(-5.0), 0.0);
    }

    #[test]
    fn lane_offsets_and_lookup() {
        let road = RoadBuilder::straight_highway(100.0).build();
        assert_eq!(road.ego_lane(), LaneId(1));
        assert_eq!(road.lane_center_offset(LaneId(1)), 0.0);
        assert_eq!(road.lane_center_offset(LaneId(0)), -3.5);
        assert_eq!(road.lane_center_offset(LaneId(2)), 3.5);
        assert_eq!(road.lane_at_offset(0.4), Some(LaneId(1)));
        assert_eq!(road.lane_at_offset(-3.6), Some(LaneId(0)));
        assert_eq!(road.lane_at_offset(6.0), None);
    }

    #[test]
    fn distance_to_lane_boundary_signs() {
        let road = RoadBuilder::straight_highway(100.0).build();
        assert!((road.distance_to_lane_boundary(LaneId(1), 0.0) - 1.75).abs() < 1e-12);
        assert!(road.distance_to_lane_boundary(LaneId(1), 1.0) > 0.0);
        assert!(road.distance_to_lane_boundary(LaneId(1), 2.0) < 0.0);
    }

    #[test]
    fn curvy_highway_reaches_requested_length() {
        let road = RoadBuilder::curvy_highway(5_000.0).build();
        assert!(road.total_length() >= 5_000.0);
        // Contains both left and right curves.
        let mut has_left = false;
        let mut has_right = false;
        for seg in road.segments() {
            if seg.curvature > 0.0 {
                has_left = true;
            }
            if seg.curvature < 0.0 {
                has_right = true;
            }
        }
        assert!(has_left && has_right);
    }

    #[test]
    fn frenet_offset_is_perpendicular() {
        let road = RoadBuilder::new().arc(200.0, 300.0).build();
        let s = 120.0;
        let on = road.frenet_to_cartesian(s, 0.0);
        let left = road.frenet_to_cartesian(s, 2.0);
        assert!((on.distance(left) - 2.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn heading_continuous_across_joints(split in 10.0f64..200.0, r in 150.0f64..800.0) {
            let road = RoadBuilder::new().straight(split).arc(200.0, r).straight(100.0).build();
            for ds in [-1e-6, 1e-6] {
                let a = road.heading_at(split + ds);
                prop_assert!(a.abs() < 1e-4);
            }
            let joint2 = split + 200.0;
            let before = road.heading_at(joint2 - 1e-6);
            let after = road.heading_at(joint2 + 1e-6);
            prop_assert!((before - after).abs() < 1e-4);
        }

        #[test]
        fn point_continuous_across_joints(r in 150.0f64..800.0, sign in prop::bool::ANY) {
            let r = if sign { r } else { -r };
            let road = RoadBuilder::new().straight(100.0).arc(150.0, r).build();
            let before = road.point_at(100.0 - 1e-6);
            let after = road.point_at(100.0 + 1e-6);
            prop_assert!(before.distance(after) < 1e-4);
        }

        #[test]
        fn arc_length_matches_param(s in 0.0f64..400.0) {
            // On a straight road, cartesian x equals s exactly.
            let road = RoadBuilder::straight_highway(400.0).build();
            let p = road.point_at(s);
            prop_assert!((p.x - s).abs() < 1e-9);
        }
    }
}
