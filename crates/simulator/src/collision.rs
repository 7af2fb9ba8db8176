//! Collision and lane-departure detection in the frenet frame.

use crate::road::{LaneId, Road};
use crate::vehicle::Vehicle;

/// A contact between the ego vehicle and another vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionEvent {
    /// Simulation time of first contact, seconds.
    pub time: f64,
    /// Index of the NPC involved.
    pub npc_index: usize,
    /// Ego speed minus other vehicle speed at contact, m/s.
    pub closing_speed: f64,
    /// True when contact is predominantly longitudinal (rear-end with the
    /// vehicle ahead) rather than a side swipe.
    pub longitudinal: bool,
}

/// A lane-departure event: the ego's center crossed its lane boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneDeparture {
    /// Simulation time at which the center crossed the boundary, seconds.
    pub time: f64,
    /// Lateral offset when it happened, metres.
    pub offset: f64,
}

/// Returns `true` when the two vehicles' bounding boxes overlap.
///
/// The check treats both bodies as axis-aligned rectangles in the frenet
/// frame — accurate for the small heading errors of highway driving that the
/// paper's scenarios produce.
#[must_use]
pub fn vehicles_overlap(a: &Vehicle, b: &Vehicle) -> bool {
    let ds = (a.state().s - b.state().s).abs();
    let dd = (a.state().d - b.state().d).abs();
    ds < (a.params().length + b.params().length) / 2.0
        && dd < (a.params().width + b.params().width) / 2.0
}

/// Classifies whether a contact between `ego` and `other` is longitudinal
/// (rear-end style) or lateral (side swipe).
#[must_use]
pub fn contact_is_longitudinal(ego: &Vehicle, other: &Vehicle) -> bool {
    let dd = (ego.state().d - other.state().d).abs();
    dd < (ego.params().width + other.params().width) / 4.0
}

/// Distance from the ego's nearer body edge to the nearer boundary line of
/// the lane band centred at `lane`, metres. Negative once the edge pokes
/// over the line.
///
/// This is the "distance to lane lines" metric of the paper's Table V and
/// the trigger quantity for its H2 hazard (< 0.1 m).
#[must_use]
pub fn distance_to_lane_line(road: &Road, lane: LaneId, ego: &Vehicle) -> f64 {
    let c = road.lane_center_offset(lane);
    road.lane_width() / 2.0 - (ego.state().d - c).abs() - ego.params().width / 2.0
}

/// Returns `true` when the ego's *center* has crossed a boundary of `lane` —
/// the paper's A2 "driving out of the lane" accident condition.
#[must_use]
pub fn center_departed_lane(road: &Road, lane: LaneId, ego: &Vehicle) -> bool {
    let c = road.lane_center_offset(lane);
    (ego.state().d - c).abs() > road.lane_width() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::RoadBuilder;
    use crate::vehicle::VehicleParams;
    use proptest::prelude::*;

    fn car_at(s: f64, d: f64) -> Vehicle {
        Vehicle::new(VehicleParams::sedan(), s, d, 10.0)
    }

    #[test]
    fn overlapping_same_lane() {
        assert!(vehicles_overlap(&car_at(0.0, 0.0), &car_at(4.0, 0.0)));
        assert!(!vehicles_overlap(&car_at(0.0, 0.0), &car_at(5.0, 0.0)));
    }

    #[test]
    fn adjacent_lane_no_overlap() {
        assert!(!vehicles_overlap(&car_at(0.0, 0.0), &car_at(0.0, 3.5)));
        // Mid-cut-in: lateral gap closed.
        assert!(vehicles_overlap(&car_at(0.0, 0.0), &car_at(0.0, 1.5)));
    }

    #[test]
    fn longitudinal_classification() {
        assert!(contact_is_longitudinal(
            &car_at(0.0, 0.0),
            &car_at(4.0, 0.2)
        ));
        assert!(!contact_is_longitudinal(
            &car_at(0.0, 0.0),
            &car_at(1.0, 1.7)
        ));
    }

    #[test]
    fn lane_line_distance_centered() {
        let road = RoadBuilder::straight_highway(100.0).build();
        let ego = car_at(10.0, 0.0);
        let d = distance_to_lane_line(&road, road.ego_lane(), &ego);
        // (3.5 - 1.85) / 2 = 0.825
        assert!((d - 0.825).abs() < 1e-9);
    }

    #[test]
    fn lane_line_distance_negative_when_edge_over() {
        let road = RoadBuilder::straight_highway(100.0).build();
        let ego = car_at(10.0, 1.2);
        assert!(distance_to_lane_line(&road, road.ego_lane(), &ego) < 0.0);
        // Center still inside, so not yet departed.
        assert!(!center_departed_lane(&road, road.ego_lane(), &ego));
    }

    #[test]
    fn center_departure_threshold() {
        let road = RoadBuilder::straight_highway(100.0).build();
        assert!(!center_departed_lane(
            &road,
            road.ego_lane(),
            &car_at(0.0, 1.74)
        ));
        assert!(center_departed_lane(
            &road,
            road.ego_lane(),
            &car_at(0.0, 1.76)
        ));
        assert!(center_departed_lane(
            &road,
            road.ego_lane(),
            &car_at(0.0, -1.76)
        ));
    }

    proptest! {
        #[test]
        fn overlap_is_symmetric(s1 in -10.0f64..10.0, d1 in -4.0f64..4.0, s2 in -10.0f64..10.0, d2 in -4.0f64..4.0) {
            let a = car_at(s1, d1);
            let b = car_at(s2, d2);
            prop_assert_eq!(vehicles_overlap(&a, &b), vehicles_overlap(&b, &a));
        }

        #[test]
        fn touching_vehicle_always_overlaps_itself_shifted_slightly(s in -5.0f64..5.0, d in -1.0f64..1.0) {
            let a = car_at(0.0, 0.0);
            let b = car_at(s, d);
            // Any displacement smaller than half the footprint overlaps.
            if s.abs() < 2.0 && d.abs() < 0.9 {
                prop_assert!(vehicles_overlap(&a, &b));
            }
        }

        #[test]
        fn lane_distance_decreases_with_offset(d in 0.0f64..1.5) {
            let road = RoadBuilder::straight_highway(100.0).build();
            let near = distance_to_lane_line(&road, road.ego_lane(), &car_at(0.0, d));
            let far = distance_to_lane_line(&road, road.ego_lane(), &car_at(0.0, d + 0.1));
            prop_assert!(far < near);
        }
    }
}
