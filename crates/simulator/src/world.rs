//! The closed-loop world: ego vehicle, scripted traffic, collision checks.

use crate::collision::{
    center_departed_lane, contact_is_longitudinal, vehicles_overlap, CollisionEvent, LaneDeparture,
};
use crate::friction::{surface_in_zones, FrictionCondition, FrictionZone, SurfaceFriction};
use crate::npc::Npc;
use crate::road::Road;
use crate::units::SIM_DT;
use crate::vehicle::{Vehicle, VehicleCommand, VehicleParams};

/// World construction options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Road-surface condition (Table VIII sweeps this).
    pub friction: FrictionCondition,
    /// Parameters for the ego vehicle.
    pub ego_params: VehicleParams,
    /// Integration step, seconds.
    pub dt: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            friction: FrictionCondition::Default,
            ego_params: VehicleParams::sedan(),
            dt: SIM_DT,
        }
    }
}

/// Ground-truth observation of the lead vehicle in the ego's lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadObservation {
    /// Bumper-to-bumper distance, metres (>= 0 outside of a collision).
    pub distance: f64,
    /// Closing speed: ego speed minus lead speed, m/s (positive when
    /// approaching).
    pub closing_speed: f64,
    /// Lead vehicle forward speed, m/s.
    pub lead_speed: f64,
    /// Lead vehicle lateral offset, metres.
    pub lead_d: f64,
    /// Index of the NPC serving as lead.
    pub npc_index: usize,
}

impl LeadObservation {
    /// Ground-truth time to collision, seconds; infinite when not closing.
    #[must_use]
    pub fn ttc(&self) -> f64 {
        if self.closing_speed > 1e-6 && self.distance >= 0.0 {
            self.distance / self.closing_speed
        } else {
            f64::INFINITY
        }
    }
}

/// The simulated world.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    road: Road,
    surface: SurfaceFriction,
    friction_zones: Vec<FrictionZone>,
    ego: Option<Vehicle>,
    npcs: Vec<Npc>,
    prev_npc_d: Vec<f64>,
    time: f64,
    steps: u64,
    first_collision: Option<CollisionEvent>,
    first_departure: Option<LaneDeparture>,
}

impl World {
    /// Creates an empty world over `road`.
    #[must_use]
    pub fn new(config: WorldConfig, road: Road) -> Self {
        let surface = SurfaceFriction::new(config.friction);
        Self {
            config,
            road,
            surface,
            friction_zones: Vec::new(),
            ego: None,
            npcs: Vec::new(),
            prev_npc_d: Vec::new(),
            time: 0.0,
            steps: 0,
            first_collision: None,
            first_departure: None,
        }
    }

    /// Spawns the ego vehicle at arc length `s` (lane center) with speed `v`.
    /// Replaces any previous ego.
    pub fn spawn_ego(&mut self, s: f64, v: f64) {
        self.ego = Some(Vehicle::new(self.config.ego_params, s, 0.0, v));
    }

    /// Adds a scripted vehicle and returns its index.
    pub fn add_npc(&mut self, npc: Npc) -> usize {
        self.prev_npc_d.push(npc.state().d);
        self.npcs.push(npc);
        self.npcs.len() - 1
    }

    /// The road being driven.
    #[must_use]
    pub fn road(&self) -> &Road {
        &self.road
    }

    /// The active surface friction.
    #[must_use]
    pub fn surface(&self) -> SurfaceFriction {
        self.surface
    }

    /// Adds a localised friction band. Vehicles inside the band drive on
    /// the base surface scaled by the zone's multiplier.
    pub fn add_friction_zone(&mut self, zone: FrictionZone) {
        self.friction_zones.push(zone);
    }

    /// The declared friction bands.
    #[must_use]
    pub fn friction_zones(&self) -> &[FrictionZone] {
        &self.friction_zones
    }

    /// The effective surface at arc length `s`, accounting for zones.
    #[must_use]
    pub fn surface_at(&self, s: f64) -> SurfaceFriction {
        surface_in_zones(self.surface, &self.friction_zones, s)
    }

    /// Simulation clock, seconds.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The ego vehicle.
    ///
    /// # Panics
    ///
    /// Panics if no ego has been spawned.
    #[must_use]
    pub fn ego(&self) -> &Vehicle {
        self.ego.as_ref().expect("ego vehicle not spawned")
    }

    /// All scripted vehicles.
    #[must_use]
    pub fn npcs(&self) -> &[Npc] {
        &self.npcs
    }

    /// Mutable NPC access for scenario scripting.
    pub fn npc_mut(&mut self, index: usize) -> &mut Npc {
        &mut self.npcs[index]
    }

    /// First ego collision, if any occurred.
    #[must_use]
    pub fn collision(&self) -> Option<CollisionEvent> {
        self.first_collision
    }

    /// First ego lane departure (center crossing a boundary of its original
    /// lane), if any occurred.
    #[must_use]
    pub fn lane_departure(&self) -> Option<LaneDeparture> {
        self.first_departure
    }

    /// Ground truth about the nearest in-lane vehicle ahead of the ego,
    /// with the default (radar-like) lateral acceptance window.
    ///
    /// This is the "independent sensor" view used by the AEBS-independent
    /// configuration, the human driver's eyes, the ML baseline's redundant
    /// sensor, and the hazard detectors.
    #[must_use]
    pub fn lead_observation(&self) -> Option<LeadObservation> {
        self.lead_observation_within(0.8)
    }

    /// Like [`World::lead_observation`], but with a caller-chosen lateral
    /// acceptance window, expressed as a fraction of the lane width.
    ///
    /// The camera DNN uses a narrower window (≈0.45) than a radar (≈0.8):
    /// once the ego drifts under an ALC attack, the *camera* loses the lead
    /// first — the re-acceleration that follows is what lets the AEBS stop
    /// lateral accidents in the paper's curvature-attack rows.
    #[must_use]
    pub fn lead_observation_within(&self, window_frac: f64) -> Option<LeadObservation> {
        let ego = self.ego.as_ref()?;
        let mut best: Option<LeadObservation> = None;
        for (i, npc) in self.npcs.iter().enumerate() {
            let gap = npc.vehicle().rear_s() - ego.front_s();
            let lateral = (npc.state().d - ego.state().d).abs();
            if gap < -0.5 || lateral > self.road.lane_width() * window_frac {
                continue;
            }
            let obs = LeadObservation {
                distance: gap.max(0.0),
                closing_speed: ego.state().v - npc.state().v,
                lead_speed: npc.state().v,
                lead_d: npc.state().d,
                npc_index: i,
            };
            if best.as_ref().is_none_or(|b| obs.distance < b.distance) {
                best = Some(obs);
            }
        }
        best
    }

    /// True when a vehicle in an adjacent lane is moving laterally towards
    /// the ego's lane within a threatening longitudinal range — the paper's
    /// "other vehicle cutting in" driver-reaction trigger.
    #[must_use]
    pub fn cut_in_threat(&self) -> bool {
        let Some(ego) = self.ego.as_ref() else {
            return false;
        };
        let lane_w = self.road.lane_width();
        for (i, npc) in self.npcs.iter().enumerate() {
            let d = npc.state().d;
            let was = self.prev_npc_d.get(i).copied().unwrap_or(d);
            let toward_ego = (d - ego.state().d).abs() < (was - ego.state().d).abs() - 1e-6;
            let adjacent = (d - ego.state().d).abs() < lane_w * 1.2
                && (d - ego.state().d).abs() > ego.params().width / 2.0;
            let ahead = npc.state().s - ego.state().s;
            if toward_ego && adjacent && (-5.0..60.0).contains(&ahead) {
                return true;
            }
        }
        false
    }

    /// Distance from the ego body edge to the nearest boundary line of its
    /// original lane, metres (Table V metric).
    #[must_use]
    pub fn ego_lane_line_distance(&self) -> f64 {
        crate::collision::distance_to_lane_line(&self.road, self.road.ego_lane(), self.ego())
    }

    /// Advances the world by one step with `ego_command`.
    ///
    /// NPCs move first (their triggers see the pre-step ego state), then the
    /// ego integrates, then collision/departure detectors latch first events.
    pub fn step(&mut self, ego_command: VehicleCommand) {
        let dt = self.config.dt;
        let ego_state = *self.ego().state();
        let ego_len = self.ego().params().length;

        for (i, npc) in self.npcs.iter_mut().enumerate() {
            self.prev_npc_d[i] = npc.state().d;
            let surface = surface_in_zones(self.surface, &self.friction_zones, npc.state().s);
            npc.step(&self.road, surface, self.time, &ego_state, ego_len, dt);
        }

        let surface = surface_in_zones(self.surface, &self.friction_zones, ego_state.s);
        let road = &self.road;
        let ego = self.ego.as_mut().expect("ego vehicle not spawned");
        ego.step(ego_command, road, surface, dt);

        self.time += dt;
        self.steps += 1;

        if self.first_collision.is_none() {
            let ego = self.ego.as_ref().expect("ego exists");
            for (i, npc) in self.npcs.iter().enumerate() {
                if vehicles_overlap(ego, npc.vehicle()) {
                    self.first_collision = Some(CollisionEvent {
                        time: self.time,
                        npc_index: i,
                        closing_speed: ego.state().v - npc.state().v,
                        longitudinal: contact_is_longitudinal(ego, npc.vehicle()),
                    });
                    break;
                }
            }
        }
        if self.first_departure.is_none() {
            let ego = self.ego.as_ref().expect("ego exists");
            if center_departed_lane(&self.road, self.road.ego_lane(), ego) {
                self.first_departure = Some(LaneDeparture {
                    time: self.time,
                    offset: ego.state().d,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npc::{NpcBehavior, NpcPlan, NpcTrigger};
    use crate::road::RoadBuilder;
    use crate::units::mph;

    fn simple_world() -> World {
        let road = RoadBuilder::straight_highway(3000.0).build();
        World::new(WorldConfig::default(), road)
    }

    #[test]
    fn lead_observation_finds_nearest_in_lane() {
        let mut w = simple_world();
        w.spawn_ego(0.0, mph(50.0));
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            120.0,
            0.0,
            mph(30.0),
            NpcPlan::cruise(),
        ));
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            60.0,
            0.0,
            mph(30.0),
            NpcPlan::cruise(),
        ));
        // Adjacent lane vehicle must be ignored.
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            30.0,
            3.5,
            mph(30.0),
            NpcPlan::cruise(),
        ));
        let obs = w.lead_observation().expect("lead present");
        assert_eq!(obs.npc_index, 1);
        assert!((obs.distance - (60.0 - 4.9)).abs() < 1e-9);
        assert!(obs.closing_speed > 0.0);
    }

    #[test]
    fn no_lead_when_alone() {
        let mut w = simple_world();
        w.spawn_ego(0.0, 20.0);
        assert!(w.lead_observation().is_none());
    }

    #[test]
    fn ttc_infinite_when_opening() {
        let obs = LeadObservation {
            distance: 50.0,
            closing_speed: -2.0,
            lead_speed: 25.0,
            lead_d: 0.0,
            npc_index: 0,
        };
        assert!(obs.ttc().is_infinite());
        let closing = LeadObservation {
            closing_speed: 10.0,
            ..obs
        };
        assert!((closing.ttc() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn collision_latched_once() {
        let mut w = simple_world();
        w.spawn_ego(0.0, 25.0);
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            40.0,
            0.0,
            0.0,
            NpcPlan::cruise(),
        ));
        for _ in 0..800 {
            w.step(VehicleCommand {
                gas: 0.4,
                ..VehicleCommand::default()
            });
        }
        let hit = w.collision().expect("should collide with stopped car");
        assert!(hit.longitudinal);
        assert!(hit.time > 0.5);
        let first_time = hit.time;
        for _ in 0..100 {
            w.step(VehicleCommand::coast());
        }
        assert_eq!(w.collision().expect("still latched").time, first_time);
    }

    #[test]
    fn lane_departure_detected() {
        let mut w = simple_world();
        w.spawn_ego(0.0, 20.0);
        for _ in 0..800 {
            w.step(VehicleCommand {
                gas: 0.2,
                brake: 0.0,
                steer: 0.1,
            });
            if w.lane_departure().is_some() {
                break;
            }
        }
        let dep = w.lane_departure().expect("steady steer departs lane");
        assert!(dep.offset.abs() > 1.7);
    }

    #[test]
    fn cut_in_threat_detection() {
        let mut w = simple_world();
        w.spawn_ego(0.0, 20.0);
        let plan = NpcPlan::cruise().then(
            NpcTrigger::AtTime(0.5),
            NpcBehavior::MoveLateral {
                target_d: 0.0,
                duration: 3.0,
            },
        );
        w.add_npc(Npc::new(VehicleParams::sedan(), 25.0, 3.5, 18.0, plan));
        let mut seen = false;
        for _ in 0..400 {
            w.step(VehicleCommand::coast());
            seen |= w.cut_in_threat();
        }
        assert!(seen, "cut-in manoeuvre should be flagged");
    }

    #[test]
    fn no_cut_in_threat_from_stable_neighbor() {
        let mut w = simple_world();
        w.spawn_ego(0.0, 20.0);
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            25.0,
            3.5,
            20.0,
            NpcPlan::cruise(),
        ));
        let mut seen = false;
        for _ in 0..300 {
            w.step(VehicleCommand::coast());
            seen |= w.cut_in_threat();
        }
        assert!(!seen);
    }

    #[test]
    fn friction_zone_weakens_braking_inside_the_band() {
        let brake_distance = |zones: &[FrictionZone]| {
            let mut w = simple_world();
            for z in zones {
                w.add_friction_zone(*z);
            }
            w.spawn_ego(0.0, 30.0);
            while w.ego().state().v > 0.5 {
                w.step(VehicleCommand {
                    brake: 1.0,
                    ..VehicleCommand::default()
                });
            }
            w.ego().state().s
        };
        let dry = brake_distance(&[]);
        let icy = brake_distance(&[FrictionZone {
            start_s: 0.0,
            end_s: 1_000.0,
            scale: 0.25,
        }]);
        assert!(icy > dry * 2.0, "icy zone must stretch stopping distance");
        // A zone the ego never enters leaves the run untouched.
        let elsewhere = brake_distance(&[FrictionZone {
            start_s: 2_000.0,
            end_s: 2_500.0,
            scale: 0.25,
        }]);
        assert_eq!(elsewhere, dry);
    }

    #[test]
    fn surface_at_reflects_zones() {
        let mut w = simple_world();
        w.add_friction_zone(FrictionZone {
            start_s: 100.0,
            end_s: 200.0,
            scale: 0.5,
        });
        assert_eq!(w.surface_at(50.0), w.surface());
        assert!((w.surface_at(150.0).mu - w.surface().mu * 0.5).abs() < 1e-12);
        assert_eq!(w.friction_zones().len(), 1);
    }

    #[test]
    fn time_advances_with_steps() {
        let mut w = simple_world();
        w.spawn_ego(0.0, 10.0);
        for _ in 0..100 {
            w.step(VehicleCommand::coast());
        }
        assert!((w.time() - 1.0).abs() < 1e-9);
        assert_eq!(w.steps(), 100);
    }
}
