//! Hazard (H1/H2) and accident (A1/A2) detection.

use adas_codec::{Encode, Writer};
use adas_simulator::World;

/// The two accident classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccidentKind {
    /// A1: forward collision with the lead vehicle.
    ForwardCollision,
    /// A2: driving out of the lane, or colliding with side vehicles.
    LaneViolation,
}

impl AccidentKind {
    /// Table label ("A1"/"A2").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AccidentKind::ForwardCollision => "A1",
            AccidentKind::LaneViolation => "A2",
        }
    }

    /// Stable wire code, 1–2; 0 is reserved for "no accident" wherever an
    /// `Option<AccidentKind>` is encoded.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            AccidentKind::ForwardCollision => 1,
            AccidentKind::LaneViolation => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for 0 and unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(AccidentKind::ForwardCollision),
            2 => Some(AccidentKind::LaneViolation),
            _ => None,
        }
    }
}

impl std::fmt::Display for AccidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hazard thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardConfig {
    /// H1 fires when the true gap drops below this, metres (the paper's
    /// "violating the safety distance"; one vehicle length).
    pub h1_distance: f64,
    /// H1 also fires when the true TTC drops below this, seconds.
    pub h1_ttc: f64,
    /// H2 fires when the edge-to-lane-line distance drops below this,
    /// metres (the paper uses 0.1 m).
    pub h2_line_distance: f64,
}

impl Default for HazardConfig {
    fn default() -> Self {
        Self {
            h1_distance: 4.9,
            h1_ttc: 0.9,
            h2_line_distance: 0.1,
        }
    }
}

impl Encode for HazardConfig {
    fn encode(&self, w: &mut Writer) {
        let Self {
            h1_distance,
            h1_ttc,
            h2_line_distance,
        } = *self;
        w.f64(h1_distance);
        w.f64(h1_ttc);
        w.f64(h2_line_distance);
    }
}

/// Current hazard/accident status for one step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HazardSnapshot {
    /// H1 active this step.
    pub h1: bool,
    /// H2 active this step.
    pub h2: bool,
    /// Accident latched (first one wins).
    pub accident: Option<AccidentKind>,
}

/// Stateful monitor: latches first-occurrence times.
#[derive(Debug, Clone, Default)]
pub struct HazardMonitor {
    config: HazardConfig,
    first_h1: Option<f64>,
    first_h2: Option<f64>,
    accident: Option<(f64, AccidentKind)>,
}

impl HazardMonitor {
    /// Creates a monitor.
    #[must_use]
    pub fn new(config: HazardConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// First H1 time, if any.
    #[must_use]
    pub fn first_h1(&self) -> Option<f64> {
        self.first_h1
    }

    /// First H2 time, if any.
    #[must_use]
    pub fn first_h2(&self) -> Option<f64> {
        self.first_h2
    }

    /// The latched accident (time, kind), if any.
    #[must_use]
    pub fn accident(&self) -> Option<(f64, AccidentKind)> {
        self.accident
    }

    /// True when any hazard was ever observed.
    #[must_use]
    pub fn any_hazard(&self) -> bool {
        self.first_h1.is_some() || self.first_h2.is_some()
    }

    /// Evaluates the detectors against the world after a step.
    pub fn update(&mut self, world: &World) -> HazardSnapshot {
        let cfg = self.config;
        let t = world.time();

        let h1 = world
            .lead_observation()
            .is_some_and(|obs| obs.distance < cfg.h1_distance || obs.ttc() < cfg.h1_ttc);
        if h1 && self.first_h1.is_none() {
            self.first_h1 = Some(t);
        }

        let h2 = world.ego_lane_line_distance() < cfg.h2_line_distance;
        if h2 && self.first_h2.is_none() {
            self.first_h2 = Some(t);
        }

        if self.accident.is_none() {
            if let Some(hit) = world.collision() {
                let kind = if hit.longitudinal {
                    AccidentKind::ForwardCollision
                } else {
                    AccidentKind::LaneViolation
                };
                self.accident = Some((hit.time, kind));
            } else if let Some(dep) = world.lane_departure() {
                self.accident = Some((dep.time, AccidentKind::LaneViolation));
            }
        }

        HazardSnapshot {
            h1,
            h2,
            accident: self.accident.map(|(_, k)| k),
        }
    }

    /// Resets latched state (new run).
    pub fn reset(&mut self) {
        *self = Self::new(self.config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_simulator::{
        Npc, NpcPlan, RoadBuilder, VehicleCommand, VehicleParams, World, WorldConfig,
    };

    fn world() -> World {
        let road = RoadBuilder::straight_highway(3000.0).build();
        World::new(WorldConfig::default(), road)
    }

    #[test]
    fn no_hazard_in_normal_following() {
        let mut w = world();
        w.spawn_ego(0.0, 13.0);
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            40.0,
            0.0,
            13.0,
            NpcPlan::cruise(),
        ));
        let mut m = HazardMonitor::default();
        for _ in 0..200 {
            w.step(VehicleCommand::coast());
            let snap = m.update(&w);
            assert!(!snap.h1 && !snap.h2);
        }
        assert!(!m.any_hazard());
    }

    #[test]
    fn h1_on_close_gap() {
        let mut w = world();
        w.spawn_ego(0.0, 15.0);
        // Centers 9 m apart → gap ≈ 4.1 m < 4.9 m.
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            9.0,
            0.0,
            15.0,
            NpcPlan::cruise(),
        ));
        let mut m = HazardMonitor::default();
        w.step(VehicleCommand::coast());
        let snap = m.update(&w);
        assert!(snap.h1);
        assert!(m.first_h1().is_some());
    }

    #[test]
    fn h2_near_lane_line() {
        let mut w = world();
        w.spawn_ego(0.0, 20.0);
        let mut m = HazardMonitor::default();
        // Drift until close to the line.
        for _ in 0..2000 {
            w.step(VehicleCommand {
                gas: 0.1,
                brake: 0.0,
                steer: 0.02,
            });
            let _ = m.update(&w);
            if m.first_h2().is_some() {
                break;
            }
        }
        assert!(m.first_h2().is_some());
    }

    #[test]
    fn forward_collision_is_a1() {
        let mut w = world();
        w.spawn_ego(0.0, 25.0);
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            30.0,
            0.0,
            0.0,
            NpcPlan::cruise(),
        ));
        let mut m = HazardMonitor::default();
        for _ in 0..600 {
            w.step(VehicleCommand {
                gas: 0.5,
                ..VehicleCommand::default()
            });
            let _ = m.update(&w);
            if m.accident().is_some() {
                break;
            }
        }
        let (t, kind) = m.accident().expect("collision");
        assert_eq!(kind, AccidentKind::ForwardCollision);
        assert!(t > 0.0);
    }

    #[test]
    fn lane_departure_is_a2() {
        let mut w = world();
        w.spawn_ego(0.0, 22.0);
        let mut m = HazardMonitor::default();
        for _ in 0..2000 {
            w.step(VehicleCommand {
                gas: 0.2,
                brake: 0.0,
                steer: 0.08,
            });
            let _ = m.update(&w);
            if m.accident().is_some() {
                break;
            }
        }
        assert_eq!(m.accident().unwrap().1, AccidentKind::LaneViolation);
    }

    #[test]
    fn first_accident_latched() {
        let mut w = world();
        w.spawn_ego(0.0, 25.0);
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            20.0,
            0.0,
            0.0,
            NpcPlan::cruise(),
        ));
        let mut m = HazardMonitor::default();
        for _ in 0..1000 {
            w.step(VehicleCommand {
                gas: 0.6,
                brake: 0.0,
                steer: 0.05,
            });
            let _ = m.update(&w);
        }
        let (t, _) = m.accident().expect("something happened");
        // Accident time does not move afterwards.
        let again = m.accident().unwrap().0;
        assert_eq!(t, again);
    }

    #[test]
    fn reset_clears_latches_simple() {
        let mut m = HazardMonitor::default();
        let mut w = world();
        w.spawn_ego(0.0, 15.0);
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            8.0,
            0.0,
            15.0,
            NpcPlan::cruise(),
        ));
        w.step(VehicleCommand::coast());
        let _ = m.update(&w);
        assert!(m.any_hazard());
        m.reset();
        assert!(!m.any_hazard());
    }
}

/// Property tests over randomized worlds: latching is monotone, `reset()`
/// is indistinguishable from fresh construction, and an accident is never
/// reported without its hazard precursor.
#[cfg(test)]
mod properties {
    use super::*;
    use adas_simulator::{
        Npc, NpcPlan, RoadBuilder, VehicleCommand, VehicleParams, World, WorldConfig,
    };
    use proptest::prelude::*;

    /// A randomized car-following world: ego behind one in-lane lead.
    fn lead_world(ego_v: f64, lead_gap: f64, lead_v: f64) -> World {
        let road = RoadBuilder::straight_highway(5000.0).build();
        let mut w = World::new(WorldConfig::default(), road);
        w.spawn_ego(0.0, ego_v);
        w.add_npc(Npc::new(
            VehicleParams::sedan(),
            lead_gap,
            0.0,
            lead_v,
            NpcPlan::cruise(),
        ));
        w
    }

    proptest! {
        /// Once a first-occurrence time latches it never moves, and it is
        /// never in the future of the step that set it.
        #[test]
        fn first_times_latch_monotonically(
            ego_v in 10.0f64..30.0,
            lead_gap in 15.0f64..120.0,
            lead_v in 0.0f64..10.0,
            gas in 0.3f64..1.0,
            steer in -0.05f64..0.05,
        ) {
            let mut w = lead_world(ego_v, lead_gap, lead_v);
            let mut m = HazardMonitor::default();
            let (mut h1, mut h2, mut acc) = (None, None, None);
            for _ in 0..500 {
                w.step(VehicleCommand { gas, brake: 0.0, steer });
                let _ = m.update(&w);
                for (latched, fresh) in [(&mut h1, m.first_h1()), (&mut h2, m.first_h2())] {
                    match (*latched, fresh) {
                        (None, Some(t)) => {
                            prop_assert!(t <= w.time() + 1e-9, "latched in the future");
                            *latched = Some(t);
                        }
                        (Some(t0), now) => prop_assert_eq!(now, Some(t0), "first time moved"),
                        (None, None) => {}
                    }
                }
                match (acc, m.accident()) {
                    (None, Some(a)) => acc = Some(a),
                    (Some(a0), now) => prop_assert_eq!(now, Some(a0), "accident relatched"),
                    (None, None) => {}
                }
            }
        }

        /// After `reset()` the monitor is observationally identical to a
        /// freshly constructed one: both report the same snapshots and
        /// first-occurrence times on any subsequent world history.
        #[test]
        fn reset_equals_fresh_construction(
            ego_v in 10.0f64..30.0,
            lead_gap in 10.0f64..80.0,
            lead_v in 0.0f64..10.0,
            gas in 0.2f64..1.0,
            prefix_steps in 0usize..400,
        ) {
            // Dirty a monitor with an arbitrary history, then reset.
            let mut recycled = HazardMonitor::default();
            let mut w = lead_world(ego_v, lead_gap, lead_v);
            for _ in 0..prefix_steps {
                w.step(VehicleCommand { gas: 1.0, brake: 0.0, steer: 0.03 });
                let _ = recycled.update(&w);
            }
            recycled.reset();
            prop_assert!(!recycled.any_hazard());
            prop_assert!(recycled.accident().is_none());

            let mut fresh = HazardMonitor::default();
            let mut w2 = lead_world(ego_v, lead_gap, lead_v);
            for _ in 0..300 {
                w2.step(VehicleCommand { gas, brake: 0.0, steer: 0.0 });
                let a = recycled.update(&w2);
                let b = fresh.update(&w2);
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(recycled.first_h1(), fresh.first_h1());
            prop_assert_eq!(recycled.first_h2(), fresh.first_h2());
            prop_assert_eq!(recycled.accident(), fresh.accident());
        }

        /// No accident without its hazard precursor: a forward collision
        /// (A1) implies H1 fired at or before the accident time; a lane
        /// violation (A2) from steady drift implies H2 did. Physics is
        /// continuous and the thresholds leave margin (4.9 m gap, 0.1 m
        /// line distance), so a per-step monitor cannot skip the hazard.
        #[test]
        fn accident_implies_preceding_hazard(
            ego_v in 15.0f64..30.0,
            lead_gap in 10.0f64..60.0,
            lead_v in 0.0f64..8.0,
            steer in -0.06f64..0.06,
        ) {
            let mut w = lead_world(ego_v, lead_gap, lead_v);
            let mut m = HazardMonitor::default();
            for _ in 0..3000 {
                w.step(VehicleCommand { gas: 0.8, brake: 0.0, steer });
                let _ = m.update(&w);
                if m.accident().is_some() {
                    break;
                }
            }
            if let Some((t_acc, kind)) = m.accident() {
                let precursor = match kind {
                    AccidentKind::ForwardCollision => m.first_h1(),
                    AccidentKind::LaneViolation => m.first_h2(),
                };
                prop_assert!(
                    precursor.is_some_and(|t| t <= t_acc + 1e-9),
                    "{kind} at t={t_acc} with precursor {precursor:?}"
                );
            }
        }
    }
}
