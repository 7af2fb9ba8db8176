//! Scenario construction: roads, spawn positions, NPC scripts.

use adas_simulator::{
    units::mph, DeterministicRng, FrictionZone, Npc, NpcBehavior, NpcPlan, NpcTrigger, Road,
    RoadBuilder, VehicleParams,
};

/// The six NHTSA pre-crash scenarios of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioId {
    /// Lead cruises at a constant 30 mph.
    S1,
    /// Lead cruises at 30 mph then accelerates to 40 mph.
    S2,
    /// Lead cruises at 40 mph then decelerates to 30 mph.
    S3,
    /// Lead cruises at 30 mph then suddenly brakes to a stop.
    S4,
    /// Cut-in from the neighbouring lane.
    S5,
    /// The closer of two leads changes lanes away.
    S6,
}

impl ScenarioId {
    /// All scenarios in order.
    pub const ALL: [ScenarioId; 6] = [
        ScenarioId::S1,
        ScenarioId::S2,
        ScenarioId::S3,
        ScenarioId::S4,
        ScenarioId::S5,
        ScenarioId::S6,
    ];

    /// Stable index 0–5.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ScenarioId::S1 => 0,
            ScenarioId::S2 => 1,
            ScenarioId::S3 => 2,
            ScenarioId::S4 => 3,
            ScenarioId::S5 => 4,
            ScenarioId::S6 => 5,
        }
    }

    /// Label used in the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScenarioId::S1 => "S1",
            ScenarioId::S2 => "S2",
            ScenarioId::S3 => "S3",
            ScenarioId::S4 => "S4",
            ScenarioId::S5 => "S5",
            ScenarioId::S6 => "S6",
        }
    }

    /// One-line description.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            ScenarioId::S1 => "lead vehicle cruises at a constant 30 mph",
            ScenarioId::S2 => "lead cruises at 30 mph then accelerates to 40 mph",
            ScenarioId::S3 => "lead cruises at 40 mph then decelerates to 30 mph",
            ScenarioId::S4 => "lead cruises at 30 mph then suddenly brakes to a stop",
            ScenarioId::S5 => "another vehicle cuts in from the neighbouring lane",
            ScenarioId::S6 => "the closer of two leads changes lanes away",
        }
    }
}

impl std::fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Initial ego–lead separation; the paper pairs 60 m with a straight
/// highway and 230 m with a curvy one so the ego always catches up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InitialPosition {
    /// 60 m ahead, straight highway.
    Near,
    /// 230 m ahead, curvy highway.
    Far,
}

impl InitialPosition {
    /// Both positions in paper order.
    pub const ALL: [InitialPosition; 2] = [InitialPosition::Near, InitialPosition::Far];

    /// Initial center-to-center distance, metres.
    #[must_use]
    pub fn distance(self) -> f64 {
        match self {
            InitialPosition::Near => 60.0,
            InitialPosition::Far => 230.0,
        }
    }

    /// Stable index 0–1.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            InitialPosition::Near => 0,
            InitialPosition::Far => 1,
        }
    }

    /// Builds the road map this position is paired with.
    #[must_use]
    pub fn road(self) -> Road {
        match self {
            InitialPosition::Near => RoadBuilder::straight_highway(4_000.0).build(),
            InitialPosition::Far => RoadBuilder::curvy_highway(4_500.0).build(),
        }
    }
}

/// Everything needed to initialise a world for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSetup {
    /// The scenario this was built from.
    pub id: ScenarioId,
    /// The position/road pairing.
    pub position: InitialPosition,
    /// The road to drive.
    pub road: Road,
    /// Ego spawn arc length, metres.
    pub ego_start_s: f64,
    /// Ego initial (and cruise set) speed, m/s.
    pub ego_speed: f64,
    /// Scripted vehicles to add.
    pub npcs: Vec<Npc>,
    /// Suggested arc length for the adversarial road patch: placed so the
    /// ego reaches it during its approach phase.
    pub patch_start_s: f64,
    /// Localised friction bands along the road (wet patches, icy bridge
    /// decks). Empty for the builtin S1–S6.
    pub friction_zones: Vec<FrictionZone>,
}

impl ScenarioSetup {
    /// Builds a runnable setup for `(scenario, position)`; `rng` provides
    /// the per-repetition jitter (spawn distance, speeds, event timing) that
    /// makes the paper's 10 repetitions differ.
    ///
    /// Setups come from the process-wide [`crate::dsl::ScenarioCatalog`]:
    /// the six golden `.scn` files by default (bit-identical to
    /// [`Self::build_hardcoded`]), or `ADAS_SCENARIO` overrides.
    #[must_use]
    pub fn build(id: ScenarioId, position: InitialPosition, rng: &mut DeterministicRng) -> Self {
        crate::dsl::ScenarioCatalog::global().build(id, position, rng)
    }

    /// The historical hard-coded constructor, retained as the reference
    /// the DSL catalog is differentially tested against.
    #[must_use]
    pub fn build_hardcoded(
        id: ScenarioId,
        position: InitialPosition,
        rng: &mut DeterministicRng,
    ) -> Self {
        let road = position.road();
        let ego_start_s = 10.0;
        let ego_speed = mph(50.0) + rng.gaussian(0.15);
        let gap_jitter = rng.gaussian(1.5);
        let lead_s = ego_start_s + position.distance() + gap_jitter;
        let v30 = mph(30.0) + rng.gaussian(0.1);
        let v40 = mph(40.0) + rng.gaussian(0.1);
        let event_time = 20.0 + rng.uniform(0.0, 10.0);
        let params = VehicleParams::sedan();

        let mut npcs = Vec::new();
        match id {
            ScenarioId::S1 => {
                npcs.push(Npc::new(params, lead_s, 0.0, v30, NpcPlan::cruise()));
            }
            ScenarioId::S2 => {
                let plan = NpcPlan::cruise().then(
                    NpcTrigger::AtTime(event_time),
                    NpcBehavior::SetSpeed {
                        target: v40,
                        rate: 1.5,
                    },
                );
                npcs.push(Npc::new(params, lead_s, 0.0, v30, plan));
            }
            ScenarioId::S3 => {
                let plan = NpcPlan::cruise().then(
                    NpcTrigger::AtTime(event_time),
                    NpcBehavior::SetSpeed {
                        target: v30,
                        rate: 1.5,
                    },
                );
                npcs.push(Npc::new(params, lead_s, 0.0, v40, plan));
            }
            ScenarioId::S4 => {
                // Sudden stop while the ego is still closing in — the paper
                // observes collisions here even without an attack,
                // particularly when the lead brakes abruptly on a curve.
                let plan = NpcPlan::cruise().then(
                    NpcTrigger::GapToEgoBelow(52.0 + rng.uniform(-6.0, 6.0)),
                    NpcBehavior::Stop {
                        decel: 9.5 + rng.uniform(-0.3, 0.3),
                    },
                );
                npcs.push(Npc::new(params, lead_s, 0.0, v30, plan));
            }
            ScenarioId::S5 => {
                npcs.push(Npc::new(params, lead_s, 0.0, v30, NpcPlan::cruise()));
                // Cut-in vehicle: adjacent lane, slightly ahead of the ego,
                // slower — it merges once the ego gets close.
                let lane_w = road.lane_width();
                let cut_plan = NpcPlan::cruise().then(
                    NpcTrigger::GapToEgoBelow(26.0 + rng.uniform(-3.0, 3.0)),
                    NpcBehavior::MoveLateral {
                        target_d: 0.0,
                        duration: 2.8 + rng.uniform(-0.4, 0.4),
                    },
                );
                npcs.push(Npc::new(
                    params,
                    lead_s - position.distance() * 0.5,
                    lane_w,
                    mph(35.0) + rng.gaussian(0.1),
                    cut_plan,
                ));
            }
            ScenarioId::S6 => {
                // Farther lead (becomes the lead after the closer one leaves).
                npcs.push(Npc::new(params, lead_s + 28.0, 0.0, v30, NpcPlan::cruise()));
                // Closer lead changes into the adjacent lane as the ego nears.
                let lane_w = road.lane_width();
                let away_plan = NpcPlan::cruise().then(
                    NpcTrigger::GapToEgoBelow(38.0 + rng.uniform(-3.0, 3.0)),
                    NpcBehavior::MoveLateral {
                        target_d: lane_w,
                        duration: 3.0,
                    },
                );
                npcs.push(Npc::new(params, lead_s, 0.0, v30, away_plan));
            }
        }

        // The road patch sits where the ego crosses it towards the end of
        // its approach to the lead — the attacker knows the victim's
        // driving path (threat model), and a patch far from any traffic
        // would be trivially inconsequential. With the 230 m initial gap
        // the catch-up happens correspondingly later.
        let patch_offset = match position {
            InitialPosition::Near => 240.0,
            InitialPosition::Far => 500.0,
        };
        let patch_start_s = ego_start_s + patch_offset + rng.uniform(0.0, 40.0);

        Self {
            id,
            position,
            road,
            ego_start_s,
            ego_speed,
            npcs,
            patch_start_s,
            friction_zones: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DeterministicRng {
        DeterministicRng::from_seed(11)
    }

    #[test]
    fn all_scenarios_build_for_both_positions() {
        for id in ScenarioId::ALL {
            for pos in InitialPosition::ALL {
                let setup = ScenarioSetup::build(id, pos, &mut rng());
                assert!(!setup.npcs.is_empty(), "{id} {pos:?} has traffic");
                assert!(setup.ego_speed > mph(45.0));
                assert!(setup.patch_start_s > setup.ego_start_s);
            }
        }
    }

    #[test]
    fn initial_distance_matches_position() {
        for pos in InitialPosition::ALL {
            let setup = ScenarioSetup::build(ScenarioId::S1, pos, &mut rng());
            let lead_s = setup.npcs[0].state().s;
            let gap = lead_s - setup.ego_start_s;
            assert!(
                (gap - pos.distance()).abs() < 6.0,
                "{pos:?}: gap {gap} vs {}",
                pos.distance()
            );
        }
    }

    #[test]
    fn s5_has_adjacent_lane_vehicle() {
        let setup = ScenarioSetup::build(ScenarioId::S5, InitialPosition::Near, &mut rng());
        assert_eq!(setup.npcs.len(), 2);
        assert!((setup.npcs[1].state().d - 3.5).abs() < 1e-9);
    }

    #[test]
    fn s6_has_two_in_lane_vehicles() {
        let setup = ScenarioSetup::build(ScenarioId::S6, InitialPosition::Near, &mut rng());
        assert_eq!(setup.npcs.len(), 2);
        assert!(setup.npcs.iter().all(|n| n.state().d.abs() < 1e-9));
        assert!(setup.npcs[0].state().s > setup.npcs[1].state().s);
    }

    #[test]
    fn s3_lead_starts_faster() {
        let s3 = ScenarioSetup::build(ScenarioId::S3, InitialPosition::Near, &mut rng());
        let s1 = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut rng());
        assert!(s3.npcs[0].state().v > s1.npcs[0].state().v + 3.0);
    }

    #[test]
    fn repetitions_differ_but_are_reproducible() {
        let mut r1 = DeterministicRng::for_run(1, 0, 0, 0);
        let mut r2 = DeterministicRng::for_run(1, 0, 0, 1);
        let a = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut r1);
        let b = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut r2);
        assert_ne!(a.npcs[0].state().s, b.npcs[0].state().s);

        let mut r1_again = DeterministicRng::for_run(1, 0, 0, 0);
        let a_again = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut r1_again);
        assert_eq!(a.npcs[0].state().s, a_again.npcs[0].state().s);
    }

    #[test]
    fn far_position_uses_curvy_road() {
        let setup = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Far, &mut rng());
        let has_curve = setup.road.segments().any(|s| s.curvature != 0.0);
        assert!(has_curve);
        let near = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut rng());
        assert!(near.road.segments().all(|s| s.curvature == 0.0));
    }

    #[test]
    fn labels_and_indices_are_stable() {
        assert_eq!(ScenarioId::S4.label(), "S4");
        assert_eq!(ScenarioId::S4.index(), 3);
        assert_eq!(InitialPosition::Far.index(), 1);
        assert_eq!(format!("{}", ScenarioId::S2), "S2");
    }
}
