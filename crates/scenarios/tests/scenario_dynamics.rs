//! Scenario scripts executed in the world: each of S1–S6 must produce the
//! traffic behaviour its NHTSA description demands.

use adas_scenarios::{InitialPosition, ScenarioId, ScenarioSetup};
use adas_simulator::math::atan;
use adas_simulator::{
    units::{mph, SIM_DT},
    DeterministicRng, VehicleCommand, World, WorldConfig,
};

/// Runs the scenario's traffic with a simple speed-holding ego so events
/// keyed to the ego's approach actually fire.
fn run_world(id: ScenarioId, seconds: f64) -> World {
    let mut rng = DeterministicRng::for_run(5, id.index() as u64, 0, 0);
    let setup = ScenarioSetup::build(id, InitialPosition::Near, &mut rng);
    let mut world = World::new(WorldConfig::default(), setup.road.clone());
    world.spawn_ego(setup.ego_start_s, setup.ego_speed);
    for npc in &setup.npcs {
        world.add_npc(npc.clone());
    }
    let steps = (seconds / SIM_DT) as usize;
    for _ in 0..steps {
        // Hold ~ lead speed once close, else cruise: a crude but stable ego.
        let cmd = match world.lead_observation() {
            Some(obs) if obs.distance < 30.0 => VehicleCommand {
                gas: 0.0,
                brake: 0.3,
                steer: 0.0,
            },
            _ => VehicleCommand {
                gas: 0.35,
                brake: 0.0,
                steer: 0.0,
            },
        };
        world.step(cmd);
        if world.collision().is_some() {
            break;
        }
    }
    world
}

#[test]
fn s1_lead_holds_thirty_mph() {
    let world = run_world(ScenarioId::S1, 40.0);
    let v = world.npcs()[0].state().v;
    assert!((v - mph(30.0)).abs() < 1.0, "lead speed {v}");
}

#[test]
fn s2_lead_accelerates_to_forty() {
    let world = run_world(ScenarioId::S2, 60.0);
    let v = world.npcs()[0].state().v;
    assert!((v - mph(40.0)).abs() < 1.5, "lead speed {v}");
}

#[test]
fn s3_lead_decelerates_to_thirty() {
    let world = run_world(ScenarioId::S3, 60.0);
    let v = world.npcs()[0].state().v;
    assert!((v - mph(30.0)).abs() < 1.5, "lead speed {v}");
}

#[test]
fn s4_lead_stops_when_ego_approaches() {
    let world = run_world(ScenarioId::S4, 60.0);
    let v = world.npcs()[0].state().v;
    assert!(v < 0.5, "lead must be stopped, v={v}");
}

#[test]
fn s5_cut_in_vehicle_enters_ego_lane() {
    let world = run_world(ScenarioId::S5, 60.0);
    // NPC 1 is the cut-in vehicle; it must end near the ego lane center.
    let d = world.npcs()[1].state().d;
    assert!(d.abs() < 0.8, "cut-in lateral {d}");
}

#[test]
fn s6_closer_lead_vacates_the_lane() {
    let world = run_world(ScenarioId::S6, 60.0);
    // NPC 1 is the closer lead; it must have moved a full lane away.
    let d = world.npcs()[1].state().d;
    assert!((d - 3.5).abs() < 0.8, "lane-change lateral {d}");
    // And NPC 0 (the farther lead) stays in lane.
    assert!(world.npcs()[0].state().d.abs() < 0.5);
}

#[test]
fn far_position_catches_up_eventually() {
    // The paper picked 230 m so the ego catches the lead on curvy roads.
    let mut rng = DeterministicRng::for_run(5, 0, 1, 0);
    let setup = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Far, &mut rng);
    let mut world = World::new(WorldConfig::default(), setup.road.clone());
    world.spawn_ego(setup.ego_start_s, setup.ego_speed);
    for npc in &setup.npcs {
        world.add_npc(npc.clone());
    }
    let mut caught_up = false;
    for _ in 0..9000 {
        world.step(VehicleCommand {
            gas: 0.35,
            brake: 0.0,
            steer: atan(2.7 * world.road().curvature_at(world.ego().state().s)),
        });
        if world.lead_observation().is_some_and(|o| o.distance < 60.0) {
            caught_up = true;
            break;
        }
    }
    assert!(caught_up, "ego never caught the lead from 230 m");
}
