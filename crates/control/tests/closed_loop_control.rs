//! Closed-loop tests of the control stack against the physics: the ACC must
//! settle behind a lead; the ALC must track curvy roads via the path
//! output; the documented late-braking profile must appear.

use adas_control::{AdasConfig, AdasController};
use adas_perception::{PerceptionConfig, PerceptionEmulator};
use adas_simulator::{
    units::{mph, SIM_DT},
    DeterministicRng, Npc, NpcPlan, RoadBuilder, VehicleCommand, VehicleParams, World, WorldConfig,
};

/// Drives the full perception→control→physics loop (no faults, no safety
/// layer) and returns the world afterwards.
fn drive_loop(road_curvy: bool, lead_gap: Option<f64>, steps: usize, set_speed: f64) -> World {
    let road = if road_curvy {
        RoadBuilder::curvy_highway(5000.0).build()
    } else {
        RoadBuilder::straight_highway(5000.0).build()
    };
    let mut world = World::new(WorldConfig::default(), road);
    world.spawn_ego(10.0, set_speed);
    if let Some(gap) = lead_gap {
        world.add_npc(Npc::new(
            VehicleParams::sedan(),
            10.0 + gap,
            0.0,
            mph(30.0),
            NpcPlan::cruise(),
        ));
    }
    let mut perception =
        PerceptionEmulator::new(PerceptionConfig::default(), DeterministicRng::from_seed(3));
    let mut config = AdasConfig::default();
    config.acc.set_speed = set_speed;
    let mut adas = AdasController::new(config);
    let params = VehicleParams::sedan();
    for _ in 0..steps {
        let frame = perception.perceive(&world);
        let cmd = adas.control(&frame, SIM_DT);
        let vehicle_cmd = VehicleCommand::from_accel(cmd.accel, &params).with_steer(cmd.steer);
        world.step(vehicle_cmd);
    }
    world
}

#[test]
fn settles_behind_slower_lead_without_contact() {
    let world = drive_loop(false, Some(60.0), 6000, mph(50.0));
    assert!(world.collision().is_none());
    let obs = world.lead_observation().expect("still tracking lead");
    assert!(
        (20.0..45.0).contains(&obs.distance),
        "settled gap {}",
        obs.distance
    );
    assert!(
        (obs.closing_speed).abs() < 1.0,
        "closing {}",
        obs.closing_speed
    );
}

#[test]
fn holds_set_speed_without_lead() {
    let world = drive_loop(false, None, 4000, mph(50.0));
    let v = world.ego().state().v;
    assert!((v - mph(50.0)).abs() < 1.0, "cruise speed {v}");
}

#[test]
fn tracks_curvy_road_within_lane() {
    let world = drive_loop(true, None, 9000, mph(50.0));
    assert!(world.lane_departure().is_none());
    assert!(world.ego_lane_line_distance() > 0.0);
}

#[test]
fn approach_shows_late_hard_braking() {
    // The paper's Fig. 5 signature: a pronounced speed drop only once the
    // lead is close, not a smooth glide from far away.
    let road = RoadBuilder::straight_highway(5000.0).build();
    let mut world = World::new(WorldConfig::default(), road);
    world.spawn_ego(10.0, mph(50.0));
    world.add_npc(Npc::new(
        VehicleParams::sedan(),
        70.0,
        0.0,
        mph(30.0),
        NpcPlan::cruise(),
    ));
    let mut perception =
        PerceptionEmulator::new(PerceptionConfig::default(), DeterministicRng::from_seed(4));
    let mut adas = AdasController::new(AdasConfig::default());
    let params = VehicleParams::sedan();
    let mut speed_at_gap_50 = None;
    let mut min_speed: f64 = f64::INFINITY;
    for _ in 0..3000 {
        let frame = perception.perceive(&world);
        let cmd = adas.control(&frame, SIM_DT);
        world.step(VehicleCommand::from_accel(cmd.accel, &params).with_steer(cmd.steer));
        if let Some(obs) = world.lead_observation() {
            if obs.distance < 50.0 && speed_at_gap_50.is_none() {
                speed_at_gap_50 = Some(world.ego().state().v);
            }
        }
        min_speed = min_speed.min(world.ego().state().v);
    }
    // Still near cruise speed at 50 m gap (late reaction), then a deep drop.
    let at_50 = speed_at_gap_50.expect("approached through 50 m");
    assert!(at_50 > mph(50.0) * 0.85, "early braking: v={at_50}");
    assert!(
        min_speed < mph(30.0) * 1.05,
        "no hard drop: min {min_speed}"
    );
}

#[test]
fn lead_tracker_converges_to_true_closing_speed() {
    use adas_control::{AccConfig, AccController};
    use adas_perception::{LeadPrediction, PerceptionFrame};
    let mut acc = AccController::new(AccConfig::default());
    // Constant closing at 6 m/s observed through the distance channel.
    let mut gap = 90.0;
    for _ in 0..400 {
        gap -= 6.0 * SIM_DT;
        let frame = PerceptionFrame {
            lead: Some(LeadPrediction {
                distance: gap,
                closing_speed: 0.0, // DNN speed output deliberately wrong
                lead_speed: 10.0,
            }),
            ..PerceptionFrame::neutral(20.0)
        };
        let _ = acc.plan(&frame, SIM_DT);
    }
    let est = acc.tracked_closing_speed().expect("tracking");
    assert!((est - 6.0).abs() < 0.5, "estimate {est}");
}
