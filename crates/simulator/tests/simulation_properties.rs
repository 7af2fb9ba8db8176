//! Property-style integration tests of the physical substrate: energy-like
//! invariants, frenet/cartesian consistency, and multi-vehicle behaviour.

use adas_simulator::math::atan;
use adas_simulator::{
    units::{mph, SIM_DT},
    FrictionCondition, Npc, NpcBehavior, NpcPlan, NpcTrigger, RoadBuilder, SurfaceFriction,
    Vehicle, VehicleCommand, VehicleParams, World, WorldConfig,
};
use proptest::prelude::*;

#[test]
fn frenet_and_cartesian_agree_on_travelled_distance() {
    // Integrating a vehicle along a curvy road: the cartesian displacement
    // between consecutive samples must equal v·dt within integration error.
    let road = RoadBuilder::curvy_highway(4000.0).build();
    let mut car = Vehicle::new(VehicleParams::sedan(), 50.0, 0.0, 20.0);
    let mu = SurfaceFriction::default();
    let mut prev = road.frenet_to_cartesian(car.state().s, car.state().d);
    for _ in 0..2000 {
        let kappa = road.curvature_at(car.state().s);
        let steer = atan(car.params().wheelbase * kappa);
        car.step(
            VehicleCommand {
                gas: 0.1,
                brake: 0.0,
                steer,
            },
            &road,
            mu,
            SIM_DT,
        );
        let now = road.frenet_to_cartesian(car.state().s, car.state().d);
        let step_dist = prev.distance(now);
        let expected = car.state().v * SIM_DT;
        assert!(
            (step_dist - expected).abs() < 0.05 + expected * 0.1,
            "step {step_dist} vs v·dt {expected}"
        );
        prev = now;
    }
}

#[test]
fn stopping_distance_scales_inverse_with_friction() {
    let road = RoadBuilder::straight_highway(3000.0).build();
    let stop_distance = |condition: FrictionCondition| -> f64 {
        let mut car = Vehicle::new(VehicleParams::sedan(), 0.0, 0.0, 25.0);
        let mu = SurfaceFriction::new(condition);
        let mut steps = 0;
        while car.state().v > 0.01 && steps < 30_000 {
            car.step(
                VehicleCommand {
                    brake: 1.0,
                    ..VehicleCommand::default()
                },
                &road,
                mu,
                SIM_DT,
            );
            steps += 1;
        }
        car.state().s
    };
    let dry = stop_distance(FrictionCondition::Default);
    let wet = stop_distance(FrictionCondition::Off50);
    let ice = stop_distance(FrictionCondition::Off75);
    assert!(dry < wet && wet < ice, "{dry} {wet} {ice}");
    // Roughly inverse-proportional (v²/2μg), modulo actuator lag.
    assert!(ice / dry > 2.5, "ice/dry = {}", ice / dry);
}

#[test]
fn two_npcs_interact_with_world_consistently() {
    // S6-style: the closer lead moves away; the world's lead observation
    // must switch to the farther one.
    let road = RoadBuilder::straight_highway(3000.0).build();
    let mut world = World::new(WorldConfig::default(), road);
    world.spawn_ego(0.0, mph(30.0));
    let far = world.add_npc(Npc::new(
        VehicleParams::sedan(),
        90.0,
        0.0,
        mph(30.0),
        NpcPlan::cruise(),
    ));
    let near = world.add_npc(Npc::new(
        VehicleParams::sedan(),
        50.0,
        0.0,
        mph(30.0),
        NpcPlan::cruise().then(
            NpcTrigger::AtTime(1.0),
            NpcBehavior::MoveLateral {
                target_d: 3.5,
                duration: 2.5,
            },
        ),
    ));
    // Initially the near NPC is the lead.
    world.step(VehicleCommand::coast());
    assert_eq!(world.lead_observation().unwrap().npc_index, near);
    // After the lane change completes, the far NPC is the lead.
    for _ in 0..700 {
        world.step(VehicleCommand::coast());
    }
    assert_eq!(world.lead_observation().unwrap().npc_index, far);
}

#[test]
fn world_time_limit_and_collision_are_exclusive_outcomes() {
    let road = RoadBuilder::straight_highway(3000.0).build();
    let mut world = World::new(WorldConfig::default(), road);
    world.spawn_ego(0.0, 10.0);
    world.add_npc(Npc::new(
        VehicleParams::sedan(),
        500.0,
        0.0,
        10.0,
        NpcPlan::cruise(),
    ));
    for _ in 0..2000 {
        world.step(VehicleCommand::coast());
    }
    assert!(world.collision().is_none());
    assert!(world.lane_departure().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_spontaneous_lane_departure_under_centering(
        v0 in 8.0f64..30.0,
        seed_gas in 0.0f64..0.4,
    ) {
        // A vehicle steering exactly the road's curvature never leaves the
        // lane regardless of speed and throttle.
        let road = RoadBuilder::curvy_highway(4000.0).build();
        let mut car = Vehicle::new(VehicleParams::sedan(), 10.0, 0.0, v0);
        let mu = SurfaceFriction::default();
        for _ in 0..3000 {
            let kappa = road.curvature_at(car.state().s);
            let steer = atan(car.params().wheelbase * kappa);
            car.step(
                VehicleCommand { gas: seed_gas, brake: 0.0, steer },
                &road,
                mu,
                SIM_DT,
            );
            prop_assert!(car.state().d.abs() < 1.6, "d = {}", car.state().d);
        }
    }

    #[test]
    fn braking_never_increases_speed(v0 in 1.0f64..35.0, brake in 0.1f64..1.0) {
        let road = RoadBuilder::straight_highway(2000.0).build();
        let mut car = Vehicle::new(VehicleParams::sedan(), 0.0, 0.0, v0);
        let mu = SurfaceFriction::default();
        let mut prev_v = v0;
        for _ in 0..500 {
            car.step(
                VehicleCommand { gas: 0.0, brake, steer: 0.0 },
                &road,
                mu,
                SIM_DT,
            );
            prop_assert!(car.state().v <= prev_v + 1e-9);
            prev_v = car.state().v;
        }
    }

    #[test]
    fn lead_observation_distance_is_bumper_gap(gap in 6.0f64..100.0) {
        let road = RoadBuilder::straight_highway(3000.0).build();
        let mut world = World::new(WorldConfig::default(), road);
        world.spawn_ego(0.0, 20.0);
        world.add_npc(Npc::new(
            VehicleParams::sedan(),
            gap,
            0.0,
            20.0,
            NpcPlan::cruise(),
        ));
        let obs = world.lead_observation().expect("lead in range");
        prop_assert!((obs.distance - (gap - 4.9)).abs() < 1e-9);
    }
}
