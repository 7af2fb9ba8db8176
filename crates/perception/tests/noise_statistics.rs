//! Statistical tests of the perception emulator: noise magnitudes, bias,
//! and the detection envelope, measured over many frames.

use adas_perception::{PerceptionConfig, PerceptionEmulator};
use adas_simulator::{
    units::mph, DeterministicRng, Npc, NpcPlan, RoadBuilder, VehicleParams, World, WorldConfig,
};

fn world_with_lead(gap_centers: f64) -> World {
    let road = RoadBuilder::straight_highway(3000.0).build();
    let mut w = World::new(WorldConfig::default(), road);
    w.spawn_ego(0.0, mph(50.0));
    w.add_npc(Npc::new(
        VehicleParams::sedan(),
        gap_centers,
        0.0,
        mph(30.0),
        NpcPlan::cruise(),
    ));
    w
}

#[test]
fn distance_prediction_is_unbiased() {
    let w = world_with_lead(60.0);
    let true_rd = 60.0 - 4.9;
    let mut p =
        PerceptionEmulator::new(PerceptionConfig::default(), DeterministicRng::from_seed(8));
    let n = 5000;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..n {
        let rd = p.perceive(&w).lead.expect("in range").distance;
        sum += rd - true_rd;
        sum_sq += (rd - true_rd) * (rd - true_rd);
    }
    let mean = sum / n as f64;
    let std = (sum_sq / n as f64 - mean * mean).sqrt();
    assert!(mean.abs() < 0.02, "bias {mean}");
    // Configured: max(0.002·55.1, 0.02) ≈ 0.11 m.
    assert!((std - 0.11).abs() < 0.03, "std {std}");
}

#[test]
fn detection_envelope_edges() {
    let cfg = PerceptionConfig::default();
    // Just inside the blind range.
    let w_blind = world_with_lead(4.9 + cfg.blind_range - 0.1);
    let mut p = PerceptionEmulator::new(cfg, DeterministicRng::from_seed(1));
    assert!(p.perceive(&w_blind).lead.is_none());
    // Just outside the blind range.
    let w_visible = world_with_lead(4.9 + cfg.blind_range + 0.3);
    assert!(p.perceive(&w_visible).lead.is_some());
    // Just inside the max range.
    let w_far = world_with_lead(4.9 + cfg.max_range - 1.0);
    assert!(p.perceive(&w_far).lead.is_some());
    // Beyond the max range.
    let w_gone = world_with_lead(4.9 + cfg.max_range + 2.0);
    assert!(p.perceive(&w_gone).lead.is_none());
}

#[test]
fn lane_width_estimate_is_consistent() {
    let w = world_with_lead(300.0);
    let mut p =
        PerceptionEmulator::new(PerceptionConfig::default(), DeterministicRng::from_seed(2));
    let mut sum = 0.0;
    let n = 2000;
    for _ in 0..n {
        sum += p.perceive(&w).lanes.lane_width();
    }
    assert!((sum / n as f64 - 3.5).abs() < 0.01);
}

#[test]
fn path_centering_counteracts_offset_direction() {
    // Build a world, drive the ego slightly left of center, and check the
    // planner's centering correction points right (negative curvature).
    let road = RoadBuilder::straight_highway(3000.0).build();
    let mut w = World::new(WorldConfig::default(), road);
    w.spawn_ego(0.0, 20.0);
    // Nudge laterally by steering briefly.
    for _ in 0..120 {
        w.step(adas_simulator::VehicleCommand {
            gas: 0.1,
            brake: 0.0,
            steer: 0.06,
        });
    }
    assert!(w.ego().state().d > 0.05, "setup drift failed");
    let mut p =
        PerceptionEmulator::new(PerceptionConfig::default(), DeterministicRng::from_seed(5));
    // Average over frames to suppress noise.
    let mut sum = 0.0;
    for _ in 0..200 {
        sum += p.perceive(&w).path_centering;
    }
    assert!(sum / 200.0 < 0.0, "centering must push back right");
}

#[test]
fn centering_is_bounded_by_configured_limit() {
    let cfg = PerceptionConfig::default();
    let road = RoadBuilder::straight_highway(3000.0).build();
    let mut w = World::new(WorldConfig::default(), road);
    w.spawn_ego(0.0, 20.0);
    for _ in 0..400 {
        w.step(adas_simulator::VehicleCommand {
            gas: 0.1,
            brake: 0.0,
            steer: 0.08,
        });
    }
    let mut p = PerceptionEmulator::new(cfg, DeterministicRng::from_seed(6));
    for _ in 0..100 {
        let f = p.perceive(&w);
        assert!(f.path_centering.abs() <= cfg.centering_limit + 1e-12);
    }
}
