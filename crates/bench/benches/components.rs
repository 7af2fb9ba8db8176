//! Criterion micro-benchmarks for every substrate: how much each subsystem
//! costs per 10 ms control cycle.

use adas_control::{
    AccConfig, AccController, AdasConfig, AdasController, AlcConfig, AlcController,
};
use adas_ml::{
    ControlTarget, Cusum, LstmPredictor, MitigationConfig, MlMitigator, ModelSpec, StateFeatures,
};
use adas_perception::{LeadPrediction, PerceptionConfig, PerceptionEmulator, PerceptionFrame};
use adas_safety::{
    arbitrate, Aebs, AebsConfig, AebsMode, ArbiterInputs, DriverAction, DriverConfig, DriverInputs,
    DriverModel, SafetyCheck,
};
use adas_simulator::{
    units::mph, DeterministicRng, Npc, NpcPlan, RoadBuilder, SurfaceFriction, Vehicle,
    VehicleCommand, VehicleParams, World, WorldConfig,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_vehicle_step(c: &mut Criterion) {
    let road = RoadBuilder::curvy_highway(4000.0).build();
    let mu = SurfaceFriction::default();
    c.bench_function("vehicle_step", |b| {
        let mut car = Vehicle::new(VehicleParams::sedan(), 100.0, 0.0, 22.0);
        let cmd = VehicleCommand {
            gas: 0.3,
            brake: 0.0,
            steer: 0.01,
        };
        b.iter(|| {
            car.step(black_box(cmd), &road, mu, 0.01);
            black_box(car.state().s)
        });
    });
}

fn bench_road_queries(c: &mut Criterion) {
    let road = RoadBuilder::curvy_highway(4000.0).build();
    c.bench_function("road_curvature_at", |b| {
        let mut s = 0.0;
        b.iter(|| {
            s = (s + 13.7) % 4000.0;
            black_box(road.curvature_at(black_box(s)))
        });
    });
}

fn bench_perception(c: &mut Criterion) {
    let road = RoadBuilder::straight_highway(3000.0).build();
    let mut world = World::new(WorldConfig::default(), road);
    world.spawn_ego(0.0, mph(50.0));
    world.add_npc(Npc::new(
        VehicleParams::sedan(),
        60.0,
        0.0,
        mph(30.0),
        NpcPlan::cruise(),
    ));
    let mut perception =
        PerceptionEmulator::new(PerceptionConfig::default(), DeterministicRng::from_seed(1));
    c.bench_function("perception_perceive", |b| {
        b.iter(|| black_box(perception.perceive(&world)))
    });
}

fn bench_controllers(c: &mut Criterion) {
    let frame = PerceptionFrame {
        lead: Some(LeadPrediction {
            distance: 40.0,
            closing_speed: 5.0,
            lead_speed: 13.0,
        }),
        ..PerceptionFrame::neutral(mph(50.0))
    };
    c.bench_function("acc_plan", |b| {
        let mut acc = AccController::new(AccConfig::default());
        b.iter(|| black_box(acc.plan(black_box(&frame), 0.01)))
    });
    c.bench_function("alc_steer", |b| {
        let mut alc = AlcController::new(AlcConfig::default());
        b.iter(|| black_box(alc.steer(black_box(&frame), 0.01)))
    });
    c.bench_function("adas_full_control", |b| {
        let mut adas = AdasController::new(AdasConfig::default());
        b.iter(|| black_box(adas.control(black_box(&frame), 0.01)))
    });
}

fn bench_safety(c: &mut Criterion) {
    c.bench_function("aebs_evaluate", |b| {
        let mut aebs = Aebs::new(AebsConfig::default(), AebsMode::Independent);
        b.iter(|| black_box(aebs.evaluate(Some((40.0, 8.0)), 22.0, 1.0)))
    });
    c.bench_function("driver_update", |b| {
        let mut driver = DriverModel::new(DriverConfig::default());
        let inputs = DriverInputs {
            time: 1.0,
            fcw_alert: false,
            ldw_alert: false,
            ego_speed: 22.0,
            adas_accel: 0.0,
            ego_accel: 0.0,
            true_lead: Some((40.0, 5.0)),
            cut_in: false,
            lateral_offset: 0.1,
            heading_error: 0.0,
            lane_line_distance: 0.7,
        };
        b.iter(|| black_box(driver.update(black_box(&inputs))))
    });
    c.bench_function("safety_check", |b| {
        let mut check = SafetyCheck::default();
        let cmd = adas_control::AdasCommand {
            accel: -5.0,
            steer: 0.2,
            lead_engaged: true,
        };
        b.iter(|| black_box(check.check(black_box(cmd), 0.01)))
    });
    c.bench_function("arbitrate", |b| {
        let params = VehicleParams::sedan();
        let inputs = ArbiterInputs {
            adas: adas_control::AdasCommand {
                accel: 1.0,
                steer: 0.01,
                lead_engaged: true,
            },
            ml: None,
            driver: DriverAction {
                brake: Some(0.55),
                steer: None,
            },
            aeb_brake: Some(0.9),
        };
        b.iter(|| black_box(arbitrate(black_box(&inputs), &params)))
    });
}

fn bench_ml(c: &mut Criterion) {
    c.bench_function("lstm_step_64_32", |b| {
        let model = LstmPredictor::new(ModelSpec::default());
        let mut state = model.batch_state(1);
        let mut scratch = model.batch_scratch(1);
        let x = [0.5; adas_ml::FEATURE_DIM];
        b.iter(|| {
            model.step_batch(black_box(&x), &mut state, &mut scratch);
            black_box(scratch.output(0))
        })
    });
    c.bench_function("ml_mitigator_update", |b| {
        let model = LstmPredictor::new(ModelSpec {
            hidden1: 64,
            hidden2: 32,
            seed: 1,
        });
        let mut mitigator = MlMitigator::new(model, MitigationConfig::default());
        let state = StateFeatures {
            ego_speed: 22.0,
            lead_distance: 40.0,
            closing_speed: 5.0,
            left_line: 1.75,
            right_line: 1.75,
            curvature: 0.0,
            heading: 0.0,
            prev_accel: 0.0,
            prev_steer: 0.0,
        };
        let op = ControlTarget {
            accel: -1.0,
            steer: 0.0,
        };
        let mut t = 0.0;
        b.iter(|| {
            t += 0.01;
            black_box(mitigator.update(black_box(&state), &op, t))
        })
    });
    c.bench_function("cusum_update", |b| {
        let mut cusum = Cusum::new(4.0, 0.12);
        b.iter(|| black_box(cusum.update(black_box(0.05))))
    });
}

criterion_group!(
    benches,
    bench_vehicle_step,
    bench_road_queries,
    bench_perception,
    bench_controllers,
    bench_safety,
    bench_ml
);
criterion_main!(benches);
