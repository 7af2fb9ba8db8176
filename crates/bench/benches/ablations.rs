//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! the close-range blindness radius, the ACC's closing-speed tracker time
//! constant, and the RD-offset scale — measuring their effect on run
//! outcome (encoded as completed steps: shorter = earlier accident).

use adas_attack::{FaultInjector, FaultSpec, FaultType};
use adas_core::{InterventionConfig, Platform, PlatformConfig};
use adas_scenarios::{InitialPosition, ScenarioId, ScenarioSetup};
use adas_simulator::DeterministicRng;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

fn run_with(mutate: impl Fn(&mut PlatformConfig, &mut FaultSpec)) -> u64 {
    let mut rng = DeterministicRng::for_run(7, 0, 0, 0);
    let setup = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut rng);
    let mut config = PlatformConfig::with_interventions(InterventionConfig::none());
    let mut spec = FaultSpec::new(FaultType::RelativeDistance, setup.patch_start_s);
    mutate(&mut config, &mut spec);
    let mut platform = Platform::new(&setup, config, FaultInjector::new(spec), None, &mut rng);
    platform.run().steps
}

fn bench_blindness_radius(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_blind_range");
    group.sample_size(10);
    for blind in [0.0_f64, 2.0, 5.0] {
        group.bench_function(format!("blind_{blind:.0}m"), |b| {
            b.iter_batched(
                || (),
                |()| {
                    black_box(run_with(|cfg, _| {
                        cfg.perception.blind_range = blind;
                    }))
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_tracker_tau(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_closing_tau");
    group.sample_size(10);
    for tau in [0.4_f64, 1.6, 3.2] {
        group.bench_function(format!("tau_{tau:.1}s"), |b| {
            b.iter_batched(
                || (),
                |()| {
                    black_box(run_with(|cfg, _| {
                        cfg.adas.acc.closing_tau = tau;
                    }))
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_offset_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rd_offset_scale");
    group.sample_size(10);
    for scale in [0.5_f64, 1.0, 2.0] {
        group.bench_function(format!("scale_{scale:.1}x"), |b| {
            b.iter_batched(
                || (),
                |()| {
                    black_box(run_with(|_, spec| {
                        spec.rd.offset_scale = scale;
                    }))
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_blindness_radius,
    bench_tracker_tau,
    bench_offset_scale
);
criterion_main!(benches);
