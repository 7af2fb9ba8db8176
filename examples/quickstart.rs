//! Quickstart: assemble the closed-loop platform, run one benign scenario
//! and one attacked scenario, and print what happened.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use openadas::attack::{FaultInjector, FaultSpec, FaultType};
use openadas::core::{InterventionConfig, Platform, PlatformConfig};
use openadas::scenarios::{InitialPosition, ScenarioId, ScenarioSetup};
use openadas::simulator::DeterministicRng;

fn main() {
    // 1. Build a driving scenario: S1 (lead cruising at 30 mph) with the
    //    ego starting 60 m behind at 50 mph on a straight highway.
    let mut rng = DeterministicRng::for_run(42, 0, 0, 0);
    let setup = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut rng);
    println!("scenario: {} — {}", setup.id, setup.id.description());

    // 2. Benign run: no faults, no interventions.
    let mut benign = Platform::new(
        &setup,
        PlatformConfig::default(),
        FaultInjector::disabled(),
        None,
        &mut rng.split(1),
    );
    let record = benign.run();
    println!("\n— benign run —");
    println!("  accident:            {:?}", record.accident);
    println!(
        "  stable following:    {:.1} m",
        record.avg_following_distance
    );
    println!("  hardest brake:       {:.1} %", record.max_brake * 100.0);
    println!("  min TTC:             {:.2} s", record.min_ttc);

    // 3. The same scenario under the adversarial-patch (relative distance)
    //    attack, still without safety interventions.
    let injector = FaultInjector::new(FaultSpec::new(
        FaultType::RelativeDistance,
        setup.patch_start_s,
    ));
    let mut attacked = Platform::new(
        &setup,
        PlatformConfig::default(),
        injector,
        None,
        &mut rng.split(2),
    );
    let record = attacked.run();
    println!("\n— RD attack, no interventions —");
    println!("  fault active from:   {:?} s", record.fault_start);
    println!(
        "  accident:            {:?} at {:?} s",
        record.accident, record.accident_time
    );

    // 4. Same attack, but with AEB on an independent sensor.
    let injector = FaultInjector::new(FaultSpec::new(
        FaultType::RelativeDistance,
        setup.patch_start_s,
    ));
    let config = PlatformConfig::with_interventions(InterventionConfig::aeb_independent_only());
    let mut protected = Platform::new(&setup, config, injector, None, &mut rng.split(3));
    let record = protected.run();
    println!("\n— RD attack + AEB (independent sensor) —");
    println!("  accident:            {:?}", record.accident);
    println!("  AEB first braked at: {:?} s", record.aeb_trigger);
    println!(
        "  outcome:             {}",
        if record.prevented() {
            "accident prevented"
        } else {
            "accident NOT prevented"
        }
    );
}
