//! Lateral (ALC) attack walkthrough: a dirty-road-patch style curvature
//! fault, with a step-by-step event log showing the drift, the warnings,
//! and how different interventions change the outcome.
//!
//! ```bash
//! cargo run --release --example lateral_attack
//! ```

use adas_recorder::RecordMode;
use openadas::attack::FaultType;
use openadas::core::{run_single_traced, InterventionConfig, PlatformConfig, RunId};
use openadas::scenarios::{InitialPosition, ScenarioId};

fn run_and_narrate(label: &str, iv: InterventionConfig) {
    let id = RunId {
        scenario: ScenarioId::S1,
        position: InitialPosition::Near,
        repetition: 0,
    };
    let (record, trace) = run_single_traced(
        id,
        Some(FaultType::DesiredCurvature),
        &PlatformConfig::with_interventions(iv),
        None,
        0,
        42,
        RecordMode::Full,
    );

    println!("\n=== {label} ===");
    if let Some(t) = record.fault_start {
        println!("t={t:6.2}s  ego crosses the road patch — path output poisoned");
    }
    // First moments of interest from the trace.
    let mut drift_logged = false;
    let mut steer_logged = false;
    let mut brake_logged = false;
    let mut aeb_logged = false;
    for s in &trace.samples {
        if !drift_logged && record.fault_start.is_some_and(|f| s.time > f) && s.ego_d.abs() > 0.5 {
            println!(
                "t={:6.2}s  drifted {:.2} m from the lane center",
                s.time, s.ego_d
            );
            drift_logged = true;
        }
        if !steer_logged && s.driver_steering {
            println!("t={:6.2}s  driver steers back toward the center", s.time);
            steer_logged = true;
        }
        if !brake_logged && s.driver_braking {
            println!("t={:6.2}s  driver applies the emergency brake", s.time);
            brake_logged = true;
        }
        if !aeb_logged && s.aeb_active {
            println!("t={:6.2}s  AEB engages (v = {:.1} m/s)", s.time, s.ego_v);
            aeb_logged = true;
        }
    }
    match (record.accident, record.accident_time) {
        (Some(kind), Some(t)) => println!("t={t:6.2}s  ACCIDENT: {kind}"),
        _ => println!("outcome: no accident — attack window survived"),
    }
}

fn main() {
    println!("Curvature (ALC) attack under three intervention configurations.");
    run_and_narrate("no interventions", InterventionConfig::none());
    run_and_narrate(
        "driver only (2.5 s reaction)",
        InterventionConfig::driver_only(),
    );
    run_and_narrate(
        "driver + safety check + AEB (independent)",
        InterventionConfig::driver_check_aeb_independent(),
    );
}
