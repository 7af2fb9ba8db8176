//! Regenerates **Fig. 6** — "Speed and Relative Distance under Fault
//! Injection": an S1 run under the relative-distance attack with no
//! interventions, showing the true vs perceived gap diverging, the
//! close-range blindness, the re-acceleration, and the collision.

use adas_attack::FaultType;
use adas_bench::{write_results_file, CAMPAIGN_SEED};
use adas_core::{run_single_traced, PlatformConfig, RunId};
use adas_recorder::RecordMode;
use adas_scenarios::{InitialPosition, ScenarioId};
use adas_simulator::samples_to_csv;

fn main() {
    let id = RunId {
        scenario: ScenarioId::S1,
        position: InitialPosition::Near,
        repetition: 0,
    };
    let config = PlatformConfig::default();
    let (record, trace) = run_single_traced(
        id,
        Some(FaultType::RelativeDistance),
        &config,
        None,
        0,
        CAMPAIGN_SEED,
        RecordMode::Full,
    );
    // The figure series keeps every 10th step (0.1 s resolution).
    let samples: Vec<_> = trace.samples.iter().step_by(10).copied().collect();

    println!("Fig. 6 — S1 under the RD attack, no interventions (series in results/fig_6.csv)");
    if let Some(t) = record.fault_start {
        println!("  fault active from t = {t:.2} s (RD < 80 m)");
    }
    // Locate the blindness onset: perceived lead lost while a true lead is
    // close ahead.
    let blind = samples
        .iter()
        .find(|s| s.fault_active && !s.perceived_rd.is_finite() && s.true_rd < 5.0);
    if let Some(s) = blind {
        println!(
            "  close-range blindness at t = {:.2} s (true RD {:.2} m): lead no longer detected",
            s.time, s.true_rd
        );
    }
    match (record.accident, record.accident_time) {
        (Some(kind), Some(t)) => println!("  accident: {kind} at t = {t:.2} s"),
        _ => println!("  no accident (unexpected for this configuration)"),
    }
    println!("  paper: ego approaches on tampered input; below ~2 m the lead is no longer\n  detected, the ego accelerates, and the run ends in a forward collision.");

    write_results_file("fig_6.csv", &samples_to_csv(&samples));
}
