//! Regenerates **Fig. 5** — "Speed and Distance to Lane Lines when
//! Approaching LV": a benign S1 time series showing OpenPilot's aggressive
//! approach braking (the sudden speed drop) and its lane-keeping margin.

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
    let (_, trace) = run_single_traced(id, None, &config, None, 0, CAMPAIGN_SEED, RecordMode::Full);
    // The figure series keeps every 10th step (0.1 s resolution).
    let samples: Vec<_> = trace.samples.iter().step_by(10).copied().collect();

    // Series summary in the terminal: approach braking profile.
    let v0 = samples.first().map_or(0.0, |s| s.ego_v);
    let vmin = samples
        .iter()
        .take_while(|s| s.time < 15.0)
        .map(|s| s.ego_v)
        .fold(f64::INFINITY, f64::min);
    let drop_pct = 100.0 * (v0 - vmin) / v0;
    println!("Fig. 5 — benign S1 approach (series in results/fig_5.csv)");
    println!("  initial speed: {v0:.2} m/s");
    println!("  minimum speed during approach: {vmin:.2} m/s ({drop_pct:.1}% drop)");
    println!("  paper: 21.7 m/s → 9.6 m/s (55.8% drop within 4.7 s), then fluctuations");
    let min_line = samples
        .iter()
        .map(|s| s.lane_line_distance)
        .fold(f64::INFINITY, f64::min);
    println!("  minimum distance to lane lines: {min_line:.2} m");

    write_results_file("fig_5.csv", &samples_to_csv(&samples));
}
