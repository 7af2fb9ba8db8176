//! Weather study: the same attacked scenario on dry, rainy and icy roads
//! (the paper's Table VIII axis), showing how reduced friction erodes the
//! safety interventions' ability to mitigate.
//!
//! ```bash
//! cargo run --release --example icy_road
//! ```

use openadas::attack::FaultType;
use openadas::core::{run_campaign, CellStats, InterventionConfig, PlatformConfig};
use openadas::simulator::FrictionCondition;

fn main() {
    let reps = 2;
    println!(
        "prevention rate under Driver+Check+AEB-Compromised vs road friction ({} runs/cell)\n",
        12 * reps
    );
    println!(
        "{:>10}  {:>18}  {:>18}",
        "friction", "Relative Distance", "Desired Curvature"
    );
    for condition in FrictionCondition::TABLE_VIII {
        let mut cfg =
            PlatformConfig::with_interventions(InterventionConfig::driver_check_aeb_compromised());
        cfg.friction = condition;
        let mut cells = Vec::new();
        for fault in [FaultType::RelativeDistance, FaultType::DesiredCurvature] {
            let records = run_campaign(Some(fault), &cfg, None, 7, reps);
            let stats = CellStats::from_records(records.iter().map(|(_, r)| r));
            cells.push(stats.prevented_pct());
        }
        println!(
            "{:>10}  {:>17.1}%  {:>17.1}%",
            condition.label(),
            cells[0],
            cells[1]
        );
    }
    println!("\nLateral mitigation collapses on ice — the paper's Table VIII finding.");
}
