//! Regenerates **Table V** — "Minimal Distance to Lane Lines": the closest
//! the ego's body edge comes to a lane line per scenario in benign runs.

use adas_bench::{paper, reps_from_args, write_results_file, CAMPAIGN_SEED};
use adas_core::{run_campaign, PlatformConfig, TextTable};
use adas_scenarios::ScenarioId;

fn main() {
    let reps = reps_from_args();
    eprintln!("[table V] benign campaign, {} runs per scenario…", 2 * reps);
    let records = run_campaign(None, &PlatformConfig::default(), None, CAMPAIGN_SEED, reps);

    let mut table = TextTable::new(["Scenario", "MinLaneDist(m)", "paper(m)"]);
    let mut csv = String::from("scenario,min_lane_line_distance_m\n");
    for (i, sid) in ScenarioId::ALL.iter().enumerate() {
        let min = records
            .iter()
            .filter(|(id, _)| id.scenario == *sid)
            .map(|(_, r)| r.min_lane_line_distance)
            .fold(f64::INFINITY, f64::min);
        table.row([
            sid.label().to_owned(),
            format!("{min:.2}"),
            format!("{:.2}", paper::TABLE_V[i].1),
        ]);
        csv.push_str(&format!("{},{min:.4}\n", sid.label()));
    }

    println!("Table V — minimal distance to lane lines (ours vs paper)\n");
    println!("{}", table.render());
    write_results_file("table_v.csv", &csv);
}
