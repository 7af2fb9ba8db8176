//! Regenerates **Table IV** — "Hardest Brake Value in Different Scenarios":
//! OpenPilot's benign driving performance per scenario (hazards, accidents,
//! following distance, hardest brake, min TTC, t_fcw), no faults, no
//! interventions.

use adas_bench::{paper, reps_from_args, write_results_file, CAMPAIGN_SEED};
use adas_core::{run_campaign, PlatformConfig, TextTable};
use adas_scenarios::ScenarioId;

fn main() {
    let reps = reps_from_args();
    let runs_per_scenario = 2 * reps;
    eprintln!("[table IV] benign campaign, {runs_per_scenario} runs per scenario…");
    let records = run_campaign(None, &PlatformConfig::default(), None, CAMPAIGN_SEED, reps);

    let mut table = TextTable::new([
        "Scenario",
        "Hazard",
        "Accident",
        "Following(m)",
        "HardBrake",
        "minTTC(s)",
        "t_fcw(s)",
        "| paper: Haz",
        "Acc",
        "Foll",
        "Brake",
        "TTC",
        "t_fcw",
    ]);
    let mut csv = String::from(
        "scenario,hazards,accidents,runs,following_m,hard_brake_pct,min_ttc_s,t_fcw_s\n",
    );

    for (i, sid) in ScenarioId::ALL.iter().enumerate() {
        let rs: Vec<_> = records
            .iter()
            .filter(|(id, _)| id.scenario == *sid)
            .map(|(_, r)| r)
            .collect();
        let hazards = rs.iter().filter(|r| r.hazard()).count();
        let accidents = rs.iter().filter(|r| r.accident.is_some()).count();
        let following: Vec<f64> = rs
            .iter()
            .map(|r| r.avg_following_distance)
            .filter(|v| v.is_finite())
            .collect();
        let following_avg = following.iter().sum::<f64>() / following.len().max(1) as f64;
        let hard_brake = rs.iter().map(|r| r.max_brake).fold(0.0_f64, f64::max) * 100.0;
        let (min_ttc, t_fcw) = rs
            .iter()
            .filter(|r| r.min_ttc.is_finite())
            .min_by(|a, b| a.min_ttc.partial_cmp(&b.min_ttc).expect("finite"))
            .map_or((f64::INFINITY, 0.0), |r| (r.min_ttc, r.t_fcw_at_min_ttc));

        let p = paper::TABLE_IV[i];
        table.row([
            sid.label().to_owned(),
            format!("{hazards}/{}", rs.len()),
            format!("{accidents}/{}", rs.len()),
            format!("{following_avg:.2}"),
            format!("{hard_brake:.1}%"),
            format!("{min_ttc:.2}"),
            format!("{t_fcw:.2}"),
            format!("| {}/20", p.1),
            format!("{}/20", p.2),
            format!("{:.1}", p.3),
            format!("{:.1}%", p.4),
            format!("{:.2}", p.5),
            format!("{:.2}", p.6),
        ]);
        csv.push_str(&format!(
            "{},{hazards},{accidents},{},{following_avg:.3},{hard_brake:.2},{min_ttc:.3},{t_fcw:.3}\n",
            sid.label(),
            rs.len(),
        ));
    }

    println!("Table IV — benign driving performance (ours vs paper)\n");
    println!("{}", table.render());
    write_results_file("table_iv.csv", &csv);
}
