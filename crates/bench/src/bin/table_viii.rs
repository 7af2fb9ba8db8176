//! Regenerates **Table VIII** — "Hazard Prevention Rate vs Road Friction":
//! the Driver + SafetyCheck + AEB-Compromised configuration (the paper's
//! footnote) under default, −25 %, −50 % and −75 % road friction, for the
//! relative-distance and curvature fault types.

use adas_attack::FaultType;
use adas_bench::{paper, reps_from_args, write_results_file, CAMPAIGN_SEED};
use adas_core::parallel::MapControl;
use adas_core::{
    resolve_cell, ArtifactCache, CampaignCell, InterventionConfig, Measure, PlatformConfig,
    TextTable, TraceSink,
};
use adas_simulator::FrictionCondition;

fn main() {
    let reps = reps_from_args();
    let cache = ArtifactCache::from_env();
    let conditions = FrictionCondition::TABLE_VIII;

    let mut header: Vec<String> = vec!["Fault Type".into()];
    header.extend(conditions.iter().map(|c| c.label().to_owned()));
    header.push("| paper Default".into());
    header.push("75% off".into());
    let mut table = TextTable::new(header);
    let mut csv = format!("fault,friction,{}\n", Measure::PreventedPct.name());

    for (i, fault) in [FaultType::RelativeDistance, FaultType::DesiredCurvature]
        .into_iter()
        .enumerate()
    {
        eprintln!("[table VIII] {fault}…");
        let mut row: Vec<String> = vec![fault.label().into()];
        for condition in conditions {
            let mut cfg = PlatformConfig::with_interventions(
                InterventionConfig::driver_check_aeb_compromised(),
            );
            cfg.friction = condition;
            let cell = CampaignCell::new(Some(fault), cfg, None, CAMPAIGN_SEED, reps);
            let (s, _) = resolve_cell(&cell, &cache, &TraceSink::disabled(), &MapControl::new())
                .expect("uncancelled cell");
            row.push(format!("{:.2}%", s.prevented_pct()));
            csv.push_str(&format!(
                "{},{},{}\n",
                fault.label(),
                condition.label(),
                Measure::PreventedPct.render(&s)
            ));
        }
        let p = paper::TABLE_VIII[i].1;
        row.push(format!("| {:.2}%", p[0]));
        row.push(format!("{:.2}%", p[3]));
        table.row(row);
    }

    println!(
        "Table VIII — prevention rate vs road friction\n(Driver + SafetyCheck + AEB-Compromised)\n"
    );
    println!("{}", table.render());
    write_results_file("table_viii.csv", &csv);
}
