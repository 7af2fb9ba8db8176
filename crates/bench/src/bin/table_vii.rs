//! Regenerates **Table VII** — "Prevention Rate vs Driver Reaction Time":
//! driver-only intervention with reaction times swept 1.0–3.5 s across all
//! three fault types.

use adas_attack::FaultType;
use adas_bench::{paper, reps_from_args, write_results_file, CAMPAIGN_SEED};
use adas_core::parallel::MapControl;
use adas_core::{
    resolve_cell, ArtifactCache, CampaignCell, InterventionConfig, Measure, PlatformConfig,
    TextTable, TraceSink,
};

fn main() {
    let reps = reps_from_args();
    let cache = ArtifactCache::from_env();
    let times = paper::TABLE_VII_TIMES;

    let mut header: Vec<String> = vec!["Fault Type".into()];
    header.extend(times.iter().map(|t| format!("{t:.1}s")));
    header.push("| paper @1.0".into());
    header.push("@2.5".into());
    header.push("@3.5".into());
    let mut table = TextTable::new(header);
    let mut csv = format!("fault,reaction_time_s,{}\n", Measure::PreventedPct.name());

    for (i, fault) in FaultType::ALL.into_iter().enumerate() {
        eprintln!("[table VII] {fault}…");
        let mut row: Vec<String> = vec![fault.label().into()];
        for t in times {
            let mut iv = InterventionConfig::driver_only();
            iv.driver_reaction_time = t;
            let cfg = PlatformConfig::with_interventions(iv);
            let cell = CampaignCell::new(Some(fault), cfg, None, CAMPAIGN_SEED, reps);
            let (s, _) = resolve_cell(&cell, &cache, &TraceSink::disabled(), &MapControl::new())
                .expect("uncancelled cell");
            row.push(format!("{:.2}%", s.prevented_pct()));
            csv.push_str(&format!(
                "{},{t:.1},{}\n",
                fault.label(),
                Measure::PreventedPct.render(&s)
            ));
        }
        let p = paper::TABLE_VII[i].1;
        row.push(format!("| {:.2}%", p[0]));
        row.push(format!("{:.2}%", p[3]));
        row.push(format!("{:.2}%", p[5]));
        table.row(row);
    }

    println!("Table VII — prevention rate vs driver reaction time (driver-only)\n");
    println!("{}", table.render());
    write_results_file("table_vii.csv", &csv);
}
