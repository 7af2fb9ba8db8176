//! Mitigation-baseline comparison grid: the three ML mitigation
//! strategies — the Algorithm 1 CUSUM baseline, the uncertainty ensemble,
//! and the masked-view agreement check — head to head over every fault
//! type (plus the benign baseline) and every scenario S1–S6.
//!
//! Usage: `table_mitigation [reps] [max_steps]` (defaults: 10 repetitions
//! per scenario × position, full 10 000-step runs). The sweep is fully
//! deterministic: the emitted CSV is bit-identical across `ADAS_THREADS`
//! and `ADAS_BATCH`, and matches the same cells served over the wire —
//! the property `tests/mitigation_equivalence.rs` and the CI
//! `mitigation-smoke` job check.
//!
//! Emits `results/table_mitigation.csv` (per-scenario and aggregate rows)
//! and `results/MITIGATION_compare.json` (aggregate per fault × strategy,
//! the artifact the CI job uploads).

use adas_attack::FaultType;
use adas_bench::{
    model_fingerprint, trained_baseline_cached, write_results_file, PhaseTimer, CAMPAIGN_SEED,
};
use adas_core::{
    fmt_opt_time, run_campaign, ArtifactCache, CellStats, InterventionConfig, Measure,
    PlatformConfig, TextTable,
};
use adas_ml::{MitigationKind, ModelSpec};
use adas_scenarios::ScenarioId;
use std::sync::Arc;

/// Fault axis: the benign baseline plus the paper's three fault types.
const FAULTS: [Option<FaultType>; 4] = [
    None,
    Some(FaultType::RelativeDistance),
    Some(FaultType::DesiredCurvature),
    Some(FaultType::Mixed),
];

/// The measures `table_mitigation.csv` reports per row, in column order;
/// `MITIGATION_compare.json` reports all but the last.
const CSV_COLUMNS: [Measure; 7] = [
    Measure::Runs,
    Measure::A1Pct,
    Measure::A2Pct,
    Measure::PreventedPct,
    Measure::HazardPct,
    Measure::MlTriggerPct,
    Measure::AebTriggerPct,
];

fn fault_label(fault: Option<FaultType>) -> &'static str {
    fault.map_or("Benign", FaultType::label)
}

fn main() {
    let mut ints = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse::<u64>().ok());
    let reps = ints.next().map_or(10, |r| r.max(1) as u32);
    let max_steps = ints.next().unwrap_or(0) as usize;

    let cache = ArtifactCache::from_env();
    let mut timer = PhaseTimer::new();
    timer.phase("train");
    let model = Arc::new(trained_baseline_cached(
        &cache,
        CAMPAIGN_SEED,
        ModelSpec::default(),
    ));
    let model_fp = model_fingerprint(&model);
    println!(
        "mitigation comparison: reps {reps}, max_steps {}, model {model_fp}",
        if max_steps == 0 { 10_000 } else { max_steps }
    );

    timer.phase("campaign");
    let mut csv = format!(
        "fault,mitigation,scenario,{}\n",
        Measure::header(&CSV_COLUMNS)
    );
    let mut json_rows: Vec<String> = Vec::new();

    for fault in FAULTS {
        let mut table = TextTable::new([
            "Mitigation",
            "A1",
            "A2",
            "Prevented",
            "Hazard",
            "trML",
            "trAEB",
            "mtAEB",
        ]);
        for kind in MitigationKind::ALL {
            let iv = InterventionConfig::ml_only().with_mitigation(kind);
            let mut cfg = PlatformConfig::with_interventions(iv);
            if max_steps != 0 {
                cfg.max_steps = max_steps;
            }
            let records = run_campaign(fault, &cfg, Some(&model), CAMPAIGN_SEED, reps);
            timer.add_runs(records.len() as u64);

            let mut push_row = |scenario: &str, s: &CellStats| {
                csv.push_str(&format!(
                    "{},{},{scenario},{}\n",
                    fault_label(fault),
                    kind.name(),
                    Measure::csv(&CSV_COLUMNS, s)
                ));
            };
            // Per-scenario breakdown (the S1–S6 axis of the grid)…
            for scenario in ScenarioId::ALL {
                let s = CellStats::from_records(
                    records
                        .iter()
                        .filter(|(id, _)| id.scenario == scenario)
                        .map(|(_, r)| r),
                );
                push_row(&format!("{scenario:?}"), &s);
            }
            // …plus the aggregate row.
            let s = CellStats::from_records(records.iter().map(|(_, r)| r));
            push_row("ALL", &s);
            table.row([
                kind.name().to_owned(),
                format!("{:.2}%", s.a1_pct()),
                format!("{:.2}%", s.a2_pct()),
                format!("{:.2}%", s.prevented_pct()),
                format!("{:.2}%", s.hazard_pct()),
                format!("{:.1}%", s.ml_trigger_rate()),
                format!("{:.1}%", s.aeb_trigger_rate()),
                fmt_opt_time(s.aeb_mitigation_time()),
            ]);
            json_rows.push(format!(
                "    {{ \"fault\": \"{}\", \"mitigation\": \"{}\", {} }}",
                fault_label(fault),
                kind.name(),
                Measure::json(&CSV_COLUMNS[..6], &s)
            ));
        }
        println!(
            "\n=== Fault: {} (runs/cell: {}) ===\n{}",
            fault_label(fault),
            12 * reps,
            table.render()
        );
    }

    timer.phase("emit");
    write_results_file("table_mitigation.csv", &csv);
    let json = format!(
        "{{\n  \"seed\": {CAMPAIGN_SEED},\n  \"repetitions\": {reps},\n  \
         \"max_steps\": {},\n  \"model\": \"{model_fp}\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        if max_steps == 0 { 10_000 } else { max_steps },
        json_rows.join(",\n"),
    );
    write_results_file("MITIGATION_compare.json", &json);
    timer.finish(&cache);
}
