//! Regenerates **Table VI** — the paper's main result: accidents, prevented
//! rate, mitigation times, and trigger rates for every combination of fault
//! type (relative distance / desired curvature / mixed) and safety
//! intervention configuration, including the ML baseline (Algorithm 1).
//!
//! Usage: `table_vi [reps]` (default 10 repetitions per scenario×position;
//! pass a smaller number for a quick look).
//!
//! `ADAS_MITIGATION={cusum,ensemble,maskcheck}` selects the strategy the
//! ML row runs (default: the CUSUM baseline, which reproduces the paper's
//! Table VI exactly); `ADAS_VIEWS=M` overrides the view count of the
//! view-based strategies. Non-default selections change the row label
//! (`ML-Ens`/`ML-Mask`) and the cache keys, so variant results never
//! masquerade as the baseline's.
//!
//! Set `ADAS_TRACE=hazard` (or `all`) to run the campaign through the
//! flight recorder: every run is captured, and traces matching the
//! persistence policy are written under `ADAS_TRACE_DIR`
//! (default `results/traces`). Tracing bypasses the cell-stats cache read
//! (a cache hit would skip the runs and record nothing) but still stores
//! the freshly computed stats for later untraced invocations.

use adas_attack::FaultType;
use adas_bench::{
    paper, reps_from_args, trained_baseline_cached, write_results_file, PhaseTimer, CAMPAIGN_SEED,
};
use adas_core::parallel::MapControl;
use adas_core::{
    fmt_opt_time, resolve_cell, ArtifactCache, CampaignCell, InterventionConfig, Measure,
    PlatformConfig, TextTable, TraceSink,
};
use adas_ml::ModelSpec;
use adas_recorder::RecordMode;
use adas_store::CellRow;
use std::sync::Arc;

/// The measures `table_vi.csv` reports per cell, in column order.
const COLUMNS: [Measure; 11] = [
    Measure::Runs,
    Measure::A1Pct,
    Measure::A2Pct,
    Measure::PreventedPct,
    Measure::AebMt,
    Measure::DriverBrakeMt,
    Measure::DriverSteerMt,
    Measure::AebTriggerPct,
    Measure::DriverBrakeTriggerPct,
    Measure::DriverSteerTriggerPct,
    Measure::MlTriggerPct,
];

fn main() {
    let reps = reps_from_args();
    let cache = ArtifactCache::from_env();
    let sink = TraceSink::from_env();
    // `ADAS_STORE_DIR` additionally appends every computed cell to the
    // columnar results store, one segment per invocation, so
    // `adas-store query` can aggregate across historic sweeps. A cache
    // hit adds no row: a row is one computation, not one invocation.
    let store = adas_store::dir_from_env().and_then(|dir| match adas_store::Store::open(&dir) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("store write-through disabled: {e}");
            None
        }
    });
    let mut store_rows: Vec<CellRow> = Vec::new();
    let mut timer = PhaseTimer::new();
    if sink.enabled() {
        println!(
            "flight recorder: {:?} mode, persisting to {}",
            sink.policy().mode,
            sink.policy().dir.display()
        );
    }

    timer.phase("train");
    let model = Arc::new(trained_baseline_cached(
        &cache,
        CAMPAIGN_SEED,
        ModelSpec::default(),
    ));

    timer.phase("campaign");

    let mut csv = format!("fault,config,{}\n", Measure::header(&COLUMNS));

    for fault in FaultType::ALL {
        println!("\n=== Fault type: {fault} (runs/cell: {}) ===\n", 12 * reps);
        let mut table = TextTable::new([
            "Interventions",
            "A1",
            "A2",
            "Prevented",
            "mtAEB",
            "mtDrvBrake",
            "mtDrvSteer",
            "trAEB",
            "trDrvBrake",
            "trDrvSteer",
            "| paper A1",
            "A2",
            "Prev",
        ]);
        for mut iv in InterventionConfig::table_vi_rows() {
            if iv.ml {
                // Strategy selection applies only to ML rows; the default
                // environment leaves the row — and its cache keys —
                // bit-identical to the historic CUSUM baseline.
                (iv.mitigation, iv.views) = adas_core::mitigation_from_env();
            }
            let mut cfg = PlatformConfig::with_interventions(iv);
            // `ADAS_ATTACK` swaps the patch's fixed activation for a
            // context trigger; the scheduler is part of the config's
            // canonical bytes, so non-default settings get their own cache
            // keys.
            cfg.attack = adas_core::attack_from_env();
            let cell = CampaignCell::new(Some(fault), cfg, Some(&model), CAMPAIGN_SEED, reps);
            let (s, runs) =
                resolve_cell(&cell, &cache, &sink, &MapControl::new()).expect("uncancelled cell");
            timer.add_runs(runs as u64);
            if runs > 0 && store.is_some() {
                store_rows.push(CellRow::for_cell(Some(fault), &cfg, CAMPAIGN_SEED, &s));
            }
            let reference = paper::TABLE_VI
                .iter()
                .find(|(f, row, ..)| *f == fault.label() && *row == iv.label())
                .copied();
            let (pa1, pa2, pprev) =
                reference.map_or((f64::NAN, f64::NAN, f64::NAN), |r| (r.2, r.3, r.4));
            table.row([
                iv.label(),
                format!("{:.2}%", s.a1_pct()),
                format!("{:.2}%", s.a2_pct()),
                format!("{:.2}%", s.prevented_pct()),
                fmt_opt_time(s.aeb_mitigation_time()),
                fmt_opt_time(s.driver_brake_mitigation_time()),
                fmt_opt_time(s.driver_steer_mitigation_time()),
                format!("{:.1}%", s.aeb_trigger_rate()),
                format!("{:.1}%", s.driver_brake_trigger_rate()),
                format!("{:.1}%", s.driver_steer_trigger_rate()),
                format!("| {pa1:.2}%"),
                format!("{pa2:.2}%"),
                format!("{pprev:.2}%"),
            ]);
            csv.push_str(&format!(
                "{},{},{}\n",
                fault.label(),
                iv.label(),
                Measure::csv(&COLUMNS, &s)
            ));
        }
        println!("{}", table.render());
    }

    timer.phase("emit");
    write_results_file("table_vi.csv", &csv);
    if let Some(store) = store.as_ref().filter(|_| !store_rows.is_empty()) {
        match store.append_cells(&store_rows) {
            Ok(_) => println!("results store: appended {} cell rows", store_rows.len()),
            Err(e) => eprintln!("results store append failed: {e}"),
        }
    }
    if sink.enabled() {
        let mode = match sink.policy().record_mode {
            RecordMode::Full => format!("{:?}", sink.policy().mode).to_lowercase(),
            RecordMode::Ring(n) => format!("{:?}+ring{n}", sink.policy().mode).to_lowercase(),
        };
        timer.set_trace_info(&mode, sink.recorded(), sink.persisted());
        println!(
            "flight recorder: {} runs recorded, {} traces persisted, {} errors",
            sink.recorded(),
            sink.persisted(),
            sink.errors()
        );
    }
    timer.finish(&cache);
}
