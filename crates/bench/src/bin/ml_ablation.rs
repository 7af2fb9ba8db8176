//! ML-baseline ablation: the paper explored two-layer LSTM configurations
//! (256-128 … 64-32 hidden units) and selected 128-64. This harness trains
//! a sweep of configurations on the same fault-free data, compares their
//! regression losses, and evaluates the smallest/selected ones in the
//! closed loop against the relative-distance attack.
//!
//! Usage: `ml_ablation [reps]` (campaign repetitions for the closed-loop
//! stage; the loss comparison always runs).

use adas_attack::FaultType;
use adas_bench::{reps_from_args, write_results_file, CAMPAIGN_SEED};
use adas_core::parallel::MapControl;
use adas_core::{
    collect_training_data, resolve_cell, ArtifactCache, CampaignCell, InterventionConfig, Measure,
    PlatformConfig, TraceSink,
};
use adas_ml::{train, LstmPredictor, ModelSpec, TrainConfig};
use std::sync::Arc;

fn main() {
    let reps = reps_from_args().min(3);
    let cache = ArtifactCache::from_env();
    eprintln!("[ablation] collecting fault-free training data…");
    let data = collect_training_data(CAMPAIGN_SEED, 1, 25);
    eprintln!("[ablation] {} windows", data.len());

    let configs = [
        ("32-16", 32usize, 16usize),
        ("64-32", 64, 32),
        ("128-64 (paper best)", 128, 64),
    ];

    let mut csv = format!(
        "config,params,final_loss,{}\n",
        Measure::PreventedPct.name()
    );
    println!("config               params     final MSE   RD-attack prevented");
    for (label, h1, h2) in configs {
        let spec = ModelSpec {
            hidden1: h1,
            hidden2: h2,
            seed: 0xAD45,
        };
        let mut model = LstmPredictor::new(spec);
        let report = train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        let loss = report.final_loss();
        let model = Arc::new(model);

        let cell = CampaignCell::new(
            Some(FaultType::RelativeDistance),
            PlatformConfig::with_interventions(InterventionConfig::ml_only()),
            Some(&model),
            CAMPAIGN_SEED,
            reps,
        );
        let (stats, _) = resolve_cell(&cell, &cache, &TraceSink::disabled(), &MapControl::new())
            .expect("uncancelled cell");
        println!(
            "{label:20} {:9} {loss:11.5} {:8.2}%",
            model.param_count(),
            stats.prevented_pct()
        );
        csv.push_str(&format!(
            "{label},{},{loss:.6},{}\n",
            model.param_count(),
            Measure::PreventedPct.render(&stats)
        ));
    }
    write_results_file("ml_ablation.csv", &csv);
}
