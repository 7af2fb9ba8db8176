//! End-to-end test of the ML mitigation pipeline: collect fault-free
//! training data from the platform, train a small LSTM, and run it in the
//! closed loop against an attack (Algorithm 1).

use openadas::attack::FaultType;
use openadas::core::{
    collect_training_data, run_campaign, CellStats, InterventionConfig, PlatformConfig,
};
use openadas::ml::{train, LstmPredictor, ModelSpec, TrainConfig};
use std::sync::Arc;

fn tiny_trained_model() -> Arc<LstmPredictor> {
    let data = collect_training_data(3, 1, 60);
    assert!(!data.is_empty(), "training data collection failed");
    let mut model = LstmPredictor::new(ModelSpec {
        hidden1: 16,
        hidden2: 8,
        seed: 9,
    });
    let report = train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    );
    let losses = &report.epoch_loss;
    assert!(
        losses.last().unwrap() <= losses.first().unwrap(),
        "training must not diverge: {losses:?}"
    );
    Arc::new(model)
}

#[test]
fn ml_recovery_engages_under_attack_and_stays_quiet_benign() {
    let model = tiny_trained_model();
    let cfg = PlatformConfig::with_interventions(InterventionConfig::ml_only());

    // Benign: the CUSUM gate should rarely fire.
    let benign = run_campaign(None, &cfg, Some(&model), 21, 1);
    let benign_stats = CellStats::from_records(benign.iter().map(|(_, r)| r));

    // Attacked: recovery mode must engage in a majority of runs.
    let attacked = run_campaign(Some(FaultType::RelativeDistance), &cfg, Some(&model), 21, 1);
    let attacked_stats = CellStats::from_records(attacked.iter().map(|(_, r)| r));

    assert!(
        attacked_stats.ml_trigger_rate() > benign_stats.ml_trigger_rate(),
        "attack must raise the ML trigger rate: {:.1}% vs {:.1}%",
        attacked_stats.ml_trigger_rate(),
        benign_stats.ml_trigger_rate()
    );
    assert!(
        attacked_stats.ml_trigger_rate() > 50.0,
        "ML must engage under attack ({:.1}%)",
        attacked_stats.ml_trigger_rate()
    );
}

#[test]
fn ml_mitigation_reduces_forward_collisions() {
    let model = tiny_trained_model();
    let none_cfg = PlatformConfig::with_interventions(InterventionConfig::none());
    let ml_cfg = PlatformConfig::with_interventions(InterventionConfig::ml_only());

    let unprotected = run_campaign(Some(FaultType::RelativeDistance), &none_cfg, None, 22, 1);
    let protected = run_campaign(
        Some(FaultType::RelativeDistance),
        &ml_cfg,
        Some(&model),
        22,
        1,
    );
    let a1_unprotected = CellStats::from_records(unprotected.iter().map(|(_, r)| r)).a1_pct();
    let a1_protected = CellStats::from_records(protected.iter().map(|(_, r)| r)).a1_pct();
    assert!(
        a1_protected < a1_unprotected,
        "ML must reduce forward collisions: {a1_protected:.1}% vs {a1_unprotected:.1}%"
    );
}
