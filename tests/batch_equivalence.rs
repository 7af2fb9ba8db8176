//! The lockstep executor's contract: per-run outcomes are
//! **bit-identical** to stepping each run alone (`run_single`) at every
//! batch width and worker count. The full campaign grid (S1–S6 × both
//! spawn positions) runs for every fault type at `width ∈ {1, 4, 32}` ×
//! `ADAS_THREADS ∈ {1, 4}`, with and without the ML mitigation, and
//! persisted traces captured through the batched path replay bit-exactly.

use std::sync::{Arc, Mutex, MutexGuard};

use adas_recorder::{RecordMode, Trace, TraceMode, TracePolicy};
use openadas::attack::FaultType;
use openadas::core::parallel::MapControl;
use openadas::core::{
    campaign_run_ids, collect_training_data, replay_trace, run_ids_ctl, run_single, CampaignCell,
    InterventionConfig, PlatformConfig, RunId, TraceSink,
};
use openadas::ml::{LstmPredictor, ModelSpec, TrainConfig};
use openadas::scenarios::RunRecord;

/// Serialises tests that set `ADAS_THREADS`: the worker count is read per
/// dispatch, so a concurrent test could otherwise observe a torn value.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn threads_guard(n: usize) -> MutexGuard<'static, ()> {
    let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAS_THREADS", n.to_string());
    guard
}

const WIDTHS: [usize; 3] = [1, 4, 32];
const THREADS: [usize; 2] = [1, 4];

/// The scalar reference: every run of the grid stepped alone.
fn scalar_campaign(
    fault: Option<FaultType>,
    cfg: &PlatformConfig,
    model: Option<&Arc<LstmPredictor>>,
) -> Vec<(RunId, RunRecord)> {
    campaign_run_ids(1)
        .into_iter()
        .map(|id| (id, run_single(id, fault, cfg, model, 2025)))
        .collect()
}

/// The one-repetition campaign grid at seed 2025 through the one lockstep
/// entry, `run_ids_ctl`, at batch `width`.
fn lockstep_campaign(
    fault: Option<FaultType>,
    cfg: &PlatformConfig,
    model: Option<&Arc<LstmPredictor>>,
    width: usize,
    sink: &TraceSink,
) -> Vec<(RunId, RunRecord)> {
    let cell = CampaignCell::new(fault, *cfg, model, 2025, 1);
    let ids = cell.run_ids();
    let records = run_ids_ctl(&cell, &ids, width, sink, &MapControl::new()).expect("uncancelled");
    ids.into_iter().zip(records).collect()
}

fn fault_label(fault: Option<FaultType>) -> String {
    fault.map_or("Benign".to_owned(), |f| format!("{f:?}"))
}

#[test]
fn campaigns_are_bit_identical_across_widths_and_threads() {
    let mut cfg = PlatformConfig::with_interventions(InterventionConfig::driver_and_check());
    cfg.max_steps = 3_000;
    for fault in [
        None,
        Some(FaultType::RelativeDistance),
        Some(FaultType::DesiredCurvature),
        Some(FaultType::Mixed),
    ] {
        let baseline = scalar_campaign(fault, &cfg, None);
        assert_eq!(baseline.len(), 12, "full S1–S6 × Near/Far grid");
        for threads in THREADS {
            let _env = threads_guard(threads);
            for width in WIDTHS {
                let batched = lockstep_campaign(fault, &cfg, None, width, &TraceSink::disabled());
                assert_eq!(
                    format!("{baseline:?}"),
                    format!("{batched:?}"),
                    "fault={} width={width} threads={threads}",
                    fault_label(fault),
                );
            }
        }
    }
}

fn tiny_trained_model() -> Arc<LstmPredictor> {
    let data = collect_training_data(3, 1, 60);
    let mut model = LstmPredictor::new(ModelSpec {
        hidden1: 16,
        hidden2: 8,
        seed: 9,
    });
    let _ = openadas::ml::train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );
    Arc::new(model)
}

#[test]
fn ml_campaigns_are_bit_identical_across_widths_and_threads() {
    // The ML row drives the batched LSTM forward: lanes start and retire
    // at different ticks, so this also covers panel refill mid-flight.
    let model = tiny_trained_model();
    let mut cfg = PlatformConfig::with_interventions(InterventionConfig::ml_only());
    cfg.max_steps = 600;
    let fault = Some(FaultType::Mixed);
    let baseline = scalar_campaign(fault, &cfg, Some(&model));
    for threads in THREADS {
        let _env = threads_guard(threads);
        for width in WIDTHS {
            let batched =
                lockstep_campaign(fault, &cfg, Some(&model), width, &TraceSink::disabled());
            assert_eq!(
                format!("{baseline:?}"),
                format!("{batched:?}"),
                "ml width={width} threads={threads}"
            );
        }
    }
}

#[test]
fn traces_captured_through_the_batched_path_replay_bit_exactly() {
    // Golden-trace check: capture the full grid through the lockstep
    // executor, then replay every persisted trace scalar — the replay
    // must diverge nowhere. This ties the batched capture to the flight
    // recorder's bit-exact replay guarantee.
    let mut cfg = PlatformConfig::with_interventions(InterventionConfig::driver_and_check());
    cfg.max_steps = 1_500;
    let dir = std::env::temp_dir().join(format!("adas-batch-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sink = TraceSink::new(TracePolicy {
        mode: TraceMode::All,
        dir: dir.clone(),
        record_mode: RecordMode::Full,
    });
    let fault = Some(FaultType::DesiredCurvature);
    let records = {
        let _env = threads_guard(4);
        lockstep_campaign(fault, &cfg, None, 4, &sink)
    };
    assert_eq!(records.len(), 12);
    assert_eq!(sink.recorded(), 12);
    assert!(sink.persisted() > 0, "TraceMode::All must persist");

    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).expect("trace dir exists") {
        let path = entry.expect("dir entry").path();
        let trace = Trace::load(&path).expect("persisted trace loads");
        let report = replay_trace(&trace, None, None).expect("trace replays");
        assert!(
            report.report.is_identical(),
            "replay diverged for {}",
            path.display()
        );
        replayed += 1;
    }
    assert_eq!(replayed as u64, sink.persisted());
    let _ = std::fs::remove_dir_all(&dir);
}
