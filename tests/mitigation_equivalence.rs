//! Differential harness for the mitigation baselines: every strategy
//! behind the `ADAS_MITIGATION` seam (CUSUM recovery, uncertainty
//! ensemble, masked-view check) must produce **bit-identical** per-run
//! outcomes across worker counts, lockstep batch widths, and the
//! direct-vs-over-the-wire serving path. A mitigation that is only
//! "statistically similar" across execution modes cannot back a Table
//! VII-style comparison — the grid would measure the executor, not the
//! defence.

use std::sync::{Arc, Mutex, MutexGuard};

use adas_serve::{Client, JobState, Server, ServerConfig};
use openadas::attack::FaultType;
use openadas::core::job::CellSpec;
use openadas::core::parallel::MapControl;
use openadas::core::{
    campaign_run_ids, collect_training_data, run_ids_ctl, run_single, ArtifactCache, CampaignCell,
    CampaignSpec, CellStats, InterventionConfig, MitigationKind, PlatformConfig, RunId, TraceSink,
};
use openadas::ml::{LstmPredictor, ModelSpec, TrainConfig};
use openadas::scenarios::RunRecord;

/// Serialises tests that set `ADAS_THREADS` (read per dispatch, so a
/// concurrent test could observe a torn value).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn threads_guard(n: usize) -> MutexGuard<'static, ()> {
    let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAS_THREADS", n.to_string());
    guard
}

const WIDTHS: [usize; 3] = [1, 4, 32];
const THREADS: [usize; 2] = [1, 4];

/// Small-but-real architecture shared by the direct and the served side
/// of the wire comparison (the server trains its resident model at this
/// spec, the reference path trains the identical weights itself).
const TINY_SPEC: ModelSpec = ModelSpec {
    hidden1: 16,
    hidden2: 8,
    seed: 9,
};

fn tiny_trained_model() -> Arc<LstmPredictor> {
    let data = collect_training_data(3, 1, 60);
    let mut model = LstmPredictor::new(TINY_SPEC);
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

/// The one-repetition campaign grid at seed 2025 through the one lockstep
/// entry, `run_ids_ctl`, untraced, at batch `width`.
fn lockstep_campaign(
    fault: Option<FaultType>,
    cfg: &PlatformConfig,
    model: Option<&Arc<LstmPredictor>>,
    width: usize,
) -> Vec<(RunId, RunRecord)> {
    let cell = CampaignCell::new(fault, *cfg, model, 2025, 1);
    let ids = cell.run_ids();
    let records = run_ids_ctl(
        &cell,
        &ids,
        width,
        &TraceSink::disabled(),
        &MapControl::new(),
    )
    .expect("uncancelled");
    ids.into_iter().zip(records).collect()
}

#[test]
fn every_mitigation_is_bit_identical_across_widths_and_threads() {
    // The views-based strategies drive an M-lane panel *inside* each run
    // while the lockstep executor batches *across* runs — this asserts the
    // two batching levels compose without perturbing a single bit.
    let model = tiny_trained_model();
    let fault = Some(FaultType::Mixed);
    for kind in MitigationKind::ALL {
        let mut cfg =
            PlatformConfig::with_interventions(InterventionConfig::ml_only().with_mitigation(kind));
        cfg.max_steps = 600;
        // The scalar reference: every run of the grid stepped alone.
        let baseline: Vec<_> = campaign_run_ids(1)
            .into_iter()
            .map(|id| (id, run_single(id, fault, &cfg, Some(&model), 2025)))
            .collect();
        assert_eq!(baseline.len(), 12, "full S1–S6 × Near/Far grid");
        for threads in THREADS {
            let _env = threads_guard(threads);
            for width in WIDTHS {
                let batched = lockstep_campaign(fault, &cfg, Some(&model), width);
                assert_eq!(
                    format!("{baseline:?}"),
                    format!("{batched:?}"),
                    "mitigation={} width={width} threads={threads}",
                    kind.name(),
                );
            }
        }
    }
}

#[test]
fn mitigations_differ_from_each_other_under_attack() {
    // Sanity guard on the harness itself: if all three strategies produced
    // identical grids the equivalence assertions above would be vacuous
    // (e.g. the seam silently ignoring the selector).
    let model = tiny_trained_model();
    let fault = Some(FaultType::Mixed);
    let mut grids = Vec::new();
    for kind in MitigationKind::ALL {
        let mut cfg =
            PlatformConfig::with_interventions(InterventionConfig::ml_only().with_mitigation(kind));
        cfg.max_steps = 600;
        let _env = threads_guard(1);
        grids.push(format!(
            "{:?}",
            lockstep_campaign(fault, &cfg, Some(&model), 1)
        ));
    }
    assert_ne!(grids[0], grids[1], "cusum vs ensemble must diverge");
    assert_ne!(grids[0], grids[2], "cusum vs maskcheck must diverge");
}

/// One campaign cell per mitigation strategy (all with `ml` engaged, so
/// the server resolves its resident trained model for the seed).
fn mitigation_spec() -> CampaignSpec {
    CampaignSpec {
        campaign_seed: 8_082_025,
        repetitions: 1,
        max_steps: 900,
        scenario_mask: 0b00_1001, // S1 + S4
        attack: openadas::attack::AttackScheduler::Immediate,
        cells: vec![
            CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::ml_only(),
            },
            CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::ensemble_only(),
            },
            CellSpec {
                fault: Some(FaultType::Mixed),
                interventions: InterventionConfig::maskcheck_only(),
            },
        ],
    }
}

/// The reference: the same grid evaluated in-process through
/// `run_single`, with weights trained exactly as the daemon trains its
/// resident model (same seed, same spec, same pipeline).
fn direct_cell_bytes(spec: &CampaignSpec) -> Vec<Vec<u8>> {
    let model = Arc::new(adas_bench::trained_baseline_cached(
        &ArtifactCache::disabled(),
        spec.campaign_seed,
        TINY_SPEC,
    ));
    let ids = spec.run_ids();
    spec.cells
        .iter()
        .map(|cell| {
            let config = spec.config_for(cell);
            let records: Vec<_> = ids
                .iter()
                .map(|id| run_single(*id, cell.fault, &config, Some(&model), spec.campaign_seed))
                .collect();
            CellStats::from_records(&records).to_bytes()
        })
        .collect()
}

#[test]
fn mitigation_cells_bit_identical_over_the_wire() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = mitigation_spec();
    let reference = direct_cell_bytes(&spec);

    for threads in ["1", "4"] {
        std::env::set_var("ADAS_THREADS", threads);
        let trace_dir =
            std::env::temp_dir().join(format!("adas-mitig-wire-{}", std::process::id()));
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 4,
            cache: ArtifactCache::disabled(),
            trace_dir,
            model_spec: TINY_SPEC,
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || server.run());

        let mut client = Client::connect(&addr).expect("connect");
        let result = client
            .run_campaign(&spec, |_, _| {})
            .expect("protocol ok")
            .expect("accepted");
        assert_eq!(result.state, JobState::Done);
        let wire: Vec<Vec<u8>> = result
            .cells
            .into_iter()
            .map(|(_, s)| s.to_bytes())
            .collect();
        assert_eq!(
            wire, reference,
            "threads={threads}: served mitigation cells must be bit-identical to the direct run"
        );

        client.shutdown().expect("shutdown ack");
        handle.join().expect("join").expect("clean exit");
        std::env::remove_var("ADAS_THREADS");
    }
}
