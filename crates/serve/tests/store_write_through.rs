//! The daemon's store write-through records computations, not requests:
//! resubmitting a grid (served from the memo) or submitting it to a fresh
//! daemon on the same artifact cache (served from disk) adds no row.
//! `ADAS_STORE_DIR` is process-wide, hence a test binary of its own.

use adas_attack::FaultType;
use adas_core::job::CellSpec;
use adas_core::{ArtifactCache, CampaignSpec, InterventionConfig};
use adas_serve::{Client, JobState, Server, ServerConfig};
use adas_store::Store;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adas-serve-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Starts a daemon on `cache_dir`, submits `spec` `submits` times and
/// returns the store's cell-row count after each submit.
fn serve(cache_dir: &Path, spec: &CampaignSpec, submits: usize, store_dir: &Path) -> Vec<u64> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 2,
        cache: ArtifactCache::at(cache_dir),
        trace_dir: std::env::temp_dir(),
        model_spec: adas_ml::ModelSpec::default(),
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let run = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    let rows = (0..submits)
        .map(|_| {
            let result = client
                .run_campaign(spec, |_, _| {})
                .expect("protocol ok")
                .expect("accepted");
            assert_eq!(result.state, JobState::Done);
            cell_rows(store_dir)
        })
        .collect();
    client.shutdown().expect("shutdown ack");
    run.join().expect("join").expect("clean exit");
    rows
}

fn cell_rows(store_dir: &Path) -> u64 {
    let mut rows = 0;
    Store::open(store_dir)
        .expect("open store")
        .scan_cells(|_| rows += 1)
        .expect("scan");
    rows
}

#[test]
fn warm_cells_add_no_store_rows() {
    let store_dir = tmp_dir("store");
    let cache_dir = tmp_dir("cache");
    std::env::set_var("ADAS_STORE_DIR", &store_dir);
    let spec = CampaignSpec {
        campaign_seed: 7_082_025,
        repetitions: 2,
        max_steps: 1500,
        scenario_mask: 0b00_1001,
        attack: adas_attack::AttackScheduler::Immediate,
        cells: vec![
            CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::none(),
            },
            CellSpec {
                fault: Some(FaultType::Mixed),
                interventions: InterventionConfig::driver_and_check(),
            },
        ],
    };
    // Cold then memo-warm on one daemon, then disk-warm on a fresh one.
    assert_eq!(serve(&cache_dir, &spec, 2, &store_dir), [2, 2]);
    assert_eq!(serve(&cache_dir, &spec, 1, &store_dir), [2]);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
