//! Determinism guarantees of the parallel campaign executor and the
//! artifact cache: results must be bit-for-bit identical at any thread
//! count, and a cache hit must reproduce the cold computation exactly.

use adas_attack::FaultType;
use adas_core::parallel::MapControl;
use adas_core::{
    campaign_cell_fingerprint, resolve_cell, run_campaign, ArtifactCache, CampaignCell, CellStats,
    InterventionConfig, PlatformConfig, TraceSink, SCENARIO_MASK_ALL,
};
use adas_recorder::{RecordMode, TraceMode, TracePolicy};
use std::path::PathBuf;
use std::sync::Mutex;

/// Serialises tests that mutate `ADAS_THREADS` (integration tests in this
/// binary run on parallel threads, and the variable is process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 0x5EED;

fn campaign_with_threads(threads: &str, cfg: &PlatformConfig) -> Vec<u8> {
    std::env::set_var("ADAS_THREADS", threads);
    let records = run_campaign(Some(FaultType::RelativeDistance), cfg, None, SEED, 1);
    std::env::remove_var("ADAS_THREADS");
    // Serialise through Debug so any drift in any field is caught, not
    // just the aggregated statistics.
    format!("{records:?}").into_bytes()
}

#[test]
fn run_campaign_is_thread_count_invariant() {
    let _guard = ENV_LOCK.lock().unwrap();
    let cfg = PlatformConfig::with_interventions(InterventionConfig::driver_only());
    let serial = campaign_with_threads("1", &cfg);
    let four = campaign_with_threads("4", &cfg);
    let many = campaign_with_threads("13", &cfg);
    assert_eq!(serial, four, "4 threads must match serial bit-for-bit");
    assert_eq!(serial, many, "13 threads must match serial bit-for-bit");
}

fn temp_cache(tag: &str) -> (PathBuf, ArtifactCache) {
    let dir = std::env::temp_dir().join(format!(
        "adas-cache-test-{}-determinism-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::at(&dir);
    (dir, cache)
}

fn driver_cell(repetitions: u32) -> CampaignCell<'static> {
    let cfg = PlatformConfig::with_interventions(InterventionConfig::driver_only());
    CampaignCell::new(
        Some(FaultType::DesiredCurvature),
        cfg,
        None,
        SEED,
        repetitions,
    )
}

fn books(cache: &ArtifactCache) -> (u64, u64, u64, u64) {
    let s = cache.stats();
    (s.hits, s.misses, s.writes, s.bypasses)
}

#[test]
fn cache_hit_reproduces_cold_cell_stats_exactly() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (dir, cache) = temp_cache("warm");
    let cell = driver_cell(1);
    let untraced = TraceSink::disabled();

    let (cold, runs) = resolve_cell(&cell, &cache, &untraced, &MapControl::new()).expect("cold");
    assert_eq!(runs, 12, "a cold cell runs its whole grid");
    assert_eq!(
        books(&cache),
        (0, 1, 1, 0),
        "cold lookup must miss and persist"
    );

    let (warm, runs) = resolve_cell(&cell, &cache, &untraced, &MapControl::new()).expect("warm");
    assert_eq!(runs, 0, "a warm hit runs nothing");
    assert_eq!(cache.stats().hits, 1, "second lookup must hit");
    assert_eq!(
        cold.to_bytes(),
        warm.to_bytes(),
        "cached CellStats must be bit-identical to the cold computation"
    );

    // The cached statistics are those of the campaign itself.
    let cfg = cell.config;
    let records = run_campaign(cell.fault, &cfg, None, SEED, 1);
    let direct = CellStats::from_records(records.iter().map(|(_, r)| r));
    assert_eq!(cold.to_bytes(), direct.to_bytes());

    // A different key (here: different repetition count) must not collide,
    // and matches the one base key the harnesses share.
    let other = driver_cell(2);
    assert_ne!(cell.key().value(), other.key().value());
    assert_eq!(
        cell.key().value(),
        campaign_cell_fingerprint(cell.fault, &cfg, None, SEED, 1, SCENARIO_MASK_ALL).value()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_cell_matches_untraced_and_balances_the_books() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (dir, cache) = temp_cache("traced");
    let cell = driver_cell(1);
    let (plain, _) = resolve_cell(
        &cell,
        &ArtifactCache::disabled(),
        &TraceSink::disabled(),
        &MapControl::new(),
    )
    .expect("untraced");

    let sink = TraceSink::new(TracePolicy {
        mode: TraceMode::Hazard,
        dir: dir.join("traces"),
        record_mode: RecordMode::Full,
    });
    // Tracing skips the cache read even when the cell is cached: a hit
    // would record nothing.
    for round in 1..=2u64 {
        let (traced, runs) =
            resolve_cell(&cell, &cache, &sink, &MapControl::new()).expect("traced");
        assert_eq!(runs, 12);
        assert_eq!(traced.to_bytes(), plain.to_bytes(), "round {round}");
        assert_eq!(sink.recorded(), 12 * round);
        assert_eq!(books(&cache), (0, 0, round, round), "one bypass, one write");
    }
    // The stored statistics serve a later untraced lookup.
    let (warm, runs) =
        resolve_cell(&cell, &cache, &TraceSink::disabled(), &MapControl::new()).expect("warm");
    assert_eq!((runs, warm.to_bytes()), (0, plain.to_bytes()));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_cell_resolves_to_none() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (dir, cache) = temp_cache("cancelled");
    let ctl = MapControl::new();
    ctl.cancel();
    assert!(resolve_cell(&driver_cell(1), &cache, &TraceSink::disabled(), &ctl).is_none());
    assert_eq!(books(&cache), (0, 1, 0, 0), "nothing stored");
    let _ = std::fs::remove_dir_all(&dir);
}
