//! A cell result stored as rows and folded back reads the same as the
//! harness computed it: the store's percentages and mean mitigation
//! times equal [`CellStats`] over the same runs, bit for bit.

use adas_attack::FaultType;
use adas_core::parallel::MapControl;
use adas_core::{
    resolve_cell, ArtifactCache, CampaignCell, CellStats, InterventionConfig, Measure,
    PlatformConfig, TraceSink,
};
use adas_scenarios::{AccidentKind, RunRecord};
use adas_store::{agg, Accumulator, CellRow, GroupBy, Store};

fn run(
    fault_start: Option<f64>,
    aeb: Option<f64>,
    brake: Option<f64>,
    steer: Option<f64>,
    accident: Option<AccidentKind>,
) -> RunRecord {
    RunRecord {
        fault_start,
        aeb_trigger: aeb,
        driver_brake_trigger: brake,
        driver_steer_trigger: steer,
        accident,
        h1_time: accident.and(fault_start),
        ml_activated: steer.is_some(),
        ..RunRecord::default()
    }
}

/// Every measure the results tables print, as bits.
fn measures(s: &CellStats) -> Vec<Option<u64>> {
    Measure::ALL
        .iter()
        .map(|m| m.value(s).map(f64::to_bits))
        .collect()
}

#[test]
fn folded_rows_match_the_records_bit_for_bit() {
    use AccidentKind::{ForwardCollision, LaneViolation};
    // Two cells on the same coordinates. Some runs trigger before the
    // fault starts or have no fault start: triggered, but not timed.
    let first = [
        run(Some(10.0), Some(11.37), Some(12.05), None, None),
        run(
            Some(10.0),
            Some(9.5),
            Some(13.21),
            None,
            Some(ForwardCollision),
        ),
        run(None, Some(4.0), None, Some(5.0), Some(LaneViolation)),
        run(Some(20.0), Some(21.93), None, Some(22.41), None),
    ];
    // One timed run per channel, so both ways of adding the times agree.
    let second = [
        run(Some(10.0), Some(12.64), Some(10.77), Some(11.18), None),
        run(
            Some(30.0),
            Some(25.0),
            Some(29.0),
            None,
            Some(ForwardCollision),
        ),
        run(None, None, Some(3.0), None, None),
    ];
    let config =
        PlatformConfig::with_interventions(InterventionConfig::driver_check_aeb_compromised());
    let fault = Some(FaultType::RelativeDistance);
    let mut acc = Accumulator::default();
    for (seed, records) in [(1, &first[..]), (2, &second[..])] {
        let stats = CellStats::from_records(records);
        acc.fold(&CellRow::for_cell(fault, &config, seed, &stats));
    }
    let direct = CellStats::from_records(first.iter().chain(&second));
    assert_eq!((direct.aeb_n, direct.aeb_time_n), (6, 3));
    assert_eq!(measures(&acc.0), measures(&direct));
    assert_eq!(acc.0, direct);
}

#[test]
fn stored_cells_aggregate_to_the_harness_stats() {
    let dir = std::env::temp_dir().join(format!("adas-store-cells-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open store");
    let grid = [
        (
            FaultType::RelativeDistance,
            InterventionConfig::driver_and_check(),
        ),
        (
            FaultType::DesiredCurvature,
            InterventionConfig::driver_only(),
        ),
    ];
    let mut harness = Vec::new();
    for (fault, iv) in grid {
        let mut config = PlatformConfig::with_interventions(iv);
        config.max_steps = 3000;
        let cell = CampaignCell::new(Some(fault), config, None, 2025, 1);
        let (stats, runs) = resolve_cell(
            &cell,
            &ArtifactCache::disabled(),
            &TraceSink::disabled(),
            &MapControl::new(),
        )
        .expect("uncancelled");
        assert_eq!(runs, 12);
        harness.push((CellRow::for_cell(Some(fault), &config, 2025, &stats), stats));
    }
    let rows: Vec<CellRow> = harness.iter().map(|(row, _)| *row).collect();
    store.append_cells(&rows).expect("append");
    let by = GroupBy::parse("fault,iv").expect("axes");
    let (groups, _) = agg::aggregate(&store, &by).expect("aggregate");
    assert_eq!(groups.len(), harness.len());
    for (row, stats) in &harness {
        assert_eq!(groups[&by.key(row)].0, *stats);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
