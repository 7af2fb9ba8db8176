//! The lockstep driver's occupancy counters count real work: every lane
//! step is one run's cycle, and every tick offers `width` slots. The
//! counters are process-wide, so this binary holds a single test.

use adas_core::batch::{reset_stats, stats_snapshot};
use adas_core::parallel::MapControl;
use adas_core::{run_ids_ctl, CampaignCell, PlatformConfig, TraceSink};

#[test]
fn lane_steps_equal_run_steps_and_slots_equal_ticks_times_width() {
    let config = PlatformConfig {
        max_steps: 150,
        ..PlatformConfig::default()
    };
    let cell = CampaignCell::new(None, config, None, 3, 1);
    let ids = cell.run_ids();
    for width in [1usize, 4, 8] {
        reset_stats();
        let records = run_ids_ctl(
            &cell,
            &ids,
            width,
            &TraceSink::disabled(),
            &MapControl::new(),
        )
        .expect("uncancelled");
        let stats = stats_snapshot();
        let run_steps: u64 = records.iter().map(|r| r.steps).sum();
        assert_eq!(stats.lane_steps, run_steps, "width {width}");
        assert_eq!(
            stats.slot_steps,
            stats.ticks * width as u64,
            "width {width}"
        );
        if width == 1 {
            assert_eq!(
                stats.occupancy(),
                Some(1.0),
                "a one-lane batch is always full"
            );
        }
    }
}
