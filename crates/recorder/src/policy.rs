//! Trace persistence policy: which runs of a campaign deserve a full
//! flight-recorder trace on disk, and where those traces live.
//!
//! Recording every run of a `table_vi` campaign would write tens of
//! thousands of multi-megabyte files, so the campaign executor asks this
//! policy after each run completes: benign, uneventful runs are discarded,
//! hazardous and near-miss runs are persisted content-addressed under
//! `results/traces/` (same scheme as the PR 1 artifact cache).

use crate::writer::RecordMode;
use adas_scenarios::RunRecord;
use std::path::PathBuf;

/// Near-miss TTC threshold, seconds: a run whose minimum ground-truth TTC
/// dips below this is persisted even when no formal hazard was flagged.
pub const NEAR_MISS_TTC_S: f64 = 2.0;

/// Near-miss lane threshold, metres: minimum edge-to-lane-line distance
/// below which a run counts as a lateral near-miss.
pub const NEAR_MISS_LANE_M: f64 = 0.3;

/// Which runs get their traces persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing (default; zero overhead).
    Off,
    /// Record every run, persist only hazardous / near-miss runs.
    Hazard,
    /// Record and persist every run (forensics / golden-trace capture).
    All,
}

/// Campaign-level trace policy resolved from the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePolicy {
    /// Persistence mode.
    pub mode: TraceMode,
    /// Directory traces are saved into.
    pub dir: PathBuf,
    /// Step-retention mode for each run's writer.
    pub record_mode: RecordMode,
}

impl Default for TracePolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

impl TracePolicy {
    /// A policy that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            mode: TraceMode::Off,
            dir: PathBuf::from("results/traces"),
            record_mode: RecordMode::Full,
        }
    }

    /// Resolves the policy from the environment (via the shared hardened
    /// parser in [`adas_parallel::env`] — values are trimmed, and empty or
    /// unrecognised settings warn and fall back to the default instead of
    /// being silently reinterpreted):
    ///
    /// * `ADAS_TRACE` — `off`/`0`/`false`/`no` (default) disables tracing;
    ///   `hazard`/`1`/`on`/`true`/`yes` records everything but persists
    ///   only hazardous or near-miss runs; `all`/`full`/`2` persists every
    ///   run.
    /// * `ADAS_TRACE_DIR` — target directory (default `results/traces`).
    /// * `ADAS_TRACE_RING` — retain only the most recent N steps per run
    ///   (default: full retention; 0 is rejected).
    #[must_use]
    pub fn from_env() -> Self {
        let mode = match adas_parallel::env::raw("ADAS_TRACE") {
            None => TraceMode::Off,
            Some(v) => match v.to_ascii_lowercase().as_str() {
                "off" | "0" | "false" | "no" => TraceMode::Off,
                "hazard" | "1" | "on" | "true" | "yes" => TraceMode::Hazard,
                "all" | "full" | "2" => TraceMode::All,
                _ => {
                    eprintln!("[env] ignoring ADAS_TRACE={v:?}: expected off/hazard/all");
                    TraceMode::Off
                }
            },
        };
        let dir = adas_parallel::env::path_or("ADAS_TRACE_DIR", "results/traces");
        let record_mode = adas_parallel::env::parse::<usize>("ADAS_TRACE_RING", "a step count ≥ 1")
            .filter(|&n| {
                if n == 0 {
                    eprintln!("[env] ignoring ADAS_TRACE_RING=0: expected a step count ≥ 1");
                }
                n > 0
            })
            .map_or(RecordMode::Full, RecordMode::Ring);
        Self {
            mode,
            dir,
            record_mode,
        }
    }

    /// True when runs should be recorded at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// Decides, after a run completed, whether its trace goes to disk.
    #[must_use]
    pub fn should_persist(&self, record: &RunRecord) -> bool {
        match self.mode {
            TraceMode::Off => false,
            TraceMode::All => true,
            TraceMode::Hazard => is_noteworthy(record),
        }
    }
}

/// A run is noteworthy when it was hazardous, ended in an accident, or came
/// close enough to one (longitudinal or lateral near-miss) that a forensic
/// replay could be wanted later.
#[must_use]
pub fn is_noteworthy(record: &RunRecord) -> bool {
    record.hazard()
        || record.accident.is_some()
        || record.min_ttc < NEAR_MISS_TTC_S
        || record.min_lane_line_distance < NEAR_MISS_LANE_M
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_scenarios::AccidentKind;

    fn benign() -> RunRecord {
        RunRecord {
            min_ttc: 8.0,
            min_lane_line_distance: 0.9,
            ..RunRecord::default()
        }
    }

    #[test]
    fn benign_run_not_noteworthy() {
        assert!(!is_noteworthy(&benign()));
    }

    #[test]
    fn hazard_accident_and_near_misses_are_noteworthy() {
        let mut r = benign();
        r.h1_time = Some(10.0);
        assert!(is_noteworthy(&r));

        let mut r = benign();
        r.accident = Some(AccidentKind::LaneViolation);
        assert!(is_noteworthy(&r));

        let mut r = benign();
        r.min_ttc = 1.5;
        assert!(is_noteworthy(&r));

        let mut r = benign();
        r.min_lane_line_distance = 0.1;
        assert!(is_noteworthy(&r));
    }

    #[test]
    fn nan_lane_distance_is_not_a_near_miss() {
        // min_lane_line_distance defaults to NaN when never measured;
        // NaN < threshold is false, so the run is not spuriously persisted.
        let mut r = benign();
        r.min_lane_line_distance = f64::NAN;
        assert!(!is_noteworthy(&r));
    }

    #[test]
    fn mode_gates_persistence() {
        let mut hazard_run = benign();
        hazard_run.h2_time = Some(5.0);

        let mut p = TracePolicy::disabled();
        assert!(!p.enabled());
        assert!(!p.should_persist(&hazard_run));

        p.mode = TraceMode::Hazard;
        assert!(p.enabled());
        assert!(p.should_persist(&hazard_run));
        assert!(!p.should_persist(&benign()));

        p.mode = TraceMode::All;
        assert!(p.should_persist(&benign()));
    }
}
