//! Streaming group-by aggregation over cell rows.
//!
//! The group key space is the small discrete campaign grid (≤ 6 scenarios
//! × 2 positions × 4 faults × a handful of intervention rows ×
//! 3 mitigations × 2 scheduler flags), so a fold keeps one
//! [`Accumulator`] per *observed* group — memory is bounded by the grid,
//! never by the row count. Rows stream in one verified block at a time
//! via [`crate::Store::scan_cells`]; nothing is materialised.

use crate::record::{CellRow, ANY};
use crate::store::{SegmentReport, Store, StoreError};
use std::collections::BTreeMap;

/// Marker in a [`GroupKey`] slot for an axis the query collapsed over.
/// Distinct from [`ANY`] (0xFF), which is a *stored* value meaning "the
/// writer aggregated over this axis".
const COLLAPSED: u8 = 0xFE;

/// Which of the six discrete axes a query groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupBy {
    /// Group by scenario index.
    pub scenario: bool,
    /// Group by spawn position.
    pub position: bool,
    /// Group by fault code.
    pub fault: bool,
    /// Group by Table VI intervention row.
    pub iv_row: bool,
    /// Group by mitigation strategy.
    pub mitigation: bool,
    /// Group by scheduler flag.
    pub sched: bool,
}

impl GroupBy {
    /// Axis names accepted by [`GroupBy::parse`], in key order.
    pub const AXES: [&'static str; 6] =
        ["scenario", "position", "fault", "iv", "mitigation", "sched"];

    /// Parses a comma-separated axis list (e.g. `fault,iv`). Unknown
    /// names are errors; an empty string groups everything into one row.
    pub fn parse(spec: &str) -> Result<Self, StoreError> {
        let mut by = GroupBy::default();
        for axis in spec.split(',').map(str::trim).filter(|a| !a.is_empty()) {
            match axis {
                "scenario" => by.scenario = true,
                "position" => by.position = true,
                "fault" => by.fault = true,
                "iv" | "iv_row" | "intervention" => by.iv_row = true,
                "mitigation" => by.mitigation = true,
                "sched" | "scheduler" => by.sched = true,
                other => {
                    return Err(StoreError::Format(format!(
                        "unknown group axis `{other}` (expected one of {})",
                        Self::AXES.join(", ")
                    )))
                }
            }
        }
        Ok(by)
    }

    /// Projects a row onto this grouping.
    #[must_use]
    pub fn key(&self, row: &CellRow) -> GroupKey {
        let pick = |on: bool, v: u8| if on { v } else { COLLAPSED };
        GroupKey([
            pick(self.scenario, row.scenario),
            pick(self.position, row.position),
            pick(self.fault, row.fault),
            pick(self.iv_row, row.iv_row),
            pick(self.mitigation, row.mitigation),
            pick(self.sched, row.sched),
        ])
    }

    /// CSV header for [`render`] output: the selected axes then the
    /// derived measures.
    #[must_use]
    pub fn header(&self) -> String {
        let mut cols = Vec::new();
        for (on, name) in self.flags().into_iter().zip(Self::AXES) {
            if on {
                cols.push(name.to_owned());
            }
        }
        cols.extend(
            [
                "runs",
                "a1_pct",
                "a2_pct",
                "prevented_pct",
                "hazard_pct",
                "aeb_rate",
                "driver_brake_rate",
                "driver_steer_rate",
                "ml_rate",
                "aeb_time",
                "driver_brake_time",
                "driver_steer_time",
            ]
            .map(str::to_owned),
        );
        cols.join(",")
    }

    fn flags(&self) -> [bool; 6] {
        [
            self.scenario,
            self.position,
            self.fault,
            self.iv_row,
            self.mitigation,
            self.sched,
        ]
    }
}

/// A projected group key: one slot per axis, `COLLAPSED` where the
/// query doesn't group. Ordered, so aggregate output is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey(pub [u8; 6]);

impl GroupKey {
    /// The selected-axis values in key order, rendered for CSV output
    /// (stored [`ANY`] prints as `any`).
    #[must_use]
    pub fn cells(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|&&v| v != COLLAPSED)
            .map(|&v| {
                if v == ANY {
                    "any".to_owned()
                } else {
                    v.to_string()
                }
            })
            .collect()
    }
}

/// Exact running sums for one group. All integer counts, so merging
/// accumulators (or folding rows in any order) yields identical derived
/// percentages.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    /// Total runs.
    pub runs: u64,
    /// Forward collisions.
    pub a1: u64,
    /// Lane violations.
    pub a2: u64,
    /// Accident-free runs.
    pub prevented: u64,
    /// Hazard-flagged runs.
    pub hazard: u64,
    /// AEB-triggered runs.
    pub aeb_n: u64,
    /// Driver-brake-triggered runs.
    pub driver_brake_n: u64,
    /// Driver-steer-triggered runs.
    pub driver_steer_n: u64,
    /// ML-recovery runs.
    pub ml_n: u64,
    /// Sum of AEB mitigation times.
    pub aeb_time_sum: f64,
    /// Runs contributing to [`Accumulator::aeb_time_sum`].
    pub aeb_time_n: u64,
    /// Sum of driver-brake mitigation times.
    pub driver_brake_time_sum: f64,
    /// Runs contributing to [`Accumulator::driver_brake_time_sum`].
    pub driver_brake_time_n: u64,
    /// Sum of driver-steer mitigation times.
    pub driver_steer_time_sum: f64,
    /// Runs contributing to [`Accumulator::driver_steer_time_sum`].
    pub driver_steer_time_n: u64,
}

impl Accumulator {
    /// Folds one row in.
    pub fn fold(&mut self, row: &CellRow) {
        self.runs += u64::from(row.runs);
        self.a1 += u64::from(row.a1);
        self.a2 += u64::from(row.a2);
        self.prevented += u64::from(row.prevented);
        self.hazard += u64::from(row.hazard);
        self.aeb_n += u64::from(row.aeb_n);
        self.driver_brake_n += u64::from(row.driver_brake_n);
        self.driver_steer_n += u64::from(row.driver_steer_n);
        self.ml_n += u64::from(row.ml_n);
        self.aeb_time_sum += row.aeb_time_sum;
        self.aeb_time_n += u64::from(row.aeb_time_n);
        self.driver_brake_time_sum += row.driver_brake_time_sum;
        self.driver_brake_time_n += u64::from(row.driver_brake_time_n);
        self.driver_steer_time_sum += row.driver_steer_time_sum;
        self.driver_steer_time_n += u64::from(row.driver_steer_time_n);
    }

    /// Merges another accumulator in (shard/segment combination).
    pub fn merge(&mut self, other: &Accumulator) {
        self.runs += other.runs;
        self.a1 += other.a1;
        self.a2 += other.a2;
        self.prevented += other.prevented;
        self.hazard += other.hazard;
        self.aeb_n += other.aeb_n;
        self.driver_brake_n += other.driver_brake_n;
        self.driver_steer_n += other.driver_steer_n;
        self.ml_n += other.ml_n;
        self.aeb_time_sum += other.aeb_time_sum;
        self.aeb_time_n += other.aeb_time_n;
        self.driver_brake_time_sum += other.driver_brake_time_sum;
        self.driver_brake_time_n += other.driver_brake_time_n;
        self.driver_steer_time_sum += other.driver_steer_time_sum;
        self.driver_steer_time_n += other.driver_steer_time_n;
    }

    fn pct(count: u64, runs: u64) -> f64 {
        if runs == 0 {
            0.0
        } else {
            100.0 * count as f64 / runs as f64
        }
    }

    fn mean(sum: f64, n: u64) -> Option<f64> {
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Forward-collision percentage (Table VI A1 column).
    #[must_use]
    pub fn a1_pct(&self) -> f64 {
        Self::pct(self.a1, self.runs)
    }

    /// Lane-violation percentage (Table VI A2 column).
    #[must_use]
    pub fn a2_pct(&self) -> f64 {
        Self::pct(self.a2, self.runs)
    }

    /// Accident-prevented percentage.
    #[must_use]
    pub fn prevented_pct(&self) -> f64 {
        Self::pct(self.prevented, self.runs)
    }

    /// Hazard-flag percentage.
    #[must_use]
    pub fn hazard_pct(&self) -> f64 {
        Self::pct(self.hazard, self.runs)
    }

    /// One CSV measure tail: runs then the derived percentages and mean
    /// times (empty cell when a mean has no contributors).
    #[must_use]
    pub fn render_measures(&self) -> String {
        let m = |sum, n| {
            Self::mean(sum, n).map_or_else(String::new, |v| format!("{v:.3}"))
        };
        format!(
            "{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{},{},{}",
            self.runs,
            self.a1_pct(),
            self.a2_pct(),
            self.prevented_pct(),
            self.hazard_pct(),
            Self::pct(self.aeb_n, self.runs),
            Self::pct(self.driver_brake_n, self.runs),
            Self::pct(self.driver_steer_n, self.runs),
            Self::pct(self.ml_n, self.runs),
            m(self.aeb_time_sum, self.aeb_time_n),
            m(self.driver_brake_time_sum, self.driver_brake_time_n),
            m(self.driver_steer_time_sum, self.driver_steer_time_n),
        )
    }
}

/// Streams every intact cell row of `store` into per-group accumulators.
/// Returns the group table plus the per-segment read reports (so callers
/// can surface recovery events alongside the aggregate).
pub fn aggregate(
    store: &Store,
    by: &GroupBy,
) -> Result<(BTreeMap<GroupKey, Accumulator>, Vec<SegmentReport>), StoreError> {
    let mut groups: BTreeMap<GroupKey, Accumulator> = BTreeMap::new();
    let reports = store.scan_cells(|row| {
        groups.entry(by.key(row)).or_default().fold(row);
    })?;
    Ok((groups, reports))
}

/// Renders a group table as CSV, one line per group in key order.
#[must_use]
pub fn render(by: &GroupBy, groups: &BTreeMap<GroupKey, Accumulator>) -> String {
    let mut out = String::new();
    out.push_str(&by.header());
    out.push('\n');
    for (key, acc) in groups {
        let mut cols = key.cells();
        cols.push(acc.render_measures());
        out.push_str(&cols.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fault: u8, iv: u8, a1: u32) -> CellRow {
        CellRow {
            scenario: 2,
            position: 0,
            fault,
            iv_row: iv,
            mitigation: 0,
            sched: 0,
            seed: 1,
            runs: 100,
            a1,
            a2: 5,
            prevented: 100 - a1 - 5,
            hazard: 90,
            aeb_n: 40,
            driver_brake_n: 30,
            driver_steer_n: 10,
            ml_n: 0,
            aeb_time_sum: 50.0,
            aeb_time_n: 40,
            driver_brake_time_sum: 60.0,
            driver_brake_time_n: 30,
            driver_steer_time_sum: 0.0,
            driver_steer_time_n: 0,
        }
    }

    #[test]
    fn grouping_collapses_unselected_axes() {
        let by = GroupBy::parse("fault").unwrap();
        let mut groups: BTreeMap<GroupKey, Accumulator> = BTreeMap::new();
        for r in [row(1, 0, 10), row(1, 3, 20), row(2, 0, 30)] {
            groups.entry(by.key(&r)).or_default().fold(&r);
        }
        assert_eq!(groups.len(), 2);
        let fault1 = by.key(&row(1, 0, 0));
        assert_eq!(groups[&fault1].runs, 200);
        assert_eq!(groups[&fault1].a1, 30);
        assert!((groups[&fault1].a1_pct() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn fold_order_does_not_change_derived_stats() {
        let by = GroupBy::default();
        let rows = [row(0, 0, 1), row(1, 1, 2), row(2, 2, 3), row(3, 3, 4)];
        let mut forward = Accumulator::default();
        for r in &rows {
            forward.fold(r);
        }
        let mut backward = Accumulator::default();
        for r in rows.iter().rev() {
            backward.fold(r);
        }
        assert_eq!(forward, backward);
        let _ = by;
    }

    #[test]
    fn merge_equals_fold_of_concatenation() {
        let rows: Vec<_> = (0..10).map(|i| row(i % 4, i % 8, i as u32)).collect();
        let mut whole = Accumulator::default();
        for r in &rows {
            whole.fold(r);
        }
        let (left, right) = rows.split_at(4);
        let mut a = Accumulator::default();
        let mut b = Accumulator::default();
        for r in left {
            a.fold(r);
        }
        for r in right {
            b.fold(r);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn parse_rejects_unknown_axis() {
        assert!(GroupBy::parse("fault,bogus").is_err());
        assert!(GroupBy::parse("").unwrap() == GroupBy::default());
    }

    #[test]
    fn render_emits_one_line_per_group() {
        let by = GroupBy::parse("fault,iv").unwrap();
        let mut groups: BTreeMap<GroupKey, Accumulator> = BTreeMap::new();
        for r in [row(1, 0, 10), row(2, 1, 20)] {
            groups.entry(by.key(&r)).or_default().fold(&r);
        }
        let text = render(&by, &groups);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("fault,iv,runs,"));
        assert!(lines[1].starts_with("1,0,100,10.00"));
    }
}
