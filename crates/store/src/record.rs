//! The fixed-width row types.
//!
//! Rows carry **counts**, not percentages: counts merge exactly across
//! segments and shards (addition is associative; re-derived percentages
//! are bit-identical no matter how the rows were batched), and the
//! fixed-width encoding is what lets the segment reader validate a block
//! structurally (`payload_len == count × width`) before trusting any
//! field.

use adas_attack::FaultType;
use adas_codec::{DecodeError, Reader, Writer};
use adas_core::{CellStats, InterventionConfig, MitigationKind, PlatformConfig};

/// Sentinel for "aggregated over this axis" in [`CellRow::scenario`] /
/// [`CellRow::position`] (the CLI harnesses aggregate per cell, the
/// per-run paths record the actual coordinate).
pub const ANY: u8 = 0xFF;

/// What a segment holds. The kind byte lives in the segment header, so a
/// file never mixes row widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// [`CellRow`] — campaign cell outcome counts.
    Cell,
    /// [`FindingRow`] — one deduped fuzz finding.
    Finding,
}

impl RecordKind {
    /// Stable on-disk code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            RecordKind::Cell => 1,
            RecordKind::Finding => 2,
        }
    }

    /// Parses [`RecordKind::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(RecordKind::Cell),
            2 => Some(RecordKind::Finding),
            _ => None,
        }
    }

    /// Fixed record width in bytes for this kind.
    #[must_use]
    pub fn width(self) -> usize {
        match self {
            RecordKind::Cell => CellRow::WIDTH,
            RecordKind::Finding => FindingRow::WIDTH,
        }
    }

    /// Segment file-name prefix (`cells-00000001.seg`).
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            RecordKind::Cell => "cells",
            RecordKind::Finding => "findings",
        }
    }
}

/// One campaign cell's outcome counts: the discrete grid coordinates plus
/// everything [`adas_core::CellStats`] needs, as exact integers (and time
/// sums, whose addition is the mean's numerator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRow {
    /// Scenario index 0–5, or [`ANY`] when aggregated over scenarios.
    pub scenario: u8,
    /// Spawn position 0/1, or [`ANY`].
    pub position: u8,
    /// Fault: 0 none, 1 relative-distance, 2 curvature, 3 mixed.
    pub fault: u8,
    /// Table VI intervention-row index.
    pub iv_row: u8,
    /// Mitigation strategy for ML rows: 0 cusum, 1 ensemble, 2 maskcheck.
    pub mitigation: u8,
    /// 1 when the attack ran under a context scheduler, 0 immediate.
    pub sched: u8,
    /// Campaign seed the runs executed under.
    pub seed: u64,
    /// Total runs folded into this row.
    pub runs: u32,
    /// Forward collisions (A1).
    pub a1: u32,
    /// Lane violations (A2).
    pub a2: u32,
    /// Accident-free runs.
    pub prevented: u32,
    /// Runs with any hazard flag.
    pub hazard: u32,
    /// Runs in which AEB braked.
    pub aeb_n: u32,
    /// Runs in which the driver's brake channel triggered.
    pub driver_brake_n: u32,
    /// Runs in which the driver's steer channel triggered.
    pub driver_steer_n: u32,
    /// Runs in which ML recovery engaged.
    pub ml_n: u32,
    /// Sum of fault-start → AEB-braking times, seconds.
    pub aeb_time_sum: f64,
    /// Runs contributing to [`CellRow::aeb_time_sum`].
    pub aeb_time_n: u32,
    /// Sum of fault-start → driver-brake times, seconds.
    pub driver_brake_time_sum: f64,
    /// Runs contributing to [`CellRow::driver_brake_time_sum`].
    pub driver_brake_time_n: u32,
    /// Sum of fault-start → driver-steer times, seconds.
    pub driver_steer_time_sum: f64,
    /// Runs contributing to [`CellRow::driver_steer_time_sum`].
    pub driver_steer_time_n: u32,
}

impl CellRow {
    /// Encoded width: 6 × u8 + u64 + 9 × u32 + 3 × (f64 + u32).
    pub const WIDTH: usize = 6 + 8 + 9 * 4 + 3 * 12;

    /// Encodes into exactly [`CellRow::WIDTH`] bytes.
    pub fn encode(&self, out: &mut Writer) {
        for v in [
            self.scenario,
            self.position,
            self.fault,
            self.iv_row,
            self.mitigation,
            self.sched,
        ] {
            out.u8(v);
        }
        out.u64(self.seed);
        for v in [
            self.runs,
            self.a1,
            self.a2,
            self.prevented,
            self.hazard,
            self.aeb_n,
            self.driver_brake_n,
            self.driver_steer_n,
            self.ml_n,
        ] {
            out.u32(v);
        }
        for (sum, n) in [
            (self.aeb_time_sum, self.aeb_time_n),
            (self.driver_brake_time_sum, self.driver_brake_time_n),
            (self.driver_steer_time_sum, self.driver_steer_time_n),
        ] {
            out.f64(sum);
            out.u32(n);
        }
    }

    /// Decodes one row; fails on short input.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut u8s = [0u8; 6];
        for slot in &mut u8s {
            *slot = r.u8()?;
        }
        let seed = r.u64()?;
        let mut u32s = [0u32; 9];
        for slot in &mut u32s {
            *slot = r.u32()?;
        }
        let mut times = [(0.0f64, 0u32); 3];
        for slot in &mut times {
            *slot = (r.f64()?, r.u32()?);
        }
        Ok(Self {
            scenario: u8s[0],
            position: u8s[1],
            fault: u8s[2],
            iv_row: u8s[3],
            mitigation: u8s[4],
            sched: u8s[5],
            seed,
            runs: u32s[0],
            a1: u32s[1],
            a2: u32s[2],
            prevented: u32s[3],
            hazard: u32s[4],
            aeb_n: u32s[5],
            driver_brake_n: u32s[6],
            driver_steer_n: u32s[7],
            ml_n: u32s[8],
            aeb_time_sum: times[0].0,
            aeb_time_n: times[0].1,
            driver_brake_time_sum: times[1].0,
            driver_brake_time_n: times[1].1,
            driver_steer_time_sum: times[2].0,
            driver_steer_time_n: times[2].1,
        })
    }

    /// The row of one finished campaign cell — the one builder every
    /// producer (the `table_vi` harness, the daemon) uses, so the same
    /// cell lands on the same coordinates. A cell
    /// aggregates every scenario × position of its sweep, so those axes
    /// are [`ANY`]. The intervention row is the Table VI row the
    /// configuration matches with its mitigation strategy and view count
    /// ignored (the ML row under any strategy is row 7; [`ANY`] off the
    /// grid), and the strategy is its own column. The counts and time
    /// sums are copied from `s` (saturating at `u32::MAX`).
    #[must_use]
    pub fn for_cell(
        fault: Option<FaultType>,
        config: &PlatformConfig,
        seed: u64,
        s: &CellStats,
    ) -> Self {
        let iv = config.interventions;
        let grid_row = InterventionConfig {
            mitigation: MitigationKind::default(),
            views: 0,
            ..iv
        };
        let iv_row = InterventionConfig::table_vi_rows()
            .iter()
            .position(|row| *row == grid_row)
            .map_or(ANY, |i| i as u8);
        let n = |count: u64| u32::try_from(count).unwrap_or(u32::MAX);
        Self {
            scenario: ANY,
            position: ANY,
            fault: fault.map_or(0, FaultType::code),
            iv_row,
            mitigation: iv.mitigation.code(),
            sched: u8::from(!config.attack.is_immediate()),
            seed,
            runs: n(s.runs),
            a1: n(s.a1),
            a2: n(s.a2),
            prevented: n(s.prevented),
            hazard: n(s.hazard),
            aeb_n: n(s.aeb_n),
            driver_brake_n: n(s.driver_brake_n),
            driver_steer_n: n(s.driver_steer_n),
            ml_n: n(s.ml_n),
            aeb_time_sum: s.aeb_time_sum,
            aeb_time_n: n(s.aeb_time_n),
            driver_brake_time_sum: s.driver_brake_time_sum,
            driver_brake_time_n: n(s.driver_brake_time_n),
            driver_steer_time_sum: s.driver_steer_time_sum,
            driver_steer_time_n: n(s.driver_steer_time_n),
        }
    }
}

/// One deduped fuzz finding: the oracle, the behavioural signature it was
/// deduped under, and the full shrunk case — self-contained, so the store
/// alone can answer "which parameters break which property where".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FindingRow {
    /// Oracle family code ([`adas_fuzz` `OracleKind::code`]).
    pub oracle: u8,
    /// Scenario index 0–5.
    pub scenario: u8,
    /// Spawn position 0/1.
    pub position: u8,
    /// Fault code (as [`CellRow::fault`]).
    pub fault: u8,
    /// Table VI intervention-row index.
    pub iv_row: u8,
    /// Scheduler TTC bucket of the shrunk case (0 = immediate).
    pub sched: u8,
    /// Fuzz session seed that produced the finding.
    pub session_seed: u64,
    /// Behavioural signature (the fleet dedup key, with the oracle).
    pub signature: u64,
    /// Shrunk-case fingerprint (= repro file stem suffix).
    pub fingerprint: u64,
    /// Repetition index of the shrunk case.
    pub repetition: u32,
    /// Shrunk continuous parameters, in `FuzzCase` field order.
    pub params: [f64; 8],
}

impl FindingRow {
    /// Encoded width: 6 × u8 + 3 × u64 + u32 + 8 × f64.
    pub const WIDTH: usize = 6 + 3 * 8 + 4 + 8 * 8;

    /// Encodes into exactly [`FindingRow::WIDTH`] bytes.
    pub fn encode(&self, out: &mut Writer) {
        for v in [
            self.oracle,
            self.scenario,
            self.position,
            self.fault,
            self.iv_row,
            self.sched,
        ] {
            out.u8(v);
        }
        out.u64(self.session_seed);
        out.u64(self.signature);
        out.u64(self.fingerprint);
        out.u32(self.repetition);
        for p in self.params {
            out.f64(p);
        }
    }

    /// Decodes one row; fails on short input.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut u8s = [0u8; 6];
        for slot in &mut u8s {
            *slot = r.u8()?;
        }
        let session_seed = r.u64()?;
        let signature = r.u64()?;
        let fingerprint = r.u64()?;
        let repetition = r.u32()?;
        let mut params = [0.0f64; 8];
        for slot in &mut params {
            *slot = r.f64()?;
        }
        Ok(Self {
            oracle: u8s[0],
            scenario: u8s[1],
            position: u8s[2],
            fault: u8s[3],
            iv_row: u8s[4],
            sched: u8s[5],
            session_seed,
            signature,
            fingerprint,
            repetition,
            params,
        })
    }
}

/// Encodes a slice of cell rows into one contiguous fixed-width payload.
#[must_use]
pub fn encode_cells(rows: &[CellRow]) -> Vec<u8> {
    let mut w = Writer::new();
    for row in rows {
        row.encode(&mut w);
    }
    w.into_bytes()
}

/// Encodes a slice of finding rows into one contiguous payload.
#[must_use]
pub fn encode_findings(rows: &[FindingRow]) -> Vec<u8> {
    let mut w = Writer::new();
    for row in rows {
        row.encode(&mut w);
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_cell(i: u32) -> CellRow {
        CellRow {
            scenario: (i % 6) as u8,
            position: (i % 2) as u8,
            fault: (i % 4) as u8,
            iv_row: (i % 8) as u8,
            mitigation: (i % 3) as u8,
            sched: (i % 2) as u8,
            seed: 2025,
            runs: 120,
            a1: i % 40,
            a2: i % 17,
            prevented: 120 - (i % 40) - (i % 17),
            hazard: i % 90,
            aeb_n: i % 60,
            driver_brake_n: i % 50,
            driver_steer_n: i % 30,
            ml_n: 0,
            aeb_time_sum: f64::from(i) * 0.321,
            aeb_time_n: i % 60,
            driver_brake_time_sum: f64::from(i) * 1.5,
            driver_brake_time_n: i % 50,
            driver_steer_time_sum: 0.0,
            driver_steer_time_n: 0,
        }
    }

    #[test]
    fn cell_row_width_is_exact() {
        let row = sample_cell(7);
        let mut w = Writer::new();
        row.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), CellRow::WIDTH);
        let mut r = Reader::new(&bytes);
        assert_eq!(CellRow::decode(&mut r), Ok(row));
        assert!(r.exhausted());
    }

    #[test]
    fn finding_row_width_is_exact() {
        let row = FindingRow {
            oracle: 3,
            scenario: 4,
            position: 0,
            fault: 1,
            iv_row: 2,
            sched: 0,
            session_seed: 42,
            signature: 0xDEAD_BEEF,
            fingerprint: 0x1234_5678_9ABC_DEF0,
            repetition: 1,
            params: [0.5, 1.0, -20.25, 12.0, 1.0, 1.0, 0.0, 0.0],
        };
        let mut w = Writer::new();
        row.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), FindingRow::WIDTH);
        let mut r = Reader::new(&bytes);
        assert_eq!(FindingRow::decode(&mut r), Ok(row));
        assert!(r.exhausted());
    }

    #[test]
    fn truncated_rows_fail_to_decode() {
        let bytes = encode_cells(&[sample_cell(1)]);
        for cut in 0..CellRow::WIDTH {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(CellRow::decode(&mut r).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn cell_rows_carry_the_exact_stats() {
        let mut stats = crate::Accumulator::default();
        stats.fold(&sample_cell(37));
        let config =
            PlatformConfig::with_interventions(InterventionConfig::driver_check_aeb_compromised());
        let row = CellRow::for_cell(Some(FaultType::RelativeDistance), &config, 2025, &stats.0);
        assert_eq!(
            (row.scenario, row.position, row.fault, row.iv_row),
            (ANY, ANY, 1, 2)
        );
        assert_eq!((row.mitigation, row.sched, row.seed), (0, 0, 2025));
        let mut back = crate::Accumulator::default();
        back.fold(&row);
        assert_eq!(back, stats);
    }

    #[test]
    fn served_and_harness_ml_rows_share_coordinates() {
        let coords = |r: CellRow| (r.fault, r.iv_row, r.mitigation, r.sched);
        let fault = Some(FaultType::Mixed);
        let stats = CellStats::from_records(std::iter::empty());
        // A served `ml-ens` cell, configured as the daemon configures it.
        let served = adas_core::job::CellSpec {
            fault,
            interventions: InterventionConfig::from_name("ml-ens").expect("a row name"),
        };
        let spec = adas_core::CampaignSpec::new(2025, 2, vec![served]);
        let served = CellRow::for_cell(fault, &spec.config_for(&served), 2025, &stats);
        // The `table_vi` ML row under `ADAS_MITIGATION=ensemble`.
        let mut iv = InterventionConfig::table_vi_rows()[7];
        iv.mitigation = MitigationKind::from_name("ensemble").expect("a strategy name");
        let harness =
            CellRow::for_cell(fault, &PlatformConfig::with_interventions(iv), 2025, &stats);
        assert_eq!((served.scenario, served.position), (ANY, ANY));
        assert_eq!(coords(served), coords(harness));
        assert_eq!(coords(served), (3, 7, MitigationKind::Ensemble.code(), 0));
        // Off the grid (a Table VII reaction time) and context-scheduled.
        let mut config = PlatformConfig::with_interventions(InterventionConfig {
            driver_reaction_time: 1.0,
            ..InterventionConfig::driver_only()
        });
        config.attack = adas_attack::AttackScheduler::parse("ttc<2.5").expect("a schedule");
        let off = CellRow::for_cell(None, &config, 7, &stats);
        assert_eq!(coords(off), (0, ANY, 0, 1));
    }
}
