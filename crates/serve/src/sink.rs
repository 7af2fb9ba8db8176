//! Optional write-through to the columnar results store.
//!
//! When `ADAS_STORE_DIR` is set, the daemon (and, through it, the fabric
//! coordinator) appends every finished campaign cell and every deduped
//! fuzz finding to the append-only store, so `adas-store query` can
//! answer Table VI/VII-style aggregates across everything the fleet has
//! ever computed. The sink is strictly best-effort: a full disk or a bad
//! directory logs one line and drops the rows — it never fails the job
//! that produced them.

use adas_fuzz::farm::FarmFinding;
use adas_store::{CellRow, FindingRow, Store};
use std::sync::Mutex;

/// A lazily-opened, error-absorbing handle on the results store.
pub struct StoreSink {
    /// `None` when `ADAS_STORE_DIR` is unset (the common case).
    store: Option<Store>,
    /// Rows appended so far (cells, findings) — surfaced in metrics.
    appended: Mutex<(u64, u64)>,
}

impl std::fmt::Debug for StoreSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSink")
            .field("enabled", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl StoreSink {
    /// A sink on `ADAS_STORE_DIR`, disabled when the variable is unset or
    /// the directory cannot be created (logged, not fatal).
    #[must_use]
    pub fn from_env() -> Self {
        let store = adas_store::dir_from_env().and_then(|dir| match Store::open(&dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("[serve] store write-through disabled: {e}");
                None
            }
        });
        Self {
            store,
            appended: Mutex::new((0, 0)),
        }
    }

    /// A sink that drops everything (tests, store-less deployments).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            store: None,
            appended: Mutex::new((0, 0)),
        }
    }

    /// Whether rows will actually be persisted.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.store.is_some()
    }

    /// `(cell_rows, finding_rows)` appended so far.
    #[must_use]
    pub fn appended(&self) -> (u64, u64) {
        *self.appended.lock().expect("sink lock")
    }

    /// Appends finished-cell rows (one fresh segment per call — campaign
    /// jobs batch a whole grid into one append).
    pub fn cells(&self, rows: &[CellRow]) {
        let Some(store) = &self.store else { return };
        if rows.is_empty() {
            return;
        }
        match store.append_cells(rows) {
            Ok(_) => self.appended.lock().expect("sink lock").0 += rows.len() as u64,
            Err(e) => eprintln!("[serve] store cell append failed: {e}"),
        }
    }

    /// Appends deduped fuzz-finding rows.
    pub fn findings(&self, rows: &[FindingRow]) {
        let Some(store) = &self.store else { return };
        if rows.is_empty() {
            return;
        }
        match store.append_findings(rows) {
            Ok(_) => self.appended.lock().expect("sink lock").1 += rows.len() as u64,
            Err(e) => eprintln!("[serve] store finding append failed: {e}"),
        }
    }
}

/// Flattens a farm finding into its columnar row. The eight continuous
/// parameters land in `FuzzCase` declaration order, bit-exact.
#[must_use]
pub fn finding_row(f: &FarmFinding) -> FindingRow {
    use adas_attack::FaultType;
    let c = &f.shrunk;
    FindingRow {
        oracle: f.oracle.code() as u8,
        scenario: c.scenario.index() as u8,
        position: c.position.index() as u8,
        fault: c.fault.map_or(0, FaultType::code),
        iv_row: c.iv_row as u8,
        sched: adas_fuzz::coverage::sched_bucket(c.sched_ttc) as u8,
        session_seed: f.session_seed,
        signature: f.signature,
        fingerprint: c.fingerprint(),
        repetition: c.repetition,
        params: [
            c.ego_speed_delta,
            c.friction,
            c.attack_start_offset,
            c.attack_duration,
            c.attack_intensity,
            c.attack_direction,
            c.trigger_offset,
            c.sched_ttc,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_fuzz::case::FuzzCase;
    use adas_fuzz::OracleKind;
    use adas_scenarios::{InitialPosition, ScenarioId};

    #[test]
    fn finding_row_is_bit_exact() {
        let mut case = FuzzCase::baseline(
            ScenarioId::S3,
            InitialPosition::Far,
            4,
            Some(adas_attack::FaultType::DesiredCurvature),
        );
        case.friction = 0.300_000_000_000_000_04;
        case.sched_ttc = 2.0;
        let f = FarmFinding {
            session_seed: 9,
            oracle: OracleKind::MetamorphicShift,
            shrunk: case,
            detail: "d".into(),
            signature: 1234,
            trace: vec![],
        };
        let row = finding_row(&f);
        assert_eq!(row.oracle, 4);
        assert_eq!(row.scenario, 2);
        assert_eq!(row.position, 1);
        assert_eq!(row.fault, 2);
        assert_eq!(row.iv_row, 4);
        assert_eq!(row.sched, 2);
        assert_eq!(row.fingerprint, case.fingerprint());
        assert_eq!(row.params[1].to_bits(), case.friction.to_bits());
        assert_eq!(row.params[7], 2.0);
    }

    #[test]
    fn disabled_sink_swallows_everything() {
        let sink = StoreSink::disabled();
        assert!(!sink.enabled());
        sink.cells(&[]);
        sink.findings(&[]);
        assert_eq!(sink.appended(), (0, 0));
    }
}
