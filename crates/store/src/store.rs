//! The store directory: a set of append-only segments plus the
//! `verify`/`compact` maintenance operations.
//!
//! Writers never touch an existing segment — each appender claims a
//! fresh `<kind>-NNNNNNNN.seg` name by creating the file exclusively, so
//! concurrent handles, daemons and CLI runs cannot interleave blocks.
//! Readers chain every segment of a kind in file-name order, which makes
//! iteration (and therefore compaction output) deterministic for a given
//! directory state.

use crate::record::{CellRow, FindingRow, RecordKind};
use crate::segment::{SegmentReader, SegmentWriter};
use adas_codec::Reader;
use std::fmt;
use std::fs::OpenOptions;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Store-level errors. Recovery conditions (corrupt blocks, truncated
/// tails) are *not* errors — they are reported in [`SegmentReport`]s and
/// the affected records are simply absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure, with the path involved.
    Io(String),
    /// Structural failure: bad header, wrong width, misuse.
    Format(String),
}

impl StoreError {
    /// Wraps an I/O error with the path involved.
    #[must_use]
    pub fn io(path: &Path, err: &std::io::Error) -> Self {
        StoreError::Io(format!("{}: {err}", path.display()))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "io error: {m}"),
            StoreError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Per-segment read/recovery statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segment path (empty for in-memory readers).
    pub path: PathBuf,
    /// Blocks that verified.
    pub blocks: u64,
    /// Records yielded from verified blocks.
    pub records: u64,
    /// Damaged block candidates skipped by resync.
    pub corrupt_blocks: u64,
    /// True when the file ended in unverifiable bytes.
    pub truncated: bool,
}

impl SegmentReport {
    /// True when every byte of the segment verified.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.corrupt_blocks == 0 && !self.truncated
    }
}

/// `verify` result over a whole store directory.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// One report per segment, in iteration order.
    pub segments: Vec<SegmentReport>,
}

impl VerifyReport {
    /// Total intact records across all segments.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.segments.iter().map(|s| s.records).sum()
    }

    /// True when every segment verified end to end.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.segments.iter().all(SegmentReport::clean)
    }
}

/// A store directory handle.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    /// Per-kind hint for the next segment index to claim (cells, then
    /// findings). Seeded once at [`Store::open`] and shared by clones; a
    /// name another writer took only moves it forward.
    next: Arc<[AtomicU64; 2]>,
}

impl Store {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, &e))?;
        let store = Self {
            dir: dir.to_owned(),
            next: Arc::default(),
        };
        for kind in [RecordKind::Cell, RecordKind::Finding] {
            let existing = store.segments(kind)?.len() as u64;
            store.next_index(kind).store(existing, Ordering::Relaxed);
        }
        Ok(store)
    }

    fn next_index(&self, kind: RecordKind) -> &AtomicU64 {
        match kind {
            RecordKind::Cell => &self.next[0],
            RecordKind::Finding => &self.next[1],
        }
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Existing segment paths of `kind`, in file-name order.
    pub fn segments(&self, kind: RecordKind) -> Result<Vec<PathBuf>, StoreError> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&self.dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(kind.prefix()) && name.ends_with(".seg") {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Claims a fresh segment name for `kind` and opens a writer on it.
    /// The claim is the file's exclusive creation, so writers on any
    /// handle or process never share a segment; a taken name moves on to
    /// the next index, and any other error is returned.
    pub fn create_segment(&self, kind: RecordKind) -> Result<SegmentWriter, StoreError> {
        let next = self.next_index(kind);
        let mut options = OpenOptions::new();
        options.write(true).create_new(true);
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let path = self.dir.join(format!("{}-{index:08}.seg", kind.prefix()));
            match SegmentWriter::open_with(&path, kind, &options) {
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {}
                claimed => return claimed.map_err(|e| StoreError::io(&path, &e)),
            }
        }
    }

    /// One-shot append of cell rows as a fresh segment; returns its path.
    pub fn append_cells(&self, rows: &[CellRow]) -> Result<PathBuf, StoreError> {
        self.append(RecordKind::Cell, &crate::record::encode_cells(rows))
    }

    /// One-shot append of finding rows as a fresh segment; returns its
    /// path.
    pub fn append_findings(&self, rows: &[FindingRow]) -> Result<PathBuf, StoreError> {
        self.append(RecordKind::Finding, &crate::record::encode_findings(rows))
    }

    fn append(&self, kind: RecordKind, payload: &[u8]) -> Result<PathBuf, StoreError> {
        let mut w = self.create_segment(kind)?;
        w.append_bytes(payload)?;
        let path = w.path().to_owned();
        w.finish()?;
        Ok(path)
    }

    /// Streams every intact record of `kind` through `sink`, one verified
    /// block at a time (bounded memory). Segments that fail to open (bad
    /// header) are reported with zero records rather than aborting the
    /// scan. Returns per-segment reports.
    pub fn scan(
        &self,
        kind: RecordKind,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<Vec<SegmentReport>, StoreError> {
        let mut reports = Vec::new();
        for path in self.segments(kind)? {
            match SegmentReader::open(&path) {
                Ok(mut reader) => {
                    while let Some(block) = reader.next_block() {
                        for chunk in block.chunks_exact(kind.width()) {
                            sink(chunk);
                        }
                    }
                    reports.push(reader.report().clone());
                }
                Err(_) => reports.push(SegmentReport {
                    path,
                    corrupt_blocks: 1,
                    ..SegmentReport::default()
                }),
            }
        }
        Ok(reports)
    }

    /// Streams every intact [`CellRow`] through `sink`.
    pub fn scan_cells(
        &self,
        mut sink: impl FnMut(&CellRow),
    ) -> Result<Vec<SegmentReport>, StoreError> {
        self.scan(RecordKind::Cell, |chunk| {
            if let Ok(row) = CellRow::decode(&mut Reader::new(chunk)) {
                sink(&row);
            }
        })
    }

    /// Streams every intact [`FindingRow`] through `sink`.
    pub fn scan_findings(
        &self,
        mut sink: impl FnMut(&FindingRow),
    ) -> Result<Vec<SegmentReport>, StoreError> {
        self.scan(RecordKind::Finding, |chunk| {
            if let Ok(row) = FindingRow::decode(&mut Reader::new(chunk)) {
                sink(&row);
            }
        })
    }

    /// Verifies every segment of both kinds: walks all blocks, counting
    /// intact records, damaged blocks, and truncation — read-only.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for kind in [RecordKind::Cell, RecordKind::Finding] {
            report.segments.extend(self.scan(kind, |_| {})?);
        }
        Ok(report)
    }

    /// Rewrites all segments of `kind` into one fresh segment holding
    /// every intact record (in iteration order), then removes the old
    /// files. Damaged blocks are dropped — compaction is how a store
    /// sheds the scar tissue `verify` reports. Returns the surviving
    /// record count.
    pub fn compact(&self, kind: RecordKind) -> Result<u64, StoreError> {
        let old = self.segments(kind)?;
        if old.is_empty() {
            return Ok(0);
        }
        // Write to a temp name so a crash mid-compaction never claims a
        // live segment name with partial content.
        let tmp = self.dir.join(format!("{}.compacting", kind.prefix()));
        let mut w = SegmentWriter::create(&tmp, kind)?;
        let mut err = None;
        self.scan(kind, |chunk| {
            if err.is_none() {
                if let Err(e) = w.append_bytes(chunk) {
                    err = Some(e);
                }
            }
        })?;
        if let Some(e) = err {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let records = w.finish()?;
        for path in &old {
            std::fs::remove_file(path).map_err(|e| StoreError::io(path, &e))?;
        }
        let fresh = self.dir.join(format!("{}-{:08}.seg", kind.prefix(), 0));
        std::fs::rename(&tmp, &fresh).map_err(|e| StoreError::io(&fresh, &e))?;
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ANY;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("adas-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn row(i: u32) -> CellRow {
        CellRow {
            scenario: ANY,
            position: ANY,
            fault: (i % 4) as u8,
            iv_row: (i % 8) as u8,
            mitigation: 0,
            sched: 0,
            seed: 2025,
            runs: 100,
            a1: i % 10,
            a2: i % 3,
            prevented: 80,
            hazard: 90,
            aeb_n: 40,
            driver_brake_n: 30,
            driver_steer_n: 10,
            ml_n: 0,
            aeb_time_sum: f64::from(i),
            aeb_time_n: 40,
            driver_brake_time_sum: 1.0,
            driver_brake_time_n: 30,
            driver_steer_time_sum: 0.5,
            driver_steer_time_n: 10,
        }
    }

    #[test]
    fn multi_segment_scan_chains_in_name_order() {
        let store = tmp_store("chain");
        store.append_cells(&[row(0), row(1)]).unwrap();
        store.append_cells(&[row(2)]).unwrap();
        let mut seen = Vec::new();
        let reports = store.scan_cells(|r| seen.push(*r)).unwrap();
        assert_eq!(seen, vec![row(0), row(1), row(2)]);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(SegmentReport::clean));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn verify_flags_a_damaged_segment_and_compact_heals_it() {
        let store = tmp_store("heal");
        store
            .append_cells(&(0..3000).map(row).collect::<Vec<_>>())
            .unwrap();
        let seg = store.segments(RecordKind::Cell).unwrap()[0].clone();
        let mut bytes = std::fs::read(&seg).unwrap();
        // Damage the middle block's payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(&seg, &bytes).unwrap();

        let v = store.verify().unwrap();
        assert!(!v.clean());
        // 3000 rows → blocks of 1024/1024/952; the damaged middle block
        // drops, the other two survive.
        let survivors = v.records();
        assert_eq!(survivors, 1024 + 952);

        let compacted = store.compact(RecordKind::Cell).unwrap();
        assert_eq!(compacted, survivors);
        let v2 = store.verify().unwrap();
        assert!(v2.clean());
        assert_eq!(v2.records(), survivors);
        assert_eq!(store.segments(RecordKind::Cell).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn compaction_replaces_a_stale_temp_file() {
        let store = tmp_store("stale");
        store.append_cells(&[row(0), row(1)]).unwrap();
        // A crash mid-compaction leaves the temp file behind.
        std::fs::write(store.dir().join("cells.compacting"), b"torn").unwrap();
        assert_eq!(store.compact(RecordKind::Cell).unwrap(), 2);
        let v = store.verify().unwrap();
        assert!(v.clean());
        assert_eq!(v.records(), 2);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn kinds_do_not_mix() {
        let store = tmp_store("kinds");
        store.append_cells(&[row(0)]).unwrap();
        store
            .append_findings(&[FindingRow {
                oracle: 3,
                scenario: 1,
                position: 0,
                fault: 2,
                iv_row: 1,
                sched: 0,
                session_seed: 7,
                signature: 99,
                fingerprint: 1,
                repetition: 0,
                params: [0.0; 8],
            }])
            .unwrap();
        let mut cells = 0;
        let mut findings = 0;
        store.scan_cells(|_| cells += 1).unwrap();
        store.scan_findings(|_| findings += 1).unwrap();
        assert_eq!((cells, findings), (1, 1));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
