//! The on-disk segment: versioned header + FNV-checksummed record blocks.
//!
//! ```text
//! header   "ADASSEG1" | version u16 | kind u8 | 0 | record_width u32 | fnv u64
//! block    "ABLK" | count u32 | count × width record bytes | fnv u64
//! block    …
//! ```
//!
//! Everything is little-endian. The header checksum covers the 16 bytes
//! before it; each block checksum covers that block's payload. The reader
//! trusts nothing it cannot verify: a block whose magic, structural
//! bounds, or checksum fail is skipped by scanning forward for the next
//! block magic (`resync`), and a tail with no further verifiable block is
//! reported as truncation — so a crash mid-append, a torn write, or a
//! flipped bit costs at most the damaged block, never the segment, and
//! the reader never panics or over-allocates on hostile lengths.

use crate::record::RecordKind;
use crate::store::{SegmentReport, StoreError};
use adas_codec::Fingerprint;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment file magic.
pub const SEG_MAGIC: &[u8; 8] = b"ADASSEG1";
/// Segment format version.
pub const SEG_VERSION: u16 = 1;
/// Block magic.
pub const BLOCK_MAGIC: &[u8; 4] = b"ABLK";
/// Header length in bytes.
pub const HEADER_LEN: usize = 24;
/// Records the writer packs per block (the reader accepts any verifiable
/// count up to [`MAX_BLOCK_RECORDS`]).
pub const REC_PER_BLOCK: usize = 1024;
/// Upper bound a reader accepts for one block's record count — bounds the
/// allocation a corrupted count field can provoke.
pub const MAX_BLOCK_RECORDS: usize = 65_536;
/// Upper bound a reader accepts for one block's payload bytes.
pub const MAX_BLOCK_BYTES: usize = 16 << 20;

/// Renders the 24-byte segment header.
#[must_use]
pub fn header_bytes(kind: RecordKind) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(SEG_MAGIC);
    h[8..10].copy_from_slice(&SEG_VERSION.to_le_bytes());
    h[10] = kind.code();
    h[11] = 0;
    h[12..16].copy_from_slice(
        &u32::try_from(kind.width())
            .expect("small width")
            .to_le_bytes(),
    );
    let sum = Fingerprint::new().write_bytes(&h[..16]).value();
    h[16..24].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Parses and validates a segment header. Errors on bad magic, version,
/// kind, width, or checksum — an unreadable header means the file is not
/// a segment (or its first sector was destroyed), so there is no record
/// geometry to recover with.
pub fn parse_header(h: &[u8]) -> Result<RecordKind, StoreError> {
    if h.len() < HEADER_LEN || &h[..8] != SEG_MAGIC {
        return Err(StoreError::Format("bad segment magic".into()));
    }
    let stored = u64::from_le_bytes(h[16..24].try_into().expect("8 bytes"));
    if Fingerprint::new().write_bytes(&h[..16]).value() != stored {
        return Err(StoreError::Format(
            "segment header checksum mismatch".into(),
        ));
    }
    let version = u16::from_le_bytes(h[8..10].try_into().expect("2 bytes"));
    if version != SEG_VERSION {
        return Err(StoreError::Format(format!(
            "unsupported segment version {version}"
        )));
    }
    let kind = RecordKind::from_code(h[10])
        .ok_or_else(|| StoreError::Format(format!("unknown record kind {}", h[10])))?;
    let width = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes")) as usize;
    if width != kind.width() {
        return Err(StoreError::Format(format!(
            "record width {width} does not match kind {kind:?} ({})",
            kind.width()
        )));
    }
    Ok(kind)
}

/// Buffered appender for one segment file.
#[derive(Debug)]
pub struct SegmentWriter {
    file: BufWriter<File>,
    path: PathBuf,
    kind: RecordKind,
    /// Pending record bytes (fewer than one block), flushed as one block.
    buf: Vec<u8>,
    records: u64,
}

impl SegmentWriter {
    /// Creates `path` (truncating any previous content) and writes the
    /// header.
    pub fn create(path: &Path, kind: RecordKind) -> Result<Self, StoreError> {
        Self::open_with(
            path,
            kind,
            OpenOptions::new().write(true).create(true).truncate(true),
        )
        .map_err(|e| StoreError::io(path, &e))
    }

    /// Opens `path` with `options` and writes the header. An
    /// `AlreadyExists` error from a `create_new` open comes back as is, so
    /// a caller claiming a fresh name can tell it from a real failure.
    pub(crate) fn open_with(
        path: &Path,
        kind: RecordKind,
        options: &OpenOptions,
    ) -> std::io::Result<Self> {
        let mut file = BufWriter::new(options.open(path)?);
        file.write_all(&header_bytes(kind))?;
        Ok(Self {
            file,
            path: path.to_owned(),
            kind,
            buf: Vec::new(),
            records: 0,
        })
    }

    /// The segment file this writer appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The segment's record kind.
    #[must_use]
    pub fn kind(&self) -> RecordKind {
        self.kind
    }

    /// Records appended so far (buffered + flushed).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends pre-encoded record bytes (length must be a whole number of
    /// records). Blocks are cut every [`REC_PER_BLOCK`] records; each is
    /// written straight from the buffer, which is drained once per call.
    pub fn append_bytes(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let width = self.kind.width();
        if !payload.len().is_multiple_of(width) {
            return Err(StoreError::Format(format!(
                "payload of {} bytes is not a whole number of {width}-byte records",
                payload.len()
            )));
        }
        self.buf.extend_from_slice(payload);
        self.records += (payload.len() / width) as u64;
        let block = REC_PER_BLOCK * width;
        let whole = self.buf.len() - self.buf.len() % block;
        for payload in self.buf[..whole].chunks_exact(block) {
            write_block(&mut self.file, width, payload)
                .map_err(|e| StoreError::io(&self.path, &e))?;
        }
        self.buf.drain(..whole);
        Ok(())
    }

    /// Flushes buffered records as a (possibly short) block and pushes
    /// them to the OS — the durability point a daemon calls per job.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        write_block(&mut self.file, self.kind.width(), &self.buf)
            .and_then(|()| self.file.flush())
            .map_err(|e| StoreError::io(&self.path, &e))?;
        self.buf.clear();
        Ok(())
    }

    /// Flushes and closes the segment, returning the record count.
    pub fn finish(mut self) -> Result<u64, StoreError> {
        self.sync()?;
        Ok(self.records)
    }
}

/// Writes one block frame straight from `payload` (a whole number of
/// `width`-byte records): magic, record count, payload, checksum. An
/// empty payload writes nothing.
fn write_block(file: &mut impl Write, width: usize, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    let count = u32::try_from(payload.len() / width).expect("block count fits");
    let sum = Fingerprint::new().write_bytes(payload).value();
    file.write_all(BLOCK_MAGIC)?;
    file.write_all(&count.to_le_bytes())?;
    file.write_all(payload)?;
    file.write_all(&sum.to_le_bytes())
}

/// Streaming, recovery-first segment reader: yields one verified block
/// payload at a time (bounded memory: [`MAX_BLOCK_BYTES`] plus a scan
/// chunk, regardless of segment size).
#[derive(Debug)]
pub struct SegmentReader<R> {
    inner: R,
    pos: u64,
    len: u64,
    kind: RecordKind,
    report: SegmentReport,
}

impl SegmentReader<File> {
    /// Opens a segment file.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path).map_err(|e| StoreError::io(path, &e))?;
        let mut reader = Self::new(file)?;
        reader.report.path = path.to_owned();
        Ok(reader)
    }
}

impl<R: Read + Seek> SegmentReader<R> {
    /// Wraps any seekable byte source (tests use `io::Cursor`).
    pub fn new(mut inner: R) -> Result<Self, StoreError> {
        let len = inner
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::Format(format!("seek: {e}")))?;
        inner
            .seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::Format(format!("seek: {e}")))?;
        let mut header = [0u8; HEADER_LEN];
        inner
            .read_exact(&mut header)
            .map_err(|_| StoreError::Format("segment shorter than its header".into()))?;
        let kind = parse_header(&header)?;
        Ok(Self {
            inner,
            pos: HEADER_LEN as u64,
            len,
            kind,
            report: SegmentReport::default(),
        })
    }

    /// The segment's record kind.
    #[must_use]
    pub fn kind(&self) -> RecordKind {
        self.kind
    }

    /// Recovery statistics accumulated so far (complete once
    /// [`SegmentReader::next_block`] has returned `None`).
    #[must_use]
    pub fn report(&self) -> &SegmentReport {
        &self.report
    }

    fn read_at(&mut self, pos: u64, buf: &mut [u8]) -> bool {
        if pos + buf.len() as u64 > self.len {
            return false;
        }
        self.inner.seek(SeekFrom::Start(pos)).is_ok() && self.inner.read_exact(buf).is_ok()
    }

    /// Scans forward from `from` for the next block magic; `None` when the
    /// rest of the file contains no candidate.
    fn scan_magic(&mut self, from: u64) -> Option<u64> {
        const CHUNK: usize = 64 << 10;
        let mut at = from;
        let mut buf = vec![0u8; CHUNK];
        while at + BLOCK_MAGIC.len() as u64 <= self.len {
            let take = usize::try_from((self.len - at).min(CHUNK as u64)).expect("chunk fits");
            if !self.read_at(at, &mut buf[..take]) {
                return None;
            }
            if let Some(hit) = buf[..take]
                .windows(BLOCK_MAGIC.len())
                .position(|w| w == BLOCK_MAGIC)
            {
                return Some(at + hit as u64);
            }
            if take < BLOCK_MAGIC.len() {
                return None;
            }
            // Overlap so a magic straddling the chunk boundary is found.
            at += (take - (BLOCK_MAGIC.len() - 1)) as u64;
        }
        None
    }

    /// Marks the current candidate damaged and repositions after the next
    /// magic candidate; returns false when the tail holds none.
    fn resync(&mut self, from: u64) -> bool {
        self.report.corrupt_blocks += 1;
        match self.scan_magic(from) {
            Some(next) => {
                self.pos = next;
                true
            }
            None => {
                self.report.truncated = true;
                false
            }
        }
    }

    /// Returns the next verified block payload (a whole number of
    /// records), or `None` at end of recoverable data.
    pub fn next_block(&mut self) -> Option<Vec<u8>> {
        let width = self.kind.width() as u64;
        loop {
            if self.pos + 8 > self.len {
                // A clean file ends exactly here; anything shorter than a
                // block header is an unverifiable (torn) tail.
                self.report.truncated |= self.pos != self.len;
                return None;
            }
            let mut head = [0u8; 8];
            if !self.read_at(self.pos, &mut head) {
                self.report.truncated = true;
                return None;
            }
            if &head[..4] != BLOCK_MAGIC {
                if !self.resync(self.pos + 1) {
                    return None;
                }
                continue;
            }
            let count = u64::from(u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")));
            let payload_len = count * width;
            let plausible = count >= 1
                && count <= MAX_BLOCK_RECORDS as u64
                && payload_len <= MAX_BLOCK_BYTES as u64
                && self.pos + 8 + payload_len + 8 <= self.len;
            if !plausible {
                if !self.resync(self.pos + 1) {
                    return None;
                }
                continue;
            }
            let mut payload = vec![0u8; usize::try_from(payload_len).expect("bounded")];
            let mut sum = [0u8; 8];
            if !self.read_at(self.pos + 8, &mut payload)
                || !self.read_at(self.pos + 8 + payload_len, &mut sum)
            {
                self.report.truncated = true;
                return None;
            }
            if Fingerprint::new().write_bytes(&payload).value() != u64::from_le_bytes(sum) {
                if !self.resync(self.pos + 1) {
                    return None;
                }
                continue;
            }
            self.pos += 8 + payload_len + 8;
            self.report.blocks += 1;
            self.report.records += count;
            return Some(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_cells, CellRow};
    use std::io::Cursor;

    fn rows(n: u32) -> Vec<CellRow> {
        (0..n)
            .map(|i| CellRow {
                scenario: (i % 6) as u8,
                position: (i % 2) as u8,
                fault: (i % 4) as u8,
                iv_row: (i % 8) as u8,
                mitigation: 0,
                sched: 0,
                seed: 1,
                runs: 10 + i,
                a1: i,
                a2: 0,
                prevented: 10,
                hazard: i / 2,
                aeb_n: 0,
                driver_brake_n: 0,
                driver_steer_n: 0,
                ml_n: 0,
                aeb_time_sum: f64::from(i),
                aeb_time_n: 1,
                driver_brake_time_sum: 0.0,
                driver_brake_time_n: 0,
                driver_steer_time_sum: 0.0,
                driver_steer_time_n: 0,
            })
            .collect()
    }

    fn write_segment(rows: &[CellRow]) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!(
            "adas-store-test-{}-{}",
            std::process::id(),
            rows.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.seg");
        let mut w = SegmentWriter::create(&path, RecordKind::Cell).unwrap();
        w.append_bytes(&encode_cells(rows)).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    fn read_all(bytes: Vec<u8>) -> (Vec<CellRow>, SegmentReport) {
        let mut r = SegmentReader::new(Cursor::new(bytes)).unwrap();
        let mut out = Vec::new();
        while let Some(block) = r.next_block() {
            for chunk in block.chunks_exact(CellRow::WIDTH) {
                out.push(CellRow::decode(&mut adas_codec::Reader::new(chunk)).expect("decodes"));
            }
        }
        (out, r.report().clone())
    }

    #[test]
    fn round_trip_multi_block() {
        let input = rows(REC_PER_BLOCK as u32 * 2 + 37);
        let (back, report) = read_all(write_segment(&input));
        assert_eq!(back, input);
        assert_eq!(report.blocks, 3);
        assert_eq!(report.corrupt_blocks, 0);
        assert!(!report.truncated);
    }

    #[test]
    fn truncated_tail_keeps_every_whole_block() {
        let input = rows(REC_PER_BLOCK as u32 + 100);
        let bytes = write_segment(&input);
        // Cut into the second (short) block's payload.
        let cut = bytes.len() - 40;
        let (back, report) = read_all(bytes[..cut].to_vec());
        assert_eq!(back, input[..REC_PER_BLOCK]);
        assert!(report.truncated);
    }

    #[test]
    fn corrupted_block_is_skipped_not_fatal() {
        let input = rows(REC_PER_BLOCK as u32 * 3);
        let mut bytes = write_segment(&input);
        // Flip a byte inside the second block's payload.
        let second_block_payload = HEADER_LEN + (8 + REC_PER_BLOCK * CellRow::WIDTH + 8) + 8 + 64;
        bytes[second_block_payload] ^= 0xFF;
        let (back, report) = read_all(bytes);
        assert_eq!(back.len(), REC_PER_BLOCK * 2);
        assert_eq!(back[..REC_PER_BLOCK], input[..REC_PER_BLOCK]);
        assert_eq!(back[REC_PER_BLOCK..], input[REC_PER_BLOCK * 2..]);
        assert!(report.corrupt_blocks >= 1);
    }

    #[test]
    fn hostile_count_field_cannot_force_allocation() {
        let input = rows(8);
        let mut bytes = write_segment(&input);
        // Claim u32::MAX records in the block header.
        bytes[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let (back, report) = read_all(bytes);
        assert!(back.is_empty());
        assert!(report.truncated || report.corrupt_blocks > 0);
    }

    #[test]
    fn header_tamper_is_rejected() {
        let mut bytes = write_segment(&rows(4));
        bytes[9] ^= 0x01; // version field → checksum mismatch
        assert!(SegmentReader::new(Cursor::new(bytes)).is_err());
        assert!(SegmentReader::new(Cursor::new(vec![0u8; 10])).is_err());
    }

    #[test]
    fn empty_segment_reads_cleanly() {
        let path =
            std::env::temp_dir().join(format!("adas-store-empty-{}.seg", std::process::id()));
        SegmentWriter::create(&path, RecordKind::Cell)
            .unwrap()
            .finish()
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let (back, report) = read_all(bytes);
        assert!(back.is_empty());
        assert!(!report.truncated);
        assert_eq!(report.corrupt_blocks, 0);
    }
}
