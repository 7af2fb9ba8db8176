//! Property tests of the columnar store: row-codec round-trips, crash
//! recovery (truncated tails, corrupted blocks — every intact record
//! survives, nothing ever panics), and streaming-aggregation ≡ full-scan
//! equivalence.
//!
//! The store is the fleet's durable memory; these properties are what
//! make `adas-store query` trustworthy after a worker crash or a bad
//! disk: a reader either yields a bit-exact record or skips it, never a
//! silently wrong one.

use adas_codec::{Reader, Writer};
use adas_store::{agg, synth, CellRow, FindingRow, GroupBy, RecordKind, Store};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per proptest case (cases run in sequence
/// but must never see each other's segments).
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "adas-store-props-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The single cells segment a fresh append produced.
fn only_cell_segment(store: &Store) -> PathBuf {
    let segs = store.segments(RecordKind::Cell).expect("list segments");
    assert_eq!(segs.len(), 1, "expected exactly one segment");
    segs[0].clone()
}

proptest! {
    #[test]
    fn cell_row_codec_round_trips_bit_exactly(
        coords in prop::collection::vec(0u64..256, 6),
        seed in 0u64..u64::MAX,
        counts in prop::collection::vec(0u64..4_000_000_000, 9),
        sums in prop::collection::vec(-1.0e9f64..1.0e9, 3),
        time_ns in prop::collection::vec(0u64..4_000_000_000, 3),
    ) {
        let row = CellRow {
            scenario: coords[0] as u8,
            position: coords[1] as u8,
            fault: coords[2] as u8,
            iv_row: coords[3] as u8,
            mitigation: coords[4] as u8,
            sched: coords[5] as u8,
            seed,
            runs: counts[0] as u32,
            a1: counts[1] as u32,
            a2: counts[2] as u32,
            prevented: counts[3] as u32,
            hazard: counts[4] as u32,
            aeb_n: counts[5] as u32,
            driver_brake_n: counts[6] as u32,
            driver_steer_n: counts[7] as u32,
            ml_n: counts[8] as u32,
            aeb_time_sum: sums[0],
            aeb_time_n: time_ns[0] as u32,
            driver_brake_time_sum: sums[1],
            driver_brake_time_n: time_ns[1] as u32,
            driver_steer_time_sum: sums[2],
            driver_steer_time_n: time_ns[2] as u32,
        };
        let mut w = Writer::new();
        row.encode(&mut w);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), CellRow::WIDTH);
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(CellRow::decode(&mut r), Ok(row));
        prop_assert!(r.exhausted());
    }

    #[test]
    fn finding_row_codec_round_trips_bit_exactly(
        coords in prop::collection::vec(0u64..256, 6),
        ids in prop::collection::vec(0u64..u64::MAX, 3),
        repetition in 0u64..4_000_000_000,
        params in prop::collection::vec(-1.0e6f64..1.0e6, 8),
    ) {
        let mut p = [0.0f64; 8];
        p.copy_from_slice(&params);
        let row = FindingRow {
            oracle: coords[0] as u8,
            scenario: coords[1] as u8,
            position: coords[2] as u8,
            fault: coords[3] as u8,
            iv_row: coords[4] as u8,
            sched: coords[5] as u8,
            session_seed: ids[0],
            signature: ids[1],
            fingerprint: ids[2],
            repetition: repetition as u32,
            params: p,
        };
        let mut w = Writer::new();
        row.encode(&mut w);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), FindingRow::WIDTH);
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(FindingRow::decode(&mut r), Ok(row));
        prop_assert!(r.exhausted());
    }

    #[test]
    fn truncated_tail_yields_an_exact_prefix_and_never_panics(
        seed in 0u64..1_000_000,
        count in 1u64..2_600,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch();
        let store = Store::open(&dir).expect("open store");
        let rows = synth::cells(seed, count);
        store.append_cells(&rows).expect("append");
        let seg = only_cell_segment(&store);

        // Chop the file mid-anything: header, block header, payload,
        // checksum — wherever the fraction lands.
        let bytes = std::fs::read(&seg).expect("read segment");
        let keep = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&seg, &bytes[..keep]).expect("truncate");

        // The scan must not panic, and every record it yields must be a
        // bit-exact prefix of what was written: blocks are sequential,
        // so a tail truncation can only lose records from the end.
        let mut survivors = Vec::new();
        match store.scan_cells(|r| survivors.push(*r)) {
            Ok(reports) => {
                prop_assert!(survivors.len() <= rows.len());
                prop_assert_eq!(&survivors[..], &rows[..survivors.len()]);
                if survivors.len() < rows.len() {
                    prop_assert!(
                        reports.iter().any(|r| r.truncated || r.corrupt_blocks > 0),
                        "lost records must be reported, not silent"
                    );
                }
            }
            // A cut inside the segment header is a malformed segment:
            // an error (not a panic, not garbage rows) is the contract.
            Err(_) => prop_assert!(keep < adas_store::segment::HEADER_LEN),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_byte_never_panics_and_survivors_stay_bit_exact(
        seed in 0u64..1_000_000,
        count in 1u64..2_600,
        pos_frac in 0.0f64..1.0,
        bit in 0u64..8,
    ) {
        let dir = scratch();
        let store = Store::open(&dir).expect("open store");
        let rows = synth::cells(seed ^ 0xC0FFEE, count);
        store.append_cells(&rows).expect("append");
        let seg = only_cell_segment(&store);

        let mut bytes = std::fs::read(&seg).expect("read segment");
        let idx = ((bytes.len() as f64) * pos_frac) as usize;
        let idx = idx.min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        std::fs::write(&seg, &bytes).expect("rewrite");

        // Whatever the flip hit — header, block magic, count, payload,
        // checksum — the reader must never yield a record that differs
        // from one it was given. Surviving records stay in write order
        // (corruption drops whole blocks), so they form a subsequence.
        let mut survivors = Vec::new();
        match store.scan_cells(|r| survivors.push(*r)) {
            Ok(_) => {
                let mut it = rows.iter();
                for s in &survivors {
                    prop_assert!(
                        it.any(|r| r == s),
                        "reader yielded a row that was never written (or reordered)"
                    );
                }
            }
            // A flip in the 24-byte header can make the whole segment
            // unreadable; that is an error, not a recovery case.
            Err(_) => prop_assert!(idx < adas_store::segment::HEADER_LEN),
        }
        // verify() walks the same path and must also never panic.
        let _ = store.verify();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_aggregation_matches_a_full_in_memory_scan(
        seed in 0u64..1_000_000,
        count in 1u64..3_000,
        axes in 0u64..64,
        splits in 1u64..4,
    ) {
        let dir = scratch();
        let store = Store::open(&dir).expect("open store");
        let rows = synth::cells(seed ^ 0xA66, count);
        // Spread the rows over several segments: aggregation must be
        // batching-invariant.
        let chunk = rows.len().div_ceil(splits as usize);
        for part in rows.chunks(chunk.max(1)) {
            store.append_cells(part).expect("append");
        }

        let by = GroupBy {
            scenario: axes & 1 != 0,
            position: axes & 2 != 0,
            fault: axes & 4 != 0,
            iv_row: axes & 8 != 0,
            mitigation: axes & 16 != 0,
            sched: axes & 32 != 0,
        };
        let (streamed, reports) = agg::aggregate(&store, &by).expect("aggregate");
        prop_assert!(reports.iter().all(|r| r.clean()));

        // Reference: fold the original rows directly, same order.
        let mut reference: BTreeMap<_, agg::Accumulator> = BTreeMap::new();
        for row in &rows {
            reference.entry(by.key(row)).or_default().fold(row);
        }
        prop_assert_eq!(streamed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Compaction folds every segment into one and loses nothing — run on a
/// fixed-size store so the test stays fast.
#[test]
fn compaction_preserves_the_aggregate() {
    let dir = scratch();
    let store = Store::open(&dir).expect("open store");
    for batch in 0..5u64 {
        store
            .append_cells(&synth::cells(batch, 700))
            .expect("append");
    }
    let by = GroupBy::parse("fault,iv").expect("axes");
    let (before, _) = agg::aggregate(&store, &by).expect("aggregate before");
    let folded = store.compact(RecordKind::Cell).expect("compact");
    assert_eq!(folded, 5 * 700);
    assert_eq!(
        store.segments(RecordKind::Cell).expect("segments").len(),
        1,
        "compaction must leave one segment"
    );
    let (after, reports) = agg::aggregate(&store, &by).expect("aggregate after");
    assert!(reports.iter().all(|r| r.clean()));
    assert_eq!(before, after, "compaction must not change any aggregate");
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a digest of the segment file the writer produces for
/// `synth::cells(2025, 3 × 1024 + 37)`: three full blocks plus a short
/// tail. Taken from the block writer before it wrote straight from its
/// buffer; the on-disk format must not move.
const PINNED_SEGMENT_DIGEST: u64 = 0x3074_0c65_e23d_0a59;

#[test]
fn segment_bytes_are_pinned_for_every_append_split() {
    use adas_store::record::encode_cells;
    use adas_store::SegmentWriter;
    let rows = synth::cells(2025, 3 * 1024 + 37);
    let bytes = encode_cells(&rows);
    let dir = scratch();
    // One append, then the same rows cut at block-straddling points.
    let splits: [&[usize]; 3] = [&[rows.len()], &[1000, 1500, 600], &[1, 1023, 1025, 2]];
    for (i, split) in splits.iter().enumerate() {
        let path = dir.join(format!("split-{i}.seg"));
        let mut w = SegmentWriter::create(&path, RecordKind::Cell).expect("create");
        let mut at = 0;
        for &n in split.iter() {
            w.append_bytes(&bytes[at * CellRow::WIDTH..(at + n) * CellRow::WIDTH])
                .expect("append");
            at += n;
        }
        w.append_bytes(&bytes[at * CellRow::WIDTH..])
            .expect("append tail");
        assert_eq!(w.finish().expect("finish"), rows.len() as u64);
        let file = std::fs::read(&path).expect("read segment");
        let digest = adas_codec::Fingerprint::new().write_bytes(&file).value();
        assert_eq!(
            digest, PINNED_SEGMENT_DIGEST,
            "split {split:?}: segment bytes moved ({digest:#018x})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appenders on separate handles of one directory never claim the same
/// segment name: every row survives, the store verifies clean, and each
/// append reports its own segment.
#[test]
fn concurrent_appenders_on_separate_handles_lose_no_rows() {
    const THREADS: u64 = 4;
    const APPENDS: u64 = 50;
    const ROWS: u64 = 10;
    let dir = scratch();
    // Every handle opens (and seeds its next-index hint) before any
    // appends, so all four start claiming from the same index.
    let opened = std::sync::Barrier::new(THREADS as usize);
    let paths: Vec<PathBuf> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (dir, opened) = (&dir, &opened);
                scope.spawn(move || {
                    let store = Store::open(dir).expect("open store");
                    opened.wait();
                    (0..APPENDS)
                        .map(|a| {
                            store
                                .append_cells(&synth::cells(t * APPENDS + a, ROWS))
                                .expect("append")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("appender thread"))
            .collect()
    });
    let distinct: std::collections::BTreeSet<_> = paths.iter().collect();
    assert_eq!(distinct.len(), paths.len(), "two appends claimed one name");
    let store = Store::open(&dir).expect("reopen store");
    let report = store.verify().expect("verify");
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.records(), THREADS * APPENDS * ROWS);
    let mut seen = Vec::new();
    store.scan_cells(|r| seen.push(*r)).expect("scan");
    let mut expected: Vec<CellRow> = (0..THREADS * APPENDS)
        .flat_map(|s| synth::cells(s, ROWS))
        .collect();
    let key = |r: &CellRow| {
        let mut w = Writer::new();
        r.encode(&mut w);
        w.into_bytes()
    };
    seen.sort_by_key(key);
    expected.sort_by_key(key);
    assert_eq!(seen, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
