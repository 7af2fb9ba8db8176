//! `adas-store` — the fleet's append-only columnar results store.
//!
//! Every earlier harness answered "how did intervention row X fare under
//! fault Y?" by rescanning `results/*.csv`. That stops working at fleet
//! scale (ROADMAP item 3: millions of runs streamed off many workers), so
//! this crate gives campaign runner, serve daemon, and fabric coordinator
//! one durable write path and one bounded-memory query path:
//!
//! * [`record`] — the two fixed-width row types: [`record::CellRow`]
//!   (per-cell outcome **counts**, exactly mergeable across shards) and
//!   [`record::FindingRow`] (one deduped fuzz finding, self-contained
//!   shrunk case included);
//! * [`segment`] — the on-disk unit: a versioned header followed by
//!   FNV-checksummed blocks of records. Readers never trust a byte that
//!   fails its checksum: a truncated tail (writer crashed mid-block) or a
//!   corrupted block is skipped by resynchronising on the next block
//!   magic, so every intact record is still yielded and nothing panics;
//! * [`store`] — a directory of segments with `append`/`iter`/`verify`/
//!   `compact`;
//! * [`agg`] — streaming group-by aggregation: rows fold into a
//!   fixed-size accumulator table (the group key space is the small
//!   discrete grid) one block at a time, so a Table VI-style aggregate
//!   over millions of records needs memory proportional to one block
//!   plus the group count, never to the row count;
//! * [`synth`] — a deterministic synthetic-row generator used by the
//!   scale tests and the `adas-store synth` CLI verb.
//!
//! The `adas-store` binary exposes `synth | query | verify | compact |
//! findings` over a store directory (`ADAS_STORE_DIR`, default
//! `results/store`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod record;
pub mod segment;
pub mod store;
pub mod synth;

pub use agg::{Accumulator, GroupBy, GroupKey};
pub use record::{CellRow, FindingRow, RecordKind};
pub use segment::{SegmentReader, SegmentWriter, REC_PER_BLOCK};
pub use store::{SegmentReport, Store, StoreError, VerifyReport};

/// Environment variable naming the store directory; unset disables the
/// write-through path in the harnesses.
pub const STORE_DIR_ENV: &str = "ADAS_STORE_DIR";

/// Store directory from `ADAS_STORE_DIR`, or `None` when the variable is
/// unset/empty (the store is strictly opt-in for the CLI harnesses).
#[must_use]
pub fn dir_from_env() -> Option<std::path::PathBuf> {
    match std::env::var(STORE_DIR_ENV) {
        Ok(v) if !v.trim().is_empty() => Some(std::path::PathBuf::from(v)),
        _ => None,
    }
}
