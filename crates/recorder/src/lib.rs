//! Flight recorder for the ADAS reproduction: deterministic trace capture,
//! replay verification, and divergence diagnosis.
//!
//! PR 1 made campaigns bit-identical across thread counts, which turns a
//! recorded run into an executable specification: re-running the same
//! [`RunId`](adas_scenarios::ScenarioId)/fault/seed triple must reproduce
//! every step bit-for-bit. This crate provides the data layer of that
//! capability:
//!
//! * [`trace`] — the compact binary trace format (`ADASTRC\x03`): header
//!   with run identity, config/model fingerprints, and seed; fixed-width
//!   step records; discrete intervention/fault events; outcome footer; and
//!   a trailing FNV-1a checksum over the whole file.
//! * [`writer`] — the online [`TraceWriter`] that accumulates step samples,
//!   derives events from flag edges, and supports a bounded ring mode.
//! * [`diff`] — bit-exact step comparison localising the first divergent
//!   step and field between a recorded and a replayed run.
//! * [`explain`] — human-readable timeline rendering for `adas-replay
//!   explain`.
//! * [`policy`] — the campaign persistence policy (`ADAS_TRACE`,
//!   `ADAS_TRACE_DIR`, `ADAS_TRACE_RING`): keep full traces only for
//!   hazardous or near-miss runs, content-addressed like the PR 1 cache.
//!
//! The replay executor itself lives in `adas_core::replay` (it needs the
//! platform); this crate stays a pure data/format layer so every crate can
//! depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod explain;
pub mod format;
pub mod policy;
pub mod trace;
pub mod writer;

pub use diff::{diff_traces, DiffReport, Divergence, Verdict};
pub use explain::explain;
pub use format::TraceError;
pub use policy::{TraceMode, TracePolicy};
pub use trace::{
    EndReason, EventKind, InterventionSummary, Trace, TraceEvent, TraceHeader, TraceOutcome,
};
pub use writer::{RecordMode, TraceWriter};
