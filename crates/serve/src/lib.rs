//! `adas-serve` — a long-lived campaign evaluation service.
//!
//! The CLI harnesses (`table_vi` & co.) pay the full cold-start bill on
//! every invocation: process launch, lazy model training, artifact-cache
//! misses. This crate keeps all of that resident in one daemon and exposes
//! it over a small versioned TCP wire protocol (`std::net` only — the
//! workspace is offline), so repeated campaign evaluations drop to
//! cache-lookup latency.
//!
//! Architecture (one module per box):
//!
//! ```text
//!  client ──frames──▶ accept loop ──▶ connection handler ─┐
//!                                                         │ bounded queue
//!                                                         ▼ (backpressure)
//!                              executor thread ── map_ctl fan-out per cell
//!                                   │                 (adas-parallel)
//!                                   └─ resident model + artifact cache
//! ```
//!
//! * [`protocol`] — framing, request/response codecs, error taxonomy;
//! * [`queue`] — bounded job queue (explicit rejection when full) and the
//!   job registry behind `Status`/`Cancel`;
//! * [`server`] — accept loop, per-connection handlers, the executor, and
//!   graceful drain on `Shutdown`/SIGTERM; the accept and frame loops
//!   serve any [`server::Service`], the fabric coordinator's included;
//! * [`client`] — blocking client used by the `adas-serve client`
//!   subcommands, the fabric coordinator, and the integration tests;
//! * [`backoff`] — capped, deterministically-jittered retry schedule for
//!   queue-full rejections;
//! * [`metrics`] — counters + latency histograms, snapshotted as JSON;
//! * [`signal`] — SIGTERM/SIGINT to an atomic flag, no external crates;
//! * [`sink`] — optional `ADAS_STORE_DIR` write-through of finished cells
//!   and deduped fuzz findings to the columnar results store.
//!
//! Determinism contract: a campaign submitted over the wire produces
//! bit-identical per-cell statistics to running the same grid in-process
//! with `adas_core::run_single`, at any `ADAS_THREADS` setting — the
//! integration tests assert byte equality of `CellStats::to_bytes`.

#![warn(missing_docs)]
#![deny(unsafe_code)] // `signal` opts back in, narrowly, for signal(2).

pub mod backoff;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod sink;

pub use client::{CampaignResult, Client, JobStatus, Submission, WorkerHello};
pub use protocol::{JobState, ProtocolError, ReplayOutcome, Request, Response};
pub use server::{Server, ServerConfig, DEFAULT_ADDR, DEFAULT_QUEUE};
