//! `adas-fabric`: multi-worker campaign sharding over the `adas-serve`
//! wire protocol.
//!
//! The serve daemon evaluates one campaign grid on one machine; fabric
//! scales that out. A **coordinator** registers with a fleet of ordinary
//! `adas-serve` daemons (each one is a **worker** — same binary, same
//! queue/executor/cache tiers), shards each campaign's cells across them
//! by content-addressed routing key, and merges the streamed results
//! back into strict grid order. Three design rules carry the system:
//!
//! - **Cache affinity.** Cells route by [`CampaignSpec::route_key`] — the
//!   model-independent prefix of the cell's cache fingerprint — over a
//!   consistent-hash ring ([`ring`]), so a re-run campaign lands every
//!   warm cell on the worker whose memo/disk tiers already hold it.
//! - **Fault tolerance.** A monitor thread ([`fleet`]) heartbeats every
//!   worker; cells owned by a dead or stalled worker are re-dispatched
//!   across the survivors in the next round ([`coordinator`]). A killed
//!   worker changes *where* cells run, never *what* they produce.
//! - **Determinism.** The merge buffer emits results by global grid
//!   index, never arrival order, and drops duplicates from re-dispatch
//!   races — a sharded campaign is bit-identical to a single-daemon run
//!   (asserted end-to-end in `tests/fabric_e2e.rs` and CI).
//!
//! [`bench`](mod@bench) adds the `adas-serve bench` load generator: K concurrent
//! clients against N in-process workers, publishing the saturation curve
//! to `results/SERVE_bench.json`.
//!
//! [`CampaignSpec::route_key`]: adas_core::CampaignSpec::route_key

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod coordinator;
pub mod fleet;
pub mod front;
pub mod ring;

pub use coordinator::{Coordinator, FabricConfig, FabricMetrics};
pub use fleet::{Fleet, WorkerSlot};
pub use front::CoordinatorServer;
pub use ring::HashRing;

/// Fabric-level failures (distinct from per-frame
/// [`adas_serve::ProtocolError`]s, which workers absorb per-connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The worker list is empty (no `ADAS_FABRIC_WORKERS` / `--workers`).
    NoWorkers,
    /// Every configured worker is unreachable or dead.
    NoLiveWorkers,
    /// The campaign spec failed validation before dispatch.
    InvalidSpec,
    /// Live workers stopped making progress (persistently full queues or
    /// wedged streams) for too many consecutive rounds.
    Stalled {
        /// Cells still missing when the campaign was abandoned.
        missing: usize,
        /// Dispatch rounds executed before giving up.
        rounds: u32,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoWorkers => write!(f, "no workers configured"),
            Self::NoLiveWorkers => write!(f, "no live workers in the fleet"),
            Self::InvalidSpec => write!(f, "campaign spec failed validation"),
            Self::Stalled { missing, rounds } => write!(
                f,
                "campaign stalled with {missing} cells missing after {rounds} rounds"
            ),
        }
    }
}

impl std::error::Error for FabricError {}
