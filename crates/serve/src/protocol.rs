//! The `adas-serve` wire protocol: a small, versioned, length-prefixed
//! binary framing over TCP.
//!
//! # Framing
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       1     magic 'A' (0x41)
//! 1       1     magic 'S' (0x53)
//! 2       1     protocol version (currently 3)
//! 3       1     message kind (see [`Request`] / [`Response`])
//! 4       4     payload length, u32 little-endian (≤ MAX_PAYLOAD)
//! 8       n     payload (kind-specific layout, little-endian)
//! ```
//!
//! Payload codecs build on the bounds-checked [`Reader`] / [`Writer`]
//! from `adas_codec`: decoding untrusted bytes can fail, it can never
//! panic, and a declared length is validated against
//! [`MAX_PAYLOAD`] *before* any allocation, so a hostile 4 GiB length
//! prefix costs the server nothing.
//!
//! One connection carries a sequence of request → response exchanges. The
//! streaming exchanges (`SubmitCampaign`, `AssignCells`) produce multiple
//! response frames ([`Response::Accepted`], then one
//! [`Response::CellResult`] per cell as it completes, then
//! [`Response::JobDone`]); everything else is strictly one frame each way.
//!
//! # Version 2: fabric frames
//!
//! Version 2 adds the coordinator ↔ worker vocabulary used by
//! `adas-fabric`: [`Request::RegisterWorker`] / [`Response::WorkerHello`]
//! (capability handshake), [`Request::Heartbeat`] /
//! [`Response::HeartbeatAck`] (liveness + load), [`Request::AssignCells`]
//! (a sharded slice of a campaign grid, answered with the same streaming
//! `Accepted` / `CellResult` / `JobDone` frames but carrying the
//! coordinator's *global* grid indices), and [`Request::WorkerDrain`]
//! (graceful fleet removal, answered with [`Response::ShutdownAck`]).
//!
//! # Version 3: cell counts
//!
//! [`Response::CellResult`] embeds the version-3 [`CellStats`] bytes
//! (exact counts and time sums instead of percentages and means), and
//! the single-run request / response kinds `0x02` / `0x85` are retired.

use adas_codec::{DecodeError, Reader, Writer};
use adas_core::{CampaignSpec, CellStats};
use std::io::{Read, Write};

/// Protocol magic: every frame starts `b"AS"`.
pub const MAGIC: [u8; 2] = *b"AS";

/// Current protocol version byte (2 added the fabric frames; 3 carries
/// cell counts in [`Response::CellResult`] and drops the single-run
/// frames).
pub const VERSION: u8 = 3;

/// Upper bound on a frame payload (64 MiB — comfortably above the largest
/// legitimate message, a full-run flight-recorder trace).
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Why a frame could not be read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// No frame started within the transport's read timeout (the
    /// connection is still healthy — callers poll shutdown and retry).
    TimedOut,
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// Version byte mismatch (peer speaks a different protocol revision).
    BadVersion(u8),
    /// Unknown message kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Structurally invalid payload (truncated, bad tag, trailing bytes…).
    Malformed(&'static str),
    /// Transport-level I/O failure (includes mid-frame truncation).
    Io(String),
}

/// Maps a codec failure onto [`ProtocolError::Malformed`] naming `field`.
fn malformed(field: &'static str) -> impl Fn(DecodeError) -> ProtocolError {
    move |_| ProtocolError::Malformed(field)
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Closed => write!(f, "connection closed"),
            ProtocolError::TimedOut => write!(f, "no frame within the read timeout"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown message kind 0x{k:02x}"),
            ProtocolError::Oversized(n) => {
                write!(f, "declared payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.to_string())
    }
}

/// Job lifecycle state, as reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the queue.
    Queued,
    /// Cells are executing.
    Running,
    /// All cells streamed successfully.
    Done,
    /// Cancelled before completion (client request or server shutdown).
    Cancelled,
    /// Aborted by an internal error.
    Failed,
}

impl JobState {
    fn to_u8(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Cancelled => 3,
            JobState::Failed => 4,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Cancelled,
            4 => JobState::Failed,
            _ => return None,
        })
    }

    /// Whether the job can make no further progress.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        };
        write!(f, "{s}")
    }
}

/// Outcome of a [`Request::Replay`] verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Re-execution reproduced the recorded trace bit-for-bit.
    Identical,
    /// Re-execution diverged from the recording.
    Diverged,
    /// No trace with that content hash in the server's trace directory.
    NotFound,
    /// The trace could not be replayed (config drift, missing model…).
    Error,
}

impl ReplayOutcome {
    fn to_u8(self) -> u8 {
        match self {
            ReplayOutcome::Identical => 0,
            ReplayOutcome::Diverged => 1,
            ReplayOutcome::NotFound => 2,
            ReplayOutcome::Error => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => ReplayOutcome::Identical,
            1 => ReplayOutcome::Diverged,
            2 => ReplayOutcome::NotFound,
            3 => ReplayOutcome::Error,
            _ => return None,
        })
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a campaign grid; the server streams per-cell results back.
    SubmitCampaign(CampaignSpec),
    /// Verify a stored trace by content hash: the server re-executes it
    /// and reports bit-exactness.
    Replay {
        /// 16-digit lowercase hex content hash (the `trace-<hex>.bin`
        /// naming under the trace directory).
        trace_hex: String,
    },
    /// Query one job's progress.
    Status {
        /// Job to query.
        job_id: u64,
    },
    /// Request job cancellation (idempotent; best-effort).
    Cancel {
        /// Job to cancel.
        job_id: u64,
    },
    /// Fetch the live metrics snapshot (JSON).
    Metrics,
    /// Graceful shutdown: stop accepting work, drain accepted jobs, exit.
    Shutdown,
    /// Coordinator → worker: capability handshake opening a fleet
    /// membership. Answered with [`Response::WorkerHello`].
    RegisterWorker {
        /// Coordinator's fleet epoch (bumped per coordinator start), so a
        /// worker can tell reconnects from a restarted coordinator.
        fleet_epoch: u64,
    },
    /// Coordinator → worker: liveness probe. Answered with
    /// [`Response::HeartbeatAck`] echoing the nonce.
    Heartbeat {
        /// Echo token correlating the ack with this probe.
        nonce: u64,
    },
    /// Coordinator → worker: execute a sharded slice of a campaign grid.
    ///
    /// `spec.cells` holds only the assigned cells; `indices[i]` is the
    /// coordinator-side *global* grid index of `spec.cells[i]`. The worker
    /// streams `Accepted` / `CellResult` / `JobDone` with
    /// `job_id = assignment_id` and `cell_index` = the global index, so
    /// the coordinator can merge slices deterministically.
    AssignCells {
        /// Coordinator-assigned id echoed on every streamed frame.
        assignment_id: u64,
        /// Global grid index of each cell in `spec.cells` (same length).
        indices: Vec<u32>,
        /// The campaign parameters plus the assigned cell subset.
        spec: CampaignSpec,
    },
    /// Coordinator → worker: leave the fleet gracefully — stop accepting
    /// work, drain, exit. Answered with [`Response::ShutdownAck`].
    WorkerDrain,
    /// Submit a fuzz-farm job: one time-boxed coverage-guided session per
    /// seed in the spec. The server streams [`Response::Accepted`] (with
    /// `cells` = session count), one [`Response::FuzzResult`] per
    /// completed session in spec order, then [`Response::JobDone`].
    SubmitFuzz(adas_fuzz::FuzzJobSpec),
    /// Coordinator → worker: run a subset of a farm job's sessions.
    ///
    /// `spec.seeds` holds only the assigned seeds; the worker streams the
    /// same `Accepted` / `FuzzResult` / `JobDone` frames with
    /// `job_id = assignment_id`. Outcomes carry their seed, so the
    /// coordinator folds slices deterministically in *global* seed order.
    AssignFuzz {
        /// Coordinator-assigned id echoed on every streamed frame.
        assignment_id: u64,
        /// The job budget plus the assigned seed subset.
        spec: adas_fuzz::FuzzJobSpec,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Campaign accepted; per-cell results will stream on this connection.
    Accepted {
        /// Assigned job id (usable from other connections).
        job_id: u64,
        /// Number of cells that will stream.
        cells: u32,
    },
    /// Backpressure: the job queue is full, retry after the given delay.
    Rejected {
        /// Suggested client-side retry delay.
        retry_after_ms: u32,
        /// Human-readable reason.
        reason: String,
    },
    /// One completed cell's aggregate statistics (streamed in submission
    /// order as cells finish).
    CellResult {
        /// Job the cell belongs to.
        job_id: u64,
        /// Index into the submitted grid.
        cell_index: u32,
        /// The cell's aggregate statistics.
        stats: CellStats,
    },
    /// Terminal frame of a campaign stream.
    JobDone {
        /// The finished job.
        job_id: u64,
        /// Terminal state ([`JobState::Done`] / `Cancelled` / `Failed`).
        state: JobState,
    },
    /// Result of a [`Request::Replay`].
    ReplayVerdict {
        /// Verification outcome.
        outcome: ReplayOutcome,
        /// Divergence locus / error detail / trace identity.
        detail: String,
    },
    /// Progress report for a job.
    StatusReport {
        /// Lifecycle state.
        state: JobState,
        /// Cells fully streamed.
        cells_done: u32,
        /// Cells in the grid.
        cells_total: u32,
        /// Simulation runs completed (across all cells).
        runs_done: u64,
    },
    /// Metrics snapshot (JSON text, schema documented in the README).
    MetricsJson(String),
    /// Request-level failure (the connection stays usable).
    Error(String),
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownAck,
    /// Worker → coordinator: capability handshake reply to
    /// [`Request::RegisterWorker`].
    WorkerHello {
        /// The worker's job-queue capacity (admission sizing hint).
        queue_capacity: u32,
        /// Executor thread count the worker will run cells with.
        threads: u32,
        /// Batched-execution lane width (`ADAS_BATCH`).
        batch_width: u32,
        /// Cells currently resident in the worker's in-memory memo.
        memo_cells: u64,
    },
    /// Worker → coordinator: liveness + instantaneous load, replying to
    /// [`Request::Heartbeat`].
    HeartbeatAck {
        /// The probe's nonce, echoed.
        nonce: u64,
        /// Jobs waiting in the worker's queue.
        queued: u32,
        /// Jobs currently executing.
        running: u32,
    },
    /// One completed fuzz session (streamed in spec-seed order as
    /// sessions finish, for [`Request::SubmitFuzz`] /
    /// [`Request::AssignFuzz`]).
    FuzzResult {
        /// Job the session belongs to.
        job_id: u64,
        /// The session's full outcome, shrunk findings included.
        outcome: adas_fuzz::SessionOutcome,
    },
}

const K_SUBMIT_CAMPAIGN: u8 = 0x01;
const K_REPLAY: u8 = 0x03;
const K_STATUS: u8 = 0x04;
const K_CANCEL: u8 = 0x05;
const K_METRICS: u8 = 0x06;
const K_SHUTDOWN: u8 = 0x07;
const K_REGISTER_WORKER: u8 = 0x08;
const K_HEARTBEAT: u8 = 0x09;
const K_ASSIGN_CELLS: u8 = 0x0A;
const K_WORKER_DRAIN: u8 = 0x0B;
const K_SUBMIT_FUZZ: u8 = 0x0C;
const K_ASSIGN_FUZZ: u8 = 0x0D;

const K_ACCEPTED: u8 = 0x81;
const K_REJECTED: u8 = 0x82;
const K_CELL_RESULT: u8 = 0x83;
const K_JOB_DONE: u8 = 0x84;
const K_REPLAY_VERDICT: u8 = 0x86;
const K_STATUS_REPORT: u8 = 0x87;
const K_METRICS_JSON: u8 = 0x88;
const K_ERROR: u8 = 0x89;
const K_SHUTDOWN_ACK: u8 = 0x8A;
const K_WORKER_HELLO: u8 = 0x8B;
const K_HEARTBEAT_ACK: u8 = 0x8C;
const K_FUZZ_RESULT: u8 = 0x8D;

fn utf8(bytes: &[u8]) -> Result<String, ProtocolError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Malformed("non-UTF-8 string"))
}

impl Request {
    /// The frame kind byte.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Request::SubmitCampaign(_) => K_SUBMIT_CAMPAIGN,
            Request::Replay { .. } => K_REPLAY,
            Request::Status { .. } => K_STATUS,
            Request::Cancel { .. } => K_CANCEL,
            Request::Metrics => K_METRICS,
            Request::Shutdown => K_SHUTDOWN,
            Request::RegisterWorker { .. } => K_REGISTER_WORKER,
            Request::Heartbeat { .. } => K_HEARTBEAT,
            Request::AssignCells { .. } => K_ASSIGN_CELLS,
            Request::WorkerDrain => K_WORKER_DRAIN,
            Request::SubmitFuzz(_) => K_SUBMIT_FUZZ,
            Request::AssignFuzz { .. } => K_ASSIGN_FUZZ,
        }
    }

    /// Serialises the payload (without the frame header).
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::SubmitCampaign(spec) => w.bytes(&spec.to_bytes()),
            Request::Replay { trace_hex } => w.blob(trace_hex.as_bytes()),
            Request::Status { job_id } | Request::Cancel { job_id } => w.u64(*job_id),
            Request::Metrics | Request::Shutdown | Request::WorkerDrain => {}
            Request::RegisterWorker { fleet_epoch } => w.u64(*fleet_epoch),
            Request::Heartbeat { nonce } => w.u64(*nonce),
            Request::AssignCells {
                assignment_id,
                indices,
                spec,
            } => {
                w.u64(*assignment_id);
                w.u32(indices.len() as u32);
                for i in indices {
                    w.u32(*i);
                }
                w.blob(&spec.to_bytes());
            }
            Request::SubmitFuzz(spec) => w.bytes(&spec.to_bytes()),
            Request::AssignFuzz {
                assignment_id,
                spec,
            } => {
                w.u64(*assignment_id);
                w.blob(&spec.to_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decodes a request payload for `kind`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKind`] for non-request kind bytes,
    /// [`ProtocolError::Malformed`] for structurally invalid payloads.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let request = match kind {
            K_SUBMIT_CAMPAIGN => Request::SubmitCampaign(
                CampaignSpec::from_bytes(payload)
                    .ok_or(ProtocolError::Malformed("campaign spec"))?,
            ),
            K_REPLAY => {
                let hex = r.blob().map_err(malformed("trace hash"))?;
                let out = Request::Replay {
                    trace_hex: utf8(hex)?,
                };
                if !r.exhausted() {
                    return Err(ProtocolError::Malformed("trailing bytes"));
                }
                return Ok(out);
            }
            K_STATUS => Request::Status {
                job_id: r.u64().map_err(malformed("job id"))?,
            },
            K_CANCEL => Request::Cancel {
                job_id: r.u64().map_err(malformed("job id"))?,
            },
            K_METRICS => Request::Metrics,
            K_SHUTDOWN => Request::Shutdown,
            K_REGISTER_WORKER => Request::RegisterWorker {
                fleet_epoch: r.u64().map_err(malformed("fleet epoch"))?,
            },
            K_HEARTBEAT => Request::Heartbeat {
                nonce: r.u64().map_err(malformed("nonce"))?,
            },
            K_ASSIGN_CELLS => {
                let assignment_id = r.u64().map_err(malformed("assignment id"))?;
                let count = r.u32().map_err(malformed("index count"))? as usize;
                if count == 0 || count > adas_core::job::MAX_CELLS {
                    return Err(ProtocolError::Malformed("index count out of range"));
                }
                let mut indices = Vec::with_capacity(count);
                for _ in 0..count {
                    indices.push(r.u32().map_err(malformed("cell index"))?);
                }
                let spec_bytes = r.blob().map_err(malformed("assign spec"))?;
                let spec = CampaignSpec::from_bytes(spec_bytes)
                    .ok_or(ProtocolError::Malformed("assign spec codec"))?;
                if spec.cells.len() != count {
                    return Err(ProtocolError::Malformed("index/cell count mismatch"));
                }
                Request::AssignCells {
                    assignment_id,
                    indices,
                    spec,
                }
            }
            K_WORKER_DRAIN => Request::WorkerDrain,
            K_SUBMIT_FUZZ => Request::SubmitFuzz(
                adas_fuzz::FuzzJobSpec::from_bytes(payload)
                    .ok_or(ProtocolError::Malformed("fuzz spec"))?,
            ),
            K_ASSIGN_FUZZ => {
                let assignment_id = r.u64().map_err(malformed("assignment id"))?;
                let spec_bytes = r.blob().map_err(malformed("fuzz spec"))?;
                Request::AssignFuzz {
                    assignment_id,
                    spec: adas_fuzz::FuzzJobSpec::from_bytes(spec_bytes)
                        .ok_or(ProtocolError::Malformed("fuzz spec codec"))?,
                }
            }
            other => return Err(ProtocolError::UnknownKind(other)),
        };
        // SubmitCampaign / SubmitFuzz consumed the payload wholesale (their
        // codecs enforce exact length); the fixed-layout kinds must leave
        // nothing behind.
        match &request {
            Request::SubmitCampaign(_) | Request::SubmitFuzz(_) => {}
            _ if !r.exhausted() => return Err(ProtocolError::Malformed("trailing bytes")),
            _ => {}
        }
        Ok(request)
    }
}

impl Response {
    /// The frame kind byte.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Response::Accepted { .. } => K_ACCEPTED,
            Response::Rejected { .. } => K_REJECTED,
            Response::CellResult { .. } => K_CELL_RESULT,
            Response::JobDone { .. } => K_JOB_DONE,
            Response::ReplayVerdict { .. } => K_REPLAY_VERDICT,
            Response::StatusReport { .. } => K_STATUS_REPORT,
            Response::MetricsJson(_) => K_METRICS_JSON,
            Response::Error(_) => K_ERROR,
            Response::ShutdownAck => K_SHUTDOWN_ACK,
            Response::WorkerHello { .. } => K_WORKER_HELLO,
            Response::HeartbeatAck { .. } => K_HEARTBEAT_ACK,
            Response::FuzzResult { .. } => K_FUZZ_RESULT,
        }
    }

    /// Serialises the payload (without the frame header).
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Accepted { job_id, cells } => {
                w.u64(*job_id);
                w.u32(*cells);
            }
            Response::Rejected {
                retry_after_ms,
                reason,
            } => {
                w.u32(*retry_after_ms);
                w.blob(reason.as_bytes());
            }
            Response::CellResult {
                job_id,
                cell_index,
                stats,
            } => {
                w.u64(*job_id);
                w.u32(*cell_index);
                w.blob(&stats.to_bytes());
            }
            Response::JobDone { job_id, state } => {
                w.u64(*job_id);
                w.u8(state.to_u8());
            }
            Response::ReplayVerdict { outcome, detail } => {
                w.u8(outcome.to_u8());
                w.blob(detail.as_bytes());
            }
            Response::StatusReport {
                state,
                cells_done,
                cells_total,
                runs_done,
            } => {
                w.u8(state.to_u8());
                w.u32(*cells_done);
                w.u32(*cells_total);
                w.u64(*runs_done);
            }
            Response::MetricsJson(json) => w.blob(json.as_bytes()),
            Response::Error(message) => w.blob(message.as_bytes()),
            Response::ShutdownAck => {}
            Response::WorkerHello {
                queue_capacity,
                threads,
                batch_width,
                memo_cells,
            } => {
                w.u32(*queue_capacity);
                w.u32(*threads);
                w.u32(*batch_width);
                w.u64(*memo_cells);
            }
            Response::HeartbeatAck {
                nonce,
                queued,
                running,
            } => {
                w.u64(*nonce);
                w.u32(*queued);
                w.u32(*running);
            }
            Response::FuzzResult { job_id, outcome } => {
                w.u64(*job_id);
                w.blob(&outcome.to_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decodes a response payload for `kind`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKind`] for non-response kind bytes,
    /// [`ProtocolError::Malformed`] for structurally invalid payloads.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let response = match kind {
            K_ACCEPTED => Response::Accepted {
                job_id: r.u64().map_err(malformed("job id"))?,
                cells: r.u32().map_err(malformed("cell count"))?,
            },
            K_REJECTED => Response::Rejected {
                retry_after_ms: r.u32().map_err(malformed("retry delay"))?,
                reason: utf8(r.blob().map_err(malformed("reason"))?)?,
            },
            K_CELL_RESULT => {
                let job_id = r.u64().map_err(malformed("job id"))?;
                let cell_index = r.u32().map_err(malformed("cell index"))?;
                let stats_bytes = r.blob().map_err(malformed("cell stats"))?;
                Response::CellResult {
                    job_id,
                    cell_index,
                    stats: CellStats::from_bytes(stats_bytes)
                        .ok_or(ProtocolError::Malformed("cell stats codec"))?,
                }
            }
            K_JOB_DONE => Response::JobDone {
                job_id: r.u64().map_err(malformed("job id"))?,
                state: r.code(JobState::from_u8).map_err(malformed("job state"))?,
            },
            K_REPLAY_VERDICT => Response::ReplayVerdict {
                outcome: r
                    .code(ReplayOutcome::from_u8)
                    .map_err(malformed("replay outcome"))?,
                detail: utf8(r.blob().map_err(malformed("detail"))?)?,
            },
            K_STATUS_REPORT => Response::StatusReport {
                state: r.code(JobState::from_u8).map_err(malformed("job state"))?,
                cells_done: r.u32().map_err(malformed("cells done"))?,
                cells_total: r.u32().map_err(malformed("cells total"))?,
                runs_done: r.u64().map_err(malformed("runs done"))?,
            },
            K_METRICS_JSON => Response::MetricsJson(utf8(r.blob().map_err(malformed("json"))?)?),
            K_ERROR => Response::Error(utf8(r.blob().map_err(malformed("message"))?)?),
            K_SHUTDOWN_ACK => Response::ShutdownAck,
            K_WORKER_HELLO => Response::WorkerHello {
                queue_capacity: r.u32().map_err(malformed("queue capacity"))?,
                threads: r.u32().map_err(malformed("threads"))?,
                batch_width: r.u32().map_err(malformed("batch width"))?,
                memo_cells: r.u64().map_err(malformed("memo cells"))?,
            },
            K_HEARTBEAT_ACK => Response::HeartbeatAck {
                nonce: r.u64().map_err(malformed("nonce"))?,
                queued: r.u32().map_err(malformed("queued"))?,
                running: r.u32().map_err(malformed("running"))?,
            },
            K_FUZZ_RESULT => {
                let job_id = r.u64().map_err(malformed("job id"))?;
                let outcome_bytes = r.blob().map_err(malformed("fuzz outcome"))?;
                Response::FuzzResult {
                    job_id,
                    outcome: adas_fuzz::SessionOutcome::from_bytes(outcome_bytes)
                        .ok_or(ProtocolError::Malformed("fuzz outcome codec"))?,
                }
            }
            other => return Err(ProtocolError::UnknownKind(other)),
        };
        if !r.exhausted() {
            return Err(ProtocolError::Malformed("trailing bytes"));
        }
        Ok(response)
    }
}

/// Writes one frame (header + payload) to the transport.
///
/// # Errors
///
/// Propagates transport I/O errors.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let mut header = [0u8; 8];
    header[0] = MAGIC[0];
    header[1] = MAGIC[1];
    header[2] = VERSION;
    header[3] = kind;
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Retries `read` across timeout errors for at most `attempts` rounds —
/// used *inside* a frame, where a stalled peer must eventually be dropped
/// (anti-wedging) but an OS read timeout on a large in-flight payload must
/// not kill the connection.
fn read_exact_bounded(
    r: &mut impl Read,
    mut buf: &mut [u8],
    mut attempts: u32,
) -> Result<(), ProtocolError> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => return Err(ProtocolError::Io("truncated frame".into())),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                attempts = attempts
                    .checked_sub(1)
                    .ok_or_else(|| ProtocolError::Io("peer stalled mid-frame".into()))?;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read-timeout rounds tolerated mid-frame before the peer is declared
/// stalled (with the server's 250 ms read timeout: ~10 s).
const MID_FRAME_ATTEMPTS: u32 = 40;

/// Reads one frame, returning `(kind, payload)`.
///
/// Validation order: magic, version, kind byte deferred to the caller's
/// decode, declared length against [`MAX_PAYLOAD`] *before* allocating.
///
/// # Errors
///
/// [`ProtocolError::Closed`] on a clean close before the first header
/// byte; [`ProtocolError::TimedOut`] when the transport's read timeout
/// expires before a frame starts; [`ProtocolError::Io`] on mid-frame
/// truncation or stall; the structural variants for header violations.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ProtocolError> {
    // First byte separately: EOF here is a clean close (and a read timeout
    // here just means "idle"), EOF later is a truncated frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(ProtocolError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ProtocolError::TimedOut)
            }
            Err(e) => return Err(e.into()),
        }
    }
    let mut rest = [0u8; 7];
    read_exact_bounded(r, &mut rest, MID_FRAME_ATTEMPTS)?;
    let magic = [first[0], rest[0]];
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if rest[1] != VERSION {
        return Err(ProtocolError::BadVersion(rest[1]));
    }
    let kind = rest[2];
    let len = u32::from_le_bytes(rest[3..7].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_bounded(r, &mut payload, MID_FRAME_ATTEMPTS)?;
    Ok((kind, payload))
}

/// Sends a request as one frame.
///
/// # Errors
///
/// Propagates transport I/O errors.
pub fn send_request(w: &mut impl Write, request: &Request) -> std::io::Result<()> {
    write_frame(w, request.kind(), &request.payload())
}

/// Sends a response as one frame.
///
/// # Errors
///
/// Propagates transport I/O errors.
pub fn send_response(w: &mut impl Write, response: &Response) -> std::io::Result<()> {
    write_frame(w, response.kind(), &response.payload())
}

/// Receives and decodes one request frame.
///
/// # Errors
///
/// Any [`ProtocolError`] from framing or payload decoding.
pub fn recv_request(r: &mut impl Read) -> Result<Request, ProtocolError> {
    let (kind, payload) = read_frame(r)?;
    Request::decode(kind, &payload)
}

/// Receives and decodes one response frame.
///
/// # Errors
///
/// Any [`ProtocolError`] from framing or payload decoding.
pub fn recv_response(r: &mut impl Read) -> Result<Response, ProtocolError> {
    let (kind, payload) = read_frame(r)?;
    Response::decode(kind, &payload)
}
