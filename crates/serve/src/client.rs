//! Blocking client for the `adas-serve` wire protocol.
//!
//! One [`Client`] owns one TCP connection and drives request → response
//! exchanges; campaign submission streams per-cell results through a
//! caller-supplied callback as they arrive.

use crate::protocol::{
    recv_response, send_request, JobState, ProtocolError, ReplayOutcome, Request, Response,
};
use adas_core::job::CellSpec;
use adas_core::{CampaignSpec, CellStats, RunId};
use adas_fuzz::farm::{FuzzJobSpec, SessionOutcome};
use adas_scenarios::RunRecord;
use std::net::TcpStream;
use std::time::Duration;

/// Immediate outcome of a campaign submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// The job was accepted; results will stream on this connection.
    Accepted {
        /// Server-assigned job id.
        job_id: u64,
        /// Number of cells that will stream.
        cells: u32,
    },
    /// Backpressure: the queue is full (or the server is draining).
    Rejected {
        /// Suggested retry delay.
        retry_after_ms: u32,
        /// Server-side reason.
        reason: String,
    },
}

/// A completed campaign as observed by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Server-assigned job id.
    pub job_id: u64,
    /// `(cell_index, stats)` in arrival (= submission) order.
    pub cells: Vec<(u32, CellStats)>,
    /// Terminal job state.
    pub state: JobState,
}

/// A worker's capability handshake, from [`Response::WorkerHello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHello {
    /// The worker's job-queue capacity.
    pub queue_capacity: u32,
    /// Executor thread count on the worker.
    pub threads: u32,
    /// Batched-execution lane width on the worker.
    pub batch_width: u32,
    /// Cells resident in the worker's in-memory memo at handshake time.
    pub memo_cells: u64,
}

/// Fields of a [`Response::StatusReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Cells finished.
    pub cells_done: u32,
    /// Cells in the grid.
    pub cells_total: u32,
    /// Simulation runs executed so far.
    pub runs_done: u64,
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to an `adas-serve` daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sets a read timeout for responses (`None` waits indefinitely — the
    /// default, appropriate for long-streaming campaigns).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn request(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        send_request(&mut self.stream, request)?;
        recv_response(&mut self.stream)
    }

    /// Sends a job submission or assignment and maps its answer.
    fn submission(&mut self, request: &Request) -> Result<Submission, ProtocolError> {
        match self.request(request)? {
            Response::Accepted { job_id, cells } => Ok(Submission::Accepted { job_id, cells }),
            Response::Rejected {
                retry_after_ms,
                reason,
            } => Ok(Submission::Rejected {
                retry_after_ms,
                reason,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Submits a campaign and reads the acceptance/rejection frame. On
    /// acceptance, follow with [`Self::stream_results`].
    ///
    /// # Errors
    ///
    /// Protocol or transport failures, or an unexpected response kind.
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<Submission, ProtocolError> {
        self.submission(&Request::SubmitCampaign(spec.clone()))
    }

    /// Consumes the result stream of an accepted campaign, invoking
    /// `on_cell` for every streamed cell, until the terminal `JobDone`.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures, or an unexpected response kind.
    pub fn stream_results(
        &mut self,
        mut on_cell: impl FnMut(u32, &CellStats),
    ) -> Result<(Vec<(u32, CellStats)>, JobState), ProtocolError> {
        let mut cells = Vec::new();
        loop {
            match recv_response(&mut self.stream)? {
                Response::CellResult {
                    cell_index, stats, ..
                } => {
                    on_cell(cell_index, &stats);
                    cells.push((cell_index, stats));
                }
                Response::JobDone { state, .. } => return Ok((cells, state)),
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Submits a campaign and blocks until it finishes, returning every
    /// streamed cell. `on_cell` observes results as they arrive.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn run_campaign(
        &mut self,
        spec: &CampaignSpec,
        on_cell: impl FnMut(u32, &CellStats),
    ) -> Result<Result<CampaignResult, Submission>, ProtocolError> {
        match self.submit(spec)? {
            rejected @ Submission::Rejected { .. } => Ok(Err(rejected)),
            Submission::Accepted { job_id, .. } => {
                let (cells, state) = self.stream_results(on_cell)?;
                Ok(Ok(CampaignResult {
                    job_id,
                    cells,
                    state,
                }))
            }
        }
    }

    /// Submits a campaign, retrying queue-full rejections with the capped
    /// exponential, deterministically-jittered schedule from
    /// [`crate::backoff`] (honouring each rejection's `retry_after_ms`
    /// hint). Gives up after `max_attempts` submissions, returning the
    /// last rejection.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn submit_with_backoff(
        &mut self,
        spec: &CampaignSpec,
        max_attempts: u32,
        seed: u64,
    ) -> Result<Submission, ProtocolError> {
        let mut attempt = 0u32;
        loop {
            match self.submit(spec)? {
                accepted @ Submission::Accepted { .. } => return Ok(accepted),
                rejected @ Submission::Rejected { retry_after_ms, .. } => {
                    // `retry_after_ms == 0` means "draining, don't retry".
                    if retry_after_ms == 0 || attempt + 1 >= max_attempts {
                        return Ok(rejected);
                    }
                    std::thread::sleep(Duration::from_millis(crate::backoff::delay_ms(
                        retry_after_ms,
                        attempt,
                        seed,
                    )));
                    attempt += 1;
                }
            }
        }
    }

    /// Fabric handshake: registers this connection's peer as a fleet
    /// coordinator and returns the worker's capabilities.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn register_worker(&mut self, fleet_epoch: u64) -> Result<WorkerHello, ProtocolError> {
        match self.request(&Request::RegisterWorker { fleet_epoch })? {
            Response::WorkerHello {
                queue_capacity,
                threads,
                batch_width,
                memo_cells,
            } => Ok(WorkerHello {
                queue_capacity,
                threads,
                batch_width,
                memo_cells,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Fabric liveness probe; returns the worker's `(queued, running)`
    /// load after verifying the echoed nonce.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures, or a nonce mismatch.
    pub fn heartbeat(&mut self, nonce: u64) -> Result<(u32, u32), ProtocolError> {
        match self.request(&Request::Heartbeat { nonce })? {
            Response::HeartbeatAck {
                nonce: echoed,
                queued,
                running,
            } => {
                if echoed != nonce {
                    return Err(ProtocolError::Io(format!(
                        "heartbeat nonce mismatch: sent {nonce}, got {echoed}"
                    )));
                }
                Ok((queued, running))
            }
            other => Err(unexpected(other)),
        }
    }

    /// Fabric dispatch: assigns a sharded cell slice to the worker. On
    /// acceptance, follow with [`Self::stream_results`] — streamed
    /// `cell_index` values are the *global* `indices` passed here.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn assign_cells(
        &mut self,
        assignment_id: u64,
        indices: &[u32],
        spec: &CampaignSpec,
    ) -> Result<Submission, ProtocolError> {
        self.submission(&Request::AssignCells {
            assignment_id,
            indices: indices.to_vec(),
            spec: spec.clone(),
        })
    }

    /// Submits a fuzz-farm job and reads the acceptance frame. On
    /// acceptance, follow with [`Self::stream_fuzz`].
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn submit_fuzz(&mut self, spec: &FuzzJobSpec) -> Result<Submission, ProtocolError> {
        self.submission(&Request::SubmitFuzz(spec.clone()))
    }

    /// Fabric dispatch: assigns a seed slice of a farm job to the worker.
    /// On acceptance, follow with [`Self::stream_fuzz`].
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn assign_fuzz(
        &mut self,
        assignment_id: u64,
        spec: &FuzzJobSpec,
    ) -> Result<Submission, ProtocolError> {
        self.submission(&Request::AssignFuzz {
            assignment_id,
            spec: spec.clone(),
        })
    }

    /// Consumes the session stream of an accepted fuzz job, invoking
    /// `on_session` per completed session, until the terminal `JobDone`.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures, or an unexpected response kind.
    pub fn stream_fuzz(
        &mut self,
        mut on_session: impl FnMut(&SessionOutcome),
    ) -> Result<(Vec<SessionOutcome>, JobState), ProtocolError> {
        let mut outcomes = Vec::new();
        loop {
            match recv_response(&mut self.stream)? {
                Response::FuzzResult { outcome, .. } => {
                    on_session(&outcome);
                    outcomes.push(outcome);
                }
                Response::JobDone { state, .. } => return Ok((outcomes, state)),
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Submits a fuzz-farm job and blocks until every session has
    /// streamed back. `on_session` observes outcomes as they arrive.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn run_fuzz(
        &mut self,
        spec: &FuzzJobSpec,
        on_session: impl FnMut(&SessionOutcome),
    ) -> Result<Result<(Vec<SessionOutcome>, JobState), Submission>, ProtocolError> {
        match self.submit_fuzz(spec)? {
            rejected @ Submission::Rejected { .. } => Ok(Err(rejected)),
            Submission::Accepted { .. } => Ok(Ok(self.stream_fuzz(on_session)?)),
        }
    }

    /// Fabric drain: asks the worker to leave the fleet gracefully (drain
    /// accepted work, then exit).
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn drain_worker(&mut self) -> Result<(), ProtocolError> {
        match self.request(&Request::WorkerDrain)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Executes one fully-specified run on the server, optionally
    /// returning its serialised flight-recorder trace.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn submit_cell(
        &mut self,
        campaign_seed: u64,
        max_steps: u32,
        run: RunId,
        cell: CellSpec,
        with_trace: bool,
    ) -> Result<(RunRecord, Option<Vec<u8>>), ProtocolError> {
        match self.request(&Request::SubmitCell {
            campaign_seed,
            max_steps,
            run,
            cell,
            with_trace,
        })? {
            Response::RunResult { record, trace } => Ok((record, trace)),
            other => Err(unexpected(other)),
        }
    }

    /// Queries one job's progress.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures, or a server-side error (unknown
    /// job).
    pub fn status(&mut self, job_id: u64) -> Result<JobStatus, ProtocolError> {
        match self.request(&Request::Status { job_id })? {
            Response::StatusReport {
                state,
                cells_done,
                cells_total,
                runs_done,
            } => Ok(JobStatus {
                state,
                cells_done,
                cells_total,
                runs_done,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Requests cancellation of a job (idempotent); returns its status at
    /// the time of the request.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures, or a server-side error.
    pub fn cancel(&mut self, job_id: u64) -> Result<JobStatus, ProtocolError> {
        match self.request(&Request::Cancel { job_id })? {
            Response::StatusReport {
                state,
                cells_done,
                cells_total,
                runs_done,
            } => Ok(JobStatus {
                state,
                cells_done,
                cells_total,
                runs_done,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the live metrics snapshot (JSON text).
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn metrics(&mut self) -> Result<String, ProtocolError> {
        match self.request(&Request::Metrics)? {
            Response::MetricsJson(json) => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to verify a stored trace by content hash.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn replay(&mut self, trace_hex: &str) -> Result<(ReplayOutcome, String), ProtocolError> {
        match self.request(&Request::Replay {
            trace_hex: trace_hex.to_owned(),
        })? {
            Response::ReplayVerdict { outcome, detail } => Ok((outcome, detail)),
            other => Err(unexpected(other)),
        }
    }

    /// Requests graceful shutdown (the server drains in-flight jobs).
    ///
    /// # Errors
    ///
    /// Protocol or transport failures.
    pub fn shutdown(&mut self) -> Result<(), ProtocolError> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// The error for a response the request does not expect; a server-side
/// `Error` frame keeps its message.
fn unexpected(response: Response) -> ProtocolError {
    match response {
        Response::Error(e) => ProtocolError::Io(format!("server error: {e}")),
        other => ProtocolError::Io(format!("unexpected response kind 0x{:02x}", other.kind())),
    }
}
