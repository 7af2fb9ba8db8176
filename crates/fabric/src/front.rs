//! The coordinator's client-facing TCP front-end.
//!
//! Speaks the same versioned wire protocol as a worker daemon, through
//! the daemon's own accept and connection loop
//! ([`adas_serve::server::serve_connections`]), so every existing
//! `adas-serve client` verb works unchanged against a coordinator and
//! SIGTERM drains it like a worker: `SubmitCampaign` is sharded across the
//! fleet instead of executed locally, with the familiar `Accepted` →
//! `CellResult`* → `JobDone` stream (in grid order, like any daemon).
//! Admission control bounds concurrent campaigns: beyond the limit,
//! submissions get a `Rejected` frame with a `retry_after_ms` hint, which
//! [`adas_serve::Client::submit_with_backoff`] honours.

use crate::coordinator::Coordinator;
use adas_serve::protocol::send_response;
use adas_serve::server::{serve_connections, Service};
use adas_serve::{signal, JobState, Request, Response};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Retry hint sent with admission-control rejections.
const RETRY_AFTER_MS: u32 = 500;

/// A bound coordinator front-end.
pub struct CoordinatorServer {
    listener: TcpListener,
    shared: Arc<FrontShared>,
}

struct FrontShared {
    coordinator: Coordinator,
    admit: usize,
    active: AtomicUsize,
    job_ids: AtomicU64,
    shutdown: AtomicBool,
}

impl CoordinatorServer {
    /// Binds the listen socket around a connected coordinator.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, coordinator: Coordinator, admit: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            shared: Arc::new(FrontShared {
                coordinator,
                admit: admit.max(1),
                active: AtomicUsize::new(0),
                job_ids: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves clients until a `Shutdown` request or SIGTERM/SIGINT, drains
    /// the sharded jobs in flight, and stops the fleet monitor.
    ///
    /// # Errors
    ///
    /// Propagates listener set-up failures (accept errors are
    /// per-connection and non-fatal).
    pub fn run(self) -> std::io::Result<()> {
        let served = serve_connections(&self.listener, &self.shared);
        self.shared.coordinator.fleet.stop();
        served
    }
}

/// One admission slot, released on drop.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl FrontShared {
    /// Admits one sharded job, or answers the rejection: a draining
    /// coordinator says "don't retry", a full one hints a retry delay.
    /// Campaigns and fuzz jobs share the budget.
    fn admit(&self, stream: &mut TcpStream) -> std::io::Result<Option<Admitted<'_>>> {
        let (retry_after_ms, reason) = if self.is_shutdown() {
            (0, "coordinator shutting down")
        } else if self.active.fetch_add(1, Ordering::AcqRel) < self.admit {
            return Ok(Some(Admitted(&self.active)));
        } else {
            self.active.fetch_sub(1, Ordering::AcqRel);
            self.coordinator
                .metrics
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            (RETRY_AFTER_MS, "coordinator at admission limit")
        };
        send_response(
            stream,
            &Response::Rejected {
                retry_after_ms,
                reason: reason.to_owned(),
            },
        )?;
        Ok(None)
    }

    /// Admits and runs one sharded job of `items` results (`Err` names an
    /// invalid spec) with the daemon's `Accepted` → result* → `JobDone`
    /// stream shape. `run(job_id, send)` drives the coordinator, passing
    /// each merged result frame to `send` in global order, and reports
    /// success. A transport error surfaces after the job completes (the
    /// fleet keeps its work either way).
    fn stream_sharded(
        &self,
        stream: &mut TcpStream,
        items: Result<usize, &str>,
        run: impl FnOnce(u64, &mut (dyn FnMut(Response) + Send)) -> bool,
    ) -> std::io::Result<bool> {
        let Some(_slot) = self.admit(stream)? else {
            return Ok(true);
        };
        let items = match items {
            Ok(items) => items,
            Err(invalid) => {
                send_response(stream, &Response::Error(invalid.to_owned()))?;
                return Ok(true);
            }
        };
        let job_id = self.job_ids.fetch_add(1, Ordering::Relaxed);
        send_response(
            stream,
            &Response::Accepted {
                job_id,
                cells: u32::try_from(items).unwrap_or(u32::MAX),
            },
        )?;
        let mut stream_err = None;
        let ok = run(job_id, &mut |frame| {
            if stream_err.is_none() {
                stream_err = send_response(stream, &frame).err();
            }
        });
        if let Some(e) = stream_err {
            return Err(e);
        }
        let state = if ok { JobState::Done } else { JobState::Failed };
        send_response(stream, &Response::JobDone { job_id, state })?;
        Ok(true)
    }
}

impl Service for FrontShared {
    fn handle(&self, stream: &mut TcpStream, request: Request) -> std::io::Result<bool> {
        match request {
            Request::SubmitCampaign(spec) => {
                let items = spec
                    .validate()
                    .then_some(spec.cells.len())
                    .ok_or("invalid campaign spec");
                self.stream_sharded(stream, items, |job_id, send| {
                    self.coordinator
                        .run_campaign(&spec, |cell_index, stats| {
                            send(Response::CellResult {
                                job_id,
                                cell_index,
                                stats: *stats,
                            });
                        })
                        .is_ok()
                })
            }
            // The fleet-wide fold, repro persistence, and store
            // write-through all happen inside `run_fuzz_farm`.
            Request::SubmitFuzz(spec) => {
                let items = spec
                    .validate()
                    .then_some(spec.seeds.len())
                    .ok_or("invalid fuzz job spec");
                self.stream_sharded(stream, items, |job_id, send| {
                    self.coordinator
                        .run_fuzz_farm(&spec, |session| {
                            send(Response::FuzzResult {
                                job_id,
                                outcome: session.clone(),
                            });
                        })
                        .is_ok()
                })
            }
            Request::Metrics => {
                let json = self
                    .coordinator
                    .metrics_json(self.active.load(Ordering::Relaxed), self.admit);
                send_response(stream, &Response::MetricsJson(json))?;
                Ok(true)
            }
            Request::Heartbeat { nonce } => {
                send_response(
                    stream,
                    &Response::HeartbeatAck {
                        nonce,
                        queued: 0,
                        running: u32::try_from(self.active.load(Ordering::Relaxed))
                            .unwrap_or(u32::MAX),
                    },
                )?;
                Ok(true)
            }
            Request::Shutdown => {
                self.begin_shutdown();
                send_response(stream, &Response::ShutdownAck)?;
                Ok(false)
            }
            _ => {
                send_response(
                    stream,
                    &Response::Error("unsupported by the fabric coordinator".to_owned()),
                )?;
                Ok(true)
            }
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::triggered()
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}
