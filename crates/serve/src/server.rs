//! The `adas-serve` daemon: accept loop, connection handlers, and the
//! campaign executor.
//!
//! One executor thread drains the bounded [`JobQueue`] and runs campaigns
//! one at a time; *within* a campaign each cell fans its sweep onto the
//! work-stealing executor (`adas_parallel::map_ctl`) with the job's
//! [`MapControl`](adas_parallel::MapControl) shared for cancellation and live progress. The trained
//! model and the content-addressed artifact cache are resident and shared
//! across every request, which is where the warm-path speedup comes from.
//!
//! Determinism: a cell is resolved here by the same
//! [`adas_core::resolve_cell`] as in the CLI harnesses, with the same
//! per-run RNG derivation and cache key, and the executor merges results
//! by index — outcomes are bit-identical to the CLI path at any
//! `ADAS_THREADS`.

use crate::metrics::ServeMetrics;
use crate::protocol::{
    recv_request, send_response, JobState, ProtocolError, ReplayOutcome, Request, Response,
};
use crate::queue::{Job, JobEvent, JobQueue, JobRegistry, PushError};
use crate::signal;
use crate::sink::{self, StoreSink};
use adas_bench::model_fingerprint;
use adas_core::job::CellSpec;
use adas_core::{
    replay_trace, resolve_cell, ArtifactCache, CampaignSpec, CellStats, Fingerprint, TraceSink,
};
use adas_fuzz::farm::{self, FuzzJobSpec};
use adas_ml::{LstmPredictor, ModelSpec};
use adas_recorder::Trace;
use adas_store::CellRow;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default listen address when `ADAS_SERVE_ADDR` is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4747";

/// Default job-queue capacity when `ADAS_SERVE_QUEUE` is unset.
pub const DEFAULT_QUEUE: usize = 8;

/// How long an idle connection read waits before re-checking shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// How often the accept loop's waker checks for shutdown, and the pause
/// after a failed `accept` (e.g. out of file descriptors). Neither is on
/// the request path: the loop blocks in `accept`.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Suggested client retry delay attached to backpressure rejections.
const RETRY_AFTER_MS: u32 = 500;

/// Server construction parameters.
#[derive(Debug)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Bounded job-queue capacity (≥ 1).
    pub queue_capacity: usize,
    /// Artifact cache shared by every request.
    pub cache: ArtifactCache,
    /// Directory `Replay` requests resolve trace hashes in.
    pub trace_dir: PathBuf,
    /// Architecture of the lazily trained resident models. Production
    /// servers keep the paper's default; tests shrink it so an in-process
    /// server trains in milliseconds.
    pub model_spec: ModelSpec,
}

impl ServerConfig {
    /// Configuration from `ADAS_SERVE_ADDR`, `ADAS_SERVE_QUEUE`,
    /// `ADAS_CACHE`/`ADAS_CACHE_DIR`, and `ADAS_TRACE_DIR` (all through the
    /// hardened `adas_core::env` parsers).
    #[must_use]
    pub fn from_env() -> Self {
        Self {
            addr: adas_core::env::raw("ADAS_SERVE_ADDR").unwrap_or_else(|| DEFAULT_ADDR.to_owned()),
            queue_capacity: adas_core::env::parse_or(
                "ADAS_SERVE_QUEUE",
                "a queue capacity ≥ 1",
                DEFAULT_QUEUE,
            )
            .max(1),
            cache: ArtifactCache::from_env(),
            trace_dir: adas_core::env::path_or("ADAS_TRACE_DIR", "results/traces"),
            model_spec: ModelSpec::default(),
        }
    }
}

/// State shared by the accept loop, every connection handler, and the
/// executor.
pub struct Shared {
    queue: JobQueue,
    registry: JobRegistry,
    metrics: ServeMetrics,
    cache: ArtifactCache,
    trace_dir: PathBuf,
    /// Resident trained models, keyed by campaign seed (trained lazily on
    /// first use, then shared by `Arc` across all requests).
    models: Mutex<HashMap<u64, Resident>>,
    /// In-memory cell-result memo keyed by cell fingerprint — the warmest
    /// tier above the on-disk artifact cache.
    memo: Mutex<HashMap<u64, CellStats>>,
    /// Architecture the resident models are trained at.
    model_spec: ModelSpec,
    /// Optional `ADAS_STORE_DIR` write-through for cells and findings.
    store_sink: StoreSink,
    shutdown: AtomicBool,
    job_ids: AtomicU64,
}

impl Shared {
    fn new(config: ServerConfig) -> Self {
        Self {
            queue: JobQueue::new(config.queue_capacity),
            registry: JobRegistry::new(),
            metrics: ServeMetrics::new(),
            cache: config.cache,
            trace_dir: config.trace_dir,
            models: Mutex::new(HashMap::new()),
            memo: Mutex::new(HashMap::new()),
            model_spec: config.model_spec,
            store_sink: StoreSink::from_env(),
            shutdown: AtomicBool::new(false),
            job_ids: AtomicU64::new(1),
        }
    }

    /// The trained model for `campaign_seed`, training (or loading from
    /// the artifact cache) on first use. Concurrent first calls may train
    /// twice; training is deterministic, so both produce identical weights
    /// and the loser just overwrites with an equal value.
    fn model_for(&self, campaign_seed: u64) -> Resident {
        if let Some(m) = self.models.lock().expect("models lock").get(&campaign_seed) {
            return m.clone();
        }
        let t0 = Instant::now();
        let model = Arc::new(adas_bench::trained_baseline_cached(
            &self.cache,
            campaign_seed,
            self.model_spec,
        ));
        self.metrics.model_train.record(t0.elapsed());
        let resident = Resident {
            fingerprint: model_fingerprint(&model),
            model,
        };
        self.models
            .lock()
            .expect("models lock")
            .insert(campaign_seed, resident.clone());
        resident
    }
}

/// A resident trained model and its weights fingerprint, hashed once when
/// the model becomes resident rather than on every cell that uses it.
#[derive(Debug, Clone)]
struct Resident {
    model: Arc<LstmPredictor>,
    fingerprint: Fingerprint,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("queue", &self.queue)
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket (fails fast on a busy port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            listener,
            shared: Arc::new(Shared::new(config)),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon until a `Shutdown` request or SIGTERM/SIGINT, then
    /// drains in-flight jobs and returns.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection errors are
    /// handled inline).
    pub fn run(self) -> std::io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let executor = std::thread::Builder::new()
            .name("adas-serve-exec".into())
            .spawn(move || executor_loop(&shared))
            .expect("spawn executor");
        let served = serve_connections(&self.listener, &self.shared);
        // The executor finishes every accepted job once the queue closes
        // (closing again is a no-op; it covers a listener that failed to
        // start).
        self.shared.begin_shutdown();
        let _ = executor.join();
        served
    }
}

/// A request handler behind [`serve_connections`]: the daemon and the
/// fabric coordinator front-end each implement it once.
pub trait Service: Send + Sync + 'static {
    /// Answers one request on `stream`; `Ok(false)` closes the connection
    /// politely.
    ///
    /// # Errors
    ///
    /// Transport failures while responding (the connection is dropped).
    fn handle(&self, stream: &mut TcpStream, request: Request) -> std::io::Result<bool>;

    /// True once the service accepts no more connections or requests.
    fn is_shutdown(&self) -> bool;

    /// Stops admitting work; called once when the accept loop exits,
    /// before the open connections drain.
    fn begin_shutdown(&self);

    /// Observes an accepted connection.
    fn on_connect(&self) {}

    /// Observes a framing violation (answered with an `Error` frame).
    fn on_protocol_error(&self) {}
}

/// Accept loop: one handler thread per connection until `service` shuts
/// down (a `Shutdown` request, SIGTERM, or SIGINT), then drains — every
/// in-flight request finishes, and idle or half-read connections close
/// within one read timeout.
///
/// The loop blocks in `accept`, so a connection is served the moment it
/// arrives. Shutdown is noticed off the request path by a waker thread
/// that checks [`Service::is_shutdown`] every 20 ms and then connects
/// once to the listener; the loop drops that connection unserved and
/// exits.
///
/// # Errors
///
/// Propagates listener set-up failures (accept errors are logged and the
/// loop keeps serving).
pub fn serve_connections<S: Service>(
    listener: &TcpListener,
    service: &Arc<S>,
) -> std::io::Result<()> {
    signal::install();
    let wake_addr = wake_address(listener.local_addr()?);
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let stopped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| wake_on_shutdown(&**service, wake_addr, &stopped));
        loop {
            match listener.accept() {
                Ok(_) if service.is_shutdown() => break,
                Ok((stream, _)) => {
                    let service = Arc::clone(service);
                    let handle = std::thread::Builder::new()
                        .name("adas-serve-conn".into())
                        .spawn(move || handle_connection(&*service, stream))
                        .expect("spawn connection handler");
                    handlers.push(handle);
                }
                Err(_) if service.is_shutdown() => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("[serve] accept error: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            // Reap finished connection threads so the vector stays small.
            for handle in handlers.extract_if(.., |h| h.is_finished()) {
                let _ = handle.join();
            }
        }
        stopped.store(true, Ordering::Relaxed);
    });
    service.begin_shutdown();
    for handle in handlers {
        let _ = handle.join();
    }
    Ok(())
}

/// The address a waker connects to: the listener's own, with an
/// unspecified bind address (`0.0.0.0`, `::`) replaced by loopback.
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Waits off the request path until `service` shuts down, then connects
/// once to `addr` so the accept loop's blocking `accept` returns. A
/// failed connect is retried on the next tick; `stopped` (the loop has
/// already exited) ends the wait without one.
fn wake_on_shutdown<S: Service>(service: &S, addr: SocketAddr, stopped: &AtomicBool) {
    loop {
        std::thread::sleep(ACCEPT_POLL);
        if stopped.load(Ordering::Relaxed)
            || (service.is_shutdown() && TcpStream::connect_timeout(&addr, READ_TIMEOUT).is_ok())
        {
            return;
        }
    }
}

/// Executor thread: drains the queue until it is closed *and* empty.
fn executor_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(shared, &job);
        }));
        if result.is_err() {
            // A panicking cell must not wedge the daemon: mark the job
            // failed, tell the client, keep serving.
            eprintln!("[serve] job {} panicked; marked failed", job.id);
            job.set_state(JobState::Failed);
            shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
            let _ = job.events.send(JobEvent::Finished(JobState::Failed));
        }
        shared.metrics.set_gauges(shared.queue.len(), 0);
    }
}

/// Runs one accepted campaign, streaming each finished cell to the
/// submitting connection.
fn execute_job(shared: &Shared, job: &Arc<Job>) {
    shared.metrics.queue_wait.record(job.enqueued.elapsed());
    shared.metrics.set_gauges(shared.queue.len(), 1);
    job.set_state(JobState::Running);
    let spec = &job.spec;
    // Train (or fetch) the resident model once per job, not per cell.
    let model = spec
        .cells
        .iter()
        .any(|c| c.interventions.ml)
        .then(|| shared.model_for(spec.campaign_seed));

    let mut outcome = JobState::Done;
    // Store write-through batches the whole grid into one append (one
    // segment per job, not one per cell).
    let mut store_rows = Vec::new();
    for (index, cell) in spec.cells.iter().enumerate() {
        if job.ctl.is_cancelled() {
            outcome = JobState::Cancelled;
            break;
        }
        let t0 = Instant::now();
        let Some((stats, runs)) = compute_cell(shared, spec, cell, model.as_ref(), job) else {
            outcome = JobState::Cancelled;
            break;
        };
        shared.metrics.cell_wall.record(t0.elapsed());
        shared.metrics.cells_done.fetch_add(1, Ordering::Relaxed);
        // The store records computations: a memo or disk hit adds no row.
        if runs > 0 && shared.store_sink.enabled() {
            let config = spec.config_for(cell);
            store_rows.push(CellRow::for_cell(
                cell.fault,
                &config,
                spec.campaign_seed,
                &stats,
            ));
        }
        job.bump_cells_done();
        // Fabric assignments stream the coordinator's global grid index.
        let sent = job.events.send(JobEvent::Cell {
            index: job.wire_index(index as u32),
            stats,
        });
        if sent.is_err() {
            // The submitting client is gone — stop burning compute.
            job.ctl.cancel();
            outcome = JobState::Cancelled;
            break;
        }
    }

    shared.store_sink.cells(&store_rows);
    job.set_state(outcome);
    let counter = match outcome {
        JobState::Done => &shared.metrics.jobs_done,
        JobState::Cancelled => &shared.metrics.jobs_cancelled,
        _ => &shared.metrics.jobs_failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    let _ = job.events.send(JobEvent::Finished(outcome));
}

/// One cell's statistics and the runs executed for them: the in-memory
/// memo first, then [`adas_core::resolve_cell`] (artifact cache, else the
/// lockstep sweep). Zero runs means a memo or disk hit. `None` means the
/// job was cancelled mid-sweep.
fn compute_cell(
    shared: &Shared,
    spec: &CampaignSpec,
    cell: &CellSpec,
    model: Option<&Resident>,
    job: &Arc<Job>,
) -> Option<(CellStats, usize)> {
    let cell = spec.cell(cell, model.map(|m| (&m.model, m.fingerprint)));
    let key = cell.key().value();

    let metrics = &shared.metrics;
    if let Some(stats) = shared.memo.lock().expect("memo lock").get(&key) {
        metrics.cells_memo_hits.fetch_add(1, Ordering::Relaxed);
        return Some((*stats, 0));
    }
    let (stats, runs) = resolve_cell(&cell, &shared.cache, &TraceSink::disabled(), &job.ctl)?;
    // Per-tier accounting: no runs is a disk hit; `computed` is a genuine
    // miss-then-fill of the disk tier, and with the disk cache disabled
    // the compute bypassed it.
    let tier = if runs == 0 {
        &metrics.cells_disk_hits
    } else if shared.cache.is_enabled() {
        &metrics.cells_computed
    } else {
        &metrics.cells_bypass
    };
    tier.fetch_add(1, Ordering::Relaxed);
    metrics
        .runs_executed
        .fetch_add(runs as u64, Ordering::Relaxed);
    shared.memo.lock().expect("memo lock").insert(key, stats);
    Some((stats, runs))
}

/// The read half of a served connection. A read timeout while the service
/// is shutting down becomes an abort, so neither an idle peer nor one
/// stalled mid-frame holds the drain past one read timeout.
struct Draining<'a, S> {
    stream: &'a TcpStream,
    service: &'a S,
}

impl<S: Service> Read for Draining<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.stream.read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && self.service.is_shutdown() =>
            {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "server shutting down",
                ))
            }
            other => other,
        }
    }
}

/// Per-connection loop: request → response(s) until close, protocol
/// violation, or shutdown.
fn handle_connection<S: Service>(service: &S, mut stream: TcpStream) {
    service.on_connect();
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    loop {
        let request = recv_request(&mut Draining {
            stream: &stream,
            service,
        });
        match request {
            Ok(request) => match service.handle(&mut stream, request) {
                Ok(true) => {}
                Ok(false) | Err(_) => break,
            },
            // Idle; a timeout during shutdown arrives as `Io` instead.
            Err(ProtocolError::TimedOut) => {}
            Err(ProtocolError::Closed | ProtocolError::Io(_)) => break,
            Err(e) => {
                // Structural violation: count it, answer it, and drop the
                // connection — after a framing error the byte stream can
                // no longer be trusted to resynchronise.
                service.on_protocol_error();
                let _ = send_response(&mut stream, &Response::Error(e.to_string()));
                break;
            }
        }
    }
}

impl Service for Shared {
    fn handle(&self, stream: &mut TcpStream, request: Request) -> std::io::Result<bool> {
        handle_request(self, stream, request)
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::triggered()
    }

    /// Stops accepting work and lets the executor drain what was accepted.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.close();
    }

    fn on_connect(&self) {
        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
    }

    fn on_protocol_error(&self) {
        self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Dispatches one request. `Ok(false)` closes the connection politely.
fn handle_request(
    shared: &Shared,
    stream: &mut (impl Write + std::io::Read),
    request: Request,
) -> std::io::Result<bool> {
    match request {
        Request::SubmitCampaign(spec) => handle_submit(shared, stream, spec),
        Request::Replay { trace_hex } => {
            shared.metrics.replays.fetch_add(1, Ordering::Relaxed);
            let (outcome, detail) = verify_trace(shared, &trace_hex);
            send_response(stream, &Response::ReplayVerdict { outcome, detail })?;
            Ok(true)
        }
        Request::Status { job_id } => {
            let response = match shared.registry.get(job_id) {
                Some(job) => status_of(&job),
                None => Response::Error(format!("unknown job {job_id}")),
            };
            send_response(stream, &response)?;
            Ok(true)
        }
        Request::Cancel { job_id } => {
            let response = match shared.registry.get(job_id) {
                Some(job) => {
                    job.ctl.cancel();
                    status_of(&job)
                }
                None => Response::Error(format!("unknown job {job_id}")),
            };
            send_response(stream, &response)?;
            Ok(true)
        }
        Request::Metrics => {
            let json = shared.metrics.snapshot_json(
                &shared.cache,
                shared.queue.len(),
                shared.queue.capacity(),
            );
            send_response(stream, &Response::MetricsJson(json))?;
            Ok(true)
        }
        Request::Shutdown => {
            send_response(stream, &Response::ShutdownAck)?;
            shared.begin_shutdown();
            Ok(false)
        }
        Request::RegisterWorker { fleet_epoch: _ } => {
            shared
                .metrics
                .workers_registered
                .fetch_add(1, Ordering::Relaxed);
            let memo_cells = shared.memo.lock().expect("memo lock").len() as u64;
            send_response(
                stream,
                &Response::WorkerHello {
                    queue_capacity: shared.queue.capacity() as u32,
                    threads: adas_parallel::thread_count(usize::MAX) as u32,
                    batch_width: adas_parallel::batch_width() as u32,
                    memo_cells,
                },
            )?;
            Ok(true)
        }
        Request::Heartbeat { nonce } => {
            shared.metrics.heartbeats.fetch_add(1, Ordering::Relaxed);
            let (_, running) = shared.metrics.gauges();
            send_response(
                stream,
                &Response::HeartbeatAck {
                    nonce,
                    queued: shared.queue.len() as u32,
                    running: running as u32,
                },
            )?;
            Ok(true)
        }
        Request::AssignCells {
            assignment_id,
            indices,
            spec,
        } => {
            shared.metrics.assignments.fetch_add(1, Ordering::Relaxed);
            handle_assign(shared, stream, assignment_id, indices, spec)
        }
        Request::WorkerDrain => {
            shared.metrics.worker_drains.fetch_add(1, Ordering::Relaxed);
            send_response(stream, &Response::ShutdownAck)?;
            shared.begin_shutdown();
            Ok(false)
        }
        Request::SubmitFuzz(spec) => handle_fuzz(shared, stream, None, &spec),
        Request::AssignFuzz {
            assignment_id,
            spec,
        } => handle_fuzz(shared, stream, Some(assignment_id), &spec),
    }
}

/// Runs a fuzz-farm job (or a coordinator-assigned slice of one)
/// synchronously on this connection: `Accepted`, one `FuzzResult` per
/// seed in spec order, `JobDone`. Sessions are CPU-bound and internally
/// parallel (the engine fans batches onto the work-stealing executor), so
/// they run here rather than through the campaign queue — a farm worker
/// is dedicated to fuzzing while the job lasts.
fn handle_fuzz(
    shared: &Shared,
    stream: &mut impl Write,
    assignment: Option<u64>,
    spec: &FuzzJobSpec,
) -> std::io::Result<bool> {
    if !spec.validate() {
        send_response(stream, &Response::Error("invalid fuzz job spec".into()))?;
        return Ok(true);
    }
    let job_id = assignment.unwrap_or_else(|| shared.job_ids.fetch_add(1, Ordering::Relaxed));
    shared.metrics.fuzz_jobs.fetch_add(1, Ordering::Relaxed);
    send_response(
        stream,
        &Response::Accepted {
            job_id,
            cells: spec.seeds.len() as u32,
        },
    )?;

    let mut outcomes = Vec::with_capacity(spec.seeds.len());
    let mut state = JobState::Done;
    for &seed in &spec.seeds {
        if shared.is_shutdown() {
            state = JobState::Cancelled;
            break;
        }
        let t0 = Instant::now();
        let outcome = farm::run_session(spec, seed);
        shared.metrics.fuzz_session_wall.record(t0.elapsed());
        shared.metrics.fuzz_sessions.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .fuzz_runs
            .fetch_add(outcome.runs, Ordering::Relaxed);
        shared
            .metrics
            .fuzz_corpus
            .fetch_add(outcome.corpus, Ordering::Relaxed);
        let sent = send_response(
            stream,
            &Response::FuzzResult {
                job_id,
                outcome: outcome.clone(),
            },
        );
        if sent.is_err() {
            // Submitter gone: stop fuzzing, nothing left to stream to.
            return Ok(false);
        }
        outcomes.push(outcome);
    }

    // Local fold: feeds the fleet metrics and the store write-through.
    // (A coordinator folds across *all* workers itself — same code, so
    // its global fold subsumes these per-worker ones.)
    let summary = farm::fold(spec, &outcomes);
    shared
        .metrics
        .fuzz_findings
        .fetch_add(summary.findings.len() as u64, Ordering::Relaxed);
    shared
        .metrics
        .fuzz_dedup_hits
        .fetch_add(summary.dedup_hits, Ordering::Relaxed);
    for (slot, n) in shared
        .metrics
        .fuzz_by_oracle
        .iter()
        .zip(summary.by_oracle())
    {
        slot.fetch_add(n, Ordering::Relaxed);
    }
    // Only direct submissions persist: a coordinator-assigned slice would
    // double-write rows the coordinator's global fold also persists.
    if assignment.is_none() {
        let rows: Vec<_> = summary.findings.iter().map(sink::finding_row).collect();
        shared.store_sink.findings(&rows);
    }
    send_response(stream, &Response::JobDone { job_id, state })?;
    Ok(true)
}

/// Accepts a campaign into the queue (or bounces it with backpressure) and
/// streams its results back on this connection.
fn handle_submit(
    shared: &Shared,
    stream: &mut impl Write,
    spec: CampaignSpec,
) -> std::io::Result<bool> {
    if !spec.validate() {
        send_response(stream, &Response::Error("invalid campaign spec".into()))?;
        return Ok(true);
    }
    let (events, results) = channel();
    let job_id = shared.job_ids.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job::new(job_id, spec, events));
    enqueue_and_stream(shared, stream, job, &results)
}

/// Accepts a fabric cell assignment: same queue/executor/cache tiers as a
/// local submission, but streaming under the coordinator's assignment id
/// with global grid indices.
fn handle_assign(
    shared: &Shared,
    stream: &mut impl Write,
    assignment_id: u64,
    indices: Vec<u32>,
    spec: CampaignSpec,
) -> std::io::Result<bool> {
    // The protocol decoder already enforced the index/cell pairing; the
    // spec itself must still be a valid (sub-)campaign.
    if !spec.validate() || indices.len() != spec.cells.len() {
        send_response(stream, &Response::Error("invalid cell assignment".into()))?;
        return Ok(true);
    }
    let (events, results) = channel();
    let job_id = shared.job_ids.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job::assignment(
        job_id,
        assignment_id,
        indices,
        spec,
        events,
    ));
    enqueue_and_stream(shared, stream, job, &results)
}

/// Shared tail of `handle_submit` / `handle_assign`: push the job through
/// the bounded queue (explicit backpressure on a full queue) and stream
/// its events back on this connection.
fn enqueue_and_stream(
    shared: &Shared,
    stream: &mut impl Write,
    job: Arc<Job>,
    results: &std::sync::mpsc::Receiver<JobEvent>,
) -> std::io::Result<bool> {
    let wire_id = job.wire_id;
    let cells = job.spec.cells.len() as u32;
    match shared.queue.try_push(Arc::clone(&job)) {
        Err(PushError::Full { capacity }) => {
            shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            send_response(
                stream,
                &Response::Rejected {
                    retry_after_ms: RETRY_AFTER_MS,
                    reason: format!("job queue full ({capacity} waiting)"),
                },
            )?;
            return Ok(true);
        }
        Err(PushError::Closed) => {
            send_response(
                stream,
                &Response::Rejected {
                    retry_after_ms: 0,
                    reason: "server is shutting down".into(),
                },
            )?;
            return Ok(true);
        }
        Ok(()) => {}
    }

    shared.registry.insert(Arc::clone(&job));
    shared
        .metrics
        .jobs_submitted
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.set_gauges(
        shared.queue.len(),
        usize::from(job.state() == JobState::Running),
    );
    send_response(
        stream,
        &Response::Accepted {
            job_id: wire_id,
            cells,
        },
    )?;

    // Stream cells as the executor finishes them. The executor always
    // terminates the stream with `Finished`, including for drained or
    // cancelled jobs, so this loop cannot hang.
    loop {
        match results.recv() {
            Ok(JobEvent::Cell { index, stats }) => {
                let sent = send_response(
                    stream,
                    &Response::CellResult {
                        job_id: wire_id,
                        cell_index: index,
                        stats,
                    },
                );
                if sent.is_err() {
                    // Client went away mid-stream: stop the job.
                    job.ctl.cancel();
                    return Ok(false);
                }
            }
            Ok(JobEvent::Finished(state)) => {
                send_response(
                    stream,
                    &Response::JobDone {
                        job_id: wire_id,
                        state,
                    },
                )?;
                return Ok(true);
            }
            // Sender dropped without Finished — executor died; fail loudly.
            Err(_) => {
                send_response(
                    stream,
                    &Response::JobDone {
                        job_id: wire_id,
                        state: JobState::Failed,
                    },
                )?;
                return Ok(true);
            }
        }
    }
}

/// Builds the status response for a job.
fn status_of(job: &Job) -> Response {
    Response::StatusReport {
        state: job.state(),
        cells_done: job.cells_done(),
        cells_total: job.spec.cells.len() as u32,
        runs_done: job.ctl.completed() as u64,
    }
}

/// Resolves a trace hash in the server's trace directory and verifies it
/// by bit-exact re-execution.
fn verify_trace(shared: &Shared, trace_hex: &str) -> (ReplayOutcome, String) {
    let Some(path) = Trace::path_for(&shared.trace_dir, trace_hex) else {
        return (
            ReplayOutcome::NotFound,
            format!("malformed trace hash {trace_hex:?} (want 16 lowercase hex digits)"),
        );
    };
    if !path.exists() {
        return (
            ReplayOutcome::NotFound,
            format!("no trace {trace_hex} under {}", shared.trace_dir.display()),
        );
    }
    let trace = match Trace::load(&path) {
        Ok(t) => t,
        Err(e) => return (ReplayOutcome::Error, format!("cannot load trace: {e}")),
    };
    // Supply the resident model when the recording demands one we have,
    // cloned out so the models lock is released before the replay runs.
    let needed = trace.header.model_fingerprint;
    let resident = shared
        .models
        .lock()
        .expect("models lock")
        .values()
        .find(|m| needed != 0 && m.fingerprint.value() == needed)
        .cloned();
    let ml = resident.as_ref().map(|m| (&m.model, needed));
    match replay_trace(&trace, ml, None) {
        Ok(report) if report.report.is_identical() => (ReplayOutcome::Identical, trace.identity()),
        Ok(report) => {
            let mut detail = report.report.verdict.to_string();
            if let Some(outcome) = &report.report.outcome_mismatch {
                detail.push_str(&format!("; outcome mismatch: {outcome}"));
            }
            (ReplayOutcome::Diverged, detail)
        }
        Err(e) => (ReplayOutcome::Error, e.to_string()),
    }
}
