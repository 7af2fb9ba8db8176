//! The `adas-serve bench` load generator: saturation curve for the
//! sharded serving fabric.
//!
//! For every `(workers, clients)` point in a powers-of-two sweep, the
//! bench spins up that many **in-process** worker daemons on ephemeral
//! ports (disk cache disabled — memo tier only), fronts them with a
//! coordinator, runs one warm-up campaign (so the measured phase
//! exercises routing + merge + memo hits, not cold simulation), then
//! hammers the coordinator with K concurrent TCP clients. Each client
//! submits through a FIFO fairness gate ([`adas_parallel::FairGate`]) and
//! retries admission rejections on the deterministic backoff schedule
//! ([`adas_serve::backoff`]), so the curve reports steady-state
//! throughput (cells/sec) and latency (p50/p99) rather than a rejection
//! storm.

use crate::coordinator::{Coordinator, FabricConfig};
use crate::front::CoordinatorServer;
use adas_core::{ArtifactCache, CampaignSpec};
use adas_parallel::FairGate;
use adas_serve::metrics::Histogram;
use adas_serve::{Client, Server, ServerConfig, Submission};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Largest client count in the sweep (the `--clients` flag).
    pub max_clients: usize,
    /// Largest worker count in the sweep (the `--workers` flag).
    pub max_workers: usize,
    /// Campaigns each client submits per point.
    pub campaigns_per_client: usize,
    /// Coordinator admission limit (and client-side gate capacity).
    pub admit: usize,
    /// The campaign grid every submission evaluates.
    pub spec: CampaignSpec,
}

/// One measured point on the saturation curve.
#[derive(Debug, Clone, Copy)]
pub struct BenchPoint {
    /// Worker daemons serving the fleet.
    pub workers: usize,
    /// Concurrent submitting clients.
    pub clients: usize,
    /// Campaigns completed in the measured phase.
    pub campaigns: u64,
    /// Cells merged in the measured phase.
    pub cells: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed_ms: u64,
    /// Merged-cell throughput.
    pub cells_per_sec: f64,
    /// Median campaign latency (submission → `JobDone`), as the upper
    /// bound of its histogram bucket in µs.
    pub p50_le_us: u64,
    /// Tail campaign latency, likewise.
    pub p99_le_us: u64,
    /// Admission rejections absorbed by client backoff.
    pub retries: u64,
}

/// Powers of two up to and including `max` (always ends with `max`).
fn sweep(max: usize) -> Vec<usize> {
    let mut points = Vec::new();
    let mut p = 1usize;
    while p < max {
        points.push(p);
        p *= 2;
    }
    points.push(max.max(1));
    points.dedup();
    points
}

/// One in-process worker daemon: bound server + its run thread.
struct BenchWorker {
    addr: String,
    thread: std::thread::JoinHandle<()>,
}

fn spawn_workers(n: usize, queue: usize) -> std::io::Result<Vec<BenchWorker>> {
    (0..n)
        .map(|_| {
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                queue_capacity: queue,
                cache: ArtifactCache::disabled(),
                trace_dir: std::env::temp_dir(),
                model_spec: adas_core::ModelSpec::default(),
            })?;
            let addr = server.local_addr()?.to_string();
            let thread = std::thread::spawn(move || {
                let _ = server.run();
            });
            Ok(BenchWorker { addr, thread })
        })
        .collect()
}

fn stop_workers(workers: Vec<BenchWorker>) {
    for w in &workers {
        if let Ok(mut c) = Client::connect(&w.addr) {
            let _ = c.shutdown();
        }
    }
    for w in workers {
        let _ = w.thread.join();
    }
}

/// Runs one `(workers, clients)` point end to end.
///
/// # Errors
///
/// Propagates worker/coordinator spawn failures; client-side transport
/// errors abort that client's remaining campaigns but not the point.
pub fn run_point(
    workers: usize,
    clients: usize,
    config: &BenchConfig,
) -> Result<BenchPoint, String> {
    let fleet = spawn_workers(workers, config.admit.max(2) * 2)
        .map_err(|e| format!("spawn workers: {e}"))?;
    let fabric = FabricConfig {
        workers: fleet.iter().map(|w| w.addr.clone()).collect(),
        heartbeat: Duration::from_millis(500),
        deadline: Duration::from_secs(60),
        vnodes: 64,
        admit: config.admit,
        epoch: 1,
    };
    let coordinator = Coordinator::connect(&fabric).map_err(|e| e.to_string())?;
    let fleet_handle = Arc::clone(&coordinator.fleet);
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator, config.admit)
        .map_err(|e| format!("bind coordinator: {e}"))?;
    let front_addr = front.local_addr().map_err(|e| e.to_string())?.to_string();
    let front_thread = std::thread::spawn(move || {
        let _ = front.run();
    });

    // Warm-up: one campaign fills every worker's memo tier along the
    // routing assignment, so the measured phase is steady-state.
    {
        let mut client = Client::connect(&front_addr).map_err(|e| e.to_string())?;
        client
            .run_campaign(&config.spec, |_, _| {})
            .map_err(|e| e.to_string())?
            .map_err(|r| format!("warm-up rejected: {r:?}"))?;
    }

    let gate = Arc::new(FairGate::new(config.admit));
    let latencies = Arc::new(Histogram::default());
    let campaigns = Arc::new(AtomicU64::new(0));
    let cells = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));

    let started = Instant::now();
    std::thread::scope(|scope| {
        for client_id in 0..clients {
            let front_addr = &front_addr;
            let gate = Arc::clone(&gate);
            let latencies = Arc::clone(&latencies);
            let campaigns = Arc::clone(&campaigns);
            let cells = Arc::clone(&cells);
            let retries = Arc::clone(&retries);
            let spec = &config.spec;
            let rounds = config.campaigns_per_client;
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(front_addr) else {
                    return;
                };
                for round in 0..rounds {
                    let _turn = gate.enter();
                    let t0 = Instant::now();
                    let seed = (client_id as u64) << 32 | round as u64;
                    let mut attempt = 0u32;
                    let accepted = loop {
                        match client.submit(spec) {
                            Ok(Submission::Accepted { .. }) => break true,
                            Ok(Submission::Rejected { retry_after_ms, .. }) => {
                                retries.fetch_add(1, Ordering::Relaxed);
                                if retry_after_ms == 0 || attempt >= 16 {
                                    break false;
                                }
                                std::thread::sleep(Duration::from_millis(
                                    adas_serve::backoff::delay_ms(retry_after_ms, attempt, seed),
                                ));
                                attempt += 1;
                            }
                            Err(_) => break false,
                        }
                    };
                    if !accepted {
                        return;
                    }
                    let Ok((streamed, state)) = client.stream_results(|_, _| {}) else {
                        return;
                    };
                    if state != adas_serve::JobState::Done {
                        return;
                    }
                    latencies.record(t0.elapsed());
                    campaigns.fetch_add(1, Ordering::Relaxed);
                    cells.fetch_add(streamed.len() as u64, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = started.elapsed();

    // Tear down: front first (stops accepting), then the fleet.
    if let Ok(mut c) = Client::connect(&front_addr) {
        let _ = c.shutdown();
    }
    let _ = front_thread.join();
    fleet_handle.stop();
    stop_workers(fleet);

    let cells = cells.load(Ordering::Relaxed);
    let elapsed_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
    Ok(BenchPoint {
        workers,
        clients,
        campaigns: campaigns.load(Ordering::Relaxed),
        cells,
        elapsed_ms,
        cells_per_sec: if elapsed.as_secs_f64() > 0.0 {
            cells as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_le_us: latencies.quantile_us(0.50),
        p99_le_us: latencies.quantile_us(0.99),
        retries: retries.load(Ordering::Relaxed),
    })
}

/// Runs the full sweep, logging each point to stderr.
///
/// # Errors
///
/// Propagates the first point that fails to set up.
pub fn run(config: &BenchConfig) -> Result<Vec<BenchPoint>, String> {
    let mut points = Vec::new();
    for &workers in &sweep(config.max_workers) {
        for &clients in &sweep(config.max_clients) {
            let point = run_point(workers, clients, config)?;
            eprintln!(
                "[bench] workers={:>2} clients={:>2} → {:>8.1} cells/s  p50≤{}µs p99≤{}µs  \
                 ({} campaigns, {} retries)",
                point.workers,
                point.clients,
                point.cells_per_sec,
                point.p50_le_us,
                point.p99_le_us,
                point.campaigns,
                point.retries,
            );
            points.push(point);
        }
    }
    Ok(points)
}

/// Serialises the curve as the `results/SERVE_bench.json` document.
#[must_use]
pub fn to_json(config: &BenchConfig, points: &[BenchPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{ \"workers\": {}, \"clients\": {}, \"campaigns\": {}, \"cells\": {}, \
                 \"elapsed_ms\": {}, \"cells_per_sec\": {:.1}, \"p50_le_us\": {}, \"p99_le_us\": {}, \
                 \"retries\": {} }}",
                p.workers,
                p.clients,
                p.campaigns,
                p.cells,
                p.elapsed_ms,
                p.cells_per_sec,
                p.p50_le_us,
                p.p99_le_us,
                p.retries,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"fabric saturation\",\n  \"grid\": {{ \"cells\": {}, \"reps\": {}, \
         \"max_steps\": {} }},\n  \"admit\": {},\n  \"campaigns_per_client\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        config.spec.cells.len(),
        config.spec.repetitions,
        config.spec.max_steps,
        config.admit,
        config.campaigns_per_client,
        rows.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::sweep;

    #[test]
    fn sweep_is_powers_of_two_ending_at_max() {
        assert_eq!(sweep(1), vec![1]);
        assert_eq!(sweep(2), vec![1, 2]);
        assert_eq!(sweep(4), vec![1, 2, 4]);
        assert_eq!(sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(sweep(8), vec![1, 2, 4, 8]);
    }
}
