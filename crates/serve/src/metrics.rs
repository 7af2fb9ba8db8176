//! Live server metrics: monotonic counters plus per-phase latency
//! histograms, snapshotted as JSON for the `Metrics` request and the CI
//! artifact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sub-buckets per octave: a bucket spans at most 1/8 of its lower bound,
/// so a reported bound is within 12.5 % of every sample in it.
const SUB: usize = 8;
/// `log2(SUB)`.
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Values below [`SUB`] µs get one exact bucket each; every octave above
/// gets [`SUB`] buckets, up to `u64::MAX` µs.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a sample of `us` microseconds.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros(); // ≥ SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (us >> shift) as usize - SUB;
    SUB + shift as usize * SUB + sub
}

/// Largest value (µs) bucket `i` holds.
fn bucket_le_us(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = ((i - SUB) / SUB) as u32;
    let first = ((SUB + (i - SUB) % SUB) as u64) << shift;
    first + ((1u64 << shift) - 1)
}

/// A lock-free log-linear latency histogram in microseconds: eight
/// sub-buckets per octave, so each bucket bound is within 12.5 % of the
/// samples it counts. Fixed size; recording is a few atomic adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the `q` quantile: the largest value of the
    /// bucket holding it, capped at the largest sample. 0 when empty.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64) * q).ceil().max(1.0) as u64;
        let max = self.max_us.load(Ordering::Relaxed);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_le_us(i).min(max);
            }
        }
        max
    }

    /// JSON object: count, mean/max, quantile bounds, non-empty buckets
    /// (all in µs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let count = self.count();
        let total_us = self.total_us.load(Ordering::Relaxed);
        let mean_us = if count == 0 {
            0.0
        } else {
            total_us as f64 / count as f64
        };
        let max_us = self.max_us.load(Ordering::Relaxed);
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| format!("{{ \"le_us\": {}, \"count\": {n} }}", bucket_le_us(i)))
            })
            .collect();
        format!(
            "{{ \"count\": {count}, \"mean_us\": {mean_us:.1}, \"max_us\": {max_us}, \
             \"p50_le_us\": {}, \"p99_le_us\": {}, \"buckets\": [{}] }}",
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            buckets.join(", "),
        )
    }
}

/// All counters and histograms the `Metrics` request snapshots.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    /// Campaigns accepted into the queue.
    pub jobs_submitted: AtomicU64,
    /// Campaigns bounced with backpressure.
    pub jobs_rejected: AtomicU64,
    /// Campaigns that streamed every cell.
    pub jobs_done: AtomicU64,
    /// Campaigns cancelled before completion.
    pub jobs_cancelled: AtomicU64,
    /// Campaigns aborted by internal errors.
    pub jobs_failed: AtomicU64,
    /// Cells streamed (any source).
    pub cells_done: AtomicU64,
    /// Cells answered from the in-memory memo.
    pub cells_memo_hits: AtomicU64,
    /// Cells answered from the on-disk artifact cache.
    pub cells_disk_hits: AtomicU64,
    /// Cells computed by running the simulator (disk tier enabled: the
    /// result was written back).
    pub cells_computed: AtomicU64,
    /// Cells computed with the disk tier disabled (cache bypass).
    pub cells_bypass: AtomicU64,
    /// Individual simulation runs executed (cache hits excluded).
    pub runs_executed: AtomicU64,
    /// Replay verifications served.
    pub replays: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Frames rejected as malformed / unknown / oversized.
    pub protocol_errors: AtomicU64,
    /// Fabric: `RegisterWorker` handshakes served.
    pub workers_registered: AtomicU64,
    /// Fabric: heartbeat probes answered.
    pub heartbeats: AtomicU64,
    /// Fabric: `AssignCells` slices accepted for streaming.
    pub assignments: AtomicU64,
    /// Fabric: graceful `WorkerDrain` requests honoured.
    pub worker_drains: AtomicU64,
    /// Fuzz farm: `SubmitFuzz`/`AssignFuzz` jobs accepted.
    pub fuzz_jobs: AtomicU64,
    /// Fuzz farm: coverage-guided sessions completed.
    pub fuzz_sessions: AtomicU64,
    /// Fuzz farm: simulation runs consumed by sessions.
    pub fuzz_runs: AtomicU64,
    /// Fuzz farm: sum of final per-session corpus sizes.
    pub fuzz_corpus: AtomicU64,
    /// Fuzz farm: findings surviving the local `(oracle, signature)` fold.
    pub fuzz_findings: AtomicU64,
    /// Fuzz farm: findings dropped as duplicates by that fold.
    pub fuzz_dedup_hits: AtomicU64,
    /// Fuzz farm: deduped findings per oracle family, indexed by
    /// `OracleKind::code()`.
    pub fuzz_by_oracle: [AtomicU64; 6],
    /// Fuzz farm: per-session wall time.
    pub fuzz_session_wall: Histogram,
    /// Queue-entry to execution-start latency.
    pub queue_wait: Histogram,
    /// Per-cell wall time (hit or compute).
    pub cell_wall: Histogram,
    /// Lazy model-training wall time.
    pub model_train: Histogram,
    /// Instantaneous gauges owned by the server (queued, running).
    gauges: Mutex<(usize, usize)>,
}

impl ServeMetrics {
    /// Fresh metrics with the uptime clock started.
    #[must_use]
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            jobs_submitted: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            cells_done: AtomicU64::new(0),
            cells_memo_hits: AtomicU64::new(0),
            cells_disk_hits: AtomicU64::new(0),
            cells_computed: AtomicU64::new(0),
            cells_bypass: AtomicU64::new(0),
            runs_executed: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            workers_registered: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            assignments: AtomicU64::new(0),
            worker_drains: AtomicU64::new(0),
            fuzz_jobs: AtomicU64::new(0),
            fuzz_sessions: AtomicU64::new(0),
            fuzz_runs: AtomicU64::new(0),
            fuzz_corpus: AtomicU64::new(0),
            fuzz_findings: AtomicU64::new(0),
            fuzz_dedup_hits: AtomicU64::new(0),
            fuzz_by_oracle: Default::default(),
            fuzz_session_wall: Histogram::default(),
            queue_wait: Histogram::default(),
            cell_wall: Histogram::default(),
            model_train: Histogram::default(),
            gauges: Mutex::new((0, 0)),
        }
    }

    /// Updates the instantaneous queued/running gauges.
    pub fn set_gauges(&self, queued: usize, running: usize) {
        *self.gauges.lock().expect("gauges lock") = (queued, running);
    }

    /// The instantaneous `(queued, running)` gauges.
    #[must_use]
    pub fn gauges(&self) -> (usize, usize) {
        *self.gauges.lock().expect("gauges lock")
    }

    /// Full JSON snapshot (schema documented in the README). `cache` is the
    /// artifact cache's own hit/miss accounting, folded into the same
    /// document so one scrape tells the whole story; `queue_depth` /
    /// `queue_capacity` are the live job-queue occupancy.
    #[must_use]
    pub fn snapshot_json(
        &self,
        cache: &adas_core::ArtifactCache,
        queue_depth: usize,
        queue_capacity: usize,
    ) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let uptime = self.started.elapsed().as_secs_f64();
        let cells_done = g(&self.cells_done);
        let cells_per_sec = if uptime > 0.0 {
            cells_done as f64 / uptime
        } else {
            0.0
        };
        let hits = g(&self.cells_memo_hits) + g(&self.cells_disk_hits);
        let hit_rate = if cells_done > 0 {
            hits as f64 / cells_done as f64
        } else {
            0.0
        };
        let (queued, running) = *self.gauges.lock().expect("gauges lock");
        let cs = cache.stats();
        let by_oracle = self
            .fuzz_by_oracle
            .iter()
            .map(|a| a.load(Ordering::Relaxed).to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"uptime_s\": {uptime:.3},\n  \"jobs\": {{ \"submitted\": {}, \"rejected\": {}, \
             \"done\": {}, \"cancelled\": {}, \"failed\": {}, \"queued\": {queued}, \
             \"running\": {running} }},\n  \
             \"queue\": {{ \"depth\": {queue_depth}, \"capacity\": {queue_capacity}, \
             \"running\": {running} }},\n  \"cells\": {{ \"done\": {cells_done}, \
             \"memo_hits\": {}, \"disk_hits\": {}, \"computed\": {}, \"bypass\": {}, \
             \"hit_rate\": {hit_rate:.4}, \"per_sec\": {cells_per_sec:.3} }},\n  \
             \"runs_executed\": {},\n  \"replays\": {},\n  \
             \"connections\": {},\n  \"protocol_errors\": {},\n  \
             \"fabric\": {{ \"workers_registered\": {}, \"heartbeats\": {}, \
             \"assignments\": {}, \"worker_drains\": {} }},\n  \
             \"fuzz\": {{ \"jobs\": {}, \"sessions\": {}, \"runs\": {}, \"corpus\": {}, \
             \"findings\": {}, \"dedup_hits\": {}, \"by_oracle\": [{by_oracle}] }},\n  \
             \"artifact_cache\": {{ \"enabled\": {}, \"hits\": {}, \"misses\": {}, \
             \"writes\": {}, \"bypasses\": {} }},\n  \"latency\": {{\n    \"queue_wait_us\": {},\n    \
             \"cell_wall_us\": {},\n    \"model_train_us\": {},\n    \"fuzz_session_us\": {}\n  }}\n}}\n",
            g(&self.jobs_submitted),
            g(&self.jobs_rejected),
            g(&self.jobs_done),
            g(&self.jobs_cancelled),
            g(&self.jobs_failed),
            g(&self.cells_memo_hits),
            g(&self.cells_disk_hits),
            g(&self.cells_computed),
            g(&self.cells_bypass),
            g(&self.runs_executed),
            g(&self.replays),
            g(&self.connections),
            g(&self.protocol_errors),
            g(&self.workers_registered),
            g(&self.heartbeats),
            g(&self.assignments),
            g(&self.worker_drains),
            g(&self.fuzz_jobs),
            g(&self.fuzz_sessions),
            g(&self.fuzz_runs),
            g(&self.fuzz_corpus),
            g(&self.fuzz_findings),
            g(&self.fuzz_dedup_hits),
            cache.is_enabled(),
            cs.hits,
            cs.misses,
            cs.writes,
            cs.bypasses,
            self.queue_wait.to_json(),
            self.cell_wall.to_json(),
            self.model_train.to_json(),
            self.fuzz_session_wall.to_json(),
        )
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        h.record(Duration::from_micros(5)); // exact bucket
        h.record(Duration::from_micros(300)); // [288, 319]
        h.record(Duration::from_micros(3_000)); // [2_816, 3_071]
        h.record(Duration::from_millis(100)); // [98_304, 106_495]
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile_us(0.25), 5);
        assert_eq!(h.quantile_us(0.5), 319);
        assert_eq!(h.quantile_us(0.75), 3_071);
        // The top bucket's bound is capped at the largest sample.
        assert_eq!(h.quantile_us(0.99), 100_000);
        let json = h.to_json();
        assert!(json.contains("\"count\": 4"), "{json}");
        assert!(json.contains("\"p50_le_us\": 319"), "{json}");
        assert!(json.contains("{ \"le_us\": 3071, \"count\": 1 }"), "{json}");
        assert!(!json.contains("_ms"), "{json}");
        assert_eq!(Histogram::default().quantile_us(0.5), 0);
    }

    #[test]
    fn buckets_tile_the_range_within_an_eighth() {
        let mut lo = 0u64;
        for i in 0..BUCKETS {
            let le = bucket_le_us(i);
            assert_eq!(bucket_of(lo), i, "first value of bucket {i}");
            assert_eq!(bucket_of(le), i, "last value of bucket {i}");
            assert!(
                (le - lo) * 8 <= lo.max(1),
                "bucket {i} [{lo}, {le}] too wide"
            );
            if i + 1 < BUCKETS {
                assert_eq!(bucket_of(le + 1), i + 1);
                lo = le + 1;
            } else {
                assert_eq!(le, u64::MAX);
            }
        }
    }

    #[test]
    fn snapshot_is_wellformed_json_shape() {
        let m = ServeMetrics::new();
        m.jobs_submitted.fetch_add(2, Ordering::Relaxed);
        m.cells_done.fetch_add(5, Ordering::Relaxed);
        m.cells_memo_hits.fetch_add(5, Ordering::Relaxed);
        m.set_gauges(1, 1);
        let json = m.snapshot_json(&adas_core::ArtifactCache::disabled(), 3, 8);
        // Structural sanity: balanced braces, expected keys present.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        for key in [
            "\"uptime_s\"",
            "\"jobs\"",
            "\"cells\"",
            "\"bypass\": 0",
            "\"hit_rate\": 1.0000",
            "\"queue\": { \"depth\": 3, \"capacity\": 8",
            "\"fabric\"",
            "\"fuzz\"",
            "\"by_oracle\": [0, 0, 0, 0, 0, 0]",
            "\"queue_wait_us\"",
            "\"protocol_errors\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
