//! The coordinator: shards a job across the fleet, re-dispatches items
//! from dead or slow workers, and merges streamed results in
//! deterministic global order.
//!
//! # Dispatch algorithm
//!
//! Campaign grids and fuzz-farm seed lists run through one engine, driven
//! by the private `ShardedJob` trait. A job runs in **rounds**. Each
//! round routes every still-missing item over a consistent-hash ring built
//! from the *currently live* workers (so warm cells stay put while
//! everyone is healthy, and only a dead worker's items move), then
//! dispatches one shard per worker on its own data connection and streams
//! results into the merge buffer. A worker whose connection errors or
//! stalls past the deadline is marked dead; its unfinished items simply
//! remain missing and the next round re-routes them across the survivors.
//! Rejections that hint a retry delay retry on the same worker with the
//! client backoff schedule — a busy worker is not a dead worker.
//!
//! # Determinism
//!
//! The merge buffer is indexed by global position and emits results as a
//! strict in-order prefix: item *k* is emitted only after every item
//! `< k`. It keeps only the first result per index, and only results that
//! answer the shard's own assignment. Arrival order — which worker
//! answered first, how often an item was re-dispatched — can never reorder
//! or duplicate output, so a sharded campaign is byte-identical to a
//! single-daemon or in-process run of the same grid.

use crate::fleet::Fleet;
use crate::ring::HashRing;
use crate::FabricError;
use adas_core::{CampaignSpec, CellStats};
use adas_fuzz::farm::{self, FarmSummary, FuzzJobSpec, SessionOutcome};
use adas_serve::sink::{self, StoreSink};
use adas_serve::{Client, JobState, ProtocolError, Submission};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where the coordinator persists deduped shrunk repros after a fuzz
/// farm job (unset = no repro persistence).
pub const FUZZ_REPRO_DIR_ENV: &str = "ADAS_FUZZ_FARM_REPRO_DIR";

/// Rounds with neither progress nor a fleet change before a campaign is
/// declared stuck (workers persistently rejecting or wedged).
const MAX_STALLED_ROUNDS: u32 = 8;

/// Submission attempts per assignment before yielding to the next round.
const ASSIGN_ATTEMPTS: u32 = 6;

/// Fabric topology and tuning, usually from `ADAS_FABRIC_*`.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker dial addresses (`host:port`, configuration order = ring
    /// slot order).
    pub workers: Vec<String>,
    /// Heartbeat probe interval.
    pub heartbeat: Duration,
    /// Per-frame stall deadline: a worker silent this long mid-stream (or
    /// unresponsive to probes) is dead.
    pub deadline: Duration,
    /// Virtual ring points per worker.
    pub vnodes: usize,
    /// Concurrent campaigns admitted by the coordinator front-end.
    pub admit: usize,
    /// Fleet epoch sent with registrations.
    pub epoch: u64,
}

impl FabricConfig {
    /// Configuration from `ADAS_FABRIC_WORKERS` (comma-separated
    /// addresses), `ADAS_FABRIC_HEARTBEAT_MS`, `ADAS_FABRIC_DEADLINE_MS`,
    /// `ADAS_FABRIC_VNODES`, and `ADAS_FABRIC_ADMIT`, through the
    /// hardened `adas_parallel::env` parsers.
    #[must_use]
    pub fn from_env() -> Self {
        let workers = adas_parallel::env::raw("ADAS_FABRIC_WORKERS")
            .map(|list| {
                list.split(',')
                    .map(|a| a.trim().to_owned())
                    .filter(|a| !a.is_empty())
                    .collect()
            })
            .unwrap_or_default();
        let heartbeat_ms: u64 = adas_parallel::env::parse_or(
            "ADAS_FABRIC_HEARTBEAT_MS",
            "a probe interval in ms",
            1000,
        );
        let deadline_ms: u64 = adas_parallel::env::parse_or(
            "ADAS_FABRIC_DEADLINE_MS",
            "a stall deadline in ms",
            30_000,
        );
        Self {
            workers,
            heartbeat: Duration::from_millis(heartbeat_ms.max(10)),
            deadline: Duration::from_millis(deadline_ms.max(100)),
            vnodes: adas_parallel::env::parse_or(
                "ADAS_FABRIC_VNODES",
                "virtual nodes ≥ 1",
                64usize,
            )
            .clamp(1, 4096),
            admit: adas_parallel::env::parse_or(
                "ADAS_FABRIC_ADMIT",
                "admitted campaigns ≥ 1",
                4usize,
            )
            .max(1),
            epoch: 1,
        }
    }
}

/// Coordinator-side counters, snapshotted into the `Metrics` frame.
#[derive(Debug, Default)]
pub struct FabricMetrics {
    /// Campaigns merged to completion.
    pub campaigns: AtomicU64,
    /// Campaigns bounced at the admission limit.
    pub rejected: AtomicU64,
    /// Cells dispatched (re-dispatches counted again).
    pub cells_assigned: AtomicU64,
    /// Cells merged (each global index exactly once).
    pub cells_merged: AtomicU64,
    /// Late/duplicate results dropped by the merge buffer.
    pub duplicates_dropped: AtomicU64,
    /// Extra rounds forced by death/slowness/backpressure.
    pub redispatch_rounds: AtomicU64,
    /// Queue-full rejections absorbed by assignment backoff.
    pub assign_rejections: AtomicU64,
    /// Fuzz farm jobs folded to completion.
    pub fuzz_jobs: AtomicU64,
    /// Fuzz sessions merged (each seed exactly once).
    pub fuzz_sessions: AtomicU64,
    /// Deduped findings surviving the fleet-wide fold.
    pub fuzz_findings: AtomicU64,
    /// Findings dropped as behavioural duplicates by the fold.
    pub fuzz_dedup_hits: AtomicU64,
}

/// In-order merge buffer for one sharded job: slots by global index,
/// first write wins, emitting a strict prefix stream.
struct Merge<'a, T> {
    slots: Vec<Option<T>>,
    next_emit: usize,
    on_item: &'a mut (dyn FnMut(u32, &T) + Send),
    duplicates: u64,
}

impl<'a, T> Merge<'a, T> {
    fn new(len: usize, on_item: &'a mut (dyn FnMut(u32, &T) + Send)) -> Self {
        Self {
            slots: std::iter::repeat_with(|| None).take(len).collect(),
            next_emit: 0,
            on_item,
            duplicates: 0,
        }
    }

    /// Inserts one result streamed back for the shard `assigned` (sorted
    /// global indices). A result claiming no slot, a slot outside its
    /// shard's assignment, or a slot already filled (re-dispatch races,
    /// late frames from timed-out workers) is dropped as a duplicate.
    /// Emits every newly contiguous item in global order.
    fn insert(&mut self, assigned: &[u32], claim: Option<u32>, item: T) {
        let slot = claim
            .filter(|i| assigned.binary_search(i).is_ok())
            .and_then(|i| self.slots.get_mut(i as usize))
            .filter(|slot| slot.is_none());
        let Some(slot) = slot else {
            self.duplicates += 1;
            return;
        };
        *slot = Some(item);
        while let Some(Some(item)) = self.slots.get(self.next_emit) {
            (self.on_item)(self.next_emit as u32, item);
            self.next_emit += 1;
        }
    }

    fn missing(&self) -> Vec<u32> {
        (0..self.slots.len() as u32)
            .filter(|&i| self.slots[i as usize].is_none())
            .collect()
    }
}

/// One kind of job the coordinator shards: everything the round loop
/// needs to route, dispatch, and merge it. A new job kind implements this
/// once and reuses the rounds, re-dispatch, assignment backoff, and merge.
trait ShardedJob: Sync {
    /// One streamed result.
    type Item: Send;
    /// What the items are called in re-dispatch logs.
    const UNIT: &'static str;
    /// Items in the job (global indices `0..len`).
    fn len(&self) -> usize;
    /// Hash-ring routing key of item `index`.
    fn route_key(&self, index: usize) -> u64;
    /// Per-frame stall deadline on a shard's data connection. It must
    /// cover the slowest single result; the default suits kinds whose
    /// every item, even a cold compute, streams its own frame promptly.
    fn frame_deadline(&self, fabric_deadline: Duration) -> Duration {
        fabric_deadline
    }
    /// The metrics counter dispatched items add to, if this kind keeps one.
    fn assigned_counter(_metrics: &FabricMetrics) -> Option<&AtomicU64> {
        None
    }
    /// Sends the assignment of `shard` (sorted global indices).
    fn assign(
        &self,
        client: &mut Client,
        assignment_id: u64,
        shard: &[u32],
    ) -> Result<Submission, ProtocolError>;
    /// Streams an accepted shard back: `on_item(claim, item)` per result,
    /// where `claim` is the global index the result answers (`None` when it
    /// answers none of the shard's items).
    fn stream(
        &self,
        client: &mut Client,
        shard: &[u32],
        on_item: &mut dyn FnMut(Option<u32>, Self::Item),
    ) -> Result<JobState, ProtocolError>;
}

impl ShardedJob for CampaignSpec {
    type Item = CellStats;
    const UNIT: &'static str = "cells";

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn route_key(&self, index: usize) -> u64 {
        CampaignSpec::route_key(self, &self.cells[index])
    }

    fn assigned_counter(metrics: &FabricMetrics) -> Option<&AtomicU64> {
        Some(&metrics.cells_assigned)
    }

    fn assign(
        &self,
        client: &mut Client,
        assignment_id: u64,
        shard: &[u32],
    ) -> Result<Submission, ProtocolError> {
        let sub = CampaignSpec {
            cells: shard.iter().map(|&i| self.cells[i as usize]).collect(),
            ..self.clone()
        };
        client.assign_cells(assignment_id, shard, &sub)
    }

    fn stream(
        &self,
        client: &mut Client,
        _shard: &[u32],
        on_item: &mut dyn FnMut(Option<u32>, CellStats),
    ) -> Result<JobState, ProtocolError> {
        client
            .stream_results(|global_index, stats| on_item(Some(global_index), *stats))
            .map(|(_, state)| state)
    }
}

impl ShardedJob for FuzzJobSpec {
    type Item = SessionOutcome;
    const UNIT: &'static str = "sessions";

    fn len(&self) -> usize {
        self.seeds.len()
    }

    fn route_key(&self, index: usize) -> u64 {
        self.seeds[index]
    }

    // The stream heartbeats one frame per finished session, so the
    // deadline must cover at least one session: time-boxed jobs widen it
    // to a generous multiple of the budget.
    fn frame_deadline(&self, fabric_deadline: Duration) -> Duration {
        fabric_deadline.max(Duration::from_millis(
            u64::from(self.max_secs_ms).saturating_mul(4),
        ))
    }

    fn assign(
        &self,
        client: &mut Client,
        assignment_id: u64,
        shard: &[u32],
    ) -> Result<Submission, ProtocolError> {
        let sub = FuzzJobSpec {
            seeds: shard.iter().map(|&i| self.seeds[i as usize]).collect(),
            ..self.clone()
        };
        client.assign_fuzz(assignment_id, &sub)
    }

    // A worker streams one session per assigned seed, in assignment order:
    // the k-th session answers `shard[k]` only if it carries that seed.
    fn stream(
        &self,
        client: &mut Client,
        shard: &[u32],
        on_item: &mut dyn FnMut(Option<u32>, SessionOutcome),
    ) -> Result<JobState, ProtocolError> {
        let mut k = 0;
        client
            .stream_fuzz(|outcome| {
                let claim = shard
                    .get(k)
                    .copied()
                    .filter(|&i| self.seeds[i as usize] == outcome.seed);
                k += 1;
                on_item(claim, outcome.clone());
            })
            .map(|(_, state)| state)
    }
}

/// A connected coordinator: fleet handle + dispatch state.
#[derive(Debug)]
pub struct Coordinator {
    /// The worker fleet (shared with the monitor thread).
    pub fleet: Arc<Fleet>,
    /// Live counters.
    pub metrics: FabricMetrics,
    /// Optional `ADAS_STORE_DIR` write-through for fuzz findings — the
    /// coordinator is the single store writer for farm jobs (workers
    /// skip persistence on assigned slices to avoid double-writes).
    store_sink: StoreSink,
    vnodes: usize,
    deadline: Duration,
    assignment_ids: AtomicU64,
}

impl Coordinator {
    /// Wraps a connected fleet.
    #[must_use]
    pub fn new(fleet: Arc<Fleet>, config: &FabricConfig) -> Self {
        Self {
            fleet,
            metrics: FabricMetrics::default(),
            store_sink: StoreSink::from_env(),
            vnodes: config.vnodes,
            deadline: config.deadline,
            assignment_ids: AtomicU64::new(1),
        }
    }

    /// Connects the fleet and starts its monitor in one step.
    ///
    /// # Errors
    ///
    /// Fleet connection failures ([`FabricError::NoWorkers`] /
    /// [`FabricError::NoLiveWorkers`]).
    pub fn connect(config: &FabricConfig) -> Result<Self, FabricError> {
        let fleet = Fleet::connect(
            &config.workers,
            config.epoch,
            config.heartbeat,
            config.deadline,
        )?;
        fleet.start_monitor();
        Ok(Self::new(fleet, config))
    }

    /// Runs one campaign across the fleet: shards by routing key, streams
    /// `on_cell(global_index, stats)` in strict grid order, and returns
    /// the full grid (index order).
    ///
    /// # Errors
    ///
    /// [`FabricError::NoLiveWorkers`] when the whole fleet is dead with
    /// cells outstanding; [`FabricError::Stalled`] when live workers stop
    /// making progress.
    pub fn run_campaign(
        &self,
        spec: &CampaignSpec,
        mut on_cell: impl FnMut(u32, &CellStats) + Send,
    ) -> Result<Vec<CellStats>, FabricError> {
        if !spec.validate() {
            return Err(FabricError::InvalidSpec);
        }
        let cells = self.run_sharded(spec, &mut on_cell)?;
        self.metrics.campaigns.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .cells_merged
            .fetch_add(cells.len() as u64, Ordering::Relaxed);
        Ok(cells)
    }

    /// Runs one fuzz-farm job across the fleet: shards the session seeds
    /// over the live workers, streams `on_session` in strict seed order,
    /// folds every outcome into the fleet-wide deduped finding set, and
    /// persists deduped repros ([`FUZZ_REPRO_DIR_ENV`]) plus store rows
    /// (`ADAS_STORE_DIR`) centrally.
    ///
    /// Determinism: the fold runs over the complete outcome set in global
    /// `spec.seeds` order with the same first-write-wins discipline a
    /// single daemon applies, so the deduped finding set and the shrunk
    /// repro bytes are independent of worker count, shard routing, and
    /// mid-job worker deaths.
    ///
    /// # Errors
    ///
    /// [`FabricError::InvalidSpec`] for a spec failing validation,
    /// [`FabricError::NoLiveWorkers`] when the whole fleet is dead with
    /// sessions outstanding, [`FabricError::Stalled`] when live workers
    /// stop making progress.
    pub fn run_fuzz_farm(
        &self,
        spec: &FuzzJobSpec,
        mut on_session: impl FnMut(&SessionOutcome) + Send,
    ) -> Result<FarmSummary, FabricError> {
        if !spec.validate() {
            return Err(FabricError::InvalidSpec);
        }
        let outcomes = self.run_sharded(spec, &mut |_, outcome| on_session(outcome))?;
        // The global fold: same code path a single daemon runs, over the
        // complete outcome set in spec.seeds order.
        let summary = farm::fold(spec, &outcomes);
        self.metrics.fuzz_jobs.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .fuzz_sessions
            .fetch_add(summary.sessions, Ordering::Relaxed);
        self.metrics
            .fuzz_findings
            .fetch_add(summary.findings.len() as u64, Ordering::Relaxed);
        self.metrics
            .fuzz_dedup_hits
            .fetch_add(summary.dedup_hits, Ordering::Relaxed);

        if self.store_sink.enabled() {
            let rows: Vec<adas_store::FindingRow> =
                summary.findings.iter().map(sink::finding_row).collect();
            self.store_sink.findings(&rows);
        }
        if let Some(dir) = adas_core::env::raw(FUZZ_REPRO_DIR_ENV) {
            match farm::save_repros(&summary.findings, std::path::Path::new(&dir)) {
                Ok(paths) => {
                    if !paths.is_empty() {
                        eprintln!("[fabric] persisted {} repros under {dir}", paths.len());
                    }
                }
                Err(e) => eprintln!("[fabric] repro persistence failed: {e}"),
            }
        }
        Ok(summary)
    }

    /// The round loop shared by every job kind: routes every missing item
    /// over a ring of the live workers, dispatches one shard per worker in
    /// parallel, merges what streams back, and repeats until the job is
    /// complete. Returns the items in global index order.
    fn run_sharded<J: ShardedJob>(
        &self,
        job: &J,
        on_item: &mut (dyn FnMut(u32, &J::Item) + Send),
    ) -> Result<Vec<J::Item>, FabricError> {
        let keys: Vec<u64> = (0..job.len()).map(|i| job.route_key(i)).collect();
        let merge = Mutex::new(Merge::new(job.len(), on_item));

        let mut round = 0u32;
        let mut stalled = 0u32;
        loop {
            let missing = merge.lock().expect("merge lock").missing();
            if missing.is_empty() {
                break;
            }
            let live = self.fleet.live_slots();
            if live.is_empty() {
                return Err(FabricError::NoLiveWorkers);
            }
            if round > 0 {
                self.metrics
                    .redispatch_rounds
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "[fabric] round {round}: re-dispatching {} {} across {} live workers",
                    missing.len(),
                    J::UNIT,
                    live.len()
                );
            }
            // Route the missing items over the live subset of the ring;
            // each shard stays sorted because `missing` is.
            let ring = HashRing::new(
                &live
                    .iter()
                    .map(|&s| self.fleet.workers[s].id)
                    .collect::<Vec<_>>(),
                self.vnodes,
            );
            let mut shards: Vec<Vec<u32>> = vec![Vec::new(); live.len()];
            for &index in &missing {
                let slot = ring.route(keys[index as usize]).expect("non-empty ring");
                shards[slot].push(index);
            }
            let before = missing.len();
            let fleet_before = live.len();
            std::thread::scope(|scope| {
                for (ring_slot, shard) in shards.into_iter().enumerate() {
                    if shard.is_empty() {
                        continue;
                    }
                    let fleet_slot = live[ring_slot];
                    let merge = &merge;
                    scope.spawn(move || self.dispatch(fleet_slot, job, &shard, merge));
                }
            });
            let after = merge.lock().expect("merge lock").missing().len();
            let fleet_after = self.fleet.live_slots().len();
            if after == before && fleet_after == fleet_before {
                stalled += 1;
                if stalled >= MAX_STALLED_ROUNDS {
                    return Err(FabricError::Stalled {
                        missing: after,
                        rounds: round + 1,
                    });
                }
            } else {
                stalled = 0;
            }
            round += 1;
        }

        let merged = merge.into_inner().expect("merge lock");
        self.metrics
            .duplicates_dropped
            .fetch_add(merged.duplicates, Ordering::Relaxed);
        Ok(merged
            .slots
            .into_iter()
            .map(|s| s.expect("merge complete"))
            .collect())
    }

    /// Dispatches one worker's shard on a fresh data connection and drains
    /// its result stream into the merge buffer. Transport failures and
    /// stream stalls mark the worker dead; its unfinished items stay
    /// missing for the next round.
    fn dispatch<J: ShardedJob>(
        &self,
        fleet_slot: usize,
        job: &J,
        shard: &[u32],
        merge: &Mutex<Merge<'_, J::Item>>,
    ) {
        let worker = &self.fleet.workers[fleet_slot];
        let assignment_id = self.assignment_ids.fetch_add(1, Ordering::Relaxed);
        if let Some(assigned) = J::assigned_counter(&self.metrics) {
            assigned.fetch_add(shard.len() as u64, Ordering::Relaxed);
        }

        let mut client = match Client::connect(&worker.addr) {
            Ok(c) => c,
            Err(_) => return self.fleet.mark_dead(fleet_slot),
        };
        // The stall deadline applies per frame: any single read blocking
        // this long means the worker is wedged.
        if client
            .set_read_timeout(Some(job.frame_deadline(self.deadline)))
            .is_err()
        {
            return self.fleet.mark_dead(fleet_slot);
        }

        // A rejection is backpressure or a drain, not death: retry one
        // that hints a delay on the backoff schedule, and give the items
        // back to the next round after `ASSIGN_ATTEMPTS` or on a
        // don't-retry (`0`) hint.
        let mut attempt = 0u32;
        loop {
            match job.assign(&mut client, assignment_id, shard) {
                Ok(Submission::Accepted { .. }) => break,
                Ok(Submission::Rejected { retry_after_ms, .. }) => {
                    self.metrics
                        .assign_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    if retry_after_ms == 0 || attempt + 1 >= ASSIGN_ATTEMPTS {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(adas_serve::backoff::delay_ms(
                        retry_after_ms,
                        attempt,
                        assignment_id,
                    )));
                    attempt += 1;
                }
                Err(_) => return self.fleet.mark_dead(fleet_slot),
            }
        }

        let streamed = job.stream(&mut client, shard, &mut |claim, item| {
            merge.lock().expect("merge lock").insert(shard, claim, item);
        });
        // A cancelled/failed assignment or any transport/stall error:
        // treat the worker as unhealthy and let re-dispatch recover.
        if !matches!(streamed, Ok(JobState::Done)) {
            self.fleet.mark_dead(fleet_slot);
        }
    }

    /// Coordinator metrics snapshot (JSON, like the serve metrics).
    #[must_use]
    pub fn metrics_json(&self, active_campaigns: usize, admit: usize) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let m = &self.metrics;
        let (store_cells, store_findings) = self.store_sink.appended();
        format!(
            "{{\n  \"role\": \"coordinator\",\n  \"admission\": {{ \"active\": {active_campaigns}, \
             \"limit\": {admit} }},\n  \"campaigns\": {{ \"done\": {}, \"rejected\": {} }},\n  \
             \"cells\": {{ \"assigned\": {}, \"merged\": {}, \"duplicates_dropped\": {} }},\n  \
             \"fuzz\": {{ \"jobs\": {}, \"sessions\": {}, \"findings\": {}, \
             \"dedup_hits\": {} }},\n  \
             \"store\": {{ \"enabled\": {}, \"cells\": {store_cells}, \
             \"findings\": {store_findings} }},\n  \
             \"redispatch_rounds\": {},\n  \"assign_rejections\": {},\n  \
             \"workers_lost\": {},\n  \"workers_revived\": {},\n  \"workers\": {}\n}}\n",
            g(&m.campaigns),
            g(&m.rejected),
            g(&m.cells_assigned),
            g(&m.cells_merged),
            g(&m.duplicates_dropped),
            g(&m.fuzz_jobs),
            g(&m.fuzz_sessions),
            g(&m.fuzz_findings),
            g(&m.fuzz_dedup_hits),
            self.store_sink.enabled(),
            g(&m.redispatch_rounds),
            g(&m.assign_rejections),
            self.fleet.lost.load(Ordering::Relaxed),
            self.fleet.revived.load(Ordering::Relaxed),
            self.fleet.status_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::Merge;

    #[test]
    fn merge_keeps_only_assigned_first_writes_and_emits_a_strict_prefix() {
        let mut emitted = Vec::new();
        let mut on_item = |index: u32, item: &&'static str| emitted.push((index, *item));
        let mut merge = Merge::new(4, &mut on_item);
        let shard = [1, 3];

        // Outside this shard's assignment, out of range, or claiming no
        // slot: dropped as duplicates, nothing emitted.
        merge.insert(&shard, Some(0), "stray");
        merge.insert(&[1, 3, 9], Some(9), "out of range");
        merge.insert(&shard, None, "unplaced");
        assert_eq!(merge.duplicates, 3);
        assert_eq!(merge.missing(), vec![0, 1, 2, 3]);

        // Slot 1 fills but waits for slot 0; the second write loses.
        merge.insert(&shard, Some(1), "first");
        merge.insert(&shard, Some(1), "second");
        assert_eq!(merge.duplicates, 4);
        assert_eq!(merge.next_emit, 0);

        // Slot 0 releases the prefix 0, 1; slot 3 waits for slot 2.
        merge.insert(&[0, 2], Some(0), "zero");
        merge.insert(&shard, Some(3), "three");
        assert_eq!(merge.next_emit, 2);
        merge.insert(&[0, 2], Some(2), "two");
        assert_eq!(merge.missing(), Vec::<u32>::new());
        drop(merge);
        assert_eq!(
            emitted,
            vec![(0, "zero"), (1, "first"), (2, "two"), (3, "three")]
        );
    }
}
