//! Lockstep batch executor: runs many campaign runs in lockstep so the
//! LSTM mitigation advances a whole batch per weights-stationary matvec.
//!
//! Stepped alone, each 10 ms cycle of an ML-protected run pays a
//! one-sample LSTM step whose matvecs are FMA-latency-bound. This module
//! schedules *batch*-at-a-time instead: a work unit is a chunk of
//! consecutive runs that advance together, one pipeline stage per lane
//! per tick. It is the only multi-run driver — every campaign, traced
//! campaign and fuzz batch goes through [`run_lockstep_ctl`]; width 1 is a
//! one-lane batch, which runs [`Platform::step`]'s exact sequence. The
//! per-lane ML hidden/cell panels live in per-worker scratch
//! ([`adas_ml::BatchPredictorState`] / [`adas_ml::BatchInferScratch`]) so
//! a whole campaign allocates a handful of panels total.
//!
//! # Bit identity
//!
//! Batched results are bit-for-bit the results of stepping each run alone
//! with [`Platform::step`], for three reasons:
//!
//! 1. Lanes are independent. Each run owns its `Platform` (world, RNG
//!    streams, monitors); no cross-lane reduction exists anywhere.
//! 2. The per-run operation sequence is unchanged. A lane's cycle is
//!    `begin_step → LSTM forward → finish_step` — exactly how
//!    [`Platform::step`] is composed. A run stepped alone runs its LSTM
//!    as a one-lane [`adas_ml::LstmPredictor::step_batch`], and every
//!    lane's column sees the operation sequence of a lone stream
//!    (asserted bitwise against a scalar oracle by the `adas-ml` tests
//!    and by `tests/batch_equivalence.rs`).
//! 3. Divergence never reorders work. A finished lane stops being live;
//!    the slot refills with the next queued run whose ML panel column is
//!    zeroed ([`adas_ml::BatchPredictorState::reset_lane`]) — the same
//!    zero state a fresh run starts from. Retired / never-filled columns
//!    still flow through the batched matvec and the branch-free gate math
//!    (finite garbage no one reads, and lanes never mix); liveness
//!    ([`adas_ml::BatchPredictorState::set_live`]) only masks the writes
//!    of their new state.
//!
//! Results are keyed by run index and merged in order, so output is also
//! independent of thread count and batch width.

use crate::platform::{PendingCycle, Platform};
use adas_ml::{BatchInferScratch, BatchPredictorState, LstmPredictor, FEATURE_DIM};
use adas_parallel::MapControl;
use adas_recorder::EndReason;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Batches per stolen work unit: each chunk covers `width ×
/// CHUNK_BATCHES` runs, so work-stealing stays balanced (a chunk is a few
/// batch-fills, not the whole campaign) without shrinking batches to the
/// point where every chunk ends with a mostly-drained batch.
const CHUNK_BATCHES: usize = 4;

static TICKS: AtomicU64 = AtomicU64::new(0);
static LANE_STEPS: AtomicU64 = AtomicU64::new(0);
static SLOT_STEPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide occupancy accounting for the batched executor, summed
/// over every chunk since the last [`reset_stats`]. The bench harness
/// snapshots this into `results/BENCH_campaign.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Lockstep ticks executed (one per batch per cycle).
    pub ticks: u64,
    /// Per-lane steps executed (Σ lanes that began a cycle, over ticks).
    pub lane_steps: u64,
    /// Lane-slots available (Σ batch width over ticks).
    pub slot_steps: u64,
}

impl BatchStats {
    /// Mean fraction of batch slots doing useful work per tick, in
    /// `[0, 1]`. `None` when nothing ran batched.
    #[must_use]
    pub fn occupancy(&self) -> Option<f64> {
        (self.slot_steps > 0).then(|| self.lane_steps as f64 / self.slot_steps as f64)
    }
}

/// Snapshot of the process-wide batch counters.
#[must_use]
pub fn stats_snapshot() -> BatchStats {
    BatchStats {
        ticks: TICKS.load(Ordering::Relaxed),
        lane_steps: LANE_STEPS.load(Ordering::Relaxed),
        slot_steps: SLOT_STEPS.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide batch counters (bench harnesses call this
/// between phases).
pub fn reset_stats() {
    TICKS.store(0, Ordering::Relaxed);
    LANE_STEPS.store(0, Ordering::Relaxed);
    SLOT_STEPS.store(0, Ordering::Relaxed);
}

/// Per-worker batched-inference panels: input panel + hidden/cell state +
/// scratch, allocated once per worker and reused across every chunk that
/// worker steals.
struct MlPanels {
    model: Arc<LstmPredictor>,
    x: Vec<f64>,
    /// Hidden/cell panels plus per-lane liveness for the current tick:
    /// only lanes with a pending ML input advance their state (idle slots,
    /// drained chunk tails, and non-ML lanes keep theirs).
    state: BatchPredictorState,
    scratch: BatchInferScratch,
}

impl MlPanels {
    fn new(model: &Arc<LstmPredictor>, width: usize) -> Self {
        Self {
            model: Arc::clone(model),
            x: vec![0.0; FEATURE_DIM * width],
            state: model.batch_state(width),
            scratch: model.batch_scratch(width),
        }
    }

    /// One weights-stationary LSTM step over the live lanes of the batch.
    fn step(&mut self) {
        self.model
            .step_batch(&self.x, &mut self.state, &mut self.scratch);
    }
}

/// Runs `items` through heterogeneous platforms in lockstep batches of
/// `width` lanes, scheduled by the work-stealing executor in chunks of
/// `width × 4` runs, honouring `ctl` for cancellation (all-or-nothing,
/// like [`adas_parallel::map_ctl`] — cancellation granularity is one
/// chunk).
///
/// `make(index, item)` builds the platform for one run (called exactly
/// once per item); `finish(index, item, end, platform)` consumes the
/// finished platform and produces the result. Results are returned in
/// item order regardless of thread count, batch width, or which lane a
/// run landed in.
///
/// `ml_model` must be the model backing every ML-enabled platform `make`
/// produces (lanes whose platform runs no ML mitigation simply skip the
/// panel); per-run outcomes are bit-identical to driving each platform
/// with [`Platform::step`].
///
/// # Panics
///
/// Panics if `width == 0`, or if a platform wants an ML step and
/// `ml_model` is `None`.
pub fn run_lockstep_ctl<T, R, M, F>(
    items: &[T],
    width: usize,
    ml_model: Option<&Arc<LstmPredictor>>,
    make: M,
    finish: F,
    ctl: &MapControl,
) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    M: Fn(usize, &T) -> Platform + Sync,
    F: Fn(usize, &T, EndReason, Platform) -> R + Sync,
{
    assert!(width > 0, "batch width must be ≥ 1");
    if items.is_empty() {
        return Some(Vec::new());
    }
    let chunk_len = width.saturating_mul(CHUNK_BATCHES).max(1);
    let chunks: Vec<(usize, usize)> = (0..items.len())
        .step_by(chunk_len)
        .map(|start| (start, (start + chunk_len).min(items.len())))
        .collect();
    let per_chunk = adas_parallel::map_ctl(
        &chunks,
        || ml_model.map(|m| MlPanels::new(m, width)),
        |panels, _, &(start, end)| {
            drive_chunk(&items[start..end], start, width, panels, &make, &finish)
        },
        ctl,
    )?;
    Some(per_chunk.into_iter().flatten().collect())
}

/// Drives one chunk of runs to completion in lockstep.
fn drive_chunk<T, R>(
    items: &[T],
    base: usize,
    width: usize,
    panels: &mut Option<MlPanels>,
    make: &(impl Fn(usize, &T) -> Platform + Sync),
    finish: &(impl Fn(usize, &T, EndReason, Platform) -> R + Sync),
) -> Vec<R> {
    let n = items.len();
    // lane → (chunk-local run index, platform); None = idle slot.
    let mut lanes: Vec<Option<(usize, Platform)>> = (0..width).map(|_| None).collect();
    let mut pendings: Vec<Option<PendingCycle>> = (0..width).map(|_| None).collect();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut next = 0usize;
    let (mut ticks, mut lane_steps) = (0u64, 0u64);

    let fill = |lane: usize,
                next: &mut usize,
                lanes: &mut Vec<Option<(usize, Platform)>>,
                panels: &mut Option<MlPanels>| {
        if *next >= n {
            return;
        }
        let platform = make(base + *next, &items[*next]);
        if let Some(p) = panels.as_mut() {
            // Fresh run, fresh recurrent stream: a run stepped alone starts
            // from the zero init state, so must this lane's column.
            p.state.reset_lane(lane);
        }
        lanes[lane] = Some((*next, platform));
        *next += 1;
    };

    for lane in 0..width {
        fill(lane, &mut next, &mut lanes, panels);
    }

    loop {
        // Stage A: every occupied lane runs stages 1–7 (perception through
        // the ML feature encode) of its own cycle.
        let mut began = 0u64;
        let mut any_ml = false;
        for lane in 0..width {
            if let Some((_, platform)) = lanes[lane].as_mut() {
                let pending = platform.begin_step();
                began += 1;
                any_ml |= pending.ml_input.is_some();
                pendings[lane] = Some(pending);
            }
        }
        if began == 0 {
            break;
        }
        ticks += 1;
        lane_steps += began;

        // Stage B: one batched LSTM step serves every ML lane. Lanes
        // without a pending ML input are masked out of the gate math and
        // keep their previous (finite, never-read) state until refill
        // resets them.
        if any_ml {
            let p = panels
                .as_mut()
                .expect("ML-enabled lanes require a model for the batched forward");
            for (lane, pending) in pendings.iter().enumerate() {
                let input = pending.as_ref().and_then(|c| c.ml_input.as_ref());
                p.state.set_live(lane, input.is_some());
                if let Some(input) = input {
                    for (c, v) in input.x.iter().enumerate() {
                        p.x[c * width + lane] = *v;
                    }
                }
            }
            p.step();
        }

        // Stage C: every pending lane commits its cycle (mitigation
        // decision, arbitration, actuation, monitors) and retires/refills
        // on divergence.
        for lane in 0..width {
            let Some(pending) = pendings[lane].take() else {
                continue;
            };
            let (_, platform) = lanes[lane].as_mut().expect("pending lane is occupied");
            let ml_y = pending.ml_input.is_some().then(|| {
                panels
                    .as_ref()
                    .expect("ML panels present")
                    .scratch
                    .output(lane)
            });
            let _ = platform.finish_step(pending, ml_y);
            if let Some(end) = platform.finished() {
                let (index, platform) = lanes[lane].take().expect("finished lane is occupied");
                out[index] = Some(finish(base + index, &items[index], end, platform));
                fill(lane, &mut next, &mut lanes, panels);
            }
        }
    }

    TICKS.fetch_add(ticks, Ordering::Relaxed);
    LANE_STEPS.fetch_add(lane_steps, Ordering::Relaxed);
    SLOT_STEPS.fetch_add(ticks * width as u64, Ordering::Relaxed);

    out.into_iter()
        .map(|r| r.expect("every chunk run completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterventionConfig, PlatformConfig};
    use crate::experiment::{campaign_run_ids, run_single};
    use adas_attack::FaultType;

    /// [`run_lockstep_ctl`] without cancellation.
    fn lockstep<T: Sync, R: Send>(
        items: &[T],
        width: usize,
        ml_model: Option<&Arc<LstmPredictor>>,
        make: impl Fn(usize, &T) -> Platform + Sync,
        finish: impl Fn(usize, &T, EndReason, Platform) -> R + Sync,
    ) -> Vec<R> {
        run_lockstep_ctl(items, width, ml_model, make, finish, &MapControl::new())
            .expect("uncancelled")
    }

    fn short_config() -> PlatformConfig {
        PlatformConfig {
            max_steps: 400,
            ..PlatformConfig::default()
        }
    }

    #[test]
    fn lockstep_matches_scalar_without_ml() {
        let cfg = short_config();
        let ids = campaign_run_ids(1);
        let fault = Some(FaultType::RelativeDistance);
        let scalar: Vec<_> = ids
            .iter()
            .map(|id| run_single(*id, fault, &cfg, None, 11))
            .collect();
        for width in [1usize, 3, 8, 32] {
            let batched = lockstep(
                &ids,
                width,
                None,
                |_, id| crate::experiment::build_platform(*id, fault, &cfg, None, 11),
                |_, _, _, platform| platform.record(),
            );
            assert_eq!(
                format!("{scalar:?}"),
                format!("{batched:?}"),
                "width={width}"
            );
        }
    }

    #[test]
    fn lockstep_result_order_is_item_order() {
        let cfg = PlatformConfig {
            max_steps: 120,
            ..PlatformConfig::default()
        };
        let ids = campaign_run_ids(1);
        let out = lockstep(
            &ids,
            4,
            None,
            |_, id| crate::experiment::build_platform(*id, None, &cfg, None, 3),
            |i, _, _, _| i,
        );
        assert_eq!(out, (0..ids.len()).collect::<Vec<_>>());
    }

    #[test]
    fn occupancy_stats_accumulate() {
        reset_stats();
        let cfg = PlatformConfig {
            max_steps: 150,
            ..PlatformConfig::default()
        };
        let ids = campaign_run_ids(1);
        let _ = lockstep(
            &ids,
            8,
            None,
            |_, id| crate::experiment::build_platform(*id, None, &cfg, None, 3),
            |_, _, _, platform| platform.record(),
        );
        let stats = stats_snapshot();
        assert!(stats.ticks > 0);
        assert!(stats.lane_steps >= stats.ticks, "≥ 1 active lane per tick");
        assert!(stats.slot_steps >= stats.lane_steps);
        let occ = stats.occupancy().expect("ran batched");
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
    }

    #[test]
    fn cancellation_returns_none() {
        let cfg = short_config();
        let ids = campaign_run_ids(1);
        let ctl = MapControl::new();
        ctl.cancel();
        let out = run_lockstep_ctl(
            &ids,
            4,
            None,
            |_, id| crate::experiment::build_platform(*id, None, &cfg, None, 3),
            |_, _, _, platform| platform.record(),
            &ctl,
        );
        assert!(out.is_none());
    }

    #[test]
    fn lockstep_matches_scalar_with_ml_interventions() {
        // A tiny trained model exercises the batched forward + refill
        // path end-to-end (full-grid coverage lives in
        // tests/batch_equivalence.rs).
        let data = crate::experiment::collect_training_data(7, 1, 60);
        let mut model = adas_ml::LstmPredictor::new(adas_ml::ModelSpec {
            hidden1: 16,
            hidden2: 8,
            seed: 9,
        });
        let _ = adas_ml::train(
            &mut model,
            &data,
            &adas_ml::TrainConfig {
                epochs: 1,
                ..adas_ml::TrainConfig::default()
            },
        );
        let model = Arc::new(model);
        let cfg = PlatformConfig {
            max_steps: 500,
            ..PlatformConfig::with_interventions(InterventionConfig::ml_only())
        };
        let ids = campaign_run_ids(1);
        let fault = Some(FaultType::RelativeDistance);
        let scalar: Vec<_> = ids
            .iter()
            .map(|id| run_single(*id, fault, &cfg, Some(&model), 11))
            .collect();
        for width in [1usize, 5, 32] {
            let batched = lockstep(
                &ids,
                width,
                Some(&model),
                |_, id| crate::experiment::build_platform(*id, fault, &cfg, Some(&model), 11),
                |_, _, _, platform| platform.record(),
            );
            assert_eq!(
                format!("{scalar:?}"),
                format!("{batched:?}"),
                "width={width}"
            );
        }
    }
}
