//! Deterministic work-stealing executor for campaign and training
//! workloads.
//!
//! The previous campaign runner split work into `threads` static chunks,
//! so one long chunk (e.g. a scenario whose runs never reach quiescence)
//! stalled the whole campaign behind a single straggler thread. This
//! module replaces that scheme with a shared atomic work-queue over
//! [`std::thread::scope`]: every worker repeatedly *steals* the next
//! unclaimed item index, so load balances at item granularity no matter
//! how uneven the per-item cost is.
//!
//! Two properties are load-bearing for the experiment harness:
//!
//! 1. **Determinism** — each item's result is keyed by its index, and the
//!    returned vector is ordered by index. Which thread computed an item
//!    never influences the output, so results are bit-for-bit identical at
//!    any thread count (including 1).
//! 2. **No `unsafe`** — workers accumulate `(index, result)` pairs locally
//!    and the pairs are merged by index after the scope joins, instead of
//!    scattering into a shared buffer.
//!
//! The worker count honours the `ADAS_THREADS` environment variable
//! (clamped to `[1, 256]`), falling back to [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod gate;

pub use gate::{FairGate, FairGuard};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Upper bound on worker threads (defensive clamp for absurd overrides).
pub const MAX_THREADS: usize = 256;

/// Resolves the worker count for `jobs` queued items.
///
/// Priority: `ADAS_THREADS` env override (empty, unparsable, or zero
/// values are rejected with a warning — see [`env`]), then
/// [`std::thread::available_parallelism`], then 4. The result never
/// exceeds `jobs` (no point spawning idle workers) and is at least 1.
#[must_use]
pub fn thread_count(jobs: usize) -> usize {
    let configured = env::parse::<usize>("ADAS_THREADS", "a thread count ≥ 1")
        .filter(|&n| {
            if n == 0 {
                eprintln!("[env] ignoring ADAS_THREADS=0: expected a thread count ≥ 1");
            }
            n >= 1
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        });
    configured.clamp(1, MAX_THREADS).min(jobs.max(1))
}

/// Default lockstep batch width when `ADAS_BATCH` is unset.
pub const DEFAULT_BATCH_WIDTH: usize = 16;

/// Upper bound on the lockstep batch width (defensive clamp — panel
/// memory grows linearly with width and the returns flatten long before
/// this).
pub const MAX_BATCH_WIDTH: usize = 1024;

/// Resolves the lockstep batch width for the campaign path from the
/// `ADAS_BATCH` environment variable.
///
/// * unset → [`DEFAULT_BATCH_WIDTH`];
/// * `ADAS_BATCH=0` → [`DEFAULT_BATCH_WIDTH`], with a warning;
/// * `ADAS_BATCH=1` → a one-lane lockstep batch;
/// * otherwise the value, clamped to `[1, 1024]`.
///
/// Work is still stolen from the shared queue — just in batch-sized
/// chunks — and per-run results are bit-identical at any width, so this
/// knob trades scheduling granularity against batched-kernel throughput
/// without affecting outcomes.
#[must_use]
pub fn batch_width() -> usize {
    env::parse::<usize>("ADAS_BATCH", "a batch width ≥ 1")
        .map(|n| {
            if n == 0 {
                eprintln!("[env] ignoring ADAS_BATCH=0: expected a batch width ≥ 1");
                DEFAULT_BATCH_WIDTH
            } else {
                n
            }
        })
        .unwrap_or(DEFAULT_BATCH_WIDTH)
        .clamp(1, MAX_BATCH_WIDTH)
}

/// Shared cancellation + progress instrumentation for one [`map_ctl`]
/// call.
///
/// A long-lived consumer (the `adas-serve` job executor) hands the same
/// control block to the executor and to its control plane: `cancel()` from
/// any thread makes workers stop claiming new items, and the `claimed`/
/// `completed` counters let a `Status` endpoint report live progress
/// without touching the workers.
#[derive(Debug, Default)]
pub struct MapControl {
    cancelled: AtomicBool,
    claimed: AtomicUsize,
    completed: AtomicUsize,
}

impl MapControl {
    /// A fresh control block (not cancelled, zero progress).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: workers finish their in-flight item and stop
    /// claiming new ones. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) was called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Items claimed by workers so far (monotonic, may overshoot the item
    /// count by up to one per worker — claims race the queue end).
    #[must_use]
    pub fn claimed(&self) -> usize {
        self.claimed.load(Ordering::Relaxed)
    }

    /// Items fully computed so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Relaxed)
    }
}

/// [`map_init`] with an external [`MapControl`]: returns `None` when the
/// map was cancelled before completing (partial results are dropped —
/// determinism means all-or-nothing), `Some(results)` otherwise.
///
/// Cancellation is checked before each claim, so the latency from
/// `cancel()` to the workers going idle is one item's compute time.
pub fn map_ctl<T, S, R, I, F>(items: &[T], init: I, f: F, ctl: &MapControl) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = thread_count(items.len());
    if threads <= 1 || items.len() <= 1 {
        // Serial fast path: same claim/check/compute shape as one worker.
        let mut state = init();
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if ctl.is_cancelled() {
                return None;
            }
            ctl.claimed.fetch_add(1, Ordering::Relaxed);
            out.push(f(&mut state, i, item));
            ctl.completed.fetch_add(1, Ordering::Relaxed);
        }
        return if ctl.is_cancelled() { None } else { Some(out) };
    }

    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let init = &init;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut state = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    if ctl.is_cancelled() {
                        break;
                    }
                    // The shared work-queue: claim the next unprocessed
                    // item. Relaxed is enough — the scope join provides the
                    // happens-before edge for the results.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    ctl.claimed.fetch_add(1, Ordering::Relaxed);
                    local.push((i, f(&mut state, i, &items[i])));
                    ctl.completed.fetch_add(1, Ordering::Relaxed);
                }
                local
            }));
        }
        for handle in handles {
            buckets.push(handle.join().expect("parallel worker panicked"));
        }
    });

    if ctl.is_cancelled() {
        return None;
    }

    // Merge per-worker buckets back into item order. Every index in
    // 0..items.len() appears exactly once across the buckets.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    Some(
        slots
            .into_iter()
            .map(|r| r.expect("work-queue item left unprocessed"))
            .collect(),
    )
}

/// Maps `f` over `items` in parallel with work-stealing scheduling and
/// returns the results in item order.
///
/// Each worker owns a mutable scratch state created by `init` (reused
/// across all items that worker steals), so hot loops can preallocate
/// buffers once per worker instead of once per item.
///
/// Results are deterministic for deterministic `f`: output order is item
/// order and `f` receives the item index, so thread scheduling cannot leak
/// into the results.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn map_init<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    map_ctl(items, init, f, &MapControl::new()).expect("uncancelled map completed")
}

/// [`map_init`] without per-worker scratch state.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_init(items, || (), |(), i, item| f(i, item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = map(&items, |i, &x| {
            // Uneven cost: later items spin briefly so early finishers
            // steal more work.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items = vec![(); 1000];
        let out = map(&items, |_, ()| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn init_state_reused_within_worker() {
        let items = vec![1u64; 64];
        // Each worker's state counts how many items it processed; the sum
        // across results of "first visit" flags must be <= threads.
        let out = map_init(
            &items,
            || 0u64,
            |seen, _, _item| {
                *seen += 1;
                u64::from(*seen == 1)
            },
        );
        let firsts: u64 = out.iter().sum();
        assert!(firsts >= 1);
        assert!(firsts as usize <= thread_count(items.len()));
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |_, &x| x).is_empty());
        assert_eq!(map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn control_counts_progress() {
        let items: Vec<u32> = (0..40).collect();
        let ctl = MapControl::new();
        let out = map_ctl(&items, || (), |(), _, &x| x + 1, &ctl);
        assert_eq!(out.expect("not cancelled").len(), 40);
        assert_eq!(ctl.completed(), 40);
        assert!(ctl.claimed() >= 40);
        assert!(!ctl.is_cancelled());
    }

    #[test]
    fn cancel_before_start_yields_none() {
        let items: Vec<u32> = (0..1000).collect();
        let ctl = MapControl::new();
        ctl.cancel();
        assert!(map_ctl(&items, || (), |(), _, &x| x, &ctl).is_none());
        assert_eq!(ctl.completed(), 0);
    }

    #[test]
    fn cancel_mid_map_stops_claiming() {
        let items: Vec<u32> = (0..100_000).collect();
        let ctl = MapControl::new();
        let out = map_ctl(
            &items,
            || (),
            |(), i, &x| {
                if i == 10 {
                    ctl.cancel();
                }
                x
            },
            &ctl,
        );
        assert!(out.is_none(), "cancelled map must drop partial results");
        assert!(
            ctl.completed() < items.len(),
            "cancellation must stop the sweep early"
        );
    }

    /// Serialises the tests that mutate the process-global `ADAS_THREADS`.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn thread_count_env_override() {
        let _guard = ENV_LOCK.lock().unwrap();
        // Serial fallback when jobs == 0 still reports at least one worker.
        assert!(thread_count(0) >= 1);
        std::env::set_var("ADAS_THREADS", "3");
        assert_eq!(thread_count(100), 3);
        assert_eq!(thread_count(2), 2, "never more workers than jobs");
        std::env::set_var("ADAS_THREADS", "not-a-number");
        assert!(thread_count(100) >= 1);
        std::env::remove_var("ADAS_THREADS");
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let _guard = ENV_LOCK.lock().unwrap();
        let items: Vec<u64> = (0..250).collect();
        let golden: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E3779B9)).collect();
        for threads in ["1", "2", "5", "16"] {
            std::env::set_var("ADAS_THREADS", threads);
            let out = map(&items, |_, &x| x.wrapping_mul(0x9E3779B9));
            assert_eq!(out, golden, "threads={threads}");
        }
        std::env::remove_var("ADAS_THREADS");
    }
}
