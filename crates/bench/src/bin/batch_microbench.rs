//! Microbenchmark for the batched execution path: the LSTM inference step
//! across batch widths against its one-lane row (a single run's forward),
//! split into its matvecs and its gate math, and runs stepped alone
//! (`run_single`) vs lockstep closed-loop platform stepping. Hand-rolled
//! timing loops (the vendored criterion is an API stub) with a fixed wall
//! budget per measurement.
//!
//! Everything runs single-worker (`ADAS_THREADS=1`): the point is the
//! per-core effect of the weights-stationary batched kernels, not thread
//! scaling. Usage: `batch_microbench` (no arguments).

use adas_attack::FaultType;
use adas_bench::CAMPAIGN_SEED;
use adas_core::parallel::MapControl;
use adas_core::{run_ids_ctl, run_single, InterventionConfig, PlatformConfig, RunId, TextTable};
use adas_ml::{LstmPredictor, ModelSpec, FEATURE_DIM};
use adas_scenarios::{InitialPosition, ScenarioId};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WIDTHS: [usize; 6] = [1, 4, 8, 16, 32, 64];
/// Wall budget per timed measurement.
const BUDGET: Duration = Duration::from_millis(400);
/// Trials an LSTM measurement's budget is split into; the fastest is
/// reported, the estimate least disturbed by other load on a shared host.
const TRIALS: u32 = 5;

/// Deterministic feature filler: distinct per (lane, step, column) so the
/// optimiser cannot hoist anything, cheap enough to not perturb timing.
fn fill_x(x: &mut [f64], lane_base: usize, step: usize) {
    for (i, v) in x.iter_mut().enumerate() {
        let n = (lane_base + i).wrapping_mul(2654435761).wrapping_add(step);
        *v = f64::from((n % 2003) as u32) / 2003.0 - 0.5;
    }
}

/// Times `tick(t)` — one lockstep tick `t` over `width` lanes — in
/// [`TRIALS`] trials of `BUDGET / TRIALS` each. Returns the fastest
/// trial's ns per lane-step.
fn ns_per_lane_step(width: usize, mut tick: impl FnMut(usize)) -> f64 {
    let mut best = f64::INFINITY;
    let mut t = 0;
    for _ in 0..TRIALS {
        let start = Instant::now();
        let first = t;
        while start.elapsed() < BUDGET / TRIALS {
            for _ in 0..64 {
                tick(t);
                t += 1;
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / ((t - first) * width) as f64;
        best = best.min(ns);
    }
    best
}

/// Batched inference: one `step_batch` serving all lanes per tick.
/// Returns ns per lane-step.
fn lstm_batched(model: &LstmPredictor, width: usize) -> f64 {
    let mut state = model.batch_state(width);
    let mut scratch = model.batch_scratch(width);
    let mut x = vec![0.0f64; FEATURE_DIM * width];
    let mut sink = 0.0f64;
    let ns = ns_per_lane_step(width, |t| {
        fill_x(&mut x, 0, t);
        model.step_batch(&x, &mut state, &mut scratch);
        sink += scratch.output(0)[0];
    });
    std::hint::black_box(sink);
    ns
}

/// The batched matvecs alone: per tick, every [`LstmPredictor::matvecs`]
/// entry over its `step_batch` panel shapes (the gate matvecs' recurrent
/// input is the layer's own hidden panel). Returns ns per lane-step.
fn lstm_matvec(model: &LstmPredictor, width: usize) -> f64 {
    let [l1, l2, head] = model.matvecs();
    let spec = model.spec();
    let h1_panel = vec![0.1f64; spec.hidden1 * width];
    let h2_panel = vec![0.1f64; spec.hidden2 * width];
    let mut x = vec![0.0f64; FEATURE_DIM * width];
    let mut z1 = vec![0.0f64; l1.rows * width];
    let mut z2 = vec![0.0f64; l2.rows * width];
    let mut y = vec![0.0f64; head.rows * width];
    let mut sink = 0.0f64;
    let ns = ns_per_lane_step(width, |t| {
        fill_x(&mut x, 0, t);
        l1.forward_concat_batch(width, &x, &h1_panel, &mut z1);
        l2.forward_concat_batch(width, &h1_panel, &h2_panel, &mut z2);
        head.forward_batch(width, &h2_panel, &mut y);
        sink += z1[0] + z2[0] + y[0];
    });
    std::hint::black_box(sink);
    ns
}

/// Enough campaign run IDs to keep `width` lanes mostly occupied.
fn ids_for(width: usize) -> Vec<RunId> {
    let runs = (3 * width).max(24);
    let mut out = Vec::with_capacity(runs);
    let mut rep = 0u32;
    'fill: loop {
        for scenario in ScenarioId::ALL {
            for position in [InitialPosition::Near, InitialPosition::Far] {
                if out.len() == runs {
                    break 'fill;
                }
                out.push(RunId {
                    scenario,
                    position,
                    repetition: rep,
                });
            }
        }
        rep += 1;
    }
    out
}

/// Full closed-loop campaign runs through `run_ids_ctl` at the given
/// width, or each run alone through `run_single` when `width` is `None`.
/// Returns lane-steps per second.
fn closed_loop(
    ids: &[RunId],
    cfg: &PlatformConfig,
    model: Option<&Arc<LstmPredictor>>,
    width: Option<usize>,
) -> f64 {
    let fault = Some(FaultType::Mixed);
    let start = Instant::now();
    let records = match width {
        Some(width) => {
            let ctl = MapControl::new();
            run_ids_ctl(ids, fault, cfg, model, CAMPAIGN_SEED, width, &ctl).expect("uncancelled")
        }
        None => ids
            .iter()
            .map(|id| run_single(*id, fault, cfg, model, CAMPAIGN_SEED))
            .collect(),
    };
    let wall = start.elapsed().as_secs_f64();
    let steps: u64 = records.iter().map(|r| r.steps).sum();
    steps as f64 / wall
}

fn main() {
    // Single worker: isolate the kernel effect from thread scaling.
    std::env::set_var("ADAS_THREADS", "1");

    println!("== Batched LSTM inference step (ModelSpec::default, untrained weights) ==\n");
    let model = LstmPredictor::new(ModelSpec::default());
    // Warm up code + caches once before timing.
    let _ = lstm_batched(&model, 4);
    let _ = lstm_matvec(&model, 4);
    let mut table = TextTable::new([
        "width",
        "step ns/lane",
        "vs width 1",
        "matvec ns/lane",
        "gate math ns/lane",
    ]);
    let mut one_lane = None;
    for width in WIDTHS {
        let b = lstm_batched(&model, width);
        let m = lstm_matvec(&model, width);
        let one = *one_lane.get_or_insert(b);
        table.row([
            format!("{width}"),
            format!("{b:.0}"),
            format!("{:.2}x", one / b),
            format!("{m:.0}"),
            format!("{:.0}", b - m),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\nstep: one step_batch over all lanes (width 1 is a single run's \
         forward); matvec: the batched gate and head matvecs alone; gate \
         math: the step minus the matvec (per-lane exp/tanh and cell update)."
    );

    println!("\n== Closed-loop platform stepping (Mixed fault, 1 worker) ==\n");
    let mut no_ml_cfg = PlatformConfig::with_interventions(InterventionConfig::driver_and_check());
    no_ml_cfg.max_steps = 1_000;
    let mut ml_cfg = PlatformConfig::with_interventions(InterventionConfig::ml_only());
    ml_cfg.max_steps = 1_000;
    let trained = Arc::new(adas_bench::trained_baseline_cached(
        &adas_core::ArtifactCache::from_env(),
        CAMPAIGN_SEED,
        ModelSpec::default(),
    ));

    let mut table = TextTable::new([
        "width",
        "no-ML ksteps/s",
        "no-ML vs alone",
        "ML ksteps/s",
        "ML vs alone",
    ]);
    let alone_ids = ids_for(1);
    let alone_no_ml = closed_loop(&alone_ids, &no_ml_cfg, None, None);
    let alone_ml = closed_loop(&alone_ids, &ml_cfg, Some(&trained), None);
    let mut row = |label: String, no_ml: f64, ml: f64| {
        table.row([
            label,
            format!("{:.0}", no_ml / 1e3),
            format!("{:.2}x", no_ml / alone_no_ml),
            format!("{:.0}", ml / 1e3),
            format!("{:.2}x", ml / alone_ml),
        ]);
    };
    row("run_single".to_owned(), alone_no_ml, alone_ml);
    for width in WIDTHS {
        let ids = ids_for(width);
        let no_ml = closed_loop(&ids, &no_ml_cfg, None, Some(width));
        let ml = closed_loop(&ids, &ml_cfg, Some(&trained), Some(width));
        row(format!("{width}"), no_ml, ml);
    }
    println!("{}", table.render());
    println!(
        "\nThe run_single row steps each run alone; width rows run \
         run_ids_ctl's lockstep batches. Speedups are per-core."
    );
}
