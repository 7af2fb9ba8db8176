//! Microbenchmark for the batched execution path: the LSTM inference step
//! across batch widths against its one-lane row (a single run's forward),
//! with its matvecs and its gate math each timed alone; the in-repo math
//! functions against the host libm, per call; training BPTT per
//! sample-step, the per-sample scalar reference against the sample-group
//! panels `train` runs, split into forward matvec, gate math and
//! backward; and runs stepped alone (`run_single`) vs lockstep
//! closed-loop platform stepping. Hand-rolled timing loops (the vendored
//! criterion is an API stub) with a fixed wall budget per measurement.
//!
//! Everything runs single-worker (`ADAS_THREADS=1`): the point is the
//! per-core effect of the weights-stationary batched kernels, not thread
//! scaling. Usage: `batch_microbench` (no arguments).

use adas_attack::FaultType;
use adas_bench::CAMPAIGN_SEED;
use adas_core::parallel::MapControl;
use adas_core::{
    run_ids_ctl, run_single, CampaignCell, InterventionConfig, PlatformConfig, RunId, TextTable,
    TraceSink,
};
use adas_ml::linear::{Kernel, Pass};
use adas_ml::train::{backprop_group, Gradients, GroupScratch, Transposed, GRAD_GROUP, PANEL};
use adas_ml::{LstmPredictor, ModelSpec, Sample, FEATURE_DIM, WINDOW};
use adas_scenarios::{InitialPosition, ScenarioId};
use adas_simulator::math;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-sample scalar BPTT that training ran before sample groups
/// became panel lanes; the training oracle test's reference.
#[path = "../../../ml/tests/reference/mod.rs"]
mod reference;

const WIDTHS: [usize; 6] = [1, 4, 8, 16, 32, 64];
/// Wall budget per timed measurement.
const BUDGET: Duration = Duration::from_millis(400);
/// Trials a measurement's budget is split into (LSTM rows), or passes it
/// repeats (closed-loop rows); the fastest is reported, the estimate least
/// disturbed by other load on a shared host.
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
#[inline(always)]
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

/// The gate math alone: per tick, `Lstm::gate_math` of both layers over
/// `z` panels recorded from the matvecs of a few warm-up steps. The gate
/// math is branch-free, so its time does not depend on the values; each
/// tick activates its panels in place again, with no copy to time.
/// Returns ns per lane-step.
fn lstm_gate_math(model: &LstmPredictor, width: usize) -> f64 {
    let [l1, l2] = model.layers();
    let mut state = model.batch_state(width);
    let mut scratch = model.batch_scratch(width);
    let mut x = vec![0.0f64; FEATURE_DIM * width];
    for t in 0..8 {
        fill_x(&mut x, 0, t);
        model.step_batch(&x, &mut state, &mut scratch);
    }
    let (h1, h2) = (
        vec![0.1f64; l1.hidden * width],
        vec![0.1f64; l2.hidden * width],
    );
    let mut z1 = vec![0.0f64; 4 * l1.hidden * width];
    let mut z2 = vec![0.0f64; 4 * l2.hidden * width];
    l1.gates.forward_concat_batch(width, &x, &h1, &mut z1);
    l2.gates.forward_concat_batch(width, &h1, &h2, &mut z2);
    let (c1, c2) = (vec![0.3f64; h1.len()], vec![-0.3f64; h2.len()]);
    let (mut h1_out, mut c1_out) = (vec![0.0f64; h1.len()], vec![0.0f64; h1.len()]);
    let (mut h2_out, mut c2_out) = (vec![0.0f64; h2.len()], vec![0.0f64; h2.len()]);
    let (mut tc1, mut tc2) = (vec![0.0f64; h1.len()], vec![0.0f64; h2.len()]);
    let live = vec![true; width];
    let kernel = Kernel::detect();
    let mut sink = 0.0f64;
    let ns = ns_per_lane_step(width, |_| {
        l1.gate_math(
            kernel,
            width,
            &mut z1,
            &c1,
            &mut h1_out,
            &mut c1_out,
            &mut tc1,
            &live,
        );
        l2.gate_math(
            kernel,
            width,
            &mut z2,
            &c2,
            &mut h2_out,
            &mut c2_out,
            &mut tc2,
            &live,
        );
        sink += h1_out[0] + h2_out[0];
    });
    std::hint::black_box(sink);
    ns
}

/// Inputs per math-function timing pass.
const MATH_INPUTS: usize = 4096;

/// ns per call of `f` over `inputs`, the fastest of [`TRIALS`] trials.
fn ns_per_call(inputs: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let mut sink = 0.0f64;
    let ns = ns_per_lane_step(inputs.len(), |_| {
        for &x in inputs {
            sink += f(std::hint::black_box(x));
        }
    });
    std::hint::black_box(sink);
    ns
}

/// ns per value of a lane-block function applied in place over a panel
/// of `inputs`, in blocks of 8: each pass is one [`Kernel::run`] on the
/// CPU's fastest build, the block loop compiled inside it, as
/// `Lstm::gate_math` activates a gate panel in inference. (The functions
/// are branch-free, so the panel drifting over the passes does not change
/// the work.)
fn ns_per_lane_value(inputs: &[f64], block: impl Fn(&mut [f64; 8])) -> f64 {
    /// One in-place pass over the panel as a kernel pass.
    struct Blocks<'a, F> {
        panel: &'a mut [f64],
        block: &'a F,
    }
    impl<F: Fn(&mut [f64; 8])> Pass for Blocks<'_, F> {
        #[inline(always)]
        fn run(self) {
            for values in self.panel.chunks_exact_mut(8) {
                (self.block)(values.try_into().expect("whole block"));
            }
        }
    }
    let kernel = Kernel::detect();
    let mut panel = inputs.to_vec();
    let ns = ns_per_lane_step(inputs.len(), |_| {
        kernel.run(Blocks {
            panel: &mut panel,
            block: &block,
        });
    });
    std::hint::black_box(&panel);
    ns
}

/// Per-function cost of the in-repo math against the host libm: the
/// scalar functions the simulator calls, and the lane-block activations
/// the LSTM gate math runs. The std calls are the reference here, the
/// one place they are allowed outside the accuracy tests.
#[allow(clippy::disallowed_methods)]
fn math_table() -> TextTable {
    let spread = |lo: f64, hi: f64| -> Vec<f64> {
        (0..MATH_INPUTS)
            .map(|i| {
                lo + (hi - lo) * ((i * 2_654_435_761) % MATH_INPUTS) as f64 / MATH_INPUTS as f64
            })
            .collect()
    };
    let gates = spread(-8.0, 8.0);
    let angles = spread(-4.0, 4.0);
    let small = spread(-0.3, 0.3);
    let positive = spread(1e-3, 1.0);
    let std_sigmoid = |x: f64| {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    };
    type Row<'a> = (
        &'a str,
        &'a [f64],
        Box<dyn Fn(f64) -> f64>,
        Box<dyn Fn(f64) -> f64>,
    );
    let rows: Vec<Row> = vec![
        ("exp", &gates, Box::new(math::exp), Box::new(f64::exp)),
        (
            "expm1",
            &gates,
            Box::new(math::expm1),
            Box::new(f64::exp_m1),
        ),
        ("ln", &positive, Box::new(math::ln), Box::new(f64::ln)),
        (
            "sigmoid",
            &gates,
            Box::new(math::sigmoid),
            Box::new(std_sigmoid),
        ),
        ("tanh", &gates, Box::new(math::tanh), Box::new(f64::tanh)),
        ("sin", &angles, Box::new(math::sin), Box::new(f64::sin)),
        ("cos", &angles, Box::new(math::cos), Box::new(f64::cos)),
        (
            "sin_cos (sum)",
            &angles,
            Box::new(|x| {
                let (s, c) = math::sin_cos(x);
                s + c
            }),
            Box::new(|x: f64| {
                let (s, c) = x.sin_cos();
                s + c
            }),
        ),
        ("tan", &small, Box::new(math::tan), Box::new(f64::tan)),
        ("atan", &small, Box::new(math::atan), Box::new(f64::atan)),
        (
            "hypot",
            &angles,
            Box::new(|x| math::hypot(x, 3.0)),
            Box::new(|x: f64| x.hypot(3.0)),
        ),
    ];
    let mut table = TextTable::new([
        "function",
        "in-repo ns/call",
        "std ns/call",
        "in-repo / std",
    ]);
    for (name, inputs, ours, theirs) in rows {
        let (a, b) = (ns_per_call(inputs, ours), ns_per_call(inputs, theirs));
        table.row([
            name.to_owned(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.2}x", a / b),
        ]);
    }
    let lanes = [
        (
            "sigmoid_lanes (per value)",
            ns_per_lane_value(&gates, math::sigmoid_lanes::<8>),
            ns_per_call(&gates, std_sigmoid),
        ),
        (
            "tanh_lanes (per value)",
            ns_per_lane_value(&gates, math::tanh_lanes::<8>),
            ns_per_call(&gates, f64::tanh),
        ),
    ];
    for (name, a, b) in lanes {
        table.row([
            name.to_owned(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.2}x", a / b),
        ]);
    }
    table
}

/// Training BPTT phases, each in ns per sample-step: the forward's
/// matvecs alone, the whole forward, and the whole BPTT (gate math =
/// forward − matvec, backward = BPTT − forward).
struct BpttPhases {
    matvec: f64,
    forward: f64,
    total: f64,
}

/// [`PANEL`] distinct samples of [`WINDOW`] steps.
fn bptt_samples() -> Vec<Sample> {
    (0..PANEL)
        .map(|s| {
            let mut window = vec![[0.0; FEATURE_DIM]; WINDOW];
            for (t, frame) in window.iter_mut().enumerate() {
                fill_x(frame, s * 7919, t);
            }
            Sample {
                window,
                target: [0.1, -0.1],
            }
        })
        .collect()
}

/// The per-sample scalar reference: each sample alone, one scalar matvec
/// per layer and step, backward sweeping the weights once per step.
fn bptt_scalar(model: &LstmPredictor, samples: &[Sample]) -> BpttPhases {
    let [l1, l2, _] = model.matvecs();
    let spec = model.spec();
    let (h1, h2) = (vec![0.1f64; spec.hidden1], vec![0.1f64; spec.hidden2]);
    let (mut z1, mut z2) = (vec![0.0f64; l1.rows], vec![0.0f64; l2.rows]);
    let mut scratch = reference::Scratch::default();
    let mut grads = Gradients::zeros(model);
    let work = samples.len() * WINDOW;
    let mut sink = 0.0f64;
    let matvec = ns_per_lane_step(work, |_| {
        for sample in samples {
            for x in &sample.window {
                reference::matvec(l1, x, &h1, &mut z1);
                reference::matvec(l2, &h1, &h2, &mut z2);
                sink += z1[0] + z2[0];
            }
        }
    });
    let forward = ns_per_lane_step(work, |_| {
        for sample in samples {
            sink += reference::forward(model, &sample.window, &mut scratch)[0];
        }
    });
    let total = ns_per_lane_step(work, |_| {
        for sample in samples {
            sink += reference::backprop_sample(
                model,
                &sample.window,
                &sample.target,
                &mut scratch,
                &mut grads,
            );
        }
    });
    std::hint::black_box(sink);
    BpttPhases {
        matvec,
        forward,
        total,
    }
}

/// The panel path `train` runs: the samples as the lanes of one panel
/// through the tile kernel, input gradients by transposed weights, and
/// one deferred weight-gradient product per tensor and [`GRAD_GROUP`]
/// group.
fn bptt_group(model: &LstmPredictor, samples: &[Sample]) -> BpttPhases {
    let [l1, l2, _] = model.matvecs();
    let spec = model.spec();
    let width = samples.len();
    let kernel = Kernel::detect();
    let x = vec![0.1f64; FEATURE_DIM * width];
    let (h1, h2) = (
        vec![0.1f64; spec.hidden1 * width],
        vec![0.1f64; spec.hidden2 * width],
    );
    let (mut z1, mut z2) = (vec![0.0f64; l1.rows * width], vec![0.0f64; l2.rows * width]);
    let group: Vec<(&Sample, bool)> = samples.iter().map(|s| (s, false)).collect();
    let transposed = Transposed::new(model);
    let mut scratch = GroupScratch::new(kernel);
    let groups = width.div_ceil(GRAD_GROUP);
    let mut grads = vec![Gradients::zeros(model); groups];
    let mut losses = vec![0.0; groups];
    let work = width * WINDOW;
    let mut sink = 0.0f64;
    let matvec = ns_per_lane_step(work, |_| {
        for _ in 0..WINDOW {
            l1.forward_panels(kernel, width, &x, &h1, &mut z1);
            l2.forward_panels(kernel, width, &h1, &h2, &mut z2);
            sink += z1[0] + z2[0];
        }
    });
    let forward = ns_per_lane_step(work, |_| scratch.forward(model, &group));
    let total = ns_per_lane_step(work, |_| {
        backprop_group(
            model,
            &transposed,
            &group,
            &mut scratch,
            &mut grads,
            &mut losses,
        );
        sink += losses[0];
    });
    std::hint::black_box(sink);
    BpttPhases {
        matvec,
        forward,
        total,
    }
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
/// Returns lane-steps per second of the fastest of [`TRIALS`] passes.
fn closed_loop(
    ids: &[RunId],
    cfg: &PlatformConfig,
    model: Option<&Arc<LstmPredictor>>,
    width: Option<usize>,
) -> f64 {
    let fault = Some(FaultType::Mixed);
    let cell = CampaignCell::new(fault, *cfg, model, CAMPAIGN_SEED, 1);
    let mut best = 0.0f64;
    for _ in 0..TRIALS {
        let start = Instant::now();
        let records = match width {
            Some(width) => run_ids_ctl(
                &cell,
                ids,
                width,
                &TraceSink::disabled(),
                &MapControl::new(),
            )
            .expect("uncancelled"),
            None => ids
                .iter()
                .map(|id| run_single(*id, fault, cfg, model, CAMPAIGN_SEED))
                .collect(),
        };
        let wall = start.elapsed().as_secs_f64();
        let steps: u64 = records.iter().map(|r| r.steps).sum();
        best = best.max(steps as f64 / wall);
    }
    best
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
        let g = lstm_gate_math(&model, width);
        let one = *one_lane.get_or_insert(b);
        table.row([
            format!("{width}"),
            format!("{b:.0}"),
            format!("{:.2}x", one / b),
            format!("{m:.0}"),
            format!("{g:.0}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\nstep: one step_batch over all lanes (width 1 is a single run's \
         forward); matvec: the batched gate and head matvecs alone; gate \
         math: Lstm::gate_math of both layers alone (lane-block sigmoid/tanh \
         and cell update), over recorded gate pre-activations."
    );

    println!("\n== Math functions: in-repo (adas_simulator::math) vs host libm ==\n");
    println!("{}", math_table().render());
    println!(
        "\nScalar rows: ns per call over {MATH_INPUTS} inputs (gates: [-8, 8], \
         angles: [-4, 4], tan/atan: [-0.3, 0.3], ln: (0, 1]), both sides \
         through one boxed closure call; lane rows: ns per value of an \
         8-value block on the CPU's fastest build, against the scalar std \
         call."
    );

    println!(
        "\n== Training BPTT per sample-step (ModelSpec::default, {GRAD_GROUP}-sample groups) ==\n"
    );
    let samples = bptt_samples();
    let mut table = TextTable::new([
        "path",
        "BPTT ns",
        "vs scalar",
        "fwd matvec ns",
        "gate math ns",
        "backward ns",
    ]);
    let scalar = bptt_scalar(&model, &samples[..GRAD_GROUP]);
    let group = bptt_group(&model, &samples[..GRAD_GROUP]);
    let panel = bptt_group(&model, &samples);
    for (label, p) in [
        ("scalar per-sample", &scalar),
        ("one-group panel (4 lanes)", &group),
        ("two-group panel (8 lanes)", &panel),
    ] {
        table.row([
            label.to_owned(),
            format!("{:.0}", p.total),
            format!("{:.2}x", scalar.total / p.total),
            format!("{:.0}", p.matvec),
            format!("{:.0}", p.forward - p.matvec),
            format!("{:.0}", p.total - p.forward),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\nscalar per-sample: the reference BPTT training ran before this \
         path (crates/ml/tests/reference); panels: backprop_group, the \
         samples as the lanes of one tile-kernel panel, one group alone \
         and the two groups of one work item of train. Backward includes \
         the loss, the head and each group's deferred weight-gradient \
         products."
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
         run_ids_ctl's lockstep batches; each row is the fastest of \
         {TRIALS} passes. Speedups are per-core."
    );
}
