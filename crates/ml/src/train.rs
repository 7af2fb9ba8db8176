//! Offline training of the mitigation model on fault-free traces.

use crate::adam::{Adam, AdamConfig};
use crate::features::{ControlTarget, StateFeatures, FEATURE_DIM, TARGET_DIM, WINDOW};
use crate::linear::{add_product, Kernel, Linear, TILE_LANES};
use crate::lstm::Tape;
use crate::model::LstmPredictor;
use adas_codec::{Encode, Writer};
use adas_simulator::DeterministicRng;
use std::sync::Mutex;

/// One training sample: a [`WINDOW`]-cycle feature window plus the expected
/// control output at the final cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Encoded features, oldest first.
    pub window: Vec<[f64; FEATURE_DIM]>,
    /// Encoded target at the last cycle.
    pub target: [f64; TARGET_DIM],
}

/// A collection of training samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// An empty dataset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Slides a [`WINDOW`]-length window over one fault-free episode,
    /// emitting a sample every `stride` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the slices' lengths differ.
    pub fn add_episode(
        &mut self,
        states: &[StateFeatures],
        outputs: &[ControlTarget],
        stride: usize,
    ) {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(states.len(), outputs.len(), "episode length mismatch");
        if states.len() < WINDOW {
            return;
        }
        let mut start = 0;
        while start + WINDOW <= states.len() {
            let window: Vec<[f64; FEATURE_DIM]> = states[start..start + WINDOW]
                .iter()
                .map(StateFeatures::encode)
                .collect();
            self.samples.push(Sample {
                window,
                target: outputs[start + WINDOW - 1].encode(),
            });
            start += stride;
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Minibatch size (gradients averaged per batch).
    pub batch: usize,
    /// Optimiser settings.
    pub adam: AdamConfig,
    /// Shuffle seed.
    pub seed: u64,
    /// Probability of zeroing the control-history features (previous
    /// gas/steering) of a training sample. Without it the model learns the
    /// autoregressive shortcut "predict the previous command", which makes
    /// its predictions track a *compromised* controller instead of the true
    /// vehicle state — useless as an anomaly reference for Algorithm 1.
    pub history_dropout: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 4,
            batch: 16,
            adam: AdamConfig::default(),
            seed: 7,
            history_dropout: 0.6,
        }
    }
}

impl Encode for TrainConfig {
    fn encode(&self, w: &mut Writer) {
        let Self {
            epochs,
            batch,
            adam,
            seed,
            history_dropout,
        } = self;
        w.usize(*epochs);
        w.usize(*batch);
        w.put(adam);
        w.u64(*seed);
        w.f64(*history_dropout);
    }
}

/// Loss trajectory of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean squared error per epoch.
    pub epoch_loss: Vec<f64>,
}

impl TrainReport {
    /// Final epoch's loss.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        self.epoch_loss.last().copied().unwrap_or(f64::NAN)
    }
}

/// The gradients of a sample group or a minibatch: one buffer per
/// parameter tensor, laid out like the tensor.
///
/// Workers accumulate their groups into private `Gradients` and the batch
/// reduction adds them in a fixed (group) order, so gradient sums are
/// bit-for-bit independent of the thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// Layer 1 packed gate weights.
    pub l1w: Vec<f64>,
    /// Layer 1 gate biases.
    pub l1b: Vec<f64>,
    /// Layer 2 packed gate weights.
    pub l2w: Vec<f64>,
    /// Layer 2 gate biases.
    pub l2b: Vec<f64>,
    /// Head weights.
    pub hw: Vec<f64>,
    /// Head bias.
    pub hb: Vec<f64>,
}

impl Gradients {
    /// Zeroed gradients for `model`'s tensors.
    #[must_use]
    pub fn zeros(model: &LstmPredictor) -> Self {
        Self {
            l1w: vec![0.0; model.l1.gates.w.len()],
            l1b: vec![0.0; model.l1.gates.b.len()],
            l2w: vec![0.0; model.l2.gates.w.len()],
            l2b: vec![0.0; model.l2.gates.b.len()],
            hw: vec![0.0; model.head.w.len()],
            hb: vec![0.0; model.head.b.len()],
        }
    }

    fn tensors(&mut self) -> [&mut Vec<f64>; 6] {
        [
            &mut self.l1w,
            &mut self.l1b,
            &mut self.l2w,
            &mut self.l2b,
            &mut self.hw,
            &mut self.hb,
        ]
    }

    fn zero(&mut self) {
        for buf in self.tensors() {
            buf.fill(0.0);
        }
    }

    fn add_assign(&mut self, other: &Self) {
        let other = [
            &other.l1w, &other.l1b, &other.l2w, &other.l2b, &other.hw, &other.hb,
        ];
        for (dst, src) in self.tensors().into_iter().zip(other) {
            for (a, b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
    }

    fn scale(&mut self, s: f64) {
        for buf in self.tensors() {
            for v in buf.iter_mut() {
                *v *= s;
            }
        }
    }
}

/// The zero-bias transposes that carry gradients back through each
/// matvec's input (`Wᵀ·dz`): layer 1's over its recurrent `h_prev`
/// columns only (the gradient of the input features is never used),
/// layer 2's over all its columns, and the head's. Built once per
/// optimiser step and shared by every group of the minibatch.
#[derive(Debug, Clone)]
pub struct Transposed {
    l1: Linear,
    l2: Linear,
    head: Linear,
}

impl Transposed {
    /// The transposes of `model`'s current weights.
    #[must_use]
    pub fn new(model: &LstmPredictor) -> Self {
        Self {
            l1: model.l1.gates.transposed(model.l1.input),
            l2: model.l2.gates.transposed(0),
            head: model.head.transposed(0),
        }
    }
}

/// Buffers for [`backprop_group`]: the layers' tapes, every gradient
/// panel, and the deferred weight-gradient operands. Resized in place, so
/// after the first panel of a given shape a call runs without heap
/// allocation.
#[derive(Debug, Clone)]
pub struct GroupScratch {
    kernel: Kernel,
    /// Feature panels of every step, `FEATURE_DIM × width` each.
    x: Vec<f64>,
    tape1: Tape,
    tape2: Tape,
    /// Head output and its gradient, `TARGET_DIM × width`.
    y: Vec<f64>,
    dy: Vec<f64>,
    /// Gradients flowing into layer 2's hidden and cell outputs.
    dh2: Vec<f64>,
    dc2: Vec<f64>,
    /// `W2ᵀ·dz2`: the gradient of layer 2's `[h1; h2_prev]` input.
    dx2: Vec<f64>,
    /// `W1ᵀ·dz1` over `h1_prev`, and the cell gradient of layer 1.
    dh1: Vec<f64>,
    dc1: Vec<f64>,
    /// One step's gate pre-activation gradients, `4·hidden × width`.
    dz1: Vec<f64>,
    dz2: Vec<f64>,
    /// Deferred `dZ` of the weight-gradient products, one `rows × K`
    /// matrix per group, group after group; `K` runs over the group's
    /// (sample, reversed step) pairs (over its samples for the head's
    /// `dys`).
    dzs1: Vec<f64>,
    dzs2: Vec<f64>,
    dys: Vec<f64>,
    /// The layer inputs `X` (`K × cols`) the deferred `dZ` multiply, rows
    /// in (sample, reversed step) order over the whole panel, so each
    /// group's rows are contiguous.
    xs1: Vec<f64>,
    xs2: Vec<f64>,
    /// The head's input rows, one per sample.
    xh: Vec<f64>,
}

impl GroupScratch {
    /// Empty buffers; every kernel call of [`backprop_group`] runs on
    /// `kernel`'s build.
    #[must_use]
    pub fn new(kernel: Kernel) -> Self {
        Self {
            kernel,
            x: Vec::new(),
            tape1: Tape::default(),
            tape2: Tape::default(),
            y: Vec::new(),
            dy: Vec::new(),
            dh2: Vec::new(),
            dc2: Vec::new(),
            dx2: Vec::new(),
            dh1: Vec::new(),
            dc1: Vec::new(),
            dz1: Vec::new(),
            dz2: Vec::new(),
            dzs1: Vec::new(),
            dzs2: Vec::new(),
            dys: Vec::new(),
            xs1: Vec::new(),
            xs2: Vec::new(),
            xh: Vec::new(),
        }
    }

    /// The taped forward alone over `panel` (for per-phase
    /// microbenchmarks): [`backprop_group`]'s first phase.
    ///
    /// # Panics
    ///
    /// As [`backprop_group`].
    pub fn forward(&mut self, model: &LstmPredictor, panel: &[(&Sample, bool)]) {
        let n = panel.len();
        assert!(
            (1..=PANEL).contains(&n),
            "a panel holds 1 to {PANEL} samples, not {n}"
        );
        let steps = panel[0].0.window.len();
        assert!(
            panel.iter().all(|(s, _)| s.window.len() == steps),
            "the windows of a panel must all have the same length"
        );
        let (f, kernel) = (FEATURE_DIM, self.kernel);
        // History dropout zeroes the previous-command features of a masked
        // sample over its whole window, so the model must read the vehicle
        // state (see `TrainConfig::history_dropout`).
        self.x.resize(steps * f * n, 0.0);
        for (lane, (sample, masked)) in panel.iter().enumerate() {
            for (t, frame) in sample.window.iter().enumerate() {
                for (c, &v) in frame.iter().enumerate() {
                    self.x[(t * f + c) * n + lane] = if *masked && c >= f - 2 { 0.0 } else { v };
                }
            }
        }
        self.tape1.reset(model.l1.hidden, n, steps);
        self.tape2.reset(model.l2.hidden, n, steps);
        for t in 0..steps {
            model
                .l1
                .step_taped(kernel, &self.x[t * f * n..][..f * n], &mut self.tape1, t);
            model
                .l2
                .step_taped(kernel, self.tape1.h(t + 1), &mut self.tape2, t);
        }
        self.y.resize(TARGET_DIM * n, 0.0);
        model
            .head
            .forward_panels(kernel, n, self.tape2.h(steps), &[], &mut self.y);
    }
}

/// Full BPTT over one panel of up to [`PANEL`] samples, its samples the
/// lanes: the panel splits into groups of [`GRAD_GROUP`] lanes (the last
/// may be ragged), and for each group `g` this writes the group's summed
/// squared-error loss into `losses[g]` and adds its gradients into
/// `grads[g]`. `panel` pairs each sample with its history-dropout mask.
///
/// Each sample sees exactly the f64 operation sequence of a lone
/// per-sample BPTT, and each group's sums that of the group run alone, so
/// the results do not depend on the panel's width or on the other group:
///
/// - forward: `Lstm::step_taped` per layer and step (the inference
///   matvec and gate math) at the panel's width, then the head;
/// - input gradients: `Wᵀ·dz` is the tile-kernel forward of the
///   [`Transposed`] weights at the panel's width, from a zero start in
///   row order;
/// - loss: each group's lanes summed in lane order;
/// - weight gradients: `dz` and the layer inputs are kept per group and
///   (sample, reversed step), and after the backward sweep one seeded
///   tile-kernel product per tensor and group adds them into that group's
///   gradients in that order: sample, then reversed time — the order the
///   per-sample BPTT added them in.
///
/// # Panics
///
/// Panics if `panel` is empty or holds more than [`PANEL`] samples, if
/// its windows differ in length, or if `grads` and `losses` do not hold
/// one entry per group.
pub fn backprop_group(
    model: &LstmPredictor,
    transposed: &Transposed,
    panel: &[(&Sample, bool)],
    s: &mut GroupScratch,
    grads: &mut [Gradients],
    losses: &mut [f64],
) {
    s.forward(model, panel);
    let (n, steps) = (panel.len(), panel[0].0.window.len());
    let groups = n.div_ceil(GRAD_GROUP);
    assert_eq!(grads.len(), groups, "one gradient buffer per group");
    assert_eq!(losses.len(), groups, "one loss per group");
    let (h1, h2, kernel) = (model.l1.hidden, model.l2.hidden, s.kernel);

    // MSE loss and output gradient.
    s.dy.resize(TARGET_DIM * n, 0.0);
    for (g, (group, total)) in panel.chunks(GRAD_GROUP).zip(losses.iter_mut()).enumerate() {
        *total = 0.0;
        for (j, (sample, _)) in group.iter().enumerate() {
            let lane = g * GRAD_GROUP + j;
            let mut loss = 0.0;
            for (k, t) in sample.target.iter().enumerate() {
                let e = s.y[k * n + lane] - t;
                loss += e * e;
                s.dy[k * n + lane] = 2.0 * e / TARGET_DIM as f64;
            }
            *total += loss / TARGET_DIM as f64;
        }
    }

    // Backward: head → layer 2 chain → layer 1 chain.
    zeroed(&mut s.dc2, h2 * n);
    zeroed(&mut s.dh1, h1 * n);
    zeroed(&mut s.dc1, h1 * n);
    s.dh2.resize(h2 * n, 0.0);
    s.dx2.resize((h1 + h2) * n, 0.0);
    s.dz1.resize(4 * h1 * n, 0.0);
    s.dz2.resize(4 * h2 * n, 0.0);
    s.dzs1.resize(4 * h1 * n * steps, 0.0);
    s.dzs2.resize(4 * h2 * n * steps, 0.0);
    transposed
        .head
        .forward_panels(kernel, n, &s.dy, &[], &mut s.dh2);
    for t in (0..steps).rev() {
        model
            .l2
            .backward_gates(&s.tape2, t, &s.dh2, &mut s.dc2, &mut s.dz2);
        transposed
            .l2
            .forward_panels(kernel, n, &s.dz2, &[], &mut s.dx2);
        let (dh1, dh2) = s.dx2.split_at_mut(h1 * n);
        // dh1 is the gradient w.r.t. h1(t); add the gradient flowing from
        // layer 1's own recurrence.
        for (a, b) in dh1.iter_mut().zip(&s.dh1) {
            *a += b;
        }
        s.dh2.copy_from_slice(dh2);
        model
            .l1
            .backward_gates(&s.tape1, t, dh1, &mut s.dc1, &mut s.dz1);
        transposed
            .l1
            .forward_panels(kernel, n, &s.dz1, &[], &mut s.dh1);
        defer(&s.dz1, n, steps, steps - 1 - t, &mut s.dzs1);
        defer(&s.dz2, n, steps, steps - 1 - t, &mut s.dzs2);
    }
    s.dys.resize(TARGET_DIM * n, 0.0);
    defer(&s.dy, n, 1, 0, &mut s.dys);

    // Deferred weight gradients: the inputs each `dz` multiplies, as rows
    // in the same (sample, reversed step) order.
    let (c1, c2, f) = (model.l1.gates.cols, model.l2.gates.cols, FEATURE_DIM);
    s.xs1.resize(n * steps * c1, 0.0);
    s.xs2.resize(n * steps * c2, 0.0);
    for lane in 0..n {
        for t in 0..steps {
            let k = lane * steps + (steps - 1 - t);
            let row1 = &mut s.xs1[k * c1..][..c1];
            column(&s.x[t * f * n..][..f * n], n, lane, &mut row1[..f]);
            column(s.tape1.h(t), n, lane, &mut row1[f..]);
            let row2 = &mut s.xs2[k * c2..][..c2];
            column(s.tape1.h(t + 1), n, lane, &mut row2[..h1]);
            column(s.tape2.h(t), n, lane, &mut row2[h1..]);
        }
    }
    s.xh.resize(n * h2, 0.0);
    for (lane, row) in s.xh.chunks_exact_mut(h2).enumerate() {
        column(s.tape2.h(steps), n, lane, row);
    }
    for (g, grads) in grads.iter_mut().enumerate() {
        // The group's lanes `g0..g0 + lanes`, its slice of each operand.
        let g0 = g * GRAD_GROUP;
        let lanes = GRAD_GROUP.min(n - g0);
        let (at, k) = (g0 * steps, lanes * steps);
        for (dz, rows, xs, cols, gw, gb) in [
            (&s.dzs1, 4 * h1, &s.xs1, c1, &mut grads.l1w, &mut grads.l1b),
            (&s.dzs2, 4 * h2, &s.xs2, c2, &mut grads.l2w, &mut grads.l2b),
        ] {
            group_product(
                kernel,
                &dz[rows * at..][..rows * k],
                rows,
                &xs[at * cols..][..k * cols],
                gw,
                gb,
            );
        }
        group_product(
            kernel,
            &s.dys[TARGET_DIM * g0..][..TARGET_DIM * lanes],
            TARGET_DIM,
            &s.xh[g0 * h2..][..lanes * h2],
            &mut grads.hw,
            &mut grads.hb,
        );
    }
}

/// Adds one group's weight and bias gradients: `gw += dZ·X` by the seeded
/// tile kernel, and each bias row the sum of its `dZ` row in order.
fn group_product(
    kernel: Kernel,
    dz: &[f64],
    rows: usize,
    xs: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
) {
    add_product(kernel, dz, rows, xs, gw.len() / rows, gw);
    let k = dz.len() / rows;
    for (g, row) in gb.iter_mut().zip(dz.chunks_exact(k)) {
        for v in row {
            *g += v;
        }
    }
}

/// Copies the `rows × width` panel `dz` of reversed step `k` (of `steps`)
/// into the deferred matrices `dzs`: group after group, each a `rows ×
/// (lanes·steps)` matrix whose column `lane·steps + k` is that lane's.
fn defer(dz: &[f64], width: usize, steps: usize, k: usize, dzs: &mut [f64]) {
    let rows = dz.len() / width;
    for g0 in (0..width).step_by(GRAD_GROUP) {
        let lanes = GRAD_GROUP.min(width - g0);
        let block = &mut dzs[rows * g0 * steps..][..rows * lanes * steps];
        for (row, out) in dz
            .chunks_exact(width)
            .zip(block.chunks_exact_mut(lanes * steps))
        {
            for (v, o) in row[g0..g0 + lanes]
                .iter()
                .zip(out.iter_mut().skip(k).step_by(steps))
            {
                *o = *v;
            }
        }
    }
}

/// The loss and gradients of one sample group on `kernel`'s build, from
/// fresh buffers: [`backprop_group`] over a one-group panel.
///
/// # Panics
///
/// As [`backprop_group`], and if `group` holds more than [`GRAD_GROUP`]
/// samples.
#[must_use]
pub fn group_gradients(
    model: &LstmPredictor,
    kernel: Kernel,
    group: &[(&Sample, bool)],
) -> (f64, Gradients) {
    let mut grads = [Gradients::zeros(model)];
    let mut loss = [0.0];
    backprop_group(
        model,
        &Transposed::new(model),
        group,
        &mut GroupScratch::new(kernel),
        &mut grads,
        &mut loss,
    );
    let [grads] = grads;
    (loss[0], grads)
}

/// Sizes `buf` to `len` zeros.
fn zeroed(buf: &mut Vec<f64>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// Copies lane `lane` of a `out.len() × width` panel into `out`.
fn column(panel: &[f64], width: usize, lane: usize, out: &mut [f64]) {
    for (u, o) in out.iter_mut().enumerate() {
        *o = panel[u * width + lane];
    }
}

/// Samples per gradient group: the reduction boundary. Each group's loss
/// and gradients are summed into a private [`Gradients`] and the groups
/// are then reduced in order; because the partition depends only on the
/// batch contents, gradient sums are identical at any thread count. The
/// group size sets where the reduction starts a new partial sum, so
/// changing it changes the trained weights: every cached model, the ML row
/// of Table VI and the training golden must then be regenerated.
pub const GRAD_GROUP: usize = 4;

/// Samples per panel, the lanes of one [`backprop_group`] and one parallel
/// work item: the tile kernel's widest tile, two [`GRAD_GROUP`]s. The
/// panel width moves no result, only how many lanes share each matvec.
pub const PANEL: usize = TILE_LANES;
const _: () = assert!(PANEL.is_multiple_of(GRAD_GROUP));

/// One work item's buffers, kept for a whole [`train`] call so no
/// minibatch allocates them afresh: the panel scratch, and each group's
/// loss and gradients (zeroed in place per minibatch).
struct Slot {
    scratch: GroupScratch,
    grads: Vec<Gradients>,
    losses: Vec<f64>,
}

/// Trains `model` in place; returns the loss trajectory.
///
/// Minibatch gradients are accumulated in parallel across CPU cores (work
/// distribution via [`adas_parallel`], honouring `ADAS_THREADS`) with a
/// thread-count-invariant reduction order, so the trained weights are
/// deterministic for a given `(data, config)` regardless of parallelism.
///
/// # Panics
///
/// Panics if `data` is empty or its windows differ in length (the samples
/// of a panel are its lanes).
pub fn train(model: &mut LstmPredictor, data: &Dataset, config: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let steps = data.samples[0].window.len();
    assert!(
        data.samples.iter().all(|s| s.window.len() == steps),
        "every training window must have the same length"
    );
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = DeterministicRng::from_seed(config.seed);

    let mut opt_l1w = Adam::new(model.l1.gates.w.len(), config.adam);
    let mut opt_l1b = Adam::new(model.l1.gates.b.len(), config.adam);
    let mut opt_l2w = Adam::new(model.l2.gates.w.len(), config.adam);
    let mut opt_l2b = Adam::new(model.l2.gates.b.len(), config.adam);
    let mut opt_hw = Adam::new(model.head.w.len(), config.adam);
    let mut opt_hb = Adam::new(model.head.b.len(), config.adam);

    let kernel = Kernel::detect();
    let batch = config.batch.max(1);
    let mut slots: Vec<Mutex<Slot>> = (0..batch.div_ceil(PANEL))
        .map(|_| {
            Mutex::new(Slot {
                scratch: GroupScratch::new(kernel),
                grads: vec![Gradients::zeros(model); PANEL / GRAD_GROUP],
                losses: vec![0.0; PANEL / GRAD_GROUP],
            })
        })
        .collect();
    let mut batch_grads = Gradients::zeros(model);
    let mut epoch_loss = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut total = 0.0;
        for chunk in order.chunks(batch) {
            // Pre-draw the dropout decisions serially, in sample order, so
            // RNG consumption is independent of worker scheduling.
            let masked: Vec<bool> = chunk
                .iter()
                .map(|_| {
                    config.history_dropout > 0.0 && rng.uniform(0.0, 1.0) < config.history_dropout
                })
                .collect();
            let panels: Vec<Vec<(&Sample, bool)>> = chunk
                .chunks(PANEL)
                .zip(masked.chunks(PANEL))
                .map(|(idxs, masks)| {
                    idxs.iter()
                        .zip(masks)
                        .map(|(&i, &m)| (&data.samples[i], m))
                        .collect()
                })
                .collect();

            // Work item `i` runs in slot `i`, which no other item touches.
            let shared: &LstmPredictor = model;
            let transposed = Transposed::new(shared);
            adas_parallel::map(&panels, |i, panel| {
                let mut slot = slots[i].lock().expect("no item panicked in its slot");
                let Slot {
                    scratch,
                    grads,
                    losses,
                } = &mut *slot;
                let groups = panel.len().div_ceil(GRAD_GROUP);
                for grads in &mut grads[..groups] {
                    grads.zero();
                }
                backprop_group(
                    shared,
                    &transposed,
                    panel,
                    scratch,
                    &mut grads[..groups],
                    &mut losses[..groups],
                );
            });

            // Reduce the groups in order: panel, then group within it.
            batch_grads.zero();
            for (slot, panel) in slots.iter_mut().zip(&panels) {
                let slot = slot.get_mut().expect("no item panicked in its slot");
                let groups = panel.len().div_ceil(GRAD_GROUP);
                for (loss, grads) in slot.losses.iter().zip(&slot.grads).take(groups) {
                    total += loss;
                    batch_grads.add_assign(grads);
                }
            }
            batch_grads.scale(1.0 / chunk.len() as f64);
            opt_l1w.step(kernel, &mut model.l1.gates.w, &batch_grads.l1w);
            opt_l1b.step(kernel, &mut model.l1.gates.b, &batch_grads.l1b);
            opt_l2w.step(kernel, &mut model.l2.gates.w, &batch_grads.l2w);
            opt_l2b.step(kernel, &mut model.l2.gates.b, &batch_grads.l2b);
            opt_hw.step(kernel, &mut model.head.w, &batch_grads.hw);
            opt_hb.step(kernel, &mut model.head.b, &batch_grads.hb);
        }
        epoch_loss.push(total / data.len() as f64);
    }
    TrainReport { epoch_loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use adas_simulator::math::{cos, sin};

    /// A synthetic "driving" mapping: target accel depends on distance and
    /// speed features; steer depends on curvature.
    fn synthetic_dataset(n_episodes: usize) -> Dataset {
        let mut data = Dataset::new();
        for e in 0..n_episodes {
            let mut states = Vec::new();
            let mut outs = Vec::new();
            for t in 0..120 {
                let phase = (t as f64 + e as f64 * 17.0) * 0.05;
                let rd = 40.0 + 30.0 * sin(phase);
                let v = 20.0 + 2.0 * cos(phase);
                let kappa = 0.002 * sin(phase * 0.5);
                let accel = 0.05 * (rd - 30.0) - 0.3 * (v - 20.0);
                let steer = 2.7 * kappa;
                states.push(StateFeatures {
                    ego_speed: v,
                    lead_distance: rd,
                    closing_speed: (v - 13.0) * 0.3,
                    left_line: 1.75,
                    right_line: 1.75,
                    curvature: kappa,
                    heading: 0.0,
                    prev_accel: accel,
                    prev_steer: steer,
                });
                outs.push(ControlTarget { accel, steer });
            }
            data.add_episode(&states, &outs, 5);
        }
        data
    }

    #[test]
    fn dataset_windows_count() {
        let mut data = Dataset::new();
        let states = vec![StateFeatures::default(); 60];
        let outs = vec![ControlTarget::default(); 60];
        data.add_episode(&states, &outs, 10);
        // Windows starting at 0, 10, 20, 30, 40 (40+20 = 60).
        assert_eq!(data.len(), 5);
    }

    #[test]
    fn short_episodes_skipped() {
        let mut data = Dataset::new();
        data.add_episode(
            &[StateFeatures::default(); 10],
            &[ControlTarget::default(); 10],
            1,
        );
        assert!(data.is_empty());
    }

    #[test]
    #[should_panic(expected = "episode length mismatch")]
    fn mismatched_episode_panics() {
        let mut data = Dataset::new();
        data.add_episode(
            &vec![StateFeatures::default(); 30],
            &vec![ControlTarget::default(); 29],
            1,
        );
    }

    #[test]
    fn training_reduces_loss() {
        let data = synthetic_dataset(4);
        let mut model = LstmPredictor::new(ModelSpec {
            hidden1: 16,
            hidden2: 8,
            seed: 1,
        });
        let report = train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
        );
        let first = report.epoch_loss[0];
        let last = report.final_loss();
        assert!(
            last < first * 0.5,
            "loss did not halve: {first} → {last} ({:?})",
            report.epoch_loss
        );
    }

    #[test]
    fn trained_model_predicts_better_than_untrained() {
        let data = synthetic_dataset(4);
        let untrained = LstmPredictor::new(ModelSpec {
            hidden1: 16,
            hidden2: 8,
            seed: 1,
        });
        let mut trained = untrained.clone();
        let _ = train(&mut trained, &data, &TrainConfig::default());

        let mse = |m: &LstmPredictor| -> f64 {
            data.samples
                .iter()
                .map(|s| {
                    let y = m.predict_window(&s.window);
                    let (e0, e1) = (y[0] - s.target[0], y[1] - s.target[1]);
                    e0 * e0 + e1 * e1
                })
                .sum::<f64>()
                / data.len() as f64
        };
        assert!(mse(&trained) < mse(&untrained));
    }

    /// Central finite differences of the group loss agree with the
    /// group BPTT's analytic gradient in every tensor.
    #[test]
    fn group_gradients_match_finite_differences() {
        let data = synthetic_dataset(1);
        let group: Vec<(&Sample, bool)> =
            data.samples[..3].iter().zip([false, true, false]).collect();
        let model = LstmPredictor::new(ModelSpec {
            hidden1: 5,
            hidden2: 3,
            seed: 2,
        });
        let (_, grads) = group_gradients(&model, Kernel::detect(), &group);
        let loss = |m: &LstmPredictor| group_gradients(m, Kernel::detect(), &group).0;
        let eps = 1e-6;
        type Param = fn(&mut LstmPredictor) -> &mut Vec<f64>;
        let tensors: [(&str, Param, &Vec<f64>); 6] = [
            ("l1w", |m| &mut m.l1.gates.w, &grads.l1w),
            ("l1b", |m| &mut m.l1.gates.b, &grads.l1b),
            ("l2w", |m| &mut m.l2.gates.w, &grads.l2w),
            ("l2b", |m| &mut m.l2.gates.b, &grads.l2b),
            ("hw", |m| &mut m.head.w, &grads.hw),
            ("hb", |m| &mut m.head.b, &grads.hb),
        ];
        for (name, param, grad) in tensors {
            for idx in [0, grad.len() / 2, grad.len() - 1] {
                let mut plus = model.clone();
                param(&mut plus)[idx] += eps;
                let mut minus = model.clone();
                param(&mut minus)[idx] -= eps;
                let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (num - grad[idx]).abs() < 1e-6,
                    "{name}[{idx}]: numeric {num} vs analytic {}",
                    grad[idx]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn windows_of_different_lengths_are_refused_up_front() {
        let mut data = synthetic_dataset(1);
        let last = data.samples.len() - 1;
        data.samples[last].window.pop();
        let mut model = LstmPredictor::new(ModelSpec::default());
        let _ = train(&mut model, &data, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let mut model = LstmPredictor::new(ModelSpec::default());
        let _ = train(&mut model, &Dataset::new(), &TrainConfig::default());
    }
}
