//! Offline training of the mitigation model on fault-free traces.

use crate::adam::{Adam, AdamConfig};
use crate::features::{ControlTarget, StateFeatures, FEATURE_DIM, TARGET_DIM, WINDOW};
use crate::lstm::LstmCache;
use crate::model::LstmPredictor;
use adas_codec::{Encode, Writer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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

/// Per-sample gradient accumulator, one buffer per parameter tensor.
///
/// Workers accumulate into private `GradBuf`s and the batch reduction adds
/// them in a fixed (sample-group) order, so gradient sums are bit-for-bit
/// independent of the thread count.
struct GradBuf {
    l1w: Vec<f64>,
    l1b: Vec<f64>,
    l2w: Vec<f64>,
    l2b: Vec<f64>,
    hw: Vec<f64>,
    hb: Vec<f64>,
}

impl GradBuf {
    fn zeros(model: &LstmPredictor) -> Self {
        Self {
            l1w: vec![0.0; model.l1.gates.w.len()],
            l1b: vec![0.0; model.l1.gates.b.len()],
            l2w: vec![0.0; model.l2.gates.w.len()],
            l2b: vec![0.0; model.l2.gates.b.len()],
            hw: vec![0.0; model.head.w.len()],
            hb: vec![0.0; model.head.b.len()],
        }
    }

    fn zero(&mut self) {
        for buf in [
            &mut self.l1w,
            &mut self.l1b,
            &mut self.l2w,
            &mut self.l2b,
            &mut self.hw,
            &mut self.hb,
        ] {
            buf.fill(0.0);
        }
    }

    fn add_assign(&mut self, other: &Self) {
        for (dst, src) in [
            (&mut self.l1w, &other.l1w),
            (&mut self.l1b, &other.l1b),
            (&mut self.l2w, &other.l2w),
            (&mut self.l2b, &other.l2b),
            (&mut self.hw, &other.hw),
            (&mut self.hb, &other.hb),
        ] {
            for (a, b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
    }

    fn scale(&mut self, s: f64) {
        for buf in [
            &mut self.l1w,
            &mut self.l1b,
            &mut self.l2w,
            &mut self.l2b,
            &mut self.hw,
            &mut self.hb,
        ] {
            for v in buf.iter_mut() {
                *v *= s;
            }
        }
    }
}

/// Preallocated per-worker buffers for [`backprop_sample_into`]: BPTT
/// caches, double-buffered layer states, and every gradient-flow vector.
/// After the first sample a worker processes, the whole forward/backward
/// pass runs without heap allocation.
struct TrainScratch {
    caches1: Vec<LstmCache>,
    caches2: Vec<LstmCache>,
    z1: Vec<f64>,
    z2: Vec<f64>,
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
    nh1: Vec<f64>,
    nc1: Vec<f64>,
    nh2: Vec<f64>,
    nc2: Vec<f64>,
    y: Vec<f64>,
    dy: Vec<f64>,
    dh2: Vec<f64>,
    dc2: Vec<f64>,
    dh2p: Vec<f64>,
    dc2p: Vec<f64>,
    dx2: Vec<f64>,
    dh1_next: Vec<f64>,
    dc1: Vec<f64>,
    dh1p: Vec<f64>,
    dc1p: Vec<f64>,
    dz1: Vec<f64>,
    dz2: Vec<f64>,
    dx1: Vec<f64>,
}

impl TrainScratch {
    fn new(model: &LstmPredictor) -> Self {
        let h1 = model.l1.hidden;
        let h2 = model.l2.hidden;
        Self {
            caches1: Vec::new(),
            caches2: Vec::new(),
            z1: vec![0.0; 4 * h1],
            z2: vec![0.0; 4 * h2],
            h1: vec![0.0; h1],
            c1: vec![0.0; h1],
            h2: vec![0.0; h2],
            c2: vec![0.0; h2],
            nh1: vec![0.0; h1],
            nc1: vec![0.0; h1],
            nh2: vec![0.0; h2],
            nc2: vec![0.0; h2],
            y: vec![0.0; TARGET_DIM],
            dy: vec![0.0; TARGET_DIM],
            dh2: vec![0.0; h2],
            dc2: vec![0.0; h2],
            dh2p: vec![0.0; h2],
            dc2p: vec![0.0; h2],
            dx2: vec![0.0; h1],
            dh1_next: vec![0.0; h1],
            dc1: vec![0.0; h1],
            dh1p: vec![0.0; h1],
            dc1p: vec![0.0; h1],
            dz1: vec![0.0; 4 * h1],
            dz2: vec![0.0; 4 * h2],
            dx1: vec![0.0; model.l1.input],
        }
    }
}

/// Full BPTT over one sample; returns the squared-error loss and adds the
/// sample's gradients into `grads`. Allocation-free after `scratch` warms
/// up; numerically identical to the historical allocating implementation.
fn backprop_sample_into(
    model: &LstmPredictor,
    window: &[[f64; FEATURE_DIM]],
    target: &[f64; TARGET_DIM],
    s: &mut TrainScratch,
    grads: &mut GradBuf,
) -> f64 {
    let steps = window.len();
    s.caches1.resize_with(steps, LstmCache::default);
    s.caches2.resize_with(steps, LstmCache::default);
    s.h1.fill(0.0);
    s.c1.fill(0.0);
    s.h2.fill(0.0);
    s.c2.fill(0.0);

    // Forward with caches.
    for (t, x) in window.iter().enumerate() {
        model
            .l1
            .step_cached(x, &s.h1, &s.c1, &mut s.z1, &mut s.caches1[t], &mut s.nh1, &mut s.nc1);
        model.l2.step_cached(
            &s.nh1,
            &s.h2,
            &s.c2,
            &mut s.z2,
            &mut s.caches2[t],
            &mut s.nh2,
            &mut s.nc2,
        );
        std::mem::swap(&mut s.h1, &mut s.nh1);
        std::mem::swap(&mut s.c1, &mut s.nc1);
        std::mem::swap(&mut s.h2, &mut s.nh2);
        std::mem::swap(&mut s.c2, &mut s.nc2);
    }
    model.head.forward_into(&s.h2, &mut s.y);

    // MSE loss and output gradient.
    let mut loss = 0.0;
    for (k, t) in target.iter().enumerate() {
        let e = s.y[k] - t;
        loss += e * e;
        s.dy[k] = 2.0 * e / TARGET_DIM as f64;
    }
    loss /= TARGET_DIM as f64;

    // Backward: head → layer 2 chain → layer 1 chain.
    model
        .head
        .backward_into(&s.h2, &s.dy, &mut grads.hw, &mut grads.hb, &mut s.dh2);
    s.dc2.fill(0.0);
    s.dh1_next.fill(0.0);
    s.dc1.fill(0.0);
    for t in (0..steps).rev() {
        model.l2.step_backward_into(
            &s.caches2[t],
            &s.dh2,
            &s.dc2,
            &mut grads.l2w,
            &mut grads.l2b,
            &mut s.dz2,
            &mut s.dx2,
            &mut s.dh2p,
            &mut s.dc2p,
        );
        // dx2 is the gradient w.r.t. h1(t); add any gradient flowing from
        // layer 1's own recurrence.
        for (a, b) in s.dx2.iter_mut().zip(&s.dh1_next) {
            *a += b;
        }
        model.l1.step_backward_into(
            &s.caches1[t],
            &s.dx2,
            &s.dc1,
            &mut grads.l1w,
            &mut grads.l1b,
            &mut s.dz1,
            &mut s.dx1,
            &mut s.dh1p,
            &mut s.dc1p,
        );
        std::mem::swap(&mut s.dh2, &mut s.dh2p);
        std::mem::swap(&mut s.dc2, &mut s.dc2p);
        std::mem::swap(&mut s.dh1_next, &mut s.dh1p);
        std::mem::swap(&mut s.dc1, &mut s.dc1p);
    }
    loss
}

/// Samples per parallel work item. Each group is processed serially by one
/// worker into a private [`GradBuf`]; groups are then reduced in order.
/// Because the partition depends only on the batch contents, gradient sums
/// are identical at any thread count.
const GRAD_GROUP: usize = 4;

/// Trains `model` in place; returns the loss trajectory.
///
/// Minibatch gradients are accumulated in parallel across CPU cores (work
/// distribution via [`adas_parallel`], honouring `ADAS_THREADS`) with a
/// thread-count-invariant reduction order, so the trained weights are
/// deterministic for a given `(data, config)` regardless of parallelism.
pub fn train(model: &mut LstmPredictor, data: &Dataset, config: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut opt_l1w = Adam::new(model.l1.gates.w.len(), config.adam);
    let mut opt_l1b = Adam::new(model.l1.gates.b.len(), config.adam);
    let mut opt_l2w = Adam::new(model.l2.gates.w.len(), config.adam);
    let mut opt_l2b = Adam::new(model.l2.gates.b.len(), config.adam);
    let mut opt_hw = Adam::new(model.head.w.len(), config.adam);
    let mut opt_hb = Adam::new(model.head.b.len(), config.adam);

    let mut batch_grads = GradBuf::zeros(model);
    let mut epoch_loss = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for chunk in order.chunks(config.batch.max(1)) {
            // Pre-draw the dropout decisions serially, in sample order, so
            // RNG consumption is independent of worker scheduling.
            let masked: Vec<bool> = chunk
                .iter()
                .map(|_| {
                    config.history_dropout > 0.0
                        && rng.gen_range(0.0..1.0) < config.history_dropout
                })
                .collect();
            let groups: Vec<(&[usize], &[bool])> = chunk
                .chunks(GRAD_GROUP)
                .zip(masked.chunks(GRAD_GROUP))
                .collect();

            let shared: &LstmPredictor = model;
            let results: Vec<(f64, GradBuf)> = adas_parallel::map_init(
                &groups,
                || {
                    (
                        TrainScratch::new(shared),
                        Vec::<[f64; FEATURE_DIM]>::new(),
                    )
                },
                |(scratch, masked_buf), _, &(idxs, masks)| {
                    let mut grads = GradBuf::zeros(shared);
                    let mut loss = 0.0;
                    for (&idx, &mask) in idxs.iter().zip(masks) {
                        let sample = &data.samples[idx];
                        if mask {
                            // Zero the previous-command features over the
                            // whole window so the model must read the
                            // vehicle state (see `history_dropout`).
                            masked_buf.clear();
                            masked_buf.extend_from_slice(&sample.window);
                            for frame in masked_buf.iter_mut() {
                                frame[FEATURE_DIM - 2] = 0.0;
                                frame[FEATURE_DIM - 1] = 0.0;
                            }
                            loss += backprop_sample_into(
                                shared,
                                masked_buf,
                                &sample.target,
                                scratch,
                                &mut grads,
                            );
                        } else {
                            loss += backprop_sample_into(
                                shared,
                                &sample.window,
                                &sample.target,
                                scratch,
                                &mut grads,
                            );
                        }
                    }
                    (loss, grads)
                },
            );

            batch_grads.zero();
            for (loss, grads) in &results {
                total += loss;
                batch_grads.add_assign(grads);
            }
            batch_grads.scale(1.0 / chunk.len() as f64);
            opt_l1w.step(&mut model.l1.gates.w, &batch_grads.l1w);
            opt_l1b.step(&mut model.l1.gates.b, &batch_grads.l1b);
            opt_l2w.step(&mut model.l2.gates.w, &batch_grads.l2w);
            opt_l2b.step(&mut model.l2.gates.b, &batch_grads.l2b);
            opt_hw.step(&mut model.head.w, &batch_grads.hw);
            opt_hb.step(&mut model.head.b, &batch_grads.hb);
        }
        epoch_loss.push(total / data.len() as f64);
    }
    TrainReport { epoch_loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;

    /// A synthetic "driving" mapping: target accel depends on distance and
    /// speed features; steer depends on curvature.
    fn synthetic_dataset(n_episodes: usize) -> Dataset {
        let mut data = Dataset::new();
        for e in 0..n_episodes {
            let mut states = Vec::new();
            let mut outs = Vec::new();
            for t in 0..120 {
                let phase = (t as f64 + e as f64 * 17.0) * 0.05;
                let rd = 40.0 + 30.0 * phase.sin();
                let v = 20.0 + 2.0 * phase.cos();
                let kappa = 0.002 * (phase * 0.5).sin();
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
                    (y[0] - s.target[0]).powi(2) + (y[1] - s.target[1]).powi(2)
                })
                .sum::<f64>()
                / data.len() as f64
        };
        assert!(mse(&trained) < mse(&untrained));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let mut model = LstmPredictor::new(ModelSpec::default());
        let _ = train(&mut model, &Dataset::new(), &TrainConfig::default());
    }
}
