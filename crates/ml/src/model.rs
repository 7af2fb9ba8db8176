//! The two-layer LSTM regression model.

use crate::features::{FEATURE_DIM, TARGET_DIM};
use crate::linear::Linear;
use crate::lstm::Lstm;
use adas_codec::{Encode, Reader, Writer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Model architecture specification.
///
/// The paper explored 256-128, 256-64, 256-32, 128-64, 128-32 and 64-32
/// hidden-unit configurations and selected 128-64; the shipped default is
/// 64-32 to keep the campaign harness fast on CPUs, with the larger
/// configurations available behind the same API (see the `ml_ablation`
/// bench binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// First LSTM layer width.
    pub hidden1: usize,
    /// Second LSTM layer width.
    pub hidden2: usize,
    /// RNG seed for weight initialisation.
    pub seed: u64,
}

impl Default for ModelSpec {
    fn default() -> Self {
        Self {
            hidden1: 64,
            hidden2: 32,
            seed: 0xAD45,
        }
    }
}

impl Encode for ModelSpec {
    fn encode(&self, w: &mut Writer) {
        let Self {
            hidden1,
            hidden2,
            seed,
        } = *self;
        w.usize(hidden1);
        w.usize(hidden2);
        w.u64(seed);
    }
}

impl ModelSpec {
    /// The paper's selected configuration (128-64 hidden units).
    #[must_use]
    pub fn paper_best() -> Self {
        Self {
            hidden1: 128,
            hidden2: 64,
            ..Self::default()
        }
    }
}

/// Recurrent state carried between control cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorState {
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
}

/// Preallocated inference scratch for [`LstmPredictor::step_with`].
///
/// Holds the gate pre-activation buffers and the double-buffered next
/// hidden/cell states, so a 100 Hz control loop performs zero heap
/// allocations per cycle after construction.
#[derive(Debug, Clone)]
pub struct InferScratch {
    z1: Vec<f64>,
    z2: Vec<f64>,
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
    y: Vec<f64>,
}

/// Recurrent state for a whole batch of runs, held as lane-contiguous
/// `[units × width]` panels (`panel[k * width + lane]`).
///
/// Lane `lane` of a panel is one run's recurrent state; the batched
/// forward ([`LstmPredictor::step_batch`]) advances every lane with one
/// weights-stationary matvec per layer. Lanes are fully independent — no
/// value ever crosses lanes — which is what makes the batched path
/// bit-identical to the scalar one per run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPredictorState {
    width: usize,
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
}

impl BatchPredictorState {
    /// Batch width (number of lanes).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Zeroes one lane's recurrent state — equivalent to giving that lane
    /// a fresh [`LstmPredictor::init_state`]. Called when a retired lane
    /// is refilled with a new run.
    pub fn reset_lane(&mut self, lane: usize) {
        assert!(lane < self.width, "lane out of range");
        let w = self.width;
        for panel in [&mut self.h1, &mut self.c1, &mut self.h2, &mut self.c2] {
            let units = panel.len() / w;
            for k in 0..units {
                panel[k * w + lane] = 0.0;
            }
        }
    }
}

/// Preallocated scratch panels for [`LstmPredictor::step_batch`]: gate
/// pre-activations, double-buffered next hidden/cell states, and the head
/// output panel. Zero heap allocations per batched cycle after
/// construction — the batched analogue of [`InferScratch`].
#[derive(Debug, Clone)]
pub struct BatchInferScratch {
    width: usize,
    z1: Vec<f64>,
    z2: Vec<f64>,
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
    y: Vec<f64>,
}

impl BatchInferScratch {
    /// The head output for one lane after a [`LstmPredictor::step_batch`]
    /// call — exactly what [`LstmPredictor::step_with`] would have
    /// returned for that lane's scalar stream.
    #[must_use]
    pub fn output(&self, lane: usize) -> [f64; TARGET_DIM] {
        assert!(lane < self.width, "lane out of range");
        [self.y[lane], self.y[self.width + lane]]
    }
}

/// The two-layer LSTM + linear head.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmPredictor {
    pub(crate) l1: Lstm,
    pub(crate) l2: Lstm,
    pub(crate) head: Linear,
    spec: ModelSpec,
}

impl LstmPredictor {
    /// Creates a randomly initialised model.
    #[must_use]
    pub fn new(spec: ModelSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        Self {
            l1: Lstm::new(FEATURE_DIM, spec.hidden1, &mut rng),
            l2: Lstm::new(spec.hidden1, spec.hidden2, &mut rng),
            head: Linear::new(TARGET_DIM, spec.hidden2, &mut rng),
            spec,
        }
    }

    /// The architecture.
    #[must_use]
    pub fn spec(&self) -> ModelSpec {
        self.spec
    }

    /// The batched matvecs of one [`Self::step_batch`] in call order: the
    /// two layers' packed gate transforms, then the output head (for
    /// per-kernel microbenchmarks).
    #[must_use]
    pub fn matvecs(&self) -> [&Linear; 3] {
        [&self.l1.gates, &self.l2.gates, &self.head]
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.l1.param_count() + self.l2.param_count() + self.head.param_count()
    }

    /// A fresh zeroed recurrent state.
    #[must_use]
    pub fn init_state(&self) -> PredictorState {
        PredictorState {
            h1: vec![0.0; self.spec.hidden1],
            c1: vec![0.0; self.spec.hidden1],
            h2: vec![0.0; self.spec.hidden2],
            c2: vec![0.0; self.spec.hidden2],
        }
    }

    /// Preallocated scratch sized for this architecture (see
    /// [`Self::step_with`]).
    #[must_use]
    pub fn infer_scratch(&self) -> InferScratch {
        InferScratch {
            z1: vec![0.0; 4 * self.spec.hidden1],
            z2: vec![0.0; 4 * self.spec.hidden2],
            h1: vec![0.0; self.spec.hidden1],
            c1: vec![0.0; self.spec.hidden1],
            h2: vec![0.0; self.spec.hidden2],
            c2: vec![0.0; self.spec.hidden2],
            y: vec![0.0; TARGET_DIM],
        }
    }

    /// Advances the recurrent state by one control cycle and returns the
    /// normalised prediction.
    ///
    /// Allocating convenience wrapper around [`Self::step_with`]; callers
    /// on the hot path hold an [`InferScratch`] and use `step_with`
    /// directly.
    pub fn step(&self, x: &[f64; FEATURE_DIM], state: &mut PredictorState) -> [f64; TARGET_DIM] {
        let mut scratch = self.infer_scratch();
        self.step_with(x, state, &mut scratch)
    }

    /// Allocation-free [`Self::step`]: advances `state` using preallocated
    /// `scratch` buffers. Bit-identical to `step`.
    pub fn step_with(
        &self,
        x: &[f64; FEATURE_DIM],
        state: &mut PredictorState,
        scratch: &mut InferScratch,
    ) -> [f64; TARGET_DIM] {
        self.l1
            .step_infer(x, &state.h1, &state.c1, &mut scratch.z1, &mut scratch.h1, &mut scratch.c1);
        self.l2.step_infer(
            &scratch.h1,
            &state.h2,
            &state.c2,
            &mut scratch.z2,
            &mut scratch.h2,
            &mut scratch.c2,
        );
        std::mem::swap(&mut state.h1, &mut scratch.h1);
        std::mem::swap(&mut state.c1, &mut scratch.c1);
        std::mem::swap(&mut state.h2, &mut scratch.h2);
        std::mem::swap(&mut state.c2, &mut scratch.c2);
        self.head.forward_into(&state.h2, &mut scratch.y);
        [scratch.y[0], scratch.y[1]]
    }

    /// A fresh zeroed batch state with `width` lanes.
    #[must_use]
    pub fn batch_state(&self, width: usize) -> BatchPredictorState {
        assert!(width > 0, "batch width must be ≥ 1");
        BatchPredictorState {
            width,
            h1: vec![0.0; self.spec.hidden1 * width],
            c1: vec![0.0; self.spec.hidden1 * width],
            h2: vec![0.0; self.spec.hidden2 * width],
            c2: vec![0.0; self.spec.hidden2 * width],
        }
    }

    /// Preallocated batch scratch panels sized for this architecture and
    /// `width` lanes.
    #[must_use]
    pub fn batch_scratch(&self, width: usize) -> BatchInferScratch {
        assert!(width > 0, "batch width must be ≥ 1");
        BatchInferScratch {
            width,
            z1: vec![0.0; 4 * self.spec.hidden1 * width],
            z2: vec![0.0; 4 * self.spec.hidden2 * width],
            h1: vec![0.0; self.spec.hidden1 * width],
            c1: vec![0.0; self.spec.hidden1 * width],
            h2: vec![0.0; self.spec.hidden2 * width],
            c2: vec![0.0; self.spec.hidden2 * width],
            y: vec![0.0; TARGET_DIM * width],
        }
    }

    /// Advances every lane of the batch by one control cycle with one
    /// weights-stationary matvec per layer.
    ///
    /// `x` is a `FEATURE_DIM × width` lane-contiguous input panel
    /// (`x[c * width + lane]`). Per-lane outputs land in the scratch's
    /// head panel — read them with [`BatchInferScratch::output`].
    ///
    /// Bit-identical per lane to [`Self::step_with`]: the matvec consumes
    /// columns in the same order with the bias added last, the gate math
    /// is the scalar expression per lane, and lanes never mix.
    ///
    /// # Panics
    ///
    /// Panics if the panel widths disagree or `x` has the wrong size.
    pub fn step_batch(
        &self,
        x: &[f64],
        state: &mut BatchPredictorState,
        scratch: &mut BatchInferScratch,
    ) {
        self.step_batch_inner(x, state, scratch, None);
    }

    /// [`Self::step_batch`] with a per-lane liveness mask: lanes with
    /// `active[lane] == false` skip the gate transcendentals (the dominant
    /// per-lane cost) and keep stale state. Live lanes are bit-identical
    /// to [`Self::step_with`] regardless of the mask — a masked-out lane
    /// must be [`BatchPredictorState::reset_lane`]-reset before it is
    /// reactivated, which is exactly what the lockstep executor's refill
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the panel widths disagree, `x` has the wrong size, or
    /// `active.len() != width`.
    pub fn step_batch_masked(
        &self,
        x: &[f64],
        state: &mut BatchPredictorState,
        scratch: &mut BatchInferScratch,
        active: &[bool],
    ) {
        self.step_batch_inner(x, state, scratch, Some(active));
    }

    fn step_batch_inner(
        &self,
        x: &[f64],
        state: &mut BatchPredictorState,
        scratch: &mut BatchInferScratch,
        mask: Option<&[bool]>,
    ) {
        let width = state.width;
        assert_eq!(scratch.width, width, "state/scratch width mismatch");
        assert_eq!(x.len(), FEATURE_DIM * width, "input panel dimension mismatch");
        self.l1.step_batch(
            width,
            x,
            &state.h1,
            &state.c1,
            &mut scratch.z1,
            &mut scratch.h1,
            &mut scratch.c1,
            mask,
        );
        self.l2.step_batch(
            width,
            &scratch.h1,
            &state.h2,
            &state.c2,
            &mut scratch.z2,
            &mut scratch.h2,
            &mut scratch.c2,
            mask,
        );
        std::mem::swap(&mut state.h1, &mut scratch.h1);
        std::mem::swap(&mut state.c1, &mut scratch.c1);
        std::mem::swap(&mut state.h2, &mut scratch.h2);
        std::mem::swap(&mut state.c2, &mut scratch.c2);
        self.head.forward_batch(width, &state.h2, &mut scratch.y);
    }

    /// Runs a whole window from a zero state (training/eval convenience —
    /// the paper's 20-frame input framing).
    #[must_use]
    pub fn predict_window(&self, window: &[[f64; FEATURE_DIM]]) -> [f64; TARGET_DIM] {
        let mut st = self.init_state();
        let mut scratch = self.infer_scratch();
        let mut out = [0.0; TARGET_DIM];
        for x in window {
            out = self.step_with(x, &mut st, &mut scratch);
        }
        out
    }

    /// Serialises the trained weights to a portable little-endian binary
    /// blob (for the artifact cache). Gradient accumulators are not stored.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MODEL_MAGIC);
        w.put(&self.spec);
        for lin in [&self.l1.gates, &self.l2.gates, &self.head] {
            w.usize(lin.rows);
            w.usize(lin.cols);
            for &v in lin.w.iter().chain(lin.b.iter()) {
                w.f64(v);
            }
        }
        w.into_bytes()
    }

    /// Reconstructs a model from [`Self::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (bad magic,
    /// truncation, dimension mismatch) — callers treat any error as a cache
    /// miss and retrain. A layer's weights are only allocated once the
    /// payload is known to hold them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let malformed = |e| format!("malformed model payload: {e}");
        let mut r = Reader::new(bytes);
        if r.take(MODEL_MAGIC.len()).map_err(malformed)? != MODEL_MAGIC {
            return Err("bad model magic".into());
        }
        let hidden1 = r.usize().map_err(malformed)?;
        let hidden2 = r.usize().map_err(malformed)?;
        let seed = r.u64().map_err(malformed)?;
        if hidden1 == 0 || hidden2 == 0 || hidden1 > 1 << 16 || hidden2 > 1 << 16 {
            return Err(format!("implausible hidden sizes {hidden1}/{hidden2}"));
        }
        let spec = ModelSpec {
            hidden1,
            hidden2,
            seed,
        };
        let expect = [
            (4 * hidden1, FEATURE_DIM + hidden1),
            (4 * hidden2, hidden1 + hidden2),
            (TARGET_DIM, hidden2),
        ];
        let mut linears = Vec::with_capacity(3);
        for (want_rows, want_cols) in expect {
            let rows = r.usize().map_err(malformed)?;
            let cols = r.usize().map_err(malformed)?;
            if rows != want_rows || cols != want_cols {
                return Err(format!(
                    "layer shape {rows}×{cols}, expected {want_rows}×{want_cols}"
                ));
            }
            r.fits((rows as u64) * (cols as u64 + 1), 8).map_err(malformed)?;
            let mut read = |n: usize| (0..n).map(|_| r.f64()).collect::<Result<Vec<_>, _>>();
            let w = read(rows * cols).map_err(malformed)?;
            let b = read(rows).map_err(malformed)?;
            linears.push(Linear {
                rows,
                cols,
                w,
                b,
                gw: vec![0.0; rows * cols],
                gb: vec![0.0; rows],
            });
        }
        if !r.exhausted() {
            return Err("trailing bytes after model payload".into());
        }
        let head = linears.pop().expect("three layers parsed");
        let g2 = linears.pop().expect("three layers parsed");
        let g1 = linears.pop().expect("three layers parsed");
        Ok(Self {
            l1: Lstm {
                input: FEATURE_DIM,
                hidden: hidden1,
                gates: g1,
            },
            l2: Lstm {
                input: hidden1,
                hidden: hidden2,
                gates: g2,
            },
            head,
            spec,
        })
    }
}

/// Magic + format version prefix for [`LstmPredictor::to_bytes`].
const MODEL_MAGIC: &[u8] = b"ADASLSTM\x01";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_initialisation() {
        let a = LstmPredictor::new(ModelSpec::default());
        let b = LstmPredictor::new(ModelSpec::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = LstmPredictor::new(ModelSpec::default());
        let b = LstmPredictor::new(ModelSpec {
            seed: 99,
            ..ModelSpec::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn step_and_window_agree() {
        let m = LstmPredictor::new(ModelSpec::default());
        let window: Vec<[f64; FEATURE_DIM]> = (0..20)
            .map(|t| {
                let mut x = [0.0; FEATURE_DIM];
                x[0] = (t as f64) / 20.0;
                x
            })
            .collect();
        let via_window = m.predict_window(&window);
        let mut st = m.init_state();
        let mut via_steps = [0.0; TARGET_DIM];
        for x in &window {
            via_steps = m.step(x, &mut st);
        }
        assert_eq!(via_window, via_steps);
    }

    #[test]
    fn paper_best_is_larger() {
        let small = LstmPredictor::new(ModelSpec::default());
        let big = LstmPredictor::new(ModelSpec::paper_best());
        assert!(big.param_count() > small.param_count());
    }

    #[test]
    fn step_with_matches_step_bitwise() {
        let m = LstmPredictor::new(ModelSpec::default());
        let mut st_a = m.init_state();
        let mut st_b = m.init_state();
        let mut scratch = m.infer_scratch();
        for t in 0..50 {
            let mut x = [0.0; FEATURE_DIM];
            x[0] = (t as f64 * 0.13).sin();
            x[3] = (t as f64 * 0.07).cos();
            let ya = m.step(&x, &mut st_a);
            let yb = m.step_with(&x, &mut st_b, &mut scratch);
            assert_eq!(ya, yb, "diverged at step {t}");
        }
        assert_eq!(st_a, st_b);
    }

    #[test]
    fn step_batch_bitwise_matches_step_with_across_widths() {
        let m = LstmPredictor::new(ModelSpec {
            hidden1: 16,
            hidden2: 8,
            seed: 11,
        });
        for width in [1usize, 4, 32] {
            let mut panel_state = m.batch_state(width);
            let mut panel_scratch = m.batch_scratch(width);
            let mut scalar: Vec<(PredictorState, InferScratch)> = (0..width)
                .map(|_| (m.init_state(), m.infer_scratch()))
                .collect();
            for t in 0..40 {
                let mut x_panel = vec![0.0; FEATURE_DIM * width];
                let mut xs = Vec::with_capacity(width);
                for lane in 0..width {
                    let mut x = [0.0; FEATURE_DIM];
                    for (c, v) in x.iter_mut().enumerate() {
                        *v = ((t * FEATURE_DIM + c) as f64 * 0.17 + lane as f64 * 0.9).sin();
                    }
                    for (c, v) in x.iter().enumerate() {
                        x_panel[c * width + lane] = *v;
                    }
                    xs.push(x);
                }
                m.step_batch(&x_panel, &mut panel_state, &mut panel_scratch);
                for (lane, (st, sc)) in scalar.iter_mut().enumerate() {
                    let y = m.step_with(&xs[lane], st, sc);
                    let yb = panel_scratch.output(lane);
                    assert_eq!(y[0].to_bits(), yb[0].to_bits(), "w{width} lane{lane} t{t}");
                    assert_eq!(y[1].to_bits(), yb[1].to_bits(), "w{width} lane{lane} t{t}");
                }
            }
        }
    }

    #[test]
    fn masked_lanes_do_not_perturb_live_lanes() {
        // Live lanes must be bit-identical to their scalar streams no
        // matter which other lanes are masked out, and a masked-out lane
        // must resume a correct fresh stream after reset_lane — the exact
        // life cycle of a drained-then-refilled lockstep slot.
        let m = LstmPredictor::new(ModelSpec {
            hidden1: 12,
            hidden2: 6,
            seed: 21,
        });
        let width = 4;
        let mut state = m.batch_state(width);
        let mut scratch = m.batch_scratch(width);
        let mut scalar: Vec<(PredictorState, InferScratch)> =
            (0..width).map(|_| (m.init_state(), m.infer_scratch())).collect();
        let x_of = |t: usize, lane: usize| {
            let mut x = [0.0; FEATURE_DIM];
            for (c, v) in x.iter_mut().enumerate() {
                *v = ((t * FEATURE_DIM + c) as f64 * 0.19 + lane as f64 * 1.3).sin();
            }
            x
        };
        let mut panel = vec![0.0; FEATURE_DIM * width];
        // Phase 1: lanes 0–2 live, lane 3 masked out the whole time.
        let live = [true, true, true, false];
        for t in 0..15 {
            for lane in 0..width {
                for (c, v) in x_of(t, lane).iter().enumerate() {
                    panel[c * width + lane] = *v;
                }
            }
            m.step_batch_masked(&panel, &mut state, &mut scratch, &live);
            for (lane, (st, sc)) in scalar.iter_mut().enumerate().take(3) {
                let y = m.step_with(&x_of(t, lane), st, sc);
                assert_eq!(y, scratch.output(lane), "live lane {lane} t {t}");
            }
        }
        // Phase 2: lane 1 retires (masked), lane 3 refills (reset + live).
        state.reset_lane(3);
        let live = [true, false, true, true];
        let mut fresh = (m.init_state(), m.infer_scratch());
        for t in 15..30 {
            for lane in 0..width {
                for (c, v) in x_of(t, lane).iter().enumerate() {
                    panel[c * width + lane] = *v;
                }
            }
            m.step_batch_masked(&panel, &mut state, &mut scratch, &live);
            for lane in [0usize, 2] {
                let (st, sc) = &mut scalar[lane];
                let y = m.step_with(&x_of(t, lane), st, sc);
                assert_eq!(y, scratch.output(lane), "veteran lane {lane} t {t}");
            }
            let y = m.step_with(&x_of(t, 3), &mut fresh.0, &mut fresh.1);
            assert_eq!(y, scratch.output(3), "refilled lane t {t}");
        }
    }

    #[test]
    fn reset_lane_restarts_one_stream_without_touching_others() {
        let m = LstmPredictor::new(ModelSpec {
            hidden1: 8,
            hidden2: 4,
            seed: 13,
        });
        let width = 3;
        let mut state = m.batch_state(width);
        let mut scratch = m.batch_scratch(width);
        let x_of = |t: usize, lane: usize| {
            let mut x = [0.0; FEATURE_DIM];
            for (c, v) in x.iter_mut().enumerate() {
                *v = ((t + c) as f64 * 0.23 + lane as f64).cos();
            }
            x
        };
        let panel_of = |t: usize| {
            let mut p = vec![0.0; FEATURE_DIM * width];
            for lane in 0..width {
                let x = x_of(t, lane);
                for (c, v) in x.iter().enumerate() {
                    p[c * width + lane] = *v;
                }
            }
            p
        };
        for t in 0..10 {
            m.step_batch(&panel_of(t), &mut state, &mut scratch);
        }
        // Restart lane 1 mid-flight; it must now track a fresh scalar
        // stream while lanes 0 and 2 continue theirs.
        state.reset_lane(1);
        let mut fresh = m.init_state();
        let mut fresh_scratch = m.infer_scratch();
        let mut veterans: Vec<(PredictorState, InferScratch)> =
            (0..width).map(|_| (m.init_state(), m.infer_scratch())).collect();
        for t in 0..10 {
            for (lane, (st, sc)) in veterans.iter_mut().enumerate() {
                let _ = m.step_with(&x_of(t, lane), st, sc);
            }
        }
        for t in 10..25 {
            m.step_batch(&panel_of(t), &mut state, &mut scratch);
            let y_fresh = m.step_with(&x_of(t, 1), &mut fresh, &mut fresh_scratch);
            assert_eq!(scratch.output(1), y_fresh, "restarted lane at t {t}");
            for lane in [0usize, 2] {
                let (st, sc) = &mut veterans[lane];
                let y_vet = m.step_with(&x_of(t, lane), st, sc);
                assert_eq!(scratch.output(lane), y_vet, "veteran lane {lane} at t {t}");
            }
        }
    }

    #[test]
    fn bytes_roundtrip_is_exact() {
        let m = LstmPredictor::new(ModelSpec {
            hidden1: 16,
            hidden2: 8,
            seed: 77,
        });
        let blob = m.to_bytes();
        let back = LstmPredictor::from_bytes(&blob).expect("roundtrip");
        assert_eq!(m, back);
        assert_eq!(m.spec(), back.spec());
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let m = LstmPredictor::new(ModelSpec {
            hidden1: 8,
            hidden2: 4,
            seed: 1,
        });
        let blob = m.to_bytes();
        assert!(LstmPredictor::from_bytes(&blob[..blob.len() - 1]).is_err());
        assert!(LstmPredictor::from_bytes(b"not a model").is_err());
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xFF;
        assert!(LstmPredictor::from_bytes(&bad_magic).is_err());
        let mut extended = blob;
        extended.push(0);
        assert!(LstmPredictor::from_bytes(&extended).is_err());
    }

    #[test]
    fn huge_hidden_sizes_on_a_short_payload_are_refused() {
        // A header claiming 65536-wide layers describes ~137 GB of weights;
        // the decoder must check the payload holds them before allocating.
        let mut w = Writer::new();
        w.bytes(MODEL_MAGIC);
        w.put(&ModelSpec {
            hidden1: 1 << 16,
            hidden2: 1 << 16,
            seed: 0,
        });
        w.usize(4 << 16);
        w.usize(FEATURE_DIM + (1 << 16));
        w.f64(0.0);
        let err = LstmPredictor::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
    }

    #[test]
    fn every_spec_and_training_field_moves_the_model_key() {
        use crate::train::TrainConfig;
        use adas_codec::Fingerprint;
        let key = |spec: &ModelSpec, tc: &TrainConfig| Fingerprint::new().write(spec).write(tc);
        let (spec, tc) = (ModelSpec::default(), TrainConfig::default());
        let spec_fields: [fn(&mut ModelSpec); 3] = [
            |s| s.hidden1 += 1,
            |s| s.hidden2 += 1,
            |s| s.seed += 1,
        ];
        let train_fields: [fn(&mut TrainConfig); 9] = [
            |t| t.epochs += 1,
            |t| t.batch += 1,
            |t| t.adam.lr *= 2.0,
            |t| t.adam.beta1 *= 0.5,
            |t| t.adam.beta2 *= 0.5,
            |t| t.adam.eps *= 2.0,
            |t| t.adam.grad_clip *= 2.0,
            |t| t.seed += 1,
            |t| t.history_dropout *= 0.5,
        ];
        let mut seen = std::collections::HashSet::from([key(&spec, &tc)]);
        for (i, perturb) in spec_fields.iter().enumerate() {
            let mut s = spec;
            perturb(&mut s);
            assert!(seen.insert(key(&s, &tc)), "ModelSpec field {i}: key did not move");
        }
        for (i, perturb) in train_fields.iter().enumerate() {
            let mut t = tc;
            perturb(&mut t);
            assert!(seen.insert(key(&spec, &t)), "TrainConfig field {i}: key did not move");
        }
    }

    #[test]
    fn outputs_finite() {
        let m = LstmPredictor::new(ModelSpec::default());
        let x = [1.0; FEATURE_DIM];
        let mut st = m.init_state();
        for _ in 0..100 {
            let y = m.step(&x, &mut st);
            assert!(y.iter().all(|v| v.is_finite()));
        }
    }
}
