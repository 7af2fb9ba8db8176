//! The two-layer LSTM regression model.
//!
//! Inference has one path: [`LstmPredictor::step_batch`] advances a
//! lane-contiguous panel of independent streams, and a single run is a
//! one-lane panel. Training runs each panel of two sample groups as its
//! lanes through `Lstm::step_taped`, which records the gate values
//! for backpropagation (see [`mod@crate::train`]); both forwards share the
//! layer's matvec and gate math, so a trained model infers exactly as it
//! was trained.

use crate::features::{FEATURE_DIM, TARGET_DIM};
use crate::linear::Linear;
use crate::lstm::Lstm;
use adas_codec::{Encode, Reader, Writer};
use adas_simulator::DeterministicRng;

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

/// Recurrent state for a batch of independent streams, held as
/// lane-contiguous `[units × width]` panels (`panel[k * width + lane]`).
///
/// Lane `lane` of a panel is one stream's recurrent state (one run, or one
/// perception view); a single run is a one-lane batch. The forward
/// ([`LstmPredictor::step_batch`]) advances every live lane with one
/// weights-stationary matvec per layer. Lanes are fully independent — no
/// value ever crosses lanes — so a lane's outputs are bit-identical
/// whatever the width and whatever the other lanes hold.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPredictorState {
    width: usize,
    live: Vec<bool>,
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

    /// Marks whether `lane` advances on the next
    /// [`LstmPredictor::step_batch`] (every lane starts live). A lane that
    /// is not live keeps its state (the gate math still runs over it,
    /// branch-free, but its writes are masked), which goes stale: reset
    /// it with [`Self::reset_lane`] before a new stream starts in it.
    pub fn set_live(&mut self, lane: usize, live: bool) {
        self.live[lane] = live;
    }

    /// Zeroes one lane's recurrent state — the state every stream starts
    /// from. Called when a retired lane is refilled with a new run.
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
/// pre-activations, `tanh c`, double-buffered next hidden/cell states, and
/// the head output panel. Zero heap allocations per cycle after construction.
#[derive(Debug, Clone)]
pub struct BatchInferScratch {
    width: usize,
    z1: Vec<f64>,
    z2: Vec<f64>,
    tanh_c1: Vec<f64>,
    tanh_c2: Vec<f64>,
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
    y: Vec<f64>,
}

impl BatchInferScratch {
    /// The normalised head output for one lane after a
    /// [`LstmPredictor::step_batch`] call.
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
        let mut rng = DeterministicRng::from_seed(spec.seed);
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

    /// The two LSTM layers of one [`Self::step_batch`] in call order (for
    /// timing their gate math alone).
    #[must_use]
    pub fn layers(&self) -> [&Lstm; 2] {
        [&self.l1, &self.l2]
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.l1.param_count() + self.l2.param_count() + self.head.param_count()
    }

    /// A fresh zeroed batch state with `width` lanes.
    #[must_use]
    pub fn batch_state(&self, width: usize) -> BatchPredictorState {
        assert!(width > 0, "batch width must be ≥ 1");
        BatchPredictorState {
            width,
            live: vec![true; width],
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
            tanh_c1: vec![0.0; self.spec.hidden1 * width],
            tanh_c2: vec![0.0; self.spec.hidden2 * width],
            h1: vec![0.0; self.spec.hidden1 * width],
            c1: vec![0.0; self.spec.hidden1 * width],
            h2: vec![0.0; self.spec.hidden2 * width],
            c2: vec![0.0; self.spec.hidden2 * width],
            y: vec![0.0; TARGET_DIM * width],
        }
    }

    /// Advances every live lane of the batch by one control cycle with one
    /// weights-stationary matvec per layer — the model's only inference
    /// path. A single run is a one-lane batch: at width 1 the input panel
    /// is the feature vector itself.
    ///
    /// `x` is a `FEATURE_DIM × width` lane-contiguous input panel
    /// (`x[c * width + lane]`). Per-lane outputs land in the scratch's
    /// head panel — read them with [`BatchInferScratch::output`]. Lanes
    /// that are not live ([`BatchPredictorState::set_live`]) keep their
    /// state, and their outputs are not meaningful.
    ///
    /// Each live lane's outputs are bit-identical to stepping that lane's
    /// stream alone: the matvec consumes columns in the same order with
    /// the bias added last, the gate math is the same per lane, and lanes
    /// never mix.
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
        let width = state.width;
        assert_eq!(scratch.width, width, "state/scratch width mismatch");
        assert_eq!(
            x.len(),
            FEATURE_DIM * width,
            "input panel dimension mismatch"
        );
        self.l1.step_batch(
            width,
            x,
            &state.h1,
            &state.c1,
            &mut scratch.z1,
            &mut scratch.h1,
            &mut scratch.c1,
            &mut scratch.tanh_c1,
            &state.live,
        );
        self.l2.step_batch(
            width,
            &scratch.h1,
            &state.h2,
            &state.c2,
            &mut scratch.z2,
            &mut scratch.h2,
            &mut scratch.c2,
            &mut scratch.tanh_c2,
            &state.live,
        );
        std::mem::swap(&mut state.h1, &mut scratch.h1);
        std::mem::swap(&mut state.c1, &mut scratch.c1);
        std::mem::swap(&mut state.h2, &mut scratch.h2);
        std::mem::swap(&mut state.c2, &mut scratch.c2);
        self.head.forward_batch(width, &state.h2, &mut scratch.y);
    }

    /// Runs a whole window through a one-lane batch from a zero state
    /// (training/eval convenience — the paper's 20-frame input framing).
    #[must_use]
    pub fn predict_window(&self, window: &[[f64; FEATURE_DIM]]) -> [f64; TARGET_DIM] {
        let mut state = self.batch_state(1);
        let mut scratch = self.batch_scratch(1);
        for x in window {
            self.step_batch(x, &mut state, &mut scratch);
        }
        scratch.output(0)
    }

    /// Serialises the trained weights to a portable little-endian binary
    /// blob (for the artifact cache).
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
            r.fits((rows as u64) * (cols as u64 + 1), 8)
                .map_err(malformed)?;
            let mut read = |n: usize| (0..n).map(|_| r.f64()).collect::<Result<Vec<_>, _>>();
            let w = read(rows * cols).map_err(malformed)?;
            let b = read(rows).map_err(malformed)?;
            linears.push(Linear { rows, cols, w, b });
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
    fn paper_best_is_larger() {
        let small = LstmPredictor::new(ModelSpec::default());
        let big = LstmPredictor::new(ModelSpec::paper_best());
        assert!(big.param_count() > small.param_count());
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
        let spec_fields: [fn(&mut ModelSpec); 3] =
            [|s| s.hidden1 += 1, |s| s.hidden2 += 1, |s| s.seed += 1];
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
            assert!(
                seen.insert(key(&s, &tc)),
                "ModelSpec field {i}: key did not move"
            );
        }
        for (i, perturb) in train_fields.iter().enumerate() {
            let mut t = tc;
            perturb(&mut t);
            assert!(
                seen.insert(key(&spec, &t)),
                "TrainConfig field {i}: key did not move"
            );
        }
    }

    #[test]
    fn outputs_finite() {
        let m = LstmPredictor::new(ModelSpec::default());
        let x = [1.0; FEATURE_DIM];
        let mut st = m.batch_state(1);
        let mut scratch = m.batch_scratch(1);
        for _ in 0..100 {
            m.step_batch(&x, &mut st, &mut scratch);
            assert!(scratch.output(0).iter().all(|v| v.is_finite()));
        }
    }
}
