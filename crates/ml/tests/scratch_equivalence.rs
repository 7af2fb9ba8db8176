//! Numeric-equivalence tests for the model's only inference path,
//! `LstmPredictor::step_batch`, against a scalar oracle written out
//! independently here: a two-layer predictor step plus head built from
//! `naive_step` (the gate equations over a materialised concatenation)
//! and `Linear::forward`. The batched path must match it bit for bit at
//! every width, with lanes that are not live, and across `reset_lane`
//! refills: campaign determinism depends on it. (The training path's
//! oracle is `bptt_oracle.rs`.)

use adas_ml::linear::Linear;
use adas_ml::{LstmPredictor, ModelSpec, FEATURE_DIM, TARGET_DIM};
use adas_simulator::math::{sigmoid, sin, tanh};

/// Naive allocating LSTM step, written from the gate equations: the
/// concatenation is materialised and the packed gate transform applied
/// with the plain `forward` path.
fn naive_step(gates: &Linear, x: &[f64], h_prev: &[f64], c_prev: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let h = gates.rows / 4;
    let xh: Vec<f64> = x.iter().chain(h_prev).copied().collect();
    let z = gates.forward(&xh);
    let mut h_out = vec![0.0; h];
    let mut c_out = vec![0.0; h];
    for k in 0..h {
        let i = sigmoid(z[k]);
        let f = sigmoid(z[h + k]);
        let g = tanh(z[2 * h + k]);
        let o = sigmoid(z[3 * h + k]);
        c_out[k] = f * c_prev[k] + i * g;
        h_out[k] = o * tanh(c_out[k]);
    }
    (h_out, c_out)
}

/// The scalar oracle for [`LstmPredictor::step_batch`]: one stream of the
/// two-layer predictor plus its head, stepped with [`naive_step`] and
/// `Linear::forward` on plain vectors.
struct Oracle<'m> {
    gates: [&'m Linear; 3],
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
}

impl<'m> Oracle<'m> {
    /// A stream from the zero state.
    fn new(model: &'m LstmPredictor) -> Self {
        let spec = model.spec();
        Self {
            gates: model.matvecs(),
            h1: vec![0.0; spec.hidden1],
            c1: vec![0.0; spec.hidden1],
            h2: vec![0.0; spec.hidden2],
            c2: vec![0.0; spec.hidden2],
        }
    }

    fn step(&mut self, x: &[f64; FEATURE_DIM]) -> [f64; TARGET_DIM] {
        let [l1, l2, head] = self.gates;
        let (h1, c1) = naive_step(l1, x, &self.h1, &self.c1);
        let (h2, c2) = naive_step(l2, &h1, &self.h2, &self.c2);
        let y = head.forward(&h2);
        (self.h1, self.c1, self.h2, self.c2) = (h1, c1, h2, c2);
        [y[0], y[1]]
    }
}

fn assert_bitwise(got: [f64; TARGET_DIM], want: [f64; TARGET_DIM], what: &str) {
    for k in 0..TARGET_DIM {
        assert_eq!(
            got[k].to_bits(),
            want[k].to_bits(),
            "{what}, output {k}: {} vs oracle {}",
            got[k],
            want[k]
        );
    }
}

/// Distinct inputs per (step, lane), seeded by `phase`.
fn input(t: usize, lane: usize, phase: f64) -> [f64; FEATURE_DIM] {
    let mut x = [0.0; FEATURE_DIM];
    for (c, v) in x.iter_mut().enumerate() {
        *v = sin((t * FEATURE_DIM + c) as f64 * phase + lane as f64 * 1.3);
    }
    x
}

/// The lane-contiguous input panel (`x[c * width + lane]`) of step `t`.
fn panel(t: usize, width: usize, phase: f64) -> Vec<f64> {
    let mut p = vec![0.0; FEATURE_DIM * width];
    for lane in 0..width {
        for (c, v) in input(t, lane, phase).iter().enumerate() {
            p[c * width + lane] = *v;
        }
    }
    p
}

#[test]
fn step_batch_matches_the_scalar_oracle_bitwise_across_widths() {
    let m = LstmPredictor::new(ModelSpec {
        hidden1: 16,
        hidden2: 8,
        seed: 11,
    });
    for width in [1usize, 4, 32] {
        let mut state = m.batch_state(width);
        let mut scratch = m.batch_scratch(width);
        let mut oracles: Vec<Oracle> = (0..width).map(|_| Oracle::new(&m)).collect();
        for t in 0..40 {
            m.step_batch(&panel(t, width, 0.17), &mut state, &mut scratch);
            for (lane, oracle) in oracles.iter_mut().enumerate() {
                let want = oracle.step(&input(t, lane, 0.17));
                assert_bitwise(
                    scratch.output(lane),
                    want,
                    &format!("w{width} lane{lane} t{t}"),
                );
            }
        }
    }
}

#[test]
fn lanes_that_are_not_live_do_not_perturb_live_lanes() {
    // Live lanes must match their oracle streams bit for bit no matter
    // which other lanes are not live, and a lane that was not live must
    // resume a correct fresh stream after reset_lane — the exact life
    // cycle of a drained-then-refilled lockstep slot.
    let m = LstmPredictor::new(ModelSpec {
        hidden1: 12,
        hidden2: 6,
        seed: 21,
    });
    let width = 4;
    let mut state = m.batch_state(width);
    let mut scratch = m.batch_scratch(width);
    let mut oracles: Vec<Oracle> = (0..width).map(|_| Oracle::new(&m)).collect();
    // Phase 1: lanes 0–2 live, lane 3 not live the whole time.
    state.set_live(3, false);
    for t in 0..15 {
        m.step_batch(&panel(t, width, 0.19), &mut state, &mut scratch);
        for (lane, oracle) in oracles.iter_mut().enumerate().take(3) {
            let want = oracle.step(&input(t, lane, 0.19));
            assert_bitwise(
                scratch.output(lane),
                want,
                &format!("live lane {lane} t {t}"),
            );
        }
    }
    // Phase 2: lane 1 retires (not live), lane 3 refills (reset + live).
    state.set_live(1, false);
    state.reset_lane(3);
    state.set_live(3, true);
    oracles[3] = Oracle::new(&m);
    for t in 15..30 {
        m.step_batch(&panel(t, width, 0.19), &mut state, &mut scratch);
        for lane in [0usize, 2, 3] {
            let want = oracles[lane].step(&input(t, lane, 0.19));
            assert_bitwise(scratch.output(lane), want, &format!("lane {lane} t {t}"));
        }
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
    let mut oracles: Vec<Oracle> = (0..width).map(|_| Oracle::new(&m)).collect();
    for t in 0..10 {
        m.step_batch(&panel(t, width, 0.23), &mut state, &mut scratch);
        for (lane, oracle) in oracles.iter_mut().enumerate() {
            let _ = oracle.step(&input(t, lane, 0.23));
        }
    }
    // Restart lane 1 mid-flight; it must now track a fresh oracle stream
    // while lanes 0 and 2 continue theirs.
    state.reset_lane(1);
    oracles[1] = Oracle::new(&m);
    for t in 10..25 {
        m.step_batch(&panel(t, width, 0.23), &mut state, &mut scratch);
        for (lane, oracle) in oracles.iter_mut().enumerate() {
            let want = oracle.step(&input(t, lane, 0.23));
            assert_bitwise(scratch.output(lane), want, &format!("lane {lane} at t {t}"));
        }
    }
}

#[test]
fn predict_window_matches_the_scalar_oracle() {
    let model = LstmPredictor::new(ModelSpec {
        hidden1: 12,
        hidden2: 6,
        seed: 15,
    });
    let window: Vec<[f64; FEATURE_DIM]> = (0..20).map(|t| input(t, 0, 0.247)).collect();

    let fast = model.predict_window(&window);
    let mut oracle = Oracle::new(&model);
    let mut reference = [0.0; TARGET_DIM];
    for x in &window {
        reference = oracle.step(x);
    }
    assert_bitwise(fast, reference, "predict_window vs oracle");
}
