//! Numeric-equivalence tests for the allocation-free hot paths, against
//! naive allocating implementations written out independently here.
//!
//! The split-input (concat) matvecs must be bit-identical to the
//! materialised-concatenation path, and the training step
//! (`step_cached`, `step_backward_into`) must agree with the naive gate
//! equations. The scalar oracle — a two-layer predictor step plus head
//! built from `naive_step` and `Linear::forward` — is the reference for
//! the model's only inference path, `LstmPredictor::step_batch`, which
//! must match it bit for bit at every width, with lanes that are not
//! live, and across `reset_lane` refills: campaign determinism depends on
//! it.

use adas_ml::linear::{sigmoid, Linear};
use adas_ml::lstm::{Lstm, LstmCache};
use adas_ml::{LstmPredictor, ModelSpec, FEATURE_DIM, TARGET_DIM};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f64 = 1e-12;

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= TOL,
            "{what}[{k}]: {x} vs {y} (diff {})",
            (x - y).abs()
        );
    }
}

fn test_vec(len: usize, phase: f64) -> Vec<f64> {
    (0..len)
        .map(|k| ((k as f64) * 0.613 + phase).sin() * 1.7)
        .collect()
}

#[test]
fn forward_concat_is_bit_identical_to_materialised_concat() {
    let mut rng = StdRng::seed_from_u64(11);
    let lin = Linear::new(7, 9, &mut rng);
    let xa = test_vec(4, 0.2);
    let xb = test_vec(5, 1.3);
    let xcat: Vec<f64> = xa.iter().chain(&xb).copied().collect();

    let reference = lin.forward(&xcat);
    let mut split = vec![0.0; 7];
    lin.forward_concat_into(&xa, &xb, &mut split);
    for (k, (r, s)) in reference.iter().zip(&split).enumerate() {
        assert_eq!(r.to_bits(), s.to_bits(), "row {k}: {r} vs {s}");
    }
}

#[test]
fn backward_concat_matches_materialised_concat() {
    let mut rng = StdRng::seed_from_u64(12);
    let xa = test_vec(3, 0.4);
    let xb = test_vec(6, 2.1);
    let xcat: Vec<f64> = xa.iter().chain(&xb).copied().collect();
    let dy = test_vec(5, 0.9);

    // Reference: the allocating single-input path on the concatenation.
    let mut reference = Linear::new(5, 9, &mut rng);
    let dx_cat = reference.backward(&xcat, &dy);

    // Refactored: split inputs, caller-owned gradient buffers.
    let lin = reference.clone();
    let mut gw = vec![0.0; 5 * 9];
    let mut gb = vec![0.0; 5];
    let mut dxa = vec![0.0; 3];
    let mut dxb = vec![0.0; 6];
    lin.backward_concat_into(&xa, &xb, &dy, &mut gw, &mut gb, &mut dxa, &mut dxb);

    assert_close(&reference.gw, &gw, "gw");
    assert_close(&reference.gb, &gb, "gb");
    assert_close(&dx_cat[..3], &dxa, "dxa");
    assert_close(&dx_cat[3..], &dxb, "dxb");
}

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
        let g = z[2 * h + k].tanh();
        let o = sigmoid(z[3 * h + k]);
        c_out[k] = f * c_prev[k] + i * g;
        h_out[k] = o * c_out[k].tanh();
    }
    (h_out, c_out)
}

/// Naive allocating BPTT step, written from the gate equations: the
/// forward is recomputed, and the gate-space gradient is pushed through
/// the plain `backward` path on the materialised concatenation, which
/// accumulates into `gates.gw`/`gates.gb`. Returns `(dx, dh_prev,
/// dc_prev)`.
fn naive_backward(
    gates: &mut Linear,
    x: &[f64],
    h_prev: &[f64],
    c_prev: &[f64],
    dh: &[f64],
    dc_in: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let h = gates.rows / 4;
    let xh: Vec<f64> = x.iter().chain(h_prev).copied().collect();
    let z = gates.forward(&xh);
    let mut dz = vec![0.0; 4 * h];
    let mut dc_prev = vec![0.0; h];
    for k in 0..h {
        let i = sigmoid(z[k]);
        let f = sigmoid(z[h + k]);
        let g = z[2 * h + k].tanh();
        let o = sigmoid(z[3 * h + k]);
        let tanh_c = (f * c_prev[k] + i * g).tanh();
        let dc = dc_in[k] + dh[k] * o * (1.0 - tanh_c * tanh_c);
        dc_prev[k] = dc * f;
        dz[k] = dc * g * i * (1.0 - i);
        dz[h + k] = dc * c_prev[k] * f * (1.0 - f);
        dz[2 * h + k] = dc * i * (1.0 - g * g);
        dz[3 * h + k] = dh[k] * tanh_c * o * (1.0 - o);
    }
    let dxh = gates.backward(&xh, &dz);
    (dxh[..x.len()].to_vec(), dxh[x.len()..].to_vec(), dc_prev)
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
        *v = ((t * FEATURE_DIM + c) as f64 * phase + lane as f64 * 1.3).sin();
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
fn lstm_step_cached_matches_naive_reference() {
    let mut rng = StdRng::seed_from_u64(13);
    let l = Lstm::new(5, 7, &mut rng);
    let mut h = vec![0.0; 7];
    let mut c = vec![0.0; 7];
    let mut z = vec![0.0; 28];
    let mut cache = LstmCache::default();
    let mut h_out = vec![0.0; 7];
    let mut c_out = vec![0.0; 7];

    for t in 0..30 {
        let x = test_vec(5, t as f64 * 0.31);
        let (h_ref, c_ref) = naive_step(&l.gates, &x, &h, &c);
        l.step_cached(&x, &h, &c, &mut z, &mut cache, &mut h_out, &mut c_out);

        assert_close(&h_ref, &h_out, "h: step_cached vs naive");
        assert_close(&c_ref, &c_out, "c: step_cached vs naive");

        h.clone_from(&h_out);
        c.clone_from(&c_out);
    }
}

#[test]
fn lstm_backward_into_matches_naive_reference() {
    let mut rng = StdRng::seed_from_u64(14);
    let l = Lstm::new(4, 6, &mut rng);
    let x = test_vec(4, 0.7);
    let h_prev = test_vec(6, 1.1);
    let c_prev = test_vec(6, 1.9);
    let dh = test_vec(6, 2.3);
    let dc = test_vec(6, 0.05);

    // Reference: the gate equations through the allocating `backward`.
    let mut reference = l.gates.clone();
    reference.zero_grad();
    let (dx_ref, dhp_ref, dcp_ref) = naive_backward(&mut reference, &x, &h_prev, &c_prev, &dh, &dc);

    // Training path: cache from `step_cached`, shared `&self` kernel with
    // caller-owned buffers.
    let mut cache = LstmCache::default();
    let mut z = vec![0.0; 24];
    let mut h_out = vec![0.0; 6];
    let mut c_out = vec![0.0; 6];
    l.step_cached(&x, &h_prev, &c_prev, &mut z, &mut cache, &mut h_out, &mut c_out);
    let mut gw = vec![0.0; l.gates.w.len()];
    let mut gb = vec![0.0; l.gates.b.len()];
    let mut dz = vec![0.0; 24];
    let mut dx = vec![0.0; 4];
    let mut dh_prev = vec![0.0; 6];
    let mut dc_prev = vec![0.0; 6];
    l.step_backward_into(
        &cache,
        &dh,
        &dc,
        &mut gw,
        &mut gb,
        &mut dz,
        &mut dx,
        &mut dh_prev,
        &mut dc_prev,
    );

    assert_close(&reference.gw, &gw, "gw");
    assert_close(&reference.gb, &gb, "gb");
    assert_close(&dx_ref, &dx, "dx");
    assert_close(&dhp_ref, &dh_prev, "dh_prev");
    assert_close(&dcp_ref, &dc_prev, "dc_prev");
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
                assert_bitwise(scratch.output(lane), want, &format!("w{width} lane{lane} t{t}"));
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
            assert_bitwise(scratch.output(lane), want, &format!("live lane {lane} t {t}"));
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
