//! The per-sample scalar BPTT reference: one sample at a time, one scalar
//! matvec per layer and step forward, and a backward that adds each
//! step's weight gradients and computes its input gradients in one sweep
//! over the weights. This is how `adas_ml::train` computed gradients
//! before a sample group became the lanes of one tile-kernel panel; the
//! group path must reproduce it bit for bit.
//!
//! Shared by the BPTT oracle test and, through a `#[path]` module, the
//! "scalar" rows of `batch_microbench`'s BPTT table.

#![allow(dead_code)]

use adas_ml::linear::Linear;
use adas_ml::train::Gradients;
use adas_ml::{LstmPredictor, Sample, FEATURE_DIM, TARGET_DIM};
use adas_simulator::math::{sigmoid, tanh};

/// `y = W [xa; xb] + b`, one row at a time: `xa`'s columns then `xb`'s,
/// bias last.
pub fn matvec(lin: &Linear, xa: &[f64], xb: &[f64], y: &mut [f64]) {
    let na = xa.len();
    assert_eq!(na + xb.len(), lin.cols);
    for (r, y_r) in y.iter_mut().enumerate() {
        let row = &lin.w[r * lin.cols..(r + 1) * lin.cols];
        let mut acc = 0.0;
        for (w, x) in row[..na].iter().zip(xa) {
            acc += w * x;
        }
        for (w, x) in row[na..].iter().zip(xb) {
            acc += w * x;
        }
        *y_r = lin.b[r] + acc;
    }
}

/// `gb += dy`, `gw += dy ⊗ [xa; xb]` and `[dxa; dxb] = Wᵀ dy` in one
/// row sweep (`dxa`/`dxb` are overwritten).
#[allow(clippy::too_many_arguments)]
pub fn backward(
    lin: &Linear,
    xa: &[f64],
    xb: &[f64],
    dy: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    dxa: &mut [f64],
    dxb: &mut [f64],
) {
    let na = xa.len();
    dxa.fill(0.0);
    dxb.fill(0.0);
    for (r, dy_r) in dy.iter().enumerate() {
        gb[r] += dy_r;
        let row_w = &lin.w[r * lin.cols..(r + 1) * lin.cols];
        let row_g = &mut gw[r * lin.cols..(r + 1) * lin.cols];
        for c in 0..na {
            row_g[c] += dy_r * xa[c];
            dxa[c] += row_w[c] * dy_r;
        }
        for c in 0..xb.len() {
            row_g[na + c] += dy_r * xb[c];
            dxb[c] += row_w[na + c] * dy_r;
        }
    }
}

/// Cached activations of one layer at one timestep.
#[derive(Debug, Clone, Default)]
struct Cache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// One LSTM timestep of the layer `gates` that records its cache.
#[allow(clippy::too_many_arguments)]
fn step_cached(
    gates: &Linear,
    x: &[f64],
    h_prev: &[f64],
    c_prev: &[f64],
    z: &mut [f64],
    cache: &mut Cache,
    h_out: &mut [f64],
    c_out: &mut [f64],
) {
    let h = h_prev.len();
    matvec(gates, x, h_prev, z);
    cache.x = x.to_vec();
    cache.h_prev = h_prev.to_vec();
    cache.c_prev = c_prev.to_vec();
    for buf in [
        &mut cache.i,
        &mut cache.f,
        &mut cache.g,
        &mut cache.o,
        &mut cache.tanh_c,
    ] {
        buf.resize(h, 0.0);
    }
    for k in 0..h {
        let i = sigmoid(z[k]);
        let f = sigmoid(z[h + k]);
        let g = tanh(z[2 * h + k]);
        let o = sigmoid(z[3 * h + k]);
        let c = f * c_prev[k] + i * g;
        let tanh_c = tanh(c);
        (
            cache.i[k],
            cache.f[k],
            cache.g[k],
            cache.o[k],
            cache.tanh_c[k],
        ) = (i, f, g, o, tanh_c);
        c_out[k] = c;
        h_out[k] = o * tanh_c;
    }
}

/// Backpropagates one cached timestep: adds its parameter gradients and
/// writes `dx`, `dh_prev`, `dc_prev`.
#[allow(clippy::too_many_arguments)]
fn step_backward(
    gates: &Linear,
    cache: &Cache,
    dh: &[f64],
    dc_in: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    dz: &mut [f64],
    dx: &mut [f64],
    dh_prev: &mut [f64],
    dc_prev: &mut [f64],
) {
    let h = dh.len();
    for k in 0..h {
        let do_ = dh[k] * cache.tanh_c[k];
        let dc = dc_in[k] + dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
        let di = dc * cache.g[k];
        let df = dc * cache.c_prev[k];
        let dg = dc * cache.i[k];
        dc_prev[k] = dc * cache.f[k];
        dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
        dz[h + k] = df * cache.f[k] * (1.0 - cache.f[k]);
        dz[2 * h + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
        dz[3 * h + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
    }
    backward(gates, &cache.x, &cache.h_prev, dz, gw, gb, dx, dh_prev);
}

/// Per-sample buffers: the layers' caches and states.
#[derive(Default)]
pub struct Scratch {
    caches1: Vec<Cache>,
    caches2: Vec<Cache>,
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
    y: Vec<f64>,
}

/// The forward over one window from the zero state, recording caches;
/// leaves the head output in the scratch and returns it.
pub fn forward(
    model: &LstmPredictor,
    window: &[[f64; FEATURE_DIM]],
    s: &mut Scratch,
) -> [f64; TARGET_DIM] {
    let [l1, l2, head] = model.matvecs();
    let (n1, n2) = (l1.rows / 4, l2.rows / 4);
    s.caches1.resize_with(window.len(), Cache::default);
    s.caches2.resize_with(window.len(), Cache::default);
    s.h1 = vec![0.0; n1];
    s.c1 = vec![0.0; n1];
    s.h2 = vec![0.0; n2];
    s.c2 = vec![0.0; n2];
    let (mut z1, mut z2) = (vec![0.0; 4 * n1], vec![0.0; 4 * n2]);
    let (mut nh1, mut nc1, mut nh2, mut nc2) =
        (vec![0.0; n1], vec![0.0; n1], vec![0.0; n2], vec![0.0; n2]);
    for (t, x) in window.iter().enumerate() {
        step_cached(
            l1,
            x,
            &s.h1,
            &s.c1,
            &mut z1,
            &mut s.caches1[t],
            &mut nh1,
            &mut nc1,
        );
        step_cached(
            l2,
            &nh1,
            &s.h2,
            &s.c2,
            &mut z2,
            &mut s.caches2[t],
            &mut nh2,
            &mut nc2,
        );
        std::mem::swap(&mut s.h1, &mut nh1);
        std::mem::swap(&mut s.c1, &mut nc1);
        std::mem::swap(&mut s.h2, &mut nh2);
        std::mem::swap(&mut s.c2, &mut nc2);
    }
    s.y = vec![0.0; TARGET_DIM];
    head.forward_into(&s.h2, &mut s.y);
    [s.y[0], s.y[1]]
}

/// Full BPTT over one sample: returns its squared-error loss and adds its
/// gradients into `grads`.
pub fn backprop_sample(
    model: &LstmPredictor,
    window: &[[f64; FEATURE_DIM]],
    target: &[f64; TARGET_DIM],
    s: &mut Scratch,
    grads: &mut Gradients,
) -> f64 {
    let [l1, l2, head] = model.matvecs();
    let (n1, n2) = (l1.rows / 4, l2.rows / 4);
    forward(model, window, s);

    let mut loss = 0.0;
    let mut dy = [0.0; TARGET_DIM];
    for (k, t) in target.iter().enumerate() {
        let e = s.y[k] - t;
        loss += e * e;
        dy[k] = 2.0 * e / TARGET_DIM as f64;
    }
    loss /= TARGET_DIM as f64;

    // Backward: head → layer 2 chain → layer 1 chain.
    let mut dh2 = vec![0.0; n2];
    backward(
        head,
        &s.h2,
        &[],
        &dy,
        &mut grads.hw,
        &mut grads.hb,
        &mut dh2,
        &mut [],
    );
    let (mut dc2, mut dh1_next, mut dc1) = (vec![0.0; n2], vec![0.0; n1], vec![0.0; n1]);
    let (mut dz1, mut dz2) = (vec![0.0; 4 * n1], vec![0.0; 4 * n2]);
    let (mut dx1, mut dx2) = (vec![0.0; FEATURE_DIM], vec![0.0; n1]);
    let (mut dh2p, mut dc2p, mut dh1p, mut dc1p) =
        (vec![0.0; n2], vec![0.0; n2], vec![0.0; n1], vec![0.0; n1]);
    for t in (0..window.len()).rev() {
        step_backward(
            l2,
            &s.caches2[t],
            &dh2,
            &dc2,
            &mut grads.l2w,
            &mut grads.l2b,
            &mut dz2,
            &mut dx2,
            &mut dh2p,
            &mut dc2p,
        );
        for (a, b) in dx2.iter_mut().zip(&dh1_next) {
            *a += b;
        }
        step_backward(
            l1,
            &s.caches1[t],
            &dx2,
            &dc1,
            &mut grads.l1w,
            &mut grads.l1b,
            &mut dz1,
            &mut dx1,
            &mut dh1p,
            &mut dc1p,
        );
        std::mem::swap(&mut dh2, &mut dh2p);
        std::mem::swap(&mut dc2, &mut dc2p);
        std::mem::swap(&mut dh1_next, &mut dh1p);
        std::mem::swap(&mut dc1, &mut dc1p);
    }
    loss
}

/// One sample group, one sample after another into zeroed gradients;
/// a masked sample's previous-command features are zeroed over its whole
/// window first.
pub fn group(model: &LstmPredictor, group: &[(&Sample, bool)]) -> (f64, Gradients) {
    let mut grads = Gradients::zeros(model);
    let mut scratch = Scratch::default();
    let mut loss = 0.0;
    for (sample, masked) in group {
        let mut window = sample.window.clone();
        if *masked {
            for frame in &mut window {
                frame[FEATURE_DIM - 2] = 0.0;
                frame[FEATURE_DIM - 1] = 0.0;
            }
        }
        loss += backprop_sample(model, &window, &sample.target, &mut scratch, &mut grads);
    }
    (loss, grads)
}
