//! A single LSTM layer with full backpropagation through time.
//!
//! Gate layout in the packed weight matrix is `[input, forget, cell,
//! output]`, each block of size `hidden`. Two forward passes share one
//! gate function (`unit`): [`Lstm::step_cached`] advances one training
//! sample and records the per-step cache that [`Lstm::step_backward_into`]
//! differentiates, and [`Lstm::step_batch`] advances a lane-contiguous
//! panel of independent streams for inference (a single run is a one-lane
//! panel).

use crate::linear::{sigmoid, Linear};
use rand::Rng;

/// Cached activations for one timestep (needed by BPTT).
///
/// Reused across timesteps/samples: [`Lstm::step_cached`] overwrites the
/// buffers in place, so after the first use of a cache slot no allocation
/// happens on the training hot path.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
}

fn copy_into(dst: &mut Vec<f64>, src: &[f64]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// One unit's activated gates and its new cell and hidden values.
struct Unit {
    i: f64,
    f: f64,
    g: f64,
    o: f64,
    c: f64,
    tanh_c: f64,
    h: f64,
}

/// The LSTM gate math of one unit, given its four gate pre-activations
/// `z = [input, forget, cell, output]` and its previous cell value: the
/// only place the gate expressions are written, so the training and
/// inference forwards share one f64 operation sequence.
#[inline(always)]
fn unit(z: [f64; 4], c_prev: f64) -> Unit {
    let i = sigmoid(z[0]);
    let f = sigmoid(z[1]);
    let g = z[2].tanh();
    let o = sigmoid(z[3]);
    let c = f * c_prev + i * g;
    let tanh_c = c.tanh();
    Unit {
        i,
        f,
        g,
        o,
        c,
        tanh_c,
        h: o * tanh_c,
    }
}

/// One LSTM layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    /// Input dimension.
    pub input: usize,
    /// Hidden state dimension.
    pub hidden: usize,
    /// Packed gate transform: `4·hidden × (input + hidden)` plus bias.
    pub gates: Linear,
}

impl Lstm {
    /// Creates a layer with random initialisation. Forget-gate biases start
    /// at +1 (the standard trick for gradient flow).
    #[must_use]
    pub fn new<R: Rng>(input: usize, hidden: usize, rng: &mut R) -> Self {
        let mut gates = Linear::new(4 * hidden, input + hidden, rng);
        for b in gates.b[hidden..2 * hidden].iter_mut() {
            *b = 1.0;
        }
        Self {
            input,
            hidden,
            gates,
        }
    }

    /// Allocation-free training timestep that records the BPTT cache in
    /// place.
    ///
    /// `z` is gate pre-activation scratch of length `4·hidden`; `h_out` /
    /// `c_out` must not alias `h_prev` / `c_prev` (callers double-buffer and
    /// swap). The packed gate matvec consumes `x` then `h_prev` in the same
    /// order as the concatenated input, and the gate math is `unit`, so
    /// the outputs are bit-identical to one lane of [`Self::step_batch`].
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn step_cached(
        &self,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
        z: &mut [f64],
        cache: &mut LstmCache,
        h_out: &mut [f64],
        c_out: &mut [f64],
    ) {
        let h = self.hidden;
        assert_eq!(x.len(), self.input);
        assert_eq!(h_prev.len(), h);
        assert_eq!(c_prev.len(), h);
        self.gates.forward_concat_into(x, h_prev, z);

        copy_into(&mut cache.x, x);
        copy_into(&mut cache.h_prev, h_prev);
        copy_into(&mut cache.c_prev, c_prev);
        cache.i.resize(h, 0.0);
        cache.f.resize(h, 0.0);
        cache.g.resize(h, 0.0);
        cache.o.resize(h, 0.0);
        cache.tanh_c.resize(h, 0.0);

        for k in 0..h {
            let u = unit([z[k], z[h + k], z[2 * h + k], z[3 * h + k]], c_prev[k]);
            cache.i[k] = u.i;
            cache.f[k] = u.f;
            cache.g[k] = u.g;
            cache.o[k] = u.o;
            cache.tanh_c[k] = u.tanh_c;
            c_out[k] = u.c;
            h_out[k] = u.h;
        }
    }

    /// Batched allocation-free inference timestep over lane-contiguous
    /// panels (`panel[unit * width + lane]`).
    ///
    /// One weights-stationary gate matvec serves the whole batch; the gate
    /// math (`unit`) then runs per lane. Each lane sees the exact f64
    /// operation sequence of a lone stream (and of [`Self::step_cached`]),
    /// so batching and the batch composition never change a run's
    /// numerics.
    ///
    /// `live[lane]` marks which lanes advance: the gate transcendentals
    /// (the dominant per-lane cost) are skipped for lanes that are not
    /// live, and their `h_out` / `c_out` entries are left untouched. Such
    /// a lane's state is therefore stale and must be reset (zeroed) before
    /// a new stream starts in it. The matvec still covers all lanes; the
    /// columns of lanes that are not live hold finite garbage that no one
    /// reads, and lanes never mix.
    ///
    /// `h_out` / `c_out` must not alias `h_prev` / `c_prev`.
    ///
    /// # Panics
    ///
    /// Panics on any panel dimension mismatch or if `live.len() != width`.
    #[allow(clippy::too_many_arguments)]
    pub fn step_batch(
        &self,
        width: usize,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
        z: &mut [f64],
        h_out: &mut [f64],
        c_out: &mut [f64],
        live: &[bool],
    ) {
        let h = self.hidden;
        assert_eq!(x.len(), self.input * width);
        assert_eq!(h_prev.len(), h * width);
        assert_eq!(c_prev.len(), h * width);
        assert_eq!(z.len(), 4 * h * width);
        assert_eq!(h_out.len(), h * width);
        assert_eq!(c_out.len(), h * width);
        assert_eq!(live.len(), width, "liveness length mismatch");
        self.gates.forward_concat_batch(width, x, h_prev, z);
        for k in 0..h {
            for (lane, &is_live) in live.iter().enumerate() {
                if is_live {
                    let at = |block: usize| z[(block * h + k) * width + lane];
                    let u = unit([at(0), at(1), at(2), at(3)], c_prev[k * width + lane]);
                    c_out[k * width + lane] = u.c;
                    h_out[k * width + lane] = u.h;
                }
            }
        }
    }

    /// Backpropagates one timestep into caller-owned gradient buffers.
    ///
    /// `dh`/`dc_in` are the gradients flowing into this step's `h`/`c`
    /// outputs, and `cache` is the one [`Self::step_cached`] recorded for
    /// the step. Adds this step's parameter gradients into `gw`/`gb`
    /// (layout matching `gates.w`/`gates.b`), using `dz` (length
    /// `4·hidden`) as scratch, and writes the input-side gradients into
    /// `dx`/`dh_prev`/`dc_prev`. The `&self` receiver lets parallel workers
    /// share one read-only weight set while accumulating into private
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn step_backward_into(
        &self,
        cache: &LstmCache,
        dh: &[f64],
        dc_in: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
        dz: &mut [f64],
        dx: &mut [f64],
        dh_prev: &mut [f64],
        dc_prev: &mut [f64],
    ) {
        let h = self.hidden;
        assert_eq!(dh.len(), h);
        assert_eq!(dc_in.len(), h);
        assert_eq!(dz.len(), 4 * h);

        for k in 0..h {
            // h = o · tanh(c)
            let do_ = dh[k] * cache.tanh_c[k];
            let dc = dc_in[k] + dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
            // c = f·c_prev + i·g
            let di = dc * cache.g[k];
            let df = dc * cache.c_prev[k];
            let dg = dc * cache.i[k];
            dc_prev[k] = dc * cache.f[k];
            // Gate pre-activations.
            dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
            dz[h + k] = df * cache.f[k] * (1.0 - cache.f[k]);
            dz[2 * h + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
            dz[3 * h + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
        }

        self.gates
            .backward_concat_into(&cache.x, &cache.h_prev, dz, gw, gb, dx, dh_prev);
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gates.zero_grad();
    }

    /// Total parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.gates.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    /// One [`Lstm::step_cached`] with fresh buffers: `(h, c, cache)`.
    fn forward(
        l: &Lstm,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
    ) -> (Vec<f64>, Vec<f64>, LstmCache) {
        let h = l.hidden;
        let mut z = vec![0.0; 4 * h];
        let mut cache = LstmCache::default();
        let mut h_out = vec![0.0; h];
        let mut c_out = vec![0.0; h];
        l.step_cached(x, h_prev, c_prev, &mut z, &mut cache, &mut h_out, &mut c_out);
        (h_out, c_out, cache)
    }

    /// One [`Lstm::step_backward_into`] accumulating into the layer's own
    /// `gates.gw`/`gates.gb`: `(dx, dh_prev, dc_prev)`.
    fn backward(
        l: &mut Lstm,
        cache: &LstmCache,
        dh: &[f64],
        dc: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let h = l.hidden;
        let mut dz = vec![0.0; 4 * h];
        let mut dx = vec![0.0; l.input];
        let mut dh_prev = vec![0.0; h];
        let mut dc_prev = vec![0.0; h];
        let mut gw = std::mem::take(&mut l.gates.gw);
        let mut gb = std::mem::take(&mut l.gates.gb);
        l.step_backward_into(
            cache,
            dh,
            dc,
            &mut gw,
            &mut gb,
            &mut dz,
            &mut dx,
            &mut dh_prev,
            &mut dc_prev,
        );
        l.gates.gw = gw;
        l.gates.gb = gb;
        (dx, dh_prev, dc_prev)
    }

    #[test]
    fn shapes_are_consistent() {
        let l = Lstm::new(3, 4, &mut rng());
        let (h, c, _) = forward(&l, &[0.1, 0.2, 0.3], &[0.0; 4], &[0.0; 4]);
        assert_eq!(h.len(), 4);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn outputs_bounded_by_design() {
        // |h| = |o·tanh(c)| < 1 when |c| small; in general h ∈ (−1, 1).
        let l = Lstm::new(2, 8, &mut rng());
        let mut h = vec![0.0; 8];
        let mut c = vec![0.0; 8];
        for t in 0..50 {
            let x = [(t as f64 * 0.37).sin() * 3.0, (t as f64 * 0.11).cos() * 3.0];
            let (nh, nc, _) = forward(&l, &x, &h, &c);
            h = nh;
            c = nc;
            assert!(h.iter().all(|v| v.abs() < 1.0));
        }
    }

    #[test]
    fn forget_bias_initialised_positive() {
        let l = Lstm::new(2, 3, &mut rng());
        for k in 3..6 {
            assert_eq!(l.gates.b[k], 1.0);
        }
    }

    /// Finite-difference gradient check through a 3-step unroll.
    #[test]
    fn bptt_gradient_check() {
        let mut l = Lstm::new(2, 3, &mut rng());
        let xs = [vec![0.5, -0.3], vec![0.1, 0.9], vec![-0.7, 0.2]];

        // Loss = sum of final h.
        let loss = |l: &Lstm| -> f64 {
            let mut h = vec![0.0; 3];
            let mut c = vec![0.0; 3];
            for x in &xs {
                let (nh, nc, _) = forward(l, x, &h, &c);
                h = nh;
                c = nc;
            }
            h.iter().sum()
        };

        // Analytic gradients.
        let mut h = vec![0.0; 3];
        let mut c = vec![0.0; 3];
        let mut caches = Vec::new();
        for x in &xs {
            let (nh, nc, cache) = forward(&l, x, &h, &c);
            caches.push(cache);
            h = nh;
            c = nc;
        }
        l.zero_grad();
        let mut dh = vec![1.0; 3];
        let mut dc = vec![0.0; 3];
        for cache in caches.iter().rev() {
            let (_dx, dhp, dcp) = backward(&mut l, cache, &dh, &dc);
            dh = dhp;
            dc = dcp;
        }

        // Compare against finite differences for a sample of weights.
        let eps = 1e-6;
        for idx in [0usize, 7, 19, 33] {
            let orig = l.gates.w[idx];
            l.gates.w[idx] = orig + eps;
            let lp = loss(&l);
            l.gates.w[idx] = orig - eps;
            let lm = loss(&l);
            l.gates.w[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = l.gates.gw[idx];
            assert!(
                (num - ana).abs() < 1e-5,
                "w[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        for idx in [0usize, 4, 11] {
            let orig = l.gates.b[idx];
            l.gates.b[idx] = orig + eps;
            let lp = loss(&l);
            l.gates.b[idx] = orig - eps;
            let lm = loss(&l);
            l.gates.b[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = l.gates.gb[idx];
            assert!(
                (num - ana).abs() < 1e-5,
                "b[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut l = Lstm::new(2, 3, &mut rng());
        let x = vec![0.4, -0.6];
        let h0 = vec![0.1, -0.2, 0.3];
        let c0 = vec![0.05, 0.0, -0.1];
        let (_h, _c, cache) = forward(&l, &x, &h0, &c0);
        let (dx, _dhp, _dcp) = backward(&mut l, &cache, &[1.0, 1.0, 1.0], &[0.0; 3]);

        let eps = 1e-6;
        for k in 0..2 {
            let mut xp = x.clone();
            xp[k] += eps;
            let mut xm = x.clone();
            xm[k] -= eps;
            let lp: f64 = forward(&l, &xp, &h0, &c0).0.iter().sum();
            let lm: f64 = forward(&l, &xm, &h0, &c0).0.iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx[k]).abs() < 1e-6, "dx[{k}]: {num} vs {}", dx[k]);
        }
    }

    #[test]
    fn step_batch_bitwise_matches_step_cached() {
        // The inference and training forwards must agree bit for bit: the
        // model is trained through one and deployed through the other.
        let l = Lstm::new(3, 5, &mut rng());
        for width in [1usize, 4, 32] {
            // Independent training-path streams, one per lane.
            let mut hs: Vec<Vec<f64>> = vec![vec![0.0; 5]; width];
            let mut cs: Vec<Vec<f64>> = vec![vec![0.0; 5]; width];
            // Batched panels.
            let mut hp = vec![0.0; 5 * width];
            let mut cp = vec![0.0; 5 * width];
            let mut z = vec![0.0; 4 * 5 * width];
            let mut hn = vec![0.0; 5 * width];
            let mut cn = vec![0.0; 5 * width];
            let live = vec![true; width];
            for t in 0..30 {
                let xs: Vec<Vec<f64>> = (0..width)
                    .map(|lane| {
                        (0..3)
                            .map(|c| ((t * 3 + c) as f64 * 0.31 + lane as f64 * 1.7).sin())
                            .collect()
                    })
                    .collect();
                let mut xp = vec![0.0; 3 * width];
                for (lane, x) in xs.iter().enumerate() {
                    for (c, v) in x.iter().enumerate() {
                        xp[c * width + lane] = *v;
                    }
                }
                l.step_batch(width, &xp, &hp, &cp, &mut z, &mut hn, &mut cn, &live);
                std::mem::swap(&mut hp, &mut hn);
                std::mem::swap(&mut cp, &mut cn);
                for lane in 0..width {
                    let (h_out, c_out, _) = forward(&l, &xs[lane], &hs[lane], &cs[lane]);
                    hs[lane] = h_out;
                    cs[lane] = c_out;
                    for k in 0..5 {
                        assert_eq!(
                            hp[k * width + lane].to_bits(),
                            hs[lane][k].to_bits(),
                            "h diverged: width {width} lane {lane} t {t} k {k}"
                        );
                        assert_eq!(
                            cp[k * width + lane].to_bits(),
                            cs[lane][k].to_bits(),
                            "c diverged: width {width} lane {lane} t {t} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn param_count_formula() {
        let l = Lstm::new(8, 16, &mut rng());
        assert_eq!(l.param_count(), 4 * 16 * (8 + 16) + 4 * 16);
    }
}
