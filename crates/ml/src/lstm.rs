//! A single LSTM layer: the batched forward, and the taped forward and gate
//! backward that backpropagation through time runs on.
//!
//! Gate layout in the packed weight matrix is `[input, forget, cell,
//! output]`, each block of size `hidden`. Every forward advances a
//! lane-contiguous panel of independent streams (`panel[unit * width +
//! lane]`) with one tile-kernel matvec, then runs the one gate-math loop
//! (`units`, over `unit`): [`Lstm::step_batch`] for inference (a single
//! run is a one-lane panel), and `Lstm::step_taped`, which also records
//! the gate values of each step in a `Tape` for `Lstm::backward_gates`.
//! Training runs a sample group as the lanes of one panel (see
//! [`mod@crate::train`]).

use crate::linear::{sigmoid, Kernel, Linear};
use rand::Rng;

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

/// One layer's forward record over a window, for backpropagation through
/// time: the states before and after every step and each step's gate
/// values, all as `[units × width]` lane panels.
///
/// Reused across sample groups: [`Tape::reset`] resizes the buffers in
/// place, so after the first group of a given shape no allocation happens.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    width: usize,
    hidden: usize,
    /// Hidden states `h_0..=h_T` (`h_0` = 0), one panel each.
    h: Vec<f64>,
    /// Cell states `c_0..=c_T` (`c_0` = 0), one panel each.
    c: Vec<f64>,
    /// Activated gates `[i, f, g, o]` of steps `0..T`, one
    /// `4·hidden × width` panel each.
    act: Vec<f64>,
    /// `tanh(c_{t+1})` of steps `0..T`, one panel each.
    tanh_c: Vec<f64>,
    /// Gate pre-activation scratch, one `4·hidden × width` panel.
    z: Vec<f64>,
    /// Every lane is live while taping.
    live: Vec<bool>,
}

impl Tape {
    /// Sizes the tape for `steps` steps of a `hidden`-unit layer over
    /// `width` lanes and zeroes the initial state.
    pub(crate) fn reset(&mut self, hidden: usize, width: usize, steps: usize) {
        let panel = hidden * width;
        self.width = width;
        self.hidden = hidden;
        self.h.resize((steps + 1) * panel, 0.0);
        self.c.resize((steps + 1) * panel, 0.0);
        self.h[..panel].fill(0.0);
        self.c[..panel].fill(0.0);
        self.act.resize(steps * 4 * panel, 0.0);
        self.tanh_c.resize(steps * panel, 0.0);
        self.z.resize(4 * panel, 0.0);
        self.live.clear();
        self.live.resize(width, true);
    }

    /// The hidden-state panel after `t` steps.
    #[must_use]
    pub(crate) fn h(&self, t: usize) -> &[f64] {
        let panel = self.hidden * self.width;
        &self.h[t * panel..][..panel]
    }

    /// The cell-state panel after `t` steps.
    fn c(&self, t: usize) -> &[f64] {
        let panel = self.hidden * self.width;
        &self.c[t * panel..][..panel]
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

    /// Batched allocation-free inference timestep over lane-contiguous
    /// panels (`panel[unit * width + lane]`).
    ///
    /// One weights-stationary gate matvec serves the whole batch; the gate
    /// math (`unit`) then runs per lane. Each lane sees the exact f64
    /// operation sequence of a lone stream (and of `Self::step_taped`),
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
        self.units(width, z, c_prev, h_out, c_out, live, |_, _| {});
    }

    /// Step `t` of a taped forward over all lanes of `tape`: the same
    /// matvec and gate math as [`Self::step_batch`] (so each lane's state
    /// is bit-identical to a lone inference stream), reading the state
    /// after `t` steps and writing the state after `t + 1`, and recording
    /// the step's gate values for [`Self::backward_gates`]. `x` is the
    /// step's `input × width` panel.
    ///
    /// # Panics
    ///
    /// Panics if the tape is not sized for this layer and at least `t + 1`
    /// steps, or on an input panel dimension mismatch.
    pub(crate) fn step_taped(&self, kernel: Kernel, x: &[f64], tape: &mut Tape, t: usize) {
        let (h, width) = (self.hidden, tape.width);
        let panel = h * width;
        assert_eq!(tape.hidden, h, "tape sized for another layer");
        assert_eq!(
            x.len(),
            self.input * width,
            "input panel dimension mismatch"
        );
        let (before, after) = tape.h.split_at_mut((t + 1) * panel);
        let h_prev = &before[t * panel..];
        let h_out = &mut after[..panel];
        self.gates
            .forward_panels(kernel, width, x, h_prev, &mut tape.z);
        let (before, after) = tape.c.split_at_mut((t + 1) * panel);
        let act = &mut tape.act[t * 4 * panel..][..4 * panel];
        let tanh_c = &mut tape.tanh_c[t * panel..][..panel];
        self.units(
            width,
            &tape.z,
            &before[t * panel..],
            h_out,
            &mut after[..panel],
            &tape.live,
            |at, u| {
                act[at] = u.i;
                act[panel + at] = u.f;
                act[2 * panel + at] = u.g;
                act[3 * panel + at] = u.o;
                tanh_c[at] = u.tanh_c;
            },
        );
    }

    /// The gate math of every live lane and unit: writes the new cell and
    /// hidden state and hands each unit's values, with its panel index, to
    /// `keep`. The one loop both forwards share.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn units(
        &self,
        width: usize,
        z: &[f64],
        c_prev: &[f64],
        h_out: &mut [f64],
        c_out: &mut [f64],
        live: &[bool],
        mut keep: impl FnMut(usize, &Unit),
    ) {
        let h = self.hidden;
        for k in 0..h {
            for (lane, &is_live) in live.iter().enumerate() {
                if is_live {
                    let at = k * width + lane;
                    let zb = |block: usize| z[block * h * width + at];
                    let u = unit([zb(0), zb(1), zb(2), zb(3)], c_prev[at]);
                    c_out[at] = u.c;
                    h_out[at] = u.h;
                    keep(at, &u);
                }
            }
        }
    }

    /// Backpropagates the gate math of taped step `t` over all lanes.
    ///
    /// `dh` is the gradient flowing into the step's hidden output; `dc`
    /// holds the gradient flowing into its cell output and is overwritten
    /// with the gradient of the cell state before the step. Writes the
    /// gate pre-activation gradients into the `4·hidden × width` panel
    /// `dz`; the input-side gradients are then `Wᵀ·dz` and the weight
    /// gradients `dz ⊗ [x; h_prev]`, both left to the caller.
    ///
    /// # Panics
    ///
    /// Panics on panel dimension mismatch or if `t` is past the tape.
    pub(crate) fn backward_gates(
        &self,
        tape: &Tape,
        t: usize,
        dh: &[f64],
        dc: &mut [f64],
        dz: &mut [f64],
    ) {
        let panel = self.hidden * tape.width;
        assert_eq!(tape.hidden, self.hidden, "tape sized for another layer");
        assert_eq!(dh.len(), panel);
        assert_eq!(dc.len(), panel);
        assert_eq!(dz.len(), 4 * panel);
        let act = &tape.act[t * 4 * panel..][..4 * panel];
        let tanh_c = &tape.tanh_c[t * panel..][..panel];
        let c_prev = tape.c(t);
        for at in 0..panel {
            let [i, f, g, o] = [0, 1, 2, 3].map(|block| act[block * panel + at]);
            let (dh, tanh_c) = (dh[at], tanh_c[at]);
            // h = o · tanh(c)
            let do_ = dh * tanh_c;
            let dc_t = dc[at] + dh * o * (1.0 - tanh_c * tanh_c);
            // c = f·c_prev + i·g
            let di = dc_t * g;
            let df = dc_t * c_prev[at];
            let dg = dc_t * i;
            dc[at] = dc_t * f;
            // Gate pre-activations.
            dz[at] = di * i * (1.0 - i);
            dz[panel + at] = df * f * (1.0 - f);
            dz[2 * panel + at] = dg * (1.0 - g * g);
            dz[3 * panel + at] = do_ * o * (1.0 - o);
        }
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

    /// One live lane of [`Lstm::step_batch`] with fresh buffers: `(h, c)`.
    fn step(l: &Lstm, x: &[f64], h_prev: &[f64], c_prev: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h = l.hidden;
        let mut z = vec![0.0; 4 * h];
        let mut h_out = vec![0.0; h];
        let mut c_out = vec![0.0; h];
        l.step_batch(
            1,
            x,
            h_prev,
            c_prev,
            &mut z,
            &mut h_out,
            &mut c_out,
            &[true],
        );
        (h_out, c_out)
    }

    #[test]
    fn shapes_are_consistent() {
        let l = Lstm::new(3, 4, &mut rng());
        let (h, c) = step(&l, &[0.1, 0.2, 0.3], &[0.0; 4], &[0.0; 4]);
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
            (h, c) = step(&l, &x, &h, &c);
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

    #[test]
    fn step_taped_bitwise_matches_step_batch() {
        // The training and inference forwards must agree bit for bit: the
        // model is trained through one and deployed through the other.
        let l = Lstm::new(3, 5, &mut rng());
        let steps = 30;
        for width in [1usize, 3, 4, 9] {
            let mut tape = Tape::default();
            tape.reset(5, width, steps);
            let mut hp = vec![0.0; 5 * width];
            let mut cp = vec![0.0; 5 * width];
            let mut z = vec![0.0; 4 * 5 * width];
            let mut hn = vec![0.0; 5 * width];
            let mut cn = vec![0.0; 5 * width];
            let live = vec![true; width];
            for t in 0..steps {
                let xp: Vec<f64> = (0..3 * width)
                    .map(|i| ((t * 3 * width + i) as f64 * 0.31).sin())
                    .collect();
                l.step_batch(width, &xp, &hp, &cp, &mut z, &mut hn, &mut cn, &live);
                std::mem::swap(&mut hp, &mut hn);
                std::mem::swap(&mut cp, &mut cn);
                l.step_taped(Kernel::detect(), &xp, &mut tape, t);
                for (what, got, want) in [("h", tape.h(t + 1), &hp), ("c", tape.c(t + 1), &cp)] {
                    for (at, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{what}: width {width} t {t} at {at}"
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
