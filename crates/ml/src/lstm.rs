//! A single LSTM layer: the batched forward, and the taped forward and gate
//! backward that backpropagation through time runs on.
//!
//! Gate layout in the packed weight matrix is `[input, forget, cell,
//! output]`, each block of size `hidden`. Every forward advances a
//! lane-contiguous panel of independent streams (`panel[unit * width +
//! lane]`) with one tile-kernel matvec, then runs the one gate-math loop
//! (`Units`, [`Lstm::gate_math`]): [`Lstm::step_batch`] for inference (a
//! single run is a one-lane panel), and `Lstm::step_taped`, which also
//! records the gate values of each step in a `Tape` for
//! `Lstm::backward_gates`. The gate math activates contiguous lane blocks
//! of each gate's `hidden × width` panel with the lane-wide functions of
//! [`adas_simulator::math`], bit-identical to activating value by value.
//! Training runs two sample groups as the lanes of one panel (see
//! [`mod@crate::train`]).

use crate::linear::{Kernel, Linear, Pass};
use adas_simulator::math::{sigmoid_lanes, tanh_lanes};
use adas_simulator::DeterministicRng;

/// Values the gate math activates at once: one lane block.
const LANES: usize = 8;

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

/// The gate math of one step, the one loop both forwards run: activates
/// each gate's `hidden × width` panel in place, one lane block at a time
/// (`[input, forget, cell, output]` → `[i, f, g, o]`), computes `c =
/// f·c_prev + i·g` into the `tanh_c` panel (and `c_out` for each live
/// lane), activates that panel in place to `tanh c`, and writes `h = o·tanh
/// c` to `h_out` for each live lane. Every value sees the scalar f64
/// operation sequence, so lane blocks, ragged tails and batch composition
/// never change a result.
struct Units<'a> {
    /// Gate pre-activations in, activated gates out.
    gates: &'a mut [f64],
    c_prev: &'a [f64],
    h_out: &'a mut [f64],
    c_out: &'a mut [f64],
    /// `tanh c` of every lane out.
    tanh_c: &'a mut [f64],
    live: &'a [bool],
}

impl Pass for Units<'_> {
    #[inline(always)]
    fn run(self) {
        let Units {
            gates,
            c_prev,
            h_out,
            c_out,
            tanh_c,
            live,
        } = self;
        let panel = c_prev.len();
        let (ifg, o) = gates.split_at_mut(3 * panel);
        let (i_f, g) = ifg.split_at_mut(2 * panel);
        activate(i_f, sigmoid_lanes);
        activate(g, tanh_lanes);
        activate(o, sigmoid_lanes);
        let (i, f) = i_f.split_at(panel);
        let lanes = || live.iter().cycle();
        for ((((tc, c_out), live), (f, c_prev)), (i, g)) in tanh_c
            .iter_mut()
            .zip(c_out.iter_mut())
            .zip(lanes())
            .zip(f.iter().zip(c_prev))
            .zip(i.iter().zip(g.iter()))
        {
            *tc = f * c_prev + i * g;
            if *live {
                *c_out = *tc;
            }
        }
        activate(tanh_c, tanh_lanes);
        for (((h_out, live), o), tc) in h_out.iter_mut().zip(lanes()).zip(o.iter()).zip(&*tanh_c) {
            if *live {
                *h_out = o * tc;
            }
        }
    }
}

/// Applies a lane-block function to a panel: whole blocks in place, the
/// ragged tail through a zero-padded block.
#[inline(always)]
fn activate(panel: &mut [f64], f: impl Fn(&mut [f64; LANES])) {
    let mut blocks = panel.chunks_exact_mut(LANES);
    for block in &mut blocks {
        f(block.try_into().expect("a whole lane block"));
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut block = [0.0; LANES];
        block[..tail.len()].copy_from_slice(tail);
        f(&mut block);
        tail.copy_from_slice(&block[..tail.len()]);
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
    pub fn new(input: usize, hidden: usize, rng: &mut DeterministicRng) -> Self {
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
    /// panels (`panel[unit * width + lane]`): the gate matvec into `z`,
    /// then [`Self::gate_math`], both on the CPU's fastest build.
    ///
    /// One weights-stationary gate matvec serves the whole batch; the gate
    /// math then activates lane blocks. Each lane sees the exact f64
    /// operation sequence of a lone stream (and of `Self::step_taped`),
    /// so batching and the batch composition never change a run's
    /// numerics.
    ///
    /// `live[lane]` marks which lanes advance: lanes that are not live
    /// keep their `h_out` / `c_out` entries untouched. Such a lane's state
    /// is therefore stale and must be reset (zeroed) before a new stream
    /// starts in it. The matvec and the activations still cover all
    /// lanes; the columns of lanes that are not live hold finite garbage
    /// that no one reads, and lanes never mix.
    ///
    /// `z` (`4·hidden × width`) and `tanh_c` (`hidden × width`) are
    /// scratch. `h_out` / `c_out` must not alias `h_prev` / `c_prev`.
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
        tanh_c: &mut [f64],
        live: &[bool],
    ) {
        assert_eq!(x.len(), self.input * width);
        assert_eq!(h_prev.len(), self.hidden * width);
        let kernel = Kernel::detect();
        self.gates.forward_panels(kernel, width, x, h_prev, z);
        self.gate_math(kernel, width, z, c_prev, h_out, c_out, tanh_c, live);
    }

    /// The gate math of one step over a `4·hidden × width` panel `z` of
    /// gate pre-activations, on `kernel`'s build: activates the gates in
    /// place, activates the new cell state into the `hidden × width`
    /// panel `tanh_c` (every lane), then writes the new cell and hidden
    /// state of every live lane. [`Self::step_batch`] is the gate matvec
    /// followed by this.
    ///
    /// The work does not depend on the values: every lane of every gate
    /// and of `tanh c` is activated branch-free, and liveness only masks
    /// the writes of `c_out` and `h_out`.
    ///
    /// # Panics
    ///
    /// Panics on any panel dimension mismatch or if `live.len() != width`.
    #[allow(clippy::too_many_arguments)]
    pub fn gate_math(
        &self,
        kernel: Kernel,
        width: usize,
        z: &mut [f64],
        c_prev: &[f64],
        h_out: &mut [f64],
        c_out: &mut [f64],
        tanh_c: &mut [f64],
        live: &[bool],
    ) {
        let panel = self.hidden * width;
        assert_eq!(z.len(), 4 * panel);
        assert_eq!(c_prev.len(), panel);
        assert_eq!(h_out.len(), panel);
        assert_eq!(c_out.len(), panel);
        assert_eq!(tanh_c.len(), panel);
        assert_eq!(live.len(), width, "liveness length mismatch");
        kernel.run(Units {
            gates: z,
            c_prev,
            h_out,
            c_out,
            tanh_c,
            live,
        });
    }

    /// Step `t` of a taped forward over all lanes of `tape`: the same
    /// matvec and gate math as [`Self::step_batch`] (so each lane's state
    /// is bit-identical to a lone inference stream), reading the state
    /// after `t` steps and writing the state after `t + 1`, and recording
    /// the step's gate values for [`Self::backward_gates`]. The matvec
    /// writes straight into the step's gate panel of the tape, which the
    /// gate math then activates in place, and the gate math activates
    /// `tanh c` in the step's `tanh_c` panel of the tape. `x` is the
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
        let act = &mut tape.act[t * 4 * panel..][..4 * panel];
        self.gates.forward_panels(kernel, width, x, h_prev, act);
        let (before, after) = tape.c.split_at_mut((t + 1) * panel);
        kernel.run(Units {
            gates: act,
            c_prev: &before[t * panel..],
            h_out,
            c_out: &mut after[..panel],
            tanh_c: &mut tape.tanh_c[t * panel..][..panel],
            live: &tape.live,
        });
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
    use adas_simulator::math::{cos, sigmoid, sin, tanh};

    fn rng() -> DeterministicRng {
        DeterministicRng::from_seed(5)
    }

    /// One live lane of [`Lstm::step_batch`] with fresh buffers: `(h, c)`.
    fn step(l: &Lstm, x: &[f64], h_prev: &[f64], c_prev: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h = l.hidden;
        let mut z = vec![0.0; 4 * h];
        let mut h_out = vec![0.0; h];
        let mut c_out = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        l.step_batch(
            1,
            x,
            h_prev,
            c_prev,
            &mut z,
            &mut h_out,
            &mut c_out,
            &mut tanh_c,
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
            let x = [sin(t as f64 * 0.37) * 3.0, cos(t as f64 * 0.11) * 3.0];
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
            let mut tc = vec![0.0; 5 * width];
            let live = vec![true; width];
            for t in 0..steps {
                let xp: Vec<f64> = (0..3 * width)
                    .map(|i| sin((t * 3 * width + i) as f64 * 0.31))
                    .collect();
                l.step_batch(
                    width, &xp, &hp, &cp, &mut z, &mut hn, &mut cn, &mut tc, &live,
                );
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

    /// The portable build, and the dispatched one (AVX where the CPU has
    /// it), with a name for failure messages.
    fn builds() -> [(Kernel, &'static str); 2] {
        let detected = Kernel::detect();
        let name = if detected.is_avx() { "avx" } else { "portable" };
        [(Kernel::PORTABLE, "portable"), (detected, name)]
    }

    #[test]
    fn lane_block_gate_math_bitwise_matches_scalar_gates() {
        // Every lane-block remainder, lanes that are not live, and
        // pre-activations wide enough to reach both tanh forms and
        // saturation.
        let l = Lstm::new(3, 5, &mut rng());
        let h = l.hidden;
        for width in 1..=33usize {
            let panel = h * width;
            let z: Vec<f64> = (0..4 * panel)
                .map(|i| sin(i as f64 * 0.737 + width as f64) * 30.0 * sin(i as f64 * 0.05))
                .collect();
            let c_prev: Vec<f64> = (0..panel).map(|i| cos(i as f64 * 0.41) * 2.0).collect();
            let live: Vec<bool> = (0..width).map(|lane| lane % 3 != 1).collect();
            for (kernel, build) in builds() {
                let mut gates = z.clone();
                let mut h_out = vec![-7.0; panel];
                let mut c_out = vec![-7.0; panel];
                let mut tanh_c = vec![-7.0; panel];
                l.gate_math(
                    kernel,
                    width,
                    &mut gates,
                    &c_prev,
                    &mut h_out,
                    &mut c_out,
                    &mut tanh_c,
                    &live,
                );
                for at in 0..panel {
                    let zb = |gate: usize| z[gate * panel + at];
                    let [i, f, g, o] =
                        [sigmoid(zb(0)), sigmoid(zb(1)), tanh(zb(2)), sigmoid(zb(3))];
                    for (gate, want) in [i, f, g, o].into_iter().enumerate() {
                        assert_eq!(
                            gates[gate * panel + at].to_bits(),
                            want.to_bits(),
                            "{build}: width {width} gate {gate} at {at}"
                        );
                    }
                    let c = f * c_prev[at] + i * g;
                    assert_eq!(
                        tanh_c[at].to_bits(),
                        tanh(c).to_bits(),
                        "{build}: width {width} tanh c at {at}"
                    );
                    let (want_c, want_h) = if live[at % width] {
                        (c, o * tanh(c))
                    } else {
                        (-7.0, -7.0)
                    };
                    assert_eq!(
                        c_out[at].to_bits(),
                        want_c.to_bits(),
                        "{build}: width {width} c at {at}"
                    );
                    assert_eq!(
                        h_out[at].to_bits(),
                        want_h.to_bits(),
                        "{build}: width {width} h at {at}"
                    );
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
