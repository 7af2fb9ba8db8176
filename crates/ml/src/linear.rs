//! Minimal dense linear algebra: a fully-connected layer with gradients.

use rand::Rng;

/// A dense affine map `y = W x + b` with accumulated gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Output dimension.
    pub rows: usize,
    /// Input dimension.
    pub cols: usize,
    /// Row-major weights, `rows × cols`.
    pub w: Vec<f64>,
    /// Bias, length `rows`.
    pub b: Vec<f64>,
    /// Weight gradient accumulator.
    pub gw: Vec<f64>,
    /// Bias gradient accumulator.
    pub gb: Vec<f64>,
}

impl Linear {
    /// Xavier-style random initialisation.
    #[must_use]
    pub fn new<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        assert!(rows > 0 && cols > 0);
        let scale = (1.0 / cols as f64).sqrt();
        let w = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Self {
            rows,
            cols,
            w,
            b: vec![0.0; rows],
            gw: vec![0.0; rows * cols],
            gb: vec![0.0; rows],
        }
    }

    /// `y = W x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.forward_into(x, &mut y);
        y
    }

    /// `y = W x + b`, written into a preallocated output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn forward_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "input dimension mismatch");
        assert_eq!(y.len(), self.rows, "output dimension mismatch");
        for (r, y_r) in y.iter_mut().enumerate() {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (w_rc, x_c) in row.iter().zip(x) {
                acc += w_rc * x_c;
            }
            *y_r = self.b[r] + acc;
        }
    }

    /// `y = W [xa; xb] + b` without materialising the concatenation.
    ///
    /// Bit-identical to [`Self::forward_into`] on the concatenated input:
    /// each row's accumulator consumes `xa`'s columns then `xb`'s, in the
    /// same order as a contiguous input slice.
    ///
    /// # Panics
    ///
    /// Panics if `xa.len() + xb.len() != cols` or `y.len() != rows`.
    pub fn forward_concat_into(&self, xa: &[f64], xb: &[f64], y: &mut [f64]) {
        assert_eq!(xa.len() + xb.len(), self.cols, "input dimension mismatch");
        assert_eq!(y.len(), self.rows, "output dimension mismatch");
        let na = xa.len();
        for (r, y_r) in y.iter_mut().enumerate() {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (w_rc, x_c) in row[..na].iter().zip(xa) {
                acc += w_rc * x_c;
            }
            for (w_rc, x_c) in row[na..].iter().zip(xb) {
                acc += w_rc * x_c;
            }
            *y_r = self.b[r] + acc;
        }
    }

    /// Batched `Y = W X + b` over lane-contiguous panels.
    ///
    /// `x` is a `cols × width` panel (`x[c * width + lane]`), `y` a
    /// `rows × width` panel. The weights are stationary and the lane
    /// dimension is processed in register-resident blocks of
    /// [`LANE_BLOCK`]: each weight is loaded once per block and broadcast
    /// across the block's accumulators, which live in registers for the
    /// whole column sweep instead of round-tripping through the output
    /// panel on every weight.
    ///
    /// Bit-identical per lane to [`Self::forward_into`]: lane `l` sees the
    /// same multiplies in the same column order, with the bias added last
    /// (`b[r] + acc`, the exact scalar expression). Blocking only changes
    /// *which lanes* are computed together, never the per-lane operation
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics on panel dimension mismatch or `width == 0`.
    pub fn forward_batch(&self, width: usize, x: &[f64], y: &mut [f64]) {
        assert!(width > 0, "batch width must be ≥ 1");
        assert_eq!(x.len(), self.cols * width, "input panel dimension mismatch");
        assert_eq!(y.len(), self.rows * width, "output panel dimension mismatch");
        self.forward_concat_panels(width, x, &[], y);
    }

    /// Batched [`Self::forward_concat_into`]: `Y = W [Xa; Xb] + b` over
    /// lane-contiguous panels without materialising the concatenation.
    ///
    /// `xa` is an `na × width` panel, `xb` a `(cols − na) × width` panel.
    /// Bit-identical per lane to the scalar concat forward: each row's
    /// accumulator consumes `xa`'s columns then `xb`'s in order, bias last.
    /// Lane blocking as in [`Self::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics on panel dimension mismatch or `width == 0`.
    pub fn forward_concat_batch(&self, width: usize, xa: &[f64], xb: &[f64], y: &mut [f64]) {
        assert!(width > 0, "batch width must be ≥ 1");
        assert_eq!(
            xa.len() + xb.len(),
            self.cols * width,
            "input panel dimension mismatch"
        );
        assert!(xa.len().is_multiple_of(width), "xa panel not a multiple of width");
        assert_eq!(y.len(), self.rows * width, "output panel dimension mismatch");
        self.forward_concat_panels(width, xa, xb, y);
    }

    /// Shared lane-blocked kernel behind the batched forwards (dimensions
    /// already validated by the callers; `xb` may be empty).
    fn forward_concat_panels(&self, width: usize, xa: &[f64], xb: &[f64], y: &mut [f64]) {
        let na = xa.len() / width;
        for r in 0..self.rows {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            let out = &mut y[r * width..(r + 1) * width];
            let b_r = self.b[r];
            let mut start = 0;
            while start < width {
                // Const-sized blocks all the way down so even ragged
                // tails (and widths below LANE_BLOCK) keep their
                // accumulators in registers.
                let left = width - start;
                let taken = if left >= 8 {
                    block::<8>(row, na, xa, xb, width, start, b_r, out)
                } else if left >= 4 {
                    block::<4>(row, na, xa, xb, width, start, b_r, out)
                } else if left >= 2 {
                    block::<2>(row, na, xa, xb, width, start, b_r, out)
                } else {
                    block::<1>(row, na, xa, xb, width, start, b_r, out)
                };
                start += taken;
            }
        }
    }

    /// Accumulates gradients for one sample and returns `dL/dx`.
    ///
    /// `x` must be the input used in the corresponding forward pass and
    /// `dy` the gradient of the loss with respect to the output.
    #[must_use]
    pub fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        let mut dx = vec![0.0; self.cols];
        let rows = self.rows;
        let cols = self.cols;
        backward_kernel(
            &self.w,
            rows,
            cols,
            x,
            dy,
            &mut self.gw,
            &mut self.gb,
            &mut dx,
        );
        dx
    }

    /// Gradient accumulation into caller-owned buffers (`&self` receiver so
    /// workers can share one read-only weight set).
    ///
    /// Adds this sample's parameter gradients into `gw`/`gb` and *writes*
    /// (overwrites) `dL/dx` into `dx`.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn backward_into(
        &self,
        x: &[f64],
        dy: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
        dx: &mut [f64],
    ) {
        dx.fill(0.0);
        backward_kernel(&self.w, self.rows, self.cols, x, dy, gw, gb, dx);
    }

    /// [`Self::backward_into`] for a concatenated input `[xa; xb]`, writing
    /// the input gradient into two buffers without materialising the
    /// concatenation. Bit-identical to the contiguous version.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_concat_into(
        &self,
        xa: &[f64],
        xb: &[f64],
        dy: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
        dxa: &mut [f64],
        dxb: &mut [f64],
    ) {
        let na = xa.len();
        assert_eq!(na + xb.len(), self.cols, "input dimension mismatch");
        assert_eq!(dy.len(), self.rows, "gradient dimension mismatch");
        assert_eq!(gw.len(), self.w.len());
        assert_eq!(gb.len(), self.rows);
        assert_eq!(dxa.len(), na);
        assert_eq!(dxb.len(), xb.len());
        dxa.fill(0.0);
        dxb.fill(0.0);
        for (r, dy_r) in dy.iter().enumerate() {
            gb[r] += dy_r;
            let row_w = &self.w[r * self.cols..(r + 1) * self.cols];
            let row_g = &mut gw[r * self.cols..(r + 1) * self.cols];
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

    /// Clears the gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Total number of parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Computes one register-blocked group of `N` lanes for row `row` of the
/// batched matvec: `out[start + j] = b_r + Σ_c row[c] · x[c·width+start+j]`
/// with the `xa` columns consumed before the `xb` columns. `N` is a
/// compile-time constant so the accumulators stay in registers across the
/// whole column sweep (eight doubles fit in two 256-bit vectors). Returns
/// `N` so the caller can advance its lane cursor.
#[allow(clippy::too_many_arguments)]
#[inline]
fn block<const N: usize>(
    row: &[f64],
    na: usize,
    xa: &[f64],
    xb: &[f64],
    width: usize,
    start: usize,
    b_r: f64,
    out: &mut [f64],
) -> usize {
    let mut acc = [0.0f64; N];
    accumulate_lanes::<N>(&row[..na], xa, width, start, &mut acc);
    accumulate_lanes::<N>(&row[na..], xb, width, start, &mut acc);
    for (o, a) in out[start..start + N].iter_mut().zip(acc) {
        *o = b_r + a;
    }
    N
}

/// Accumulates `acc[j] += w[c] * x[c * width + start + j]` over all
/// columns for a block of `N` lanes.
#[inline]
fn accumulate_lanes<const N: usize>(
    row: &[f64],
    x: &[f64],
    width: usize,
    start: usize,
    acc: &mut [f64; N],
) {
    for (c, w_rc) in row.iter().enumerate() {
        let xs = &x[c * width + start..c * width + start + N];
        for j in 0..N {
            acc[j] += w_rc * xs[j];
        }
    }
}

/// Shared gradient kernel: `gb += dy`, `gw += dy ⊗ x`, `dx += Wᵀ dy`.
///
/// `dx` is accumulated into (callers zero it first when they want a pure
/// write), matching the historical accumulation order exactly.
#[allow(clippy::too_many_arguments)]
fn backward_kernel(
    w: &[f64],
    rows: usize,
    cols: usize,
    x: &[f64],
    dy: &[f64],
    gw: &mut [f64],
    gb: &mut [f64],
    dx: &mut [f64],
) {
    assert_eq!(x.len(), cols, "input dimension mismatch");
    assert_eq!(dy.len(), rows, "gradient dimension mismatch");
    assert_eq!(gw.len(), w.len());
    assert_eq!(gb.len(), rows);
    assert_eq!(dx.len(), cols);
    for (r, dy_r) in dy.iter().enumerate() {
        gb[r] += dy_r;
        let row_w = &w[r * cols..(r + 1) * cols];
        let row_g = &mut gw[r * cols..(r + 1) * cols];
        for c in 0..cols {
            row_g[c] += dy_r * x[c];
            dx[c] += row_w[c] * dy_r;
        }
    }
}

/// Numerically stable logistic sigmoid.
#[must_use]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn forward_matches_manual() {
        let mut l = Linear::new(2, 3, &mut rng());
        l.w = vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5];
        l.b = vec![0.1, -0.1];
        let y = l.forward(&[2.0, 3.0, 4.0]);
        assert!((y[0] - (2.0 - 4.0 + 0.1)).abs() < 1e-12);
        assert!((y[1] - (1.0 + 1.5 + 2.0 - 0.1)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn dimension_mismatch_panics() {
        let l = Linear::new(2, 3, &mut rng());
        let _ = l.forward(&[1.0, 2.0]);
    }

    #[test]
    fn backward_gradient_check() {
        // Finite-difference check of dL/dw and dL/dx for L = sum(y).
        let mut l = Linear::new(3, 4, &mut rng());
        let x: Vec<f64> = vec![0.3, -0.2, 0.8, 0.1];
        let dy = vec![1.0; 3];
        let dx = l.backward(&x, &dy);

        let eps = 1e-6;
        // dL/dx.
        for c in 0..4 {
            let mut xp = x.clone();
            xp[c] += eps;
            let mut xm = x.clone();
            xm[c] -= eps;
            let lp: f64 = l.forward(&xp).iter().sum();
            let lm: f64 = l.forward(&xm).iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx[c]).abs() < 1e-6, "dx[{c}]: {num} vs {}", dx[c]);
        }
        // dL/dw for a couple of entries.
        for idx in [0, 5, 11] {
            let orig = l.w[idx];
            l.w[idx] = orig + eps;
            let lp: f64 = l.forward(&x).iter().sum();
            l.w[idx] = orig - eps;
            let lm: f64 = l.forward(&x).iter().sum();
            l.w[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - l.gw[idx]).abs() < 1e-6,
                "gw[{idx}]: {num} vs {}",
                l.gw[idx]
            );
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut l = Linear::new(2, 2, &mut rng());
        let _ = l.backward(&[1.0, 1.0], &[1.0, 1.0]);
        assert!(l.gw.iter().any(|g| *g != 0.0));
        l.zero_grad();
        assert!(l.gw.iter().all(|g| *g == 0.0));
        assert!(l.gb.iter().all(|g| *g == 0.0));
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999_999);
        assert!(sigmoid(-30.0) < 1e-6);
        // Stability at extremes.
        assert!(sigmoid(-1e6).is_finite());
        assert!(sigmoid(1e6).is_finite());
    }

    #[test]
    fn param_count() {
        let l = Linear::new(4, 5, &mut rng());
        assert_eq!(l.param_count(), 24);
    }

    /// Deterministic pseudo-random lane inputs without an RNG dependency.
    fn lane_input(cols: usize, width: usize, salt: f64) -> Vec<f64> {
        (0..cols * width)
            .map(|i| ((i as f64) * 0.7310 + salt).sin())
            .collect()
    }

    #[test]
    fn forward_batch_bitwise_matches_scalar() {
        let l = Linear::new(5, 7, &mut rng());
        for width in [1usize, 3, 8, 32] {
            let panel = lane_input(7, width, 0.25);
            let mut y = vec![0.0; 5 * width];
            l.forward_batch(width, &panel, &mut y);
            for lane in 0..width {
                let x: Vec<f64> = (0..7).map(|c| panel[c * width + lane]).collect();
                let expect = l.forward(&x);
                for r in 0..5 {
                    assert_eq!(
                        y[r * width + lane].to_bits(),
                        expect[r].to_bits(),
                        "width {width} lane {lane} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_concat_batch_bitwise_matches_scalar() {
        let l = Linear::new(6, 9, &mut rng());
        for width in [1usize, 4, 32] {
            let pa = lane_input(4, width, 0.1);
            let pb = lane_input(5, width, 1.9);
            let mut y = vec![0.0; 6 * width];
            l.forward_concat_batch(width, &pa, &pb, &mut y);
            for lane in 0..width {
                let xa: Vec<f64> = (0..4).map(|c| pa[c * width + lane]).collect();
                let xb: Vec<f64> = (0..5).map(|c| pb[c * width + lane]).collect();
                let mut expect = vec![0.0; 6];
                l.forward_concat_into(&xa, &xb, &mut expect);
                for r in 0..6 {
                    assert_eq!(
                        y[r * width + lane].to_bits(),
                        expect[r].to_bits(),
                        "width {width} lane {lane} row {r}"
                    );
                }
            }
        }
    }
}
