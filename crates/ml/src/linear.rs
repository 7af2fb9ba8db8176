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
    /// `rows × width` panel. The weights are stationary and the output is
    /// computed in register tiles of [`TILE_ROWS`] weight rows × 8/4/2/1
    /// lanes (row remainders use one-row tiles): per column, each tile
    /// loads its lanes' inputs once and broadcasts each of its rows'
    /// weights across them, so the tile's accumulators stay in registers
    /// for the whole column sweep as independent add chains. On x86_64 the
    /// tile kernel is compiled twice — the SSE2 baseline and an `avx`
    /// target-feature build picked per call by runtime detection (the
    /// crate's one `unsafe` site, in `forward_concat_panels`); other
    /// architectures only have the portable build.
    ///
    /// Bit-identical per lane to [`Self::forward_into`] on either build:
    /// every output starts at 0, sees the same multiplies in the same
    /// column order, with the bias added last (`b[r] + acc`, the exact
    /// scalar expression). Nothing is reassociated and FMA is not enabled
    /// (Rust never contracts `acc += w * x`); tiling only changes *which*
    /// rows and lanes are computed together, never an output's operation
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
    /// Bit-identical per lane to the scalar concat forward: each output's
    /// accumulator consumes `xa`'s columns then `xb`'s in order, bias last.
    /// Row × lane tiling and the runtime AVX build as in
    /// [`Self::forward_batch`].
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

    /// Picks the tile kernel build for this CPU (dimensions already
    /// validated by the callers; `xb` may be empty).
    #[allow(unsafe_code)]
    fn forward_concat_panels(&self, width: usize, xa: &[f64], xb: &[f64], y: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: `tiles_avx`'s only precondition is that the CPU
            // supports AVX, which was detected just above.
            unsafe { tiles_avx(self, width, xa, xb, y) };
            return;
        }
        tiles(self, width, xa, xb, y);
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

/// Weight rows per register tile of the batched matvec.
const TILE_ROWS: usize = 4;

/// The tile kernel compiled with AVX enabled (256-bit vectors, twice the
/// accumulator registers). FMA stays off, so results are bit-identical to
/// the portable build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn tiles_avx(l: &Linear, width: usize, xa: &[f64], xb: &[f64], y: &mut [f64]) {
    tiles(l, width, xa, xb, y);
}

/// `y = W [xa; xb] + b` over lane panels: [`TILE_ROWS`]-row groups, then
/// the row remainder one row at a time. `#[inline(always)]` (down to
/// [`accumulate`]) so each caller gets its own copy compiled with its own
/// target features: called directly, this is the portable build (the SSE2
/// baseline on x86_64).
#[inline(always)]
fn tiles(l: &Linear, width: usize, xa: &[f64], xb: &[f64], y: &mut [f64]) {
    let full = l.rows - l.rows % TILE_ROWS;
    for r0 in (0..full).step_by(TILE_ROWS) {
        row_group::<TILE_ROWS>(l, r0, width, xa, xb, y);
    }
    for r0 in full..l.rows {
        row_group::<1>(l, r0, width, xa, xb, y);
    }
}

/// Sweeps all lanes of rows `r0..r0 + R` in const-sized lane blocks, so
/// even ragged tails (and narrow batches) keep their accumulators in
/// registers.
#[inline(always)]
fn row_group<const R: usize>(
    l: &Linear,
    r0: usize,
    width: usize,
    xa: &[f64],
    xb: &[f64],
    y: &mut [f64],
) {
    let mut start = 0;
    while start < width {
        let left = width - start;
        start += if left >= 8 {
            tile::<R, 8>(l, r0, width, start, xa, xb, y)
        } else if left >= 4 {
            tile::<R, 4>(l, r0, width, start, xa, xb, y)
        } else if left >= 2 {
            tile::<R, 2>(l, r0, width, start, xa, xb, y)
        } else {
            tile::<R, 1>(l, r0, width, start, xa, xb, y)
        };
    }
}

/// One `R` rows × `N` lanes tile: `y[r][lane] = b[r] + Σ_c w[r][c] ·
/// x[c][lane]` for rows `r0..r0 + R` and lanes `start..start + N`, with the
/// `xa` columns consumed before the `xb` columns. Returns `N` so the caller
/// can advance its lane cursor.
#[inline(always)]
fn tile<const R: usize, const N: usize>(
    l: &Linear,
    r0: usize,
    width: usize,
    start: usize,
    xa: &[f64],
    xb: &[f64],
    y: &mut [f64],
) -> usize {
    let na = xa.len() / width;
    let rows: [&[f64]; R] = std::array::from_fn(|i| &l.w[(r0 + i) * l.cols..(r0 + i + 1) * l.cols]);
    let mut acc = [[0.0f64; N]; R];
    accumulate(rows.map(|row| &row[..na]), xa, width, start, &mut acc);
    accumulate(rows.map(|row| &row[na..]), xb, width, start, &mut acc);
    for (i, acc_i) in acc.iter().enumerate() {
        let b_r = l.b[r0 + i];
        let out = &mut y[(r0 + i) * width + start..][..N];
        for (o, a) in out.iter_mut().zip(acc_i) {
            *o = b_r + a;
        }
    }
    N
}

/// Accumulates `acc[i][j] += rows[i][c] * x[c * width + start + j]` over
/// the panel's columns in order. The rows are cut to the panel's column
/// count up front and each column's lanes are taken as one `[f64; N]`, so
/// the sweep has no per-weight bounds checks and vectorises across lanes.
#[inline(always)]
fn accumulate<const R: usize, const N: usize>(
    rows: [&[f64]; R],
    x: &[f64],
    width: usize,
    start: usize,
    acc: &mut [[f64; N]; R],
) {
    let n = x.len() / width;
    let rows = rows.map(|row| &row[..n]);
    for c in 0..n {
        let xs: &[f64; N] = x[c * width + start..][..N]
            .try_into()
            .expect("lane block inside the panel");
        for (row, acc_i) in rows.iter().zip(acc.iter_mut()) {
            let w_ic = row[c];
            for j in 0..N {
                acc_i[j] += w_ic * xs[j];
            }
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

    /// Deterministic pseudo-random lane inputs without an RNG dependency,
    /// spread over four decades so any reordering of a sum shows up in
    /// the low bits.
    fn lane_input(cols: usize, width: usize, salt: f64) -> Vec<f64> {
        (0..cols * width)
            .map(|i| ((i as f64) * 0.7310 + salt).sin() * 10f64.powi(i as i32 % 4 - 2))
            .collect()
    }

    /// Both builds of the tile kernel are bit-identical per lane to the
    /// scalar `forward_concat_into`: the portable one always, the AVX one
    /// (the public entry points' pick) when the CPU has it. Covers every
    /// lane remainder (widths 1..=33), every row remainder of the 4-row
    /// tile, and the empty-`xb` panel of `forward_batch`.
    #[test]
    fn batched_kernels_bitwise_match_scalar_concat() {
        #[cfg(target_arch = "x86_64")]
        let dispatched = if std::arch::is_x86_feature_detected!("avx") {
            "avx"
        } else {
            "portable"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let dispatched = "portable";

        let (na, nb) = (7, 5);
        for rows in [1usize, 2, 3, 5, 7, 256] {
            let mut l = Linear::new(rows, na + nb, &mut rng());
            l.b = lane_input(rows, 1, 3.3);
            for width in 1..=33 {
                let pa = lane_input(na, width, 0.1);
                let pb = lane_input(nb, width, 1.9);
                let panel = [pa.clone(), pb.clone()].concat();
                let mut portable = vec![0.0; rows * width];
                tiles(&l, width, &pa, &pb, &mut portable);
                let mut concat = vec![0.0; rows * width];
                l.forward_concat_batch(width, &pa, &pb, &mut concat);
                let mut portable_one = vec![0.0; rows * width];
                tiles(&l, width, &panel, &[], &mut portable_one);
                let mut one = vec![0.0; rows * width];
                l.forward_batch(width, &panel, &mut one);
                for lane in 0..width {
                    let xa: Vec<f64> = (0..na).map(|c| pa[c * width + lane]).collect();
                    let xb: Vec<f64> = (0..nb).map(|c| pb[c * width + lane]).collect();
                    let mut expect = vec![0.0; rows];
                    l.forward_concat_into(&xa, &xb, &mut expect);
                    for (r, e) in expect.iter().enumerate() {
                        let at = r * width + lane;
                        for (got, path) in [
                            (portable[at], "portable concat"),
                            (concat[at], "dispatched concat"),
                            (portable_one[at], "portable, empty xb"),
                            (one[at], "dispatched, empty xb"),
                        ] {
                            assert_eq!(
                                got.to_bits(),
                                e.to_bits(),
                                "{path} ({dispatched}): {rows} rows, lane {lane}/{width}, row {r}"
                            );
                        }
                    }
                }
            }
        }
    }
}
