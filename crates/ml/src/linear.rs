//! Minimal dense linear algebra: a fully-connected layer and the row×lane
//! tile kernel that every batched matvec and gradient product runs on.

use rand::Rng;

/// A dense affine map `y = W x + b`.
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

    /// `y = W x + b`, written into a preallocated output buffer: the
    /// scalar reference every batched kernel is tested against.
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

    /// Batched `Y = W X + b` over lane-contiguous panels.
    ///
    /// `x` is a `cols × width` panel (`x[c * width + lane]`), `y` a
    /// `rows × width` panel. The weights are stationary and the output is
    /// computed in register tiles of 4 weight rows × 8/4/2/1 lanes (row
    /// remainders use one-row tiles): per column, each tile loads its
    /// lanes' inputs once and broadcasts each of its rows' weights across
    /// them, so the tile's accumulators stay in registers for the whole
    /// column sweep as independent add chains. The build is the CPU's
    /// fastest ([`Kernel::detect`]).
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
        self.forward_panels(Kernel::detect(), width, x, &[], y);
    }

    /// `Y = W [Xa; Xb] + b` over lane-contiguous panels without
    /// materialising the concatenation, on the CPU's fastest build.
    ///
    /// `xa` is an `na × width` panel, `xb` a `(cols − na) × width` panel.
    /// Bit-identical per lane to [`Self::forward_into`] on the
    /// concatenated input: each output's accumulator consumes `xa`'s
    /// columns then `xb`'s in order, bias last. Row × lane tiling as in
    /// [`Self::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics on panel dimension mismatch or `width == 0`.
    pub fn forward_concat_batch(&self, width: usize, xa: &[f64], xb: &[f64], y: &mut [f64]) {
        self.forward_panels(Kernel::detect(), width, xa, xb, y);
    }

    /// [`Self::forward_concat_batch`] on an explicit kernel build (`xb`
    /// may be empty).
    ///
    /// # Panics
    ///
    /// Panics on panel dimension mismatch or `width == 0`.
    pub fn forward_panels(
        &self,
        kernel: Kernel,
        width: usize,
        xa: &[f64],
        xb: &[f64],
        y: &mut [f64],
    ) {
        assert!(width > 0, "batch width must be ≥ 1");
        assert_eq!(
            xa.len() + xb.len(),
            self.cols * width,
            "input panel dimension mismatch"
        );
        assert!(
            xa.len().is_multiple_of(width),
            "xa panel not a multiple of width"
        );
        assert_eq!(
            y.len(),
            self.rows * width,
            "output panel dimension mismatch"
        );
        let m = Mat {
            w: &self.w,
            rows: self.rows,
            cols: self.cols,
        };
        kernel.run(Tiles {
            m,
            seed: Seed::Bias(&self.b),
            width,
            xa,
            xb,
            y,
        });
    }

    /// The zero-bias transpose of columns `from..cols`: a
    /// `(cols − from) × rows` map whose [`Self::forward_batch`] is the
    /// input gradient `Wᵀ·dy` of those columns for a panel of output
    /// gradients `dy`.
    ///
    /// Output `c` of that forward starts at 0 and adds `w[r][from + c] ·
    /// dy[r]` for `r` ascending, then adds the zero bias, which cannot
    /// change a sum that started at `+0.0`. So it is bit-identical to the
    /// scalar accumulation `dx[c] += w[r][c] * dy[r]` over the rows in
    /// order from a zeroed `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= cols`.
    #[must_use]
    pub(crate) fn transposed(&self, from: usize) -> Linear {
        assert!(from < self.cols, "transpose must keep at least one column");
        let rows = self.cols - from;
        let mut w = Vec::with_capacity(rows * self.rows);
        for c in from..self.cols {
            w.extend((0..self.rows).map(|r| self.w[r * self.cols + c]));
        }
        Linear {
            rows,
            cols: self.rows,
            w,
            b: vec![0.0; rows],
        }
    }

    /// Total number of parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// `y += A·X` over lane panels: `a` is a row-major `rows × k` matrix, `x`
/// a `k × width` panel and `y` a `rows × width` panel — a weight gradient
/// `gW += dZ·X` with the reduction index `j` running over (sample, step)
/// pairs.
///
/// Runs on the tile kernel with each tile's accumulators seeded from `y`
/// and written back without a bias, so every output sees exactly the
/// sequence `y[r][lane] += a[r][j] * x[j][lane]` for `j` ascending: the
/// scalar per-sample accumulation, loop-interchanged, not reassociated.
///
/// # Panics
///
/// Panics on dimension mismatch or `rows == 0` / `width == 0`.
pub(crate) fn add_product(
    kernel: Kernel,
    a: &[f64],
    rows: usize,
    x: &[f64],
    width: usize,
    y: &mut [f64],
) {
    assert!(rows > 0 && width > 0, "empty product");
    assert!(
        a.len().is_multiple_of(rows),
        "matrix not a multiple of its rows"
    );
    let k = a.len() / rows;
    assert_eq!(x.len(), k * width, "input panel dimension mismatch");
    assert_eq!(y.len(), rows * width, "output panel dimension mismatch");
    let m = Mat {
        w: a,
        rows,
        cols: k,
    };
    kernel.run(Tiles {
        m,
        seed: Seed::Output,
        width,
        xa: x,
        xb: &[],
        y,
    });
}

/// Which build of the lane kernels a call runs: the tile kernel and the
/// LSTM gate math. On x86_64 each is compiled twice — the SSE2 baseline and
/// an `avx` target-feature build — and the dispatch ([`Kernel::run`]) is
/// the crate's one `unsafe` site; other architectures only have the
/// portable build. Both builds are bit-identical (FMA stays off), so the
/// choice only moves speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel {
    /// Set only by [`Kernel::detect`], after detecting AVX.
    avx: bool,
}

/// A computation compiled once per [`Kernel`] build.
pub trait Pass {
    /// Runs the computation. Implementations mark this `#[inline(always)]`
    /// (down to every function it calls), so the AVX build's copy is
    /// compiled with AVX enabled.
    fn run(self);
}

impl Kernel {
    /// The portable build: the SSE2 baseline on x86_64, the only build
    /// elsewhere.
    pub const PORTABLE: Self = Self { avx: false };

    /// The fastest build this CPU runs: AVX where detected, else portable.
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let avx = false;
        Self { avx }
    }

    /// Whether this is the AVX build.
    #[must_use]
    pub fn is_avx(self) -> bool {
        self.avx
    }

    /// Runs `pass` on this build.
    #[allow(unsafe_code)]
    pub fn run<P: Pass>(self, pass: P) {
        #[cfg(target_arch = "x86_64")]
        if self.avx {
            // SAFETY: `run_avx`'s only precondition is that the CPU
            // supports AVX, and a `Kernel` with `avx` set is only made by
            // `detect`, after detecting it.
            unsafe { run_avx(pass) };
            return;
        }
        pass.run();
    }
}

/// `pass` compiled with AVX enabled (256-bit vectors, twice the
/// registers). FMA stays off, so results are bit-identical to the portable
/// build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn run_avx<P: Pass>(pass: P) {
    pass.run();
}

/// One tile-kernel pass (dimensions already validated by the callers; `xb`
/// may be empty).
struct Tiles<'a> {
    m: Mat<'a>,
    seed: Seed<'a>,
    width: usize,
    xa: &'a [f64],
    xb: &'a [f64],
    y: &'a mut [f64],
}

impl Pass for Tiles<'_> {
    #[inline(always)]
    fn run(self) {
        tiles(self.m, self.seed, self.width, self.xa, self.xb, self.y);
    }
}

/// The left operand of a tile-kernel pass: a row-major `rows × cols`
/// matrix (a layer's weights, or a gradient matrix `dZ`).
#[derive(Clone, Copy)]
struct Mat<'a> {
    w: &'a [f64],
    rows: usize,
    cols: usize,
}

/// Where a tile's accumulators start and what it writes.
#[derive(Clone, Copy)]
enum Seed<'a> {
    /// Start at 0 and write `b[r] + acc`: the affine map.
    Bias(&'a [f64]),
    /// Start at the output's value and write `acc` back: accumulate into
    /// it.
    Output,
}

/// Weight rows per register tile of the batched matvec.
const TILE_ROWS: usize = 4;

/// Lanes of the widest register tile: a panel this wide runs every tile
/// at full width.
pub(crate) const TILE_LANES: usize = 8;

/// `y = M [xa; xb] (+ seed)` over lane panels: [`TILE_ROWS`]-row groups,
/// then the row remainder one row at a time. `#[inline(always)]` (down to
/// [`accumulate`]) so each caller gets its own copy compiled with its own
/// target features: run through [`Kernel::run`].
#[inline(always)]
fn tiles(m: Mat, seed: Seed, width: usize, xa: &[f64], xb: &[f64], y: &mut [f64]) {
    let full = m.rows - m.rows % TILE_ROWS;
    for r0 in (0..full).step_by(TILE_ROWS) {
        row_group::<TILE_ROWS>(m, seed, r0, width, xa, xb, y);
    }
    for r0 in full..m.rows {
        row_group::<1>(m, seed, r0, width, xa, xb, y);
    }
}

/// Sweeps all lanes of rows `r0..r0 + R` in const-sized lane blocks, so
/// even ragged tails (and narrow batches) keep their accumulators in
/// registers.
#[inline(always)]
fn row_group<const R: usize>(
    m: Mat,
    seed: Seed,
    r0: usize,
    width: usize,
    xa: &[f64],
    xb: &[f64],
    y: &mut [f64],
) {
    let mut start = 0;
    while start < width {
        let left = width - start;
        start += if left >= TILE_LANES {
            tile::<R, TILE_LANES>(m, seed, r0, width, start, xa, xb, y)
        } else if left >= 4 {
            tile::<R, 4>(m, seed, r0, width, start, xa, xb, y)
        } else if left >= 2 {
            tile::<R, 2>(m, seed, r0, width, start, xa, xb, y)
        } else {
            tile::<R, 1>(m, seed, r0, width, start, xa, xb, y)
        };
    }
}

/// One `R` rows × `N` lanes tile: `y[r][lane] = seed + Σ_c m[r][c] ·
/// x[c][lane]` for rows `r0..r0 + R` and lanes `start..start + N`, with the
/// `xa` columns consumed before the `xb` columns. Returns `N` so the caller
/// can advance its lane cursor.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<const R: usize, const N: usize>(
    m: Mat,
    seed: Seed,
    r0: usize,
    width: usize,
    start: usize,
    xa: &[f64],
    xb: &[f64],
    y: &mut [f64],
) -> usize {
    let na = xa.len() / width;
    let rows: [&[f64]; R] = std::array::from_fn(|i| &m.w[(r0 + i) * m.cols..(r0 + i + 1) * m.cols]);
    let mut acc = [[0.0f64; N]; R];
    if let Seed::Output = seed {
        for (i, acc_i) in acc.iter_mut().enumerate() {
            acc_i.copy_from_slice(&y[(r0 + i) * width + start..][..N]);
        }
    }
    accumulate(rows.map(|row| &row[..na]), xa, width, start, &mut acc);
    accumulate(rows.map(|row| &row[na..]), xb, width, start, &mut acc);
    for (i, acc_i) in acc.iter().enumerate() {
        let out = &mut y[(r0 + i) * width + start..][..N];
        match seed {
            Seed::Bias(b) => {
                let b_r = b[r0 + i];
                for (o, a) in out.iter_mut().zip(acc_i) {
                    *o = b_r + a;
                }
            }
            Seed::Output => out.copy_from_slice(acc_i),
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

#[cfg(test)]
mod tests {
    use super::*;
    use adas_simulator::math::sin;
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
    fn param_count() {
        let l = Linear::new(4, 5, &mut rng());
        assert_eq!(l.param_count(), 24);
    }

    /// Deterministic pseudo-random lane inputs without an RNG dependency,
    /// spread over four decades so any reordering of a sum shows up in
    /// the low bits.
    fn lane_input(cols: usize, width: usize, salt: f64) -> Vec<f64> {
        (0..cols * width)
            .map(|i| sin((i as f64) * 0.7310 + salt) * [0.01, 0.1, 1.0, 10.0][i % 4])
            .collect()
    }

    /// The portable build, and the dispatched one (AVX where the CPU has
    /// it), with a name for failure messages.
    fn builds() -> [(Kernel, &'static str); 2] {
        let detected = Kernel::detect();
        let name = if detected.is_avx() { "avx" } else { "portable" };
        [(Kernel::PORTABLE, "portable"), (detected, name)]
    }

    /// Both builds of the tile kernel are bit-identical per lane to the
    /// scalar `forward_into` on the concatenated input. Covers every lane
    /// remainder (widths 1..=33), every row remainder of the 4-row tile,
    /// and the empty-`xb` panel of `forward_batch`.
    #[test]
    fn batched_kernels_bitwise_match_scalar_forward() {
        let (na, nb) = (7, 5);
        for rows in [1usize, 2, 3, 5, 7, 256] {
            let mut l = Linear::new(rows, na + nb, &mut rng());
            l.b = lane_input(rows, 1, 3.3);
            for width in 1..=33 {
                let pa = lane_input(na, width, 0.1);
                let pb = lane_input(nb, width, 1.9);
                let panel = [pa.clone(), pb.clone()].concat();
                for (kernel, build) in builds() {
                    let mut concat = vec![0.0; rows * width];
                    l.forward_panels(kernel, width, &pa, &pb, &mut concat);
                    let mut one = vec![0.0; rows * width];
                    l.forward_panels(kernel, width, &panel, &[], &mut one);
                    for lane in 0..width {
                        let x: Vec<f64> = (0..na + nb).map(|c| panel[c * width + lane]).collect();
                        let expect = l.forward(&x);
                        for (r, e) in expect.iter().enumerate() {
                            let at = r * width + lane;
                            for (got, path) in [(concat[at], "concat"), (one[at], "empty xb")] {
                                assert_eq!(
                                    got.to_bits(),
                                    e.to_bits(),
                                    "{path} ({build}): {rows} rows, lane {lane}/{width}, row {r}"
                                );
                            }
                        }
                    }
                }
                let mut dispatched = vec![0.0; rows * width];
                l.forward_concat_batch(width, &pa, &pb, &mut dispatched);
                let mut portable = vec![0.0; rows * width];
                l.forward_panels(Kernel::PORTABLE, width, &pa, &pb, &mut portable);
                assert_eq!(dispatched, portable, "forward_concat_batch, width {width}");
            }
        }
    }

    /// The transposed map's forward is, bit for bit, the scalar input
    /// gradient `dx[c] += w[r][c] * dy[r]` (rows in order, from a zeroed
    /// `dx`) of the kept columns, on both builds, over ragged row and
    /// column counts and lane widths.
    #[test]
    fn transposed_forward_bitwise_matches_scalar_input_gradient() {
        for (rows, cols, from) in [
            (1usize, 1usize, 0usize),
            (3, 5, 2),
            (8, 13, 9),
            (12, 7, 0),
            (256, 73, 9),
        ] {
            let mut l = Linear::new(rows, cols, &mut rng());
            l.w = lane_input(rows * cols, 1, 0.7);
            let t = l.transposed(from);
            assert_eq!((t.rows, t.cols), (cols - from, rows));
            assert!(t.b.iter().all(|b| b.to_bits() == 0));
            for width in [1usize, 2, 3, 4, 5, 9] {
                // Mixed signs and exact zeros, so a `-0.0` product shows.
                let mut dy = lane_input(rows, width, 2.9);
                dy[0] = 0.0;
                for (kernel, build) in builds() {
                    let mut dx = vec![0.0; (cols - from) * width];
                    t.forward_panels(kernel, width, &dy, &[], &mut dx);
                    for lane in 0..width {
                        let mut expect = vec![0.0; cols];
                        for r in 0..rows {
                            let dy_r = dy[r * width + lane];
                            for (c, e) in expect.iter_mut().enumerate() {
                                *e += l.w[r * cols + c] * dy_r;
                            }
                        }
                        for c in from..cols {
                            assert_eq!(
                                dx[(c - from) * width + lane].to_bits(),
                                expect[c].to_bits(),
                                "{build}: {rows}×{cols} from {from}, width {width}, lane {lane}, col {c}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The seeded product adds into its output in exactly the scalar
    /// order `y[r][c] += a[r][j] * x[j][c]`, `j` ascending, on both builds
    /// and over ragged row, reduction and column counts — including an
    /// empty reduction, which must leave `y` as it was.
    #[test]
    fn add_product_bitwise_matches_scalar_accumulation() {
        for rows in [1usize, 2, 4, 5, 11, 256] {
            for k in [0usize, 1, 3, 20, 80] {
                for width in [1usize, 2, 6, 9, 21, 73] {
                    let a = lane_input(rows * k, 1, 0.3);
                    let x = lane_input(k * width, 1, 1.1);
                    let seed = lane_input(rows * width, 1, 4.2);
                    let mut expect = seed.clone();
                    for j in 0..k {
                        for r in 0..rows {
                            for c in 0..width {
                                expect[r * width + c] += a[r * k + j] * x[j * width + c];
                            }
                        }
                    }
                    for (kernel, build) in builds() {
                        let mut y = seed.clone();
                        add_product(kernel, &a, rows, &x, width, &mut y);
                        for (i, (got, e)) in y.iter().zip(&expect).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                e.to_bits(),
                                "{build}: {rows} rows, k {k}, width {width}, at {i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
