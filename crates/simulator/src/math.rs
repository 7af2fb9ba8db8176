//! Small geometry helpers shared by the simulator, and the workspace's
//! only transcendental functions.
//!
//! [`exp`], [`expm1`], [`ln`], [`tanh`], [`sigmoid`], [`sin`], [`cos`],
//! [`sin_cos`], [`tan`], [`atan`] and [`hypot`] are written from IEEE
//! basic operations only (`+ − × ÷`, `sqrt`, comparisons and bit
//! manipulation), never FMA, so every build on every host returns the same
//! bits: simulation outputs do not depend on the platform's libm. Each is
//! within 2 ulp of a correctly rounded result (the accuracy tests pin
//! ≤ 2 ulp against the host libm on dense grids), with exact special values.
//! The std methods are banned in the workspace (`clippy.toml`).
//!
//! [`sigmoid_lanes`] and [`tanh_lanes`] evaluate a block of values at once
//! with branch-free code the compiler vectorises. Each lane performs
//! exactly the operations of the scalar function, so a lane block is
//! bit-identical to calling [`sigmoid`] / [`tanh`] per value.

/// A 2-D vector / point in cartesian world coordinates (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector from its components.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(self) -> f64 {
        hypot(self.x, self.y)
    }

    /// Euclidean distance to another point.
    #[must_use]
    pub fn distance(self, other: Self) -> f64 {
        (self - other).norm()
    }

    /// Dot product.
    #[must_use]
    pub fn dot(self, other: Self) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    #[must_use]
    pub fn rotated(self, angle: f64) -> Self {
        let (s, c) = sin_cos(angle);
        Self::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

/// Clamps `value` into `[lo, hi]`.
///
/// # Panics
///
/// Panics (in debug builds) if `lo > hi`.
#[must_use]
pub fn clamp(value: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
    value.max(lo).min(hi)
}

/// Wraps an angle into `(-π, π]`.
#[must_use]
pub fn wrap_angle(angle: f64) -> f64 {
    let mut a = angle % std::f64::consts::TAU;
    if a <= -std::f64::consts::PI {
        a += std::f64::consts::TAU;
    } else if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    }
    a
}

/// Moves `current` towards `target` at a maximum rate of `max_delta` per call.
///
/// Used for actuator lag and bounded-rate driver inputs.
#[must_use]
pub fn approach(current: f64, target: f64, max_delta: f64) -> f64 {
    debug_assert!(max_delta >= 0.0);
    if (target - current).abs() <= max_delta {
        target
    } else {
        current + max_delta * (target - current).signum()
    }
}

/// Linear interpolation between `a` and `b` with `t` clamped into `[0, 1]`.
#[must_use]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    let t = clamp(t, 0.0, 1.0);
    a + (b - a) * t
}

/// Adding then subtracting `1.5 · 2^52` rounds a value of magnitude below
/// `2^51` to the nearest integer (ties to even); the integer is also the
/// low bits of the sum.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2^20`.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Mantissa bits of an `f64`.
const MANTISSA: u64 = (1 << 52) - 1;
/// `2^64`.
const TWO_64: f64 = 18_446_744_073_709_551_616.0;

/// Coefficients of `P(r) ≈ (eʳ − 1 − r) / r²` on `|r| ≤ ln2 / 2`, lowest
/// degree first (Chebyshev fit, relative error below `5e-18`).
const EXPM1_P: [f64; 11] = [
    0.5,
    1.666_666_666_666_666_9e-1,
    4.166_666_666_666_667e-2,
    8.333_333_333_326_136e-3,
    1.388_888_888_888_374_8e-3,
    1.984_126_987_482_062_7e-4,
    2.480_158_732_554_774_3e-5,
    2.755_725_540_020_642_2e-6,
    2.755_727_364_311_03e-7,
    2.510_521_700_472_074_5e-8,
    2.091_468_696_808_687_6e-9,
];

/// `c[0] + c[1]·x + … + c[10]·x¹⁰` in Estrin's scheme: pairs, then pairs
/// of pairs, so the dependency chain is four multiply-adds long instead of
/// ten (the lane loops are latency-bound).
#[inline(always)]
fn poly10(x: f64, c: &[f64; 11]) -> f64 {
    let x2 = x * x;
    let x4 = x2 * x2;
    let p01 = c[0] + c[1] * x;
    let p23 = c[2] + c[3] * x;
    let p45 = c[4] + c[5] * x;
    let p67 = c[6] + c[7] * x;
    let p89 = c[8] + c[9] * x;
    let q0 = p01 + p23 * x2;
    let q1 = p45 + p67 * x2;
    let q2 = p89 + c[10] * x2;
    (q0 + q1 * x4) + q2 * (x4 * x4)
}

/// The integer nearest `x` (ties to even) as an `f64` and as an `i64`, for
/// `|x| < 2^51`.
fn round_int(x: f64) -> (f64, i64) {
    let t = x + ROUND_SHIFT;
    let k = (t.to_bits() as i64).wrapping_sub(ROUND_SHIFT.to_bits() as i64);
    (t - ROUND_SHIFT, k)
}

/// `2^k` from `t = k + ROUND_SHIFT`, for `-1022 ≤ k ≤ 1023`: adding the
/// exponent bias leaves `k + 1023` in the low mantissa bits, and one shift
/// moves them into the exponent field. Float arithmetic plus a single
/// integer shift keeps the lane loops on wide vectors. (Any other `t` gives
/// a meaningless but harmless value; callers only pass one with a NaN
/// operand.)
#[inline(always)]
fn pow2_of_shifted(t: f64) -> f64 {
    f64::from_bits((t + 1023.0).to_bits() << 52)
}

/// Cody–Waite reduction `x = k·ln2 + r` with `|r| ≲ ln2 / 2`, for
/// `|x| ≤ 746`: returns `(k + ROUND_SHIFT, r)`.
#[inline(always)]
fn reduce_ln2(x: f64) -> (f64, f64) {
    let t = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let kf = t - ROUND_SHIFT;
    (t, (x - kf * LN2_HI) - kf * LN2_LO)
}

/// `eʳ − 1` for `|r| ≲ ln2 / 2`, as `r` plus a correction.
#[inline(always)]
fn expm1_reduced(r: f64) -> f64 {
    r + r * r * poly10(r, &EXPM1_P)
}

/// `eˣ`, branch-free, so it vectorises inside lane loops.
#[inline(always)]
fn exp_inline(x: f64) -> f64 {
    // exp(710) overflows and exp(-746) underflows to 0; NaN passes both
    // comparisons and stays NaN.
    let x = x.clamp(-746.0, 710.0);
    let (t, r) = reduce_ln2(x);
    // 2^k as 2^(k ± 64) · 2^∓64 (−1077 ≤ k ≤ 1024): the first product is
    // exact, so subnormal and overflowing results round once.
    let (bias, scale) = if x < 0.0 {
        (64.0, 1.0 / TWO_64)
    } else {
        (-64.0, TWO_64)
    };
    (1.0 + expm1_reduced(r)) * pow2_of_shifted(t + bias) * scale
}

/// `eʸ − 1` for `|y| ≤ 40` (and NaN): `2^k·(1 + r + c) − 1` summed so
/// that `2^k − 1 + 2^k·r` is exact or nearly so.
fn expm1_small(y: f64) -> f64 {
    let (t, r) = reduce_ln2(y);
    let s = pow2_of_shifted(t);
    ((s - 1.0) + s * r) + s * (r * r * poly10(r, &EXPM1_P))
}

/// Coefficients of `R(u) ≈ (tanh x − x) / x³` in `u = x²` for
/// `|x| ≤ 0.55`, lowest degree first (Chebyshev fit, relative error below
/// `6e-17`).
const TANH_R: [f64; 11] = [
    -3.333_333_333_333_333e-1,
    1.333_333_333_333_271_4e-1,
    -5.396_825_396_743_401_6e-2,
    2.186_948_849_366_694_4e-2,
    -8.863_234_397_814_355e-3,
    3.592_110_378_689_024e-3,
    -1.455_661_830_100_716e-3,
    5.889_360_520_074_057e-4,
    -2.346_347_410_887_237e-4,
    8.511_313_685_577_671e-5,
    -2.060_276_537_636_634e-5,
];

/// The logistic sigmoid `1 / (1 + e⁻ˣ)`, branch-free.
#[inline(always)]
fn sigmoid_inline(x: f64) -> f64 {
    let e = exp_inline(-x.abs());
    let num = if x < 0.0 { e } else { 1.0 };
    num / (1.0 + e)
}

/// `tanh x`, branch-free: both forms are computed and one is selected.
#[inline(always)]
fn tanh_inline(x: f64) -> f64 {
    // tanh rounds to ±1 well before |x| = 20; NaN passes the comparison.
    let a = x.abs();
    let a = if a > 20.0 { 20.0 } else { a };
    // |x| ≥ 0.55: 1 − 2 / (e^{2a} + 1), with e^{2a} + 1 = (2^k + 1) + 2^k·(e^r − 1)
    // rounded once.
    let (t, r) = reduce_ln2(2.0 * a);
    let s = pow2_of_shifted(t);
    let big = 1.0 - 2.0 / ((s + 1.0) + s * expm1_reduced(r));
    // |x| < 0.55: the odd polynomial a + a³·R(a²).
    let u = a * a;
    let small = a + a * (u * poly10(u, &TANH_R));
    let y = if a < 0.55 { small } else { big };
    y.copysign(x)
}

/// `eˣ`. Overflows to `+∞` above `709.78`, rounds to 0 below `-745.13`.
#[must_use]
#[inline]
pub fn exp(x: f64) -> f64 {
    exp_inline(x)
}

/// `eˣ − 1`, accurate near 0.
#[must_use]
#[inline]
pub fn expm1(x: f64) -> f64 {
    if x.abs() < 5.551_115_123_125_783e-17 {
        // Below 2^-54 expm1(x) rounds to x (keeps the sign of zero).
        x
    } else if x > 40.0 {
        // e^40 > 2^57, so the −1 is below half an ulp.
        exp_inline(x)
    } else if x < -40.0 {
        -1.0
    } else {
        expm1_small(x)
    }
}

/// The logistic sigmoid `1 / (1 + e⁻ˣ)`: `sigmoid(+∞) = 1`,
/// `sigmoid(−∞) = 0`.
#[must_use]
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    sigmoid_inline(x)
}

/// The hyperbolic tangent.
#[must_use]
#[inline]
pub fn tanh(x: f64) -> f64 {
    tanh_inline(x)
}

/// [`sigmoid`] of every value of a lane block, in place. Bit-identical to
/// the scalar function per lane.
#[inline(always)]
pub fn sigmoid_lanes<const N: usize>(v: &mut [f64; N]) {
    for x in v.iter_mut() {
        *x = sigmoid_inline(*x);
    }
}

/// [`tanh`] of every value of a lane block, in place. Bit-identical to the
/// scalar function per lane.
#[inline(always)]
pub fn tanh_lanes<const N: usize>(v: &mut [f64; N]) {
    for x in v.iter_mut() {
        *x = tanh_inline(*x);
    }
}

/// The natural logarithm: `ln(0) = −∞`, `ln(x < 0) = NaN`.
#[must_use]
#[inline]
pub fn ln(x: f64) -> f64 {
    const LG: [f64; 7] = [
        6.666_666_666_666_735e-1,
        3.999_999_999_940_942e-1,
        2.857_142_874_366_239e-1,
        2.222_219_843_214_978_4e-1,
        1.818_357_216_161_805e-1,
        1.531_383_769_920_937_3e-1,
        1.479_819_860_511_658_6e-1,
    ];
    // √2 / 2 < 1 + f < √2: mantissas above √2's move down an octave.
    const SQRT2_MANTISSA: u64 = 0x6_a09e_667f_3bcd;
    let (mut bits, mut k) = (x.to_bits(), 0i64);
    if !(1 << 52..0x7ff << 52).contains(&bits) {
        // Not a positive normal number.
        if x.is_nan() || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x == f64::INFINITY {
            return x;
        }
        // Subnormal: scale by 2^54 into the normal range.
        bits = (x * 18_014_398_509_481_984.0).to_bits();
        k = -54;
    }
    k += (bits >> 52) as i64 - 1023;
    let m = bits & MANTISSA;
    let y = if m > SQRT2_MANTISSA {
        k += 1;
        f64::from_bits(m | 1022 << 52)
    } else {
        f64::from_bits(m | 1023 << 52)
    };
    let f = y - 1.0;
    let s = f / (2.0 + f);
    let (z, dk) = (s * s, k as f64);
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    let hi_mantissa = (y.to_bits() >> 32) & 0xf_ffff;
    if hi_mantissa > 0x6_147a && hi_mantissa < 0x6_b851 {
        let hfsq = 0.5 * f * f;
        dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
    } else {
        dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f)
    }
}

/// `π/2` to 33 bits, so `n · PIO2_1` is exact for `n < 2^20`.
const PIO2_1: f64 = 1.570_796_326_734_125_6;
/// `π/2 − PIO2_1`.
const PIO2_1T: f64 = 6.077_100_506_506_192e-11;
/// The next 33 bits of `π/2`.
const PIO2_2: f64 = 6.077_100_506_303_966e-11;
/// `π/2 − PIO2_1 − PIO2_2`.
const PIO2_2T: f64 = 2.022_266_248_795_950_6e-21;
/// The next 33 bits of `π/2`.
const PIO2_3: f64 = 2.022_266_248_711_166_5e-21;
/// `π/2 − PIO2_1 − PIO2_2 − PIO2_3`.
const PIO2_3T: f64 = 8.478_427_660_368_9e-32;
/// `π/2` rounded, and the rest.
const PIO2_HI: f64 = std::f64::consts::FRAC_PI_2;
const PIO2_LO: f64 = 6.123_233_995_736_766e-17;
/// `π/4` rounded, and the rest.
const PIO4_HI: f64 = std::f64::consts::FRAC_PI_4;
const PIO4_LO: f64 = 3.061_616_997_868_383e-17;
/// Below `2^20 · π/2` the three-part reduction is exact enough.
const MEDIUM_MAX: f64 = 1_647_099.0;
/// The bits of `2/π` after the binary point, 64 to a word, behind one zero
/// word (so a window may start before the binary point).
const TWO_OVER_PI: [u64; 20] = [
    0,
    0xa2f9_836e_4e44_1529,
    0xfc27_57d1_f534_ddc0,
    0xdb62_9599_3c43_9041,
    0xfe51_63ab_debb_c561,
    0xb724_6e3a_424d_d2e0,
    0x0649_2eea_09d1_921c,
    0xfe1d_eb1c_b129_a73e,
    0xe882_35f5_2ebb_4484,
    0xe99c_7026_b45f_7e41,
    0x3991_d639_8353_39f4,
    0x9c84_5f8b_bdf9_283b,
    0x1ff8_97ff_de05_980f,
    0xef2f_118b_5a0a_6d1f,
    0x6d36_7ecf_27cb_09b7,
    0x4f46_3f66_9e5f_ea2d,
    0x7527_bac7_ebe5_f17b,
    0x3d07_39f7_8a52_92ea,
    0x6bfb_5fb1_1f8d_5d08,
    0x5603_3046_fc7b_6bab,
];

/// The biased exponent of `x`.
fn exponent(x: f64) -> i64 {
    ((x.to_bits() >> 52) & 0x7ff) as i64
}

/// `a · b` exactly, as a rounded product and its error (Dekker, no FMA).
fn two_product(a: f64, b: f64) -> (f64, f64) {
    fn split(a: f64) -> (f64, f64) {
        let c = 134_217_729.0 * a;
        let hi = c - (c - a);
        (hi, a - hi)
    }
    let p = a * b;
    let ((ah, al), (bh, bl)) = (split(a), split(b));
    (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
}

/// Reduces a finite `x` to `n·π/2 + (y0 + y1)` with `|y0 + y1| ≤ π/4`
/// (`y1` a tail below half an ulp of `y0`): returns `(n, y0, y1)`.
fn rem_pio2(x: f64) -> (i64, f64, f64) {
    if x.abs() >= MEDIUM_MAX {
        return rem_pio2_large(x);
    }
    // Subtract n·π/2 in 33-bit parts while cancellation eats the bits.
    let (nf, n) = round_int(x * std::f64::consts::FRAC_2_PI);
    let mut r = x - nf * PIO2_1;
    let mut w = nf * PIO2_1T;
    let mut y0 = r - w;
    for (part, tail, lost) in [(PIO2_2, PIO2_2T, 16), (PIO2_3, PIO2_3T, 49)] {
        if exponent(x) - exponent(y0) <= lost {
            break;
        }
        let t = r;
        w = nf * part;
        r = t - w;
        w = nf * tail - ((t - r) - w);
        y0 = r - w;
    }
    (n, y0, (r - y0) - w)
}

/// Payne–Hanek reduction of a finite `|x| ≥ MEDIUM_MAX`: the 192 bits of
/// `2/π` that matter for `x`'s exponent, multiplied by its mantissa in
/// integer arithmetic.
fn rem_pio2_large(x: f64) -> (i64, f64, f64) {
    let bits = x.to_bits();
    // |x| = m · 2^e.
    let e = exponent(x) - 1075;
    let m = u128::from((bits & MANTISSA) | 1 << 52);
    // Bits of 2/π with weight above 2^(1 − e) only add multiples of 4 to
    // |x|·2/π; take the window starting at fraction bit e − 1.
    let p = (e + 62) as usize;
    let (q, s) = (p / 64, p % 64);
    let word = |i: usize| {
        let hi = TWO_OVER_PI[q + i] << s;
        if s == 0 {
            hi
        } else {
            hi | TWO_OVER_PI[q + i + 1] >> (64 - s)
        }
    };
    // |x|·2/π mod 4 = (m · window mod 2^192) · 2^-190.
    let p2 = m * u128::from(word(2));
    let p1 = m * u128::from(word(1)) + (p2 >> 64);
    let p0 = (m * u128::from(word(0)) + (p1 >> 64)) as u64;
    // The fraction's top 128 bits, read as signed: fractions of ½ or more
    // become negative and round the quadrant up.
    let frac =
        (u128::from(p0) << 66 | u128::from(p1 as u64) << 2 | (p2 as u64 >> 62) as u128) as i128;
    let mut n = (p0 >> 62) as i64 + i64::from(frac < 0);
    let hi = frac as f64;
    let lo = frac.wrapping_sub(hi as i128) as f64;
    let scale = f64::from_bits((1023 - 128) << 52);
    let (fh, fl) = (hi * scale, lo * scale);
    // (fh + fl) · π/2 as a double-double.
    let (prod, err) = two_product(fh, PIO2_HI);
    let tail = err + (fh * PIO2_LO + fl * PIO2_HI);
    let mut y0 = prod + tail;
    let mut y1 = tail - (y0 - prod);
    if x < 0.0 {
        (n, y0, y1) = (-n, -y0, -y1);
    }
    (n, y0, y1)
}

/// `sin(x + y)` for `|x| ≤ π/4` and a tail `y`.
fn sin_kernel(x: f64, y: f64) -> f64 {
    const S: [f64; 6] = [
        -1.666_666_666_666_663_2e-1,
        8.333_333_333_322_49e-3,
        -1.984_126_982_985_795e-4,
        2.755_731_370_707_006_8e-6,
        -2.505_076_025_340_686_3e-8,
        1.589_690_995_211_55e-10,
    ];
    if x.abs() < 7.450_580_596_923_828e-9 {
        // Below 2^-27 sin(x) rounds to x (keeps the sign of zero).
        return x;
    }
    let z = x * x;
    let v = z * x;
    let r = S[1] + z * (S[2] + z * (S[3] + z * (S[4] + z * S[5])));
    x - ((z * (0.5 * y - v * r) - y) - v * S[0])
}

/// `cos(x + y)` for `|x| ≤ π/4` and a tail `y`.
fn cos_kernel(x: f64, y: f64) -> f64 {
    const C: [f64; 6] = [
        4.166_666_666_666_66e-2,
        -1.388_888_888_887_411e-3,
        2.480_158_728_947_673e-5,
        -2.755_731_435_139_066_3e-7,
        2.087_572_321_298_175e-9,
        -1.135_964_755_778_819_5e-11,
    ];
    let z = x * x;
    let w = z * z;
    let r = z * (C[0] + z * (C[1] + z * C[2])) + w * w * (C[3] + z * (C[4] + z * C[5]));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// `tan(x + y)` for `|x| ≤ π/4` and a tail `y`; `odd` gives
/// `−1 / tan(x + y)` instead.
fn tan_kernel(x: f64, y: f64, odd: bool) -> f64 {
    const T: [f64; 13] = [
        3.333_333_333_333_341e-1,
        1.333_333_333_332_012_4e-1,
        5.396_825_397_622_605e-2,
        2.186_948_829_485_954_2e-2,
        8.863_239_823_599_3e-3,
        3.592_079_107_591_312_4e-3,
        1.456_209_454_325_290_3e-3,
        5.880_412_408_202_641e-4,
        2.464_631_348_184_699e-4,
        7.817_944_429_395_571e-5,
        7.140_724_913_826_082e-5,
        -1.855_863_748_552_754_6e-5,
        2.590_730_518_636_337e-5,
    ];
    let (mut x, mut y) = (x, y);
    if !odd && x.abs() < 3.725_290_298_461_914e-9 {
        // Below 2^-28 tan(x) rounds to x (keeps the sign of zero).
        return x;
    }
    // Near ±π/4 use tan(π/4 − x) = (1 − tan x) / (1 + tan x).
    let big = x.abs() >= 0.674_4;
    let negative = x < 0.0;
    if big {
        if negative {
            (x, y) = (-x, -y);
        }
        x = (PIO4_HI - x) + (PIO4_LO - y);
        y = 0.0;
    }
    let z = x * x;
    let w = z * z;
    let r = T[1] + w * (T[3] + w * (T[5] + w * (T[7] + w * (T[9] + w * T[11]))));
    let v = z * (T[2] + w * (T[4] + w * (T[6] + w * (T[8] + w * (T[10] + w * T[12])))));
    let s = z * x;
    let r = y + z * (s * (r + v) + y) + T[0] * s;
    let w = x + r;
    if big {
        let v = if odd { -1.0 } else { 1.0 };
        let t = v - 2.0 * (x - (w * w / (w + v) - r));
        return if negative { -t } else { t };
    }
    if !odd {
        return w;
    }
    // −1 / (x + r) with the quotient's leading bits exact.
    let z = f64::from_bits(w.to_bits() & !0xffff_ffff);
    let v = r - (z - x);
    let a = -1.0 / w;
    let t = f64::from_bits(a.to_bits() & !0xffff_ffff);
    let s = 1.0 + t * z;
    t + a * (s + t * v)
}

/// `x` reduced to `n·π/2 + (y0 + y1)` with `|y0 + y1| ≤ π/4`, for a
/// finite `x`: `(n, y0, y1)`.
fn reduce_pio2(x: f64) -> (i64, f64, f64) {
    if x.abs() <= PIO4_HI {
        (0, x, 0.0)
    } else {
        rem_pio2(x)
    }
}

/// The sine of `x` radians.
#[must_use]
#[inline]
pub fn sin(x: f64) -> f64 {
    if !x.is_finite() {
        return f64::NAN;
    }
    let (n, y0, y1) = reduce_pio2(x);
    match n & 3 {
        0 => sin_kernel(y0, y1),
        1 => cos_kernel(y0, y1),
        2 => -sin_kernel(y0, y1),
        _ => -cos_kernel(y0, y1),
    }
}

/// The cosine of `x` radians.
#[must_use]
#[inline]
pub fn cos(x: f64) -> f64 {
    if !x.is_finite() {
        return f64::NAN;
    }
    let (n, y0, y1) = reduce_pio2(x);
    match n & 3 {
        0 => cos_kernel(y0, y1),
        1 => -sin_kernel(y0, y1),
        2 => -cos_kernel(y0, y1),
        _ => sin_kernel(y0, y1),
    }
}

/// The sine and cosine of `x` radians from one argument reduction,
/// bit-identical to [`sin`] and [`cos`].
#[must_use]
#[inline]
pub fn sin_cos(x: f64) -> (f64, f64) {
    if !x.is_finite() {
        return (f64::NAN, f64::NAN);
    }
    let (n, y0, y1) = reduce_pio2(x);
    let (s, c) = (sin_kernel(y0, y1), cos_kernel(y0, y1));
    match n & 3 {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

/// The tangent of `x` radians.
#[must_use]
#[inline]
pub fn tan(x: f64) -> f64 {
    if !x.is_finite() {
        return f64::NAN;
    }
    let (n, y0, y1) = reduce_pio2(x);
    tan_kernel(y0, y1, n & 1 == 1)
}

/// The arctangent of `x`, in `[−π/2, π/2]`.
#[must_use]
#[inline]
pub fn atan(x: f64) -> f64 {
    const ATAN_HI: [f64; 4] = [
        4.636_476_090_008_061e-1,
        PIO4_HI,
        9.827_937_232_473_29e-1,
        PIO2_HI,
    ];
    const ATAN_LO: [f64; 4] = [
        2.269_877_745_296_168_7e-17,
        PIO4_LO,
        1.390_331_103_123_099_8e-17,
        PIO2_LO,
    ];
    const AT: [f64; 11] = [
        3.333_333_333_333_293e-1,
        -1.999_999_999_987_648_3e-1,
        1.428_571_427_250_346_6e-1,
        -1.111_111_040_546_235_6e-1,
        9.090_887_133_436_507e-2,
        -7.691_876_205_044_83e-2,
        6.661_073_137_387_531e-2,
        -5.833_570_133_790_573e-2,
        4.976_877_994_615_932_4e-2,
        -3.653_157_274_421_691_6e-2,
        1.628_582_011_536_578_2e-2,
    ];
    let a = x.abs();
    if x.is_nan() {
        return x;
    }
    if a >= 7.378_697_629_483_821e19 {
        // Above 2^66 atan(x) rounds to ±π/2.
        return (ATAN_HI[3] + ATAN_LO[3]).copysign(x);
    }
    let (id, t) = if a < 0.437_5 {
        if a < 7.450_580_596_923_828e-9 {
            return x;
        }
        (None, x)
    } else if a < 0.687_5 {
        (Some(0), (2.0 * a - 1.0) / (2.0 + a))
    } else if a < 1.187_5 {
        (Some(1), (a - 1.0) / (a + 1.0))
    } else if a < 2.437_5 {
        (Some(2), (a - 1.5) / (1.0 + 1.5 * a))
    } else {
        (Some(3), -1.0 / a)
    };
    let z = t * t;
    let w = z * z;
    let s1 = z * (AT[0] + w * (AT[2] + w * (AT[4] + w * (AT[6] + w * (AT[8] + w * AT[10])))));
    let s2 = w * (AT[1] + w * (AT[3] + w * (AT[5] + w * (AT[7] + w * AT[9]))));
    match id {
        None => t - t * (s1 + s2),
        Some(i) => (ATAN_HI[i] - ((t * (s1 + s2) - ATAN_LO[i]) - t)).copysign(x),
    }
}

/// `√(x² + y²)` without intermediate overflow or underflow. An infinite
/// operand gives `+∞` even if the other is NaN (IEEE 754); otherwise NaN
/// in gives NaN out.
#[must_use]
#[inline]
pub fn hypot(x: f64, y: f64) -> f64 {
    /// `x²` exactly, as a rounded square and its error (Dekker, no FMA).
    fn square(x: f64) -> (f64, f64) {
        let c = 134_217_729.0 * x;
        let hi = c - (c - x);
        let lo = x - hi;
        let sq = x * x;
        (sq, ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo)
    }
    const TWO_700: f64 = f64::from_bits((1023 + 700) << 52);
    let (mut a, mut b) = (x.abs(), y.abs());
    if a.to_bits() < b.to_bits() {
        (a, b) = (b, a);
    }
    if b == f64::INFINITY || b.is_nan() {
        return if a == f64::INFINITY { a } else { b };
    }
    if a == f64::INFINITY || a.is_nan() || b == 0.0 {
        return a;
    }
    let (ea, eb) = (exponent(a), exponent(b));
    if ea - eb > 64 {
        return a + b;
    }
    // Scale so the squares neither overflow nor lose bits to underflow.
    let mut z = 1.0;
    if ea > 1023 + 510 {
        z = TWO_700;
        (a, b) = (a / TWO_700, b / TWO_700);
    } else if eb < 1023 - 450 {
        z = 1.0 / TWO_700;
        (a, b) = (a * TWO_700, b * TWO_700);
    }
    let ((ha, la), (hb, lb)) = (square(a), square(b));
    z * (lb + la + hb + ha).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(b - a, Vec2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert!((a.dot(b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec2::new(3.0, 4.0);
        let r = v.rotated(1.234);
        assert!((r.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rotate_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!(v.x.abs() < 1e-12 && (v.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn approach_reaches_and_saturates() {
        assert_eq!(approach(0.0, 1.0, 0.25), 0.25);
        assert_eq!(approach(0.9, 1.0, 0.25), 1.0);
        assert_eq!(approach(1.0, 0.0, 0.4), 0.6);
    }

    #[test]
    fn lerp_clamps() {
        assert_eq!(lerp(0.0, 10.0, -1.0), 0.0);
        assert_eq!(lerp(0.0, 10.0, 0.5), 5.0);
        assert_eq!(lerp(0.0, 10.0, 2.0), 10.0);
    }

    proptest! {
        #[test]
        fn wrap_angle_in_range(a in -100.0f64..100.0) {
            let w = wrap_angle(a);
            prop_assert!(w > -std::f64::consts::PI - 1e-9);
            prop_assert!(w <= std::f64::consts::PI + 1e-9);
            // Same direction modulo 2π.
            prop_assert!(((a - w) / std::f64::consts::TAU).round() * std::f64::consts::TAU - (a - w) < 1e-6);
        }

        #[test]
        fn clamp_within_bounds(v in -1e6f64..1e6, lo in -10.0f64..0.0, hi in 0.0f64..10.0) {
            let c = clamp(v, lo, hi);
            prop_assert!(c >= lo && c <= hi);
        }

        #[test]
        fn approach_never_overshoots(c in -10.0f64..10.0, t in -10.0f64..10.0, d in 0.0f64..5.0) {
            let n = approach(c, t, d);
            prop_assert!((n - c).abs() <= d + 1e-12);
            // Monotone towards the target.
            prop_assert!((t - n).abs() <= (t - c).abs() + 1e-12);
        }
    }
}
