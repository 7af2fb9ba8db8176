//! The in-repo math library (`adas_simulator::math`): accuracy against the
//! host libm on dense grids, exact special values, and a pinned digest of
//! every function's bits.
//!
//! The tests live in `adas-ml` because the digest runs on both builds of
//! [`Kernel`] (the portable one, and AVX where the CPU has it), the builds
//! the LSTM gate math runs on. The pinned digests are the portability
//! check: any host, build, compiler change, FMA contraction or edit that
//! moves one bit of one function over the grid fails here. The std methods
//! are the accuracy reference, allowed only in the functions marked
//! `#[allow(clippy::disallowed_methods)]`.

use adas_codec::Fingerprint;
use adas_ml::linear::{Kernel, Pass};
use adas_simulator::math::{
    atan, cos, exp, expm1, hypot, ln, sigmoid, sigmoid_lanes, sin, sin_cos, tan, tanh, tanh_lanes,
};

/// Distance in units in the last place between two finite values of the
/// same sign, or two NaNs (0).
fn ulps(a: f64, b: f64) -> u64 {
    if a.is_nan() && b.is_nan() || a == b {
        return 0;
    }
    let ordered = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    (ordered(a) - ordered(b)).unsigned_abs()
}

/// `n + 1` evenly spaced points over `[lo, hi]`.
fn grid(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
    (0..=n).map(move |i| lo + (hi - lo) * i as f64 / n as f64)
}

/// `n + 1` points spaced evenly in bit pattern over the positive `[lo, hi]`:
/// every binade between them gets its share.
fn bit_grid(lo: f64, hi: f64, n: u64) -> impl Iterator<Item = f64> {
    let (a, b) = (lo.to_bits(), hi.to_bits());
    (0..=n).map(move |i| f64::from_bits(a + (b - a) / n * i))
}

/// Asserts `ours` is within 2 ulp of `reference` at every point.
fn within_2_ulp(
    name: &str,
    xs: impl Iterator<Item = f64>,
    ours: impl Fn(f64) -> f64,
    reference: impl Fn(f64) -> f64,
) {
    for x in xs {
        let (got, want) = (ours(x), reference(x));
        assert!(
            ulps(got, want) <= 2,
            "{name}({x:e}) = {got:e}, std {want:e}: {} ulp",
            ulps(got, want)
        );
    }
}

/// The logistic sigmoid as the workspace wrote it on std's `exp`.
#[allow(clippy::disallowed_methods)]
fn std_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[test]
#[allow(clippy::disallowed_methods)]
fn exponentials_are_within_2_ulp_of_std() {
    within_2_ulp("exp", grid(-745.0, 710.0, 400_000), exp, f64::exp);
    within_2_ulp("exp", grid(-2.0, 2.0, 100_000), exp, f64::exp);
    within_2_ulp("expm1", grid(-40.0, 40.0, 200_000), expm1, f64::exp_m1);
    within_2_ulp("expm1", grid(-800.0, 709.0, 100_000), expm1, f64::exp_m1);
    within_2_ulp("expm1", bit_grid(1e-300, 1.0, 100_000), expm1, f64::exp_m1);
    within_2_ulp("tanh", grid(-40.0, 40.0, 400_000), tanh, f64::tanh);
    within_2_ulp("tanh", bit_grid(1e-300, 3.0, 100_000), tanh, f64::tanh);
    within_2_ulp("sigmoid", grid(-40.0, 40.0, 400_000), sigmoid, std_sigmoid);
    within_2_ulp(
        "sigmoid",
        grid(-800.0, 800.0, 100_000),
        sigmoid,
        std_sigmoid,
    );
    within_2_ulp(
        "ln",
        bit_grid(f64::from_bits(1), 1e300, 400_000),
        ln,
        f64::ln,
    );
    within_2_ulp("ln", grid(0.5, 2.0, 100_000), ln, f64::ln);
}

#[test]
#[allow(clippy::disallowed_methods)]
fn trigonometry_is_within_2_ulp_of_std() {
    let sin_of_pair = |x: f64| sin_cos(x).0;
    let cos_of_pair = |x: f64| sin_cos(x).1;
    for (lo, hi) in [(-100.0, 100.0), (-1.0, 1.0)] {
        within_2_ulp("sin", grid(lo, hi, 200_000), sin, f64::sin);
        within_2_ulp("cos", grid(lo, hi, 200_000), cos, f64::cos);
        within_2_ulp("sin_cos.0", grid(lo, hi, 50_000), sin_of_pair, f64::sin);
        within_2_ulp("sin_cos.1", grid(lo, hi, 50_000), cos_of_pair, f64::cos);
        within_2_ulp("tan", grid(lo, hi, 200_000), tan, f64::tan);
        within_2_ulp("atan", grid(lo, hi, 200_000), atan, f64::atan);
    }
    // Large arguments: the three-part reduction up to 2^20·π/2, Payne–Hanek
    // beyond it.
    for (lo, hi) in [(100.0, 2e6), (2e6, 1e300)] {
        within_2_ulp("sin", bit_grid(lo, hi, 100_000), sin, f64::sin);
        within_2_ulp("cos", bit_grid(lo, hi, 100_000), cos, f64::cos);
        within_2_ulp("tan", bit_grid(lo, hi, 100_000), tan, f64::tan);
        within_2_ulp("sin", bit_grid(lo, hi, 100_000).map(|x| -x), sin, f64::sin);
    }
    within_2_ulp("atan", bit_grid(1e-300, 1e300, 100_000), atan, f64::atan);
    within_2_ulp(
        "atan",
        bit_grid(1e-300, 1e300, 100_000).map(|x| -x),
        atan,
        f64::atan,
    );
}

#[test]
#[allow(clippy::disallowed_methods)]
fn hypot_is_within_2_ulp_of_std_without_overflow_or_underflow() {
    let pairs = |k: f64, c: f64| move |x: f64| (x, k * x + c);
    for (xs, pair) in [
        (
            grid(-1e3, 1e3, 200_000).collect::<Vec<_>>(),
            pairs(0.37, 3.0),
        ),
        // Squares overflow.
        (grid(1e300, f64::MAX, 100_000).collect(), pairs(0.9, 0.0)),
        // Squares underflow.
        (grid(1e-320, 1e-300, 100_000).collect(), pairs(0.7, 0.0)),
        // Very different magnitudes.
        (bit_grid(1e-200, 1e200, 100_000).collect(), pairs(0.0, 1.0)),
    ] {
        within_2_ulp(
            "hypot",
            xs.into_iter(),
            |x| {
                let (a, b) = pair(x);
                hypot(a, b)
            },
            |x| {
                let (a, b) = pair(x);
                a.hypot(b)
            },
        );
    }
}

#[test]
fn special_values_are_exact() {
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let same = |got: f64, want: f64| got.to_bits() == want.to_bits();
    assert!(same(exp(0.0), 1.0) && same(exp(-0.0), 1.0));
    assert!(same(exp(inf), inf) && same(exp(-inf), 0.0));
    assert!(same(exp(709.79), inf) && exp(709.78).is_finite());
    assert!(same(exp(-746.0), 0.0) && exp(-745.0) > 0.0);
    assert!(same(expm1(0.0), 0.0) && same(expm1(-0.0), -0.0));
    assert!(same(expm1(inf), inf) && same(expm1(-inf), -1.0));
    assert!(same(tanh(0.0), 0.0) && same(tanh(-0.0), -0.0));
    assert!(same(tanh(inf), 1.0) && same(tanh(-inf), -1.0));
    assert!(same(sigmoid(inf), 1.0) && same(sigmoid(-inf), 0.0));
    assert!(same(sigmoid(0.0), 0.5));
    assert!(same(ln(0.0), -inf) && same(ln(-0.0), -inf) && same(ln(1.0), 0.0));
    assert!(same(ln(inf), inf) && ln(-1.0).is_nan());
    assert!(same(sin(0.0), 0.0) && same(sin(-0.0), -0.0) && same(cos(0.0), 1.0));
    assert!(same(tan(-0.0), -0.0) && same(atan(-0.0), -0.0));
    assert!(same(atan(inf), std::f64::consts::FRAC_PI_2));
    assert!(same(hypot(3.0, 4.0), 5.0) && same(hypot(-0.0, 0.0), 0.0));
    assert!(same(hypot(inf, nan), inf) && same(hypot(nan, -inf), inf));
    for f in [exp, expm1, ln, tanh, sigmoid, sin, cos, tan, atan] {
        assert!(f(nan).is_nan());
    }
    assert!(sin_cos(nan).0.is_nan() && sin_cos(nan).1.is_nan());
    assert!(sin(inf).is_nan() && cos(-inf).is_nan() && tan(inf).is_nan());
    assert!(hypot(nan, 1.0).is_nan() && hypot(2.0, nan).is_nan());
}

/// The digest inputs: an even grid over `[lo, hi]` plus the special
/// values.
fn digest_inputs(lo: f64, hi: f64) -> Vec<f64> {
    let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    grid(lo, hi, 8_191).chain(specials).collect()
}

/// FNV-1a of the output bits, NaN folded to one pattern (NaN payloads are
/// not part of the contract).
fn digest(outputs: impl Iterator<Item = f64>) -> String {
    outputs
        .fold(Fingerprint::new(), |fp, y| {
            fp.write_u64(if y.is_nan() { u64::MAX } else { y.to_bits() })
        })
        .hex()
}

/// Every function's digest, computed inside one [`Kernel`] build.
struct Digests<'a>(&'a mut Vec<(&'static str, String)>);

/// Pushes the digest of `f` over the inputs for `[lo, hi]`. Generic, so
/// each function is called directly and compiled into the caller's build.
#[inline(always)]
fn push(
    out: &mut Vec<(&'static str, String)>,
    name: &'static str,
    lo: f64,
    hi: f64,
    f: impl Fn(f64) -> f64,
) {
    let xs = digest_inputs(lo, hi);
    out.push((name, digest(xs.iter().map(|&x| f(x)))));
}

/// Pushes the digest of a lane-block function applied to the inputs for
/// `[lo, hi]` in blocks of 8 (the tail zero-padded).
#[inline(always)]
fn push_lanes(
    out: &mut Vec<(&'static str, String)>,
    name: &'static str,
    lo: f64,
    hi: f64,
    block: impl Fn(&mut [f64; 8]),
) {
    let mut xs = digest_inputs(lo, hi);
    let n = xs.len();
    xs.resize(n.next_multiple_of(8), 0.0);
    for chunk in xs.chunks_exact_mut(8) {
        block(chunk.try_into().expect("whole block"));
    }
    out.push((name, digest(xs[..n].iter().copied())));
}

impl Pass for Digests<'_> {
    #[inline(always)]
    fn run(self) {
        let out = self.0;
        push(out, "exp", -750.0, 720.0, exp);
        push(out, "expm1", -50.0, 50.0, expm1);
        push(out, "ln", 0.0, 1e3, ln);
        push(out, "tanh", -25.0, 25.0, tanh);
        push(out, "sigmoid", -50.0, 50.0, sigmoid);
        push(out, "sin", -1e3, 1e3, sin);
        push(out, "cos", -1e3, 1e3, cos);
        push(out, "sin_cos", -1e3, 1e3, |x| sin_cos(x).0 - sin_cos(x).1);
        push(out, "tan", -1e3, 1e3, tan);
        push(out, "atan", -1e3, 1e3, atan);
        push(out, "hypot", -1e3, 1e3, |x| hypot(x, 2.5));
        // The lane blocks the gate math runs must digest exactly like
        // their scalar functions.
        push_lanes(out, "sigmoid", -50.0, 50.0, sigmoid_lanes::<8>);
        push_lanes(out, "tanh", -25.0, 25.0, tanh_lanes::<8>);
    }
}

/// The pinned digests: the scalar functions, then the two lane blocks.
const PINNED: [(&str, &str); 13] = [
    ("exp", "99c571525e10a974"),
    ("expm1", "cc8b21f18a2ed1ae"),
    ("ln", "8e1be0457a03f047"),
    ("tanh", "6a14387b46bd3829"),
    ("sigmoid", "0b19ffd78ef57b12"),
    ("sin", "5dd8caf62a8ed0b7"),
    ("cos", "36ca6a28e9ca6c61"),
    ("sin_cos", "9148871bb0c861a0"),
    ("tan", "d34cd7aaee083157"),
    ("atan", "0bf3e9f116324dd4"),
    ("hypot", "c0cfe54f0d035c30"),
    ("sigmoid", "0b19ffd78ef57b12"),
    ("tanh", "6a14387b46bd3829"),
];

#[test]
fn function_bits_match_the_pinned_digests_on_both_builds() {
    let detected = Kernel::detect();
    for kernel in [Kernel::PORTABLE, detected] {
        let mut got = Vec::new();
        kernel.run(Digests(&mut got));
        let got: Vec<(&str, &str)> = got.iter().map(|(n, d)| (*n, d.as_str())).collect();
        assert_eq!(
            got,
            PINNED,
            "digests on the {} build",
            if kernel.is_avx() { "AVX" } else { "portable" }
        );
    }
}
