//! Deterministic random-number derivation.
//!
//! Every simulation run derives its own stream from a `(campaign, scenario,
//! position, repetition)` tuple so all tables in the paper reproduction are
//! bit-identical across machines and thread counts. The generator is
//! xoshiro256** with its state seeded by SplitMix64; nothing outside this
//! module generates random numbers.

use crate::math::{cos, ln};

/// The SplitMix64 stream: a full-period 64-bit mix of a Weyl sequence.
/// It seeds [`DeterministicRng`] and generates the store's synthetic rows.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream over `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A seeded xoshiro256** stream with the small set of draws the
/// reproduction needs.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    s: [u64; 4],
}

impl DeterministicRng {
    /// Creates a stream from a raw 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut seeder = SplitMix64::new(seed);
        Self {
            s: std::array::from_fn(|_| seeder.next_u64()),
        }
    }

    /// Derives a run-specific stream from an experiment coordinate.
    ///
    /// The mixing uses distinct odd multipliers per coordinate (a
    /// SplitMix-style hash) so neighbouring runs are decorrelated.
    #[must_use]
    pub fn for_run(campaign_seed: u64, scenario: u64, position: u64, repetition: u64) -> Self {
        let mut x = campaign_seed ^ 0x9E37_79B9_7F4A_7C15;
        for (i, v) in [scenario, position, repetition].into_iter().enumerate() {
            x = x
                .wrapping_add(v.wrapping_mul(0xBF58_476D_1CE4_E5B9_u64.rotate_left(i as u32 * 7)))
                .wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
        }
        Self::from_seed(x)
    }

    /// Splits off an independent sub-stream labelled by `tag` (e.g. one per
    /// subsystem), leaving this stream untouched by the child's consumption.
    #[must_use]
    pub fn split(&mut self, tag: u64) -> Self {
        Self::from_seed(self.next_u64() ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Uniform sample in `[lo, hi)`; `lo` without a draw when `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if lo >= hi {
            return lo;
        }
        let v = lo + self.unit() * (hi - lo);
        // Guard against round-up to `hi` at the top of the interval.
        if v >= hi {
            lo.max(hi - (hi - lo) * f64::EPSILON)
        } else {
            v
        }
    }

    /// Zero-mean gaussian sample with the given standard deviation
    /// (Box–Muller; two uniforms per call).
    pub fn gaussian(&mut self, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return 0.0;
        }
        let u1 = self.uniform(f64::EPSILON, 1.0);
        let u2 = self.unit();
        std_dev * (-2.0 * ln(u1)).sqrt() * cos(std::f64::consts::TAU * u2)
    }

    /// Bernoulli draw with probability `p` of `true`; no draw when `p <= 0`
    /// or `p >= 1`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        p >= 1.0 || self.unit() < p
    }

    /// Raw 64-bit draw: one xoshiro256** step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fisher–Yates shuffle of `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Uniform float in `[0, 1)` from the top 53 bits of one draw.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Integer in `0..bound` by multiply-shift: one draw, no rejection (the
    /// bias is at most `bound / 2⁶⁴`).
    #[allow(clippy::cast_possible_truncation)]
    fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_codec::Fingerprint;

    /// One stream of every draw kind, folded into a digest: unit and
    /// ranged uniforms (a one-ulp interval takes the round-up guard about
    /// half the time), gaussians, chances (NaN consumes a draw and is
    /// `false`) and children split off mid-stream.
    fn mixed_draws_digest(rng: &mut DeterministicRng) -> u64 {
        let mut fp = Fingerprint::new();
        for i in 0..1000_u64 {
            fp = fp
                .write_f64(rng.uniform(0.0, 1.0))
                .write_f64(rng.uniform(-3.0, 5.0))
                .write_f64(rng.uniform(1.0, 1.0 + f64::EPSILON))
                .write_f64(rng.gaussian(2.0))
                .write_u64(u64::from(rng.chance(0.3)))
                .write_u64(u64::from(rng.chance(f64::NAN)))
                .write_u64(rng.split(i).next_u64());
        }
        fp.value()
    }

    /// Values taken from the generator as it stood on the `rand` stand-in
    /// crate; a change here moves every seeded result in the repository.
    #[test]
    fn streams_are_pinned() {
        let mut r = DeterministicRng::from_seed(2025);
        assert_eq!(
            [r.next_u64(), r.next_u64()],
            [0xc9fc_bf65_c046_112f, 0x7b7b_3399_e150_a198]
        );
        let mut r = DeterministicRng::for_run(2025, 3, 1, 7);
        assert_eq!(r.next_u64(), 0x1f34_45c5_fe41_d139);
        let mut child = r.split(5);
        assert_eq!(child.next_u64(), 0x1eb9_8adf_2326_67d1);
        assert_eq!(r.next_u64(), 0xe9ef_2a87_4825_686c);
        let mut r = DeterministicRng::from_seed(11);
        assert_eq!(r.uniform(-3.0, 5.0).to_bits(), 0xbff3_6bc0_1ecb_6330);
        assert_eq!(r.gaussian(2.0).to_bits(), 0x3fc0_d5a7_5697_7b86);
        assert!(r.chance(0.5));
        let digest = mixed_draws_digest(&mut DeterministicRng::for_run(1, 2, 3, 4));
        assert_eq!(digest, 0xd0f6_0c40_42fd_91b3, "{digest:#018x}");
    }

    #[test]
    fn degenerate_draws_consume_nothing() {
        let mut a = DeterministicRng::from_seed(2025);
        assert!(!a.chance(0.0));
        assert!(!a.chance(-0.5));
        assert!(a.chance(1.0));
        assert!(a.chance(1.5));
        assert_eq!(a.uniform(2.0, 2.0), 2.0);
        assert_eq!(a.uniform(3.0, 2.0), 3.0);
        assert_eq!(a.gaussian(0.0), 0.0);
        assert_eq!(a.next_u64(), 0xc9fc_bf65_c046_112f);
    }

    #[test]
    fn shuffle_is_pinned() {
        let mut v: Vec<u32> = (0..100).collect();
        DeterministicRng::from_seed(3).shuffle(&mut v);
        assert_eq!(v[..8], [46, 54, 34, 2, 76, 11, 74, 79]);
        let digest = v
            .iter()
            .fold(Fingerprint::new(), |fp, &x| fp.write_u64(u64::from(x)))
            .value();
        assert_eq!(digest, 0x444e_9372_5c59_f8c5, "{digest:#018x}");
    }

    #[test]
    fn same_coordinates_same_stream() {
        let mut a = DeterministicRng::for_run(7, 1, 0, 3);
        let mut b = DeterministicRng::for_run(7, 1, 0, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_repetitions_differ() {
        let mut a = DeterministicRng::for_run(7, 1, 0, 3);
        let mut b = DeterministicRng::for_run(7, 1, 0, 4);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_scenarios_differ() {
        let mut a = DeterministicRng::for_run(7, 1, 0, 3);
        let mut b = DeterministicRng::for_run(7, 2, 0, 3);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gaussian_statistics_roughly_normal() {
        let mut rng = DeterministicRng::from_seed(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn gaussian_zero_std_is_zero() {
        let mut rng = DeterministicRng::from_seed(1);
        assert_eq!(rng.gaussian(0.0), 0.0);
        assert_eq!(rng.gaussian(-1.0), 0.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DeterministicRng::from_seed(5);
        for _ in 0..1000 {
            let v = rng.uniform(-3.0, 4.0);
            assert!((-3.0..4.0).contains(&v));
        }
        // Degenerate interval returns lo.
        assert_eq!(rng.uniform(2.0, 2.0), 2.0);
        let mean = (0..10_000).map(|_| rng.uniform(0.0, 1.0)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_respects_its_bound() {
        let mut rng = DeterministicRng::from_seed(9);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn chance_hits_its_rate() {
        let mut rng = DeterministicRng::from_seed(1);
        let trues = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((1_500..3_500).contains(&trues), "{trues}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = DeterministicRng::from_seed(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice sorted");
    }

    #[test]
    fn split_streams_are_independent_of_consumption() {
        let mut parent_a = DeterministicRng::from_seed(9);
        let mut parent_b = DeterministicRng::from_seed(9);
        let mut child_a = parent_a.split(1);
        let mut child_b = parent_b.split(1);
        // Consuming from one child does not affect the other's parent.
        for _ in 0..8 {
            assert_eq!(child_a.next_u64(), child_b.next_u64());
        }
        assert_eq!(parent_a.next_u64(), parent_b.next_u64());
    }
}
