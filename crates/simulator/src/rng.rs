//! Deterministic random-number derivation.
//!
//! Every simulation run derives its own stream from a `(campaign, scenario,
//! position, repetition)` tuple so all tables in the paper reproduction are
//! bit-identical across machines and thread counts.

use crate::math::{cos, ln};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG wrapper with the small set of draws the simulator needs.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    inner: StdRng,
}

impl DeterministicRng {
    /// Creates a stream from a raw 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
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
        let s: u64 = self.inner.gen::<u64>() ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Self::from_seed(s)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if lo >= hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Zero-mean gaussian sample with the given standard deviation
    /// (Box–Muller; two uniforms per call).
    pub fn gaussian(&mut self, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return 0.0;
        }
        let u1: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.inner.gen_range(0.0..1.0);
        std_dev * (-2.0 * ln(u1)).sqrt() * cos(std::f64::consts::TAU * u2)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
