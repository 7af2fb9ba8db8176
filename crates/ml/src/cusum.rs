//! CUSUM change detector (Algorithm 1's accumulated-error gate).
//!
//! `S(t+1) = max(0, S(t) + δ − b(t))` with a positive bias `b(t)` so no
//! error accumulates under normal conditions; the recovery mode triggers
//! when `S` exceeds the threshold `τ`.

/// The CUSUM statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cusum {
    s: f64,
    tau: f64,
    bias: f64,
}

impl Cusum {
    /// Creates a detector with threshold `tau` and per-step bias `bias`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `bias` is not positive — Algorithm 1 requires
    /// `b(t) > 0` so that `S` stays at zero in normal conditions.
    #[must_use]
    pub fn new(tau: f64, bias: f64) -> Self {
        assert!(tau > 0.0, "threshold must be positive");
        assert!(bias > 0.0, "bias must be positive");
        Self { s: 0.0, tau, bias }
    }

    /// Current statistic value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.s
    }

    /// The per-step bias `b(t)`.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Feeds one discrepancy sample; returns `true` when `S` exceeds `τ`.
    pub fn update(&mut self, delta: f64) -> bool {
        self.s = (self.s + delta - self.bias).max(0.0);
        self.s > self.tau
    }

    /// Resets the statistic to zero (Algorithm 1 does this when leaving
    /// recovery mode).
    pub fn reset(&mut self) {
        self.s = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stays_zero_below_bias() {
        let mut c = Cusum::new(1.0, 0.1);
        for _ in 0..1000 {
            assert!(!c.update(0.05));
        }
        assert_eq!(c.value(), 0.0);
    }

    #[test]
    fn accumulates_above_bias() {
        let mut c = Cusum::new(1.0, 0.1);
        let mut fired = false;
        for _ in 0..15 {
            fired = c.update(0.2); // net +0.1 per step
        }
        assert!(fired);
        assert!(c.value() > 1.0);
    }

    #[test]
    fn trigger_time_scales_with_threshold() {
        let mut fast = Cusum::new(0.5, 0.1);
        let mut slow = Cusum::new(2.0, 0.1);
        let mut t_fast = None;
        let mut t_slow = None;
        for t in 0..100 {
            if fast.update(0.2) && t_fast.is_none() {
                t_fast = Some(t);
            }
            if slow.update(0.2) && t_slow.is_none() {
                t_slow = Some(t);
            }
        }
        assert!(t_fast.unwrap() < t_slow.unwrap());
    }

    #[test]
    fn reset_zeroes() {
        let mut c = Cusum::new(1.0, 0.1);
        for _ in 0..20 {
            let _ = c.update(0.5);
        }
        c.reset();
        assert_eq!(c.value(), 0.0);
        assert!(!c.update(0.05));
    }

    #[test]
    #[should_panic(expected = "bias must be positive")]
    fn zero_bias_rejected() {
        let _ = Cusum::new(1.0, 0.0);
    }

    proptest! {
        #[test]
        fn statistic_never_negative(deltas in prop::collection::vec(-1.0f64..1.0, 1..200)) {
            let mut c = Cusum::new(1.0, 0.05);
            for d in deltas {
                let _ = c.update(d);
                prop_assert!(c.value() >= 0.0);
            }
        }
    }
}
