//! Retry backoff for queue-full rejections.
//!
//! The server's [`Response::Rejected`] carries a `retry_after_ms` hint;
//! hammering the socket the instant it elapses synchronises every bounced
//! client into lock-step retry storms. This module turns the hint into a
//! capped exponential schedule with *deterministic* jitter: the delay for
//! `(seed, attempt)` is a pure function, so tests can assert the exact
//! schedule and two clients with different seeds de-synchronise while a
//! re-run of the same client reproduces identical timing.
//!
//! [`Response::Rejected`]: crate::protocol::Response::Rejected

use adas_core::Fingerprint;

/// Ceiling on any single backoff delay.
pub const BACKOFF_CAP_MS: u64 = 10_000;

/// Default number of submission attempts before giving up.
pub const DEFAULT_ATTEMPTS: u32 = 8;

/// The delay before retry number `attempt` (0-based), honouring the
/// server's `retry_after_ms` hint: `hint · 2^attempt`, capped at
/// [`BACKOFF_CAP_MS`], then scaled into `[50 %, 100 %]` by a jitter drawn
/// deterministically from `(seed, attempt)`.
#[must_use]
pub fn delay_ms(retry_after_ms: u32, attempt: u32, seed: u64) -> u64 {
    let base = u64::from(retry_after_ms.max(1));
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    let capped = exp.min(BACKOFF_CAP_MS);
    // 53 high-quality bits of the fingerprint → a unit fraction in [0, 1).
    let h = Fingerprint::new()
        .write_str("retry-backoff")
        .write_u64(seed)
        .write_u64(u64::from(attempt))
        .value();
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    let jittered = capped as f64 * (0.5 + 0.5 * unit);
    (jittered as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_grows_to_the_cap() {
        let a: Vec<u64> = (0..10).map(|i| delay_ms(500, i, 42)).collect();
        let b: Vec<u64> = (0..10).map(|i| delay_ms(500, i, 42)).collect();
        assert_eq!(a, b, "same (seed, attempt) must give the same delay");
        // Every delay respects the jitter band of its capped exponential.
        for (i, &d) in a.iter().enumerate() {
            let capped = (500u64 << i.min(16)).min(BACKOFF_CAP_MS);
            assert!(
                d >= capped / 2 && d <= capped,
                "attempt {i}: {d} ∉ [{}, {capped}]",
                capped / 2
            );
        }
        // By attempt 5 (500·32 = 16 s) the cap is binding.
        assert!(a[5] >= BACKOFF_CAP_MS / 2 && a[5] <= BACKOFF_CAP_MS);
    }

    #[test]
    fn different_seeds_desynchronise() {
        let same: usize = (0..32)
            .filter(|&i| delay_ms(500, i, 1) == delay_ms(500, i, 2))
            .count();
        assert!(same < 4, "seeds 1 and 2 collided on {same}/32 attempts");
    }

    #[test]
    fn degenerate_hints_stay_sane() {
        assert!(delay_ms(0, 0, 7) >= 1);
        assert!(delay_ms(u32::MAX, 40, 7) <= BACKOFF_CAP_MS);
    }
}
