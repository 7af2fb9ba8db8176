//! Exact order statistics over raw samples (no histogram buckets).

/// Percentile levels a tail may be reported at, highest first.
pub const TAIL_LEVELS: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(q * n)`. `None` for an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of level `q` in a sample of `n` (`None` if empty).
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // `q * n` is exact enough for the levels used here; clamp guards the
    // rounding at the ends.
    let r = (q * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

/// Samples strictly above the nearest-rank `q` percentile's position.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

/// A latency summary: the median and the highest level in
/// [`TAIL_LEVELS`] with at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Level the tail is reported at (0.5 when no higher level has ten
    /// samples beyond it).
    pub tail_level: f64,
    /// Value at `tail_level`.
    pub tail: f64,
}

impl Latency {
    /// Summarises raw samples (any order), with the tail level capped at
    /// `max_level` so a workload whose sample count varies a little keeps
    /// one level. `None` when empty.
    #[must_use]
    pub fn capped(samples: &[f64], max_level: f64) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 0.5)?;
        let n = sorted.len();
        let tail_level = TAIL_LEVELS
            .into_iter()
            .find(|&q| q <= max_level && beyond(n, q) >= MIN_BEYOND)
            .unwrap_or(0.5);
        Some(Self {
            n,
            p50,
            tail_level,
            tail: percentile(&sorted, tail_level)?,
        })
    }

    /// Whether the median itself has ten samples beyond it.
    #[must_use]
    pub fn median_qualifies(&self) -> bool {
        beyond(self.n, 0.5) >= MIN_BEYOND
    }
}

/// Median (mean of the middle pair for even counts). `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
