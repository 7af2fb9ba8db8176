//! Exact percentiles and the ten-samples-beyond rule for the tail.

use perfbench::stats::{beyond, median, percentile, Latency};

#[test]
fn nearest_rank_percentiles_are_sample_values() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 0.5), Some(50.0));
    assert_eq!(percentile(&sorted, 0.99), Some(99.0));
    assert_eq!(percentile(&sorted, 1.0), Some(100.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(beyond(100, 0.9), 10);
    assert_eq!(beyond(100, 0.95), 5);
}

#[test]
fn tail_is_the_highest_level_with_ten_samples_beyond() {
    let samples = |n: u32| -> Vec<f64> { (1..=n).rev().map(f64::from).collect() };
    // 1000 samples: p99 has exactly ten beyond it.
    let l = Latency::capped(&samples(1000), 1.0).unwrap();
    assert_eq!((l.tail_level, l.tail, l.p50), (0.99, 990.0, 500.0));
    // A cap keeps the level where a workload's sample count would move it.
    let l = Latency::capped(&samples(1000), 0.95).unwrap();
    assert_eq!((l.tail_level, l.tail), (0.95, 950.0));
    // 300 samples: p99 has 3 beyond, p95 has 15.
    let l = Latency::capped(&samples(300), 1.0).unwrap();
    assert_eq!((l.tail_level, l.tail), (0.95, 285.0));
    // 30 samples: only the median qualifies; the tail falls back to it.
    let l = Latency::capped(&samples(30), 1.0).unwrap();
    assert_eq!((l.tail_level, l.tail, l.n), (0.5, 15.0, 30));
    assert!(l.median_qualifies());
    assert!(!Latency::capped(&samples(12), 1.0)
        .unwrap()
        .median_qualifies());
    assert!(Latency::capped(&[], 1.0).is_none());
}

#[test]
fn median_of_even_count_is_the_mid_pair_mean() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}
