//! Property tests of the `CellStats` cache codec: round-trip fidelity,
//! bit-flip rejection, and no-panic behaviour on arbitrary input.
//!
//! The codec guards the artifact cache — a corrupted or truncated entry
//! must decode to `None` (a cache miss, recompute) and never to a
//! `CellStats` with silently wrong numbers.

use adas_core::CellStats;
use proptest::prelude::*;

/// A cell of `runs` runs: eight counts (A1, A2, prevented, hazard, then
/// the AEB / driver-brake / driver-steer / ML triggers) and three
/// (time sum, timed runs) pairs.
fn stats(runs: u64, counts: &[u64], times: &[(f64, u64); 3]) -> CellStats {
    CellStats {
        runs,
        a1: counts[0],
        a2: counts[1],
        prevented: counts[2],
        hazard: counts[3],
        aeb_n: counts[4],
        driver_brake_n: counts[5],
        driver_steer_n: counts[6],
        ml_n: counts[7],
        aeb_time_sum: times[0].0,
        aeb_time_n: times[0].1,
        driver_brake_time_sum: times[1].0,
        driver_brake_time_n: times[1].1,
        driver_steer_time_sum: times[2].0,
        driver_steer_time_n: times[2].1,
    }
}

proptest! {
    #[test]
    fn round_trip_is_exact(
        runs in 0u64..100_000,
        counts in prop::collection::vec(0u64..100_000, 8..9),
        t_aeb in 0.0f64..600.0,
        t_brake in 0.0f64..600.0,
        t_steer in 0.0f64..600.0,
        n_aeb in 0u64..100_000,
        n_brake in 0u64..100_000,
        n_steer in 0u64..100_000,
    ) {
        let original = stats(
            runs,
            &counts,
            &[(t_aeb, n_aeb), (t_brake, n_brake), (t_steer, n_steer)],
        );
        let bytes = original.to_bytes();
        let decoded = CellStats::from_bytes(&bytes);
        prop_assert_eq!(decoded, Some(original));
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        a1 in 0u64..121,
        t_aeb in 0.0f64..600.0,
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let original = stats(
            120,
            &[a1, 0, 120 - a1, a1, 60, 30, 15, 0],
            &[(t_aeb, 40), (0.0, 0), (3.25, 1)],
        );
        let mut bytes = original.to_bytes();
        let idx = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        // A flip anywhere — magic, payload, or the checksum itself — must
        // be detected; silently wrong statistics are the failure mode this
        // codec exists to prevent.
        prop_assert_eq!(CellStats::from_bytes(&bytes), None);
    }

    #[test]
    fn truncation_and_extension_are_rejected(
        cut in 1usize..64,
        extra in prop::collection::vec(0u64..256, 1..16),
    ) {
        let original = stats(
            12,
            &[3, 3, 6, 9, 12, 0, 0, 1],
            &[(18.0, 12), (0.0, 0), (0.0, 0)],
        );
        let bytes = original.to_bytes();
        let truncated = &bytes[..bytes.len() - cut.min(bytes.len())];
        prop_assert_eq!(CellStats::from_bytes(truncated), None);
        let mut extended = bytes.clone();
        extended.extend(extra.iter().map(|&b| b as u8));
        prop_assert_eq!(CellStats::from_bytes(&extended), None);
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        junk in prop::collection::vec(0u64..256, 0..200),
    ) {
        let bytes: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
        // Random input essentially never carries a valid checksum; the
        // contract under test is "None or valid, never a panic".
        let _ = CellStats::from_bytes(&bytes);
    }
}

#[test]
fn older_versions_miss() {
    // A version-1 entry (no trailing checksum) and a version-2 entry
    // (percentages and means, re-checksummed so only the layout is at
    // fault) must read as cache misses so stale artifacts are recomputed,
    // not misparsed.
    let current = stats(10, &[1, 0, 9, 1, 0, 0, 0, 0], &[(0.0, 0); 3]).to_bytes();
    let mut v1 = b"ADASCELL\x01".to_vec();
    v1.extend_from_slice(&current[9..current.len() - 8]);
    assert_eq!(CellStats::from_bytes(&v1), None);

    let mut v2 = b"ADASCELL\x02".to_vec();
    v2.extend_from_slice(&10u64.to_le_bytes());
    for pct in [10.0f64, 0.0, 90.0, 10.0] {
        v2.extend_from_slice(&pct.to_le_bytes());
    }
    v2.extend_from_slice(&[0; 3 * 9]); // three absent means (flag + f64)
    for rate in [0.0f64; 4] {
        v2.extend_from_slice(&rate.to_le_bytes());
    }
    let checksum = adas_core::Fingerprint::new().write_bytes(&v2).value();
    v2.extend_from_slice(&checksum.to_le_bytes());
    assert_eq!(CellStats::from_bytes(&v2), None);
}
