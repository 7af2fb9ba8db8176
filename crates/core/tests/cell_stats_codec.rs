//! Property tests of the `CellStats` cache codec: round-trip fidelity,
//! bit-flip rejection, and no-panic behaviour on arbitrary input.
//!
//! The codec guards the artifact cache — a corrupted or truncated entry
//! must decode to `None` (a cache miss, recompute) and never to a
//! `CellStats` with silently wrong numbers.

use adas_core::CellStats;
use proptest::prelude::*;

fn stats(runs: usize, pcts: &[f64; 4], times: &[Option<f64>; 3], rates: &[f64; 4]) -> CellStats {
    CellStats {
        runs,
        a1_pct: pcts[0],
        a2_pct: pcts[1],
        prevented_pct: pcts[2],
        hazard_pct: pcts[3],
        aeb_mitigation_time: times[0],
        driver_brake_mitigation_time: times[1],
        driver_steer_mitigation_time: times[2],
        aeb_trigger_rate: rates[0],
        driver_brake_trigger_rate: rates[1],
        driver_steer_trigger_rate: rates[2],
        ml_trigger_rate: rates[3],
    }
}

proptest! {
    #[test]
    fn round_trip_is_exact(
        runs in 0usize..100_000,
        a1 in 0.0f64..100.0,
        a2 in 0.0f64..100.0,
        hazard in 0.0f64..100.0,
        t_aeb in prop::option::of(0.0f64..60.0),
        t_brake in prop::option::of(0.0f64..60.0),
        t_steer in prop::option::of(0.0f64..60.0),
        r1 in 0.0f64..100.0,
        r2 in 0.0f64..100.0,
        r3 in 0.0f64..100.0,
        r4 in 0.0f64..100.0,
    ) {
        let original = stats(
            runs,
            &[a1, a2, 100.0 - a1 - a2, hazard],
            &[t_aeb, t_brake, t_steer],
            &[r1, r2, r3, r4],
        );
        let bytes = original.to_bytes();
        let decoded = CellStats::from_bytes(&bytes);
        prop_assert_eq!(decoded, Some(original));
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        a1 in 0.0f64..100.0,
        t_aeb in prop::option::of(0.0f64..60.0),
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let original = stats(
            120,
            &[a1, 0.0, 100.0 - a1, a1],
            &[t_aeb, None, Some(3.25)],
            &[50.0, 25.0, 12.5, 0.0],
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
            &[25.0, 25.0, 50.0, 75.0],
            &[Some(1.5), None, None],
            &[100.0, 0.0, 0.0, 8.3],
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
fn v1_entries_without_checksum_miss() {
    // A version-1 entry (old magic, no trailing checksum) must read as a
    // cache miss so stale artifacts are recomputed, not misparsed.
    let current = stats(
        10,
        &[10.0, 0.0, 90.0, 10.0],
        &[None, None, None],
        &[0.0, 0.0, 0.0, 0.0],
    )
    .to_bytes();
    let mut v1 = b"ADASCELL\x01".to_vec();
    v1.extend_from_slice(&current[9..current.len() - 8]);
    assert_eq!(CellStats::from_bytes(&v1), None);
}
