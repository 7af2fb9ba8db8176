//! Deterministic synthetic-row generation for scale tests.
//!
//! The acceptance bar for the store is "aggregate ≥ 1 M records in
//! bounded memory"; this module manufactures that load without running a
//! million simulations. Everything derives from the simulator's
//! [`SplitMix64`] stream over the caller's seed, so the same `(seed,
//! count)` always yields the same rows — scale tests and the `adas-store
//! synth` CLI verb are reproducible byte for byte.

use crate::record::{CellRow, FindingRow};
use adas_simulator::rng::SplitMix64;

/// Uniform value in `0..bound` (`bound` > 0).
fn below(rng: &mut SplitMix64, bound: u64) -> u64 {
    rng.next_u64() % bound.max(1)
}

/// Uniform float in `[0, 1)`.
fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates `count` synthetic cell rows from `seed`. Coordinates cover
/// the realistic grid; counts are internally consistent (`a1 + a2 +
/// prevented == runs`, trigger counts ≤ runs) so aggregates over the
/// synthetic load look like real campaign output.
#[must_use]
pub fn cells(seed: u64, count: u64) -> Vec<CellRow> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
    for _ in 0..count {
        out.push(cell(&mut rng));
    }
    out
}

fn cell(rng: &mut SplitMix64) -> CellRow {
    let runs = 50 + below(rng, 150) as u32;
    let a1 = below(rng, u64::from(runs) / 3) as u32;
    let a2 = below(rng, u64::from(runs - a1) / 4) as u32;
    let aeb_n = below(rng, u64::from(runs)) as u32;
    let driver_brake_n = below(rng, u64::from(runs)) as u32;
    let driver_steer_n = below(rng, u64::from(runs) / 2) as u32;
    CellRow {
        scenario: below(rng, 6) as u8,
        position: below(rng, 2) as u8,
        fault: below(rng, 4) as u8,
        iv_row: below(rng, 8) as u8,
        mitigation: below(rng, 3) as u8,
        sched: below(rng, 2) as u8,
        seed: rng.next_u64(),
        runs,
        a1,
        a2,
        prevented: runs - a1 - a2,
        hazard: below(rng, u64::from(runs) + 1) as u32,
        aeb_n,
        driver_brake_n,
        driver_steer_n,
        ml_n: below(rng, u64::from(runs) / 4 + 1) as u32,
        aeb_time_sum: unit_f64(rng) * 3.0 * f64::from(aeb_n),
        aeb_time_n: aeb_n,
        driver_brake_time_sum: unit_f64(rng) * 4.0 * f64::from(driver_brake_n),
        driver_brake_time_n: driver_brake_n,
        driver_steer_time_sum: unit_f64(rng) * 2.0 * f64::from(driver_steer_n),
        driver_steer_time_n: driver_steer_n,
    }
}

/// Generates `count` synthetic finding rows from `seed`.
#[must_use]
pub fn findings(seed: u64, count: u64) -> Vec<FindingRow> {
    let mut rng = SplitMix64::new(seed ^ 0xF1D1_1265);
    let mut out = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
    for _ in 0..count {
        let mut params = [0.0f64; 8];
        for p in &mut params {
            *p = unit_f64(&mut rng) * 40.0 - 20.0;
        }
        out.push(FindingRow {
            oracle: below(&mut rng, 6) as u8,
            scenario: below(&mut rng, 6) as u8,
            position: below(&mut rng, 2) as u8,
            fault: below(&mut rng, 4) as u8,
            iv_row: below(&mut rng, 8) as u8,
            sched: below(&mut rng, 5) as u8,
            session_seed: rng.next_u64(),
            signature: rng.next_u64(),
            fingerprint: rng.next_u64(),
            repetition: below(&mut rng, 3) as u32,
            params,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a digest of `encode_findings(&findings(2025, 1000))`, taken
    /// while this module kept its own splitmix64 copy. Cell rows are pinned
    /// by the segment digest in `tests/store_properties.rs`.
    #[test]
    fn findings_are_pinned() {
        let bytes = crate::record::encode_findings(&findings(2025, 1000));
        let digest = adas_codec::Fingerprint::new().write_bytes(&bytes).value();
        assert_eq!(digest, 0xac6f_ad50_c9fb_49e9, "{digest:#018x}");
    }

    #[test]
    fn same_seed_same_rows() {
        assert_eq!(cells(7, 100), cells(7, 100));
        assert_eq!(findings(7, 50), findings(7, 50));
        assert_ne!(cells(7, 10), cells(8, 10));
    }

    #[test]
    fn counts_are_internally_consistent() {
        for row in cells(2025, 500) {
            assert_eq!(row.a1 + row.a2 + row.prevented, row.runs);
            assert!(row.hazard <= row.runs);
            assert!(row.aeb_n <= row.runs);
        }
    }
}
