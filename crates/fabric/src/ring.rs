//! Consistent-hash ring for cell → worker routing.
//!
//! Each worker contributes `vnodes` virtual points to a 64-bit ring; a
//! cell's routing key (`CampaignSpec::route_key`, the model-independent
//! cache fingerprint) is routed to the first point at or after it,
//! wrapping at the top. Two properties matter here:
//!
//! 1. **Cache affinity** — the mapping is a pure function of the worker
//!    *identities* and the key, so across campaigns (and across
//!    coordinator restarts) a warm cell keeps landing on the node whose
//!    memo/disk tiers already hold it.
//! 2. **Minimal disruption** — when a worker dies, only the keys it owned
//!    move (to their next point on the ring); everyone else's warm cells
//!    stay put. A plain `key % n` would reshuffle almost everything.

use adas_core::Fingerprint;

/// A worker's stable ring identity, derived from its address.
#[must_use]
pub fn worker_id(addr: &str) -> u64 {
    Fingerprint::new()
        .write_str("fabric-worker")
        .write_str(addr)
        .value()
}

/// 64-bit avalanche finalizer (the murmur3/splitmix constant pair).
///
/// FNV-1a is a fine identity hash but its high bits avalanche poorly on
/// short inputs, and ring placement orders points by the *full* u64 —
/// unmixed, a 4-worker ring can hand one worker half the keyspace.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// An immutable consistent-hash ring over a set of workers.
///
/// Workers are referenced by *slot*: the index into the `workers` slice
/// the ring was built from (callers keep the slice).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, slot)` sorted by position (ties broken by slot so
    /// construction order never matters).
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual points per worker id.
    #[must_use]
    pub fn new(worker_ids: &[u64], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(worker_ids.len() * vnodes);
        for (slot, &id) in worker_ids.iter().enumerate() {
            for replica in 0..vnodes {
                let pos = mix(Fingerprint::new()
                    .write_str("fabric-ring")
                    .write_u64(id)
                    .write_u64(replica as u64)
                    .value());
                points.push((pos, slot));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// True when the ring has no points (no workers).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Routes a key to a worker slot. `None` on an empty ring.
    #[must_use]
    pub fn route(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        // Mix the key too: routing keys are FNV fingerprints with the
        // same weak high bits.
        let key = mix(key);
        // First point at or after the key, wrapping to the start.
        let idx = self.points.partition_point(|&(pos, _)| pos < key);
        let (_, slot) = self.points[idx % self.points.len()];
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| worker_id(&format!("10.0.0.{i}:4747")))
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(&ids(4), 64);
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            let a = ring.route(key).expect("non-empty ring");
            let b = ring.route(key).expect("non-empty ring");
            assert_eq!(a, b);
            assert!(a < 4);
        }
        assert!(HashRing::new(&[], 64).route(7).is_none());
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = HashRing::new(&ids(4), 64);
        let mut counts = [0usize; 4];
        for key in (0..40_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            counts[ring.route(key).expect("route")] += 1;
        }
        for (slot, &c) in counts.iter().enumerate() {
            // 4 workers × 64 vnodes: every worker should see 10k ± 60 %.
            assert!(
                (4_000..=16_000).contains(&c),
                "slot {slot} got {c}/40000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_worker_only_moves_its_own_keys() {
        let all = ids(4);
        let full = HashRing::new(&all, 64);
        // Drop slot 3; surviving slots keep their positions 0..3.
        let survivors = &all[..3];
        let reduced = HashRing::new(survivors, 64);
        let mut moved = 0usize;
        let mut owned_by_dead = 0usize;
        let total = 20_000u64;
        for key in (0..total).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            let before = full.route(key).expect("route");
            let after = reduced.route(key).expect("route");
            if before == 3 {
                owned_by_dead += 1;
            } else if before != after {
                moved += 1;
            }
        }
        assert!(owned_by_dead > 0, "slot 3 owned nothing?");
        assert_eq!(
            moved, 0,
            "keys owned by surviving workers must not move when another worker leaves"
        );
    }
}
