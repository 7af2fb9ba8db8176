//! Span self-time arithmetic on hand-built span trees.

use perfbench::trace::{covered_ns, self_times, totals_by_layer, Span};

fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        layer,
        name: "call",
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn union_of_overlapping_children_is_counted_once() {
    // [10, 30] and [20, 50] overlap: together they cover [10, 50].
    assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 50)]), 40);
    // Disjoint, unsorted, and one reaching past the parent's end.
    assert_eq!(covered_ns(0, 100, &[(90, 120), (10, 20)]), 20);
    // A child entirely outside the parent covers nothing.
    assert_eq!(covered_ns(0, 100, &[(150, 160)]), 0);
    assert_eq!(covered_ns(0, 100, &[]), 0);
}

#[test]
fn self_time_is_duration_minus_children_cover() {
    // root [0, 100]
    // ├─ a [10, 30]   (worker thread 1)
    // │  └─ a1 [12, 18]
    // ├─ b [20, 50]   (worker thread 2, overlaps a)
    // └─ c [90, 120]  (ends after the root)
    let spans = [
        span(0, None, "core", 0, 100),
        span(1, Some(0), "scenarios", 10, 30),
        span(2, Some(1), "simulator", 12, 18),
        span(3, Some(0), "scenarios", 20, 50),
        span(4, Some(0), "attack", 90, 120),
    ];
    let selfs: Vec<u64> = self_times(&spans).into_iter().map(|(_, s)| s).collect();
    // root: 100 - |[10,50] ∪ [90,100]| = 100 - 50.
    // a: 20 - 6; a1, b and c have no children.
    assert_eq!(selfs, vec![50, 14, 6, 30, 30]);

    let layers = totals_by_layer(&spans);
    assert_eq!(layers["core"].self_ns, 50);
    assert_eq!(layers["scenarios"].self_ns, 14 + 30);
    assert_eq!(layers["scenarios"].calls, 2);
    assert_eq!(layers["scenarios"].total_ns, 20 + 30);
    assert_eq!(layers["simulator"].self_ns, 6);
    assert_eq!(layers["attack"].self_ns, 30);
}

#[test]
fn a_grandchild_does_not_reduce_its_grandparent() {
    let spans = [
        span(0, None, "core", 0, 100),
        span(1, Some(0), "ml", 10, 20),
        span(2, Some(1), "ml", 10, 20),
    ];
    let selfs: Vec<u64> = self_times(&spans).into_iter().map(|(_, s)| s).collect();
    assert_eq!(selfs, vec![90, 0, 10]);
}
