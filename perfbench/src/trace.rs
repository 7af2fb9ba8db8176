//! In-memory spans for the traced run.
//!
//! A span is recorded around one call from the benchmark into a layer's
//! public function: layer, name, start, end and the span that caused it.
//! Spans stay in memory (one mutex-guarded vector; the traced calls are
//! coarse enough that contention is negligible) and are written out once
//! the run ends. A disabled tracer records nothing and only runs the
//! closure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (index into the span list order of
/// allocation, not of completion).
pub type SpanId = usize;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Layer (workspace crate) the call went into.
    pub layer: &'static str,
    /// Called function.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id (for children),
    /// or `None` when tracing is off.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, layer, name, parent, start, Instant::now());
        out
    }

    /// Allocates a span id ahead of [`Self::record`], so children can name
    /// their parent before it ends. `None` when tracing is off.
    #[must_use]
    pub fn reserve(&self) -> Option<SpanId> {
        self.enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a span measured by the caller. A `None` id (tracing off)
    /// records nothing.
    pub fn record(
        &self,
        id: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        let Some(id) = id else {
            return;
        };
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            layer,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Every recorded span, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-(layer, name) totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (children may overlap each other
/// — they run on several threads — so the covered part is the length of
/// the union, clipped to the parent).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (*s, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
#[must_use]
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Totals keyed by `(layer, name)`.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Totals> {
    let mut out: BTreeMap<(&'static str, &'static str), Totals> = BTreeMap::new();
    for (s, self_ns) in self_times(spans) {
        let t = out.entry((s.layer, s.name)).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Totals keyed by layer.
#[must_use]
pub fn totals_by_layer(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for ((layer, _), t) in totals_by_name(spans) {
        let e = out.entry(layer).or_default();
        e.calls += t.calls;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
    out
}

/// Span list as JSON lines (one object per span).
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id,
            s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}
