//! The four workloads and what they share.

pub mod fuzz_session;
pub mod serve_mixed;
pub mod store_scan;
pub mod table_vi_cold;

use crate::report::Outcome;
use crate::stats::{median, Latency};
use crate::trace::{totals_by_layer, totals_by_name, Span};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["table-vi-cold", "fuzz-session", "serve-mixed", "store-scan"];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Parameters of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, for the test suite.
    pub smoke: bool,
    /// Scratch directory owned by this run (removed afterwards).
    pub work: PathBuf,
    /// Directory that outlives the run (the prepared model cache).
    pub persist: PathBuf,
    /// Worker threads the program may use.
    pub threads: usize,
}

impl Ctx {
    /// How many times an untraced run repeats its set-up: `full` (at most
    /// [`SETUPS`]); once for traced and smoke runs.
    #[must_use]
    pub fn setups(&self, full: usize) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            full
        }
    }
}

/// Runs the named workload.
///
/// # Errors
///
/// Unknown workload names and set-up failures.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "table-vi-cold" => table_vi_cold::run(ctx),
        "fuzz-session" => fuzz_session::run(ctx),
        "serve-mixed" => serve_mixed::run(ctx),
        "store-scan" => store_scan::run(ctx),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// splitmix64 step: derives independent input streams from the seed.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Units of fixed work a run does for a `--seconds` window, given the
/// seconds one unit takes on the reference machine (2 vCPU, see the
/// README). Fixed per `--seconds`, not cut by the clock, so sample counts
/// — and the latency tail level — do not move when the code gets faster.
#[must_use]
pub fn units_for(seconds: f64, unit_s: f64) -> usize {
    ((seconds / unit_s).round() as usize).max(1)
}

/// Wall time of `f`, seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Throughput and latency accounting for one measurement window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Simulation-run outcomes delivered.
    pub runs: f64,
    /// Seconds the runs were delivered in.
    pub runs_wall: f64,
    /// Campaign cells (or the workload's cell analogue) delivered.
    pub cells: f64,
    /// Seconds the cells were delivered in.
    pub cells_wall: f64,
    /// Per-operation latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Per-operation runs/s, for workloads whose operations are alike
    /// enough that the median per-operation rate is the steadier figure
    /// (a burst of machine noise moves one operation, not the median).
    /// Empty: runs/s is the total over the window.
    pub run_rates: Vec<f64>,
    /// Per-operation cells/s, as [`Self::run_rates`].
    pub cell_rates: Vec<f64>,
}

impl Window {
    /// Writes the end-to-end metrics this window measured, plus the
    /// latency sample count and levels into the context. The tail is the
    /// highest level up to `max_tail` with ten samples beyond it.
    pub fn report(&self, out: &mut Outcome, setup_s: &[f64], op: &str, max_tail: f64) {
        out.set("setup_s", median(setup_s).unwrap_or(0.0));
        out.context_json(
            "setup_samples_s",
            format!(
                "[{}]",
                setup_s
                    .iter()
                    .map(|v| crate::report::json_number(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        let (runs_per_s, cells_per_s) = self.rates();
        out.set("runs_per_s", runs_per_s);
        out.set("cells_per_s", cells_per_s);
        if let Some(lat) = Latency::capped(&self.latencies_ms, max_tail) {
            out.set("latency_p50_ms", lat.p50);
            out.set("latency_tail_ms", lat.tail);
            out.context_str("latency_op", op);
            out.context_num("latency_samples", lat.n as f64);
            out.context_num("latency_tail_level", lat.tail_level);
            out.context_json(
                "latency_median_has_10_beyond",
                lat.median_qualifies().to_string(),
            );
        }
        out.context_num("window_runs", self.runs);
        out.context_num("window_runs_s", self.runs_wall);
        out.context_num("window_cells", self.cells);
        out.context_num("window_cells_s", self.cells_wall);
    }

    /// `(runs/s, cells/s)`: the median per-operation rate where the
    /// workload records one, the total over the window otherwise.
    #[must_use]
    pub fn rates(&self) -> (f64, f64) {
        let pick = |rates: &[f64], num: f64, den: f64| median(rates).unwrap_or(ratio(num, den));
        (
            pick(&self.run_rates, self.runs, self.runs_wall),
            pick(&self.cell_rates, self.cells, self.cells_wall),
        )
    }

    /// Work units per second used for the tracing-overhead comparison.
    #[must_use]
    pub fn work_rate(&self) -> f64 {
        ratio(self.runs, self.runs_wall)
    }
}

/// `num / den`, or 0 when `den` is not positive.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean span duration of `(layer, name)` in µs (0 when absent).
#[must_use]
pub fn mean_us(spans: &[Span], layer: &str, name: &str) -> f64 {
    totals_by_name(spans)
        .into_iter()
        .find(|((l, n), _)| *l == layer && *n == name)
        .map_or(0.0, |(_, t)| ratio(t.total_ns as f64 / 1e3, t.calls as f64))
}

/// Total span duration of `(layer, name)` in seconds (0 when absent).
#[must_use]
pub fn total_s(spans: &[Span], layer: &str, name: &str) -> f64 {
    totals_by_name(spans)
        .into_iter()
        .find(|((l, n), _)| *l == layer && *n == name)
        .map_or(0.0, |(_, t)| t.total_ns as f64 / 1e9)
}

/// Per-layer self time and call counts from the traced run's spans.
pub fn report_layers(out: &mut Outcome, spans: &[Span]) {
    for (layer, t) in totals_by_layer(spans) {
        out.set(&format!("{layer}.self_ms"), t.self_ns as f64 / 1e6);
        out.set(&format!("{layer}.calls"), t.calls as f64);
    }
    out.context_num("spans", spans.len() as f64);
    out.spans = spans.to_vec();
}

/// Tracing overhead: the untraced window's work rate against its traced
/// twin's.
pub fn report_overhead(out: &mut Outcome, untraced: &Window, traced: &Window) {
    let (u, t) = (untraced.work_rate(), traced.work_rate());
    out.set("bench.untraced_work_per_s", u);
    out.set("bench.traced_work_per_s", t);
    out.set("bench.trace_overhead_pct", 100.0 * (ratio(u, t) - 1.0));
}
