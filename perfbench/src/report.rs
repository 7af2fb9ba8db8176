//! Metric catalogue and the result line.
//!
//! Every workload emits every metric of the active catalogue: the
//! end-to-end list with `--trace 0`, the per-layer list with `--trace 1`.
//! A per-layer metric of a layer the workload does not call is reported
//! as 0 (no work happened there); end-to-end metrics are never 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Defined per workload in
/// `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("runs_per_s", "runs/s"),
    ("cells_per_s", "cells/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Layers the benchmark records spans for (calls from the benchmark's own
/// code into each crate's public functions). `fabric` has none: clients
/// reach it only through `serve`'s client calls, so it is measured by the
/// `fabric.overhead_us` probe instead.
pub const SPANNED_LAYERS: [&str; 9] = [
    "simulator",
    "scenarios",
    "attack",
    "ml",
    "core",
    "fuzz",
    "recorder",
    "serve",
    "store",
];

/// Per-layer metrics named individually: `(name, unit)`. The span-derived
/// `<layer>.self_ms` / `<layer>.calls` pairs for [`SPANNED_LAYERS`] follow
/// them in [`per_layer`].
pub const PER_LAYER_NAMED: [(&str, &str); 46] = [
    ("ml.collect_s", "s"),
    ("ml.train_s", "s"),
    ("ml.step_batch_ns_per_lane", "ns"),
    ("core.ml_cell_us_per_lane_step", "us"),
    ("core.plain_cell_us_per_lane_step", "us"),
    ("core.build_us_per_run", "us"),
    ("core.batch_occupancy", "ratio"),
    ("core.lane_steps", "count"),
    ("parallel.cpu_utilization", "ratio"),
    ("fuzz.runs", "count"),
    ("fuzz.corpus_size", "count"),
    ("fuzz.findings", "count"),
    ("fuzz.coverage_yield", "ratio"),
    ("fuzz.run_case_us", "us"),
    ("fuzz.evaluate_us_per_case", "us"),
    ("fuzz.shrink_s", "s"),
    ("recorder.trace_bytes", "bytes"),
    ("recorder.encode_us", "us"),
    ("recorder.decode_us", "us"),
    ("recorder.diff_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.first_cell_us", "us"),
    ("serve.stream_us", "us"),
    ("serve.memo_hits", "count"),
    ("serve.disk_hits", "count"),
    ("serve.computed", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.retries", "count"),
    ("fabric.overhead_us", "us"),
    ("fabric.redispatched_cells", "count"),
    ("core.cell_key_us", "us"),
    ("core.spec_encode_us", "us"),
    ("core.spec_decode_us", "us"),
    ("core.cellstats_decode_us", "us"),
    ("core.cache_load_us", "us"),
    ("core.cache_store_us", "us"),
    ("store.append_us_per_krow", "us"),
    ("store.bytes_per_row", "bytes"),
    ("store.ingest_rows_per_s", "rows/s"),
    ("store.scan_rows_per_s", "rows/s"),
    ("store.scan_s", "s"),
    ("store.fold_s", "s"),
    ("store.verify_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_work_per_s", "1/s"),
    ("bench.untraced_work_per_s", "1/s"),
];

/// The full per-layer catalogue: [`PER_LAYER_NAMED`] then
/// `<layer>.self_ms` (ms) and `<layer>.calls` (count) per spanned layer.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_NAMED
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for layer in SPANNED_LAYERS {
        out.push((format!("{layer}.self_ms"), "ms"));
        out.push((format!("{layer}.calls"), "count"));
    }
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, sessions, replays, campaigns, appends,
    /// queries, checks — each workload defines its own).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Run context: `(key, JSON value)`.
    pub context: Vec<(String, String)>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Adds a context entry whose value is already JSON.
    pub fn context_json(&mut self, key: &str, json: String) {
        self.context.push((key.to_owned(), json));
    }

    /// Adds a numeric context entry.
    pub fn context_num(&mut self, key: &str, value: f64) {
        self.context_json(key, json_number(value));
    }

    /// Adds a string context entry.
    pub fn context_str(&mut self, key: &str, value: &str) {
        self.context_json(key, format!("\"{}\"", escape(value)));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {}", what());
        }
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives (`null` for non-finite values).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// Minimal JSON string escaping.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The context line and the result line. The result carries exactly the
/// catalogue of the run's mode; `correct` is false if any check failed or
/// any end-to-end metric is missing, non-finite or not positive.
#[must_use]
pub fn render(outcome: &Outcome, traced: bool) -> (String, String) {
    let catalogue: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut fields = Vec::new();
    for (name, unit) in &catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                if !traced {
                    eprintln!("[perfbench] end-to-end metric {name} missing or invalid: {other:?}");
                    correct = false;
                }
                0.0
            }
        };
        if !traced && value <= 0.0 {
            eprintln!("[perfbench] end-to-end metric {name} is not positive: {value}");
            correct = false;
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(name),
            json_number(value),
            escape(unit)
        ));
    }
    let context = format!(
        "{{\"context\": {{{}}}}}",
        outcome
            .context
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    (context, result)
}
