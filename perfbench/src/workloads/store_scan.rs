//! `store-scan`: synthetic cell rows (`adas_store::synth::cells` on the
//! workload seed) appended through `Store::append_cells` until the store
//! on disk is at least four times the L3 cache, then a fixed set of
//! group-by queries (`aggregate`) over all of it.

use super::{
    mean_us, mix, ratio, report_layers, report_overhead, timed, total_s, units_for, Ctx, Window,
};
use crate::report::Outcome;
use crate::trace::Tracer;
use adas_store::agg::aggregate;
use adas_store::{Accumulator, CellRow, GroupBy, GroupKey, Store};
use std::collections::BTreeMap;

/// Rows per appended segment.
const CHUNK_ROWS: u64 = 65_536;

/// The store is at least this many times the L3 cache.
const L3_MULTIPLE: u64 = 4;

/// L3 size assumed when sysfs does not report one.
const DEFAULT_L3_BYTES: u64 = 105 << 20;

/// Seconds one round (append everything, run every query) takes on the
/// reference machine.
const ROUND_S: f64 = 7.0;

/// Highest latency tail level reported (~80 appends per round).
const MAX_TAIL: f64 = 0.75;

/// The fixed query set: Table VI's (fault, row), the scenario grid, and
/// the mitigation / scheduler split.
const QUERIES: [&str; 3] = ["fault,iv", "scenario,position", "mitigation,sched"];

type Groups = BTreeMap<GroupKey, Accumulator>;

struct Plan {
    chunks: Vec<(u64, u64)>,
    rows: u64,
    l3: u64,
    queries: Vec<GroupBy>,
}

impl Plan {
    fn new(ctx: &Ctx) -> Self {
        let l3 = crate::sys::l3_bytes().unwrap_or(DEFAULT_L3_BYTES);
        let rows = if ctx.smoke {
            20_000
        } else {
            // Payload bytes only; block headers add a little on top.
            (L3_MULTIPLE * l3).div_ceil(CellRow::WIDTH as u64)
        };
        let chunk = if ctx.smoke { 4096 } else { CHUNK_ROWS };
        let chunks = (0..rows.div_ceil(chunk))
            .map(|i| (mix(ctx.seed, i), chunk.min(rows - i * chunk)))
            .collect();
        Self {
            chunks,
            rows,
            l3,
            queries: QUERIES
                .iter()
                .map(|q| GroupBy::parse(q).expect("built-in query parses"))
                .collect(),
        }
    }

    fn chunk(&self, i: usize) -> Vec<CellRow> {
        let (seed, n) = self.chunks[i];
        adas_store::synth::cells(seed, n)
    }
}

/// Set-up: generate every row and fold it in memory into each query's
/// expected answer (the reference the streamed aggregates must equal).
fn expected(plan: &Plan) -> (Vec<Groups>, f64) {
    let mut groups = vec![Groups::new(); plan.queries.len()];
    let mut runs = 0.0;
    for i in 0..plan.chunks.len() {
        for row in plan.chunk(i) {
            runs += f64::from(row.runs);
            for (g, by) in groups.iter_mut().zip(&plan.queries) {
                g.entry(by.key(&row)).or_default().fold(&row);
            }
        }
    }
    (groups, runs)
}

/// One round into a fresh store: append every chunk, then run every
/// query and check it against the expected answer.
fn round(
    ctx: &Ctx,
    plan: &Plan,
    expect: &[Groups],
    runs_per_query: f64,
    tracer: &Tracer,
    out: &mut Outcome,
    window: &mut Window,
) -> Result<Store, String> {
    let dir = ctx.work.join("store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|e| e.to_string())?;
    for i in 0..plan.chunks.len() {
        let rows = plan.chunk(i);
        let (appended, secs) = timed(|| {
            tracer.span("store", "Store::append_cells", None, |_| {
                store.append_cells(&rows)
            })
        });
        out.check(appended.is_ok(), || {
            format!("append chunk {i}: {appended:?}")
        });
        window.cells += rows.len() as f64;
        window.cells_wall += secs;
        window.latencies_ms.push(secs * 1e3);
        window.cell_rates.push(ratio(rows.len() as f64, secs));
    }
    for (by, want) in plan.queries.iter().zip(expect) {
        let (got, secs) =
            timed(|| tracer.span("store", "aggregate", None, |_| aggregate(&store, by)));
        let ok = matches!(&got, Ok((groups, reports))
            if groups == want && reports.iter().all(adas_store::SegmentReport::clean));
        out.check(ok, || {
            format!("query {:?} differs from the in-memory fold", by)
        });
        window.runs += runs_per_query;
        window.runs_wall += secs;
        window.run_rates.push(ratio(runs_per_query, secs));
    }
    Ok(store)
}

/// Runs the workload.
///
/// # Errors
///
/// Store directory failures.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let plan = Plan::new(ctx);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut reference = None;
    for _ in 0..ctx.setups(super::SETUPS) {
        let (r, secs) = timed(|| expected(&plan));
        setup_s.push(secs);
        reference = Some(r);
    }
    let (expect, runs_per_query) = reference.expect("at least one set-up");

    let quiet = Tracer::disabled();
    let mut window = Window::default();
    let mut store = None;
    for _ in 0..units_for(ctx.seconds, ROUND_S) {
        store = Some(round(
            ctx,
            &plan,
            &expect,
            runs_per_query,
            &quiet,
            &mut out,
            &mut window,
        )?);
    }
    let store = store.expect("at least one round");
    let store_bytes = crate::sys::dir_bytes(store.dir());
    window.report(
        &mut out,
        &setup_s,
        "one append_cells call (one segment)",
        MAX_TAIL,
    );
    out.context_num("store_rows", plan.rows as f64);
    out.context_num("store_bytes", store_bytes as f64);
    out.context_num("store_to_l3", ratio(store_bytes as f64, plan.l3 as f64));
    out.context_num("segments", plan.chunks.len() as f64);
    out.context_json(
        "queries",
        format!("[{}]", QUERIES.map(|q| format!("\"{q}\"")).join(", ")),
    );

    if ctx.trace {
        let tracer = Tracer::enabled();
        let mut traced = Window::default();
        round(
            ctx,
            &plan,
            &expect,
            runs_per_query,
            &tracer,
            &mut out,
            &mut traced,
        )?;
        let untraced = Window {
            runs: window.runs + window.cells,
            runs_wall: window.runs_wall + window.cells_wall,
            ..Window::default()
        };
        let traced_rate = Window {
            runs: traced.runs + traced.cells,
            runs_wall: traced.runs_wall + traced.cells_wall,
            ..Window::default()
        };
        report_overhead(&mut out, &untraced, &traced_rate);
        // Probes after the traced round: a scan with an empty fold, and a
        // full verify.
        let scanned = tracer.span("store", "Store::scan_cells", None, |_| {
            let mut n = 0u64;
            count_rows(&store, &mut n).map(|()| n)
        });
        out.check(scanned.as_ref().is_ok_and(|&n| n == plan.rows), || {
            format!("empty-fold scan saw {scanned:?} rows")
        });
        let verified = tracer.span("store", "Store::verify", None, |_| store.verify());
        out.check(
            verified
                .as_ref()
                .is_ok_and(|r| r.clean() && r.records() == plan.rows),
            || format!("verify: {verified:?}"),
        );
        let spans = tracer.spans();
        let scan_s = total_s(&spans, "store", "Store::scan_cells");
        let query_s = mean_us(&spans, "store", "aggregate") / 1e6;
        out.set("store.scan_s", scan_s);
        out.set("store.fold_s", query_s - scan_s);
        out.set("store.verify_s", total_s(&spans, "store", "Store::verify"));
        out.set(
            "store.append_us_per_krow",
            total_s(&spans, "store", "Store::append_cells") * 1e6 / (plan.rows as f64 / 1e3),
        );
        out.set(
            "store.bytes_per_row",
            ratio(store_bytes as f64, plan.rows as f64),
        );
        out.set(
            "store.ingest_rows_per_s",
            ratio(traced.cells, traced.cells_wall),
        );
        out.set("store.scan_rows_per_s", ratio(plan.rows as f64, scan_s));
        report_layers(&mut out, &spans);
    }
    let _ = std::fs::remove_dir_all(store.dir());
    Ok(out)
}

/// `scan_cells` with a fold that only counts rows.
fn count_rows(store: &Store, n: &mut u64) -> Result<(), String> {
    store
        .scan_cells(|_| *n += 1)
        .map(|_| ())
        .map_err(|e| e.to_string())
}
