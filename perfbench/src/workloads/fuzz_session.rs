//! `fuzz-session`: a fixed list of session seeds fuzzed back to back
//! through `adas_fuzz::fuzz` with a run budget and no wall budget (so the
//! sessions are deterministic). Every finding is saved as a repro and
//! every saved repro is replayed: its oracle must fire, its signature
//! must match and its trace must be bit-identical.
//!
//! The list is fixed because a session's seed sets its scenario jitter and
//! so how long its runs last: across workload seeds, lists of a dozen
//! seeds differed by 15 % in runs per second. The workload seed sets the
//! order the sessions run in.

use super::{mean_us, mix, ratio, report_layers, report_overhead, timed, units_for, Ctx, Window};
use crate::report::Outcome;
use crate::trace::{SpanId, Tracer};
use adas_fuzz::case::FuzzCase;
use adas_fuzz::engine::evaluate;
use adas_fuzz::shrink::shrink;
use adas_fuzz::{fuzz, run_case, Finding, FuzzConfig, FuzzReport, Repro};
use adas_recorder::{diff_traces, Trace};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sessions the traced run repeats: the first of the untraced window's.
const TRACED_SESSIONS: u64 = 5;

/// Seconds one session takes on the reference machine.
const SESSION_S: f64 = 0.5;

/// Highest latency tail level reported. The latency sample is one session
/// (20 in a 10 s window, so the tail is the median there); a repro
/// replay, ~3 ms of serial work, read 1.8 ms in some runs and 2.8 ms in
/// others of the same set on the reference VM, while sessions moved with
/// throughput.
const MAX_TAIL: f64 = 0.75;

/// Run budget per session (primary runs plus oracle reruns): past the
/// 96-case seed corpus, so every session also mutates.
const SESSION_RUNS: u64 = 240;

/// Seed the session list derives from (the fuzzer's default seed); the
/// set-up's warm-up session runs at it too.
const LIST_SEED: u64 = 2025;

/// Candidates per parallel batch (the engine default).
const BATCH: usize = 24;

fn config(seed: u64) -> FuzzConfig {
    FuzzConfig {
        seed,
        max_runs: SESSION_RUNS,
        batch: BATCH,
        max_secs: None,
        shrink_steps: FuzzConfig::default().shrink_steps,
    }
}

/// The seed of session `i` of the list.
fn session_seed(i: u64) -> u64 {
    mix(LIST_SEED, i) & 0xFFFF_FFFF
}

fn traced_sessions(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        2
    } else {
        TRACED_SESSIONS
    }
}

/// Candidates the engine evaluated: batch sizes are
/// `min(batch, max_runs - runs_so_far)`, and `coverage_growth` records the
/// runs after each batch.
fn candidates(report: &FuzzReport) -> u64 {
    let mut before = 0u64;
    let mut total = 0u64;
    for &(runs, _) in &report.coverage_growth {
        total += (report.config.batch as u64).min(report.config.max_runs - before);
        before = runs;
    }
    total
}

/// What one session produced.
#[derive(Debug, Default, Clone)]
struct Session {
    secs: f64,
    runs: u64,
    candidates: u64,
    corpus: u64,
    findings: Vec<Finding>,
}

fn save_findings(
    tracer: &Tracer,
    parent: Option<SpanId>,
    dir: &Path,
    seed: u64,
    findings: &[Finding],
    runs: &mut u64,
) -> Result<Vec<PathBuf>, String> {
    findings
        .iter()
        .map(|f| {
            let (_, trace) = tracer.span("fuzz", "run_case", parent, |_| run_case(&f.shrunk, seed));
            *runs += 1;
            let mut repro = Repro {
                case: f.shrunk,
                seed,
                oracle: f.oracle,
                detail: f.violation.detail.clone(),
                signature: f.signature.0,
                trace_file: None,
            };
            tracer.span("fuzz", "Repro::save", parent, |_| repro.save(dir, &trace))
        })
        .collect()
}

/// Replays one saved repro with the checks of `Repro::verify`, through
/// the public pieces so each layer call gets its own span.
fn replay(
    tracer: &Tracer,
    parent: Option<SpanId>,
    path: &Path,
    runs: &mut u64,
) -> Result<(), String> {
    let repro = tracer.span("fuzz", "Repro::load", parent, |_| Repro::load(path))?;
    let eval = tracer.span("fuzz", "evaluate", parent, |_| {
        evaluate(&repro.case, repro.seed)
    });
    *runs += eval.runs_used;
    if !eval.violations.iter().any(|v| v.oracle == repro.oracle) {
        return Err(format!(
            "{}: oracle {} no longer fires",
            path.display(),
            repro.oracle.name()
        ));
    }
    if eval.signature.0 != repro.signature {
        return Err(format!("{}: signature drifted", path.display()));
    }
    let rel = repro
        .trace_file
        .as_deref()
        .ok_or("repro saved without a trace")?;
    let bytes = std::fs::read(path.parent().unwrap_or(Path::new(".")).join(rel))
        .map_err(|e| format!("{rel}: {e}"))?;
    let stored = tracer
        .span("recorder", "Trace::from_bytes", parent, |_| {
            Trace::from_bytes(&bytes)
        })
        .map_err(|e| format!("{rel}: {e:?}"))?;
    let (_, fresh) = tracer.span("fuzz", "run_case", parent, |_| {
        run_case(&repro.case, repro.seed)
    });
    *runs += 1;
    let diff = tracer.span("recorder", "diff_traces", parent, |_| {
        diff_traces(&stored, &fresh)
    });
    if diff.is_identical() {
        Ok(())
    } else {
        Err(format!("{}: trace diverged from recording", path.display()))
    }
}

/// Session `i` of the list: fuzz, save every finding as a repro,
/// replay every saved repro.
fn session(ctx: &Ctx, i: u64, tracer: &Tracer, out: &mut Outcome) -> Result<Session, String> {
    let seed = session_seed(i);
    let dir = ctx.work.join(format!("repros-{i}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t = Instant::now();
    let mut s = tracer.span("fuzz", "session", None, |sid| -> Result<Session, String> {
        let report = tracer.span("fuzz", "fuzz", sid, |_| fuzz(&config(seed)));
        let mut runs = report.runs;
        let saved = save_findings(tracer, sid, &dir, seed, &report.findings, &mut runs)?;
        for path in &saved {
            let replayed = replay(tracer, sid, path, &mut runs);
            out.check(replayed.is_ok(), || format!("{replayed:?}"));
        }
        Ok(Session {
            secs: 0.0,
            runs,
            candidates: candidates(&report),
            corpus: report.corpus.len() as u64,
            findings: report.findings,
        })
    })?;
    s.secs = t.elapsed().as_secs_f64();
    out.attempted += 1;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(s)
}

/// The window's sessions: the first `n` of the list (at least the traced
/// ones), in the order the workload seed rotates them to. Returned in
/// list order.
fn measure(ctx: &Ctx, out: &mut Outcome) -> Result<(Window, Vec<Session>, f64), String> {
    let quiet = Tracer::disabled();
    let mut window = Window::default();
    let n = (units_for(ctx.seconds, SESSION_S) as u64).max(traced_sessions(ctx));
    let mut sessions = vec![Session::default(); n as usize];
    let start = mix(ctx.seed, 0) % n;
    let cpu0 = crate::sys::cpu_time_s().unwrap_or(0.0);
    let t0 = Instant::now();
    for i in (start..n).chain(0..start) {
        let s = session(ctx, i, &quiet, out)?;
        window.runs += s.runs as f64;
        window.runs_wall += s.secs;
        window.cells += s.candidates as f64;
        window.cells_wall += s.secs;
        window.latencies_ms.push(s.secs * 1e3);
        window.run_rates.push(ratio(s.runs as f64, s.secs));
        window.cell_rates.push(ratio(s.candidates as f64, s.secs));
        sessions[i as usize] = s;
    }
    let cpu = crate::sys::cpu_time_s().unwrap_or(0.0) - cpu0;
    let utilization = ratio(cpu, t0.elapsed().as_secs_f64() * ctx.threads as f64);
    Ok((window, sessions, utilization))
}

/// `fuzz.shrink_s` probe: shrinks every finding of a round again through
/// the public `shrink`, toward the cell's paper-default baseline.
fn shrink_probe(findings: &[(u64, Finding)], tracer: &Tracer) -> f64 {
    let steps = FuzzConfig::default().shrink_steps;
    let (_, secs) = timed(|| {
        for (seed, f) in findings {
            let mut benign = FuzzCase::baseline(
                f.found.scenario,
                f.found.position,
                f.found.iv_row,
                f.found.fault,
            );
            benign.repetition = f.found.repetition;
            tracer.span("fuzz", "shrink", None, |_| {
                shrink(&f.found, f.oracle, &benign, *seed, steps)
            });
        }
    });
    secs
}

/// `recorder.encode_us` / `recorder.trace_bytes` probe: encodes the trace
/// of every finding's shrunk case.
fn encode_probe(findings: &[(u64, Finding)], tracer: &Tracer) -> f64 {
    let mut bytes = Vec::new();
    for (seed, f) in findings {
        let (_, trace) = run_case(&f.shrunk, *seed);
        let encoded = tracer.span("recorder", "Trace::to_bytes", None, |_| trace.to_bytes());
        bytes.push(encoded.len() as f64);
    }
    crate::stats::mean(&bytes)
}

/// Runs the workload.
///
/// # Errors
///
/// Repro files that cannot be written.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: one short warm-up session, which initialises the
    // process-wide scenario catalogue and worker pool the way a fuzzing
    // user's first session does.
    let mut setup_s = Vec::new();
    for _ in 0..ctx.setups(super::SETUPS) {
        let warm = FuzzConfig {
            max_runs: 4 * BATCH as u64,
            ..config(LIST_SEED)
        };
        let (_, secs) = timed(|| std::hint::black_box(fuzz(&warm)));
        setup_s.push(secs);
    }

    let (window, sessions, utilization) = measure(ctx, &mut out)?;
    window.report(
        &mut out,
        &setup_s,
        "one session (fuzz, save every finding, replay every repro)",
        MAX_TAIL,
    );
    out.set("parallel.cpu_utilization", utilization);
    out.context_num("sessions", sessions.len() as f64);
    out.context_num("session_max_runs", SESSION_RUNS as f64);

    if ctx.trace {
        let tracer = Tracer::enabled();
        let n = traced_sessions(ctx);
        let (traced_sessions, secs) = timed(|| {
            (0..n)
                .map(|i| session(ctx, i, &tracer, &mut out))
                .collect::<Result<Vec<_>, String>>()
        });
        let traced_sessions = traced_sessions?;
        let twin = &sessions[..n as usize];
        let sum = |list: &[Session], f: fn(&Session) -> u64| list.iter().map(f).sum::<u64>() as f64;
        let runs = sum(&traced_sessions, |s| s.runs);
        out.check(runs == sum(twin, |s| s.runs), || {
            "traced sessions did different work".to_owned()
        });
        report_overhead(
            &mut out,
            &Window {
                runs: sum(twin, |s| s.runs),
                runs_wall: twin.iter().map(|s| s.secs).sum(),
                ..Window::default()
            },
            &Window {
                runs,
                runs_wall: secs,
                ..Window::default()
            },
        );
        out.set("fuzz.runs", runs);
        out.set("fuzz.corpus_size", sum(&traced_sessions, |s| s.corpus));
        out.set(
            "fuzz.findings",
            sum(&traced_sessions, |s| s.findings.len() as u64),
        );
        out.set(
            "fuzz.coverage_yield",
            ratio(
                sum(&traced_sessions, |s| s.corpus),
                sum(&traced_sessions, |s| s.candidates),
            ),
        );
        let spans = tracer.spans();
        out.set("fuzz.run_case_us", mean_us(&spans, "fuzz", "run_case"));
        out.set(
            "fuzz.evaluate_us_per_case",
            mean_us(&spans, "fuzz", "evaluate"),
        );
        out.set(
            "recorder.decode_us",
            mean_us(&spans, "recorder", "Trace::from_bytes"),
        );
        out.set(
            "recorder.diff_us",
            mean_us(&spans, "recorder", "diff_traces"),
        );
        // Probes run after the traced sessions so they do not count as
        // their overhead.
        let findings: Vec<(u64, Finding)> = traced_sessions
            .iter()
            .zip(0..)
            .flat_map(|(s, i)| s.findings.iter().map(move |f| (session_seed(i), f.clone())))
            .collect();
        out.set("fuzz.shrink_s", shrink_probe(&findings, &tracer));
        out.set("recorder.trace_bytes", encode_probe(&findings, &tracer));
        let spans = tracer.spans();
        out.set(
            "recorder.encode_us",
            mean_us(&spans, "recorder", "Trace::to_bytes"),
        );
        report_layers(&mut out, &spans);
    }
    Ok(out)
}
