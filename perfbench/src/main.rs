//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints a context line
//! and, as the last line of standard output, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` the per-layer ones (and writes the
//! spans to `.bench_work/spans/`). `--smoke` shrinks every input for the
//! test suite. Exit status 2 means the run could not be set up, and no
//! result is printed.

use perfbench::report::{render, Outcome};
use perfbench::sys;
use perfbench::workloads::{self, Ctx};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads the program is allowed: load comes from one process
/// with at most this many threads.
const MAX_THREADS: usize = 2;

/// Scratch root inside the checkout.
const WORK_ROOT: &str = ".bench_work";

/// `ADAS_*` variables that would change what a workload runs; cleared so
/// every run uses the defaults.
const PINNED_ENV: [&str; 12] = [
    "ADAS_BATCH",
    "ADAS_CACHE",
    "ADAS_CACHE_DIR",
    "ADAS_STORE_DIR",
    "ADAS_SCENARIO",
    "ADAS_ATTACK",
    "ADAS_MITIGATION",
    "ADAS_VIEWS",
    "ADAS_TRACE",
    "ADAS_TRACE_DIR",
    "ADAS_SERVE_ADDR",
    "ADAS_FABRIC_WORKERS",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload `{}` (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    }
    let root = Path::new(".");
    if !root.join("crates").is_dir() || !root.join("BENCHMARK.json").is_file() {
        eprintln!("perfbench: run from the repository root (crates/ and BENCHMARK.json not found)");
        return ExitCode::from(2);
    }
    let threads = MAX_THREADS.min(sys::nproc());
    // Single-threaded here: nothing else reads the environment yet.
    std::env::set_var("ADAS_THREADS", threads.to_string());
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }

    let work =
        PathBuf::from(WORK_ROOT).join(format!("run-{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        work: work.clone(),
        persist: PathBuf::from(WORK_ROOT).join(if args.smoke {
            "persist-smoke"
        } else {
            "persist"
        }),
        threads,
    };
    if let Err(e) = std::fs::create_dir_all(&work).and(std::fs::create_dir_all(&ctx.persist)) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ticks = sys::cpu_ticks();
    let result = workloads::run(&args.workload, &ctx);
    let steal_pct = ticks
        .zip(sys::cpu_ticks())
        .map(|((s0, t0), (s1, t1))| 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    add_context(&mut outcome, &args, threads, root);
    if let Some(pct) = steal_pct {
        // Share of the run's CPU time the host took: a noisy-neighbour
        // reading for the run, not a metric of the program.
        outcome.context_num("host_steal_pct", pct);
    }
    if args.trace {
        let dir = PathBuf::from(WORK_ROOT).join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, perfbench::trace::to_json_lines(&outcome.spans)));
        match written {
            Ok(()) => outcome.context_str("spans_file", &path.display().to_string()),
            Err(e) => eprintln!("perfbench: {}: {e}", path.display()),
        }
    }
    if !args.trace {
        outcome.set("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0));
        outcome.set(
            "ok_ratio",
            (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64,
        );
    }
    let (context, line) = render(&outcome, args.trace);
    println!("{context}");
    println!("{line}");
    ExitCode::SUCCESS
}

fn add_context(out: &mut Outcome, args: &Args, threads: usize, root: &Path) {
    out.context_str("workload", &args.workload);
    out.context_num("seed", args.seed as f64);
    out.context_num("run_seconds", args.seconds);
    out.context_json("traced", args.trace.to_string());
    out.context_json("smoke", args.smoke.to_string());
    match sys::git_commit(root) {
        Some(c) => out.context_str("commit", &c),
        None => out.context_json("commit", "null".to_owned()),
    }
    out.context_num("nproc", sys::nproc() as f64);
    out.context_num("threads", threads as f64);
    out.context_num("batch_width", adas_core::parallel::batch_width() as f64);
    if let Some(l3) = sys::l3_bytes() {
        out.context_num("l3_bytes", l3 as f64);
    }
    out.context_num("attempted", out.attempted as f64);
    out.context_num("failed", out.failed as f64);
}
