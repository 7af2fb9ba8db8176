//! `adas-replay` — flight-recorder toolbox: record campaign traces, verify
//! them by deterministic re-execution, diff two traces, and explain a trace
//! as a human-readable incident timeline.
//!
//! ```text
//! adas-replay record [--fault rd|curvature|mixed|none] [--row LABEL]
//!                    [--reps N] [--dir DIR]
//! adas-replay record --golden [--dir DIR]
//! adas-replay verify [--perturb friction=K] <trace.bin>...
//! adas-replay diff <a.bin> <b.bin>
//! adas-replay explain <trace.bin>
//! ```
//!
//! `verify` exits 0 when every trace replays bit-identically, 1 when any
//! trace diverged (a divergence report is also written to
//! `results/replay_divergence.txt`), and 2 on usage or I/O errors.
//! `--perturb friction=K` (or the `ADAS_REPLAY_PERTURB` environment
//! variable) scales surface friction during the re-execution — the
//! intentional one-line physics perturbation used to demonstrate that the
//! diff localises the first divergent step and field.

use adas_attack::FaultType;
use adas_bench::{model_fingerprint, trained_baseline_cached, CAMPAIGN_SEED};
use adas_core::parallel::MapControl;
use adas_core::{
    replay_trace, resolve_cell, run_single_traced, ArtifactCache, CampaignCell, InterventionConfig,
    Perturbation, PlatformConfig, RunId, TraceSink,
};
use adas_ml::{LstmPredictor, ModelSpec};
use adas_recorder::{diff_traces, explain, DiffReport, RecordMode, Trace, TraceMode, TracePolicy};
use adas_scenarios::{InitialPosition, ScenarioId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "adas-replay — flight-recorder toolbox

USAGE:
  adas-replay record [--fault rd|curvature|mixed|none] [--row LABEL]
                     [--reps N] [--dir DIR]
      Run one campaign cell with every trace persisted to DIR
      (default results/traces). LABEL is an intervention row name such as
      \"None\", \"Driver+Check\", \"aeb-indep\", \"ML\" or \"ML-Ens\"
      (default \"None\").

  adas-replay record --golden [--dir DIR]
      Regenerate the golden regression traces (default
      results/traces/golden).

  adas-replay verify [--perturb friction=K] <trace.bin>...
      Re-execute each trace from its header and compare step-by-step.
      Exit 0 = all identical, 1 = divergence found, 2 = error.

  adas-replay diff <a.bin> <b.bin>
      Compare two stored traces (identity, steps, outcome).

  adas-replay explain <trace.bin>
      Print a human-readable incident timeline for one trace.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "record" => cmd_record(rest),
        "verify" => cmd_verify(rest),
        "diff" => cmd_diff(rest),
        "explain" => cmd_explain(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flag-value extractor for the hand-rolled argument loop: returns the value
/// following `flag` and removes both tokens.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn cmd_record(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let golden = take_switch(&mut args, "--golden");
    let result = (|| -> Result<(), String> {
        let dir = take_flag(&mut args, "--dir")?.map(PathBuf::from);
        if golden {
            if !args.is_empty() {
                return Err(format!("unexpected arguments: {args:?}"));
            }
            return record_golden(&dir.unwrap_or_else(|| PathBuf::from("results/traces/golden")));
        }
        let fault = take_flag(&mut args, "--fault")?.unwrap_or_else(|| "rd".into());
        let fault = FaultType::from_name(&fault).ok_or_else(|| {
            format!("unknown fault `{fault}` (expected rd, curvature, mixed, or none)")
        })?;
        let row = take_flag(&mut args, "--row")?.unwrap_or_else(|| "None".into());
        let iv = InterventionConfig::from_name(&row).ok_or_else(|| {
            let known: Vec<String> = InterventionConfig::table_vi_rows()
                .iter()
                .map(InterventionConfig::label)
                .collect();
            format!(
                "unknown intervention row `{row}` (expected one of: {}, ML-Ens, ML-Mask)",
                known.join(", ")
            )
        })?;
        let reps: u32 = take_flag(&mut args, "--reps")?
            .unwrap_or_else(|| "1".into())
            .parse()
            .map_err(|e| format!("bad --reps: {e}"))?;
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }
        record_cell(
            fault,
            iv,
            reps,
            &dir.unwrap_or_else(|| PathBuf::from("results/traces")),
        )
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn record_cell(
    fault: Option<FaultType>,
    iv: InterventionConfig,
    reps: u32,
    dir: &Path,
) -> Result<(), String> {
    let cache = ArtifactCache::from_env();
    let model = iv.ml.then(|| {
        Arc::new(trained_baseline_cached(
            &cache,
            CAMPAIGN_SEED,
            ModelSpec::default(),
        ))
    });
    let cell = CampaignCell::new(
        fault,
        PlatformConfig::with_interventions(iv),
        model.as_ref(),
        CAMPAIGN_SEED,
        reps,
    );
    let sink = TraceSink::new(TracePolicy {
        mode: TraceMode::All,
        dir: dir.to_path_buf(),
        record_mode: RecordMode::Full,
    });
    println!(
        "recording cell: fault {} · row {} · {reps} rep(s) · seed {CAMPAIGN_SEED}",
        fault.map_or("none", FaultType::label),
        iv.label()
    );
    let (_, runs) =
        resolve_cell(&cell, &cache, &sink, &MapControl::new()).expect("uncancelled cell");
    println!(
        "{runs} runs recorded, {} traces persisted to {} ({} errors)",
        sink.persisted(),
        dir.display(),
        sink.errors()
    );
    if sink.errors() > 0 {
        return Err("some traces failed to persist".into());
    }
    Ok(())
}

fn record_golden(dir: &Path) -> Result<(), String> {
    // Three representative S1/Near runs: a benign cruise, an unmitigated
    // relative-distance attack (crashes), and the same attack with the
    // independent AEB (prevented). `max_steps` is capped so the committed
    // files stay small; the cap lands in the header, so replay reconstructs
    // the same bounded run.
    let cases: [(&str, Option<FaultType>, InterventionConfig, usize); 3] = [
        (
            "golden-s1-benign.bin",
            None,
            InterventionConfig::none(),
            1_500,
        ),
        (
            "golden-s1-rd-unprotected.bin",
            Some(FaultType::RelativeDistance),
            InterventionConfig::none(),
            2_500,
        ),
        (
            "golden-s1-rd-aeb-indep.bin",
            Some(FaultType::RelativeDistance),
            InterventionConfig::aeb_independent_only(),
            2_500,
        ),
    ];
    for (name, fault, iv, max_steps) in cases {
        let mut cfg = PlatformConfig::with_interventions(iv);
        cfg.max_steps = max_steps;
        let id = RunId {
            scenario: ScenarioId::S1,
            position: InitialPosition::Near,
            repetition: 0,
        };
        let (_record, trace) =
            run_single_traced(id, fault, &cfg, None, 0, CAMPAIGN_SEED, RecordMode::Full);
        let path = dir.join(name);
        trace.save_as(&path).map_err(|e| format!("{name}: {e}"))?;
        println!(
            "{} · {} · {} steps · end {:?} · checksum {}",
            path.display(),
            trace.identity(),
            trace.outcome.steps,
            trace.outcome.end,
            trace.content_hex()
        );
    }
    Ok(())
}

/// Trains (or loads from the artifact cache) the baseline model a traced ML
/// run was recorded with. Memoised per seed so a multi-trace `verify` trains
/// at most once.
struct ModelProvider {
    cache: ArtifactCache,
    loaded: Option<(u64, Arc<LstmPredictor>, u64)>,
}

impl ModelProvider {
    fn new() -> Self {
        Self {
            cache: ArtifactCache::from_env(),
            loaded: None,
        }
    }

    fn get(&mut self, seed: u64) -> (&Arc<LstmPredictor>, u64) {
        let stale = self.loaded.as_ref().is_none_or(|(s, ..)| *s != seed);
        if stale {
            let model = Arc::new(trained_baseline_cached(
                &self.cache,
                seed,
                ModelSpec::default(),
            ));
            let fp = model_fingerprint(&model).value();
            self.loaded = Some((seed, model, fp));
        }
        let (_, model, fp) = self.loaded.as_ref().expect("just loaded");
        (model, *fp)
    }
}

fn render_report(report: &DiffReport, out: &mut String) {
    for m in &report.header_mismatches {
        let _ = writeln!(out, "  header mismatch: {m}");
    }
    let _ = writeln!(out, "  {}", report.verdict);
    if let Some(m) = &report.outcome_mismatch {
        let _ = writeln!(out, "  outcome mismatch: {m}");
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let perturb_spec = match take_flag(&mut args, "--perturb") {
        Ok(v) => v.or_else(|| std::env::var("ADAS_REPLAY_PERTURB").ok()),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let perturbation = match &perturb_spec {
        Some(spec) => match Perturbation::parse(spec) {
            Some(p) => Some(p),
            None => {
                eprintln!("error: bad perturbation `{spec}` (expected friction=<scale>)");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    if args.is_empty() {
        eprintln!("error: verify needs at least one trace file\n\n{USAGE}");
        return ExitCode::from(2);
    }
    if let Some(p) = perturbation {
        println!("replaying with perturbation {p:?} — divergence is expected\n");
    }

    let mut models = ModelProvider::new();
    let mut divergence_report = String::new();
    let (mut identical, mut diverged, mut failed) = (0u32, 0u32, 0u32);
    for path in &args {
        let trace = match Trace::load(Path::new(path)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ERROR      {path}: {e}");
                failed += 1;
                continue;
            }
        };
        let ml = if trace.header.model_fingerprint != 0 {
            let (model, fp) = models.get(trace.header.campaign_seed);
            // Borrow ends when replay_trace returns; clone keeps it simple.
            Some((model.clone(), fp))
        } else {
            None
        };
        match replay_trace(&trace, ml.as_ref().map(|(m, fp)| (m, *fp)), perturbation) {
            Err(e) => {
                eprintln!("ERROR      {path}: {e}");
                failed += 1;
            }
            Ok(result) if result.report.is_identical() => {
                println!(
                    "IDENTICAL  {path} · {} · {} steps",
                    trace.identity(),
                    trace.outcome.steps
                );
                identical += 1;
            }
            Ok(result) => {
                println!("DIVERGED   {path} · {}", trace.identity());
                let mut rendered = String::new();
                render_report(&result.report, &mut rendered);
                print!("{rendered}");
                let _ = writeln!(divergence_report, "{path} · {}", trace.identity());
                divergence_report.push_str(&rendered);
                diverged += 1;
            }
        }
    }
    println!("\n{identical} identical, {diverged} diverged, {failed} errors");
    if diverged > 0 {
        let report_path = Path::new("results/replay_divergence.txt");
        if let Some(parent) = report_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(report_path, &divergence_report) {
            Ok(()) => println!("divergence report written to {}", report_path.display()),
            Err(e) => eprintln!("could not write divergence report: {e}"),
        }
    }
    if failed > 0 {
        ExitCode::from(2)
    } else if diverged > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("error: diff needs exactly two trace files\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let (a, b) = match (
        Trace::load(Path::new(a_path)),
        Trace::load(Path::new(b_path)),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) => {
            eprintln!("error: {a_path}: {e}");
            return ExitCode::from(2);
        }
        (_, Err(e)) => {
            eprintln!("error: {b_path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("a: {a_path} · {}", a.identity());
    println!("b: {b_path} · {}", b.identity());
    let report = diff_traces(&a, &b);
    if report.is_identical() {
        println!("Identical");
        ExitCode::SUCCESS
    } else {
        let mut rendered = String::new();
        render_report(&report, &mut rendered);
        print!("{rendered}");
        ExitCode::from(1)
    }
}

fn cmd_explain(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("error: explain needs exactly one trace file\n\n{USAGE}");
        return ExitCode::from(2);
    };
    match Trace::load(Path::new(path)) {
        Ok(trace) => {
            println!("{}", explain(&trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::from(2)
        }
    }
}
