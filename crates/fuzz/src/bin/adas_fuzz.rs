//! `adas-fuzz` — coverage-guided scenario fuzzer for the intervention stack.
//!
//! ```text
//! adas-fuzz run [--seed N] [--max-runs N] [--batch N] [--max-secs S]
//!               [--shrink-steps N] [--repro-dir DIR]
//! adas-fuzz replay <repro.toml>...
//! ```
//!
//! `run` fuzzes the campaign parameter space until the run (or wall-clock)
//! budget is spent, prints the coverage-growth curve and every shrunk
//! finding, and persists each finding as `DIR/<oracle>-<fingerprint>.toml`
//! plus its flight-recorder trace. Exit 0 on a completed session, 2 on
//! usage errors. Flags default from `ADAS_FUZZ_SEED`, `ADAS_FUZZ_MAX_RUNS`,
//! `ADAS_FUZZ_BATCH`, `ADAS_FUZZ_MAX_SECS`, `ADAS_FUZZ_SHRINK_STEPS` and
//! `ADAS_FUZZ_DIR`.
//!
//! `replay` re-checks stored repros: the violation must still fire, the
//! behavioural signature must match, and the fresh run must be
//! bit-identical to the recorded trace. Exit 0 = all pass, 1 = any repro
//! failed, 2 = error.

use adas_fuzz::{fuzz, run_case, FuzzConfig, Repro};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "adas-fuzz — coverage-guided scenario fuzzer

USAGE:
  adas-fuzz run [--seed N] [--max-runs N] [--batch N] [--max-secs S]
                [--shrink-steps N] [--repro-dir DIR]
      Fuzz the campaign parameter space. Findings are shrunk and written
      to DIR (default repros) as replayable .toml + trace files.
      Flag defaults come from ADAS_FUZZ_SEED, ADAS_FUZZ_MAX_RUNS,
      ADAS_FUZZ_BATCH, ADAS_FUZZ_MAX_SECS, ADAS_FUZZ_SHRINK_STEPS,
      ADAS_FUZZ_DIR.

  adas-fuzz replay <repro.toml>...
      Re-check stored repros (oracle fires, signature matches, trace
      bit-identical). Exit 0 = all pass, 1 = failures, 2 = error.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "replay" => cmd_replay(rest),
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

/// Flag-value extractor: returns the value following `flag` and removes
/// both tokens.
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

/// Resolves a setting: explicit flag beats environment beats default.
/// Flag values are hard errors when malformed; environment values go
/// through the shared hardened parser (`adas_core::env`), which warns and
/// falls back to the default on empty or garbage input.
fn resolve<T: FromStr>(flag_value: Option<String>, env: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value {
        Some(s) => s.parse().map_err(|e| format!("{env}: {e}")),
        None => Ok(adas_core::env::parse(env, "a number").unwrap_or(default)),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let result = (|| -> Result<(), String> {
        let defaults = FuzzConfig::default();
        let config = FuzzConfig {
            seed: resolve(
                take_flag(&mut args, "--seed")?,
                "ADAS_FUZZ_SEED",
                defaults.seed,
            )?,
            max_runs: resolve(
                take_flag(&mut args, "--max-runs")?,
                "ADAS_FUZZ_MAX_RUNS",
                defaults.max_runs,
            )?,
            batch: resolve(
                take_flag(&mut args, "--batch")?,
                "ADAS_FUZZ_BATCH",
                defaults.batch,
            )?,
            max_secs: match take_flag(&mut args, "--max-secs")? {
                Some(s) => Some(s.parse::<f64>().map_err(|e| format!("--max-secs: {e}"))?),
                None => adas_core::env::parse("ADAS_FUZZ_MAX_SECS", "seconds"),
            },
            shrink_steps: resolve(
                take_flag(&mut args, "--shrink-steps")?,
                "ADAS_FUZZ_SHRINK_STEPS",
                defaults.shrink_steps,
            )?,
        };
        let dir = take_flag(&mut args, "--repro-dir")?.map_or_else(
            || adas_core::env::path_or("ADAS_FUZZ_DIR", "repros"),
            PathBuf::from,
        );
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }

        println!(
            "fuzzing: seed {} · {} run budget · batch {} · {} threads{}",
            config.seed,
            config.max_runs,
            config.batch,
            adas_core::parallel::thread_count(config.batch),
            config
                .max_secs
                .map_or_else(String::new, |s| format!(" · {s} s wall budget")),
        );
        let report = fuzz(&config);
        println!(
            "\n{} runs in {} batches · corpus {} signatures{}",
            report.runs,
            report.batches,
            report.corpus.len(),
            if report.hit_time_budget {
                " · stopped on wall-clock budget"
            } else {
                ""
            }
        );
        println!("coverage growth (runs → signatures):");
        for (runs, size) in &report.coverage_growth {
            println!("  {runs:>6} → {size}");
        }

        if report.findings.is_empty() {
            println!("\nno oracle violations found");
            return Ok(());
        }
        println!("\n{} finding(s):", report.findings.len());
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        for finding in &report.findings {
            let (_, trace) = run_case(&finding.shrunk, config.seed);
            let mut repro = Repro {
                case: finding.shrunk,
                seed: config.seed,
                oracle: finding.oracle,
                detail: finding.violation.to_string(),
                signature: finding.signature.0,
                trace_file: None,
            };
            let path = repro.save(&dir, &trace)?;
            println!(
                "  {} · found {} · shrunk {} · {}",
                finding.oracle.name(),
                finding.found.label(),
                finding.shrunk.label(),
                finding.signature.describe()
            );
            println!("    {}", finding.violation);
            println!("    repro: {}", path.display());
        }
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("error: replay needs at least one repro file\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let (mut passed, mut failed, mut errors) = (0u32, 0u32, 0u32);
    for path in args {
        let path = Path::new(path);
        let repro = match Repro::load(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ERROR  {e}");
                errors += 1;
                continue;
            }
        };
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        match repro.verify(base) {
            Ok(()) => {
                println!(
                    "PASS   {} · {} · {}",
                    path.display(),
                    repro.oracle.name(),
                    repro.case.label()
                );
                passed += 1;
            }
            Err(e) => {
                eprintln!("FAIL   {} · {e}", path.display());
                failed += 1;
            }
        }
    }
    println!("\n{passed} passed, {failed} failed, {errors} errors");
    if errors > 0 {
        ExitCode::from(2)
    } else if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
