//! `adas-serve` — campaign evaluation daemon, fabric coordinator, and
//! client in one binary.
//!
//! ```text
//! adas-serve serve   [--addr HOST:PORT] [--queue N]      (alias: worker)
//! adas-serve coordinator [--addr HOST:PORT] [--workers A,B,...] [--admit N]
//! adas-serve bench   --clients K --workers N [--campaigns M] [--admit N]
//!                    [campaign flags]
//! adas-serve client submit   [--addr A] [campaign flags]
//! adas-serve client fuzz     [--addr A] [fuzz flags]
//! adas-serve client bench    [--addr A] [campaign flags]
//! adas-serve client status   JOB [--addr A]
//! adas-serve client watch    JOB [--addr A]
//! adas-serve client cancel   JOB [--addr A]
//! adas-serve client metrics  [--addr A]
//! adas-serve client replay   HEX [--addr A]
//! adas-serve client shutdown [--addr A]
//! ```
//!
//! Campaign flags (submit/bench): `--seed N` (default 2025), `--reps N`
//! (default 10), `--max-steps N` (0 = full runs), `--scenarios S1,S4|all`,
//! `--faults none,rd,dc,mixed|all`, `--rows none,driver-check,…|all`,
//! `--attack immediate|ttc<S,lane>M,curv>K,arm>S` (default `ADAS_ATTACK`
//! or immediate).
//!
//! Defaults come from `ADAS_SERVE_ADDR` / `ADAS_SERVE_QUEUE` and the
//! `ADAS_FABRIC_*` family where a flag is not given. Exit codes: 0
//! success, 1 rejected/diverged/failed, 2 usage or transport error.

use adas_core::job::CellSpec;
use adas_core::{CampaignSpec, InterventionConfig, SCENARIO_MASK_ALL};
use adas_fabric::bench::BenchConfig;
use adas_fabric::{Coordinator, CoordinatorServer, FabricConfig};
use adas_scenarios::ScenarioId;
use adas_serve::{Client, JobState, ReplayOutcome, Server, ServerConfig, Submission};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "adas-serve — long-lived campaign evaluation service

USAGE:
  adas-serve serve [--addr HOST:PORT] [--queue N]        (alias: worker)
      Run a daemon (defaults: ADAS_SERVE_ADDR or 127.0.0.1:4747,
      ADAS_SERVE_QUEUE or 8). SIGTERM/ctrl-c drains in-flight jobs.
      A daemon doubles as a fabric worker: coordinators register via
      the v2 RegisterWorker/AssignCells frames.

  adas-serve coordinator [--addr HOST:PORT] [--workers A,B,...] [--admit N]
      Shard submitted campaigns across a worker fleet (consistent-hash
      routing, heartbeat health tracking, re-dispatch from dead workers,
      deterministic grid-order merge). Workers default to
      ADAS_FABRIC_WORKERS; all `client` verbs work against it.

  adas-serve bench --clients K --workers N [--campaigns M] [--admit N]
                   [campaign flags]
      Saturation sweep: spin up in-process worker fleets and measure
      cells/sec + p50/p99 latency for powers-of-two client × worker
      counts. Writes results/SERVE_bench.json.

  adas-serve client submit [--addr A] [--seed N] [--reps N]
                           [--max-steps N] [--scenarios LIST|all]
                           [--faults LIST|all] [--rows LIST|all]
      Submit a campaign grid and stream per-cell results.
      Faults: none rd dc mixed. Rows: none driver driver-check
      driver-check-aeb-comp driver-check-aeb-indep aeb-comp aeb-indep
      ml ml-ens ml-mask.

  adas-serve client fuzz [--addr A] [--seed N] [--sessions N] [--runs N]
                         [--batch N] [--shrink N] [--secs-ms N] [--repros DIR]
      Submit a fuzz-farm job (N time-boxed coverage-guided sessions on
      consecutive seeds), stream per-session outcomes, and print the
      fleet-wide deduped finding set. Against a coordinator the sessions
      shard across the fleet; the deduped set is identical either way.
      Defaults: ADAS_FUZZ_FARM_SESSIONS (4), ADAS_FUZZ_FARM_RUNS (120),
      ADAS_FUZZ_FARM_SECS_MS (0 = unbounded). --repros saves deduped
      shrunk repros + traces under DIR.

  adas-serve client bench [--addr A] [campaign flags]
      Submit the same campaign twice and report cold vs warm wall time.

  adas-serve client status JOB | watch JOB | cancel JOB [--addr A]
  adas-serve client metrics [--addr A]
  adas-serve client replay HEX [--addr A]
  adas-serve client shutdown [--addr A]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "serve" | "worker" => cmd_serve(rest),
        "coordinator" => cmd_coordinator(rest),
        "bench" => cmd_bench(rest),
        "client" => cmd_client(rest),
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

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let result = (|| -> Result<(), String> {
        let mut config = ServerConfig::from_env();
        if let Some(addr) = take_flag(&mut args, "--addr")? {
            config.addr = addr;
        }
        if let Some(queue) = take_flag(&mut args, "--queue")? {
            config.queue_capacity = queue
                .parse::<usize>()
                .map_err(|e| format!("--queue: {e}"))?
                .max(1);
        }
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        eprintln!("[serve] listening on {addr} (SIGTERM or `client shutdown` to drain + exit)");
        server.run().map_err(|e| e.to_string())?;
        eprintln!("[serve] drained, exiting");
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

fn cmd_coordinator(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let result = (|| -> Result<(), String> {
        let mut config = FabricConfig::from_env();
        if let Some(list) = take_flag(&mut args, "--workers")? {
            config.workers = list
                .split(',')
                .map(|a| a.trim().to_owned())
                .filter(|a| !a.is_empty())
                .collect();
        }
        if let Some(admit) = take_flag(&mut args, "--admit")? {
            config.admit = admit
                .parse::<usize>()
                .map_err(|e| format!("--admit: {e}"))?
                .max(1);
        }
        let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| {
            adas_core::env::raw("ADAS_SERVE_ADDR").unwrap_or_else(|| adas_serve::DEFAULT_ADDR.into())
        });
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }
        let admit = config.admit;
        let coordinator = Coordinator::connect(&config).map_err(|e| e.to_string())?;
        let front =
            CoordinatorServer::bind(&addr, coordinator, admit).map_err(|e| format!("bind: {e}"))?;
        let bound = front.local_addr().map_err(|e| e.to_string())?;
        eprintln!(
            "[fabric] coordinator listening on {bound} over {} workers \
             (SIGTERM or `client shutdown` to drain + exit)",
            config.workers.len()
        );
        front.run().map_err(|e| e.to_string())?;
        eprintln!("[fabric] coordinator exiting");
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

fn cmd_bench(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let result = (|| -> Result<(), String> {
        let spec = campaign_from_flags(&mut args)?;
        let max_clients = match take_flag(&mut args, "--clients")? {
            Some(s) => s.parse::<usize>().map_err(|e| format!("--clients: {e}"))?.max(1),
            None => 4,
        };
        let max_workers = match take_flag(&mut args, "--workers")? {
            Some(s) => s.parse::<usize>().map_err(|e| format!("--workers: {e}"))?.max(1),
            None => 2,
        };
        let campaigns_per_client = match take_flag(&mut args, "--campaigns")? {
            Some(s) => s.parse::<usize>().map_err(|e| format!("--campaigns: {e}"))?.max(1),
            None => 2,
        };
        let admit = match take_flag(&mut args, "--admit")? {
            Some(s) => s.parse::<usize>().map_err(|e| format!("--admit: {e}"))?.max(1),
            None => 4,
        };
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }
        let config = BenchConfig {
            max_clients,
            max_workers,
            campaigns_per_client,
            admit,
            spec,
        };
        eprintln!(
            "[bench] saturation sweep: ≤{max_workers} workers × ≤{max_clients} clients, \
             {} cells/campaign",
            config.spec.cells.len()
        );
        let points = adas_fabric::bench::run(&config)?;
        let json = adas_fabric::bench::to_json(&config, &points);
        adas_bench::write_results_file("SERVE_bench.json", &json);
        println!("{json}");
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

/// Parses the campaign flags shared by `submit` and `bench`.
fn campaign_from_flags(args: &mut Vec<String>) -> Result<CampaignSpec, String> {
    let seed = match take_flag(args, "--seed")? {
        Some(s) => s.parse().map_err(|e| format!("--seed: {e}"))?,
        None => adas_bench::CAMPAIGN_SEED,
    };
    let reps = match take_flag(args, "--reps")? {
        Some(s) => s.parse().map_err(|e| format!("--reps: {e}"))?,
        None => adas_bench::REPS,
    };
    let max_steps = match take_flag(args, "--max-steps")? {
        Some(s) => s.parse().map_err(|e| format!("--max-steps: {e}"))?,
        None => 0,
    };
    let scenario_mask = match take_flag(args, "--scenarios")?.as_deref() {
        None => SCENARIO_MASK_ALL,
        Some("all") => SCENARIO_MASK_ALL,
        Some(list) => {
            let mut mask = 0u8;
            for token in list.split(',') {
                let token = token.trim().to_uppercase();
                let bit = ScenarioId::ALL
                    .iter()
                    .position(|s| format!("{s:?}") == token)
                    .ok_or_else(|| format!("--scenarios: unknown scenario `{token}`"))?;
                mask |= 1 << bit;
            }
            mask
        }
    };
    let attack = match take_flag(args, "--attack")? {
        Some(s) => adas_attack::AttackScheduler::parse(&s)
            .ok_or_else(|| format!("--attack: unknown schedule `{s}`"))?,
        None => adas_core::config::attack_from_env(),
    };
    let faults = parse_faults(take_flag(args, "--faults")?.as_deref().unwrap_or("all"))?;
    let rows = parse_rows(take_flag(args, "--rows")?.as_deref().unwrap_or("none,driver-check"))?;
    let cells: Vec<CellSpec> = faults
        .iter()
        .flat_map(|&fault| {
            rows.iter().map(move |&interventions| CellSpec {
                fault,
                interventions,
            })
        })
        .collect();
    let spec = CampaignSpec {
        campaign_seed: seed,
        repetitions: reps,
        max_steps,
        scenario_mask,
        attack,
        cells,
    };
    if !spec.validate() {
        return Err("campaign flags produce an invalid spec".into());
    }
    Ok(spec)
}

fn parse_faults(list: &str) -> Result<Vec<Option<adas_attack::FaultType>>, String> {
    use adas_attack::FaultType;
    if list == "all" {
        return Ok(vec![
            Some(FaultType::RelativeDistance),
            Some(FaultType::DesiredCurvature),
            Some(FaultType::Mixed),
        ]);
    }
    list.split(',')
        .map(|t| match t.trim() {
            "none" => Ok(None),
            "rd" => Ok(Some(FaultType::RelativeDistance)),
            "dc" => Ok(Some(FaultType::DesiredCurvature)),
            "mixed" => Ok(Some(FaultType::Mixed)),
            other => Err(format!("--faults: unknown fault `{other}`")),
        })
        .collect()
}

fn parse_rows(list: &str) -> Result<Vec<InterventionConfig>, String> {
    if list == "all" {
        return Ok(InterventionConfig::table_vi_rows().to_vec());
    }
    list.split(',')
        .map(|t| match t.trim() {
            "none" => Ok(InterventionConfig::none()),
            "driver" => Ok(InterventionConfig::driver_only()),
            "driver-check" => Ok(InterventionConfig::driver_and_check()),
            "driver-check-aeb-comp" => Ok(InterventionConfig::driver_check_aeb_compromised()),
            "driver-check-aeb-indep" => Ok(InterventionConfig::driver_check_aeb_independent()),
            "aeb-comp" => Ok(InterventionConfig::aeb_compromised_only()),
            "aeb-indep" => Ok(InterventionConfig::aeb_independent_only()),
            "ml" => Ok(InterventionConfig::ml_only()),
            "ml-ens" => Ok(InterventionConfig::ensemble_only()),
            "ml-mask" => Ok(InterventionConfig::maskcheck_only()),
            other => Err(format!("--rows: unknown row `{other}`")),
        })
        .collect()
}

/// Parses the fuzz-farm flags for `client fuzz`. Env defaults let CI and
/// scripted sweeps configure the farm without flag plumbing.
fn fuzz_from_flags(args: &mut Vec<String>) -> Result<adas_fuzz::FuzzJobSpec, String> {
    let first_seed = match take_flag(args, "--seed")? {
        Some(s) => s.parse().map_err(|e| format!("--seed: {e}"))?,
        None => adas_bench::CAMPAIGN_SEED,
    };
    let sessions = match take_flag(args, "--sessions")? {
        Some(s) => s.parse::<usize>().map_err(|e| format!("--sessions: {e}"))?,
        None => adas_parallel::env::parse_or("ADAS_FUZZ_FARM_SESSIONS", "a session count ≥ 1", 4),
    }
    .max(1);
    let mut spec = adas_fuzz::FuzzJobSpec::quick(first_seed, sessions);
    if let Some(s) = take_flag(args, "--runs")? {
        spec.max_runs = s.parse().map_err(|e| format!("--runs: {e}"))?;
    } else {
        spec.max_runs =
            adas_parallel::env::parse_or("ADAS_FUZZ_FARM_RUNS", "a run budget ≥ 1", spec.max_runs);
    }
    if let Some(s) = take_flag(args, "--batch")? {
        spec.batch = s.parse().map_err(|e| format!("--batch: {e}"))?;
    }
    if let Some(s) = take_flag(args, "--shrink")? {
        spec.shrink_steps = s.parse().map_err(|e| format!("--shrink: {e}"))?;
    }
    if let Some(s) = take_flag(args, "--secs-ms")? {
        spec.max_secs_ms = s.parse().map_err(|e| format!("--secs-ms: {e}"))?;
    } else {
        spec.max_secs_ms =
            adas_parallel::env::parse_or("ADAS_FUZZ_FARM_SECS_MS", "a time box in ms (0 = none)", 0);
    }
    if !spec.validate() {
        return Err("fuzz flags produce an invalid job spec".into());
    }
    Ok(spec)
}

fn addr_from_flags(args: &mut Vec<String>) -> Result<String, String> {
    Ok(take_flag(args, "--addr")?.unwrap_or_else(|| {
        adas_core::env::raw("ADAS_SERVE_ADDR").unwrap_or_else(|| adas_serve::DEFAULT_ADDR.into())
    }))
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn parse_job_id(args: &mut Vec<String>) -> Result<u64, String> {
    if args.is_empty() {
        return Err("expected a JOB id".into());
    }
    let token = args.remove(0);
    token.parse().map_err(|e| format!("job id `{token}`: {e}"))
}

fn cmd_client(args: &[String]) -> ExitCode {
    let Some((verb, rest)) = args.split_first() else {
        eprintln!("client needs a verb\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let mut args = rest.to_vec();
    let result = (|| -> Result<ExitCode, String> {
        match verb.as_str() {
            "submit" => {
                let spec = campaign_from_flags(&mut args)?;
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let mut client = connect(&addr)?;
                let t0 = Instant::now();
                // Queue-full rejections back off on the deterministic
                // jittered schedule before giving up.
                let seed = spec.campaign_seed;
                match client
                    .submit_with_backoff(&spec, adas_serve::backoff::DEFAULT_ATTEMPTS, seed)
                    .map_err(|e| e.to_string())?
                {
                    Submission::Rejected {
                        retry_after_ms,
                        reason,
                    } => {
                        eprintln!("rejected: {reason} (retry after {retry_after_ms} ms)");
                        Ok(ExitCode::from(1))
                    }
                    Submission::Accepted { job_id, .. } => {
                        let (cells, state) = client
                            .stream_results(|index, stats| {
                                println!(
                                    "cell {index:>3}: A1 {:6.2}%  A2 {:6.2}%  prevented {:6.2}%  ({} runs)",
                                    stats.a1_pct, stats.a2_pct, stats.prevented_pct, stats.runs
                                );
                            })
                            .map_err(|e| e.to_string())?;
                        println!(
                            "job {} {} · {} cells in {:.2} s",
                            job_id,
                            state,
                            cells.len(),
                            t0.elapsed().as_secs_f64()
                        );
                        Ok(if state == JobState::Done {
                            ExitCode::SUCCESS
                        } else {
                            ExitCode::from(1)
                        })
                    }
                }
            }
            "fuzz" => {
                let spec = fuzz_from_flags(&mut args)?;
                let repro_dir = take_flag(&mut args, "--repros")?;
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let mut client = connect(&addr)?;
                let t0 = Instant::now();
                match client.submit_fuzz(&spec).map_err(|e| e.to_string())? {
                    Submission::Rejected {
                        retry_after_ms,
                        reason,
                    } => {
                        eprintln!("rejected: {reason} (retry after {retry_after_ms} ms)");
                        Ok(ExitCode::from(1))
                    }
                    Submission::Accepted { job_id, .. } => {
                        let (outcomes, state) = client
                            .stream_fuzz(|o| {
                                println!(
                                    "session {:>10}: {:>6} runs · corpus {:>4} · {} findings{}",
                                    o.seed,
                                    o.runs,
                                    o.corpus,
                                    o.findings.len(),
                                    if o.hit_time_budget { " · time-boxed" } else { "" }
                                );
                            })
                            .map_err(|e| e.to_string())?;
                        // The same fold the daemon/coordinator ran: the
                        // deduped set is reproducible client-side.
                        let summary = adas_fuzz::farm::fold(&spec, &outcomes);
                        println!(
                            "job {} {} · {} sessions · {} deduped findings ({} duplicates) \
                             in {:.2} s",
                            job_id,
                            state,
                            summary.sessions,
                            summary.findings.len(),
                            summary.dedup_hits,
                            t0.elapsed().as_secs_f64()
                        );
                        for (oracle, count) in summary.by_oracle().iter().enumerate() {
                            if *count > 0 {
                                println!(
                                    "  {:<24} {count}",
                                    adas_fuzz::OracleKind::ALL[oracle].name()
                                );
                            }
                        }
                        if let Some(dir) = repro_dir {
                            let paths = adas_fuzz::farm::save_repros(
                                &summary.findings,
                                std::path::Path::new(&dir),
                            )?;
                            println!("saved {} repros under {dir}", paths.len());
                        }
                        Ok(if state == JobState::Done {
                            ExitCode::SUCCESS
                        } else {
                            ExitCode::from(1)
                        })
                    }
                }
            }
            "bench" => {
                let spec = campaign_from_flags(&mut args)?;
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let mut client = connect(&addr)?;
                let mut lap = |label: &str| -> Result<f64, String> {
                    let t0 = Instant::now();
                    let outcome = client.run_campaign(&spec, |_, _| {}).map_err(|e| e.to_string())?;
                    let wall = t0.elapsed().as_secs_f64();
                    match outcome {
                        Ok(r) if r.state == JobState::Done => {
                            println!("{label}: {} cells in {wall:.3} s", r.cells.len());
                            Ok(wall)
                        }
                        Ok(r) => Err(format!("{label} run ended {}", r.state)),
                        Err(Submission::Rejected { reason, .. }) => {
                            Err(format!("{label} run rejected: {reason}"))
                        }
                        Err(_) => unreachable!("run_campaign streams"),
                    }
                };
                let cold_s = lap("cold")?;
                let warm_s = lap("warm")?;
                let speedup = if warm_s > 0.0 { cold_s / warm_s } else { 0.0 };
                println!("speedup: {speedup:.1}× (cold {cold_s:.3} s → warm {warm_s:.3} s)");
                Ok(ExitCode::SUCCESS)
            }
            "status" => {
                let job_id = parse_job_id(&mut args)?;
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let status = connect(&addr)?.status(job_id).map_err(|e| e.to_string())?;
                println!(
                    "job {job_id}: {} · cells {}/{} · {} runs executed",
                    status.state, status.cells_done, status.cells_total, status.runs_done
                );
                Ok(ExitCode::SUCCESS)
            }
            "watch" => {
                let job_id = parse_job_id(&mut args)?;
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let mut client = connect(&addr)?;
                loop {
                    let status = client.status(job_id).map_err(|e| e.to_string())?;
                    println!(
                        "job {job_id}: {} · cells {}/{} · {} runs executed",
                        status.state, status.cells_done, status.cells_total, status.runs_done
                    );
                    if status.state.is_terminal() {
                        return Ok(ExitCode::SUCCESS);
                    }
                    std::thread::sleep(Duration::from_millis(500));
                }
            }
            "cancel" => {
                let job_id = parse_job_id(&mut args)?;
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let status = connect(&addr)?.cancel(job_id).map_err(|e| e.to_string())?;
                println!("job {job_id}: cancellation requested (state {})", status.state);
                Ok(ExitCode::SUCCESS)
            }
            "metrics" => {
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let json = connect(&addr)?.metrics().map_err(|e| e.to_string())?;
                print!("{json}");
                Ok(ExitCode::SUCCESS)
            }
            "replay" => {
                if args.is_empty() {
                    return Err("expected a trace hash".into());
                }
                let hex = args.remove(0);
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                let (outcome, detail) =
                    connect(&addr)?.replay(&hex).map_err(|e| e.to_string())?;
                println!("{outcome:?}: {detail}");
                Ok(match outcome {
                    ReplayOutcome::Identical => ExitCode::SUCCESS,
                    _ => ExitCode::from(1),
                })
            }
            "shutdown" => {
                let addr = addr_from_flags(&mut args)?;
                expect_empty(&args)?;
                connect(&addr)?.shutdown().map_err(|e| e.to_string())?;
                println!("shutdown acknowledged; server is draining");
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown client verb `{other}`")),
        }
    })();
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn expect_empty(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected arguments: {args:?}"))
    }
}
