//! The scenario DSL's contract: the six golden `.scn` files under
//! `scenarios/builtin/` are a **lossless re-encoding** of the hard-coded
//! S1–S6 constructors. Every builtin loaded through the DSL catalog must
//! be bit-identical to [`ScenarioSetup::build_hardcoded`] — the setups
//! themselves, the RNG stream position after building, the run records,
//! the serialised traces (and therefore the content addresses the
//! artifact cache keys on) — at every `ADAS_THREADS` × batch width and
//! over the serve wire. Plus the context-aware attack scheduler's own
//! invariants: determinism, the one-shot latch, and the committed
//! schedule-dominance regression.

use std::sync::{Mutex, MutexGuard};

use adas_recorder::{RecordMode, Trace, TraceWriter};
use openadas::attack::{AttackScheduler, ContextTrigger, FaultInjector, FaultSpec, FaultType};
use openadas::core::job::CellSpec;
use openadas::core::parallel::MapControl;
use openadas::core::{
    campaign_run_ids, run_ids_ctl, run_single, trace_header, CampaignCell, CampaignSpec, CellStats,
    InterventionConfig, Platform, PlatformConfig, RunId, TraceSink,
};
use openadas::scenarios::{InitialPosition, RunRecord, ScenarioId, ScenarioSetup};
use openadas::simulator::DeterministicRng;

/// Serialises tests that set `ADAS_THREADS` (process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn threads_guard(n: usize) -> MutexGuard<'static, ()> {
    let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAS_THREADS", n.to_string());
    guard
}

/// A scenario constructor: the DSL catalog path or the legacy hard-coded
/// one. Both take the same per-run RNG and must consume it identically.
type Builder = fn(ScenarioId, InitialPosition, &mut DeterministicRng) -> ScenarioSetup;

const DSL: Builder = ScenarioSetup::build;
const HARDCODED: Builder = ScenarioSetup::build_hardcoded;

/// Mirrors the private `build_platform` wiring in `adas-core` with the
/// scenario constructor as a parameter, so the hard-coded path can be
/// driven through the exact same physics as the production (DSL) path.
fn platform_with(
    builder: Builder,
    id: RunId,
    fault: Option<FaultType>,
    config: &PlatformConfig,
    seed: u64,
) -> Platform {
    let mut rng = DeterministicRng::for_run(
        seed,
        id.scenario.index() as u64,
        id.position.index() as u64,
        u64::from(id.repetition),
    );
    let setup = builder(id.scenario, id.position, &mut rng);
    let injector = match fault {
        Some(ft) => {
            FaultInjector::new(FaultSpec::new(ft, setup.patch_start_s).scheduled(config.attack))
        }
        None => FaultInjector::disabled(),
    };
    Platform::new(&setup, *config, injector, None, &mut rng)
}

fn run_with(
    builder: Builder,
    id: RunId,
    fault: Option<FaultType>,
    config: &PlatformConfig,
    seed: u64,
) -> RunRecord {
    platform_with(builder, id, fault, config, seed).run()
}

/// Traced twin of [`run_with`]: same stepping, with a full-fidelity
/// writer attached, sealed exactly as `run_traced` seals it.
fn run_traced_with(
    builder: Builder,
    id: RunId,
    fault: Option<FaultType>,
    config: &PlatformConfig,
    seed: u64,
) -> (RunRecord, Trace) {
    let mut platform = platform_with(builder, id, fault, config, seed);
    platform.attach_writer(TraceWriter::new(RecordMode::Full));
    let end = platform.run_to_end();
    platform.seal(end, trace_header(id, fault, config, 0, seed))
}

fn grid() -> Vec<RunId> {
    campaign_run_ids(1)
}

/// The one-repetition campaign grid at seed 2025 through the one lockstep
/// entry, `run_ids_ctl`, untraced, at batch `width`.
fn lockstep_campaign(
    fault: Option<FaultType>,
    cfg: &PlatformConfig,
    width: usize,
) -> Vec<(RunId, RunRecord)> {
    let cell = CampaignCell::new(fault, *cfg, None, 2025, 1);
    let ids = cell.run_ids();
    let records = run_ids_ctl(
        &cell,
        &ids,
        width,
        &TraceSink::disabled(),
        &MapControl::new(),
    )
    .expect("uncancelled");
    ids.into_iter().zip(records).collect()
}

#[test]
fn dsl_setups_and_rng_streams_match_the_hardcoded_constructors() {
    // Structural equality is not enough: the DSL evaluator must also
    // consume the per-run RNG in exactly the legacy draw order, or every
    // downstream stream (mitigation jitter, future consumers) shifts.
    for scenario in ScenarioId::ALL {
        for position in InitialPosition::ALL {
            for repetition in 0..5u64 {
                let mut rng_dsl = DeterministicRng::for_run(
                    2025,
                    scenario.index() as u64,
                    position.index() as u64,
                    repetition,
                );
                let mut rng_hc = rng_dsl.clone();
                let dsl = DSL(scenario, position, &mut rng_dsl);
                let hardcoded = HARDCODED(scenario, position, &mut rng_hc);
                assert_eq!(
                    dsl, hardcoded,
                    "{scenario:?}/{position:?}/rep{repetition}: setup drifted"
                );
                let (a, b) = (rng_dsl.uniform(0.0, 1.0), rng_hc.uniform(0.0, 1.0));
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{scenario:?}/{position:?}/rep{repetition}: RNG stream out of step"
                );
            }
        }
    }
}

#[test]
fn dsl_runs_and_traces_are_bit_identical_to_hardcoded() {
    // Full closed-loop differential: records, serialised trace bytes, and
    // the content addresses the trace store / artifact cache key on.
    let mut config = PlatformConfig::with_interventions(InterventionConfig::driver_and_check());
    config.max_steps = 2_000;
    for id in grid() {
        for fault in [None, Some(FaultType::RelativeDistance)] {
            let (rec_dsl, trace_dsl) = run_traced_with(DSL, id, fault, &config, 2025);
            let (rec_hc, trace_hc) = run_traced_with(HARDCODED, id, fault, &config, 2025);
            assert_eq!(
                format!("{rec_dsl:?}"),
                format!("{rec_hc:?}"),
                "{id:?} fault={fault:?}: run record drifted"
            );
            assert_eq!(
                trace_dsl.to_bytes(),
                trace_hc.to_bytes(),
                "{id:?} fault={fault:?}: trace bytes drifted"
            );
            assert_eq!(trace_dsl.content_hex(), trace_hc.content_hex());
        }
    }
}

#[test]
fn scheduled_runs_from_dsl_match_hardcoded_too() {
    // The context-aware scheduler reads TTC/curvature from the world the
    // setup produced — equivalence must survive it as well.
    let mut config = PlatformConfig::with_interventions(InterventionConfig::driver_only());
    config.max_steps = 2_000;
    config.attack = AttackScheduler::Context(ContextTrigger::ttc(3.0));
    let fault = Some(FaultType::RelativeDistance);
    for id in grid() {
        let (rec_dsl, trace_dsl) = run_traced_with(DSL, id, fault, &config, 2025);
        let (rec_hc, trace_hc) = run_traced_with(HARDCODED, id, fault, &config, 2025);
        assert_eq!(format!("{rec_dsl:?}"), format!("{rec_hc:?}"), "{id:?}");
        assert_eq!(trace_dsl.to_bytes(), trace_hc.to_bytes(), "{id:?}");
    }
}

#[test]
fn dsl_campaigns_match_hardcoded_at_every_width_and_thread_count() {
    // The production campaign runner (scalar, batched SoA, any worker
    // count) builds scenarios through the DSL catalog; the reference here
    // is computed serially from the hard-coded constructors.
    let mut config = PlatformConfig::with_interventions(InterventionConfig::driver_and_check());
    config.max_steps = 1_500;
    let fault = Some(FaultType::DesiredCurvature);
    let reference: Vec<(RunId, RunRecord)> = grid()
        .into_iter()
        .map(|id| (id, run_with(HARDCODED, id, fault, &config, 2025)))
        .collect();
    for threads in [1, 4] {
        let _env = threads_guard(threads);
        for width in [1, 4, 32] {
            let campaign = lockstep_campaign(fault, &config, width);
            assert_eq!(
                format!("{reference:?}"),
                format!("{campaign:?}"),
                "threads={threads} width={width}: DSL campaign drifted from \
                 the hard-coded reference"
            );
        }
    }
}

#[test]
fn served_campaigns_match_hardcoded_direct_execution() {
    // The serve daemon compiles scenarios from the DSL catalog on its
    // executor thread; the reference is the hard-coded constructor run
    // in-process. One immediate spec, one context-scheduled spec — the
    // scheduler must cross the wire intact (spec v3).
    use adas_serve::{Client, JobState, Server, ServerConfig};

    let specs = [
        CampaignSpec {
            campaign_seed: 7_082_025,
            repetitions: 2,
            max_steps: 1_500,
            scenario_mask: 0b00_1001, // S1 + S4
            attack: AttackScheduler::Immediate,
            cells: vec![
                CellSpec {
                    fault: Some(FaultType::RelativeDistance),
                    interventions: InterventionConfig::none(),
                },
                CellSpec {
                    fault: Some(FaultType::RelativeDistance),
                    interventions: InterventionConfig::driver_and_check(),
                },
            ],
        },
        CampaignSpec {
            campaign_seed: 7_082_025,
            repetitions: 2,
            max_steps: 1_500,
            scenario_mask: 0b10_0001, // S1 + S6
            attack: AttackScheduler::Context(ContextTrigger::ttc(4.0)),
            cells: vec![CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::driver_only(),
            }],
        },
    ];
    let reference: Vec<Vec<Vec<u8>>> = specs
        .iter()
        .map(|spec| {
            let ids = spec.run_ids();
            spec.cells
                .iter()
                .map(|cell| {
                    let config = spec.config_for(cell);
                    let records: Vec<RunRecord> = ids
                        .iter()
                        .map(|id| run_with(HARDCODED, *id, cell.fault, &config, spec.campaign_seed))
                        .collect();
                    CellStats::from_records(&records).to_bytes()
                })
                .collect()
        })
        .collect();

    for threads in [1, 4] {
        let _env = threads_guard(threads);
        let trace_dir =
            std::env::temp_dir().join(format!("adas-scn-equiv-{}-{threads}", std::process::id()));
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 4,
            cache: openadas::core::ArtifactCache::disabled(),
            trace_dir,
            model_spec: openadas::ml::ModelSpec::default(),
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || server.run());

        for (spec, expected) in specs.iter().zip(&reference) {
            let mut client = Client::connect(&addr).expect("connect");
            let result = client
                .run_campaign(spec, |_, _| {})
                .expect("protocol ok")
                .expect("accepted");
            assert_eq!(result.state, JobState::Done);
            let wire: Vec<Vec<u8>> = result
                .cells
                .into_iter()
                .map(|(_, s)| s.to_bytes())
                .collect();
            assert_eq!(
                &wire, expected,
                "threads={threads}: served cells drifted from the hard-coded \
                 direct reference (attack={:?})",
                spec.attack
            );
        }
        Client::connect(&addr)
            .expect("connect")
            .shutdown()
            .expect("shutdown ack");
        handle.join().expect("join").expect("clean exit");
    }
}

#[test]
fn scheduled_campaigns_are_deterministic_across_reruns_threads_and_widths() {
    let mut config = PlatformConfig::with_interventions(InterventionConfig::driver_only());
    config.max_steps = 1_500;
    config.attack = AttackScheduler::Context(ContextTrigger {
        ttc_below: Some(3.0),
        lane_excursion_above: None,
        curvature_above: Some(1.0e-3),
        arm_after: 5.0,
    });
    let fault = Some(FaultType::Mixed);
    let baseline: Vec<(RunId, RunRecord)> = grid()
        .into_iter()
        .map(|id| (id, run_single(id, fault, &config, None, 2025)))
        .collect();
    for threads in [1, 4] {
        let _env = threads_guard(threads);
        for width in [1, 4, 32] {
            let rerun = lockstep_campaign(fault, &config, width);
            assert_eq!(
                format!("{baseline:?}"),
                format!("{rerun:?}"),
                "threads={threads} width={width}: scheduled campaign not deterministic"
            );
        }
    }
}

#[test]
fn the_scheduler_latch_fires_at_most_once_per_run() {
    // One-shot latch property, observed through the flight recorder: the
    // per-sample `fault_active` flag may rise at most once per run (the
    // window closes when the attack duration expires — it never re-arms).
    let mut config = PlatformConfig::with_interventions(InterventionConfig::driver_only());
    config.max_steps = 2_500;
    config.attack = AttackScheduler::Context(ContextTrigger::ttc(4.0));
    let fault = Some(FaultType::RelativeDistance);
    let mut total_rising_edges = 0usize;
    for id in grid() {
        let (_, trace) = run_traced_with(DSL, id, fault, &config, 2025);
        let mut rising = 0usize;
        let mut prev = false;
        for sample in &trace.samples {
            if sample.fault_active && !prev {
                rising += 1;
            }
            prev = sample.fault_active;
        }
        assert!(
            rising <= 1,
            "{id:?}: scheduler latch re-armed ({rising} activations)"
        );
        total_rising_edges += rising;
    }
    assert!(
        total_rising_edges >= 1,
        "no run ever triggered the scheduled patch — latch property untested"
    );
}

#[test]
fn ttc_scheduling_strictly_dominates_the_immediate_patch_on_a_committed_scenario() {
    // Regression for the paper-level finding: a context-scheduled patch
    // (fire when TTC collapses) can strictly escalate severity over the
    // fixed-offset immediate patch. The fuzzer found such a case; it is
    // committed under repros/ and must keep reproducing.
    use adas_fuzz::{run_case, severity, OracleKind, Repro};

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("repros");
    let mut dominance_repros = 0usize;
    for entry in std::fs::read_dir(&dir).expect("repros/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let repro = Repro::load(&path).expect("repro parses");
        if repro.oracle != OracleKind::ScheduleDominance {
            continue;
        }
        dominance_repros += 1;
        assert!(
            repro.case.sched_ttc > 0.0,
            "{}: dominance repro must carry a TTC trigger",
            path.display()
        );
        let (scheduled, _) = run_case(&repro.case, repro.seed);
        let mut immediate_case = repro.case;
        immediate_case.sched_ttc = 0.0;
        let (immediate, _) = run_case(&immediate_case, repro.seed);
        assert!(
            severity(&scheduled) > severity(&immediate),
            "{}: scheduled severity {} must strictly dominate immediate {}",
            path.display(),
            severity(&scheduled),
            severity(&immediate)
        );
    }
    assert!(
        dominance_repros >= 1,
        "at least one schedule-dominance repro must stay committed"
    );
}
