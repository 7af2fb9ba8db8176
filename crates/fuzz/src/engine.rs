//! The deterministic fuzzing loop: seed → mutate → evaluate (in parallel)
//! → collect coverage and findings → shrink.
//!
//! Determinism is load-bearing (it is what makes findings replayable):
//! candidate batches are generated serially from one RNG, evaluated in
//! submission order at any worker count and `ADAS_BATCH` width — primaries
//! step through the lockstep driver, bit-identical to [`evaluate`] — and
//! folded into the corpus serially. The only
//! non-deterministic knob is the optional wall-clock budget, which is
//! checked at batch boundaries — use the run budget when reproducibility
//! matters and the time budget only as a CI backstop.

use crate::case::{
    case_platform, finish_case, run_case, run_case_with, FuzzCase, ATTACK_START_RANGE, IV_ROWS,
};
use crate::coverage::Signature;
use crate::oracle::{
    check_metamorphic, check_regression, check_schedule_dominance, check_trace, severity,
    OracleKind, Violation,
};
use crate::shrink::shrink;
use adas_attack::FaultType;
use adas_core::{MitigationKind, PlatformConfig};
use adas_recorder::Trace;
use adas_safety::AebsMode;
use adas_scenarios::{InitialPosition, RunRecord, ScenarioId};
use adas_simulator::DeterministicRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Patch-shift distance for the metamorphic oracle, metres.
pub const METAMORPHIC_SHIFT_M: f64 = 25.0;

/// Fuzzing session parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzConfig {
    /// Campaign seed: drives scenario jitter, mutation, everything.
    pub seed: u64,
    /// Total run budget (primary runs plus oracle reruns).
    pub max_runs: u64,
    /// Candidates evaluated per parallel batch.
    pub batch: usize,
    /// Optional wall-clock budget, seconds (checked at batch boundaries;
    /// makes the *cutoff* time-dependent, so prefer `max_runs` when the
    /// session must be reproducible).
    pub max_secs: Option<f64>,
    /// Bisection iterations per finding during shrinking.
    pub shrink_steps: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 2025,
            max_runs: 400,
            batch: 24,
            max_secs: None,
            shrink_steps: 10,
        }
    }
}

/// Everything learned from evaluating one candidate.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The candidate.
    pub case: FuzzCase,
    /// Primary-run record.
    pub record: RunRecord,
    /// Behavioural signature of the primary run.
    pub signature: Signature,
    /// Oracle violations (trace-level, differential, metamorphic).
    pub violations: Vec<Violation>,
    /// Simulation runs consumed (1 + oracle reruns).
    pub runs_used: u64,
}

/// Intervention ablations for the differential oracle: the same platform
/// with one enabled channel turned off, labelled.
fn ablations(config: &PlatformConfig) -> Vec<(&'static str, PlatformConfig)> {
    let iv = config.interventions;
    let mut out = Vec::new();
    if iv.driver {
        let mut c = *config;
        c.interventions.driver = false;
        out.push(("driver", c));
    }
    if iv.safety_check {
        let mut c = *config;
        c.interventions.safety_check = false;
        out.push(("safety-check", c));
    }
    if iv.aebs != AebsMode::Disabled {
        let mut c = *config;
        c.interventions.aebs = AebsMode::Disabled;
        out.push(("aebs", c));
    }
    if iv.ml {
        let mut c = *config;
        c.interventions.ml = false;
        // Channel named by the active strategy: a regression caused by the
        // uncertainty ensemble must not be filed against the CUSUM
        // baseline.
        out.push((
            match iv.mitigation {
                MitigationKind::Cusum => "ml-cusum",
                MitigationKind::Ensemble => "ml-ensemble",
                MitigationKind::MaskCheck => "ml-maskcheck",
            },
            c,
        ));
    }
    out
}

/// Evaluates one candidate against every oracle. The differential oracle
/// reruns accident cases once per enabled intervention; the metamorphic
/// oracle reruns benign curvature-attack cases with the patch shifted.
#[must_use]
pub fn evaluate(case: &FuzzCase, seed: u64) -> Evaluation {
    let (record, trace) = run_case(case, seed);
    evaluate_with_primary(case, seed, record, &trace)
}

/// Oracle phase of [`evaluate`], given an already-executed primary run.
/// Shared by [`evaluate`] and the lockstep batch path, which differ only in
/// how the primary was produced (the outputs are bit-identical).
fn evaluate_with_primary(
    case: &FuzzCase,
    seed: u64,
    record: RunRecord,
    trace: &Trace,
) -> Evaluation {
    let config = case.config();
    let mut violations = check_trace(&config, &record, trace);
    let mut runs_used = 1;

    if severity(&record) > 0 {
        for (channel, ablated) in ablations(&config) {
            let (ablated_record, _) = run_case_with(case, seed, &ablated);
            runs_used += 1;
            if let Some(v) = check_regression(&record, channel, &ablated_record) {
                violations.push(v);
                break;
            }
        }
    }

    if case.sched_ttc > 0.0 && case.fault.is_some() {
        // Compare against the identical case with the always-armed patch:
        // a strictly worse outcome means the context trigger dominates.
        let mut immediate = *case;
        immediate.sched_ttc = 0.0;
        let (immediate_record, _) = run_case(&immediate, seed);
        runs_used += 1;
        if let Some(v) = check_schedule_dominance(&record, &immediate_record) {
            violations.push(v);
        }
    }

    if case.fault == Some(FaultType::DesiredCurvature)
        && record.prevented()
        && case.attack_start_offset + METAMORPHIC_SHIFT_M <= ATTACK_START_RANGE.1
    {
        let mut shifted = *case;
        shifted.attack_start_offset += METAMORPHIC_SHIFT_M;
        let (_, shifted_trace) = run_case(&shifted, seed);
        runs_used += 1;
        if let Some(v) = check_metamorphic(trace, &shifted_trace, METAMORPHIC_SHIFT_M) {
            violations.push(v);
        }
    }

    Evaluation {
        case: *case,
        signature: Signature::of(case, &record, trace.outcome.end),
        record,
        violations,
        runs_used,
    }
}

/// Evaluates one candidate batch at lockstep `width`: the primary traced
/// runs step in lockstep (fuzz rows exclude the ML intervention, so no
/// model panel is needed) and the oracle phase — trace checks plus the
/// conditional single-run reruns — fans out over the finished primaries.
/// Both phases preserve submission order, so a session folds to the same
/// corpus and findings at any width.
fn evaluate_batch(batch: &[FuzzCase], seed: u64, width: usize) -> Vec<Evaluation> {
    let primaries = adas_core::run_lockstep_ctl(
        batch,
        width,
        None,
        |_, c| case_platform(c, seed, &c.config()),
        |_, c, end, platform| finish_case(c, seed, &c.config(), end, platform),
        &adas_core::parallel::MapControl::new(),
    )
    .expect("uncancelled batch completed");
    let paired: Vec<(FuzzCase, RunRecord, Trace)> = batch
        .iter()
        .zip(primaries)
        .map(|(c, (record, trace))| (*c, record, trace))
        .collect();
    adas_core::parallel::map(&paired, |_, (c, record, trace)| {
        evaluate_with_primary(c, seed, record.clone(), trace)
    })
}

/// One confirmed, shrunk finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which property broke.
    pub oracle: OracleKind,
    /// The case as first found.
    pub found: FuzzCase,
    /// The case after bisection toward the benign neighbour.
    pub shrunk: FuzzCase,
    /// The violation as reported on the shrunk case.
    pub violation: Violation,
    /// Behavioural signature of the shrunk case's primary run.
    pub signature: Signature,
}

/// Result of one fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The session configuration.
    pub config: FuzzConfig,
    /// Simulation runs executed (including oracle reruns and shrinking).
    pub runs: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Final corpus: one representative case per behavioural signature.
    pub corpus: Vec<(Signature, FuzzCase)>,
    /// Corpus size after each batch, as `(runs so far, corpus size)` —
    /// the coverage-growth curve.
    pub coverage_growth: Vec<(u64, usize)>,
    /// Shrunk findings, one per (oracle, grid cell).
    pub findings: Vec<Finding>,
    /// True when the wall-clock budget cut the session short.
    pub hit_time_budget: bool,
}

#[derive(Debug, Clone, Copy)]
struct CorpusEntry {
    case: FuzzCase,
    clean: bool,
}

/// The deterministic seed corpus: every scenario × the no-fault baseline
/// plus all three fault types × the first four Table VI rows, Near spawn.
fn seed_cases() -> Vec<FuzzCase> {
    let mut out = Vec::new();
    for scenario in ScenarioId::ALL {
        for fault in [
            None,
            Some(FaultType::RelativeDistance),
            Some(FaultType::DesiredCurvature),
            Some(FaultType::Mixed),
        ] {
            for iv_row in 0..4 {
                out.push(FuzzCase::baseline(
                    scenario,
                    InitialPosition::Near,
                    iv_row,
                    fault,
                ));
            }
        }
    }
    out
}

/// Derives one mutant from the corpus.
fn mutate(rng: &mut DeterministicRng, corpus: &BTreeMap<Signature, CorpusEntry>) -> FuzzCase {
    let idx = (rng.next_u64() % corpus.len() as u64) as usize;
    let mut case = corpus
        .values()
        .nth(idx)
        .expect("corpus index in range")
        .case;

    // Occasionally jump to a different grid cell (scenario/fault/row/…);
    // always wiggle 1–3 continuous parameters.
    if rng.chance(0.30) {
        match rng.next_u64() % 5 {
            0 => {
                case.scenario = ScenarioId::ALL[(rng.next_u64() % 6) as usize];
            }
            1 => {
                case.position = InitialPosition::ALL[(rng.next_u64() % 2) as usize];
            }
            2 => {
                case.iv_row = (rng.next_u64() % IV_ROWS as u64) as usize;
            }
            3 => {
                case.fault = match rng.next_u64() % 4 {
                    0 => None,
                    1 => Some(FaultType::RelativeDistance),
                    2 => Some(FaultType::DesiredCurvature),
                    _ => Some(FaultType::Mixed),
                };
            }
            _ => {
                case.repetition = (rng.next_u64() % 4) as u32;
            }
        }
    }
    let tweaks = 1 + rng.next_u64() % 3;
    for _ in 0..tweaks {
        match rng.next_u64() % 9 {
            0 => case.ego_speed_delta += rng.gaussian(2.0),
            1 => case.friction += rng.gaussian(0.15),
            2 => case.attack_start_offset += rng.gaussian(40.0),
            3 => case.attack_duration += rng.gaussian(5.0),
            4 => case.attack_intensity += rng.gaussian(0.4),
            5 => case.attack_direction = -case.attack_direction,
            6 => case.trigger_offset += rng.gaussian(3.0),
            7 => {
                // Toggle/retune the context trigger: off → a mid-range TTC
                // threshold, on → wander (the clamp floor at 0 disarms it).
                case.sched_ttc = if case.sched_ttc > 0.0 {
                    case.sched_ttc + rng.gaussian(1.0)
                } else {
                    2.5 + rng.gaussian(1.0)
                };
            }
            _ => case.ego_speed_delta += rng.gaussian(0.5),
        }
    }
    case.clamped()
}

/// The benign neighbour used as the shrink target: the first clean corpus
/// case in the same grid cell, falling back to the cell's paper-default
/// baseline.
fn benign_neighbour(corpus: &BTreeMap<Signature, CorpusEntry>, case: &FuzzCase) -> FuzzCase {
    corpus
        .values()
        .find(|e| e.clean && e.case.cell_key() == case.cell_key())
        .map_or_else(
            || {
                let mut b =
                    FuzzCase::baseline(case.scenario, case.position, case.iv_row, case.fault);
                b.repetition = case.repetition;
                b
            },
            |e| e.case,
        )
}

/// Runs one fuzzing session to its budget and returns corpus + findings.
#[must_use]
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut rng = DeterministicRng::from_seed(config.seed ^ 0xF0_22_AD_A5);
    let mut corpus: BTreeMap<Signature, CorpusEntry> = BTreeMap::new();
    // First violation per (oracle, grid cell): dedup so one systematic
    // defect does not flood the report.
    let mut pending: BTreeMap<(u64, u64), (FuzzCase, Violation)> = BTreeMap::new();
    let mut coverage_growth = Vec::new();
    let seeds = seed_cases();
    let mut next_seed = 0usize;
    let mut runs = 0u64;
    let mut batches = 0u64;
    let mut hit_time_budget = false;

    while runs < config.max_runs {
        if let Some(budget) = config.max_secs {
            if start.elapsed().as_secs_f64() >= budget {
                hit_time_budget = true;
                break;
            }
        }
        let size = config
            .batch
            .max(1)
            .min(usize::try_from(config.max_runs - runs).unwrap_or(usize::MAX));
        let batch: Vec<FuzzCase> = (0..size)
            .map(|_| {
                if next_seed < seeds.len() {
                    next_seed += 1;
                    seeds[next_seed - 1]
                } else {
                    mutate(&mut rng, &corpus)
                }
            })
            .collect();
        let evals = evaluate_batch(&batch, config.seed, adas_core::parallel::batch_width());
        batches += 1;
        for eval in evals {
            runs += eval.runs_used;
            let clean = eval.violations.is_empty();
            corpus.entry(eval.signature).or_insert(CorpusEntry {
                case: eval.case,
                clean,
            });
            for v in eval.violations {
                pending
                    .entry((v.oracle.code(), eval.case.cell_key()))
                    .or_insert((eval.case, v));
            }
        }
        coverage_growth.push((runs, corpus.len()));
    }

    // Shrink every retained finding (serial: bisection is inherently
    // sequential and the finding count is small).
    let mut findings = Vec::new();
    for (case, violation) in pending.into_values() {
        let benign = benign_neighbour(&corpus, &case);
        let outcome = shrink(
            &case,
            violation.oracle,
            &benign,
            config.seed,
            config.shrink_steps,
        );
        runs += outcome.runs_used;
        findings.push(Finding {
            oracle: violation.oracle,
            found: case,
            shrunk: outcome.case,
            violation: outcome.violation,
            signature: outcome.signature,
        });
    }

    FuzzReport {
        config: *config,
        runs,
        batches,
        corpus: corpus.into_iter().map(|(k, e)| (k, e.case)).collect(),
        coverage_growth,
        findings,
        hit_time_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_corpus_covers_every_scenario_and_fault() {
        let seeds = seed_cases();
        assert_eq!(seeds.len(), 6 * 4 * 4);
        for s in ScenarioId::ALL {
            assert!(seeds.iter().any(|c| c.scenario == s));
        }
        assert!(seeds.iter().any(|c| c.fault.is_none()));
        assert!(seeds.iter().any(|c| c.fault == Some(FaultType::Mixed)));
    }

    #[test]
    fn mutants_stay_in_bounds() {
        let mut rng = DeterministicRng::from_seed(7);
        let mut corpus = BTreeMap::new();
        corpus.insert(
            Signature(0),
            CorpusEntry {
                case: FuzzCase::baseline(ScenarioId::S1, InitialPosition::Near, 0, None),
                clean: true,
            },
        );
        for _ in 0..500 {
            let m = mutate(&mut rng, &corpus);
            assert_eq!(m, m.clamped(), "mutant escaped the clamp: {m:?}");
        }
    }

    #[test]
    fn small_session_is_deterministic() {
        let cfg = FuzzConfig {
            seed: 11,
            max_runs: 12,
            batch: 4,
            max_secs: None,
            shrink_steps: 3,
        };
        let a = fuzz(&cfg);
        let b = fuzz(&cfg);
        assert_eq!(format!("{:?}", a.corpus), format!("{:?}", b.corpus));
        assert_eq!(format!("{:?}", a.findings), format!("{:?}", b.findings));
        assert_eq!(a.runs, b.runs);
        assert!(!a.corpus.is_empty());
    }

    #[test]
    fn batched_evaluation_matches_scalar() {
        // Mixed batch: benign, curvature (metamorphic-eligible), mixed
        // fault across intervention rows — exercises every oracle branch.
        let batch: Vec<FuzzCase> = [
            (ScenarioId::S1, 0, None),
            (ScenarioId::S2, 1, Some(FaultType::DesiredCurvature)),
            (ScenarioId::S4, 3, Some(FaultType::Mixed)),
            (ScenarioId::S5, 2, Some(FaultType::RelativeDistance)),
            (ScenarioId::S6, 4, Some(FaultType::DesiredCurvature)),
        ]
        .into_iter()
        .map(|(s, row, fault)| FuzzCase::baseline(s, InitialPosition::Near, row, fault))
        .collect();
        let scalar: Vec<Evaluation> = batch.iter().map(|c| evaluate(c, 11)).collect();
        for width in [1, 3, 32] {
            let batched = evaluate_batch(&batch, 11, width);
            assert_eq!(
                format!("{scalar:?}"),
                format!("{batched:?}"),
                "width {width} diverged from scalar"
            );
        }
    }

    #[test]
    fn ablations_follow_the_enabled_set() {
        let full = FuzzCase::baseline(ScenarioId::S1, InitialPosition::Near, 3, None).config();
        let names: Vec<_> = ablations(&full).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["driver", "safety-check", "aebs"]);
        let none = FuzzCase::baseline(ScenarioId::S1, InitialPosition::Near, 0, None).config();
        assert!(ablations(&none).is_empty());
    }

    #[test]
    fn ml_ablation_channel_is_named_by_strategy() {
        use adas_core::InterventionConfig;
        for (iv, expect) in [
            (InterventionConfig::ml_only(), "ml-cusum"),
            (InterventionConfig::ensemble_only(), "ml-ensemble"),
            (InterventionConfig::maskcheck_only(), "ml-maskcheck"),
        ] {
            let cfg = PlatformConfig::with_interventions(iv);
            let chans = ablations(&cfg);
            let names: Vec<_> = chans.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, vec![expect], "{iv:?}");
            // The ablated config actually disables the channel (and keeps
            // the strategy selection, so reruns stay comparable).
            let (_, ablated) = chans[0];
            assert!(!ablated.interventions.ml);
            assert_eq!(ablated.interventions.mitigation, iv.mitigation);
        }
    }
}
