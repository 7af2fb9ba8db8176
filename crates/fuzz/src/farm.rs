//! Fleet fuzzing: the shared job/finding model for the continuous farm.
//!
//! A farm job is a set of session seeds plus one [`FuzzConfig`]-shaped
//! budget; each seed runs an independent coverage-guided session (on one
//! worker, or fanned out across a fleet), and the results fold into a
//! single deduplicated finding set. Everything here is deterministic and
//! *shared* between the serve daemon and the fabric coordinator — the
//! fold is the same code in both, keyed by `(oracle, behavioural
//! signature)` with first-write-wins in global seed order, which is what
//! makes a 4-worker farm produce byte-identical findings to a single
//! worker running the same seeds.
//!
//! Wire codecs use the workspace codec ([`adas_codec`]), like the campaign
//! job codec in `adas_core::job`, so the serve protocol can carry specs and
//! outcomes as opaque payloads.

use crate::case::{run_case, FuzzCase};
use crate::engine::{fuzz, FuzzConfig, FuzzReport};
use crate::oracle::OracleKind;
use crate::repro::Repro;
use adas_codec::{DecodeError, Reader, Writer};
use adas_recorder::Trace;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Ceiling on seeds per job: a farm dispatches sessions, not runs, so
/// this bounds a submission the same way `MAX_CELLS` bounds a campaign.
pub const MAX_SEEDS: usize = 4_096;

/// One fuzz-farm job: the session seeds to run and the per-session
/// budget. Every session uses the same budget; the seed is the only
/// thing that varies, so any partition of `seeds` across workers folds
/// back to the same result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzJobSpec {
    /// Session seeds, in global fold order (first-write-wins dedup
    /// resolves ties toward earlier seeds in this list).
    pub seeds: Vec<u64>,
    /// Run budget per session (primary runs plus oracle reruns).
    pub max_runs: u64,
    /// Candidates per batch.
    pub batch: u32,
    /// Shrink bisection iterations per finding.
    pub shrink_steps: u32,
    /// Optional wall-clock budget per session, milliseconds; 0 = none.
    /// Non-zero makes the *cutoff* time-dependent (the findings that are
    /// found remain deterministic per seed) — CI smoke uses it, the
    /// determinism suite does not.
    pub max_secs_ms: u32,
}

impl FuzzJobSpec {
    /// A small default job over `n` consecutive seeds.
    #[must_use]
    pub fn quick(first_seed: u64, n: usize) -> Self {
        Self {
            seeds: (0..n as u64).map(|i| first_seed.wrapping_add(i)).collect(),
            max_runs: 120,
            batch: 24,
            shrink_steps: 6,
            max_secs_ms: 0,
        }
    }

    /// Structural sanity: bounded, non-empty, duplicate-free seed list
    /// and a non-zero budget.
    #[must_use]
    pub fn validate(&self) -> bool {
        !self.seeds.is_empty()
            && self.seeds.len() <= MAX_SEEDS
            && self.seeds.iter().collect::<BTreeSet<_>>().len() == self.seeds.len()
            && self.max_runs > 0
            && self.batch > 0
    }

    /// The engine configuration for one of this job's sessions.
    #[must_use]
    pub fn config_for(&self, seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            max_runs: self.max_runs,
            batch: self.batch.max(1) as usize,
            max_secs: (self.max_secs_ms > 0).then(|| f64::from(self.max_secs_ms) / 1000.0),
            shrink_steps: self.shrink_steps,
        }
    }

    /// Serialises for the wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(u32::try_from(self.seeds.len()).unwrap_or(u32::MAX));
        for s in &self.seeds {
            w.u64(*s);
        }
        w.u64(self.max_runs);
        w.u32(self.batch);
        w.u32(self.shrink_steps);
        w.u32(self.max_secs_ms);
        w.into_bytes()
    }

    /// Parses [`Self::to_bytes`] output; `None` on any malformation.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let spec = Self::decode(&mut r).ok()?;
        r.finish().ok()?;
        Some(spec)
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u32()?;
        let n = r.fits(u64::from(n), 8)?;
        if n > MAX_SEEDS {
            return Err(r.invalid());
        }
        Ok(Self {
            seeds: (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?,
            max_runs: r.u64()?,
            batch: r.u32()?,
            shrink_steps: r.u32()?,
            max_secs_ms: r.u32()?,
        })
    }
}

/// One shrunk finding as shipped across the fleet: the violating case,
/// which oracle fired, the behavioural signature that keys fleet-wide
/// dedup, and the full flight-recorder trace of the shrunk run so the
/// coordinator can persist a replayable repro without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmFinding {
    /// Seed of the session that found it (becomes the repro's seed).
    pub session_seed: u64,
    /// Which property broke.
    pub oracle: OracleKind,
    /// The shrunk violating case.
    pub shrunk: FuzzCase,
    /// Violation text as reported on the shrunk case.
    pub detail: String,
    /// Behavioural signature of the shrunk case's primary run — the
    /// fleet-wide dedup key (together with the oracle).
    pub signature: u64,
    /// Serialised [`Trace`] of the shrunk run ([`Trace::to_bytes`]).
    pub trace: Vec<u8>,
}

impl FarmFinding {
    /// The fleet-wide dedup key: two findings with the same oracle and
    /// the same behavioural signature are the same defect.
    #[must_use]
    pub fn dedup_key(&self) -> (u64, u64) {
        (self.oracle.code(), self.signature)
    }

    /// Serialises onto an existing writer.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.session_seed);
        w.u8(self.oracle.code() as u8);
        w.put(&self.shrunk);
        w.blob(self.detail.as_bytes());
        w.u64(self.signature);
        w.blob(&self.trace);
    }

    /// Parses [`Self::encode`] output.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let session_seed = r.u64()?;
        let oracle = r.code(|c| OracleKind::ALL.get(usize::from(c)).copied())?;
        let shrunk = FuzzCase::decode(r)?;
        let at = r.pos();
        let detail = String::from_utf8(r.blob()?.to_vec()).map_err(|_| DecodeError {
            offset: at,
            needed: 0,
        })?;
        let signature = r.u64()?;
        let trace = r.blob()?.to_vec();
        Ok(Self {
            session_seed,
            oracle,
            shrunk,
            detail,
            signature,
            trace,
        })
    }

    /// Builds the replayable [`Repro`] + [`Trace`] pair for persistence.
    /// Fails only if the shipped trace bytes are damaged.
    pub fn to_repro(&self) -> Result<(Repro, Trace), String> {
        let trace = Trace::from_bytes(&self.trace).map_err(|e| format!("{e:?}"))?;
        Ok((
            Repro {
                case: self.shrunk,
                seed: self.session_seed,
                oracle: self.oracle,
                detail: self.detail.clone(),
                signature: self.signature,
                trace_file: None,
            },
            trace,
        ))
    }
}

/// Everything one completed session reports back to its caller.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The session's seed.
    pub seed: u64,
    /// Simulation runs executed.
    pub runs: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Final corpus size (distinct behavioural signatures).
    pub corpus: u64,
    /// True when the wall-clock budget cut the session short.
    pub hit_time_budget: bool,
    /// Shrunk findings, in the engine's deterministic order.
    pub findings: Vec<FarmFinding>,
}

impl SessionOutcome {
    /// Serialises for the wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.seed);
        w.u64(self.runs);
        w.u64(self.batches);
        w.u64(self.corpus);
        w.bool(self.hit_time_budget);
        w.u32(u32::try_from(self.findings.len()).unwrap_or(u32::MAX));
        for f in &self.findings {
            f.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Parses [`Self::to_bytes`] output; `None` on any malformation.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let out = Self::decode(&mut r).ok()?;
        r.finish().ok()?;
        Some(out)
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let seed = r.u64()?;
        let runs = r.u64()?;
        let batches = r.u64()?;
        let corpus = r.u64()?;
        let hit_time_budget = r.bool()?;
        let n = r.u32()? as usize;
        if n > 65_536 {
            return Err(r.invalid());
        }
        let mut findings = Vec::with_capacity(n.min(1_024));
        for _ in 0..n {
            findings.push(FarmFinding::decode(r)?);
        }
        Ok(Self {
            seed,
            runs,
            batches,
            corpus,
            hit_time_budget,
            findings,
        })
    }
}

/// Runs one time-boxed coverage-guided session and packages the result
/// for the fleet: every shrunk finding is re-executed once to capture
/// its flight-recorder trace (the engine discards traces after oracle
/// checks), so the outcome is self-contained.
#[must_use]
pub fn run_session(spec: &FuzzJobSpec, seed: u64) -> SessionOutcome {
    let report = fuzz(&spec.config_for(seed));
    outcome_of(seed, &report)
}

/// Packages an already-run [`FuzzReport`] as a [`SessionOutcome`].
#[must_use]
pub fn outcome_of(seed: u64, report: &FuzzReport) -> SessionOutcome {
    let findings = report
        .findings
        .iter()
        .map(|f| {
            let (_, trace) = run_case(&f.shrunk, seed);
            FarmFinding {
                session_seed: seed,
                oracle: f.oracle,
                shrunk: f.shrunk,
                detail: f.violation.detail.clone(),
                signature: f.signature.0,
                trace: trace.to_bytes(),
            }
        })
        .collect();
    SessionOutcome {
        seed,
        runs: report.runs,
        batches: report.batches,
        corpus: report.corpus.len() as u64,
        hit_time_budget: report.hit_time_budget,
        findings,
    }
}

/// The fleet-level fold of a farm job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FarmSummary {
    /// Sessions folded.
    pub sessions: u64,
    /// Total simulation runs across sessions.
    pub runs: u64,
    /// Sum of per-session corpus sizes (sessions do not share corpora).
    pub corpus: u64,
    /// Sessions cut short by their wall-clock budget.
    pub time_boxed: u64,
    /// Findings discarded as duplicates of an earlier session's finding.
    pub dedup_hits: u64,
    /// The deduplicated finding set, in global seed order.
    pub findings: Vec<FarmFinding>,
}

impl FarmSummary {
    /// Finding counts per oracle, in [`OracleKind::ALL`] order.
    #[must_use]
    pub fn by_oracle(&self) -> [u64; 6] {
        let mut out = [0u64; 6];
        for f in &self.findings {
            out[f.oracle.code() as usize] += 1;
        }
        out
    }
}

/// Folds session outcomes into the fleet-wide deduplicated finding set.
///
/// Outcomes are visited in `spec.seeds` order — *not* arrival order — and
/// within a session in the engine's deterministic finding order; the
/// first finding to claim an `(oracle, signature)` key wins. This is the
/// same first-write-wins discipline the grid merge uses for cells, and it
/// is what makes the fold independent of worker count, scheduling, and
/// which worker ran which seed. Sessions missing from `outcomes` (a dead
/// worker whose seeds were re-run elsewhere would never leave one
/// missing; a truly lost session would) are skipped.
#[must_use]
pub fn fold(spec: &FuzzJobSpec, outcomes: &[SessionOutcome]) -> FarmSummary {
    let mut summary = FarmSummary::default();
    let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
    for seed in &spec.seeds {
        let Some(outcome) = outcomes.iter().find(|o| o.seed == *seed) else {
            continue;
        };
        summary.sessions += 1;
        summary.runs += outcome.runs;
        summary.corpus += outcome.corpus;
        summary.time_boxed += u64::from(outcome.hit_time_budget);
        for finding in &outcome.findings {
            if seen.insert(finding.dedup_key()) {
                summary.findings.push(finding.clone());
            } else {
                summary.dedup_hits += 1;
            }
        }
    }
    summary
}

/// Persists every deduplicated finding as a replayable repro under
/// `dir`, returning the written TOML paths. Existing files are
/// overwritten (same finding → same stem → same bytes).
pub fn save_repros(findings: &[FarmFinding], dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::with_capacity(findings.len());
    for finding in findings {
        let (mut repro, trace) = finding.to_repro()?;
        paths.push(repro.save(dir, &trace)?);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_attack::FaultType;
    use adas_scenarios::{InitialPosition, ScenarioId};

    fn spec() -> FuzzJobSpec {
        FuzzJobSpec {
            seeds: vec![11, 12, 13, 14],
            max_runs: 40,
            batch: 8,
            shrink_steps: 3,
            max_secs_ms: 0,
        }
    }

    #[test]
    fn spec_round_trips_and_validates() {
        let s = spec();
        assert!(s.validate());
        assert_eq!(FuzzJobSpec::from_bytes(&s.to_bytes()), Some(s.clone()));
        let mut dup = s.clone();
        dup.seeds.push(11);
        assert!(!dup.validate());
        assert!(!FuzzJobSpec { seeds: vec![], ..s }.validate());
        assert_eq!(FuzzJobSpec::from_bytes(&[1, 2, 3]), None);
    }

    #[test]
    fn case_codec_is_bit_exact() {
        let mut case = FuzzCase::baseline(
            ScenarioId::S4,
            InitialPosition::Far,
            5,
            Some(FaultType::Mixed),
        );
        case.friction = 0.300_000_000_000_000_04;
        case.ego_speed_delta = -std::f64::consts::PI;
        case.sched_ttc = 2.5;
        let mut w = Writer::new();
        w.put(&case);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = FuzzCase::decode(&mut r).unwrap();
        assert!(r.exhausted());
        assert_eq!(back, case);
        assert_eq!(back.friction.to_bits(), case.friction.to_bits());
    }

    #[test]
    fn outcome_round_trips_with_findings() {
        let case = FuzzCase::baseline(ScenarioId::S1, InitialPosition::Near, 2, None);
        let outcome = SessionOutcome {
            seed: 77,
            runs: 123,
            batches: 9,
            corpus: 31,
            hit_time_budget: true,
            findings: vec![FarmFinding {
                session_seed: 77,
                oracle: OracleKind::HazardOrdering,
                shrunk: case,
                detail: "accident with no prior hazard\nflag".into(),
                signature: 0xDEAD_BEEF,
                trace: vec![1, 2, 3, 4],
            }],
        };
        assert_eq!(
            SessionOutcome::from_bytes(&outcome.to_bytes()),
            Some(outcome)
        );
        assert_eq!(SessionOutcome::from_bytes(&[]), None);
    }

    #[test]
    fn fold_is_first_write_wins_in_seed_order() {
        let s = spec();
        let case = FuzzCase::baseline(ScenarioId::S2, InitialPosition::Near, 1, None);
        let finding = |seed: u64, sig: u64| FarmFinding {
            session_seed: seed,
            oracle: OracleKind::AebNoAccel,
            shrunk: case,
            detail: format!("from seed {seed}"),
            signature: sig,
            trace: vec![],
        };
        let outcome = |seed: u64, sigs: &[u64]| SessionOutcome {
            seed,
            runs: 10,
            batches: 1,
            corpus: 5,
            hit_time_budget: false,
            findings: sigs.iter().map(|s| finding(seed, *s)).collect(),
        };
        // Arrival order deliberately scrambled: seed 13 arrives first but
        // seed 11 must win the shared signature 0xAA.
        let outcomes = vec![
            outcome(13, &[0xAA, 0xCC]),
            outcome(11, &[0xAA, 0xBB]),
            outcome(12, &[0xBB]),
        ];
        let summary = fold(&s, &outcomes);
        assert_eq!(summary.sessions, 3);
        assert_eq!(summary.dedup_hits, 2);
        let owners: Vec<(u64, u64)> = summary
            .findings
            .iter()
            .map(|f| (f.session_seed, f.signature))
            .collect();
        assert_eq!(owners, vec![(11, 0xAA), (11, 0xBB), (13, 0xCC)]);
        // Same outcomes in any arrival order fold identically.
        let mut reversed = outcomes.clone();
        reversed.reverse();
        assert_eq!(fold(&s, &reversed), summary);
    }

    #[test]
    fn dedup_distinguishes_oracles_with_equal_signatures() {
        let s = FuzzJobSpec {
            seeds: vec![1],
            ..spec()
        };
        let case = FuzzCase::baseline(ScenarioId::S1, InitialPosition::Near, 0, None);
        let mk = |oracle| FarmFinding {
            session_seed: 1,
            oracle,
            shrunk: case,
            detail: String::new(),
            signature: 42,
            trace: vec![],
        };
        let outcomes = vec![SessionOutcome {
            seed: 1,
            runs: 1,
            batches: 1,
            corpus: 1,
            hit_time_budget: false,
            findings: vec![mk(OracleKind::AebNoAccel), mk(OracleKind::HazardOrdering)],
        }];
        let summary = fold(&s, &outcomes);
        assert_eq!(summary.findings.len(), 2);
        assert_eq!(summary.dedup_hits, 0);
        assert_eq!(summary.by_oracle()[0], 1);
        assert_eq!(summary.by_oracle()[2], 1);
    }

    #[test]
    fn partitioned_sessions_fold_like_a_single_worker() {
        // The determinism claim in miniature: run the job's sessions
        // "on one worker" (all seeds, in order) and "on two workers"
        // (split, interleaved arrival) — identical summaries.
        let s = FuzzJobSpec {
            seeds: vec![5, 6],
            max_runs: 30,
            batch: 8,
            shrink_steps: 2,
            max_secs_ms: 0,
        };
        let single: Vec<SessionOutcome> =
            s.seeds.iter().map(|&seed| run_session(&s, seed)).collect();
        let scrambled = vec![single[1].clone(), single[0].clone()];
        assert_eq!(fold(&s, &single), fold(&s, &scrambled));
        // Re-running a session is bit-identical, traces included.
        assert_eq!(run_session(&s, 5), single[0]);
    }
}
