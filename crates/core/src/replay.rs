//! Replay executor: re-runs a recorded trace through the platform and
//! verifies bit-exact equivalence, plus the campaign-side trace sink.
//!
//! The flight-recorder data layer lives in [`adas_recorder`] (formats,
//! writer, diff, policy); this module supplies the pieces that need the
//! platform itself:
//!
//! * [`run_single_traced`] — execute one run while capturing a [`Trace`];
//! * [`replay_trace`] — reconstruct the run from its header, re-execute
//!   it, and localise the first divergent step/field (or report
//!   `Identical`);
//! * [`TraceSink`] — the campaign hook
//!   ([`run_ids_ctl`](crate::experiment::run_ids_ctl)) that records every
//!   run and persists only the noteworthy ones under the [`TracePolicy`].

use crate::cache::Fingerprint;
use crate::config::{InterventionConfig, PlatformConfig};
use crate::experiment::{build_platform, RunId};
use adas_attack::FaultType;
use adas_ml::{LstmPredictor, MitigationKind};
use adas_recorder::trace::InterventionSummary;
use adas_recorder::{
    diff_traces, DiffReport, RecordMode, Trace, TraceHeader, TracePolicy, TraceWriter,
};
use adas_scenarios::RunRecord;
use adas_simulator::{FrictionCondition, TraceSample};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Per-worker sample-buffer pool (capacity for one run). A full-mode
    /// capture stores ~1.5 MB of samples per run; recycling the buffer
    /// across a campaign's runs keeps the writer from re-faulting fresh
    /// pages every run. The buffer travels with the [`Trace`] out of
    /// [`run_traced`] and comes back via [`recycle_sample_buffer`] once
    /// the sink is done with it.
    static SAMPLE_BUF: Cell<Vec<TraceSample>> = const { Cell::new(Vec::new()) };
}

/// Returns a sample buffer to the thread-local pool, keeping the larger of
/// the offered and pooled allocations.
fn recycle_sample_buffer(mut buf: Vec<TraceSample>) {
    SAMPLE_BUF.with(|cell| {
        let pooled = cell.take();
        if pooled.capacity() > buf.capacity() {
            buf = pooled;
        }
        buf.clear();
        cell.set(buf);
    });
}

/// Stable fingerprint of the full platform configuration, stored in every
/// trace header. Replay reconstructs a config from the header's projection
/// and refuses to run if its fingerprint differs — a loud failure beats a
/// silently meaningless bit-for-bit comparison against different physics.
#[must_use]
pub fn config_fingerprint(config: &PlatformConfig) -> u64 {
    Fingerprint::new()
        .write_str("platform-config-v2")
        .write(config)
        .value()
}

/// Builds the trace header for one run. `model_fingerprint` must be the
/// trained-weights fingerprint when the configuration actually uses an ML
/// model, 0 otherwise.
#[must_use]
pub fn trace_header(
    id: RunId,
    fault: Option<FaultType>,
    config: &PlatformConfig,
    model_fingerprint: u64,
    campaign_seed: u64,
) -> TraceHeader {
    let iv = config.interventions;
    TraceHeader {
        scenario: id.scenario,
        position: id.position,
        repetition: id.repetition,
        fault,
        campaign_seed,
        config_fingerprint: config_fingerprint(config),
        model_fingerprint: if iv.ml { model_fingerprint } else { 0 },
        interventions: InterventionSummary {
            driver: iv.driver,
            driver_reaction_time: iv.driver_reaction_time,
            safety_check: iv.safety_check,
            aebs: iv.aebs,
            ml: iv.ml,
            mitigation: iv.mitigation.code(),
            views: iv.views,
        },
        friction: config.friction,
        max_steps: config.max_steps as u64,
        quiescence_steps: config.quiescence_steps as u64,
        first_step: 0,
        attack: config.attack,
    }
}

/// Reconstructs the [`PlatformConfig`] a trace ran under from its header
/// projection (defaults + interventions + friction + run-length knobs).
#[must_use]
pub fn reconstruct_config(header: &TraceHeader) -> PlatformConfig {
    PlatformConfig {
        interventions: InterventionConfig {
            driver: header.interventions.driver,
            driver_reaction_time: header.interventions.driver_reaction_time,
            safety_check: header.interventions.safety_check,
            aebs: header.interventions.aebs,
            ml: header.interventions.ml,
            mitigation: MitigationKind::from_code(header.interventions.mitigation)
                .unwrap_or_default(),
            views: header.interventions.views,
        },
        friction: header.friction,
        max_steps: usize::try_from(header.max_steps).unwrap_or(usize::MAX),
        quiescence_steps: usize::try_from(header.quiescence_steps).unwrap_or(usize::MAX),
        attack: header.attack,
        ..PlatformConfig::default()
    }
}

/// Executes the run described by `header` under `config`, capturing a trace.
///
/// This is [`run_single`](crate::experiment::run_single) with a writer
/// attached: the same platform builder and step loop, so a traced run
/// produces bit-identical physics to an untraced one.
#[must_use]
pub fn run_traced(
    header: TraceHeader,
    config: &PlatformConfig,
    ml_model: Option<&Arc<LstmPredictor>>,
    mode: RecordMode,
) -> (RunRecord, Trace) {
    let id = RunId {
        scenario: header.scenario,
        position: header.position,
        repetition: header.repetition,
    };
    let mut platform = build_platform(id, header.fault, config, ml_model, header.campaign_seed);
    platform.attach_writer(make_writer(mode, config.max_steps));
    let end = platform.run_to_end();
    platform.seal(end, header)
}

/// Builds the capture writer for one traced run. Fused capture: the writer
/// is fed directly from the step loop (one sample construction, one push —
/// no intermediate buffer or second pass). Full mode adopts the worker's
/// recycled buffer; ring mode is already bounded and cache-hot, so it
/// keeps its own small deque and the pooled buffer stays parked in the
/// thread-local.
pub(crate) fn make_writer(mode: RecordMode, max_steps: usize) -> TraceWriter {
    match mode {
        RecordMode::Full => {
            let mut w = TraceWriter::from_buffer(SAMPLE_BUF.with(Cell::take));
            w.reserve(max_steps);
            w
        }
        RecordMode::Ring(_) => TraceWriter::new(mode),
    }
}

/// Executes a single fully-specified run while capturing its trace.
///
/// `model_fingerprint` is the trained-weights fingerprint (0 when no model
/// is in play); it is recorded in the header so replay can demand the same
/// weights.
#[must_use]
pub fn run_single_traced(
    id: RunId,
    fault: Option<FaultType>,
    config: &PlatformConfig,
    ml_model: Option<&Arc<LstmPredictor>>,
    model_fingerprint: u64,
    campaign_seed: u64,
    mode: RecordMode,
) -> (RunRecord, Trace) {
    let header = trace_header(id, fault, config, model_fingerprint, campaign_seed);
    run_traced(header, config, ml_model, mode)
}

/// A deliberate, test-only physics perturbation applied during replay to
/// demonstrate divergence localisation: replaying a golden trace under a
/// perturbation must yield a `Diverged` verdict pointing at the first
/// affected step and field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Scales the road-surface friction coefficient by the given factor —
    /// the canonical "one-line physics change".
    FrictionScale(f64),
}

impl Perturbation {
    /// Applies the perturbation to a reconstructed config.
    pub fn apply(self, config: &mut PlatformConfig) {
        match self {
            Perturbation::FrictionScale(k) => {
                config.friction = FrictionCondition::Custom(config.friction.scale() * k);
            }
        }
    }

    /// Parses the `ADAS_REPLAY_PERTURB` syntax: `friction=<factor>`, with
    /// a finite factor > 0 (NaN, infinite, zero or negative friction is
    /// not a physics perturbation).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let (key, value) = s.trim().split_once('=')?;
        let factor: f64 = value.trim().parse().ok()?;
        if !(factor.is_finite() && factor > 0.0) {
            return None;
        }
        match key.trim() {
            "friction" => Some(Perturbation::FrictionScale(factor)),
            _ => None,
        }
    }
}

/// Why a trace could not be replayed at all (as opposed to replaying and
/// diverging).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The config reconstructed from the header does not fingerprint to the
    /// recorded value: the run depended on settings the header cannot carry
    /// (a fuzz case's continuous overrides), platform defaults changed
    /// since the recording, or an incompatible build made the trace.
    ConfigMismatch {
        /// Fingerprint stored in the trace header.
        recorded: u64,
        /// Fingerprint of the config reconstructed from the header.
        reconstructed: u64,
    },
    /// The trace was recorded with an ML model but none was supplied.
    ModelRequired {
        /// The required trained-weights fingerprint.
        fingerprint: u64,
    },
    /// The supplied ML model's weights differ from the recorded ones.
    ModelMismatch {
        /// Fingerprint stored in the trace header.
        recorded: u64,
        /// Fingerprint of the supplied model.
        provided: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::ConfigMismatch {
                recorded,
                reconstructed,
            } => write!(
                f,
                "config fingerprint mismatch: trace recorded {recorded:016x}, \
                 reconstruction yields {reconstructed:016x} — the header cannot \
                 reproduce this run's configuration (a fuzz trace: replay its repro \
                 with `adas-fuzz replay`) or platform defaults changed since it \
                 was captured"
            ),
            ReplayError::ModelRequired { fingerprint } => write!(
                f,
                "trace was recorded with ML model {fingerprint:016x}; supply the \
                 matching trained weights to replay it"
            ),
            ReplayError::ModelMismatch { recorded, provided } => write!(
                f,
                "ML model mismatch: trace recorded weights {recorded:016x}, \
                 supplied weights fingerprint {provided:016x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Result of replaying a trace: the full diff report plus the freshly
/// replayed trace (for `adas-replay diff`-style inspection).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Header/step/outcome comparison of recorded vs replayed.
    pub report: DiffReport,
    /// The trace produced by the replay execution.
    pub replayed: Trace,
}

/// Re-executes a recorded run from its header and compares step-by-step.
///
/// `ml` supplies the trained model and its fingerprint when the trace was
/// recorded with ML mitigation. `perturbation` deliberately alters the
/// replay physics (divergence demonstration / sensitivity probing); the
/// replayed trace keeps the recorded config fingerprint so the diff
/// isolates the *physics* divergence rather than flagging the header.
///
/// # Errors
///
/// Returns a [`ReplayError`] when the run cannot be faithfully
/// reconstructed (config drift, missing or wrong ML weights).
pub fn replay_trace(
    trace: &Trace,
    ml: Option<(&Arc<LstmPredictor>, u64)>,
    perturbation: Option<Perturbation>,
) -> Result<ReplayReport, ReplayError> {
    let header = &trace.header;
    let config = reconstruct_config(header);
    let reconstructed = config_fingerprint(&config);
    if reconstructed != header.config_fingerprint {
        return Err(ReplayError::ConfigMismatch {
            recorded: header.config_fingerprint,
            reconstructed,
        });
    }
    let model = if header.model_fingerprint != 0 {
        match ml {
            None => {
                return Err(ReplayError::ModelRequired {
                    fingerprint: header.model_fingerprint,
                })
            }
            Some((m, fp)) => {
                if fp != header.model_fingerprint {
                    return Err(ReplayError::ModelMismatch {
                        recorded: header.model_fingerprint,
                        provided: fp,
                    });
                }
                Some(m)
            }
        }
    } else {
        None
    };

    let mut run_config = config;
    if let Some(p) = perturbation {
        p.apply(&mut run_config);
    }
    let mut replay_header = header.clone();
    replay_header.first_step = 0;
    let (_, replayed) = run_traced(replay_header, &run_config, model, RecordMode::Full);
    Ok(ReplayReport {
        report: diff_traces(trace, &replayed),
        replayed,
    })
}

/// Campaign-side trace sink: hands each finished run's trace to the
/// [`TracePolicy`] and persists the noteworthy ones, with atomic counters
/// so the parallel executor can share one sink across workers.
#[derive(Debug)]
pub struct TraceSink {
    policy: TracePolicy,
    recorded: AtomicU64,
    persisted: AtomicU64,
    errors: AtomicU64,
}

impl TraceSink {
    /// A sink enforcing the given policy.
    #[must_use]
    pub fn new(policy: TracePolicy) -> Self {
        Self {
            policy,
            recorded: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// A sink that records nothing: campaigns through it run untraced.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(TracePolicy::disabled())
    }

    /// A sink configured from `ADAS_TRACE` / `ADAS_TRACE_DIR` /
    /// `ADAS_TRACE_RING`.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(TracePolicy::from_env())
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &TracePolicy {
        &self.policy
    }

    /// True when runs should be recorded at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }

    /// Offers one finished run. Persists the trace (content-addressed under
    /// the policy directory) when the policy says so; returns the path when
    /// a file was written.
    pub fn offer(&self, record: &RunRecord, trace: &Trace) -> Option<PathBuf> {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if !self.policy.should_persist(record) {
            return None;
        }
        match trace.save_in(&self.policy.dir) {
            Ok(path) => {
                self.persisted.fetch_add(1, Ordering::Relaxed);
                Some(path)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("[trace] cannot persist {}: {e}", trace.identity());
                None
            }
        }
    }

    /// Seals a finished traced run, offers it, and returns its record. The
    /// trace's sample buffer then goes back to this worker's pool (one
    /// lane of a batch adopts it, the others allocate; recycling keeps the
    /// largest).
    pub(crate) fn capture(
        &self,
        platform: crate::platform::Platform,
        end: adas_recorder::EndReason,
        header: TraceHeader,
    ) -> RunRecord {
        let (record, trace) = platform.seal(end, header);
        self.offer(&record, &trace);
        recycle_sample_buffer(trace.samples);
        record
    }

    /// Runs recorded through this sink.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces persisted to disk.
    #[must_use]
    pub fn persisted(&self) -> u64 {
        self.persisted.load(Ordering::Relaxed)
    }

    /// Persistence failures (I/O errors; the campaign itself continues).
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{
        campaign_run_ids, run_campaign, run_ids_ctl, run_single, CampaignCell,
    };
    use adas_parallel::MapControl;
    use adas_recorder::{TraceMode, Verdict};
    use adas_scenarios::{InitialPosition, ScenarioId};

    fn short_config() -> PlatformConfig {
        PlatformConfig {
            max_steps: 400,
            ..PlatformConfig::default()
        }
    }

    fn id() -> RunId {
        RunId {
            scenario: ScenarioId::S1,
            position: InitialPosition::Near,
            repetition: 0,
        }
    }

    #[test]
    fn traced_run_matches_untraced_record() {
        let cfg = short_config();
        let plain = run_single(id(), Some(FaultType::RelativeDistance), &cfg, None, 7);
        let (traced, trace) = run_single_traced(
            id(),
            Some(FaultType::RelativeDistance),
            &cfg,
            None,
            0,
            7,
            RecordMode::Full,
        );
        // Bit-identical records: recording must not influence the run.
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        assert_eq!(trace.samples.len() as u64, traced.steps);
    }

    #[test]
    fn replay_of_recorded_run_is_identical() {
        let cfg = short_config();
        let (_, trace) = run_single_traced(
            id(),
            Some(FaultType::RelativeDistance),
            &cfg,
            None,
            0,
            7,
            RecordMode::Full,
        );
        // The recorded config is non-default (max_steps), so reconstruction
        // must still fingerprint identically.
        let report = replay_trace(&trace, None, None).expect("replayable");
        assert!(report.report.is_identical(), "{:?}", report.report.verdict);
    }

    #[test]
    fn perturbed_replay_localises_divergence() {
        let cfg = short_config();
        let (_, trace) = run_single_traced(id(), None, &cfg, None, 0, 7, RecordMode::Full);
        // 0.1 puts the traction cap (mu·g) below the engine limit, so any
        // gas application realises differently — gentler scales can leave a
        // benign cruise legitimately untouched.
        let report =
            replay_trace(&trace, None, Some(Perturbation::FrictionScale(0.1))).expect("replayable");
        let Verdict::Diverged(d) = &report.report.verdict else {
            panic!("decimated friction must diverge");
        };
        // Friction affects realised dynamics, not the clock.
        assert_ne!(d.field, "time");
    }

    #[test]
    fn config_drift_is_a_loud_error() {
        let cfg = short_config();
        let (_, mut trace) = run_single_traced(id(), None, &cfg, None, 0, 7, RecordMode::Full);
        trace.header.config_fingerprint ^= 1;
        let err = replay_trace(&trace, None, None).expect_err("must refuse");
        assert!(matches!(err, ReplayError::ConfigMismatch { .. }));
    }

    #[test]
    fn replay_without_required_model_is_an_error() {
        let cfg = short_config();
        let (_, mut trace) = run_single_traced(id(), None, &cfg, None, 0, 7, RecordMode::Full);
        trace.header.model_fingerprint = 0xDEAD;
        let err = replay_trace(&trace, None, None).expect_err("must refuse");
        assert!(matches!(err, ReplayError::ModelRequired { .. }));
    }

    #[test]
    fn perturbation_parsing() {
        assert_eq!(
            Perturbation::parse("friction=0.75"),
            Some(Perturbation::FrictionScale(0.75))
        );
        assert_eq!(Perturbation::parse("gravity=2"), None);
        assert_eq!(Perturbation::parse("friction"), None);
        for bad in ["nan", "inf", "0", "-1"] {
            assert_eq!(
                Perturbation::parse(&format!("friction={bad}")),
                None,
                "{bad}"
            );
        }
    }

    #[test]
    fn sink_persists_only_noteworthy_runs_under_hazard_policy() {
        let dir = std::env::temp_dir().join(format!("adas-trace-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = TracePolicy {
            mode: TraceMode::Hazard,
            dir: dir.clone(),
            record_mode: RecordMode::Full,
        };
        let sink = TraceSink::new(policy);
        let cfg = PlatformConfig {
            max_steps: 2000,
            ..PlatformConfig::default()
        };
        // An unprotected RD attack crashes (noteworthy); a benign run is not.
        let (crash_rec, crash_trace) = run_single_traced(
            id(),
            Some(FaultType::RelativeDistance),
            &cfg,
            None,
            0,
            7,
            RecordMode::Full,
        );
        let (benign_rec, benign_trace) =
            run_single_traced(id(), None, &short_config(), None, 0, 7, RecordMode::Full);
        let crash_path = sink.offer(&crash_rec, &crash_trace);
        let benign_path = sink.offer(&benign_rec, &benign_trace);
        assert!(crash_path.is_some(), "accident run must persist");
        assert!(benign_path.is_none(), "benign run must not persist");
        assert_eq!((sink.recorded(), sink.persisted()), (2, 1));
        // Round-trip the persisted file.
        let loaded = Trace::load(&crash_path.expect("persisted")).expect("loadable");
        assert_eq!(format!("{loaded:?}"), format!("{crash_trace:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_traced_campaign_matches_scalar_traced() {
        let cfg = PlatformConfig {
            max_steps: 300,
            ..PlatformConfig::default()
        };
        let fault = Some(FaultType::RelativeDistance);
        let dir = std::env::temp_dir().join(format!("adas-trace-batched-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The scalar reference: each run alone through `run_single_traced`.
        let scalar_dir = dir.join("scalar");
        let scalar: Vec<(RunId, RunRecord)> = campaign_run_ids(1)
            .into_iter()
            .map(|id| {
                let (record, trace) =
                    run_single_traced(id, fault, &cfg, None, 0, 9, RecordMode::Full);
                trace.save_in(&scalar_dir).expect("scalar trace saved");
                (id, record)
            })
            .collect();
        let names = |d: &std::path::Path| {
            let mut v: Vec<String> = std::fs::read_dir(d)
                .map(|rd| {
                    rd.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                        .collect()
                })
                .unwrap_or_default();
            v.sort();
            v
        };
        for width in [1, 5] {
            let batched_dir = dir.join(format!("width-{width}"));
            let sink = TraceSink::new(TracePolicy {
                mode: TraceMode::All,
                dir: batched_dir.clone(),
                record_mode: RecordMode::Full,
            });
            let cell = CampaignCell::new(fault, cfg, None, 9, 1);
            let ids = cell.run_ids();
            let records =
                run_ids_ctl(&cell, &ids, width, &sink, &MapControl::new()).expect("uncancelled");
            let batched: Vec<(RunId, RunRecord)> = ids.into_iter().zip(records).collect();
            assert_eq!(
                format!("{scalar:?}"),
                format!("{batched:?}"),
                "width {width}"
            );
            assert_eq!(sink.recorded(), scalar.len() as u64);
            assert_eq!(sink.persisted(), scalar.len() as u64);
            // Persisted traces are content-addressed, so bit-identical
            // captures produce identical file sets.
            assert_eq!(names(&scalar_dir), names(&batched_dir), "width {width}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_traced_matches_plain_campaign() {
        let cfg = PlatformConfig {
            max_steps: 300,
            ..PlatformConfig::default()
        };
        let plain = run_campaign(None, &cfg, None, 9, 1);
        let sink = TraceSink::new(TracePolicy {
            mode: TraceMode::Hazard,
            dir: std::env::temp_dir().join("adas-trace-none"),
            record_mode: RecordMode::Full,
        });
        let cell = CampaignCell::new(None, cfg, None, 9, 1);
        let traced = run_ids_ctl(&cell, &cell.run_ids(), 16, &sink, &MapControl::new())
            .expect("uncancelled");
        let plain_records: Vec<&RunRecord> = plain.iter().map(|(_, r)| r).collect();
        let traced_records: Vec<&RunRecord> = traced.iter().collect();
        assert_eq!(format!("{plain_records:?}"), format!("{traced_records:?}"));
        assert_eq!(sink.recorded(), 12);
        // The hazard policy persists exactly the noteworthy subset (some
        // benign cut-in scenarios do dip under the near-miss TTC).
        let noteworthy = plain
            .iter()
            .filter(|(_, r)| adas_recorder::policy::is_noteworthy(r))
            .count() as u64;
        assert_eq!(sink.persisted(), noteworthy);
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join("adas-trace-none"));
    }
}
