//! Campaign runner: sweeps scenarios × positions × repetitions (in
//! parallel, deterministically) and aggregates the statistics the paper's
//! tables report.
//!
//! Scheduling uses the work-stealing executor in [`crate::parallel`]: runs
//! are claimed one at a time from a shared atomic work-queue, so uneven
//! run lengths (early accidents vs. full 100 s time-limit runs) no longer
//! leave threads idle behind a long static chunk. Results are keyed by run
//! index and returned in sweep order, which keeps campaign output
//! bit-for-bit identical at any thread count (see `ADAS_THREADS`).

use crate::cache::{model_fingerprint, ArtifactCache, Fingerprint};
use crate::config::PlatformConfig;
use crate::parallel::{batch_width, MapControl};
use crate::platform::Platform;
use crate::replay::TraceSink;
use adas_attack::{FaultInjector, FaultSpec, FaultType};
use adas_codec::{DecodeError, Reader, Writer};
use adas_ml::{
    ControlTarget, Dataset, EnsembleConfig, EnsembleMitigator, LstmPredictor, MaskCheckConfig,
    MaskCheckMitigator, MitigationConfig, MitigationKind, Mitigator, MlMitigator, StateFeatures,
};
use adas_scenarios::{
    AccidentKind, InitialPosition, RunRecord, ScenarioCatalog, ScenarioId, ScenarioSetup,
};
use adas_simulator::DeterministicRng;
use std::sync::Arc;

/// Identifies one run inside a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunId {
    /// Driving scenario.
    pub scenario: ScenarioId,
    /// Initial position / road pairing.
    pub position: InitialPosition,
    /// Repetition index (the paper repeats each configuration 10×).
    pub repetition: u32,
}

/// Executes a single fully-specified run.
///
/// `ml_model` is shared by reference-counted handle: the mitigation
/// runtime holds an [`Arc`] clone instead of deep-copying the trained
/// weights for every run of a campaign.
#[must_use]
pub fn run_single(
    id: RunId,
    fault: Option<FaultType>,
    config: &PlatformConfig,
    ml_model: Option<&Arc<LstmPredictor>>,
    campaign_seed: u64,
) -> RunRecord {
    build_platform(id, fault, config, ml_model, campaign_seed).run()
}

/// Constructs the fully-wired platform for one run: the RNG derivation,
/// scenario build, fault injector, and ML mitigation shared by
/// [`run_single`], [`run_traced`](crate::replay::run_traced), and the
/// lockstep batch driver — one construction path means one place where
/// run identity is defined.
pub(crate) fn build_platform(
    id: RunId,
    fault: Option<FaultType>,
    config: &PlatformConfig,
    ml_model: Option<&Arc<LstmPredictor>>,
    campaign_seed: u64,
) -> Platform {
    let mut setup_rng = DeterministicRng::for_run(
        campaign_seed,
        id.scenario.index() as u64,
        id.position.index() as u64,
        u64::from(id.repetition),
    );
    let setup = ScenarioSetup::build(id.scenario, id.position, &mut setup_rng);
    let injector = match fault {
        Some(ft) => {
            FaultInjector::new(FaultSpec::new(ft, setup.patch_start_s).scheduled(config.attack))
        }
        None => FaultInjector::disabled(),
    };
    let ml = make_mitigator(ml_model, config, &mut setup_rng);
    Platform::new(&setup, *config, injector, ml, &mut setup_rng)
}

/// Constructs the configured mitigation runtime for one run, drawing any
/// strategy-specific jitter streams from `setup_rng`.
///
/// Must be called between `ScenarioSetup::build` and `Platform::new` so
/// every execution path (single, batched, traced, replayed) consumes
/// `setup_rng` identically for a given variant. The splits are gated on
/// the variant: the CUSUM baseline — and any unmitigated run — draws
/// nothing, which keeps every pre-existing RNG stream bit-exact.
fn make_mitigator(
    ml_model: Option<&Arc<LstmPredictor>>,
    config: &PlatformConfig,
    setup_rng: &mut DeterministicRng,
) -> Option<Mitigator> {
    let iv = &config.interventions;
    let model = ml_model.filter(|_| iv.ml)?;
    Some(match iv.mitigation {
        MitigationKind::Cusum => Mitigator::Cusum(MlMitigator::new(
            Arc::clone(model),
            MitigationConfig::default(),
        )),
        MitigationKind::Ensemble => Mitigator::Ensemble(EnsembleMitigator::new(
            Arc::clone(model),
            EnsembleConfig::with_views(iv.effective_views()),
            setup_rng.split(0xE45E),
        )),
        MitigationKind::MaskCheck => Mitigator::MaskCheck(MaskCheckMitigator::new(
            Arc::clone(model),
            MaskCheckConfig::with_views(iv.effective_views()),
            setup_rng.split(0x3A5C),
        )),
    })
}

/// Bitmask selecting every scenario (bit `i` = `ScenarioId::ALL[i]`).
pub const SCENARIO_MASK_ALL: u8 = (1 << ScenarioId::ALL.len()) - 1;

/// Enumerates the full sweep for one campaign cell in paper order
/// (scenario-major, then position, then repetition).
#[must_use]
pub fn campaign_run_ids(repetitions: u32) -> Vec<RunId> {
    campaign_run_ids_masked(repetitions, SCENARIO_MASK_ALL)
}

/// [`campaign_run_ids`] restricted to the scenarios whose bit is set in
/// `mask` (bit `i` = `ScenarioId::ALL[i]`, so `0b1001` = S1 + S4). Order
/// is still scenario-major paper order; a run's identity (and therefore
/// its RNG stream) depends only on its own coordinates, so a masked sweep
/// reproduces exactly the matching subset of the full sweep.
#[must_use]
pub fn campaign_run_ids_masked(repetitions: u32, mask: u8) -> Vec<RunId> {
    let mut ids = Vec::new();
    for (i, scenario) in ScenarioId::ALL.into_iter().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        for position in InitialPosition::ALL {
            for repetition in 0..repetitions {
                ids.push(RunId {
                    scenario,
                    position,
                    repetition,
                });
            }
        }
    }
    ids
}

/// One campaign cell: a fault under one platform configuration, swept
/// over the scenarios in `scenario_mask` × both positions ×
/// `repetitions` at one campaign seed — the unit a Table VI entry
/// aggregates, and the unit the artifact cache stores.
#[derive(Debug, Clone, Copy)]
pub struct CampaignCell<'a> {
    /// Injected fault; `None` is the fault-free baseline.
    pub fault: Option<FaultType>,
    /// Platform configuration every run of the cell uses.
    pub config: PlatformConfig,
    /// Trained model and its weights fingerprint; `None` unless
    /// `config.interventions.ml` is set.
    pub model: Option<(&'a Arc<LstmPredictor>, Fingerprint)>,
    /// Campaign seed (drives every run's RNG stream derivation).
    pub campaign_seed: u64,
    /// Repetitions per scenario × position.
    pub repetitions: u32,
    /// Scenario subset (bit `i` = `ScenarioId::ALL[i]`).
    pub scenario_mask: u8,
}

impl<'a> CampaignCell<'a> {
    /// A full-grid cell (every scenario), fingerprinting `model` when the
    /// configuration runs the ML mitigation.
    #[must_use]
    pub fn new(
        fault: Option<FaultType>,
        config: PlatformConfig,
        model: Option<&'a Arc<LstmPredictor>>,
        campaign_seed: u64,
        repetitions: u32,
    ) -> Self {
        let model = model
            .filter(|_| config.interventions.ml)
            .map(|m| (m, model_fingerprint(m)));
        Self {
            fault,
            config,
            model,
            campaign_seed,
            repetitions,
            scenario_mask: SCENARIO_MASK_ALL,
        }
    }

    /// Run coordinates of the cell's sweep, in paper order.
    #[must_use]
    pub fn run_ids(&self) -> Vec<RunId> {
        campaign_run_ids_masked(self.repetitions, self.scenario_mask)
    }

    /// The cell's artifact-cache key: [`campaign_cell_fingerprint`].
    #[must_use]
    pub fn key(&self) -> Fingerprint {
        campaign_cell_fingerprint(
            self.fault,
            &self.config,
            self.model.map(|(_, fp)| fp),
            self.campaign_seed,
            self.repetitions,
            self.scenario_mask,
        )
    }
}

/// Executes `ids` (the cell's [`CampaignCell::run_ids`] or any others)
/// under `cell`'s fault, configuration, model and seed through the
/// lockstep executor in [`crate::batch`] at batch `width`. A recording
/// `sink` gets every run's trace; `ctl` cancels all-or-nothing (`None`,
/// like [`adas_parallel::map_ctl`]). Per-run results are bit-identical to
/// [`run_single`] at every width, traced or not.
#[must_use]
pub fn run_ids_ctl(
    cell: &CampaignCell<'_>,
    ids: &[RunId],
    width: usize,
    sink: &TraceSink,
    ctl: &MapControl,
) -> Option<Vec<RunRecord>> {
    let (fault, config, seed) = (cell.fault, &cell.config, cell.campaign_seed);
    let weights = cell.model.map(|(m, _)| m);
    let mode = sink.enabled().then(|| sink.policy().record_mode);
    crate::batch::run_lockstep_ctl(
        ids,
        width,
        weights,
        |_, id| {
            let mut platform = build_platform(*id, fault, config, weights, seed);
            if let Some(mode) = mode {
                platform.attach_writer(crate::replay::make_writer(mode, config.max_steps));
            }
            platform
        },
        |_, id, end, platform| {
            if mode.is_none() {
                return platform.record();
            }
            let model_fp = cell.model.map_or(0, |(_, fp)| fp.value());
            let header = crate::replay::trace_header(*id, fault, config, model_fp, seed);
            sink.capture(platform, end, header)
        },
        ctl,
    )
}

/// Resolves one campaign cell's statistics and the number of runs
/// executed: the artifact cache first (0 runs), else the cell's runs
/// through [`run_ids_ctl`] at the `ADAS_BATCH` width, storing the
/// statistics; `None` when `ctl` was cancelled. A recording `sink` skips
/// the cache read (a hit would record nothing), declares the bypass, and
/// still stores the statistics.
#[must_use]
pub fn resolve_cell(
    cell: &CampaignCell<'_>,
    cache: &ArtifactCache,
    sink: &TraceSink,
    ctl: &MapControl,
) -> Option<(CellStats, usize)> {
    let key = cell.key();
    if !sink.enabled() {
        if let Some(stats) = cache.load_decoded("cell", key, CellStats::from_bytes) {
            return Some((stats, 0));
        }
    }
    let records = run_ids_ctl(cell, &cell.run_ids(), batch_width(), sink, ctl)?;
    if sink.enabled() {
        cache.note_bypass();
    }
    let stats = CellStats::from_records(&records);
    cache.store("cell", key, &stats.to_bytes());
    Some((stats, records.len()))
}

/// Runs a full campaign cell: every scenario × both positions ×
/// `repetitions`, untraced, scheduled by the work-stealing executor at
/// the environment-selected lockstep batch width (`ADAS_BATCH`). Results
/// are returned in sweep order regardless of thread count, batch width,
/// or scheduling.
#[must_use]
pub fn run_campaign(
    fault: Option<FaultType>,
    config: &PlatformConfig,
    ml_model: Option<&Arc<LstmPredictor>>,
    campaign_seed: u64,
    repetitions: u32,
) -> Vec<(RunId, RunRecord)> {
    let cell = CampaignCell::new(fault, *config, ml_model, campaign_seed, repetitions);
    let ids = cell.run_ids();
    let records = run_ids_ctl(
        &cell,
        &ids,
        batch_width(),
        &TraceSink::disabled(),
        &MapControl::new(),
    )
    .expect("uncancelled campaign completed");
    ids.into_iter().zip(records).collect()
}

/// Aggregated result of one campaign cell (a Table VI entry), as exact
/// counts over its runs. Percentages and mean mitigation times are
/// derived on read, so cells merge exactly: [`CellStats::merge`] adds
/// counts and time sums, and the results store folds its rows the same
/// way.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellStats {
    /// Number of runs.
    pub runs: u64,
    /// Runs ending in A1 (forward collision).
    pub a1: u64,
    /// Runs ending in A2 (lane violation).
    pub a2: u64,
    /// Accident-free runs.
    pub prevented: u64,
    /// Runs with any hazard flag.
    pub hazard: u64,
    /// Runs in which AEB braked.
    pub aeb_n: u64,
    /// Runs in which the driver's brake channel triggered.
    pub driver_brake_n: u64,
    /// Runs in which the driver's steer channel triggered.
    pub driver_steer_n: u64,
    /// Runs in which ML recovery engaged.
    pub ml_n: u64,
    /// Sum of fault-start → AEB-braking times, seconds.
    pub aeb_time_sum: f64,
    /// Runs timed into [`CellStats::aeb_time_sum`]: AEB braked at or
    /// after the fault started ([`RunRecord::mitigation_time`]).
    pub aeb_time_n: u64,
    /// Sum of fault-start → driver-brake times, seconds.
    pub driver_brake_time_sum: f64,
    /// Runs timed into [`CellStats::driver_brake_time_sum`].
    pub driver_brake_time_n: u64,
    /// Sum of fault-start → driver-steer times, seconds.
    pub driver_steer_time_sum: f64,
    /// Runs timed into [`CellStats::driver_steer_time_sum`].
    pub driver_steer_time_n: u64,
}

impl CellStats {
    /// Aggregates a set of run records in one pass, adding mitigation
    /// times in record order.
    #[must_use]
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a RunRecord>,
    {
        let mut stats = Self::default();
        for record in records {
            stats.merge(&Self::of_run(record));
        }
        stats
    }

    /// The counts of a single run.
    fn of_run(r: &RunRecord) -> Self {
        let timed = |trigger| r.mitigation_time(trigger).map_or((0.0, 0), |t| (t, 1));
        let (aeb_time_sum, aeb_time_n) = timed(r.aeb_trigger);
        let (driver_brake_time_sum, driver_brake_time_n) = timed(r.driver_brake_trigger);
        let (driver_steer_time_sum, driver_steer_time_n) = timed(r.driver_steer_trigger);
        Self {
            runs: 1,
            a1: u64::from(r.accident == Some(AccidentKind::ForwardCollision)),
            a2: u64::from(r.accident == Some(AccidentKind::LaneViolation)),
            prevented: u64::from(r.prevented()),
            hazard: u64::from(r.hazard()),
            aeb_n: u64::from(r.aeb_trigger.is_some()),
            driver_brake_n: u64::from(r.driver_brake_trigger.is_some()),
            driver_steer_n: u64::from(r.driver_steer_trigger.is_some()),
            ml_n: u64::from(r.ml_activated),
            aeb_time_sum,
            aeb_time_n,
            driver_brake_time_sum,
            driver_brake_time_n,
            driver_steer_time_sum,
            driver_steer_time_n,
        }
    }

    /// Adds `other`'s counts and time sums to these (a cell of both run
    /// sets).
    pub fn merge(&mut self, other: &Self) {
        self.runs += other.runs;
        self.a1 += other.a1;
        self.a2 += other.a2;
        self.prevented += other.prevented;
        self.hazard += other.hazard;
        self.aeb_n += other.aeb_n;
        self.driver_brake_n += other.driver_brake_n;
        self.driver_steer_n += other.driver_steer_n;
        self.ml_n += other.ml_n;
        self.aeb_time_sum += other.aeb_time_sum;
        self.aeb_time_n += other.aeb_time_n;
        self.driver_brake_time_sum += other.driver_brake_time_sum;
        self.driver_brake_time_n += other.driver_brake_time_n;
        self.driver_steer_time_sum += other.driver_steer_time_sum;
        self.driver_steer_time_n += other.driver_steer_time_n;
    }

    /// `count` as a percentage of the runs (0 for an empty cell).
    fn pct(&self, count: u64) -> f64 {
        100.0 * count as f64 / self.runs.max(1) as f64
    }

    /// Mean of `n` timed runs summing to `sum`; `None` when none was timed.
    fn mean(sum: f64, n: u64) -> Option<f64> {
        (n > 0).then(|| sum / n as f64)
    }

    /// Fraction ending in A1 (forward collision), percent.
    #[must_use]
    pub fn a1_pct(&self) -> f64 {
        self.pct(self.a1)
    }

    /// Fraction ending in A2 (lane violation), percent.
    #[must_use]
    pub fn a2_pct(&self) -> f64 {
        self.pct(self.a2)
    }

    /// Fraction with no accident, percent.
    #[must_use]
    pub fn prevented_pct(&self) -> f64 {
        self.pct(self.prevented)
    }

    /// Fraction of runs with any hazard, percent.
    #[must_use]
    pub fn hazard_pct(&self) -> f64 {
        self.pct(self.hazard)
    }

    /// Fraction of runs in which AEB braked, percent.
    #[must_use]
    pub fn aeb_trigger_rate(&self) -> f64 {
        self.pct(self.aeb_n)
    }

    /// Fraction of runs in which the driver's brake channel triggered,
    /// percent.
    #[must_use]
    pub fn driver_brake_trigger_rate(&self) -> f64 {
        self.pct(self.driver_brake_n)
    }

    /// Fraction of runs in which the driver's steer channel triggered,
    /// percent.
    #[must_use]
    pub fn driver_steer_trigger_rate(&self) -> f64 {
        self.pct(self.driver_steer_n)
    }

    /// Fraction of runs in which ML recovery engaged, percent.
    #[must_use]
    pub fn ml_trigger_rate(&self) -> f64 {
        self.pct(self.ml_n)
    }

    /// Mean time from fault start to AEB braking over the timed runs,
    /// seconds.
    #[must_use]
    pub fn aeb_mitigation_time(&self) -> Option<f64> {
        Self::mean(self.aeb_time_sum, self.aeb_time_n)
    }

    /// Mean time from fault start to the driver's longitudinal trigger,
    /// seconds.
    #[must_use]
    pub fn driver_brake_mitigation_time(&self) -> Option<f64> {
        Self::mean(self.driver_brake_time_sum, self.driver_brake_time_n)
    }

    /// Mean time from fault start to the driver's lateral trigger, seconds.
    #[must_use]
    pub fn driver_steer_mitigation_time(&self) -> Option<f64> {
        Self::mean(self.driver_steer_time_sum, self.driver_steer_time_n)
    }
}

/// One measure of a cell as the results files name and print it: the one
/// place a [`CellStats`] value becomes text. Each harness picks its
/// columns from [`Measure::ALL`], and its CSV header, CSV rows and JSON
/// pairs are built from that pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// [`CellStats::runs`].
    Runs,
    /// [`CellStats::a1_pct`].
    A1Pct,
    /// [`CellStats::a2_pct`].
    A2Pct,
    /// [`CellStats::prevented_pct`].
    PreventedPct,
    /// [`CellStats::hazard_pct`].
    HazardPct,
    /// [`CellStats::aeb_mitigation_time`].
    AebMt,
    /// [`CellStats::driver_brake_mitigation_time`].
    DriverBrakeMt,
    /// [`CellStats::driver_steer_mitigation_time`].
    DriverSteerMt,
    /// [`CellStats::aeb_trigger_rate`].
    AebTriggerPct,
    /// [`CellStats::driver_brake_trigger_rate`].
    DriverBrakeTriggerPct,
    /// [`CellStats::driver_steer_trigger_rate`].
    DriverSteerTriggerPct,
    /// [`CellStats::ml_trigger_rate`].
    MlTriggerPct,
}

impl Measure {
    /// Every measure, in `table_vi` column order with
    /// [`Measure::HazardPct`] after [`Measure::PreventedPct`].
    pub const ALL: [Self; 12] = [
        Self::Runs,
        Self::A1Pct,
        Self::A2Pct,
        Self::PreventedPct,
        Self::HazardPct,
        Self::AebMt,
        Self::DriverBrakeMt,
        Self::DriverSteerMt,
        Self::AebTriggerPct,
        Self::DriverBrakeTriggerPct,
        Self::DriverSteerTriggerPct,
        Self::MlTriggerPct,
    ];

    /// The column name in the results files.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Runs => "runs",
            Self::A1Pct => "a1_pct",
            Self::A2Pct => "a2_pct",
            Self::PreventedPct => "prevented_pct",
            Self::HazardPct => "hazard_pct",
            Self::AebMt => "aeb_mt",
            Self::DriverBrakeMt => "driver_brake_mt",
            Self::DriverSteerMt => "driver_steer_mt",
            Self::AebTriggerPct => "aeb_trigger_pct",
            Self::DriverBrakeTriggerPct => "driver_brake_trigger_pct",
            Self::DriverSteerTriggerPct => "driver_steer_trigger_pct",
            Self::MlTriggerPct => "ml_trigger_pct",
        }
    }

    /// The measure of `s`: the run count, a percentage, or a mean time
    /// (`None` when no run was timed).
    #[must_use]
    pub fn value(self, s: &CellStats) -> Option<f64> {
        match self {
            Self::Runs => Some(s.runs as f64),
            Self::A1Pct => Some(s.a1_pct()),
            Self::A2Pct => Some(s.a2_pct()),
            Self::PreventedPct => Some(s.prevented_pct()),
            Self::HazardPct => Some(s.hazard_pct()),
            Self::AebMt => s.aeb_mitigation_time(),
            Self::DriverBrakeMt => s.driver_brake_mitigation_time(),
            Self::DriverSteerMt => s.driver_steer_mitigation_time(),
            Self::AebTriggerPct => Some(s.aeb_trigger_rate()),
            Self::DriverBrakeTriggerPct => Some(s.driver_brake_trigger_rate()),
            Self::DriverSteerTriggerPct => Some(s.driver_steer_trigger_rate()),
            Self::MlTriggerPct => Some(s.ml_trigger_rate()),
        }
    }

    /// The measure of `s` as the results files print it: the run count
    /// as an integer, percentages and mean times with two decimals, and
    /// `-` for a mean time when no run was timed.
    #[must_use]
    pub fn render(self, s: &CellStats) -> String {
        match self {
            Self::Runs => s.runs.to_string(),
            _ => crate::fmt_opt_time(self.value(s)),
        }
    }

    /// The CSV header of `measures`, comma-separated.
    #[must_use]
    pub fn header(measures: &[Self]) -> String {
        Self::join(measures, ",", |m| m.name().to_owned())
    }

    /// `s` rendered under `measures`, comma-separated.
    #[must_use]
    pub fn csv(measures: &[Self], s: &CellStats) -> String {
        Self::join(measures, ",", |m| m.render(s))
    }

    /// `s` rendered under `measures` as JSON `"name": value` members,
    /// comma-separated. A never-timed mean renders `-`, which is not JSON,
    /// so `measures` should hold no mean time.
    #[must_use]
    pub fn json(measures: &[Self], s: &CellStats) -> String {
        Self::join(measures, ", ", |m| {
            format!("\"{}\": {}", m.name(), m.render(s))
        })
    }

    fn join(measures: &[Self], sep: &str, cell: impl Fn(Self) -> String) -> String {
        measures
            .iter()
            .map(|&m| cell(m))
            .collect::<Vec<_>>()
            .join(sep)
    }
}

/// Magic + version prefix for the [`CellStats`] cache and wire codec.
/// Version 2 appended a trailing FNV-1a checksum over everything before
/// it, so a bit-flipped entry is rejected (cache miss) instead of
/// silently yielding wrong statistics; version 3 carries the counts and
/// time sums instead of percentages and means.
const CELL_MAGIC: &[u8] = b"ADASCELL\x03";

impl CellStats {
    /// Serialises to the artifact-cache binary format (little-endian,
    /// fixed layout, trailing whole-entry checksum).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(CELL_MAGIC.len() + 9 * 8 + 3 * 16 + 8);
        w.bytes(CELL_MAGIC);
        for v in [
            self.runs,
            self.a1,
            self.a2,
            self.prevented,
            self.hazard,
            self.aeb_n,
            self.driver_brake_n,
            self.driver_steer_n,
            self.ml_n,
        ] {
            w.u64(v);
        }
        for (sum, n) in [
            (self.aeb_time_sum, self.aeb_time_n),
            (self.driver_brake_time_sum, self.driver_brake_time_n),
            (self.driver_steer_time_sum, self.driver_steer_time_n),
        ] {
            w.f64(sum);
            w.u64(n);
        }
        let checksum = Fingerprint::new().write_bytes(w.as_bytes()).value();
        w.u64(checksum);
        w.into_bytes()
    }

    /// Parses [`Self::to_bytes`] output; `None` on any structural mismatch
    /// or checksum failure (callers treat that as a cache miss).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        // Verify the trailing checksum before trusting any field.
        let body_len = bytes.len().checked_sub(8)?;
        let (body, stored) = bytes.split_at(body_len);
        let stored = u64::from_le_bytes(stored.try_into().ok()?);
        if Fingerprint::new().write_bytes(body).value() != stored {
            return None;
        }
        let mut r = Reader::new(body.strip_prefix(CELL_MAGIC)?);
        let stats = Self::decode_fields(&mut r).ok()?;
        r.finish().ok()?;
        Some(stats)
    }

    fn decode_fields(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            runs: r.u64()?,
            a1: r.u64()?,
            a2: r.u64()?,
            prevented: r.u64()?,
            hazard: r.u64()?,
            aeb_n: r.u64()?,
            driver_brake_n: r.u64()?,
            driver_steer_n: r.u64()?,
            ml_n: r.u64()?,
            aeb_time_sum: r.f64()?,
            aeb_time_n: r.u64()?,
            driver_brake_time_sum: r.f64()?,
            driver_brake_time_n: r.u64()?,
            driver_steer_time_sum: r.f64()?,
            driver_steer_time_n: r.u64()?,
        })
    }
}

/// Content fingerprint of one campaign cell: everything its runs over
/// the `scenario_mask` grid + [`CellStats::from_records`] depend on.
/// `model` must be the fingerprint of the trained weights when
/// `config.interventions.ml` is set (the cell result depends on the exact
/// weights, not just the training seed). The scenario content is the
/// digest of [`ScenarioCatalog::global`], so an edit to a builtin `.scn`
/// file rekeys every cell just as an `ADAS_SCENARIO` override does.
#[must_use]
pub fn campaign_cell_fingerprint(
    fault: Option<FaultType>,
    config: &PlatformConfig,
    model: Option<Fingerprint>,
    campaign_seed: u64,
    repetitions: u32,
    scenario_mask: u8,
) -> Fingerprint {
    static CATALOG_DIGEST: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let catalog = *CATALOG_DIGEST.get_or_init(|| ScenarioCatalog::global().digest());
    Fingerprint::new()
        .write_str("campaign-cell-v4")
        .write_bytes(&[fault.map_or(0, FaultType::code)])
        .write(config)
        .write_u64(model.map_or(0, Fingerprint::value))
        .write_u64(u64::from(model.is_some()))
        .write_u64(campaign_seed)
        .write_u64(u64::from(repetitions))
        .write_bytes(&[scenario_mask])
        .write_str("scenario-catalog")
        .write_u64(catalog)
}

/// Simulates one fault-free training episode and returns its (true state,
/// executed control) trajectory.
fn run_training_episode(
    scenario: ScenarioId,
    position: InitialPosition,
    rep: u32,
    campaign_seed: u64,
    config: &PlatformConfig,
) -> (Vec<StateFeatures>, Vec<ControlTarget>) {
    let mut rng = DeterministicRng::for_run(
        campaign_seed ^ 0x7EA1,
        scenario.index() as u64,
        position.index() as u64,
        u64::from(rep),
    );
    let setup = ScenarioSetup::build(scenario, position, &mut rng);
    let mut platform = Platform::new(&setup, *config, FaultInjector::disabled(), None, &mut rng);

    let mut states = Vec::new();
    let mut outputs = Vec::new();
    let mut prev = ControlTarget::default();
    loop {
        // Record the pre-step true state.
        let state = StateFeatures::observe(platform.world(), prev);
        let _ = platform.step();
        // The executed command, read back from the ego's realised
        // acceleration and steering (≈ the ADAS command for benign runs).
        let ego_after = *platform.world().ego().state();
        let out = ControlTarget {
            accel: ego_after.accel,
            steer: ego_after.steer,
        };
        states.push(state);
        outputs.push(out);
        prev = out;
        if platform.finished().is_some() {
            break;
        }
    }
    (states, outputs)
}

/// Collects fault-free training episodes for the ML baseline.
///
/// Runs the platform without interventions or faults across all scenarios
/// and both positions, recording (true state, executed ADAS control) pairs
/// at every control cycle, then windows them into a [`Dataset`].
///
/// Episodes are simulated in parallel on the work-stealing executor (each
/// episode derives its own RNG stream from its sweep coordinate) and
/// merged into the dataset in sweep order, so the resulting sample order
/// is identical to the historical serial implementation at any thread
/// count.
#[must_use]
pub fn collect_training_data(campaign_seed: u64, repetitions: u32, stride: usize) -> Dataset {
    let config = PlatformConfig::default();
    let mut coords = Vec::new();
    for scenario in ScenarioId::ALL {
        for position in InitialPosition::ALL {
            for rep in 0..repetitions {
                coords.push((scenario, position, rep));
            }
        }
    }
    let episodes = crate::parallel::map(&coords, |_, &(scenario, position, rep)| {
        run_training_episode(scenario, position, rep, campaign_seed, &config)
    });
    let mut dataset = Dataset::new();
    for (states, outputs) in &episodes {
        dataset.add_episode(states, outputs, stride);
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterventionConfig;

    #[test]
    fn campaign_is_deterministic_and_ordered() {
        let cfg = PlatformConfig {
            max_steps: 300,
            ..PlatformConfig::default()
        };
        let a = run_campaign(None, &cfg, None, 9, 1);
        let b = run_campaign(None, &cfg, None, 9, 1);
        assert_eq!(a.len(), 12); // 6 scenarios × 2 positions × 1 rep
                                 // NaN-tolerant equality (NaN != NaN under PartialEq).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Order: scenario-major.
        assert_eq!(a[0].0.scenario, ScenarioId::S1);
        assert_eq!(a[11].0.scenario, ScenarioId::S6);
    }

    #[test]
    fn measures_render_table_vi_columns() {
        use Measure::*;
        let table_vi = [
            Runs,
            A1Pct,
            A2Pct,
            PreventedPct,
            AebMt,
            DriverBrakeMt,
            DriverSteerMt,
            AebTriggerPct,
            DriverBrakeTriggerPct,
            DriverSteerTriggerPct,
            MlTriggerPct,
        ];
        // 13/120 does not terminate; the steer channel triggered but was
        // never timed.
        let s = CellStats {
            runs: 120,
            a1: 13,
            a2: 7,
            prevented: 100,
            hazard: 90,
            aeb_n: 55,
            driver_brake_n: 44,
            driver_steer_n: 11,
            aeb_time_sum: 68.75,
            aeb_time_n: 55,
            driver_brake_time_sum: 132.0,
            driver_brake_time_n: 44,
            ..CellStats::default()
        };
        assert_eq!(
            Measure::header(&table_vi),
            "runs,a1_pct,a2_pct,prevented_pct,aeb_mt,driver_brake_mt,driver_steer_mt,\
             aeb_trigger_pct,driver_brake_trigger_pct,driver_steer_trigger_pct,ml_trigger_pct"
        );
        assert_eq!(
            Measure::csv(&table_vi, &s),
            "120,10.83,5.83,83.33,1.25,3.00,-,45.83,36.67,9.17,0.00"
        );
        assert_eq!(
            Measure::json(&[Runs, A1Pct, HazardPct], &s),
            "\"runs\": 120, \"a1_pct\": 10.83, \"hazard_pct\": 75.00"
        );
    }

    #[test]
    fn cell_stats_percentages_sum_to_100() {
        let cfg = PlatformConfig {
            max_steps: 2000,
            ..PlatformConfig::default()
        };
        let recs = run_campaign(Some(FaultType::RelativeDistance), &cfg, None, 3, 1);
        let stats = CellStats::from_records(recs.iter().map(|(_, r)| r));
        let total = stats.a1_pct() + stats.a2_pct() + stats.prevented_pct();
        assert!((total - 100.0).abs() < 1e-9, "total {total}");
        assert_eq!(stats.runs, 12);
    }

    #[test]
    fn run_single_respects_interventions() {
        let id = RunId {
            scenario: ScenarioId::S1,
            position: InitialPosition::Near,
            repetition: 0,
        };
        let unprotected = run_single(
            id,
            Some(FaultType::RelativeDistance),
            &PlatformConfig::default(),
            None,
            5,
        );
        let protected = run_single(
            id,
            Some(FaultType::RelativeDistance),
            &PlatformConfig::with_interventions(InterventionConfig::aeb_independent_only()),
            None,
            5,
        );
        assert!(unprotected.accident.is_some());
        assert!(protected.prevented());
    }

    #[test]
    fn training_data_collection_produces_windows() {
        let data = collect_training_data(3, 1, 40);
        assert!(!data.is_empty(), "no training windows collected");
    }
}
