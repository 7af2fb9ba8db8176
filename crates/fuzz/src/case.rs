//! One point in the fuzzer's search space, and its deterministic execution.

use adas_attack::{AttackScheduler, ContextTrigger, FaultInjector, FaultSpec, FaultType};
use adas_codec::{DecodeError, Encode, Reader, Writer};
use adas_core::replay::trace_header;
use adas_core::{EndReason, Platform, PlatformConfig, RunId};
use adas_core::{Fingerprint, InterventionConfig};
use adas_recorder::{RecordMode, Trace, TraceWriter};
use adas_scenarios::{InitialPosition, RunRecord, ScenarioId, ScenarioSetup};
use adas_simulator::units::mph;
use adas_simulator::{DeterministicRng, FrictionCondition, NpcTrigger};

/// Steps per fuzz run (50 s): long enough for every scenario's event plus
/// the attack window, short enough to keep thousands of runs cheap.
pub const FUZZ_MAX_STEPS: usize = 5_000;

/// Inclusive clamp range for [`FuzzCase::ego_speed_delta`], m/s.
pub const EGO_SPEED_DELTA_RANGE: (f64, f64) = (-8.0, 8.0);
/// Inclusive clamp range for [`FuzzCase::friction`] (surface scale).
pub const FRICTION_RANGE: (f64, f64) = (0.2, 1.0);
/// Inclusive clamp range for [`FuzzCase::attack_start_offset`], metres.
pub const ATTACK_START_RANGE: (f64, f64) = (-150.0, 300.0);
/// Inclusive clamp range for [`FuzzCase::attack_duration`], seconds.
pub const ATTACK_DURATION_RANGE: (f64, f64) = (2.0, 40.0);
/// Inclusive clamp range for [`FuzzCase::attack_intensity`] (scale).
pub const ATTACK_INTENSITY_RANGE: (f64, f64) = (0.25, 3.0);
/// Inclusive clamp range for [`FuzzCase::trigger_offset`], metres.
pub const TRIGGER_OFFSET_RANGE: (f64, f64) = (-10.0, 10.0);
/// Inclusive clamp range for [`FuzzCase::sched_ttc`], seconds. 0 keeps the
/// paper's immediate (always-armed) attack; positive values hold the patch
/// back until ground-truth TTC first drops to the threshold.
pub const SCHED_TTC_RANGE: (f64, f64) = (0.0, 8.0);

/// Intervention rows the fuzzer explores: Table VI rows 0–6 (everything
/// except the ML row, which needs trained weights).
pub const IV_ROWS: usize = 7;

fn clamp(v: f64, range: (f64, f64)) -> f64 {
    if v.is_nan() {
        return range.0;
    }
    v.clamp(range.0, range.1)
}

/// One fuzz case: discrete grid coordinates plus continuous overrides on
/// top of the scenario's own per-repetition jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzCase {
    /// NHTSA scenario.
    pub scenario: ScenarioId,
    /// Spawn position / road pairing.
    pub position: InitialPosition,
    /// Index into [`InterventionConfig::table_vi_rows`] (0–6; ML excluded).
    pub iv_row: usize,
    /// Injected fault, if any.
    pub fault: Option<FaultType>,
    /// Repetition index: selects the scenario's jitter stream.
    pub repetition: u32,
    /// Added to the scenario's jittered ego/cruise speed, m/s.
    pub ego_speed_delta: f64,
    /// Road-surface friction scale (1.0 = dry default).
    pub friction: f64,
    /// Added to the scenario's suggested road-patch arc length, metres.
    pub attack_start_offset: f64,
    /// Road-patch poisoning duration once triggered, seconds.
    pub attack_duration: f64,
    /// Scale on the fault magnitudes (RD offset tiers, curvature
    /// deviation); 1.0 = the paper's values.
    pub attack_intensity: f64,
    /// Sign of the induced lateral drift (+1 left, −1 right).
    pub attack_direction: f64,
    /// Added to every NPC trigger threshold (gap metres / event seconds),
    /// shifting when leads brake, cut in, or change lanes.
    pub trigger_offset: f64,
    /// Context-aware attack scheduling (Zhou et al.): 0 = the paper's
    /// always-armed patch, > 0 = hold the patch back until ground-truth
    /// TTC first drops to this many seconds.
    pub sched_ttc: f64,
}

/// Discrete coordinates as bytes (scenario, position, intervention row,
/// fault code), the repetition, then the eight continuous parameters
/// bit-exactly: the farm wire layout and the repro-name bytes.
impl Encode for FuzzCase {
    fn encode(&self, w: &mut Writer) {
        let Self {
            scenario,
            position,
            iv_row,
            fault,
            repetition,
            ego_speed_delta,
            friction,
            attack_start_offset,
            attack_duration,
            attack_intensity,
            attack_direction,
            trigger_offset,
            sched_ttc,
        } = *self;
        w.u8(scenario.index() as u8);
        w.u8(position.index() as u8);
        w.u8((iv_row % IV_ROWS) as u8);
        w.u8(fault.map_or(0, FaultType::code));
        w.u32(repetition);
        for v in [
            ego_speed_delta,
            friction,
            attack_start_offset,
            attack_duration,
            attack_intensity,
            attack_direction,
            trigger_offset,
            sched_ttc,
        ] {
            w.f64(v);
        }
    }
}

impl FuzzCase {
    /// Decodes [`Encode`] output.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            scenario: r.code(|c| ScenarioId::ALL.get(usize::from(c)).copied())?,
            position: r.code(|c| InitialPosition::ALL.get(usize::from(c)).copied())?,
            iv_row: r.code(|c| Some(usize::from(c)).filter(|&row| row < IV_ROWS))?,
            fault: r.opt_code(FaultType::from_code)?,
            repetition: r.u32()?,
            ego_speed_delta: r.f64()?,
            friction: r.f64()?,
            attack_start_offset: r.f64()?,
            attack_duration: r.f64()?,
            attack_intensity: r.f64()?,
            attack_direction: r.f64()?,
            trigger_offset: r.f64()?,
            sched_ttc: r.f64()?,
        })
    }

    /// The baseline case for a grid cell: paper-default continuous
    /// parameters (no overrides).
    #[must_use]
    pub fn baseline(
        scenario: ScenarioId,
        position: InitialPosition,
        iv_row: usize,
        fault: Option<FaultType>,
    ) -> Self {
        Self {
            scenario,
            position,
            iv_row: iv_row % IV_ROWS,
            fault,
            repetition: 0,
            ego_speed_delta: 0.0,
            friction: 1.0,
            attack_start_offset: 0.0,
            attack_duration: 12.0,
            attack_intensity: 1.0,
            attack_direction: 1.0,
            trigger_offset: 0.0,
            sched_ttc: 0.0,
        }
    }

    /// Returns the case with every continuous parameter clamped into its
    /// search range and the direction normalised to ±1.
    #[must_use]
    pub fn clamped(mut self) -> Self {
        self.iv_row %= IV_ROWS;
        self.ego_speed_delta = clamp(self.ego_speed_delta, EGO_SPEED_DELTA_RANGE);
        self.friction = clamp(self.friction, FRICTION_RANGE);
        self.attack_start_offset = clamp(self.attack_start_offset, ATTACK_START_RANGE);
        self.attack_duration = clamp(self.attack_duration, ATTACK_DURATION_RANGE);
        self.attack_intensity = clamp(self.attack_intensity, ATTACK_INTENSITY_RANGE);
        self.attack_direction = if self.attack_direction < 0.0 {
            -1.0
        } else {
            1.0
        };
        self.trigger_offset = clamp(self.trigger_offset, TRIGGER_OFFSET_RANGE);
        self.sched_ttc = clamp(self.sched_ttc, SCHED_TTC_RANGE);
        self
    }

    /// Linear interpolation of the continuous parameters: `t = 0` is
    /// `from`, `t = 1` is `self`. Discrete coordinates (and the drift
    /// direction) stay at `self`'s values — shrinking moves through the
    /// continuous space only.
    #[must_use]
    pub fn lerp_from(&self, from: &FuzzCase, t: f64) -> Self {
        let mix = |a: f64, b: f64| a + (b - a) * t;
        Self {
            ego_speed_delta: mix(from.ego_speed_delta, self.ego_speed_delta),
            friction: mix(from.friction, self.friction),
            attack_start_offset: mix(from.attack_start_offset, self.attack_start_offset),
            attack_duration: mix(from.attack_duration, self.attack_duration),
            attack_intensity: mix(from.attack_intensity, self.attack_intensity),
            sched_ttc: mix(from.sched_ttc, self.sched_ttc),
            ..*self
        }
        .clamped()
    }

    /// The intervention row this case runs under.
    #[must_use]
    pub fn interventions(&self) -> InterventionConfig {
        InterventionConfig::table_vi_rows()[self.iv_row % IV_ROWS]
    }

    /// The platform configuration this case runs under.
    #[must_use]
    pub fn config(&self) -> PlatformConfig {
        PlatformConfig {
            interventions: self.interventions(),
            friction: FrictionCondition::Custom(self.friction),
            max_steps: FUZZ_MAX_STEPS,
            attack: if self.sched_ttc > 0.0 {
                AttackScheduler::Context(ContextTrigger::ttc(self.sched_ttc))
            } else {
                AttackScheduler::Immediate
            },
            ..PlatformConfig::default()
        }
    }

    /// Packed discrete coordinates (scenario, position, intervention row,
    /// fault): the cell key used for finding dedup and benign-neighbour
    /// lookup.
    #[must_use]
    pub fn cell_key(&self) -> u64 {
        let fault = u64::from(self.fault.map_or(0, FaultType::code));
        (self.scenario.index() as u64) << 8
            | (self.position.index() as u64) << 7
            | ((self.iv_row % IV_ROWS) as u64) << 4
            | fault << 2
            | u64::from(self.sched_ttc > 0.0)
    }

    /// Stable fingerprint of the full case (discrete + continuous), used
    /// for repro file names.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .write_str("fuzz-case-v2")
            .write(self)
            .value()
    }

    /// Compact human label: `S4/Near/Driver+Check/RelativeDistance`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{:?}/{}/{}",
            self.scenario.label(),
            self.position,
            self.interventions().label(),
            self.fault.map_or("Benign".to_owned(), |f| format!("{f:?}")),
        )
    }
}

/// Executes one fuzz case under its own configuration.
#[must_use]
pub fn run_case(case: &FuzzCase, seed: u64) -> (RunRecord, Trace) {
    run_case_with(case, seed, &case.config())
}

/// Executes one fuzz case under an explicit configuration (the
/// differential oracle reruns the same case with one intervention
/// disabled).
///
/// RNG derivation and scenario construction mirror `adas_core::run_single`
/// and stepping is [`Platform::run_to_end`], so a fuzz case with
/// all-default continuous parameters is bit-identical to the corresponding
/// campaign run.
#[must_use]
pub fn run_case_with(case: &FuzzCase, seed: u64, config: &PlatformConfig) -> (RunRecord, Trace) {
    let mut platform = case_platform(case, seed, config);
    let end = platform.run_to_end();
    finish_case(case, seed, config, end, platform)
}

/// Builds the fully-wired platform for one fuzz case (full-mode trace
/// writer attached) without stepping it — the seam the lockstep batch
/// executor drives. Construction is shared with [`run_case_with`], so a
/// batched case is bit-identical to one run alone.
#[must_use]
pub(crate) fn case_platform(case: &FuzzCase, seed: u64, config: &PlatformConfig) -> Platform {
    let id = RunId {
        scenario: case.scenario,
        position: case.position,
        repetition: case.repetition,
    };
    let mut rng = DeterministicRng::for_run(
        seed,
        id.scenario.index() as u64,
        id.position.index() as u64,
        u64::from(id.repetition),
    );
    let mut setup = ScenarioSetup::build(case.scenario, case.position, &mut rng);

    // Continuous overrides on top of the per-repetition jitter.
    setup.ego_speed = (setup.ego_speed + case.ego_speed_delta).clamp(mph(30.0), mph(85.0));
    setup.patch_start_s =
        (setup.patch_start_s + case.attack_start_offset).max(setup.ego_start_s + 30.0);
    if case.trigger_offset != 0.0 {
        for npc in &mut setup.npcs {
            for phase in &mut npc.plan_mut().phases {
                match &mut phase.trigger {
                    NpcTrigger::Immediately => {}
                    // Same knob shifts both trigger families: metres of gap
                    // or (scaled) seconds of event time.
                    NpcTrigger::AtTime(t) => *t = (*t + case.trigger_offset).max(0.0),
                    NpcTrigger::GapToEgoBelow(g) => *g = (*g + case.trigger_offset).max(2.0),
                }
            }
        }
    }

    let injector = match case.fault {
        Some(ft) => {
            let mut spec = FaultSpec::new(ft, setup.patch_start_s).scheduled(config.attack);
            spec.rd.offset_scale = case.attack_intensity;
            spec.curvature.deviation *= case.attack_intensity;
            spec.curvature.direction = case.attack_direction;
            spec.curvature.duration = Some(case.attack_duration);
            FaultInjector::new(spec)
        }
        None => FaultInjector::disabled(),
    };

    let mut platform = Platform::new(&setup, *config, injector, None, &mut rng);
    let mut writer = TraceWriter::new(RecordMode::Full);
    writer.reserve(config.max_steps);
    platform.attach_writer(writer);
    platform
}

/// Seals a finished case platform under the case's trace header.
/// Counterpart of [`case_platform`]. The header cannot carry the case's
/// continuous overrides, so its `config_fingerprint` folds in
/// [`FuzzCase::fingerprint`]: `replay_trace` refuses the trace with
/// `ConfigMismatch` instead of reporting a false divergence.
#[must_use]
pub(crate) fn finish_case(
    case: &FuzzCase,
    seed: u64,
    config: &PlatformConfig,
    end: EndReason,
    platform: Platform,
) -> (RunRecord, Trace) {
    let id = RunId {
        scenario: case.scenario,
        position: case.position,
        repetition: case.repetition,
    };
    let mut header = trace_header(id, case.fault, config, 0, seed);
    header.config_fingerprint = Fingerprint::new()
        .write_u64(header.config_fingerprint)
        .write_u64(case.fingerprint())
        .value();
    platform.seal(end, header)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> FuzzCase {
        FuzzCase::baseline(
            ScenarioId::S1,
            InitialPosition::Near,
            1,
            Some(FaultType::RelativeDistance),
        )
    }

    #[test]
    fn clamping_bounds_every_parameter() {
        let mut c = case();
        c.ego_speed_delta = 1e9;
        c.friction = -3.0;
        c.attack_duration = f64::NAN;
        c.attack_direction = -0.2;
        c.iv_row = 23;
        let c = c.clamped();
        assert_eq!(c.ego_speed_delta, EGO_SPEED_DELTA_RANGE.1);
        assert_eq!(c.friction, FRICTION_RANGE.0);
        assert_eq!(c.attack_duration, ATTACK_DURATION_RANGE.0);
        assert_eq!(c.attack_direction, -1.0);
        assert!(c.iv_row < IV_ROWS);
    }

    #[test]
    fn lerp_endpoints_recover_inputs() {
        let a = case();
        let mut b = case();
        b.ego_speed_delta = 4.0;
        b.friction = 0.5;
        assert_eq!(b.lerp_from(&a, 0.0).friction, 1.0);
        assert_eq!(b.lerp_from(&a, 1.0).friction, 0.5);
        // Discrete coordinates always come from the violating side.
        assert_eq!(b.lerp_from(&a, 0.0).iv_row, b.iv_row);
    }

    #[test]
    fn same_case_same_seed_is_bit_identical() {
        let c = case();
        let (r1, t1) = run_case(&c, 99);
        let (r2, t2) = run_case(&c, 99);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
        assert!(adas_recorder::diff_traces(&t1, &t2).is_identical());
    }

    #[test]
    fn every_field_moves_the_fingerprint() {
        type Perturbation = (&'static str, fn(&mut FuzzCase));
        let perturbations: [Perturbation; 13] = [
            ("scenario", |c| c.scenario = ScenarioId::S2),
            ("position", |c| c.position = InitialPosition::Far),
            ("iv_row", |c| c.iv_row = 2),
            ("fault", |c| c.fault = None),
            ("repetition", |c| c.repetition = 3),
            ("ego_speed_delta", |c| c.ego_speed_delta = 1.5),
            ("friction", |c| c.friction = 0.5),
            ("attack_start_offset", |c| c.attack_start_offset = 20.0),
            ("attack_duration", |c| c.attack_duration = 5.0),
            ("attack_intensity", |c| c.attack_intensity = 2.0),
            ("attack_direction", |c| c.attack_direction = -1.0),
            ("trigger_offset", |c| c.trigger_offset = 1.0),
            ("sched_ttc", |c| c.sched_ttc = 2.5),
        ];
        let base = case();
        let mut seen = std::collections::HashSet::from([base.fingerprint()]);
        for (field, perturb) in perturbations {
            let mut c = base;
            perturb(&mut c);
            assert!(
                seen.insert(c.fingerprint()),
                "{field}: fingerprint did not move"
            );
        }
    }

    #[test]
    fn scheduler_reaches_the_config_and_the_cell_key() {
        let mut s = case();
        s.sched_ttc = 3.0;
        assert!(case().config().attack.is_immediate());
        match s.config().attack {
            AttackScheduler::Context(t) => assert_eq!(t.ttc_below, Some(3.0)),
            AttackScheduler::Immediate => panic!("scheduled case lost its trigger"),
        }
        // Scheduling moves the case to a different grid cell (bit 0), so
        // findings and benign neighbours never mix the two attack modes.
        assert_ne!(case().cell_key(), s.cell_key());
        assert_eq!(case().cell_key() | 1, s.cell_key());
    }

    #[test]
    fn cell_keys_distinguish_grid_cells() {
        let a = case();
        let mut b = case();
        b.fault = Some(FaultType::Mixed);
        let mut c = case();
        c.iv_row = 3;
        assert_ne!(a.cell_key(), b.cell_key());
        assert_ne!(a.cell_key(), c.cell_key());
        // Continuous parameters do not move the cell.
        let mut d = case();
        d.friction = 0.4;
        assert_eq!(a.cell_key(), d.cell_key());
    }

    #[test]
    fn fuzz_traces_refuse_replay_instead_of_diverging() {
        // The header cannot carry the overrides, so replaying from it would
        // re-run a different run; the folded case fingerprint refuses it.
        let mut c = case();
        c.ego_speed_delta = 3.5;
        c.attack_intensity = 2.0;
        let (_, trace) = run_case(&c, 2025);
        let err = adas_core::replay_trace(&trace, None, None).unwrap_err();
        assert!(
            matches!(err, adas_core::ReplayError::ConfigMismatch { .. }),
            "{err}"
        );
        // `run_case` itself still reproduces the recording exactly.
        let (_, again) = run_case(&c, 2025);
        assert!(adas_recorder::diff_traces(&trace, &again).is_identical());
    }
}
