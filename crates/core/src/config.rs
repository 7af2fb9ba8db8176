//! Platform configuration: which interventions are enabled, environment
//! conditions, and subsystem parameters.

use adas_attack::AttackScheduler;
use adas_codec::{DecodeError, Encode, Reader, Writer};
use adas_control::AdasConfig;
use adas_ml::MitigationKind;
use adas_perception::PerceptionConfig;
use adas_safety::AebsMode;
use adas_scenarios::HazardConfig;
use adas_simulator::FrictionCondition;

/// Which safety interventions are active — one value per Table VI row
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterventionConfig {
    /// Human-driver reaction simulator enabled.
    pub driver: bool,
    /// Driver reaction time, seconds (the paper's default is 2.5 s; Table
    /// VII sweeps 1.0–3.5 s).
    pub driver_reaction_time: f64,
    /// PANDA-style firmware safety checking enabled.
    pub safety_check: bool,
    /// AEBS configuration (disabled / compromised input / independent).
    pub aebs: AebsMode,
    /// ML-based mitigation enabled.
    pub ml: bool,
    /// Which mitigation strategy runs when [`Self::ml`] is set
    /// (`ADAS_MITIGATION`): the Algorithm 1 CUSUM baseline, the
    /// uncertainty ensemble, or the masked-view agreement check.
    pub mitigation: MitigationKind,
    /// View count M for the view-based strategies (`ADAS_VIEWS`); 0 means
    /// the strategy default (see [`Self::effective_views`]). Ignored by
    /// the CUSUM baseline.
    pub views: u8,
}

/// Flags byte (bit 0 driver, bit 1 safety check, bit 2 ML, bits 3–4 the
/// mitigation code), AEBS code, reaction time, view count: the campaign
/// wire layout of a cell's interventions, and their cache-key bytes.
impl Encode for InterventionConfig {
    fn encode(&self, w: &mut Writer) {
        let Self {
            driver,
            driver_reaction_time,
            safety_check,
            aebs,
            ml,
            mitigation,
            views,
        } = *self;
        w.u8(u8::from(driver)
            | (u8::from(safety_check) << 1)
            | (u8::from(ml) << 2)
            | (mitigation.code() << 3));
        w.put(&aebs);
        w.f64(driver_reaction_time);
        w.u8(views);
    }
}

impl InterventionConfig {
    /// Decodes [`Encode`] output; rejects unknown flag bits or codes, a
    /// non-finite or non-positive reaction time, and a view count above
    /// [`MAX_VIEWS`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let invalid = |offset| DecodeError { offset, needed: 0 };
        let at = r.pos();
        let flags = r.code(|f| (f & !0b1_1111 == 0).then_some(f))?;
        let mitigation = MitigationKind::from_code(flags >> 3).ok_or(invalid(at))?;
        let aebs = r.code(AebsMode::from_code)?;
        let at = r.pos();
        let driver_reaction_time = r.f64()?;
        if !driver_reaction_time.is_finite() || driver_reaction_time <= 0.0 {
            return Err(invalid(at));
        }
        let views = r.code(|v| (v <= MAX_VIEWS).then_some(v))?;
        Ok(Self {
            driver: flags & 1 != 0,
            driver_reaction_time,
            safety_check: flags & 0b10 != 0,
            aebs,
            ml: flags & 0b100 != 0,
            mitigation,
            views,
        })
    }

    /// No interventions at all (the attack-impact baseline rows).
    #[must_use]
    pub fn none() -> Self {
        Self {
            driver: false,
            driver_reaction_time: 2.5,
            safety_check: false,
            aebs: AebsMode::Disabled,
            ml: false,
            mitigation: MitigationKind::Cusum,
            views: 0,
        }
    }

    /// Driver + safety check.
    #[must_use]
    pub fn driver_and_check() -> Self {
        Self {
            driver: true,
            safety_check: true,
            ..Self::none()
        }
    }

    /// Driver + safety check + AEB on compromised data.
    #[must_use]
    pub fn driver_check_aeb_compromised() -> Self {
        Self {
            aebs: AebsMode::Compromised,
            ..Self::driver_and_check()
        }
    }

    /// Driver + safety check + AEB on an independent sensor.
    #[must_use]
    pub fn driver_check_aeb_independent() -> Self {
        Self {
            aebs: AebsMode::Independent,
            ..Self::driver_and_check()
        }
    }

    /// AEB alone, on compromised data.
    #[must_use]
    pub fn aeb_compromised_only() -> Self {
        Self {
            aebs: AebsMode::Compromised,
            ..Self::none()
        }
    }

    /// AEB alone, on an independent sensor.
    #[must_use]
    pub fn aeb_independent_only() -> Self {
        Self {
            aebs: AebsMode::Independent,
            ..Self::none()
        }
    }

    /// Driver alone.
    #[must_use]
    pub fn driver_only() -> Self {
        Self {
            driver: true,
            ..Self::none()
        }
    }

    /// ML mitigation alone (the Algorithm 1 CUSUM baseline).
    #[must_use]
    pub fn ml_only() -> Self {
        Self {
            ml: true,
            ..Self::none()
        }
    }

    /// Uncertainty-ensemble mitigation alone.
    #[must_use]
    pub fn ensemble_only() -> Self {
        Self {
            mitigation: MitigationKind::Ensemble,
            ..Self::ml_only()
        }
    }

    /// Masked-view agreement check alone.
    #[must_use]
    pub fn maskcheck_only() -> Self {
        Self {
            mitigation: MitigationKind::MaskCheck,
            ..Self::ml_only()
        }
    }

    /// This configuration with the given mitigation strategy selected
    /// (does not flip [`Self::ml`] itself).
    #[must_use]
    pub fn with_mitigation(self, mitigation: MitigationKind) -> Self {
        Self { mitigation, ..self }
    }

    /// The effective view count M for the view-based strategies: the
    /// explicit [`Self::views`] when non-zero, else the strategy default
    /// (8 for the ensemble, 6 for the masked-view check, 1 for CUSUM
    /// which runs no view fan-out).
    #[must_use]
    pub fn effective_views(&self) -> usize {
        if self.views != 0 {
            return usize::from(self.views);
        }
        match self.mitigation {
            MitigationKind::Cusum => 1,
            MitigationKind::Ensemble => 8,
            MitigationKind::MaskCheck => 6,
        }
    }

    /// The eight Table VI row configurations, in paper order.
    #[must_use]
    pub fn table_vi_rows() -> [InterventionConfig; 8] {
        [
            Self::none(),
            Self::driver_and_check(),
            Self::driver_check_aeb_compromised(),
            Self::driver_check_aeb_independent(),
            Self::aeb_compromised_only(),
            Self::aeb_independent_only(),
            Self::driver_only(),
            Self::ml_only(),
        ]
    }

    /// Parses an intervention row name: the [`Self::label`] of a Table VI
    /// row or of the two view-based mitigation rows (`Driver+Check`,
    /// `AEB-Indep`, `ML-Ens`, …), ignoring case, with `-` for `+`
    /// (`driver-check-aeb-comp`, `ml-mask`). `None` for unknown names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let normal = |s: &str| s.trim().to_ascii_lowercase().replace('+', "-");
        let name = normal(name);
        Self::table_vi_rows()
            .into_iter()
            .chain([Self::ensemble_only(), Self::maskcheck_only()])
            .find(|row| normal(&row.label()) == name)
    }

    /// Compact label like the paper's check-mark columns.
    #[must_use]
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.driver {
            parts.push("Driver".to_owned());
        }
        if self.safety_check {
            parts.push("Check".to_owned());
        }
        match self.aebs {
            AebsMode::Disabled => {}
            AebsMode::Compromised => parts.push("AEB-Comp".to_owned()),
            AebsMode::Independent => parts.push("AEB-Indep".to_owned()),
        }
        if self.ml {
            parts.push(
                match self.mitigation {
                    MitigationKind::Cusum => "ML",
                    MitigationKind::Ensemble => "ML-Ens",
                    MitigationKind::MaskCheck => "ML-Mask",
                }
                .to_owned(),
            );
        }
        if parts.is_empty() {
            "None".to_owned()
        } else {
            parts.join("+")
        }
    }
}

/// Reads the mitigation-variant knobs from the environment:
/// `ADAS_MITIGATION` ∈ {`cusum`, `ensemble`, `maskcheck`} (default
/// `cusum`) and `ADAS_VIEWS` (view count M; 0/unset = strategy default).
/// Unparseable values fall back to the defaults rather than aborting a
/// campaign.
#[must_use]
pub fn mitigation_from_env() -> (MitigationKind, u8) {
    let kind = std::env::var("ADAS_MITIGATION")
        .ok()
        .and_then(|v| MitigationKind::from_name(&v))
        .unwrap_or_default();
    let views = std::env::var("ADAS_VIEWS")
        .ok()
        .and_then(|v| v.trim().parse::<u8>().ok())
        .unwrap_or(0)
        .min(MAX_VIEWS);
    (kind, views)
}

/// Largest encodable view count: the trace header packs the view count
/// into six spare bits of the ML-intervention byte.
pub const MAX_VIEWS: u8 = 63;

impl Default for InterventionConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Full platform configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Which safety interventions are active.
    pub interventions: InterventionConfig,
    /// Road-surface condition.
    pub friction: FrictionCondition,
    /// Maximum steps per run (the paper uses 10 000 ≈ 100 s).
    pub max_steps: usize,
    /// Perception emulator parameters.
    pub perception: PerceptionConfig,
    /// ADAS controller parameters.
    pub adas: AdasConfig,
    /// Hazard detector thresholds.
    pub hazards: HazardConfig,
    /// End the run early once the ego has been stationary this many steps
    /// (0 disables). Saves campaign time after a successful full stop.
    pub quiescence_steps: usize,
    /// When the injected fault activates: immediately on its trigger
    /// condition (the paper's fixed policy), or gated on a context-aware
    /// vulnerability predicate over live world state (`ADAS_ATTACK`).
    pub attack: AttackScheduler,
}

impl Encode for PlatformConfig {
    fn encode(&self, w: &mut Writer) {
        let Self {
            interventions,
            friction,
            max_steps,
            perception,
            adas,
            hazards,
            quiescence_steps,
            attack,
        } = self;
        w.put(interventions);
        w.put(friction);
        w.usize(*max_steps);
        w.put(perception);
        w.put(adas);
        w.put(hazards);
        w.usize(*quiescence_steps);
        w.put(attack);
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            interventions: InterventionConfig::none(),
            friction: FrictionCondition::Default,
            max_steps: adas_simulator::units::STEPS_PER_RUN,
            perception: PerceptionConfig::default(),
            adas: AdasConfig::default(),
            hazards: HazardConfig::default(),
            quiescence_steps: 300,
            attack: AttackScheduler::Immediate,
        }
    }
}

impl PlatformConfig {
    /// Default platform with the given interventions.
    #[must_use]
    pub fn with_interventions(interventions: InterventionConfig) -> Self {
        Self {
            interventions,
            ..Self::default()
        }
    }
}

/// Reads the attack-scheduler knob from `ADAS_ATTACK`: `immediate` (or
/// unset/empty) keeps the paper's fixed activation policy; a predicate
/// like `ttc<2.5`, `lane>0.8`, `curv>0.002`, `arm>10` (comma-separated
/// atoms AND together) selects Zhou et al.-style context-aware timing.
/// Unparseable values fall back to immediate rather than aborting.
#[must_use]
pub fn attack_from_env() -> AttackScheduler {
    std::env::var("ADAS_ATTACK")
        .ok()
        .and_then(|v| AttackScheduler::parse(&v))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{campaign_cell_fingerprint, SCENARIO_MASK_ALL};
    use crate::replay::config_fingerprint;
    use adas_attack::{ContextTrigger, FaultType};
    use std::collections::HashSet;

    #[test]
    fn from_name_accepts_every_row_spelling() {
        // Labels in any case (the results CSVs, `adas-replay record`) and
        // kebab case (`adas-serve` row lists).
        type Iv = InterventionConfig;
        let cases: [(&[&str], _); 11] = [
            (&["None", "none"], Some(Iv::none())),
            (
                &["Driver+Check", "driver-check"],
                Some(Iv::driver_and_check()),
            ),
            (
                &["Driver+Check+AEB-Comp", "driver-check-aeb-comp"],
                Some(Iv::driver_check_aeb_compromised()),
            ),
            (
                &["Driver+Check+AEB-Indep", "driver-check-aeb-indep"],
                Some(Iv::driver_check_aeb_independent()),
            ),
            (&["AEB-Comp", "aeb-comp"], Some(Iv::aeb_compromised_only())),
            (
                &["AEB-Indep", "aeb-indep", " aeb-indep "],
                Some(Iv::aeb_independent_only()),
            ),
            (&["Driver", "driver"], Some(Iv::driver_only())),
            (&["ML", "ml"], Some(Iv::ml_only())),
            (&["ML-Ens", "ml-ens"], Some(Iv::ensemble_only())),
            (&["ML-Mask", "ml-mask"], Some(Iv::maskcheck_only())),
            (&["", "all", "check", "ml-cusum", "driver,check"], None),
        ];
        for (names, parsed) in cases {
            for name in names {
                assert_eq!(Iv::from_name(name), parsed, "{name:?}");
            }
        }
    }

    #[test]
    fn table_vi_rows_match_paper_layout() {
        let rows = InterventionConfig::table_vi_rows();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].label(), "None");
        assert_eq!(rows[1].label(), "Driver+Check");
        assert_eq!(rows[2].label(), "Driver+Check+AEB-Comp");
        assert_eq!(rows[3].label(), "Driver+Check+AEB-Indep");
        assert_eq!(rows[4].label(), "AEB-Comp");
        assert_eq!(rows[5].label(), "AEB-Indep");
        assert_eq!(rows[6].label(), "Driver");
        assert_eq!(rows[7].label(), "ML");
    }

    #[test]
    fn default_reaction_time_is_paper_value() {
        assert_eq!(InterventionConfig::driver_only().driver_reaction_time, 2.5);
    }

    #[test]
    fn default_run_length() {
        let c = PlatformConfig::default();
        assert_eq!(c.max_steps, 10_000);
    }

    /// A named single-field perturbation.
    type Perturbation = (&'static str, fn(&mut PlatformConfig));

    /// One perturbation per leaf field of [`PlatformConfig`], nested
    /// perception, ADAS and hazard configs included.
    fn platform_perturbations() -> Vec<Perturbation> {
        vec![
            ("interventions.driver", |c| c.interventions.driver ^= true),
            ("interventions.driver_reaction_time", |c| {
                c.interventions.driver_reaction_time += 0.5
            }),
            ("interventions.safety_check", |c| {
                c.interventions.safety_check ^= true
            }),
            ("interventions.aebs", |c| {
                c.interventions.aebs = AebsMode::Independent
            }),
            ("interventions.ml", |c| c.interventions.ml ^= true),
            ("interventions.mitigation", |c| {
                c.interventions.mitigation = MitigationKind::Ensemble
            }),
            ("interventions.views", |c| c.interventions.views = 5),
            ("friction", |c| c.friction = FrictionCondition::Off50),
            ("friction.custom", |c| {
                c.friction = FrictionCondition::Custom(0.5)
            }),
            ("max_steps", |c| c.max_steps += 1),
            ("perception.blind_range", |c| {
                c.perception.blind_range += 1.0
            }),
            ("perception.max_range", |c| c.perception.max_range += 1.0),
            ("perception.distance_noise_frac", |c| {
                c.perception.distance_noise_frac += 1.0
            }),
            ("perception.distance_noise_floor", |c| {
                c.perception.distance_noise_floor += 1.0
            }),
            ("perception.speed_noise", |c| {
                c.perception.speed_noise += 1.0
            }),
            ("perception.lane_noise", |c| c.perception.lane_noise += 1.0),
            ("perception.curvature_noise", |c| {
                c.perception.curvature_noise += 1.0
            }),
            ("perception.preview_time", |c| {
                c.perception.preview_time += 1.0
            }),
            ("perception.lead_window_frac", |c| {
                c.perception.lead_window_frac += 1.0
            }),
            ("perception.centering_offset_gain", |c| {
                c.perception.centering_offset_gain += 1.0
            }),
            ("perception.centering_heading_gain", |c| {
                c.perception.centering_heading_gain += 1.0
            }),
            ("perception.centering_limit", |c| {
                c.perception.centering_limit += 1.0
            }),
            ("perception.heading_noise", |c| {
                c.perception.heading_noise += 1.0
            }),
            ("adas.acc.set_speed", |c| c.adas.acc.set_speed += 1.0),
            ("adas.acc.gap_offset", |c| c.adas.acc.gap_offset += 1.0),
            ("adas.acc.time_gap", |c| c.adas.acc.time_gap += 1.0),
            ("adas.acc.min_gap", |c| c.adas.acc.min_gap += 1.0),
            ("adas.acc.brake_engage_decel", |c| {
                c.adas.acc.brake_engage_decel += 1.0
            }),
            ("adas.acc.brake_gain", |c| c.adas.acc.brake_gain += 1.0),
            ("adas.acc.max_decel", |c| c.adas.acc.max_decel += 1.0),
            ("adas.acc.max_accel", |c| c.adas.acc.max_accel += 1.0),
            ("adas.acc.gap_gain", |c| c.adas.acc.gap_gain += 1.0),
            ("adas.acc.speed_match_gain", |c| {
                c.adas.acc.speed_match_gain += 1.0
            }),
            ("adas.acc.closing_tau", |c| c.adas.acc.closing_tau += 1.0),
            ("adas.alc.wheelbase", |c| c.adas.alc.wheelbase += 1.0),
            ("adas.alc.command_tau", |c| c.adas.alc.command_tau += 1.0),
            ("adas.alc.steer_limit", |c| c.adas.alc.steer_limit += 1.0),
            ("adas.alc.aux_offset_gain", |c| {
                c.adas.alc.aux_offset_gain += 1.0
            }),
            ("adas.alc.aux_feedback_limit", |c| {
                c.adas.alc.aux_feedback_limit += 1.0
            }),
            ("hazards.h1_distance", |c| c.hazards.h1_distance += 1.0),
            ("hazards.h1_ttc", |c| c.hazards.h1_ttc += 1.0),
            ("hazards.h2_line_distance", |c| {
                c.hazards.h2_line_distance += 1.0
            }),
            ("quiescence_steps", |c| c.quiescence_steps += 1),
            ("attack", |c| {
                c.attack = AttackScheduler::Context(ContextTrigger::default())
            }),
            ("attack.ttc_below", |c| {
                c.attack = AttackScheduler::Context(ContextTrigger::ttc(2.0))
            }),
            ("attack.lane_excursion_above", |c| {
                c.attack = AttackScheduler::Context(ContextTrigger {
                    lane_excursion_above: Some(0.5),
                    ..ContextTrigger::default()
                });
            }),
            ("attack.curvature_above", |c| {
                c.attack = AttackScheduler::Context(ContextTrigger {
                    curvature_above: Some(0.002),
                    ..ContextTrigger::default()
                });
            }),
            ("attack.arm_after", |c| {
                c.attack = AttackScheduler::Context(ContextTrigger {
                    arm_after: 5.0,
                    ..ContextTrigger::default()
                });
            }),
        ]
    }

    #[test]
    fn every_platform_field_moves_the_cell_key_and_the_trace_fingerprint() {
        let base = PlatformConfig::default();
        let cell_key = |c: &PlatformConfig| {
            let fault = Some(FaultType::RelativeDistance);
            campaign_cell_fingerprint(fault, c, None, 2025, 10, SCENARIO_MASK_ALL)
        };
        let mut seen = HashSet::from([cell_key(&base)]);
        for (field, perturb) in platform_perturbations() {
            let mut c = base;
            perturb(&mut c);
            assert_ne!(c, base, "{field}: perturbation was a no-op");
            assert!(seen.insert(cell_key(&c)), "{field}: cell key did not move");
            assert_ne!(
                config_fingerprint(&c),
                config_fingerprint(&base),
                "{field}: trace config fingerprint did not move"
            );
        }
    }

    #[test]
    fn keys_are_pinned_to_canonical_bytes() {
        // A Table VI cell (Relative Distance × Driver+Check, paper seed and
        // repetitions, builtin scenario catalog) and the default trace config
        // fingerprint. Neither reads a `Debug` rendering, so no derive change
        // can move them; only a deliberate encoding change can.
        let row = PlatformConfig::with_interventions(InterventionConfig::driver_and_check());
        let fault = Some(FaultType::RelativeDistance);
        let key = campaign_cell_fingerprint(fault, &row, None, 2025, 10, SCENARIO_MASK_ALL);
        assert_eq!(key.hex(), "6b8e15cda8c5be08");
        assert_eq!(
            format!("{:016x}", config_fingerprint(&PlatformConfig::default())),
            "f3c30aaa9079f870"
        );
    }

    #[test]
    fn intervention_decode_rejects_unknown_bits_and_codes() {
        // Flag bit 5, mitigation code 3, AEBS code 3.
        for bad in [[0b10_0000, 0], [0b1_1000, 0], [0, 3]] {
            let mut bytes = bad.to_vec();
            bytes.extend_from_slice(&2.5f64.to_le_bytes());
            bytes.push(0);
            assert!(InterventionConfig::decode(&mut Reader::new(&bytes)).is_err());
        }
    }

    #[test]
    fn attack_env_parses_or_falls_back() {
        assert_eq!(
            AttackScheduler::parse("immediate"),
            Some(AttackScheduler::Immediate)
        );
        assert!(AttackScheduler::parse("ttc<2.0,arm>5").is_some());
        assert_eq!(AttackScheduler::parse("bogus<1"), None);
    }

    #[test]
    fn mitigation_variant_labels() {
        assert_eq!(InterventionConfig::ml_only().label(), "ML");
        assert_eq!(InterventionConfig::ensemble_only().label(), "ML-Ens");
        assert_eq!(InterventionConfig::maskcheck_only().label(), "ML-Mask");
    }

    #[test]
    fn effective_views_defaults_per_strategy() {
        assert_eq!(InterventionConfig::ml_only().effective_views(), 1);
        assert_eq!(InterventionConfig::ensemble_only().effective_views(), 8);
        assert_eq!(InterventionConfig::maskcheck_only().effective_views(), 6);
        let mut c = InterventionConfig::ensemble_only();
        c.views = 3;
        assert_eq!(c.effective_views(), 3);
    }
}
