//! Safety-property oracles: invariants that must hold at *every* point of
//! the parameter space, so any violation is a finding regardless of how
//! contrived the parameters look.
//!
//! Trace-level oracles check each step of the flight-recorder capture;
//! the differential oracle compares a run against reruns with one
//! intervention disabled (paper Observation 4: AEB suppressing the
//! driver's steering can make outcomes *worse*); the metamorphic oracle
//! checks that moving the road patch further away cannot change the
//! physics before the original patch position was reached.

use adas_core::PlatformConfig;
use adas_recorder::diff::compare_streams;
use adas_recorder::{Trace, Verdict};
use adas_safety::AebsMode;
use adas_scenarios::{AccidentKind, RunRecord};

/// The oracle families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OracleKind {
    /// While AEB owns the longitudinal channel it must brake, never
    /// accelerate; an independent-sensor AEBS must be braking whenever the
    /// true TTC is inside the H1 horizon at speed.
    AebNoAccel,
    /// Arbiter priority is monotone: a braking driver (with no AEB above
    /// it) implies zero throttle, and an intervention that is disabled in
    /// the configuration never fires.
    ArbiterPriority,
    /// No accident without a preceding hazard flag (H1/H2 at or before the
    /// accident time).
    HazardOrdering,
    /// Disabling an intervention never *reduces* accident severity on the
    /// same seed (if it does, the intervention caused harm).
    InterventionRegression,
    /// Shifting the road patch further away keeps the physics prefix
    /// bit-identical up to the original patch position.
    MetamorphicShift,
    /// A context-scheduled patch (armed only once the ego is already in a
    /// vulnerable state) must never produce a *strictly worse* outcome than
    /// the same patch always-on: if it does, strategic timing defeats an
    /// intervention stack that handled the naive attack (Zhou et al.).
    ScheduleDominance,
}

impl OracleKind {
    /// All oracle families.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::AebNoAccel,
        OracleKind::ArbiterPriority,
        OracleKind::HazardOrdering,
        OracleKind::InterventionRegression,
        OracleKind::MetamorphicShift,
        OracleKind::ScheduleDominance,
    ];

    /// Stable kebab-case name (used in repro files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::AebNoAccel => "aeb-no-accel",
            OracleKind::ArbiterPriority => "arbiter-priority",
            OracleKind::HazardOrdering => "hazard-ordering",
            OracleKind::InterventionRegression => "intervention-regression",
            OracleKind::MetamorphicShift => "metamorphic-shift",
            OracleKind::ScheduleDominance => "schedule-dominance",
        }
    }

    /// Stable code for dedup keys.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            OracleKind::AebNoAccel => 0,
            OracleKind::ArbiterPriority => 1,
            OracleKind::HazardOrdering => 2,
            OracleKind::InterventionRegression => 3,
            OracleKind::MetamorphicShift => 4,
            OracleKind::ScheduleDominance => 5,
        }
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which property broke.
    pub oracle: OracleKind,
    /// Step index of the first offending sample (trace-level oracles).
    pub step: Option<u64>,
    /// Human-readable description of what was observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(s) => write!(f, "[{}] step {}: {}", self.oracle, s, self.detail),
            None => write!(f, "[{}] {}", self.oracle, self.detail),
        }
    }
}

/// Accident severity scale for the differential oracle: no accident <
/// lane violation (A2) < forward collision (A1).
#[must_use]
pub fn severity(record: &RunRecord) -> u8 {
    match record.accident {
        None => 0,
        Some(AccidentKind::LaneViolation) => 1,
        Some(AccidentKind::ForwardCollision) => 2,
    }
}

/// Minimum ego speed for the "independent AEBS must brake inside the H1
/// TTC horizon" obligation, m/s. Below this the partial-braking horizon
/// `v / pb1_divisor` can sit under the H1 TTC threshold, so a quiet AEBS
/// is legitimate.
pub const AEB_OBLIGATION_MIN_SPEED: f64 = 4.0;

/// Checks every trace-level oracle on one finished run. Returns at most
/// one violation per oracle family (the first offending step).
#[must_use]
pub fn check_trace(config: &PlatformConfig, record: &RunRecord, trace: &Trace) -> Vec<Violation> {
    let mut out = Vec::new();
    let iv = config.interventions;
    let h1_ttc = config.hazards.h1_ttc;
    let first = trace.header.first_step;

    let mut aeb_violation: Option<Violation> = None;
    let mut arb_violation: Option<Violation> = None;
    for (i, s) in trace.samples.iter().enumerate() {
        let step = first + i as u64;
        if aeb_violation.is_none() {
            if s.aeb_active && (s.gas > 0.0 || s.brake <= 0.0) {
                aeb_violation = Some(Violation {
                    oracle: OracleKind::AebNoAccel,
                    step: Some(step),
                    detail: format!(
                        "AEB owns the longitudinal channel but commands gas={} brake={}",
                        s.gas, s.brake
                    ),
                });
            } else if iv.aebs == AebsMode::Independent
                && s.ttc < h1_ttc
                && s.ego_v > AEB_OBLIGATION_MIN_SPEED
                && s.brake <= 0.0
            {
                aeb_violation = Some(Violation {
                    oracle: OracleKind::AebNoAccel,
                    step: Some(step),
                    detail: format!(
                        "independent AEBS silent inside the H1 horizon: true ttc={:.3} s \
                         at {:.1} m/s with zero brake",
                        s.ttc, s.ego_v
                    ),
                });
            }
        }
        if arb_violation.is_none() {
            let fired_while_disabled = (s.aeb_active && iv.aebs == AebsMode::Disabled)
                || ((s.driver_braking || s.driver_steering) && !iv.driver)
                || (s.ml_active && !iv.ml);
            if fired_while_disabled {
                arb_violation = Some(Violation {
                    oracle: OracleKind::ArbiterPriority,
                    step: Some(step),
                    detail: format!(
                        "disabled intervention fired: aeb={} driver_brake={} \
                         driver_steer={} ml={} under {}",
                        s.aeb_active,
                        s.driver_braking,
                        s.driver_steering,
                        s.ml_active,
                        iv.label()
                    ),
                });
            } else if s.driver_braking && !s.aeb_active && (s.gas > 0.0 || s.brake <= 0.0) {
                arb_violation = Some(Violation {
                    oracle: OracleKind::ArbiterPriority,
                    step: Some(step),
                    detail: format!(
                        "driver braking but actuators carry gas={} brake={}",
                        s.gas, s.brake
                    ),
                });
            }
        }
    }
    out.extend(aeb_violation);
    out.extend(arb_violation);

    if let (Some(kind), Some(t_acc)) = (record.accident, record.accident_time) {
        let first_hazard = match (record.h1_time, record.h2_time) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        // The monitor evaluates hazards and accidents in the same
        // post-step pass, so "preceding" means at or before the accident.
        let ordered = first_hazard.is_some_and(|t| t <= t_acc + 1e-9);
        if !ordered {
            out.push(Violation {
                oracle: OracleKind::HazardOrdering,
                step: None,
                detail: format!(
                    "{kind} accident at t={t_acc:.2} s without a preceding hazard \
                     (h1={:?}, h2={:?})",
                    record.h1_time, record.h2_time
                ),
            });
        }
    }
    out
}

/// Differential oracle: `base` ran with the case's full intervention set,
/// `ablated` is the same case with `channel` disabled. Reporting a *lower*
/// severity without the intervention means the intervention made the
/// outcome worse.
#[must_use]
pub fn check_regression(base: &RunRecord, channel: &str, ablated: &RunRecord) -> Option<Violation> {
    let with = severity(base);
    let without = severity(ablated);
    (without < with).then(|| Violation {
        oracle: OracleKind::InterventionRegression,
        step: None,
        detail: format!(
            "disabling {channel} improves the outcome: severity {} ({:?}) with it, \
             {} ({:?}) without",
            with, base.accident, without, ablated.accident
        ),
    })
}

/// Schedule-dominance oracle: `scheduled` ran with the patch held back by
/// a context trigger, `immediate` is the same case with the always-armed
/// attack. A strictly higher severity under scheduling means the
/// strategically-timed patch dominates the fixed one — the intervention
/// stack survives the naive attack but not the context-aware variant.
#[must_use]
pub fn check_schedule_dominance(scheduled: &RunRecord, immediate: &RunRecord) -> Option<Violation> {
    let s = severity(scheduled);
    let i = severity(immediate);
    (s > i).then(|| Violation {
        oracle: OracleKind::ScheduleDominance,
        step: None,
        detail: format!(
            "context-scheduled patch dominates the immediate one: severity {s} \
             ({:?}) scheduled vs {i} ({:?}) immediate",
            scheduled.accident, immediate.accident
        ),
    })
}

/// Metamorphic oracle: `shifted` reran `base`'s case with the road patch
/// moved `shift_m` metres further away. Physics before `base`'s first
/// fault activation must be bit-identical, and the shifted fault must not
/// activate inside that prefix.
#[must_use]
pub fn check_metamorphic(base: &Trace, shifted: &Trace, shift_m: f64) -> Option<Violation> {
    let prefix = base
        .samples
        .iter()
        .position(|s| s.fault_active)
        .unwrap_or(base.samples.len());
    if let Some(early) = shifted.samples[..prefix.min(shifted.samples.len())]
        .iter()
        .position(|s| s.fault_active)
    {
        return Some(Violation {
            oracle: OracleKind::MetamorphicShift,
            step: Some(early as u64),
            detail: format!(
                "patch shifted +{shift_m} m yet the fault activates {} steps \
                 before the baseline activation",
                prefix - early
            ),
        });
    }
    if shifted.samples.len() < prefix {
        return Some(Violation {
            oracle: OracleKind::MetamorphicShift,
            step: Some(shifted.samples.len() as u64),
            detail: format!(
                "shifted run ended after {} steps, before the baseline's fault \
                 activation at step {prefix}",
                shifted.samples.len()
            ),
        });
    }
    match compare_streams(&base.samples[..prefix], &shifted.samples[..prefix], 0) {
        Verdict::Identical => None,
        Verdict::Diverged(d) => Some(Violation {
            oracle: OracleKind::MetamorphicShift,
            step: Some(d.step),
            detail: format!("pre-fault physics diverged under a +{shift_m} m patch shift: {d}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    //! Mutation-style non-vacuousness checks: each test injects exactly the
    //! defect its oracle exists to catch, and asserts the oracle fires —
    //! plus a clean run on which every oracle must stay silent.

    use super::*;
    use crate::case::{run_case, FuzzCase};
    use adas_attack::FaultType;
    use adas_core::replay::trace_header;
    use adas_core::{InterventionConfig, RunId};
    use adas_recorder::{EndReason, RecordMode, TraceOutcome, TraceWriter};
    use adas_scenarios::{InitialPosition, ScenarioId};
    use adas_simulator::TraceSample;

    fn sample(t: f64) -> TraceSample {
        TraceSample {
            time: t,
            ego_v: 22.0,
            ttc: f64::INFINITY,
            true_rd: f64::INFINITY,
            perceived_rd: f64::INFINITY,
            lead_v: f64::NAN,
            lane_line_distance: 0.9,
            ..TraceSample::default()
        }
    }

    fn trace_of(samples: Vec<TraceSample>, config: &PlatformConfig) -> Trace {
        let header = trace_header(
            RunId {
                scenario: ScenarioId::S1,
                position: InitialPosition::Near,
                repetition: 0,
            },
            None,
            config,
            0,
            1,
        );
        let mut w = TraceWriter::new(RecordMode::Full);
        let steps = samples.len() as u64;
        for s in samples {
            w.record(s);
        }
        w.finish(
            header,
            TraceOutcome {
                end: EndReason::TimeLimit,
                accident: None,
                accident_time: None,
                fault_start: None,
                min_ttc: f64::INFINITY,
                min_lane_line_distance: 0.9,
                steps,
            },
        )
    }

    fn full_config() -> PlatformConfig {
        PlatformConfig::with_interventions(InterventionConfig::driver_check_aeb_independent())
    }

    #[test]
    fn patched_aebs_accelerating_during_braking_is_caught() {
        let mut s = sample(1.0);
        s.aeb_active = true;
        s.gas = 0.4; // the injected defect: throttle while AEB owns the channel
        s.brake = 0.0;
        let trace = trace_of(vec![sample(0.0), s], &full_config());
        let v = check_trace(&full_config(), &RunRecord::default(), &trace);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, OracleKind::AebNoAccel);
        assert_eq!(v[0].step, Some(1));
    }

    #[test]
    fn silent_independent_aebs_inside_h1_horizon_is_caught() {
        let mut s = sample(2.0);
        s.ttc = 0.5; // deep inside the H1 horizon at 22 m/s
        s.brake = 0.0;
        let trace = trace_of(vec![sample(0.0), sample(1.0), s], &full_config());
        let v = check_trace(&full_config(), &RunRecord::default(), &trace);
        assert!(
            v.iter().any(|v| v.oracle == OracleKind::AebNoAccel),
            "{v:?}"
        );
    }

    #[test]
    fn throttle_during_driver_braking_is_caught() {
        let mut s = sample(1.0);
        s.driver_braking = true;
        s.gas = 0.2;
        let trace = trace_of(vec![s], &full_config());
        let v = check_trace(&full_config(), &RunRecord::default(), &trace);
        assert_eq!(v[0].oracle, OracleKind::ArbiterPriority, "{v:?}");
    }

    #[test]
    fn disabled_intervention_firing_is_caught() {
        let mut s = sample(1.0);
        s.driver_steering = true; // fires although the config has no driver
        let cfg = PlatformConfig::with_interventions(InterventionConfig::none());
        let trace = trace_of(vec![s], &cfg);
        let v = check_trace(&cfg, &RunRecord::default(), &trace);
        assert_eq!(v[0].oracle, OracleKind::ArbiterPriority, "{v:?}");
    }

    #[test]
    fn accident_without_hazard_is_caught() {
        let cfg = full_config();
        let trace = trace_of(vec![sample(0.0)], &cfg);
        let record = RunRecord {
            accident: Some(AccidentKind::ForwardCollision),
            accident_time: Some(5.0),
            ..RunRecord::default()
        };
        let v = check_trace(&cfg, &record, &trace);
        assert_eq!(v[0].oracle, OracleKind::HazardOrdering, "{v:?}");
        // A hazard flagged after the accident is equally a violation.
        let late = RunRecord {
            h1_time: Some(9.0),
            ..record
        };
        let v = check_trace(&cfg, &late, &trace);
        assert_eq!(v[0].oracle, OracleKind::HazardOrdering, "{v:?}");
    }

    #[test]
    fn severity_regression_is_caught_and_improvement_is_not() {
        let crash = RunRecord {
            accident: Some(AccidentKind::ForwardCollision),
            ..RunRecord::default()
        };
        let lane = RunRecord {
            accident: Some(AccidentKind::LaneViolation),
            ..RunRecord::default()
        };
        let clean = RunRecord::default();
        // With the intervention: A1. Without: clean. The intervention harmed.
        let v = check_regression(&crash, "aebs", &clean).expect("must fire");
        assert_eq!(v.oracle, OracleKind::InterventionRegression);
        assert!(check_regression(&crash, "aebs", &lane).is_some());
        // The intervention helping (or being neutral) must not fire.
        assert!(check_regression(&clean, "aebs", &crash).is_none());
        assert!(check_regression(&lane, "aebs", &lane).is_none());
    }

    #[test]
    fn regression_oracle_fires_on_seeded_ml_channel_regressions() {
        // Self-test for the mitigation channels: seed a regression (the
        // run with the strategy enabled crashes, the ablated run is
        // clean) through each ML channel name and require the oracle to
        // fire with the channel attributed in the detail text.
        let crash = RunRecord {
            accident: Some(AccidentKind::ForwardCollision),
            ..RunRecord::default()
        };
        let clean = RunRecord::default();
        for channel in ["ml-cusum", "ml-ensemble", "ml-maskcheck"] {
            let v = check_regression(&crash, channel, &clean)
                .unwrap_or_else(|| panic!("{channel}: seeded regression must fire"));
            assert_eq!(v.oracle, OracleKind::InterventionRegression);
            assert!(v.detail.contains(channel), "{channel}: {}", v.detail);
            // And the strategy helping must stay silent.
            assert!(check_regression(&clean, channel, &crash).is_none());
        }
    }

    #[test]
    fn schedule_dominance_fires_only_on_strict_escalation() {
        let crash = RunRecord {
            accident: Some(AccidentKind::ForwardCollision),
            ..RunRecord::default()
        };
        let lane = RunRecord {
            accident: Some(AccidentKind::LaneViolation),
            ..RunRecord::default()
        };
        let clean = RunRecord::default();
        let v = check_schedule_dominance(&crash, &clean).expect("must fire");
        assert_eq!(v.oracle, OracleKind::ScheduleDominance);
        assert!(check_schedule_dominance(&crash, &lane).is_some());
        // Equal or lower severity under scheduling must stay silent.
        assert!(check_schedule_dominance(&crash, &crash).is_none());
        assert!(check_schedule_dominance(&clean, &crash).is_none());
        assert!(check_schedule_dominance(&lane, &crash).is_none());
    }

    #[test]
    fn diverging_prefix_under_patch_shift_is_caught() {
        let cfg = full_config();
        let mut base_samples: Vec<TraceSample> = (0..10).map(|i| sample(i as f64)).collect();
        base_samples[6].fault_active = true;
        let base = trace_of(base_samples.clone(), &cfg);
        // The injected defect: physics differ at step 3, inside the prefix.
        let mut shifted_samples = base_samples.clone();
        shifted_samples[6].fault_active = false;
        shifted_samples[3].ego_v += 1e-9;
        let shifted = trace_of(shifted_samples, &cfg);
        let v = check_metamorphic(&base, &shifted, 25.0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::MetamorphicShift);
        assert_eq!(v.step, Some(3));
        // An identical prefix (divergence only from the activation on) passes.
        let mut ok_samples = base_samples.clone();
        ok_samples[6].fault_active = false;
        ok_samples[8].ego_v += 1.0;
        let ok = trace_of(ok_samples, &cfg);
        assert!(check_metamorphic(&base, &ok, 25.0).is_none());
    }

    #[test]
    fn early_fault_activation_under_shift_is_caught() {
        let cfg = full_config();
        let mut base_samples: Vec<TraceSample> = (0..10).map(|i| sample(i as f64)).collect();
        base_samples[6].fault_active = true;
        let base = trace_of(base_samples.clone(), &cfg);
        let mut shifted_samples = base_samples;
        shifted_samples[6].fault_active = false;
        shifted_samples[2].fault_active = true; // moved patch fires *earlier*
        let shifted = trace_of(shifted_samples, &cfg);
        let v = check_metamorphic(&base, &shifted, 25.0).expect("must fire");
        assert_eq!(v.step, Some(2));
    }

    #[test]
    fn clean_real_run_passes_every_oracle() {
        // A benign S1 run under the full stack: no oracle may fire.
        let case = FuzzCase::baseline(ScenarioId::S1, InitialPosition::Near, 3, None);
        let (record, trace) = run_case(&case, 42);
        let v = check_trace(&case.config(), &record, &trace);
        assert!(v.is_empty(), "false positives on a clean run: {v:?}");
        // And an attacked run under AEB-Indep (prevented per the paper).
        let case = FuzzCase::baseline(
            ScenarioId::S1,
            InitialPosition::Near,
            5,
            Some(FaultType::RelativeDistance),
        );
        let (record, trace) = run_case(&case, 42);
        assert!(record.prevented(), "{record:?}");
        let v = check_trace(&case.config(), &record, &trace);
        assert!(v.is_empty(), "false positives on a mitigated run: {v:?}");
    }
}
