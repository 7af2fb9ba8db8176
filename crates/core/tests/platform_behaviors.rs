//! Platform-level behaviours: data-flow correctness between the subsystems
//! that the unit tests cannot see in isolation.

use adas_attack::FaultType;
use adas_core::{run_single_traced, InterventionConfig, PlatformConfig, RunId};
use adas_recorder::{RecordMode, Trace};
use adas_scenarios::{InitialPosition, RunRecord, ScenarioId, ScenarioSetup};
use adas_simulator::DeterministicRng;

const SEED: u64 = 31;

fn run_scenario(
    scenario: ScenarioId,
    iv: InterventionConfig,
    fault: Option<FaultType>,
) -> (RunRecord, Trace) {
    let id = RunId {
        scenario,
        position: InitialPosition::Near,
        repetition: 0,
    };
    let config = PlatformConfig::with_interventions(iv);
    run_single_traced(id, fault, &config, None, 0, SEED, RecordMode::Full)
}

fn run(iv: InterventionConfig, fault: Option<FaultType>) -> (RunRecord, Trace) {
    run_scenario(ScenarioId::S1, iv, fault)
}

#[test]
fn safety_check_clamps_executed_braking() {
    // With the PANDA clamp active and no other interventions, the executed
    // brake fraction from the ADAS never exceeds 3.5/9.8.
    let (_, trace) = run(
        InterventionConfig {
            safety_check: true,
            ..InterventionConfig::none()
        },
        None,
    );
    let max_brake = trace.samples.iter().map(|s| s.brake).fold(0.0, f64::max);
    assert!(
        max_brake <= 3.5 / 9.8 + 1e-6,
        "clamped ADAS brake exceeded: {max_brake}"
    );
}

#[test]
fn without_safety_check_braking_can_exceed_the_clamp() {
    // S4 (sudden lead stop) forces the unclamped planner into hard braking.
    let (_, trace) = run_scenario(ScenarioId::S4, InterventionConfig::none(), None);
    let max_brake = trace.samples.iter().map(|s| s.brake).fold(0.0, f64::max);
    assert!(max_brake > 3.5 / 9.8, "expected hard braking: {max_brake}");
}

#[test]
fn fcw_alerts_precede_aeb_braking() {
    let (_, trace) = run(
        InterventionConfig::aeb_independent_only(),
        Some(FaultType::RelativeDistance),
    );
    let first_fcw = trace.samples.iter().find(|s| s.fcw_alert).map(|s| s.time);
    let first_aeb = trace.samples.iter().find(|s| s.aeb_active).map(|s| s.time);
    let (fcw, aeb) = (first_fcw.expect("FCW fired"), first_aeb.expect("AEB fired"));
    assert!(fcw <= aeb, "FCW at {fcw} must precede AEB at {aeb}");
}

#[test]
fn aeb_brake_overrides_driver_in_trace() {
    // When both the driver and AEB want to brake, the trace's aeb flag and
    // full-strength brake confirm the arbitration order end-to-end.
    let (_, trace) = run(
        InterventionConfig::driver_check_aeb_independent(),
        Some(FaultType::RelativeDistance),
    );
    let overlap: Vec<_> = trace
        .samples
        .iter()
        .filter(|s| s.aeb_active && s.driver_braking)
        .collect();
    assert!(!overlap.is_empty(), "expected an AEB/driver overlap phase");
    for s in overlap {
        assert!(s.brake >= 0.9 - 1e-9, "AEB level must win: {}", s.brake);
    }
}

#[test]
fn fault_activity_is_recorded_in_the_trace() {
    let (_, trace) = run(
        InterventionConfig::none(),
        Some(FaultType::DesiredCurvature),
    );
    let mut rng = DeterministicRng::for_run(SEED, 0, 0, 0);
    let setup = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut rng);
    let first_fault = trace
        .samples
        .iter()
        .find(|s| s.fault_active)
        .expect("fault fired");
    // The fault fires once the ego reaches the patch.
    assert!(
        first_fault.ego_s >= setup.patch_start_s - 1.0,
        "fault at s={} before patch at {}",
        first_fault.ego_s,
        setup.patch_start_s
    );
}

#[test]
fn quiescence_ends_runs_after_a_full_stop() {
    // S4: the lead stops for good; with AEB the ego stops behind it and
    // stays there, so the quiescence cutoff must end the run early.
    let (record, trace) = run_scenario(
        ScenarioId::S4,
        InterventionConfig::aeb_independent_only(),
        None,
    );
    assert!(record.prevented(), "S4 with AEB must not crash: {record:?}");
    assert!(
        record.steps < 9_000,
        "run did not end early ({} steps, {:?})",
        record.steps,
        trace.outcome.end
    );
}
