//! Cross-crate integration tests: the full closed loop from scenario
//! construction through perception, attack, control, interventions,
//! physics, and outcome classification.

use openadas::attack::{FaultInjector, FaultSpec, FaultType};
use openadas::core::{run_single, InterventionConfig, Platform, PlatformConfig, RunId};
use openadas::scenarios::{AccidentKind, InitialPosition, ScenarioId, ScenarioSetup};
use openadas::simulator::DeterministicRng;

fn id(scenario: ScenarioId, position: InitialPosition, repetition: u32) -> RunId {
    RunId {
        scenario,
        position,
        repetition,
    }
}

#[test]
fn benign_runs_are_accident_free_in_cruise_scenarios() {
    for scenario in [ScenarioId::S1, ScenarioId::S2, ScenarioId::S6] {
        for position in InitialPosition::ALL {
            let rec = run_single(
                id(scenario, position, 0),
                None,
                &PlatformConfig::default(),
                None,
                1,
            );
            assert!(
                rec.accident.is_none(),
                "{scenario} {position:?} benign must not crash: {rec:?}"
            );
        }
    }
}

#[test]
fn benign_following_distance_matches_paper_band() {
    let rec = run_single(
        id(ScenarioId::S1, InitialPosition::Near, 0),
        None,
        &PlatformConfig::default(),
        None,
        1,
    );
    assert!(
        (20.0..45.0).contains(&rec.avg_following_distance),
        "following distance {}",
        rec.avg_following_distance
    );
}

#[test]
fn rd_attack_causes_forward_collision_without_interventions() {
    let rec = run_single(
        id(ScenarioId::S1, InitialPosition::Near, 0),
        Some(FaultType::RelativeDistance),
        &PlatformConfig::default(),
        None,
        1,
    );
    assert_eq!(
        rec.accident,
        Some(AccidentKind::ForwardCollision),
        "{rec:?}"
    );
    assert!(rec.fault_start.is_some());
}

#[test]
fn curvature_attack_causes_lane_violation_without_interventions() {
    let rec = run_single(
        id(ScenarioId::S1, InitialPosition::Near, 0),
        Some(FaultType::DesiredCurvature),
        &PlatformConfig::default(),
        None,
        1,
    );
    assert_eq!(rec.accident, Some(AccidentKind::LaneViolation), "{rec:?}");
}

#[test]
fn aeb_independent_prevents_rd_attack_collision() {
    let cfg = PlatformConfig::with_interventions(InterventionConfig::aeb_independent_only());
    for rep in 0..3 {
        let rec = run_single(
            id(ScenarioId::S1, InitialPosition::Near, rep),
            Some(FaultType::RelativeDistance),
            &cfg,
            None,
            1,
        );
        assert!(rec.prevented(), "rep {rep}: {rec:?}");
        assert!(rec.aeb_trigger.is_some());
    }
}

#[test]
fn aeb_compromised_fails_where_independent_succeeds() {
    let mut prevented_indep = 0;
    let mut prevented_comp = 0;
    for rep in 0..4 {
        let run = id(ScenarioId::S1, InitialPosition::Near, rep);
        let indep = run_single(
            run,
            Some(FaultType::RelativeDistance),
            &PlatformConfig::with_interventions(InterventionConfig::aeb_independent_only()),
            None,
            1,
        );
        let comp = run_single(
            run,
            Some(FaultType::RelativeDistance),
            &PlatformConfig::with_interventions(InterventionConfig::aeb_compromised_only()),
            None,
            1,
        );
        prevented_indep += u32::from(indep.prevented());
        prevented_comp += u32::from(comp.prevented());
    }
    assert!(
        prevented_indep > prevented_comp,
        "independent sensor must outperform compromised ({prevented_indep} vs {prevented_comp})"
    );
}

#[test]
fn runs_are_bit_deterministic() {
    let run = id(ScenarioId::S4, InitialPosition::Far, 2);
    let cfg = PlatformConfig::with_interventions(InterventionConfig::driver_and_check());
    let a = run_single(run, Some(FaultType::Mixed), &cfg, None, 99);
    let b = run_single(run, Some(FaultType::Mixed), &cfg, None, 99);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn different_seeds_differ() {
    let run = id(ScenarioId::S1, InitialPosition::Near, 0);
    let cfg = PlatformConfig::default();
    let a = run_single(run, Some(FaultType::RelativeDistance), &cfg, None, 1);
    let b = run_single(run, Some(FaultType::RelativeDistance), &cfg, None, 2);
    // Same qualitative outcome, different numerics.
    assert_ne!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn fig6_failure_chain_reproduces() {
    // The Fig. 6 chain: fault → approach on tampered input → close-range
    // blindness → acceleration → collision. Verify the perceived lead
    // disappears below the blind range while a true lead is inches away.
    let mut rng = DeterministicRng::for_run(2025, 0, 0, 0);
    let setup = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut rng);
    let injector = FaultInjector::new(FaultSpec::new(
        FaultType::RelativeDistance,
        setup.patch_start_s,
    ));
    let mut platform = Platform::new(&setup, PlatformConfig::default(), injector, None, &mut rng);
    let mut saw_blindness = false;
    loop {
        let frame = platform.step();
        let truth = platform.world().lead_observation();
        if let Some(obs) = truth {
            if obs.distance < 1.9 && frame.lead.is_none() {
                saw_blindness = true;
            }
        }
        if platform.finished().is_some() {
            break;
        }
    }
    let rec = platform.record();
    assert!(saw_blindness, "close-range blindness must occur");
    assert_eq!(rec.accident, Some(AccidentKind::ForwardCollision));
}
