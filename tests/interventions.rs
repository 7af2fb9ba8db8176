//! Integration tests focused on the safety interventions and their
//! interactions — the paper's central subject.

use openadas::attack::FaultType;
use openadas::core::{
    run_campaign, run_single, CellStats, InterventionConfig, PlatformConfig, RunId,
};
use openadas::scenarios::{InitialPosition, ScenarioId};

fn small_campaign(fault: Option<FaultType>, iv: InterventionConfig, seed: u64) -> CellStats {
    let cfg = PlatformConfig::with_interventions(iv);
    let records = run_campaign(fault, &cfg, None, seed, 2);
    CellStats::from_records(records.iter().map(|(_, r)| r))
}

#[test]
fn interventions_strictly_improve_on_nothing() {
    for fault in FaultType::ALL {
        let none = small_campaign(Some(fault), InterventionConfig::none(), 5);
        let full = small_campaign(
            Some(fault),
            InterventionConfig::driver_check_aeb_independent(),
            5,
        );
        assert!(
            full.prevented_pct() > none.prevented_pct(),
            "{fault}: {:.1}% vs {:.1}%",
            full.prevented_pct(),
            none.prevented_pct()
        );
    }
}

#[test]
fn no_intervention_means_no_prevention_under_attack() {
    for fault in FaultType::ALL {
        let stats = small_campaign(Some(fault), InterventionConfig::none(), 5);
        assert!(
            stats.prevented_pct() < 25.0,
            "{fault}: unexpected prevention {:.1}%",
            stats.prevented_pct()
        );
        assert!(stats.aeb_trigger_rate() == 0.0);
        assert!(stats.driver_brake_trigger_rate() == 0.0);
    }
}

#[test]
fn rd_attack_yields_mostly_forward_collisions() {
    let stats = small_campaign(
        Some(FaultType::RelativeDistance),
        InterventionConfig::none(),
        5,
    );
    assert!(stats.a1_pct() > 60.0, "A1 {:.1}%", stats.a1_pct());
    assert!(stats.a1_pct() > stats.a2_pct());
}

#[test]
fn curvature_attack_yields_lane_violations() {
    let stats = small_campaign(
        Some(FaultType::DesiredCurvature),
        InterventionConfig::none(),
        5,
    );
    assert!(stats.a2_pct() > 60.0, "A2 {:.1}%", stats.a2_pct());
    assert!(stats.a1_pct() < stats.a2_pct());
}

#[test]
fn faster_reaction_prevents_more() {
    // Table VII's monotone trend, coarse-grained: 1.0 s vs 3.5 s drivers.
    let mut alert_total = 0.0;
    let mut sluggish_total = 0.0;
    for fault in FaultType::ALL {
        let mut alert = InterventionConfig::driver_only();
        alert.driver_reaction_time = 1.0;
        let mut sluggish = InterventionConfig::driver_only();
        sluggish.driver_reaction_time = 3.5;
        alert_total += small_campaign(Some(fault), alert, 5).prevented_pct();
        sluggish_total += small_campaign(Some(fault), sluggish, 5).prevented_pct();
    }
    assert!(
        alert_total > sluggish_total,
        "alert {alert_total:.1} vs sluggish {sluggish_total:.1}"
    );
}

#[test]
fn icy_road_hurts_lateral_mitigation() {
    use openadas::simulator::FrictionCondition;
    let mut dry_cfg =
        PlatformConfig::with_interventions(InterventionConfig::driver_check_aeb_compromised());
    dry_cfg.friction = FrictionCondition::Default;
    let mut icy_cfg = dry_cfg;
    icy_cfg.friction = FrictionCondition::Off75;

    let dry = run_campaign(Some(FaultType::DesiredCurvature), &dry_cfg, None, 5, 2);
    let icy = run_campaign(Some(FaultType::DesiredCurvature), &icy_cfg, None, 5, 2);
    let dry_prev = CellStats::from_records(dry.iter().map(|(_, r)| r)).prevented_pct();
    let icy_prev = CellStats::from_records(icy.iter().map(|(_, r)| r)).prevented_pct();
    assert!(
        dry_prev >= icy_prev,
        "dry {dry_prev:.1}% should be ≥ icy {icy_prev:.1}%"
    );
}

#[test]
fn driver_trigger_times_respect_reaction_delay() {
    // The recorded driver trigger is the *condition* time; braking starts a
    // reaction time later. The trigger must precede any accident by less
    // than the full run, and mitigation time must be non-negative.
    let rec = run_single(
        RunId {
            scenario: ScenarioId::S1,
            position: InitialPosition::Near,
            repetition: 1,
        },
        Some(FaultType::RelativeDistance),
        &PlatformConfig::with_interventions(InterventionConfig::driver_only()),
        None,
        5,
    );
    if let Some(mt) = rec.mitigation_time(rec.driver_brake_trigger) {
        assert!(mt >= 0.0);
        assert!(mt < 100.0);
    }
}

#[test]
fn safety_check_row_differs_from_driver_only() {
    // The PANDA clamp limits the ADAS's own late braking, so the two
    // configurations must not be numerically identical.
    let run = RunId {
        scenario: ScenarioId::S4,
        position: InitialPosition::Near,
        repetition: 0,
    };
    let a = run_single(
        run,
        Some(FaultType::RelativeDistance),
        &PlatformConfig::with_interventions(InterventionConfig::driver_and_check()),
        None,
        5,
    );
    let b = run_single(
        run,
        Some(FaultType::RelativeDistance),
        &PlatformConfig::with_interventions(InterventionConfig::driver_only()),
        None,
        5,
    );
    assert_ne!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn cell_stats_outcomes_partition() {
    for fault in FaultType::ALL {
        let stats = small_campaign(Some(fault), InterventionConfig::driver_and_check(), 11);
        let total = stats.a1_pct() + stats.a2_pct() + stats.prevented_pct();
        assert!((total - 100.0).abs() < 1e-9, "{fault}: {total}");
    }
}
