//! Property suite for the view-based mitigation baselines.
//!
//! The load-bearing invariants behind the Table VII comparison:
//!
//! 1. the ensemble's disagreement statistic is **exactly** 0.0 under
//!    fault-free perception (delta-multiplicative jitter — not merely
//!    "small", bitwise zero, so the benign false-positive rate is zero by
//!    construction);
//! 2. the authority de-rate curve is monotone non-increasing and bounded
//!    in `[min_authority, 1]`;
//! 3. the masked-view check never latches attack evidence on unanimous
//!    views, and neither strategy ever activates on the benign S1–S6
//!    campaign grid.

use std::sync::Arc;

use openadas::attack::FaultType;
use openadas::core::parallel::MapControl;
use openadas::core::{
    collect_training_data, run_ids_ctl, CampaignCell, InterventionConfig, PlatformConfig, RunId,
    TraceSink,
};
use openadas::ml::{
    ControlTarget, EnsembleConfig, EnsembleMitigator, LstmPredictor, MaskCheckConfig,
    MaskCheckMitigator, ModelSpec, PerceptionViews, StateFeatures, TrainConfig,
};
use openadas::scenarios::RunRecord;
use openadas::simulator::DeterministicRng;
use proptest::prelude::*;

fn small_model() -> LstmPredictor {
    LstmPredictor::new(ModelSpec {
        hidden1: 8,
        hidden2: 4,
        seed: 2,
    })
}

/// *Benign* perception evidence: the attacked read equals the clean read
/// on both channels, everything else ranges freely.
fn benign_views(
    ego: f64,
    rd: Option<f64>,
    closing: f64,
    kappa: f64,
    heading: f64,
    accel: f64,
) -> PerceptionViews {
    PerceptionViews {
        features: StateFeatures {
            ego_speed: ego,
            lead_distance: rd.unwrap_or(f64::INFINITY),
            closing_speed: closing,
            left_line: 1.75,
            right_line: 1.75,
            curvature: kappa,
            heading,
            prev_accel: accel,
            prev_steer: 0.0,
        },
        clean_rd: rd,
        attacked_rd: rd,
        clean_kappa: kappa,
        attacked_kappa: kappa,
        op_out: ControlTarget {
            accel,
            steer: heading,
        },
    }
}

proptest! {
    /// Fault-free cycles produce bitwise-zero ensemble disagreement — at
    /// any view count, any jitter seed, and any benign perception state.
    #[test]
    fn ensemble_disagreement_is_exactly_zero_on_benign_cycles(
        ego in 0.0..40.0f64,
        rd in prop::option::of(5.0..150.0f64),
        closing in -10.0..10.0f64,
        kappa in -0.01..0.01f64,
        heading in -0.2..0.2f64,
        accel in -3.0..2.0f64,
        m in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let views = benign_views(ego, rd, closing, kappa, heading, accel);
        let mut e = EnsembleMitigator::new(
            small_model(),
            EnsembleConfig::with_views(m),
            DeterministicRng::from_seed(seed),
        );
        for t in 0..40 {
            let out = e.update_views(&views, f64::from(t) * 0.01);
            prop_assert!(out.is_none(), "benign de-rate engaged at step {t}");
            prop_assert_eq!(e.disagreement(), 0.0, "disagreement at step {}", t);
        }
        prop_assert_eq!(e.activation_count(), 0);
    }

    /// The authority curve is monotone non-increasing and stays inside
    /// `[min_authority, 1]` for every disagreement value.
    #[test]
    fn ensemble_authority_is_monotone_and_bounded(
        a in 0.0..6.0f64,
        b in 0.0..6.0f64,
    ) {
        let cfg = EnsembleConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let alpha_lo = cfg.authority(lo);
        let alpha_hi = cfg.authority(hi);
        prop_assert!(
            alpha_hi <= alpha_lo + 1e-12,
            "authority({hi}) = {alpha_hi} > authority({lo}) = {alpha_lo}"
        );
        for alpha in [alpha_lo, alpha_hi] {
            prop_assert!((cfg.min_authority..=1.0).contains(&alpha), "alpha = {alpha}");
        }
    }

    /// Unanimous (benign) views never accumulate an inconsistent-vote
    /// streak, so the masked-view latch cannot engage.
    #[test]
    fn maskcheck_never_latches_on_benign_cycles(
        ego in 0.0..40.0f64,
        rd in prop::option::of(5.0..150.0f64),
        closing in -10.0..10.0f64,
        kappa in -0.01..0.01f64,
        heading in -0.2..0.2f64,
        accel in -3.0..2.0f64,
        m in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let views = benign_views(ego, rd, closing, kappa, heading, accel);
        let mut c = MaskCheckMitigator::new(
            small_model(),
            MaskCheckConfig::with_views(m),
            DeterministicRng::from_seed(seed),
        );
        for t in 0..40 {
            let out = c.update_views(&views, f64::from(t) * 0.01);
            prop_assert!(out.is_none(), "benign latch engaged at step {t}");
        }
        prop_assert!(!c.latched());
        prop_assert_eq!(c.activation_count(), 0);
    }
}

fn tiny_trained_model() -> Arc<LstmPredictor> {
    let data = collect_training_data(3, 1, 60);
    let mut model = LstmPredictor::new(ModelSpec {
        hidden1: 16,
        hidden2: 8,
        seed: 9,
    });
    let _ = openadas::ml::train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );
    Arc::new(model)
}

/// The one-repetition campaign grid at seed 2025 through the one lockstep
/// entry, `run_ids_ctl`, untraced, at batch `width`.
fn lockstep_campaign(
    fault: Option<FaultType>,
    cfg: &PlatformConfig,
    model: Option<&Arc<LstmPredictor>>,
    width: usize,
) -> Vec<(RunId, RunRecord)> {
    let cell = CampaignCell::new(fault, *cfg, model, 2025, 1);
    let ids = cell.run_ids();
    let records = run_ids_ctl(
        &cell,
        &ids,
        width,
        &TraceSink::disabled(),
        &MapControl::new(),
    )
    .expect("uncancelled");
    ids.into_iter().zip(records).collect()
}

/// End-to-end benign false-positive check: across the full fault-free
/// S1–S6 × Near/Far grid, neither view-based strategy ever activates its
/// recovery mode. (An attacked sanity row confirms the same configs *do*
/// activate when there is something to catch.)
#[test]
fn view_mitigations_never_activate_on_the_benign_grid() {
    let model = tiny_trained_model();
    for iv in [
        InterventionConfig::ensemble_only(),
        InterventionConfig::maskcheck_only(),
    ] {
        let label = iv.label();
        let mut cfg = PlatformConfig::with_interventions(iv);
        cfg.max_steps = 600;
        let benign = lockstep_campaign(None, &cfg, Some(&model), 4);
        assert_eq!(benign.len(), 12, "full S1–S6 × Near/Far grid");
        for (id, record) in &benign {
            assert!(
                !record.ml_activated,
                "{label} activated on benign {id:?} — benign false positive"
            );
        }
        let attacked = lockstep_campaign(Some(FaultType::RelativeDistance), &cfg, Some(&model), 4);
        assert!(
            attacked.iter().any(|(_, r)| r.ml_activated),
            "{label} never activated under the RD patch — dead mitigation"
        );
    }
}
