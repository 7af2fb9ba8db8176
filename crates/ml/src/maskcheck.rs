//! Masked-view agreement check (PatchGuard/PatchCleanser-inspired),
//! adapted to the perception-emulator setting.
//!
//! The image-domain defenses re-run a classifier under masks that each
//! occlude a different region; a localised patch cannot corrupt the views
//! that cover it, so an attacked input produces an *inconsistent* vote
//! across views while a clean input is unanimous. Our perception emulator
//! has no pixels, but the same structure transplants: view 0 plays the
//! patch-occluding mask and reads the perception channels exactly as they
//! were *before* fault injection, while views 1..M read the (possibly
//! attacked) post-injection channels under deterministic jitter of the
//! fault delta. On a benign cycle the delta is zero, every view reads the
//! identical clean value, and the vote is unanimous bitwise — the check
//! can never fire. Under a patch the occluding view disagrees with the
//! rest beyond a physical tolerance; enough consecutive inconsistent
//! votes latch attack evidence, and while latched the mitigator executes
//! the LSTM's redundant-state prediction (the same recovery command
//! Algorithm 1 uses), releasing after a long consistent streak.
//!
//! Determinism mirrors [`crate::ensemble`]: the view jitter comes from a
//! dedicated [`DeterministicRng`] split and is drawn for every view on
//! every cycle regardless of the data, so stream consumption is uniform.

use crate::ensemble::PerceptionViews;
use crate::features::{ControlTarget, WINDOW};
use crate::model::{BatchInferScratch, BatchPredictorState, LstmPredictor};
use adas_simulator::DeterministicRng;
use std::sync::Arc;

/// Masked-view check parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskCheckConfig {
    /// Total views per cycle (M), including the patch-occluding view 0.
    pub views: usize,
    /// Standard deviation of the multiplicative jitter applied to the
    /// fault delta in the non-occluding views.
    pub jitter_std: f64,
    /// Lead-distance agreement tolerance between views, metres.
    pub rd_tolerance: f64,
    /// Curvature agreement tolerance between views, 1/m.
    pub kappa_tolerance: f64,
    /// Consecutive inconsistent votes required to latch attack evidence.
    pub latch_votes: u32,
    /// Consecutive consistent votes required to release the latch.
    pub release_steps: u32,
}

impl Default for MaskCheckConfig {
    fn default() -> Self {
        Self {
            views: 6,
            jitter_std: 0.05,
            rd_tolerance: 1.5,
            kappa_tolerance: 1.5e-3,
            latch_votes: 5,
            release_steps: 100,
        }
    }
}

impl MaskCheckConfig {
    /// Default parameters at an explicit view count (clamped to ≥ 2 — the
    /// vote needs the occluding view plus at least one exposed view).
    #[must_use]
    pub fn with_views(views: usize) -> Self {
        Self {
            views: views.max(2),
            ..Self::default()
        }
    }
}

/// The masked-view agreement runtime.
#[derive(Debug, Clone)]
pub struct MaskCheckMitigator {
    model: Arc<LstmPredictor>,
    config: MaskCheckConfig,
    rng: DeterministicRng,
    state: BatchPredictorState,
    scratch: BatchInferScratch,
    warmup: usize,
    inconsistent_streak: u32,
    consistent_streak: u32,
    latched: bool,
    first_activation: Option<f64>,
    activations: u64,
}

impl MaskCheckMitigator {
    /// Wraps a (trained) model in the masked-view runtime. `rng` must be a
    /// dedicated split of the run's deterministic stream.
    #[must_use]
    pub fn new(
        model: impl Into<Arc<LstmPredictor>>,
        config: MaskCheckConfig,
        rng: DeterministicRng,
    ) -> Self {
        let model = model.into();
        let config = MaskCheckConfig {
            views: config.views.max(2),
            ..config
        };
        let state = model.batch_state(1);
        let scratch = model.batch_scratch(1);
        Self {
            model,
            config,
            rng,
            state,
            scratch,
            warmup: 0,
            inconsistent_streak: 0,
            consistent_streak: 0,
            latched: false,
            first_activation: None,
            activations: 0,
        }
    }

    /// The active parameters.
    #[must_use]
    pub fn config(&self) -> &MaskCheckConfig {
        &self.config
    }

    /// Whether attack evidence is currently latched.
    #[must_use]
    pub fn latched(&self) -> bool {
        self.latched
    }

    /// Time the latch first engaged, if ever.
    #[must_use]
    pub fn first_activation_time(&self) -> Option<f64> {
        self.first_activation
    }

    /// How many times the latch has engaged.
    #[must_use]
    pub fn activation_count(&self) -> u64 {
        self.activations
    }

    /// Casts this cycle's masked-view vote. Inconsistent when the lead
    /// presence differs across views or any exposed view deviates from the
    /// occluding view beyond the physical tolerances.
    fn vote_inconsistent(&mut self, views: &PerceptionViews) -> bool {
        let mut inconsistent = views.presence_mismatch();
        // Views 1..M read the post-injection channels under jitter of the
        // fault delta; view 0 (the occluding mask) reads the clean values.
        // All draws happen unconditionally to keep the stream uniform.
        for _ in 1..self.config.views {
            let g_rd = self.rng.gaussian(self.config.jitter_std);
            let g_kappa = self.rng.gaussian(self.config.jitter_std);
            if let (Some(clean), Some(attacked)) = (views.clean_rd, views.attacked_rd) {
                let rd_v = clean + (attacked - clean) * (1.0 + g_rd);
                if (rd_v - clean).abs() > self.config.rd_tolerance {
                    inconsistent = true;
                }
            }
            let kappa_v =
                views.clean_kappa + (views.attacked_kappa - views.clean_kappa) * (1.0 + g_kappa);
            if (kappa_v - views.clean_kappa).abs() > self.config.kappa_tolerance {
                inconsistent = true;
            }
        }
        inconsistent
    }

    /// Runs one control cycle: advances the recovery LSTM on the redundant
    /// state, casts the masked-view vote, updates the latch, and returns
    /// `Some(recovery)` while attack evidence is latched.
    pub fn update_views(&mut self, views: &PerceptionViews, time: f64) -> Option<ControlTarget> {
        // The recovery stream stays warm every cycle so the prediction is
        // meaningful the moment the latch engages. One stream, so a
        // one-lane panel: the feature vector itself.
        self.model
            .step_batch(&views.features.encode(), &mut self.state, &mut self.scratch);
        let prediction = ControlTarget::decode(&self.scratch.output(0));
        let inconsistent = self.vote_inconsistent(views);

        if self.warmup < WINDOW {
            self.warmup += 1;
            return None;
        }

        if self.latched {
            if inconsistent {
                self.consistent_streak = 0;
            } else {
                self.consistent_streak += 1;
                if self.consistent_streak >= self.config.release_steps {
                    self.latched = false;
                    self.inconsistent_streak = 0;
                    self.consistent_streak = 0;
                    return None;
                }
            }
            Some(prediction)
        } else {
            if inconsistent {
                self.inconsistent_streak += 1;
                if self.inconsistent_streak >= self.config.latch_votes {
                    self.latched = true;
                    self.consistent_streak = 0;
                    self.activations += 1;
                    if self.first_activation.is_none() {
                        self.first_activation = Some(time);
                    }
                    return Some(prediction);
                }
            } else {
                self.inconsistent_streak = 0;
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::StateFeatures;
    use crate::model::ModelSpec;

    fn small_model() -> LstmPredictor {
        LstmPredictor::new(ModelSpec {
            hidden1: 8,
            hidden2: 4,
            seed: 2,
        })
    }

    fn benign_views() -> PerceptionViews {
        PerceptionViews {
            features: StateFeatures {
                ego_speed: 20.0,
                lead_distance: 40.0,
                closing_speed: 0.0,
                left_line: 1.75,
                right_line: 1.75,
                curvature: 0.0,
                heading: 0.0,
                prev_accel: 0.0,
                prev_steer: 0.0,
            },
            clean_rd: Some(40.0),
            attacked_rd: Some(40.0),
            clean_kappa: 0.001,
            attacked_kappa: 0.001,
            op_out: ControlTarget {
                accel: 0.3,
                steer: 0.0,
            },
        }
    }

    #[test]
    fn unanimous_views_never_latch() {
        let mut m = MaskCheckMitigator::new(
            small_model(),
            MaskCheckConfig::default(),
            DeterministicRng::from_seed(7),
        );
        for t in 0..500 {
            assert!(m.update_views(&benign_views(), t as f64 * 0.01).is_none());
        }
        assert!(!m.latched());
        assert_eq!(m.activation_count(), 0);
    }

    #[test]
    fn large_fault_delta_latches_after_vote_quorum() {
        let cfg = MaskCheckConfig::default();
        let mut m = MaskCheckMitigator::new(small_model(), cfg, DeterministicRng::from_seed(7));
        let mut attacked = benign_views();
        attacked.attacked_rd = Some(120.0);
        let mut engaged_at = None;
        for t in 0..200 {
            if m.update_views(&attacked, t as f64 * 0.01).is_some() && engaged_at.is_none() {
                engaged_at = Some(t);
            }
        }
        let at = engaged_at.expect("latch must engage");
        assert!(
            at >= WINDOW + cfg.latch_votes as usize - 1,
            "latched at {at}"
        );
        assert!(m.latched());
        assert_eq!(m.activation_count(), 1);
    }

    #[test]
    fn presence_mismatch_latches() {
        let mut m = MaskCheckMitigator::new(
            small_model(),
            MaskCheckConfig::default(),
            DeterministicRng::from_seed(9),
        );
        let mut dropped = benign_views();
        dropped.attacked_rd = None;
        for t in 0..(WINDOW + 10) {
            let _ = m.update_views(&dropped, t as f64 * 0.01);
        }
        assert!(m.latched());
        assert!(m.first_activation_time().is_some());
    }

    #[test]
    fn latch_releases_after_consistent_streak() {
        let cfg = MaskCheckConfig {
            release_steps: 20,
            ..MaskCheckConfig::default()
        };
        let mut m = MaskCheckMitigator::new(small_model(), cfg, DeterministicRng::from_seed(5));
        let mut attacked = benign_views();
        attacked.attacked_rd = Some(120.0);
        for t in 0..100 {
            let _ = m.update_views(&attacked, t as f64 * 0.01);
        }
        assert!(m.latched());
        // The patch passes; views agree again.
        for t in 100..200 {
            let _ = m.update_views(&benign_views(), t as f64 * 0.01);
        }
        assert!(!m.latched(), "latch must release after the benign streak");
    }

    #[test]
    fn brief_glitch_below_quorum_does_not_latch() {
        let cfg = MaskCheckConfig::default();
        let mut m = MaskCheckMitigator::new(small_model(), cfg, DeterministicRng::from_seed(3));
        let mut attacked = benign_views();
        attacked.attacked_rd = Some(120.0);
        let benign = benign_views();
        for t in 0..(WINDOW + 40) {
            // Alternate: never latch_votes consecutive inconsistent cycles.
            let v = if t % 3 == 0 { &attacked } else { &benign };
            let _ = m.update_views(v, t as f64 * 0.01);
        }
        assert!(!m.latched());
        assert_eq!(m.activation_count(), 0);
    }
}
