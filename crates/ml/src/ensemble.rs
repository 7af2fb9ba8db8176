//! Uncertainty-ensemble mitigation (after Jiao et al., "End-to-end
//! Uncertainty-based Mitigation of Adversarial Attacks to Automated Lane
//! Centering").
//!
//! Instead of gating on a CUSUM discrepancy statistic (Algorithm 1), the
//! ensemble runs M perturbed perception reads per control cycle and
//! measures how much they *disagree*. A patch attack perturbs the
//! perception outputs away from the redundant-sensor values, and the
//! perturbation is unstable under input jitter — so the M jittered views
//! fan out. Fault-free perception is self-consistent: the jitter is
//! applied multiplicatively to the *fault delta* (attacked − clean), so a
//! benign cycle produces M bitwise-identical views and exactly zero
//! disagreement. Above a calibrated disagreement threshold the mitigator
//! smoothly de-rates control authority, blending the ADAS command toward a
//! gentle fallback deceleration.
//!
//! Determinism: the view jitter comes from a [`DeterministicRng`] stream
//! split off the run's setup stream, and every view draws its gaussians on
//! every cycle (warm-up included, lead present or not), so stream
//! consumption never depends on data values. The M views ride one SoA
//! panel through [`LstmPredictor::step_batch`] — the same weights-
//! stationary kernel the lockstep campaign executor uses — which makes the
//! M-views cost one batched forward instead of M scalar ones.

use crate::features::{ControlTarget, StateFeatures, FEATURE_DIM, WINDOW};
use crate::model::{BatchInferScratch, BatchPredictorState, LstmPredictor};
use adas_simulator::DeterministicRng;
use std::sync::Arc;

/// One control cycle's perception evidence for the view-based mitigations
/// (ensemble + masked-view check): the redundant-sensor feature template,
/// the perceived lead distance and desired curvature both *before* and
/// *after* fault injection, and the ADAS output under judgement.
///
/// The clean/attacked pairs let a mitigator synthesise perturbed reads
/// around the actual fault delta without re-running the perception
/// emulator M times (which would consume its noise stream M times and
/// break bit-identity with the unmitigated platform).
#[derive(Debug, Clone, Copy)]
pub struct PerceptionViews {
    /// Fault-free redundant-sensor state of this cycle (same source the
    /// CUSUM baseline encodes).
    pub features: StateFeatures,
    /// Perceived lead distance before fault injection, metres.
    pub clean_rd: Option<f64>,
    /// Perceived lead distance after fault injection, metres.
    pub attacked_rd: Option<f64>,
    /// Perceived desired curvature before fault injection, 1/m.
    pub clean_kappa: f64,
    /// Perceived desired curvature after fault injection, 1/m.
    pub attacked_kappa: f64,
    /// The (safety-checked) ADAS output this cycle.
    pub op_out: ControlTarget,
}

impl PerceptionViews {
    /// True when fault injection created or removed the lead detection —
    /// maximal evidence of tampering, scored as full disagreement.
    #[must_use]
    pub fn presence_mismatch(&self) -> bool {
        self.clean_rd.is_some() != self.attacked_rd.is_some()
    }
}

/// Ensemble mitigation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleConfig {
    /// Number of jittered perception views per cycle (M).
    pub views: usize,
    /// Standard deviation of the multiplicative jitter gain applied to the
    /// fault delta per view.
    pub gain_std: f64,
    /// Normaliser for the relative-distance view spread, metres.
    pub rd_scale: f64,
    /// Normaliser for the curvature view spread, 1/m.
    pub kappa_scale: f64,
    /// Disagreement below which authority stays at 1 (no intervention).
    pub derate_start: f64,
    /// Disagreement at (and beyond) which authority reaches its floor.
    pub derate_full: f64,
    /// Authority floor — the ADAS never loses the wheel entirely, it is
    /// blended toward the fallback command.
    pub min_authority: f64,
    /// Fallback longitudinal command blended in as authority drops, m/s²
    /// (a gentle brake toward a safe stop).
    pub fallback_decel: f64,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            views: 8,
            gain_std: 0.35,
            rd_scale: 8.0,
            kappa_scale: 0.004,
            derate_start: 0.25,
            derate_full: 2.0,
            min_authority: 0.2,
            fallback_decel: -2.0,
        }
    }
}

impl EnsembleConfig {
    /// Default parameters at an explicit view count (clamped to ≥ 1).
    #[must_use]
    pub fn with_views(views: usize) -> Self {
        Self {
            views: views.max(1),
            ..Self::default()
        }
    }

    /// Control authority α ∈ [`min_authority`, 1] as a function of the
    /// disagreement statistic: 1 below [`derate_start`], the floor at and
    /// beyond [`derate_full`], smoothstep-interpolated between. Monotone
    /// non-increasing in `d` (the property suite checks this).
    ///
    /// [`min_authority`]: Self::min_authority
    /// [`derate_start`]: Self::derate_start
    /// [`derate_full`]: Self::derate_full
    #[must_use]
    pub fn authority(&self, d: f64) -> f64 {
        if d <= self.derate_start || d.is_nan() {
            return 1.0;
        }
        if d >= self.derate_full {
            return self.min_authority;
        }
        let t = (d - self.derate_start) / (self.derate_full - self.derate_start);
        let s = t * t * (3.0 - 2.0 * t);
        1.0 - (1.0 - self.min_authority) * s
    }
}

/// The uncertainty-ensemble runtime.
#[derive(Debug, Clone)]
pub struct EnsembleMitigator {
    model: Arc<LstmPredictor>,
    config: EnsembleConfig,
    rng: DeterministicRng,
    state: BatchPredictorState,
    scratch: BatchInferScratch,
    x: Vec<f64>,
    rd_view: Vec<Option<f64>>,
    kappa_view: Vec<f64>,
    warmup: usize,
    derating: bool,
    last_disagreement: f64,
    first_activation: Option<f64>,
    activations: u64,
}

impl EnsembleMitigator {
    /// Wraps a (trained) model in the ensemble runtime. `rng` must be a
    /// dedicated split of the run's deterministic stream.
    #[must_use]
    pub fn new(
        model: impl Into<Arc<LstmPredictor>>,
        config: EnsembleConfig,
        rng: DeterministicRng,
    ) -> Self {
        let model = model.into();
        let m = config.views.max(1);
        let config = EnsembleConfig { views: m, ..config };
        let state = model.batch_state(m);
        let scratch = model.batch_scratch(m);
        Self {
            model,
            config,
            rng,
            state,
            scratch,
            x: vec![0.0; FEATURE_DIM * m],
            rd_view: vec![None; m],
            kappa_view: vec![0.0; m],
            warmup: 0,
            derating: false,
            last_disagreement: 0.0,
            first_activation: None,
            activations: 0,
        }
    }

    /// The active parameters.
    #[must_use]
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// Whether authority is currently de-rated (α < 1).
    #[must_use]
    pub fn in_derate(&self) -> bool {
        self.derating
    }

    /// The most recent disagreement statistic.
    #[must_use]
    pub fn disagreement(&self) -> f64 {
        self.last_disagreement
    }

    /// Time the first de-rate episode engaged, if ever.
    #[must_use]
    pub fn first_activation_time(&self) -> Option<f64> {
        self.first_activation
    }

    /// How many de-rate episodes have engaged.
    #[must_use]
    pub fn activation_count(&self) -> u64 {
        self.activations
    }

    /// Runs one control cycle: synthesises M jittered views, advances the
    /// M-lane LSTM panel, scores disagreement, and returns `Some(blended)`
    /// while authority is de-rated.
    pub fn update_views(&mut self, views: &PerceptionViews, time: f64) -> Option<ControlTarget> {
        let m = self.config.views;
        let mismatch = views.presence_mismatch();
        // Synthesise the M perturbed reads. The jitter gain multiplies the
        // fault delta, so `clean + 0 × (1 + g) == clean` bitwise on benign
        // cycles; both gaussians are drawn for every view unconditionally
        // so RNG consumption is independent of the data.
        for v in 0..m {
            let g_rd = self.rng.gaussian(self.config.gain_std);
            let g_kappa = self.rng.gaussian(self.config.gain_std);
            self.rd_view[v] = match (views.clean_rd, views.attacked_rd) {
                (Some(clean), Some(attacked)) => Some(clean + (attacked - clean) * (1.0 + g_rd)),
                (_, attacked) => attacked,
            };
            self.kappa_view[v] =
                views.clean_kappa + (views.attacked_kappa - views.clean_kappa) * (1.0 + g_kappa);
            let feat = StateFeatures {
                lead_distance: self.rd_view[v].unwrap_or(f64::INFINITY),
                curvature: self.kappa_view[v],
                ..views.features
            };
            for (c, value) in feat.encode().into_iter().enumerate() {
                self.x[c * m + v] = value;
            }
        }
        // One weights-stationary batched forward serves every view.
        self.model.step_batch(&self.x, &mut self.state, &mut self.scratch);

        // Disagreement: per-channel view spread (max deviation from view
        // 0) plus the spread of the decoded per-view predictions — all
        // exactly 0.0 when the views are bitwise identical.
        let mut spread_rd = 0.0f64;
        let mut spread_kappa = 0.0f64;
        let mut spread_pred = 0.0f64;
        let p0 = ControlTarget::decode(&self.scratch.output(0));
        for v in 1..m {
            if let (Some(a), Some(b)) = (self.rd_view[0], self.rd_view[v]) {
                spread_rd = spread_rd.max((b - a).abs());
            }
            spread_kappa = spread_kappa.max((self.kappa_view[v] - self.kappa_view[0]).abs());
            let pv = ControlTarget::decode(&self.scratch.output(v));
            spread_pred = spread_pred.max(pv.discrepancy(&p0));
        }
        let mut d =
            spread_rd / self.config.rd_scale + spread_kappa / self.config.kappa_scale + spread_pred;
        if mismatch {
            d = d.max(self.config.derate_full);
        }
        self.last_disagreement = d;

        // Warm-up mirrors the CUSUM baseline: the recurrent panel needs
        // WINDOW continuous frames before its outputs mean anything.
        if self.warmup < WINDOW {
            self.warmup += 1;
            self.derating = false;
            return None;
        }

        let alpha = self.config.authority(d);
        if alpha < 1.0 {
            if !self.derating {
                self.activations += 1;
                if self.first_activation.is_none() {
                    self.first_activation = Some(time);
                }
            }
            self.derating = true;
            Some(ControlTarget {
                accel: alpha * views.op_out.accel + (1.0 - alpha) * self.config.fallback_decel,
                steer: alpha * views.op_out.steer,
            })
        } else {
            self.derating = false;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn benign_views_have_exactly_zero_disagreement() {
        let mut e = EnsembleMitigator::new(
            small_model(),
            EnsembleConfig::default(),
            DeterministicRng::from_seed(7),
        );
        for t in 0..200 {
            let out = e.update_views(&benign_views(), t as f64 * 0.01);
            assert!(out.is_none(), "benign de-rate at step {t}");
            assert_eq!(e.disagreement(), 0.0, "non-zero disagreement at {t}");
        }
        assert_eq!(e.activation_count(), 0);
        assert!(e.first_activation_time().is_none());
    }

    #[test]
    fn large_fault_delta_derates_authority() {
        let mut e = EnsembleMitigator::new(
            small_model(),
            EnsembleConfig::default(),
            DeterministicRng::from_seed(7),
        );
        let mut attacked = benign_views();
        attacked.attacked_rd = Some(120.0); // RD patch: 3× over-ranged lead
        let mut engaged_at = None;
        for t in 0..300 {
            if e.update_views(&attacked, t as f64 * 0.01).is_some() && engaged_at.is_none() {
                engaged_at = Some(t);
            }
        }
        let at = engaged_at.expect("de-rate must engage under a large delta");
        assert!(at >= WINDOW, "not before warm-up");
        assert!(e.activation_count() >= 1);
        assert!(e.disagreement() > e.config().derate_start);
    }

    #[test]
    fn presence_mismatch_is_full_disagreement() {
        let mut e = EnsembleMitigator::new(
            small_model(),
            EnsembleConfig::default(),
            DeterministicRng::from_seed(3),
        );
        let mut dropped = benign_views();
        dropped.attacked_rd = None; // patch suppressed the lead detection
        for t in 0..(WINDOW + 5) {
            let _ = e.update_views(&dropped, t as f64 * 0.01);
        }
        assert!(e.in_derate());
        assert!(e.disagreement() >= e.config().derate_full);
    }

    #[test]
    fn blended_command_interpolates_toward_fallback() {
        let cfg = EnsembleConfig::default();
        let mut e = EnsembleMitigator::new(small_model(), cfg, DeterministicRng::from_seed(11));
        let mut attacked = benign_views();
        attacked.attacked_rd = None; // force α to the floor
        let mut last = None;
        for t in 0..(WINDOW + 2) {
            last = e.update_views(&attacked, t as f64 * 0.01);
        }
        let cmd = last.expect("floor authority must override");
        let alpha = cfg.min_authority;
        let want = alpha * attacked.op_out.accel + (1.0 - alpha) * cfg.fallback_decel;
        assert!((cmd.accel - want).abs() < 1e-12, "{} vs {want}", cmd.accel);
        assert!((cmd.steer - alpha * attacked.op_out.steer).abs() < 1e-12);
    }

    #[test]
    fn authority_endpoints() {
        let cfg = EnsembleConfig::default();
        assert_eq!(cfg.authority(0.0), 1.0);
        assert_eq!(cfg.authority(cfg.derate_start), 1.0);
        assert_eq!(cfg.authority(cfg.derate_full), cfg.min_authority);
        assert_eq!(cfg.authority(cfg.derate_full * 10.0), cfg.min_authority);
        let mid = cfg.authority((cfg.derate_start + cfg.derate_full) / 2.0);
        assert!(mid < 1.0 && mid > cfg.min_authority);
    }

    #[test]
    fn update_is_deterministic_for_equal_seeds() {
        let run = || {
            let mut e = EnsembleMitigator::new(
                small_model(),
                EnsembleConfig::default(),
                DeterministicRng::from_seed(99),
            );
            let mut attacked = benign_views();
            attacked.attacked_rd = Some(15.0);
            let mut log = Vec::new();
            for t in 0..120 {
                let out = e.update_views(&attacked, t as f64 * 0.01);
                log.push((out, e.disagreement().to_bits()));
            }
            format!("{log:?}")
        };
        assert_eq!(run(), run());
    }
}
