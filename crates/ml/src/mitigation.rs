//! Runtime hazard mitigation (Algorithm 1).
//!
//! Watches the discrepancy between the LSTM's expected control outputs
//! (computed from fault-free, redundant-sensor state) and the ADAS's actual
//! outputs. A CUSUM gate switches into recovery mode, during which the
//! LSTM's outputs are executed, and back out once the discrepancy falls
//! below the bias.

use crate::cusum::Cusum;
use crate::ensemble::{EnsembleMitigator, PerceptionViews};
use crate::features::{ControlTarget, StateFeatures, FEATURE_DIM, TARGET_DIM, WINDOW};
use crate::maskcheck::MaskCheckMitigator;
use crate::model::{BatchInferScratch, BatchPredictorState, LstmPredictor};
use adas_codec::{Encode, Writer};
use std::sync::Arc;

/// Which mitigation strategy guards a run — the `ADAS_MITIGATION` axis of
/// the Table VII-style comparison grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MitigationKind {
    /// The paper's Algorithm 1 baseline: LSTM prediction + CUSUM gate.
    #[default]
    Cusum,
    /// Uncertainty ensemble (Jiao et al.): M jittered perception views,
    /// disagreement de-rates control authority.
    Ensemble,
    /// Masked-view agreement check (PatchGuard-style): inconsistency
    /// across M masked/jittered views latches attack evidence.
    MaskCheck,
}

impl Encode for MitigationKind {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.code());
    }
}

impl MitigationKind {
    /// Every strategy, in comparison-grid order.
    pub const ALL: [MitigationKind; 3] = [
        MitigationKind::Cusum,
        MitigationKind::Ensemble,
        MitigationKind::MaskCheck,
    ];

    /// Stable wire/cache code (0 = cusum, 1 = ensemble, 2 = maskcheck).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            MitigationKind::Cusum => 0,
            MitigationKind::Ensemble => 1,
            MitigationKind::MaskCheck => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(MitigationKind::Cusum),
            1 => Some(MitigationKind::Ensemble),
            2 => Some(MitigationKind::MaskCheck),
            _ => None,
        }
    }

    /// The `ADAS_MITIGATION` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MitigationKind::Cusum => "cusum",
            MitigationKind::Ensemble => "ensemble",
            MitigationKind::MaskCheck => "maskcheck",
        }
    }

    /// Parses the `ADAS_MITIGATION` spelling (case-insensitive); `None`
    /// for unknown names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "cusum" => Some(MitigationKind::Cusum),
            "ensemble" => Some(MitigationKind::Ensemble),
            "maskcheck" => Some(MitigationKind::MaskCheck),
            _ => None,
        }
    }
}

/// A run's mitigation runtime: any of the three strategies behind one
/// seam. The platform stages per-cycle inputs once and dispatches here —
/// the CUSUM variant consumes the encoded feature vector (its own one-lane
/// forward, or one lane of the campaign's batched panel), the view-based
/// variants consume [`PerceptionViews`] and run their own view fan-out.
#[derive(Debug, Clone)]
pub enum Mitigator {
    /// LSTM + CUSUM (Algorithm 1).
    Cusum(MlMitigator),
    /// Uncertainty ensemble.
    Ensemble(EnsembleMitigator),
    /// Masked-view agreement check.
    MaskCheck(MaskCheckMitigator),
}

impl Mitigator {
    /// Which strategy this is.
    #[must_use]
    pub fn kind(&self) -> MitigationKind {
        match self {
            Mitigator::Cusum(_) => MitigationKind::Cusum,
            Mitigator::Ensemble(_) => MitigationKind::Ensemble,
            Mitigator::MaskCheck(_) => MitigationKind::MaskCheck,
        }
    }

    /// True when this strategy consumes [`PerceptionViews`] (clean +
    /// attacked perception reads) instead of the encoded CUSUM input.
    #[must_use]
    pub fn wants_views(&self) -> bool {
        !matches!(self, Mitigator::Cusum(_))
    }

    /// The CUSUM runtime, when that is the active strategy (the batched
    /// campaign executor drives its forward/decide split directly).
    #[must_use]
    pub fn as_cusum_mut(&mut self) -> Option<&mut MlMitigator> {
        match self {
            Mitigator::Cusum(ml) => Some(ml),
            _ => None,
        }
    }

    /// Runs one control cycle of a view-based strategy.
    ///
    /// # Panics
    ///
    /// Panics for the CUSUM variant — its cycle is the
    /// [`MlMitigator::forward`] / [`MlMitigator::update_with_output`]
    /// split, fed by the platform's `ml_input` staging.
    pub fn update_views(&mut self, views: &PerceptionViews, time: f64) -> Option<ControlTarget> {
        match self {
            Mitigator::Cusum(_) => {
                panic!("cusum consumes the encoded ml_input, not perception views")
            }
            Mitigator::Ensemble(e) => e.update_views(views, time),
            Mitigator::MaskCheck(m) => m.update_views(views, time),
        }
    }

    /// Time the strategy first intervened, if ever (recovery engagement,
    /// de-rate episode, or evidence latch).
    #[must_use]
    pub fn first_activation_time(&self) -> Option<f64> {
        match self {
            Mitigator::Cusum(ml) => ml.first_activation_time(),
            Mitigator::Ensemble(e) => e.first_activation_time(),
            Mitigator::MaskCheck(m) => m.first_activation_time(),
        }
    }

    /// How many intervention episodes have engaged.
    #[must_use]
    pub fn activation_count(&self) -> u64 {
        match self {
            Mitigator::Cusum(ml) => ml.activation_count(),
            Mitigator::Ensemble(e) => e.activation_count(),
            Mitigator::MaskCheck(m) => m.activation_count(),
        }
    }
}

impl From<MlMitigator> for Mitigator {
    fn from(ml: MlMitigator) -> Self {
        Mitigator::Cusum(ml)
    }
}

/// Mitigation gate parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationConfig {
    /// CUSUM threshold τ.
    pub tau: f64,
    /// CUSUM per-step bias b(t); also the recovery exit threshold on δ.
    pub bias: f64,
}

impl Default for MitigationConfig {
    fn default() -> Self {
        Self {
            tau: 4.0,
            bias: 0.12,
        }
    }
}

/// The runtime mitigator.
///
/// The trained model is held behind an [`Arc`] so campaign runners share
/// one set of weights across hundreds of runs instead of deep-copying
/// ~32 k parameters per run.
#[derive(Debug, Clone)]
pub struct MlMitigator {
    model: Arc<LstmPredictor>,
    config: MitigationConfig,
    cusum: Cusum,
    state: BatchPredictorState,
    scratch: BatchInferScratch,
    warmup: usize,
    recovery: bool,
    first_activation: Option<f64>,
    activations: u64,
}

impl MlMitigator {
    /// Wraps a (trained) model in the Algorithm 1 runtime.
    ///
    /// Accepts either an owned model or an [`Arc`] handle — pass
    /// `Arc::clone(&model)` to share weights across mitigators.
    #[must_use]
    pub fn new(model: impl Into<Arc<LstmPredictor>>, config: MitigationConfig) -> Self {
        let model = model.into();
        let state = model.batch_state(1);
        let scratch = model.batch_scratch(1);
        Self {
            model,
            config,
            cusum: Cusum::new(config.tau, config.bias),
            state,
            scratch,
            warmup: 0,
            recovery: false,
            first_activation: None,
            activations: 0,
        }
    }

    /// Whether recovery mode is currently active.
    #[must_use]
    pub fn in_recovery(&self) -> bool {
        self.recovery
    }

    /// Time recovery mode first engaged, if ever.
    #[must_use]
    pub fn first_activation_time(&self) -> Option<f64> {
        self.first_activation
    }

    /// How many times recovery mode has engaged.
    #[must_use]
    pub fn activation_count(&self) -> u64 {
        self.activations
    }

    /// Runs one control cycle of Algorithm 1.
    ///
    /// * `state` — fault-free vehicle state (redundant sensor);
    /// * `adas_output` — the control output the ADAS produced this cycle;
    /// * `time` — simulation clock, seconds.
    ///
    /// Returns `Some(override)` while recovery mode is active.
    pub fn update(
        &mut self,
        state: &StateFeatures,
        adas_output: &ControlTarget,
        time: f64,
    ) -> Option<ControlTarget> {
        let x = state.encode();
        let y = self.forward(&x);
        self.update_with_output(&y, adas_output, time)
    }

    /// Advances this mitigator's own recurrent state by one cycle and
    /// returns the raw (normalised) model output.
    ///
    /// The forward half of [`Self::update`]: a one-lane
    /// [`LstmPredictor::step_batch`], whose input panel is `x` itself. The
    /// lockstep campaign path skips this — it computes the same output for
    /// a whole batch of runs in one wider panel and feeds each lane's
    /// result to [`Self::update_with_output`].
    pub fn forward(&mut self, x: &[f64; FEATURE_DIM]) -> [f64; TARGET_DIM] {
        self.model.step_batch(x, &mut self.state, &mut self.scratch);
        self.scratch.output(0)
    }

    /// The decision half of Algorithm 1, given an already-computed model
    /// output `y` for this cycle (from [`Self::forward`] or a lane of
    /// [`LstmPredictor::step_batch`]). Bit-identical to the corresponding
    /// tail of [`Self::update`].
    pub fn update_with_output(
        &mut self,
        y: &[f64; TARGET_DIM],
        adas_output: &ControlTarget,
        time: f64,
    ) -> Option<ControlTarget> {
        let prediction = ControlTarget::decode(y);

        // Warm-up: the paper's model consumes 20 continuous frames before
        // its first prediction is meaningful.
        if self.warmup < WINDOW {
            self.warmup += 1;
            return None;
        }

        let delta = prediction.discrepancy(adas_output);
        if !self.recovery && self.cusum.update(delta) {
            self.recovery = true;
            self.activations += 1;
            if self.first_activation.is_none() {
                self.first_activation = Some(time);
            }
        }

        if self.recovery {
            if delta < self.config.bias {
                // Exit recovery and reset the statistic (Algorithm 1 line 16)
                // — but still execute the ML output this cycle.
                self.recovery = false;
                self.cusum.reset();
            }
            Some(prediction)
        } else {
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

    fn neutral_state() -> StateFeatures {
        StateFeatures {
            ego_speed: 20.0,
            lead_distance: 40.0,
            closing_speed: 0.0,
            left_line: 1.75,
            right_line: 1.75,
            curvature: 0.0,
            heading: 0.0,
            prev_accel: 0.0,
            prev_steer: 0.0,
        }
    }

    #[test]
    fn silent_during_warmup() {
        let mut mit = MlMitigator::new(small_model(), MitigationConfig::default());
        let crazy = ControlTarget {
            accel: 50.0,
            steer: 3.0,
        };
        for t in 0..WINDOW {
            assert!(mit
                .update(&neutral_state(), &crazy, t as f64 * 0.01)
                .is_none());
        }
    }

    #[test]
    fn small_discrepancy_never_triggers() {
        let mut mit = MlMitigator::new(small_model(), MitigationConfig::default());
        // Feed the model's own prediction back as the "ADAS output": δ = 0.
        let mut shadow = MlMitigator::new(small_model(), MitigationConfig::default());
        for t in 0..500 {
            let x = neutral_state();
            // Compute what the model would say using a twin.
            let pred = ControlTarget::decode(&shadow.forward(&x.encode()));
            let out = mit.update(&x, &pred, t as f64 * 0.01);
            assert!(out.is_none(), "triggered at step {t}");
        }
        assert_eq!(mit.activation_count(), 0);
    }

    #[test]
    fn large_discrepancy_triggers_recovery() {
        let mut mit = MlMitigator::new(small_model(), MitigationConfig::default());
        let wild = ControlTarget {
            accel: 10.0,
            steer: 1.0,
        };
        let mut engaged_at = None;
        for t in 0..1000 {
            if mit
                .update(&neutral_state(), &wild, t as f64 * 0.01)
                .is_some()
                && engaged_at.is_none()
            {
                engaged_at = Some(t);
            }
        }
        let at = engaged_at.expect("recovery must engage");
        assert!(at > WINDOW, "not before warm-up");
        assert!(mit.first_activation_time().is_some());
        assert!(mit.activation_count() >= 1);
    }

    #[test]
    fn recovery_exits_when_discrepancy_subsides() {
        let mut mit = MlMitigator::new(small_model(), MitigationConfig::default());
        let wild = ControlTarget {
            accel: 10.0,
            steer: 1.0,
        };
        for t in 0..500 {
            let _ = mit.update(&neutral_state(), &wild, t as f64 * 0.01);
        }
        assert!(mit.in_recovery());
        // ADAS output now agrees with the model's prediction: δ ≈ 0.
        for t in 500..600 {
            let x = neutral_state();
            let pred = ControlTarget::decode(&mit.clone().forward(&x.encode()));
            let _ = mit.update(&x, &pred, t as f64 * 0.01);
        }
        assert!(!mit.in_recovery());
    }

    #[test]
    fn mitigation_kind_codes_and_names_roundtrip() {
        for kind in MitigationKind::ALL {
            assert_eq!(MitigationKind::from_code(kind.code()), Some(kind));
            assert_eq!(MitigationKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(MitigationKind::from_code(3), None);
        assert_eq!(MitigationKind::from_name("lstm"), None);
        assert_eq!(
            MitigationKind::from_name(" MaskCheck "),
            Some(MitigationKind::MaskCheck)
        );
        assert_eq!(MitigationKind::default(), MitigationKind::Cusum);
    }

    #[test]
    fn mitigator_seam_dispatches_by_kind() {
        let mut mit = Mitigator::from(MlMitigator::new(small_model(), MitigationConfig::default()));
        assert_eq!(mit.kind(), MitigationKind::Cusum);
        assert!(!mit.wants_views());
        assert!(mit.as_cusum_mut().is_some());
        let ens = Mitigator::Ensemble(EnsembleMitigator::new(
            small_model(),
            crate::ensemble::EnsembleConfig::default(),
            adas_simulator::DeterministicRng::from_seed(1),
        ));
        assert_eq!(ens.kind(), MitigationKind::Ensemble);
        assert!(ens.wants_views());
        let mask = Mitigator::MaskCheck(MaskCheckMitigator::new(
            small_model(),
            crate::maskcheck::MaskCheckConfig::default(),
            adas_simulator::DeterministicRng::from_seed(2),
        ));
        assert_eq!(mask.kind(), MitigationKind::MaskCheck);
        assert!(mask.wants_views());
    }
}
