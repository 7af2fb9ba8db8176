//! The fault injector: applies patch effects to perception frames.

use crate::patch::{CurvatureFault, RdFault};
use crate::schedule::AttackScheduler;
use adas_codec::{Encode, Writer};
use adas_perception::PerceptionFrame;

/// The three fault types of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultType {
    /// Adversarial patch on the lead vehicle's rear: relative-distance
    /// misprediction.
    RelativeDistance,
    /// Adversarial patch on the road: desired-curvature misprediction.
    DesiredCurvature,
    /// Both patches deployed.
    Mixed,
}

impl FaultType {
    /// All types, in the paper's table order.
    pub const ALL: [FaultType; 3] = [
        FaultType::RelativeDistance,
        FaultType::DesiredCurvature,
        FaultType::Mixed,
    ];

    /// Row label used in Table VI.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultType::RelativeDistance => "Relative Distance",
            FaultType::DesiredCurvature => "Desired Curvature",
            FaultType::Mixed => "Mixed",
        }
    }

    /// Whether this fault perturbs the relative-distance output.
    #[must_use]
    pub fn targets_distance(self) -> bool {
        matches!(self, FaultType::RelativeDistance | FaultType::Mixed)
    }

    /// Whether this fault perturbs the desired-curvature output.
    #[must_use]
    pub fn targets_curvature(self) -> bool {
        matches!(self, FaultType::DesiredCurvature | FaultType::Mixed)
    }

    /// Stable wire code, 1–3; 0 is reserved for "no fault" wherever an
    /// `Option<FaultType>` is encoded.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            FaultType::RelativeDistance => 1,
            FaultType::DesiredCurvature => 2,
            FaultType::Mixed => 3,
        }
    }

    /// Inverse of [`Self::code`]; `None` for 0 and unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(FaultType::RelativeDistance),
            2 => Some(FaultType::DesiredCurvature),
            3 => Some(FaultType::Mixed),
            _ => None,
        }
    }

    /// Parses a fault name, as the command-line tools and the results
    /// CSVs spell it: the [`Self::label`] (`Relative Distance`) or a short
    /// form (`rd`, `dc`, `curvature`, `relative-distance`, …), ignoring
    /// case, with space, `_` and `-` interchangeable. `Some(None)` is the
    /// fault-free baseline (`none`, `benign`); `None` an unknown name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Option<Self>> {
        let name = name.trim().to_ascii_lowercase().replace([' ', '_'], "-");
        match name.as_str() {
            "none" | "benign" => Some(None),
            "rd" | "relative-distance" => Some(Some(FaultType::RelativeDistance)),
            "dc" | "curvature" | "desired-curvature" => Some(Some(FaultType::DesiredCurvature)),
            "mixed" => Some(Some(FaultType::Mixed)),
            _ => None,
        }
    }
}

impl Encode for FaultType {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.code());
    }
}

impl std::fmt::Display for FaultType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full specification of the injected faults for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Which outputs are attacked.
    pub fault_type: FaultType,
    /// Lead-vehicle patch parameters (used when `fault_type` targets RD).
    pub rd: RdFault,
    /// Road patch parameters (used when `fault_type` targets curvature).
    pub curvature: CurvatureFault,
    /// When the attacker lets the channels go live. `Immediate` is the
    /// paper's fixed policy; `Context` holds everything back until a
    /// vulnerability predicate fires (see [`AttackScheduler`]).
    pub scheduler: AttackScheduler,
}

impl FaultSpec {
    /// The paper's default parameters for a fault type, with the road patch
    /// beginning at `patch_start_s`.
    #[must_use]
    pub fn new(fault_type: FaultType, patch_start_s: f64) -> Self {
        Self {
            fault_type,
            rd: RdFault::default(),
            curvature: CurvatureFault {
                patch_start_s,
                ..CurvatureFault::default()
            },
            scheduler: AttackScheduler::Immediate,
        }
    }

    /// The same spec under a different scheduling policy.
    #[must_use]
    pub fn scheduled(mut self, scheduler: AttackScheduler) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Ground-truth context the injector needs each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultContext {
    /// Simulation clock, seconds.
    pub time: f64,
    /// Ego arc length, metres.
    pub ego_s: f64,
    /// Ego lateral offset from its lane center, metres. Under a road-patch
    /// attack this equals the divergence between the DNN's believed path
    /// (pinned to "centred") and reality, which is what breaks the camera's
    /// lead-vehicle path association.
    pub ego_d: f64,
    /// True bumper-to-bumper gap to the lead vehicle, if one exists.
    pub true_rd: Option<f64>,
    /// Ground-truth time-to-collision with the lead, seconds. `None` when
    /// there is no lead or the gap is opening. Context schedulers watch
    /// this to time the attack.
    pub ttc: Option<f64>,
    /// Road reference-line curvature at the ego's position, 1/m. Context
    /// schedulers use it to trigger on curve entry.
    pub road_curvature: f64,
}

/// Stateful injector: tracks activation times for the mitigation-time
/// metrics.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: Option<FaultSpec>,
    rd_active: bool,
    curvature_started: Option<f64>,
    first_activation: Option<f64>,
    fired: Option<f64>,
}

impl FaultInjector {
    /// Divergence between the believed path and the lead's position beyond
    /// which the camera drops the lead association during a road-patch
    /// attack, metres.
    pub const LEAD_ASSOCIATION_LIMIT: f64 = 1.0;

    /// An injector for the given spec.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        Self {
            spec: Some(spec),
            rd_active: false,
            curvature_started: None,
            first_activation: None,
            fired: None,
        }
    }

    /// A no-op injector (fault-free runs).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            spec: None,
            rd_active: false,
            curvature_started: None,
            first_activation: None,
            fired: None,
        }
    }

    /// The spec, if any.
    #[must_use]
    pub fn spec(&self) -> Option<&FaultSpec> {
        self.spec.as_ref()
    }

    /// Time the first fault channel activated, if any.
    #[must_use]
    pub fn first_activation_time(&self) -> Option<f64> {
        self.first_activation
    }

    /// Time a context scheduler's vulnerability predicate first fired, if
    /// it has. Always `None` under `Immediate` scheduling.
    #[must_use]
    pub fn fired_time(&self) -> Option<f64> {
        self.fired
    }

    /// True when any fault channel perturbed the last frame.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rd_active || self.curvature_started.is_some()
    }

    fn mark_active(&mut self, time: f64) {
        if self.first_activation.is_none() {
            self.first_activation = Some(time);
        }
    }

    /// Applies the configured faults to `frame` in place. Returns `true`
    /// when anything was perturbed this step.
    pub fn apply(&mut self, frame: &mut PerceptionFrame, ctx: &FaultContext) -> bool {
        let Some(spec) = self.spec else {
            self.rd_active = false;
            return false;
        };
        // Scheduling gate. `Immediate` is always armed (the legacy path,
        // byte-for-byte). A context scheduler arms nothing until its
        // predicate first holds, then latches for the rest of the run —
        // the predicate is never consulted again, so it fires at most
        // once no matter how the world state evolves afterwards.
        let armed = match spec.scheduler {
            AttackScheduler::Immediate => true,
            AttackScheduler::Context(trigger) => {
                if self.fired.is_none()
                    && trigger.fires(ctx.time, ctx.ttc, ctx.ego_d, ctx.road_curvature)
                {
                    self.fired = Some(ctx.time);
                }
                self.fired.is_some()
            }
        };
        let mut active = false;

        // --- Lead-vehicle patch: escalating RD offset -----------------------
        self.rd_active = false;
        if !armed {
            return false;
        }
        if spec.fault_type.targets_distance() {
            if let (Some(true_rd), Some(lead)) = (ctx.true_rd, frame.lead.as_mut()) {
                if let Some(offset) = spec.rd.offset(true_rd) {
                    lead.distance += offset;
                    self.rd_active = true;
                    active = true;
                    self.mark_active(ctx.time);
                }
            }
        }

        // --- Road patch: curvature bias + poisoned path feedback ------------
        if spec.fault_type.targets_curvature() {
            if self.curvature_started.is_none() && spec.curvature.reached(ctx.ego_s) {
                self.curvature_started = Some(ctx.time);
                self.mark_active(ctx.time);
            }
            if let Some(start) = self.curvature_started {
                if spec.curvature.still_active(ctx.time - start) {
                    frame.desired_curvature += spec.curvature.delta_kappa();
                    if spec.curvature.poison_lane_feedback {
                        // The whole planned path is bent: its lane-centering
                        // component is gone (nothing downstream corrects the
                        // drift). The raw lane-line outputs remain usable,
                        // which is why LDW and the driver's predicted-lane-
                        // distance trigger still fire.
                        frame.path_centering = 0.0;
                        // Lead association: the camera matches the lead to
                        // the *believed* path. Once the bent path diverges
                        // from the lead's true position — the ego's own
                        // drift plus the path's curvature error projected to
                        // the lead's range — by more than the association
                        // limit, the lead is dropped and the ACC
                        // re-accelerates toward it (the paper's "aggressive
                        // acceleration toward the LV" that in turn activates
                        // the AEB).
                        // The association check runs against the *perceived*
                        // lead range — under a mixed attack the RD patch has
                        // already inflated it, so the bent path diverges
                        // past the limit immediately and the lateral channel
                        // dominates the outcome (the paper's observation
                        // that mixed attacks mostly end in A2).
                        if let Some(rd) = frame.lead.map(|l| l.distance) {
                            let path_error = 0.5 * spec.curvature.delta_kappa().abs() * rd * rd;
                            if ctx.ego_d.abs() + path_error > Self::LEAD_ASSOCIATION_LIMIT {
                                frame.lead = None;
                            }
                        }
                    }
                    active = true;
                }
            }
        }

        active
    }

    /// Resets activation state (new run).
    pub fn reset(&mut self) {
        self.rd_active = false;
        self.curvature_started = None;
        self.first_activation = None;
        self.fired = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_perception::{LeadPrediction, PerceptionFrame};

    fn frame_with_lead(rd: f64) -> PerceptionFrame {
        PerceptionFrame {
            lead: Some(LeadPrediction {
                distance: rd,
                closing_speed: 8.0,
                lead_speed: 13.0,
            }),
            ..PerceptionFrame::neutral(22.0)
        }
    }

    fn ctx(time: f64, ego_s: f64, true_rd: Option<f64>) -> FaultContext {
        FaultContext {
            time,
            ego_s,
            ego_d: 0.0,
            true_rd,
            ttc: None,
            road_curvature: 0.0,
        }
    }

    #[test]
    fn from_name_accepts_every_spelling() {
        // Labels (the results CSVs) and short forms (the command lines).
        let cases: [(&[&str], _); 5] = [
            (&["none", "None", "benign"], Some(None)),
            (
                &[
                    "rd",
                    "relative-distance",
                    "relative_distance",
                    "Relative Distance",
                ],
                Some(Some(FaultType::RelativeDistance)),
            ),
            (
                &["dc", "curvature", "desired-curvature", "Desired Curvature"],
                Some(Some(FaultType::DesiredCurvature)),
            ),
            (&["mixed", "Mixed", " MIXED "], Some(Some(FaultType::Mixed))),
            (&["", "all", "lateral", "rd,dc"], None),
        ];
        for (names, parsed) in cases {
            for name in names {
                assert_eq!(FaultType::from_name(name), parsed, "{name:?}");
            }
        }
    }

    #[test]
    fn disabled_injector_is_identity() {
        let mut inj = FaultInjector::disabled();
        let mut f = frame_with_lead(50.0);
        let before = f;
        assert!(!inj.apply(&mut f, &ctx(0.0, 0.0, Some(50.0))));
        assert_eq!(f, before);
        assert!(!inj.is_active());
    }

    #[test]
    fn rd_fault_adds_tiered_offset() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::RelativeDistance, 1e9));
        let mut f = frame_with_lead(50.0);
        assert!(inj.apply(&mut f, &ctx(1.0, 0.0, Some(50.0))));
        assert!((f.lead.unwrap().distance - 60.0).abs() < 1e-9);
        assert_eq!(inj.first_activation_time(), Some(1.0));

        let mut f2 = frame_with_lead(18.0);
        let _ = inj.apply(&mut f2, &ctx(2.0, 0.0, Some(18.0)));
        assert!((f2.lead.unwrap().distance - 56.0).abs() < 1e-9);
    }

    #[test]
    fn rd_fault_inactive_outside_range() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::RelativeDistance, 1e9));
        let mut f = frame_with_lead(100.0);
        assert!(!inj.apply(&mut f, &ctx(0.0, 0.0, Some(100.0))));
        assert!((f.lead.unwrap().distance - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rd_fault_does_not_touch_curvature() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::RelativeDistance, 0.0));
        let mut f = frame_with_lead(50.0);
        let _ = inj.apply(&mut f, &ctx(0.0, 500.0, Some(50.0)));
        assert_eq!(f.desired_curvature, 0.0);
    }

    #[test]
    fn curvature_fault_triggers_at_patch() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::DesiredCurvature, 150.0));
        let mut f = frame_with_lead(50.0);
        assert!(!inj.apply(&mut f, &ctx(0.0, 100.0, Some(50.0))));
        assert_eq!(f.desired_curvature, 0.0);
        assert!(inj.apply(&mut f, &ctx(5.0, 151.0, Some(50.0))));
        let expected = CurvatureFault::default().delta_kappa();
        assert!((f.desired_curvature - expected).abs() < 1e-12);
        // The bent path loses its centering; the raw lane lines stay honest
        // and a nearby lead stays associated while the divergence is small.
        assert_eq!(f.path_centering, 0.0);
        assert!(f.lead.is_some());
        assert!((f.lanes.lane_width() - 3.5).abs() < 1e-9);
        assert_eq!(inj.first_activation_time(), Some(5.0));
    }

    #[test]
    fn curvature_fault_drops_lead_once_path_diverges() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::DesiredCurvature, 150.0));
        // Drifted 0.9 m: divergence 0.9 + 0.5·Δκ·rd² > 1.0 at rd = 50.
        let mut f = frame_with_lead(50.0);
        let mut c = ctx(5.0, 151.0, Some(50.0));
        c.ego_d = 0.9;
        assert!(inj.apply(&mut f, &c));
        assert!(f.lead.is_none());
        // Far leads are dropped even without drift (path error grows with
        // range squared).
        let mut f2 = frame_with_lead(90.0);
        let _ = inj.apply(&mut f2, &ctx(6.0, 160.0, Some(90.0)));
        assert!(f2.lead.is_none());
    }

    #[test]
    fn curvature_fault_persists_when_duration_none() {
        let mut spec = FaultSpec::new(FaultType::DesiredCurvature, 150.0);
        spec.curvature.duration = None;
        let mut inj = FaultInjector::new(spec);
        let mut f = frame_with_lead(50.0);
        let _ = inj.apply(&mut f, &ctx(5.0, 151.0, Some(50.0)));
        let mut f2 = frame_with_lead(50.0);
        assert!(inj.apply(&mut f2, &ctx(50.0, 1200.0, Some(50.0))));
    }

    #[test]
    fn curvature_fault_expires_with_duration() {
        let mut spec = FaultSpec::new(FaultType::DesiredCurvature, 150.0);
        spec.curvature.duration = Some(2.0);
        let mut inj = FaultInjector::new(spec);
        let mut f = frame_with_lead(50.0);
        let _ = inj.apply(&mut f, &ctx(5.0, 151.0, Some(50.0)));
        let mut f2 = frame_with_lead(50.0);
        assert!(!inj.apply(&mut f2, &ctx(8.0, 220.0, Some(50.0))));
        assert_eq!(f2.desired_curvature, 0.0);
    }

    #[test]
    fn mixed_fault_hits_both_channels() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::Mixed, 150.0));
        let mut f = frame_with_lead(50.0);
        assert!(inj.apply(&mut f, &ctx(1.0, 200.0, Some(50.0))));
        // Both channels active: bent path plus RD offset. The inflated
        // perceived range pushes the path divergence past the association
        // limit, so the lead is dropped — the lateral channel dominates
        // mixed attacks, as in the paper.
        assert!(f.desired_curvature > 0.0);
        assert_eq!(f.path_centering, 0.0);
        assert!(f.lead.is_none());
        // With a close lead (small divergence) the RD offset shows through.
        let mut inj2 = FaultInjector::new(FaultSpec::new(FaultType::Mixed, 150.0));
        let mut f3 = frame_with_lead(22.0);
        assert!(inj2.apply(&mut f3, &ctx(1.0, 200.0, Some(22.0))));
        assert!((f3.lead.unwrap().distance - 37.0).abs() < 1e-9);
    }

    #[test]
    fn no_lead_means_no_rd_fault() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::RelativeDistance, 1e9));
        let mut f = PerceptionFrame::neutral(22.0);
        assert!(!inj.apply(&mut f, &ctx(0.0, 0.0, None)));
    }

    #[test]
    fn reset_clears_activation() {
        let mut inj = FaultInjector::new(FaultSpec::new(FaultType::Mixed, 150.0));
        let mut f = frame_with_lead(50.0);
        let _ = inj.apply(&mut f, &ctx(1.0, 200.0, Some(50.0)));
        inj.reset();
        assert!(inj.first_activation_time().is_none());
        assert!(!inj.is_active());
    }

    #[test]
    fn context_scheduler_gates_both_channels_until_predicate_fires() {
        use crate::schedule::{AttackScheduler, ContextTrigger};
        let spec = FaultSpec::new(FaultType::Mixed, 150.0)
            .scheduled(AttackScheduler::Context(ContextTrigger::ttc(3.0)));
        let mut inj = FaultInjector::new(spec);
        // World state not yet vulnerable: an Immediate attack would have
        // perturbed both channels here (ego past patch, lead in RD range).
        let mut f = frame_with_lead(50.0);
        let mut c = ctx(1.0, 200.0, Some(50.0));
        c.ttc = Some(8.0);
        assert!(!inj.apply(&mut f, &c));
        assert_eq!(f, frame_with_lead(50.0));
        assert!(inj.fired_time().is_none());
        assert!(inj.first_activation_time().is_none());
        // TTC collapses: the latch fires and both channels go live.
        let mut f2 = frame_with_lead(50.0);
        let mut c2 = ctx(2.0, 220.0, Some(50.0));
        c2.ttc = Some(2.5);
        assert!(inj.apply(&mut f2, &c2));
        assert_eq!(inj.fired_time(), Some(2.0));
        assert!(f2.desired_curvature > 0.0);
    }

    #[test]
    fn context_latch_fires_at_most_once_and_never_rearms() {
        use crate::schedule::{AttackScheduler, ContextTrigger};
        let spec = FaultSpec::new(FaultType::RelativeDistance, 1e9)
            .scheduled(AttackScheduler::Context(ContextTrigger::ttc(3.0)));
        let mut inj = FaultInjector::new(spec);
        let mut f = frame_with_lead(50.0);
        let mut c = ctx(1.0, 100.0, Some(50.0));
        c.ttc = Some(2.0);
        assert!(inj.apply(&mut f, &c));
        assert_eq!(inj.fired_time(), Some(1.0));
        // The world leaves the vulnerable region again — the latch holds
        // and the fire time never moves.
        for step in 2..10 {
            let mut fs = frame_with_lead(50.0);
            let mut cs = ctx(f64::from(step), 100.0, Some(50.0));
            cs.ttc = Some(40.0);
            assert!(inj.apply(&mut fs, &cs));
            assert_eq!(inj.fired_time(), Some(1.0));
        }
    }

    #[test]
    fn context_curvature_duration_is_anchored_at_fire_time() {
        use crate::schedule::{AttackScheduler, ContextTrigger};
        let mut spec = FaultSpec::new(FaultType::DesiredCurvature, 150.0)
            .scheduled(AttackScheduler::Context(ContextTrigger::ttc(3.0)));
        spec.curvature.duration = Some(2.0);
        let mut inj = FaultInjector::new(spec);
        // Ego passed the patch long ago, but the channel only starts when
        // the predicate fires — so the duration window opens at t=10.
        let mut c = ctx(10.0, 400.0, Some(30.0));
        c.ttc = Some(1.0);
        let mut f = frame_with_lead(30.0);
        assert!(inj.apply(&mut f, &c));
        let mut f2 = frame_with_lead(30.0);
        assert!(inj.apply(&mut f2, &ctx(11.5, 430.0, Some(30.0))));
        let mut f3 = frame_with_lead(30.0);
        assert!(!inj.apply(&mut f3, &ctx(12.5, 450.0, Some(30.0))));
        assert_eq!(f3.desired_curvature, 0.0);
    }

    #[test]
    fn reset_clears_the_context_latch() {
        use crate::schedule::{AttackScheduler, ContextTrigger};
        let spec = FaultSpec::new(FaultType::RelativeDistance, 1e9)
            .scheduled(AttackScheduler::Context(ContextTrigger::ttc(3.0)));
        let mut inj = FaultInjector::new(spec);
        let mut f = frame_with_lead(50.0);
        let mut c = ctx(1.0, 100.0, Some(50.0));
        c.ttc = Some(2.0);
        let _ = inj.apply(&mut f, &c);
        assert!(inj.fired_time().is_some());
        inj.reset();
        assert!(inj.fired_time().is_none());
        // After reset the gate is closed again until the predicate refires.
        let mut f2 = frame_with_lead(50.0);
        assert!(!inj.apply(&mut f2, &ctx(2.0, 100.0, Some(50.0))));
    }
}
