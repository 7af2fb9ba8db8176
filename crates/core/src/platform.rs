//! The closed-loop simulation platform (paper Fig. 3).
//!
//! One `Platform` owns a world, the perception emulator, the OpenPilot-like
//! controller, the fault injector, every safety intervention, and the
//! metric/hazard monitors; [`Platform::step`] executes one 10 ms cycle of
//! the loop:
//!
//! ```text
//! world ──ground truth──► perception ──► fault injection ──► ADAS (ACC+ALC)
//!   ▲                          │                                   │
//!   │                    AEBS(comp./indep.)   safety check ◄───────┘
//!   │                          │driver (true world + FCW/LDW)  ML (Alg. 1)
//!   └────── actuators ◄── priority arbiter ◄──────────────────────┘
//! ```

use crate::config::PlatformConfig;
use adas_attack::{FaultContext, FaultInjector};
use adas_control::{AdasCommand, AdasController};
use adas_ml::{ControlTarget, Mitigator, PerceptionViews, StateFeatures, FEATURE_DIM, TARGET_DIM};
use adas_perception::{PerceptionEmulator, PerceptionFrame};
use adas_safety::{
    arbitrate, Aebs, AebsConfig, AebsMode, AebsOutput, ArbiterInputs, CommandSource,
    DriverAction, DriverConfig, DriverInputs, DriverModel, Ldw, LdwConfig, SafetyCheck,
    SafetyCheckConfig,
};
use adas_recorder::{EndReason, Trace, TraceHeader, TraceOutcome, TraceWriter};
use adas_scenarios::{HazardMonitor, RunMetrics, RunRecord, ScenarioSetup};
use adas_simulator::{DeterministicRng, LeadObservation, TraceSample, World, WorldConfig};

/// The assembled closed-loop platform for one run.
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    world: World,
    perception: PerceptionEmulator,
    adas: AdasController,
    injector: FaultInjector,
    aebs: Aebs,
    check: Option<SafetyCheck>,
    driver: Option<DriverModel>,
    ldw: Ldw,
    ml: Option<Mitigator>,
    hazards: HazardMonitor,
    metrics: RunMetrics,
    writer: Option<TraceWriter>,
    last_executed: ControlTarget,
    stationary_steps: usize,
    steps_run: usize,
}

impl Platform {
    /// Assembles a platform for one scenario run.
    ///
    /// `injector` carries the attack (use [`FaultInjector::disabled`] for
    /// benign runs); `ml` is the mitigation runtime (any
    /// [`Mitigator`] variant) when the configuration enables it; `rng`
    /// seeds the perception noise.
    #[must_use]
    pub fn new(
        setup: &ScenarioSetup,
        config: PlatformConfig,
        injector: FaultInjector,
        ml: Option<Mitigator>,
        rng: &mut DeterministicRng,
    ) -> Self {
        let mut adas_cfg = config.adas;
        adas_cfg.acc.set_speed = setup.ego_speed;

        let world_cfg = WorldConfig {
            friction: config.friction,
            ..WorldConfig::default()
        };
        let mut world = World::new(world_cfg, setup.road.clone());
        world.spawn_ego(setup.ego_start_s, setup.ego_speed);
        for npc in &setup.npcs {
            world.add_npc(npc.clone());
        }
        for zone in &setup.friction_zones {
            world.add_friction_zone(*zone);
        }

        let iv = config.interventions;
        Self {
            config,
            world,
            perception: PerceptionEmulator::new(config.perception, rng.split(0xFEED)),
            adas: AdasController::new(adas_cfg),
            injector,
            aebs: Aebs::new(AebsConfig::default(), iv.aebs),
            check: iv.safety_check.then(|| SafetyCheck::new(SafetyCheckConfig::default())),
            driver: iv.driver.then(|| {
                DriverModel::new(DriverConfig {
                    reaction_time: iv.driver_reaction_time,
                    speed_limit: setup.ego_speed,
                    ..DriverConfig::default()
                })
            }),
            ldw: Ldw::new(LdwConfig::default()),
            ml: if iv.ml { ml } else { None },
            hazards: HazardMonitor::new(config.hazards),
            metrics: RunMetrics::new(),
            writer: None,
            last_executed: ControlTarget::default(),
            stationary_steps: 0,
            steps_run: 0,
        }
    }

    /// Attaches a flight-recorder writer that is fed directly from the
    /// step loop — the zero-copy capture path: samples go straight into
    /// the writer (events derived online) with no intermediate buffer.
    /// [`Self::seal`] takes it back.
    pub fn attach_writer(&mut self, writer: TraceWriter) {
        self.writer = Some(writer);
    }

    /// The simulated world (read access for examples/tests).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The hazard monitor.
    #[must_use]
    pub fn hazards(&self) -> &HazardMonitor {
        &self.hazards
    }

    /// Executes one 10 ms control cycle. Returns the latest perception
    /// frame (post fault injection) for inspection.
    ///
    /// Composed of `begin_step` (stages 1–7 up to the ML feature encode),
    /// the run's one-lane LSTM forward, and `finish_step` (mitigation
    /// decision, arbitration, actuation, monitors) — the same seams the
    /// lockstep batch driver uses, so a run stepped alone and a lockstep
    /// lane execute identical per-run operation sequences.
    pub fn step(&mut self) -> PerceptionFrame {
        let pending = self.begin_step();
        let ml_y = match (
            self.ml.as_mut().and_then(Mitigator::as_cusum_mut),
            pending.ml_input.as_ref(),
        ) {
            (Some(ml), Some(input)) => Some(ml.forward(&input.x)),
            _ => None,
        };
        self.finish_step(pending, ml_y)
    }

    /// Stages 1–7 of one control cycle: perception + fault injection, ADAS
    /// control, safety check, AEBS, LDW, driver model, and the ML feature
    /// encode — everything up to (but not including) the LSTM forward.
    pub(crate) fn begin_step(&mut self) -> PendingCycle {
        let dt = adas_simulator::units::SIM_DT;
        let time = self.world.time();

        // 1. Perception (DNN outputs) + fault injection. The pre-injection
        // channel values are captured first (plain reads, no stream
        // consumption) — the view-based mitigations jitter the fault delta
        // between these and the post-injection values.
        let truth = self.world.lead_observation();
        let mut frame = self.perception.perceive(&self.world);
        let clean_rd = frame.lead.map(|l| l.distance);
        let clean_kappa = frame.desired_curvature;
        let ego_s = self.world.ego().state().s;
        let fault_active = self.injector.apply(
            &mut frame,
            &FaultContext {
                time,
                ego_s,
                ego_d: self.world.ego().state().d,
                true_rd: truth.map(|o| o.distance),
                // Live world state for the context-aware attack scheduler:
                // the attacker watches the same quantities the victim's
                // sensors expose.
                ttc: truth.map(|o| o.ttc()),
                road_curvature: self.world.road().curvature_at(ego_s),
            },
        );

        // 2. ADAS control (consumes possibly-poisoned outputs).
        let raw_cmd = self.adas.control(&frame, dt);

        // 3. Firmware safety check (ADAS/ML level only).
        let checked_cmd = match self.check.as_mut() {
            Some(check) => check.check(raw_cmd, dt).command,
            None => raw_cmd,
        };

        // 4. AEBS: data source depends on the configuration.
        let aeb_lead = match self.aebs.mode() {
            AebsMode::Disabled => None,
            AebsMode::Compromised => frame.lead.map(|l| (l.distance, l.closing_speed)),
            AebsMode::Independent => truth.map(|o| (o.distance, o.closing_speed)),
        };
        let ego_v = self.world.ego().state().v;
        let aeb_out = self.aebs.evaluate(aeb_lead, ego_v, time);

        // 5. LDW from the (possibly poisoned) perception lane lines.
        let perceived_edge = frame.lanes.nearest_line() - self.world.ego().params().width / 2.0;
        let ldw_alert = self.ldw.evaluate(perceived_edge, time, dt);

        // 6. Human driver watches the true world plus the alerts.
        let ego_state = *self.world.ego().state();
        let true_line_dist = self.world.ego_lane_line_distance();
        let driver_action = match self.driver.as_mut() {
            Some(driver) => driver.update(&DriverInputs {
                time,
                fcw_alert: aeb_out.fcw_alert,
                ldw_alert,
                ego_speed: ego_state.v,
                adas_accel: checked_cmd.accel,
                ego_accel: ego_state.accel,
                true_lead: truth.map(|o| (o.distance, o.closing_speed)),
                cut_in: self.world.cut_in_threat(),
                lateral_offset: ego_state.d,
                heading_error: ego_state.psi,
                // The paper's lateral trigger uses the *predicted* distance
                // to the lane lines — which a road-patch attack poisons.
                lane_line_distance: perceived_edge,
            }),
            None => adas_safety::DriverAction::default(),
        };

        // 7 (first half). ML mitigation consumes fault-free redundant
        // state; encode the staging for the active strategy here. The
        // CUSUM baseline gets its feature vector (LSTM forward left to the
        // caller — one lane alone or batched across lanes); the view-based
        // strategies get the clean/attacked perception channel pairs and
        // run their own view fan-out inside `finish_step`.
        let (ml_input, views_input) = match self.ml.as_ref() {
            None => (None, None),
            Some(mit) => {
                let features = StateFeatures::observe(&self.world, self.last_executed);
                let op_out = ControlTarget {
                    accel: checked_cmd.accel,
                    steer: checked_cmd.steer,
                };
                if mit.wants_views() {
                    (
                        None,
                        Some(PerceptionViews {
                            features,
                            clean_rd,
                            attacked_rd: frame.lead.map(|l| l.distance),
                            clean_kappa,
                            attacked_kappa: frame.desired_curvature,
                            op_out,
                        }),
                    )
                } else {
                    (
                        Some(MlInput {
                            x: features.encode(),
                            op_out,
                        }),
                        None,
                    )
                }
            }
        };

        PendingCycle {
            time,
            truth,
            frame,
            fault_active,
            checked_cmd,
            aeb_out,
            driver_action,
            true_line_dist,
            ml_input,
            views_input,
        }
    }

    /// Commits one control cycle begun by [`Self::begin_step`]: the ML
    /// mitigation decision (fed the externally computed LSTM output
    /// `ml_y`, if any), priority arbitration, actuation, and monitors.
    ///
    /// `ml_y` must be `Some` exactly when the pending cycle carries an ML
    /// input, and must be the model output for that input on this run's
    /// recurrent stream — [`MlMitigator::forward`] (a one-lane
    /// [`adas_ml::LstmPredictor::step_batch`]) for a run stepped alone, or
    /// the run's lane of a wider panel in lockstep (bit-identical by
    /// construction).
    pub(crate) fn finish_step(
        &mut self,
        pending: PendingCycle,
        ml_y: Option<[f64; TARGET_DIM]>,
    ) -> PerceptionFrame {
        let PendingCycle {
            time,
            truth,
            frame,
            fault_active,
            checked_cmd,
            aeb_out,
            driver_action,
            true_line_dist,
            ml_input,
            views_input,
        } = pending;

        // 7 (second half). Mitigation decision: the CUSUM baseline judges
        // the externally computed LSTM output; the view-based strategies
        // run their whole cycle here on the staged perception views.
        let to_cmd = |target: ControlTarget| AdasCommand {
            accel: target.accel,
            steer: target.steer,
            lead_engaged: checked_cmd.lead_engaged,
        };
        let ml_cmd = match self.ml.as_mut() {
            None => match (ml_input, ml_y) {
                (None, None) => None,
                _ => panic!("ml_y must accompany a pending ML input (and only then)"),
            },
            Some(Mitigator::Cusum(ml)) => match (ml_input, ml_y) {
                (Some(input), Some(y)) => {
                    ml.update_with_output(&y, &input.op_out, time).map(to_cmd)
                }
                _ => panic!("ml_y must accompany a pending ML input (and only then)"),
            },
            Some(mit) => {
                assert!(
                    ml_y.is_none(),
                    "view-based mitigations compute inline; no external LSTM output expected"
                );
                let views = views_input
                    .as_ref()
                    .expect("views staged for a view-based mitigator");
                mit.update_views(views, time).map(to_cmd)
            }
        };

        // 8. Priority arbitration (AEB > driver > ML > ADAS).
        let ego_params = *self.world.ego().params();
        let arb = arbitrate(
            &ArbiterInputs {
                adas: checked_cmd,
                ml: ml_cmd,
                driver: driver_action,
                aeb_brake: aeb_out.brake,
            },
            &ego_params,
        );

        // 9. Actuate and advance the physical world.
        self.world.step(arb.command);
        self.steps_run += 1;
        self.last_executed = ControlTarget {
            accel: arb.command.gas * ego_params.engine_accel_limit
                - arb.command.brake * ego_params.full_brake_decel,
            steer: arb.command.steer,
        };

        // 10. Monitors.
        let _ = self.hazards.update(&self.world);
        let t_fcw_now = self.aebs.t_fcw(self.world.ego().state().v);
        self.metrics.step(
            truth.map(|o| o.distance),
            truth.map(|o| o.closing_speed),
            t_fcw_now,
            arb.command.brake,
            true_line_dist,
        );

        if let Some(writer) = self.writer.as_mut() {
            let st = self.world.ego().state();
            let sample = TraceSample {
                time,
                ego_s: st.s,
                ego_d: st.d,
                ego_v: st.v,
                ego_accel: st.accel,
                gas: arb.command.gas,
                brake: arb.command.brake,
                steer: arb.command.steer,
                true_rd: truth.map_or(f64::INFINITY, |o| o.distance),
                perceived_rd: frame.lead.map_or(f64::INFINITY, |l| l.distance),
                lead_v: truth.map_or(f64::NAN, |o| o.lead_speed),
                lane_line_distance: true_line_dist,
                ttc: truth.map_or(f64::INFINITY, |o| o.ttc()),
                fcw_alert: aeb_out.fcw_alert,
                aeb_active: arb.longitudinal == CommandSource::Aeb,
                driver_braking: driver_action.brake.is_some(),
                driver_steering: driver_action.steer.is_some(),
                ml_active: ml_cmd.is_some(),
                fault_active,
            };
            writer.record(sample);
        }

        if self.world.ego().state().v < 0.05 {
            self.stationary_steps += 1;
        } else {
            self.stationary_steps = 0;
        }

        frame
    }

    /// Why the run should end now, or `None` to keep stepping.
    #[must_use]
    pub fn finished(&self) -> Option<EndReason> {
        if self.hazards.accident().is_some() {
            return Some(EndReason::Accident);
        }
        if self.steps_run >= self.config.max_steps {
            return Some(EndReason::TimeLimit);
        }
        if self.config.quiescence_steps > 0 && self.stationary_steps >= self.config.quiescence_steps
        {
            return Some(EndReason::Quiescent);
        }
        None
    }

    /// Steps until the run ends and returns why it ended.
    pub fn run_to_end(&mut self) -> EndReason {
        loop {
            let _ = self.step();
            if let Some(end) = self.finished() {
                return end;
            }
        }
    }

    /// Runs to completion and returns the record.
    pub fn run(&mut self) -> RunRecord {
        let _ = self.run_to_end();
        self.record()
    }

    /// Seals a finished run: its record plus the attached writer's capture
    /// wrapped into a [`Trace`] under `header`, ended for `end`.
    ///
    /// # Panics
    ///
    /// Panics if no writer is attached.
    #[must_use]
    pub fn seal(mut self, end: EndReason, header: TraceHeader) -> (RunRecord, Trace) {
        let record = self.record();
        let writer = self.writer.take().expect("writer was attached");
        let outcome = TraceOutcome {
            end,
            accident: record.accident,
            accident_time: record.accident_time,
            fault_start: record.fault_start,
            min_ttc: record.min_ttc,
            min_lane_line_distance: record.min_lane_line_distance,
            steps: record.steps,
        };
        let trace = writer.finish(header, outcome);
        (record, trace)
    }

    /// Builds the [`RunRecord`] from the current monitors (callable after a
    /// manual stepping loop too).
    #[must_use]
    pub fn record(&self) -> RunRecord {
        let mut rec = self.metrics.finish();
        rec.h1_time = self.hazards.first_h1();
        rec.h2_time = self.hazards.first_h2();
        if let Some((t, kind)) = self.hazards.accident() {
            rec.accident = Some(kind);
            rec.accident_time = Some(t);
        }
        rec.fault_start = self.injector.first_activation_time();
        rec.aeb_trigger = self.aebs.first_brake_time();
        if let Some(driver) = &self.driver {
            rec.driver_brake_trigger = driver.first_brake_trigger().map(|(t, _)| t);
            rec.driver_steer_trigger = driver.first_steer_trigger();
        }
        rec.ml_activated = self
            .ml
            .as_ref()
            .is_some_and(|m| m.first_activation_time().is_some());
        rec
    }
}

/// Encoded ML-mitigation input for one cycle: the feature vector the LSTM
/// consumes and the ADAS output the CUSUM gate compares against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MlInput {
    /// Encoded [`StateFeatures`] — one lane's column of the batched input
    /// panel.
    pub(crate) x: [f64; FEATURE_DIM],
    op_out: ControlTarget,
}

/// One control cycle's stage 1–7 products, pending the LSTM forward and
/// the commit in [`Platform::finish_step`].
///
/// The world has *not* advanced yet when this exists; the batch driver
/// holds one per lane while a single weights-stationary matvec serves
/// every lane's LSTM step.
#[derive(Debug)]
pub(crate) struct PendingCycle {
    time: f64,
    truth: Option<LeadObservation>,
    frame: PerceptionFrame,
    fault_active: bool,
    checked_cmd: AdasCommand,
    aeb_out: AebsOutput,
    driver_action: DriverAction,
    true_line_dist: f64,
    pub(crate) ml_input: Option<MlInput>,
    /// Clean/attacked perception channel pairs for the view-based
    /// mitigations (`None` for the CUSUM baseline and unmitigated runs).
    views_input: Option<PerceptionViews>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_attack::{FaultSpec, FaultType};
    use adas_scenarios::{InitialPosition, ScenarioId};

    fn setup(id: ScenarioId) -> ScenarioSetup {
        let mut rng = DeterministicRng::for_run(42, id.index() as u64, 0, 0);
        ScenarioSetup::build(id, InitialPosition::Near, &mut rng)
    }

    fn run(
        id: ScenarioId,
        config: PlatformConfig,
        fault: Option<FaultType>,
    ) -> RunRecord {
        let s = setup(id);
        let injector = match fault {
            Some(ft) => FaultInjector::new(FaultSpec::new(ft, s.patch_start_s)),
            None => FaultInjector::disabled(),
        };
        let mut rng = DeterministicRng::for_run(42, id.index() as u64, 0, 1);
        let mut p = Platform::new(&s, config, injector, None, &mut rng);
        p.run()
    }

    #[test]
    fn benign_s1_no_accident() {
        let rec = run(ScenarioId::S1, PlatformConfig::default(), None);
        assert!(rec.prevented(), "benign S1 must not crash: {rec:?}");
        assert!(rec.min_ttc > 1.5, "min_ttc {}", rec.min_ttc);
        assert!(rec.avg_following_distance > 15.0 && rec.avg_following_distance < 45.0,
            "following {}", rec.avg_following_distance);
    }

    #[test]
    fn rd_attack_without_interventions_crashes() {
        let rec = run(
            ScenarioId::S1,
            PlatformConfig::default(),
            Some(FaultType::RelativeDistance),
        );
        assert!(rec.accident.is_some(), "RD attack must cause accident");
        assert!(rec.fault_start.is_some());
    }

    #[test]
    fn curvature_attack_without_interventions_departs_lane() {
        let rec = run(
            ScenarioId::S1,
            PlatformConfig::default(),
            Some(FaultType::DesiredCurvature),
        );
        assert_eq!(
            rec.accident,
            Some(adas_scenarios::AccidentKind::LaneViolation),
            "{rec:?}"
        );
    }

    #[test]
    fn aeb_independent_prevents_rd_attack() {
        let cfg = PlatformConfig::with_interventions(
            crate::config::InterventionConfig::aeb_independent_only(),
        );
        let rec = run(ScenarioId::S1, cfg, Some(FaultType::RelativeDistance));
        assert!(rec.prevented(), "AEB-indep must prevent: {rec:?}");
        assert!(rec.aeb_trigger.is_some());
    }

    #[test]
    fn trace_recording_works() {
        let s = setup(ScenarioId::S1);
        let mut rng = DeterministicRng::for_run(42, 0, 0, 5);
        let mut p = Platform::new(
            &s,
            PlatformConfig::default(),
            FaultInjector::disabled(),
            None,
            &mut rng,
        );
        p.attach_writer(TraceWriter::new(adas_recorder::RecordMode::Full));
        for _ in 0..100 {
            let _ = p.step();
        }
        let id = crate::experiment::RunId {
            scenario: ScenarioId::S1,
            position: InitialPosition::Near,
            repetition: 0,
        };
        let header = crate::replay::trace_header(id, None, &PlatformConfig::default(), 0, 42);
        let (record, trace) = p.seal(EndReason::TimeLimit, header);
        assert_eq!(record.steps, 100);
        assert_eq!(trace.samples.len(), 100);
        assert!(trace.samples[50].ego_v > 0.0);
    }

    #[test]
    fn run_ends_by_time_limit_when_nothing_happens() {
        let cfg = PlatformConfig {
            max_steps: 200,
            quiescence_steps: 0,
            ..PlatformConfig::default()
        };
        let rec = run(ScenarioId::S1, cfg, None);
        assert_eq!(rec.steps, 200);
    }
}
