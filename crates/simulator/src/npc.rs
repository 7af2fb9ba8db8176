//! Scripted traffic participants (lead vehicles, cut-in vehicles).
//!
//! NPC vehicles follow a phase plan: each phase has a trigger (time- or
//! gap-based) and an action (speed change, stop, lateral move). This is all
//! the paper's six NHTSA pre-crash scenarios need: constant cruise,
//! accelerate, decelerate, sudden stop, cut-in, and lane change.

use crate::friction::SurfaceFriction;
use crate::math::{atan, clamp};
use crate::road::Road;
use crate::vehicle::{Vehicle, VehicleCommand, VehicleParams, VehicleState};

/// When a plan phase becomes active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NpcTrigger {
    /// Active from the start of the run.
    Immediately,
    /// Active once simulation time reaches `t` seconds.
    AtTime(f64),
    /// Active once the bumper-to-bumper gap to the ego vehicle drops below
    /// the given distance, metres.
    GapToEgoBelow(f64),
}

/// What the NPC does once a phase activates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NpcBehavior {
    /// Track `target` m/s, approaching it at up to `rate` m/s².
    SetSpeed {
        /// Target speed, m/s.
        target: f64,
        /// Magnitude of accel/decel used to reach it, m/s².
        rate: f64,
    },
    /// Brake to a standstill at `decel` m/s² and hold.
    Stop {
        /// Braking deceleration magnitude, m/s².
        decel: f64,
    },
    /// Move laterally to offset `target_d` over roughly `duration` seconds
    /// while keeping the current speed policy.
    MoveLateral {
        /// Target lateral offset from the road reference line, metres.
        target_d: f64,
        /// Nominal manoeuvre duration, seconds.
        duration: f64,
    },
}

/// One phase of an NPC plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpcPhase {
    /// Activation condition. Phases activate in order; a later phase cannot
    /// fire before all earlier ones have.
    pub trigger: NpcTrigger,
    /// Behaviour applied from activation onwards.
    pub behavior: NpcBehavior,
}

/// A full NPC script: initial speed plus ordered phases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NpcPlan {
    /// Phases applied in order as their triggers fire.
    pub phases: Vec<NpcPhase>,
}

impl NpcPlan {
    /// A plan with no phases: cruise forever at the spawn speed.
    #[must_use]
    pub fn cruise() -> Self {
        Self::default()
    }

    /// Adds a phase.
    #[must_use]
    pub fn then(mut self, trigger: NpcTrigger, behavior: NpcBehavior) -> Self {
        self.phases.push(NpcPhase { trigger, behavior });
        self
    }
}

/// Internal lateral manoeuvre state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LateralMove {
    start_d: f64,
    target_d: f64,
    start_t: f64,
    duration: f64,
}

/// A scripted traffic vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct Npc {
    vehicle: Vehicle,
    plan: NpcPlan,
    next_phase: usize,
    target_speed: f64,
    speed_rate: f64,
    stopping: bool,
    lateral: Option<LateralMove>,
    target_d: f64,
}

impl Npc {
    /// Creates an NPC at `(s, d)` with initial speed `v` and a plan.
    #[must_use]
    pub fn new(params: VehicleParams, s: f64, d: f64, v: f64, plan: NpcPlan) -> Self {
        Self {
            vehicle: Vehicle::new(params, s, d, v),
            plan,
            next_phase: 0,
            target_speed: v,
            speed_rate: 2.0,
            stopping: false,
            lateral: None,
            target_d: d,
        }
    }

    /// The underlying vehicle.
    #[must_use]
    pub fn vehicle(&self) -> &Vehicle {
        &self.vehicle
    }

    /// Mutable access (used by scenario setup).
    pub fn vehicle_mut(&mut self) -> &mut Vehicle {
        &mut self.vehicle
    }

    /// Mutable access to the phase plan. Scenario-space search (the fuzzer)
    /// nudges trigger thresholds after construction; this is only sound
    /// before the first [`Npc::step`], while `next_phase` is still 0.
    pub fn plan_mut(&mut self) -> &mut NpcPlan {
        &mut self.plan
    }

    /// Current state shortcut.
    #[must_use]
    pub fn state(&self) -> &VehicleState {
        self.vehicle.state()
    }

    /// The lateral offset this NPC is currently trying to hold.
    #[must_use]
    pub fn target_lateral(&self) -> f64 {
        self.target_d
    }

    /// True once a `Stop` behaviour has been triggered.
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.stopping
    }

    fn fire_ready_phases(&mut self, time: f64, ego: &VehicleState, ego_len: f64) {
        while let Some(phase) = self.plan.phases.get(self.next_phase) {
            let gap =
                (self.vehicle.state().s - ego.s) - (self.vehicle.params().length + ego_len) / 2.0;
            let ready = match phase.trigger {
                NpcTrigger::Immediately => true,
                NpcTrigger::AtTime(t) => time >= t,
                NpcTrigger::GapToEgoBelow(g) => gap.abs() <= g,
            };
            if !ready {
                break;
            }
            match phase.behavior {
                NpcBehavior::SetSpeed { target, rate } => {
                    self.target_speed = target.max(0.0);
                    self.speed_rate = rate.abs().max(0.1);
                    self.stopping = false;
                }
                NpcBehavior::Stop { decel } => {
                    self.stopping = true;
                    self.speed_rate = decel.abs().max(0.1);
                    self.target_speed = 0.0;
                }
                NpcBehavior::MoveLateral { target_d, duration } => {
                    self.lateral = Some(LateralMove {
                        start_d: self.vehicle.state().d,
                        target_d,
                        start_t: time,
                        duration: duration.max(0.5),
                    });
                    self.target_d = target_d;
                }
            }
            self.next_phase += 1;
        }
    }

    /// Advances the NPC one step.
    ///
    /// `ego` is the ego vehicle's state (for gap triggers); `time` is the
    /// simulation clock in seconds.
    pub fn step(
        &mut self,
        road: &Road,
        surface: SurfaceFriction,
        time: f64,
        ego: &VehicleState,
        ego_len: f64,
        dt: f64,
    ) {
        self.fire_ready_phases(time, ego, ego_len);

        // Longitudinal: P control on speed error, saturated at the phase rate.
        let st = *self.vehicle.state();
        let v_err = self.target_speed - st.v;
        let accel = clamp(v_err * 1.5, -self.speed_rate, self.speed_rate);

        // Lateral: smooth-step the desired offset during an active manoeuvre,
        // then track it with a P controller plus road-curvature feed-forward.
        let desired_d = match self.lateral {
            Some(mv) => {
                let t = ((time - mv.start_t) / mv.duration).clamp(0.0, 1.0);
                let smooth = t * t * (3.0 - 2.0 * t);
                let d = mv.start_d + (mv.target_d - mv.start_d) * smooth;
                if t >= 1.0 {
                    self.lateral = None;
                }
                d
            }
            None => self.target_d,
        };
        let wheelbase = self.vehicle.params().wheelbase;
        let kappa_ff = road.curvature_at(st.s);
        let steer_fb = 0.08 * (desired_d - st.d) - 0.6 * st.psi;
        let steer = atan(wheelbase * kappa_ff) + clamp(steer_fb, -0.12, 0.12);

        let cmd = VehicleCommand::from_accel(accel, self.vehicle.params()).with_steer(steer);
        self.vehicle.step(cmd, road, surface, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::RoadBuilder;
    use crate::units::SIM_DT;

    fn run_npc(npc: &mut Npc, road: &Road, steps: usize) {
        let ego = VehicleState {
            s: 0.0,
            v: 20.0,
            ..VehicleState::default()
        };
        let mu = SurfaceFriction::default();
        for i in 0..steps {
            npc.step(road, mu, i as f64 * SIM_DT, &ego, 4.9, SIM_DT);
        }
    }

    #[test]
    fn cruises_at_constant_speed() {
        let road = RoadBuilder::straight_highway(3000.0).build();
        let mut npc = Npc::new(VehicleParams::sedan(), 100.0, 0.0, 13.4, NpcPlan::cruise());
        run_npc(&mut npc, &road, 1000);
        assert!((npc.state().v - 13.4).abs() < 0.5, "v={}", npc.state().v);
        assert!(npc.state().d.abs() < 0.2);
    }

    #[test]
    fn accelerates_at_time() {
        let road = RoadBuilder::straight_highway(3000.0).build();
        let plan = NpcPlan::cruise().then(
            NpcTrigger::AtTime(2.0),
            NpcBehavior::SetSpeed {
                target: 17.9,
                rate: 1.5,
            },
        );
        let mut npc = Npc::new(VehicleParams::sedan(), 100.0, 0.0, 13.4, plan);
        run_npc(&mut npc, &road, 200); // 2 s: not yet
        assert!((npc.state().v - 13.4).abs() < 0.5);
        run_npc(&mut npc, &road, 800);
        assert!(npc.state().v > 16.0, "v={}", npc.state().v);
    }

    #[test]
    fn stops_and_holds() {
        let road = RoadBuilder::straight_highway(3000.0).build();
        let plan =
            NpcPlan::cruise().then(NpcTrigger::AtTime(1.0), NpcBehavior::Stop { decel: 6.0 });
        let mut npc = Npc::new(VehicleParams::sedan(), 50.0, 0.0, 13.4, plan);
        run_npc(&mut npc, &road, 800);
        assert!(npc.state().v < 0.2, "v={}", npc.state().v);
        assert!(npc.is_stopping());
    }

    #[test]
    fn cut_in_reaches_target_lane() {
        let road = RoadBuilder::straight_highway(3000.0).build();
        let plan = NpcPlan::cruise().then(
            NpcTrigger::AtTime(1.0),
            NpcBehavior::MoveLateral {
                target_d: 0.0,
                duration: 3.0,
            },
        );
        let mut npc = Npc::new(VehicleParams::sedan(), 60.0, 3.5, 13.4, plan);
        run_npc(&mut npc, &road, 900);
        assert!(npc.state().d.abs() < 0.5, "d={}", npc.state().d);
    }

    #[test]
    fn gap_trigger_fires_when_ego_close() {
        let road = RoadBuilder::straight_highway(3000.0).build();
        let plan = NpcPlan::cruise().then(
            NpcTrigger::GapToEgoBelow(30.0),
            NpcBehavior::SetSpeed {
                target: 5.0,
                rate: 3.0,
            },
        );
        // NPC 100 m ahead of a stationary ego: gap stays > 30 → no change.
        let mut far = Npc::new(VehicleParams::sedan(), 100.0, 0.0, 13.4, plan.clone());
        let ego = VehicleState::default();
        let mu = SurfaceFriction::default();
        for i in 0..200 {
            far.step(&road, mu, i as f64 * SIM_DT, &ego, 4.9, SIM_DT);
        }
        assert!((far.state().v - 13.4).abs() < 0.5);
        // NPC spawned 20 m ahead: trigger fires immediately.
        let mut near = Npc::new(VehicleParams::sedan(), 20.0, 0.0, 13.4, plan);
        for i in 0..600 {
            near.step(&road, mu, i as f64 * SIM_DT, &ego, 4.9, SIM_DT);
        }
        assert!(near.state().v < 6.0, "v={}", near.state().v);
    }

    #[test]
    fn phases_fire_in_order() {
        let road = RoadBuilder::straight_highway(3000.0).build();
        // Second phase has an earlier trigger but must wait for the first.
        let plan = NpcPlan::cruise()
            .then(
                NpcTrigger::AtTime(3.0),
                NpcBehavior::SetSpeed {
                    target: 17.9,
                    rate: 1.5,
                },
            )
            .then(NpcTrigger::AtTime(1.0), NpcBehavior::Stop { decel: 5.0 });
        let mut npc = Npc::new(VehicleParams::sedan(), 100.0, 0.0, 13.4, plan);
        let ego = VehicleState {
            s: 0.0,
            v: 20.0,
            ..VehicleState::default()
        };
        let mu = SurfaceFriction::default();
        for i in 0..250 {
            npc.step(&road, mu, i as f64 * SIM_DT, &ego, 4.9, SIM_DT);
        }
        assert!(!npc.is_stopping()); // t = 2.5 s: first phase not fired yet
        for i in 250..360 {
            npc.step(&road, mu, i as f64 * SIM_DT, &ego, 4.9, SIM_DT);
        }
        assert!(npc.is_stopping()); // t = 3.5 s: both fire in order
    }

    #[test]
    fn follows_curvy_road() {
        let road = RoadBuilder::curvy_highway(4000.0).build();
        let mut npc = Npc::new(VehicleParams::sedan(), 200.0, 0.0, 15.0, NpcPlan::cruise());
        run_npc(&mut npc, &road, 3000);
        assert!(npc.state().d.abs() < 0.6, "d={}", npc.state().d);
    }
}
