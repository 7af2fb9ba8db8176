//! Friction-limited kinematic bicycle vehicle model.
//!
//! Vehicles are integrated in the road's frenet frame: arc length `s`,
//! left-positive lateral offset `d`, and heading error `psi` relative to the
//! local road tangent. Longitudinal and lateral tyre forces share a friction
//! budget (a simple friction ellipse), which is what makes icy-road runs in
//! the Table VIII reproduction lose both braking and steering authority.

use crate::friction::SurfaceFriction;
use crate::math::{approach, clamp, sin_cos, tan, wrap_angle};
use crate::road::Road;

/// Static parameters of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleParams {
    /// Overall body length, metres.
    pub length: f64,
    /// Overall body width, metres.
    pub width: f64,
    /// Wheelbase used by the bicycle model, metres.
    pub wheelbase: f64,
    /// Engine-limited maximum drive acceleration, m/s².
    pub engine_accel_limit: f64,
    /// Deceleration at 100 % brake command on a dry road, m/s².
    pub full_brake_decel: f64,
    /// Maximum front-wheel steering angle magnitude, radians.
    pub max_steer_angle: f64,
    /// First-order time constant of the gas/brake actuators, seconds.
    pub pedal_tau: f64,
    /// Maximum steering-angle slew rate, rad/s.
    pub steer_rate_limit: f64,
}

impl VehicleParams {
    /// A typical mid-size passenger sedan (the paper's ego and lead vehicles
    /// are MetaDrive's default vehicle, ~4.9 m long).
    #[must_use]
    pub fn sedan() -> Self {
        Self {
            length: 4.9,
            width: 1.85,
            wheelbase: 2.7,
            engine_accel_limit: 3.0,
            full_brake_decel: 9.8,
            max_steer_angle: 0.5,
            pedal_tau: 0.15,
            steer_rate_limit: 0.7,
        }
    }
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self::sedan()
    }
}

/// Actuator command for one 10 ms step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleCommand {
    /// Throttle fraction in `[0, 1]`.
    pub gas: f64,
    /// Brake fraction in `[0, 1]`; `1.0` is a full emergency brake.
    pub brake: f64,
    /// Desired front-wheel angle, radians (positive steers left).
    pub steer: f64,
}

impl VehicleCommand {
    /// No pedal input, wheels straight.
    #[must_use]
    pub fn coast() -> Self {
        Self::default()
    }

    /// Pure longitudinal command from a desired acceleration, m/s².
    ///
    /// Positive values map to throttle against the engine limit; negative
    /// values map to brake fraction against the full-brake deceleration.
    #[must_use]
    pub fn from_accel(accel: f64, params: &VehicleParams) -> Self {
        if accel >= 0.0 {
            Self {
                gas: clamp(accel / params.engine_accel_limit, 0.0, 1.0),
                brake: 0.0,
                steer: 0.0,
            }
        } else {
            Self {
                gas: 0.0,
                brake: clamp(-accel / params.full_brake_decel, 0.0, 1.0),
                steer: 0.0,
            }
        }
    }

    /// Returns this command with the steering angle replaced.
    #[must_use]
    pub fn with_steer(mut self, steer: f64) -> Self {
        self.steer = steer;
        self
    }

    /// Clamps all components into their physical ranges. `NaN` inputs are
    /// treated as zero; infinities clamp to the range edge.
    #[must_use]
    pub fn sanitized(self, params: &VehicleParams) -> Self {
        let clean = |v: f64| if v.is_nan() { 0.0 } else { v };
        Self {
            gas: clamp(clean(self.gas), 0.0, 1.0),
            brake: clamp(clean(self.brake), 0.0, 1.0),
            steer: clamp(
                clean(self.steer),
                -params.max_steer_angle,
                params.max_steer_angle,
            ),
        }
    }
}

/// Dynamic state of a vehicle in the frenet frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleState {
    /// Arc length along the road reference line, metres.
    pub s: f64,
    /// Lateral offset from the reference line (left positive), metres.
    pub d: f64,
    /// Heading error relative to the local road tangent, radians.
    pub psi: f64,
    /// Forward speed, m/s (never negative; the model does not reverse).
    pub v: f64,
    /// Realised longitudinal acceleration last step, m/s².
    pub accel: f64,
    /// Actual front-wheel angle after slew limiting, radians.
    pub steer: f64,
    /// Filtered throttle actuator position in `[0, 1]`.
    pub gas_actual: f64,
    /// Filtered brake actuator position in `[0, 1]`.
    pub brake_actual: f64,
}

/// A vehicle: parameters plus integrated state.
#[derive(Debug, Clone, PartialEq)]
pub struct Vehicle {
    params: VehicleParams,
    state: VehicleState,
}

impl Vehicle {
    /// Creates a vehicle at `(s, d)` travelling at `v` along the road.
    #[must_use]
    pub fn new(params: VehicleParams, s: f64, d: f64, v: f64) -> Self {
        Self {
            params,
            state: VehicleState {
                s,
                d,
                v: v.max(0.0),
                ..VehicleState::default()
            },
        }
    }

    /// Static parameters.
    #[must_use]
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Current dynamic state.
    #[must_use]
    pub fn state(&self) -> &VehicleState {
        &self.state
    }

    /// Mutable state access for scenario scripting (NPC teleports etc.).
    pub fn state_mut(&mut self) -> &mut VehicleState {
        &mut self.state
    }

    /// Arc length of the front bumper.
    #[must_use]
    pub fn front_s(&self) -> f64 {
        self.state.s + self.params.length / 2.0
    }

    /// Arc length of the rear bumper.
    #[must_use]
    pub fn rear_s(&self) -> f64 {
        self.state.s - self.params.length / 2.0
    }

    /// Advances the vehicle by `dt` under `command` on `road` with `surface`
    /// friction.
    ///
    /// The integration order is: actuator filters → friction-ellipse
    /// limited accelerations → kinematics. Speed never goes negative.
    pub fn step(
        &mut self,
        command: VehicleCommand,
        road: &Road,
        surface: SurfaceFriction,
        dt: f64,
    ) {
        let cmd = command.sanitized(&self.params);
        let st = &mut self.state;

        // First-order pedal actuators; rate-limited steering.
        let alpha = (dt / self.params.pedal_tau).min(1.0);
        st.gas_actual += (cmd.gas - st.gas_actual) * alpha;
        st.brake_actual += (cmd.brake - st.brake_actual) * alpha;
        st.steer = approach(st.steer, cmd.steer, self.params.steer_rate_limit * dt);

        // Lateral demand from the bicycle model, limited by the lateral
        // friction budget (understeer: the vehicle tracks a wider curve than
        // commanded once grip runs out).
        let kappa_cmd = tan(st.steer) / self.params.wheelbase;
        let kappa_vehicle = if st.v > 0.5 {
            let kappa_max = surface.max_lateral_accel() / (st.v * st.v);
            clamp(kappa_cmd, -kappa_max, kappa_max)
        } else {
            kappa_cmd
        };
        let lateral_accel = st.v * st.v * kappa_vehicle;

        // Longitudinal acceleration demand: engine minus brakes minus drag.
        let drag = 0.001 * st.v * st.v + 0.01;
        let mut accel = st.gas_actual * surface.max_drive_accel(self.params.engine_accel_limit)
            - st.brake_actual * self.params.full_brake_decel
            - if st.v > 0.0 { drag } else { 0.0 };

        // Combined-slip budget: remaining longitudinal grip shrinks with
        // lateral utilisation.
        let mu_g = surface.mu * crate::units::GRAVITY;
        let long_budget = (mu_g * mu_g - lateral_accel * lateral_accel)
            .max(0.0)
            .sqrt();
        accel = clamp(
            accel,
            -long_budget,
            long_budget.min(self.params.engine_accel_limit),
        );

        // Kinematics in the frenet frame.
        let kappa_road = road.curvature_at(st.s);
        let denom = (1.0 - st.d * kappa_road).max(0.2);
        let (sin_psi, cos_psi) = sin_cos(st.psi);
        let s_dot = st.v * cos_psi / denom;
        let d_dot = st.v * sin_psi;
        let psi_dot = st.v * kappa_vehicle - kappa_road * s_dot;

        st.s += s_dot * dt;
        st.d += d_dot * dt;
        st.psi = wrap_angle(st.psi + psi_dot * dt);
        let new_v = (st.v + accel * dt).max(0.0);
        st.accel = (new_v - st.v) / dt;
        st.v = new_v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::friction::FrictionCondition;
    use crate::math::atan;
    use crate::road::RoadBuilder;
    use crate::units::SIM_DT;
    use proptest::prelude::*;

    fn dry() -> SurfaceFriction {
        SurfaceFriction::default()
    }

    fn drive(v: &mut Vehicle, road: &Road, cmd: VehicleCommand, steps: usize, mu: SurfaceFriction) {
        for _ in 0..steps {
            v.step(cmd, road, mu, SIM_DT);
        }
    }

    #[test]
    fn accelerates_from_rest() {
        let road = RoadBuilder::straight_highway(2000.0).build();
        let mut car = Vehicle::new(VehicleParams::sedan(), 0.0, 0.0, 0.0);
        drive(
            &mut car,
            &road,
            VehicleCommand {
                gas: 1.0,
                ..VehicleCommand::default()
            },
            500,
            dry(),
        );
        assert!(car.state().v > 10.0, "v = {}", car.state().v);
        assert!(car.state().s > 20.0);
    }

    #[test]
    fn full_brake_stops_quickly() {
        let road = RoadBuilder::straight_highway(2000.0).build();
        let mut car = Vehicle::new(VehicleParams::sedan(), 0.0, 0.0, 20.0);
        let mut steps = 0;
        while car.state().v > 0.0 && steps < 1000 {
            car.step(
                VehicleCommand {
                    brake: 1.0,
                    ..VehicleCommand::default()
                },
                &road,
                dry(),
                SIM_DT,
            );
            steps += 1;
        }
        // ~20/(0.9*9.81) ≈ 2.3 s plus actuator lag.
        let t = steps as f64 * SIM_DT;
        assert!(t > 1.8 && t < 3.2, "stop time {t}");
    }

    #[test]
    fn speed_never_negative() {
        let road = RoadBuilder::straight_highway(100.0).build();
        let mut car = Vehicle::new(VehicleParams::sedan(), 0.0, 0.0, 1.0);
        drive(
            &mut car,
            &road,
            VehicleCommand {
                brake: 1.0,
                ..VehicleCommand::default()
            },
            300,
            dry(),
        );
        assert_eq!(car.state().v, 0.0);
    }

    #[test]
    fn tracks_curve_with_matching_steer() {
        // Steering so that vehicle curvature equals road curvature keeps the
        // lateral offset near zero.
        let radius = 400.0;
        let road = RoadBuilder::new().arc(1000.0, radius).build();
        let params = VehicleParams::sedan();
        let steer = atan(params.wheelbase / radius);
        let mut car = Vehicle::new(params, 0.0, 0.0, 20.0);
        car.state_mut().steer = steer; // pre-settled actuator
        drive(
            &mut car,
            &road,
            VehicleCommand {
                gas: 0.25,
                brake: 0.0,
                steer,
            },
            1000,
            dry(),
        );
        assert!(car.state().d.abs() < 0.15, "d = {}", car.state().d);
        assert!(car.state().psi.abs() < 0.02);
    }

    #[test]
    fn understeers_on_ice() {
        // On ice at speed, the same steering input yields much less lateral
        // motion because curvature saturates at a_lat_max / v².
        let road = RoadBuilder::straight_highway(3000.0).build();
        let params = VehicleParams::sedan();
        let cmd = VehicleCommand {
            gas: 0.0,
            brake: 0.0,
            steer: 0.2,
        };
        let mut dry_car = Vehicle::new(params, 0.0, 0.0, 25.0);
        let mut icy_car = Vehicle::new(params, 0.0, 0.0, 25.0);
        drive(&mut dry_car, &road, cmd, 100, dry());
        drive(
            &mut icy_car,
            &road,
            cmd,
            100,
            SurfaceFriction::new(FrictionCondition::Off75),
        );
        assert!(dry_car.state().d > icy_car.state().d * 1.5);
    }

    #[test]
    fn cornering_consumes_braking_budget() {
        let road = RoadBuilder::straight_highway(3000.0).build();
        let params = VehicleParams::sedan();
        let mut straight = Vehicle::new(params, 0.0, 0.0, 25.0);
        let mut turning = Vehicle::new(params, 0.0, 0.0, 25.0);
        // Pre-set steering so the lateral demand is active immediately.
        turning.state_mut().steer = 0.12;
        for _ in 0..50 {
            straight.step(
                VehicleCommand {
                    brake: 1.0,
                    ..VehicleCommand::default()
                },
                &road,
                dry(),
                SIM_DT,
            );
            turning.step(
                VehicleCommand {
                    gas: 0.0,
                    brake: 1.0,
                    steer: 0.12,
                },
                &road,
                dry(),
                SIM_DT,
            );
        }
        assert!(
            straight.state().v < turning.state().v,
            "combined slip should weaken braking"
        );
    }

    #[test]
    fn actuator_lag_delays_gas() {
        let road = RoadBuilder::straight_highway(100.0).build();
        let mut car = Vehicle::new(VehicleParams::sedan(), 0.0, 0.0, 0.0);
        car.step(
            VehicleCommand {
                gas: 1.0,
                ..VehicleCommand::default()
            },
            &road,
            dry(),
            SIM_DT,
        );
        assert!(car.state().gas_actual < 0.2);
    }

    #[test]
    fn sanitize_rejects_non_finite() {
        let p = VehicleParams::sedan();
        let c = VehicleCommand {
            gas: f64::NAN,
            brake: f64::INFINITY,
            steer: -9.0,
        }
        .sanitized(&p);
        assert_eq!(c.gas, 0.0);
        assert_eq!(c.brake, 1.0);
        assert_eq!(c.steer, -p.max_steer_angle);
    }

    #[test]
    fn from_accel_maps_both_signs() {
        let p = VehicleParams::sedan();
        let up = VehicleCommand::from_accel(1.5, &p);
        assert!((up.gas - 0.5).abs() < 1e-12 && up.brake == 0.0);
        let down = VehicleCommand::from_accel(-4.9, &p);
        assert!(down.gas == 0.0 && (down.brake - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn dynamics_remain_finite(
            gas in 0.0f64..1.0,
            brake in 0.0f64..1.0,
            steer in -0.5f64..0.5,
            v0 in 0.0f64..40.0,
        ) {
            let road = RoadBuilder::curvy_highway(4000.0).build();
            let mut car = Vehicle::new(VehicleParams::sedan(), 10.0, 0.0, v0);
            let cmd = VehicleCommand { gas, brake, steer };
            for _ in 0..200 {
                car.step(cmd, &road, dry(), SIM_DT);
            }
            let st = car.state();
            prop_assert!(st.s.is_finite() && st.d.is_finite() && st.v.is_finite());
            prop_assert!(st.v >= 0.0);
            prop_assert!(st.psi.abs() <= std::f64::consts::PI + 1e-9);
        }

        #[test]
        fn monotone_progress_forward(v0 in 5.0f64..35.0) {
            let road = RoadBuilder::straight_highway(5000.0).build();
            let mut car = Vehicle::new(VehicleParams::sedan(), 0.0, 0.0, v0);
            let mut last_s = 0.0;
            for _ in 0..300 {
                car.step(VehicleCommand::coast(), &road, dry(), SIM_DT);
                prop_assert!(car.state().s >= last_s);
                last_s = car.state().s;
            }
        }
    }
}
