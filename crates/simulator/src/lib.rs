//! Physical-world driving simulator substrate.
//!
//! This crate is the reproduction's stand-in for the MetaDrive simulator used
//! by the paper: it provides everything the closed-loop evaluation platform
//! needs from a "physical world" — vehicle dynamics, road geometry, surface
//! friction, scripted traffic, collision and lane-departure detection, and the
//! per-step trace sample type.
//!
//! The design goal is *behavioural* fidelity to the quantities the paper's
//! evaluation measures (relative distance, time-to-collision, lateral offset,
//! accidents), not visual or tyre-level fidelity. Vehicles follow a
//! friction-limited kinematic bicycle model integrated at 100 Hz in the
//! road's frenet frame.
//!
//! # Example
//!
//! ```
//! use adas_simulator::{RoadBuilder, World, WorldConfig, VehicleCommand, units};
//!
//! let road = RoadBuilder::straight_highway(3_000.0).build();
//! let mut world = World::new(WorldConfig::default(), road);
//! world.spawn_ego(0.0, units::mph(50.0));
//! for _ in 0..100 {
//!     world.step(VehicleCommand::coast());
//! }
//! assert!(world.ego().state().s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collision;
pub mod friction;
pub mod math;
pub mod npc;
pub mod rng;
pub mod road;
pub mod trace;
pub mod units;
pub mod vehicle;
pub mod world;

pub use collision::{CollisionEvent, LaneDeparture};
pub use friction::{surface_in_zones, FrictionCondition, FrictionZone, SurfaceFriction};
pub use math::Vec2;
pub use npc::{Npc, NpcBehavior, NpcPhase, NpcPlan, NpcTrigger};
pub use rng::DeterministicRng;
pub use road::{LaneId, Road, RoadBuilder, RoadSegment};
pub use trace::{samples_to_csv, TraceSample};
pub use units::{GRAVITY, SIM_DT};
pub use vehicle::{Vehicle, VehicleCommand, VehicleParams, VehicleState};
pub use world::{LeadObservation, World, WorldConfig};
