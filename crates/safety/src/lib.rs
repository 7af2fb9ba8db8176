//! Safety interventions: AEBS/FCW, firmware safety checks, LDW, the human
//! driver model, and the priority arbiter that resolves conflicts among
//! them.
//!
//! This crate implements the paper's three levels of safety mechanism
//! (Section III-C):
//!
//! 1. **basic level** — a TTC-based phase-controlled [`Aebs`] with FCW,
//!    runnable on disabled / compromised / independent data sources;
//! 2. **application level** — a PANDA-replica [`SafetyCheck`] bounding
//!    control commands to ISO 22179-derived ranges;
//! 3. **human level** — a rule-based [`DriverModel`] reacting to FCW/LDW
//!    alerts and to directly observable hazards after a configurable
//!    reaction time.
//!
//! [`arbiter::arbitrate`] combines their outputs with the paper's priority
//! order (AEB highest, safety checking lowest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aebs;
pub mod arbiter;
pub mod check;
pub mod driver;
pub mod event;
pub mod ldw;

pub use aebs::{Aebs, AebsConfig, AebsMode, AebsOutput, AebsStage};
pub use arbiter::{arbitrate, ArbiterInputs, Arbitration, CommandSource};
pub use check::{CheckedCommand, SafetyCheck, SafetyCheckConfig};
pub use driver::{BrakeTrigger, DriverAction, DriverConfig, DriverInputs, DriverModel};
pub use event::InterventionKind;
pub use ldw::{Ldw, LdwConfig};
