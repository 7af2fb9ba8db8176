//! Closed-loop simulation platform and experiment campaign harness — the
//! paper's primary contribution (Fig. 3): OpenPilot-like control software,
//! a physical-world simulator, a driver reaction simulator, key ADAS safety
//! mechanisms, and a fault-injection engine, wired into one deterministic
//! 100 Hz loop with campaign-level sweeps and aggregation.
//!
//! # Quickstart
//!
//! ```
//! use adas_core::{Platform, PlatformConfig, InterventionConfig};
//! use adas_attack::{FaultInjector, FaultSpec, FaultType};
//! use adas_scenarios::{InitialPosition, ScenarioId, ScenarioSetup};
//! use adas_simulator::DeterministicRng;
//!
//! // Build scenario S1 with a relative-distance attack and AEB on an
//! // independent sensor.
//! let mut rng = DeterministicRng::for_run(7, 0, 0, 0);
//! let setup = ScenarioSetup::build(ScenarioId::S1, InitialPosition::Near, &mut rng);
//! let injector = FaultInjector::new(FaultSpec::new(
//!     FaultType::RelativeDistance,
//!     setup.patch_start_s,
//! ));
//! let config = PlatformConfig::with_interventions(
//!     InterventionConfig::aeb_independent_only(),
//! );
//! let mut platform = Platform::new(&setup, config, injector, None, &mut rng);
//! let record = platform.run();
//! assert!(record.prevented());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod config;
pub mod experiment;
pub mod job;
pub mod platform;
pub mod replay;
pub mod tables;

/// Deterministic work-stealing executor (re-export of [`adas_parallel`]):
/// shared atomic work-queue over scoped threads, honouring `ADAS_THREADS`.
pub use adas_parallel as parallel;

/// Hardened `ADAS_*` environment parsing (re-export of
/// [`adas_parallel::env`]): trims values, rejects empty/garbage input with
/// a warning instead of a silent fallback. Shared by every crate that
/// reads configuration from the environment.
pub use adas_parallel::env;

/// Mitigation-strategy selector and model architecture, re-exported so
/// downstream crates can name them without a direct `adas-ml` edge.
pub use adas_ml::{MitigationKind, ModelSpec};
/// Why a run ended — the one run-end type, shared with the trace footer.
pub use adas_recorder::EndReason;
pub use batch::{run_lockstep_ctl, BatchStats};
pub use cache::{fingerprint_dataset, model_fingerprint, ArtifactCache, CacheStats, Fingerprint};
pub use config::{
    attack_from_env, mitigation_from_env, InterventionConfig, PlatformConfig, MAX_VIEWS,
};
pub use experiment::{
    campaign_cell_fingerprint, campaign_run_ids, campaign_run_ids_masked, collect_training_data,
    resolve_cell, run_campaign, run_ids_ctl, run_single, CampaignCell, CellStats, Measure, RunId,
    SCENARIO_MASK_ALL,
};
pub use job::{CampaignSpec, CellSpec};
pub use platform::Platform;
pub use replay::{
    config_fingerprint, replay_trace, run_single_traced, run_traced, trace_header, Perturbation,
    ReplayError, ReplayReport, TraceSink,
};
pub use tables::{fmt_opt_time, TextTable};
