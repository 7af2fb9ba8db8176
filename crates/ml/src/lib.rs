//! ML-based hazard-mitigation baseline: a from-scratch LSTM plus a
//! CUSUM-style anomaly gate (paper Section IV-D, Algorithm 1).
//!
//! The paper's baseline is a two-layer LSTM that, from 20 control cycles of
//! vehicle state and control history, predicts the *expected* gas and
//! steering outputs. At runtime a CUSUM statistic accumulates the
//! discrepancy between the LSTM's predictions and OpenPilot's outputs;
//! when it crosses a threshold the system enters recovery mode and executes
//! the LSTM's outputs (computed from fault-free, redundant-sensor inputs)
//! until the discrepancy subsides.
//!
//! Everything here — dense linear algebra, the LSTM forward pass and
//! backpropagation-through-time, the Adam optimiser — is implemented from
//! scratch on `std`, because the paper's PyTorch stack has no Rust
//! equivalent in this build environment. Hidden sizes are configurable; the
//! paper explored 256-128 … 64-32 and settled on 128-64.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod cusum;
pub mod ensemble;
pub mod features;
pub mod linear;
pub mod lstm;
pub mod maskcheck;
pub mod mitigation;
pub mod model;
pub mod train;

pub use cusum::Cusum;
pub use ensemble::{EnsembleConfig, EnsembleMitigator, PerceptionViews};
pub use features::{ControlTarget, StateFeatures, FEATURE_DIM, TARGET_DIM, WINDOW};
pub use maskcheck::{MaskCheckConfig, MaskCheckMitigator};
pub use mitigation::{MitigationConfig, MitigationKind, Mitigator, MlMitigator};
pub use model::{BatchInferScratch, BatchPredictorState, LstmPredictor, ModelSpec};
pub use train::{train, Dataset, Sample, TrainConfig, TrainReport};
