//! `perfbench` — the end-to-end and per-layer benchmark of the openadas
//! workspace.
//!
//! One binary runs one named workload from a seed and prints every
//! end-to-end metric with its unit (`--trace 0`), or runs the same
//! workload a second time with spans around the benchmark's calls into
//! each layer and prints the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md` for the workloads, the metric map and how to run
//! it.

pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
