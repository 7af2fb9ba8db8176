//! Golden-trace regression: the committed flight-recorder traces under
//! `results/traces/golden/` must replay bit-identically on every commit.
//!
//! This guards two invariants at once:
//!
//! - **Determinism** — the simulation stack reproduces the exact step
//!   stream recorded when the goldens were captured, across build profiles
//!   and thread counts.
//! - **Config stability** — replay reconstructs the platform configuration
//!   from the trace header and refuses (with a loud
//!   [`ReplayError::ConfigMismatch`]) if defaults drifted since recording.
//!   An intentional physics/config change therefore shows up here and the
//!   goldens must be regenerated with `adas-replay record --golden`.

use adas_core::{replay_trace, ReplayError};
use adas_recorder::Trace;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/traces/golden")
}

fn golden_traces() -> Vec<(PathBuf, Trace)> {
    let dir = golden_dir();
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("golden trace dir {} missing: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "bin") {
            let trace = Trace::load(&path)
                .unwrap_or_else(|e| panic!("{} failed to load: {e}", path.display()));
            out.push((path, trace));
        }
    }
    out.sort_by(|(a, _), (b, _)| a.cmp(b));
    out
}

#[test]
fn golden_set_is_complete() {
    let traces = golden_traces();
    assert!(
        traces.len() >= 3,
        "expected at least 3 golden traces, found {}",
        traces.len()
    );
    // The set must cover a benign run, an unmitigated accident, and a
    // prevented run — regenerations that drop a case should fail loudly.
    assert!(traces.iter().any(|(_, t)| t.header.fault.is_none()));
    assert!(traces.iter().any(|(_, t)| t.outcome.accident.is_some()));
    assert!(traces
        .iter()
        .any(|(_, t)| t.header.fault.is_some() && t.outcome.accident.is_none()));
}

#[test]
fn golden_traces_replay_identically() {
    for (path, trace) in golden_traces() {
        assert_eq!(
            trace.header.model_fingerprint,
            0,
            "{}: golden traces must not need a trained model",
            path.display()
        );
        let result = replay_trace(&trace, None, None).unwrap_or_else(|e| {
            let hint = match &e {
                ReplayError::ConfigMismatch { .. } => {
                    " (config defaults drifted — regenerate with `adas-replay record --golden` \
                     if the change is intentional)"
                }
                _ => "",
            };
            panic!("{}: replay refused: {e}{hint}", path.display())
        });
        assert!(
            result.report.is_identical(),
            "{}: golden trace diverged{}\nheader mismatches: {:?}\nverdict: {}\noutcome: {:?}",
            path.display(),
            " — the simulation is no longer deterministic w.r.t. the recorded run",
            result.report.header_mismatches,
            result.report.verdict,
            result.report.outcome_mismatch,
        );
    }
}
