//! Step-by-step trace comparison with field-level divergence localisation.
//!
//! PR 1 made campaigns bit-identical across thread counts and cache paths,
//! so replay equality is *exact*: two floats either have the same bit
//! pattern or the traces have semantically diverged. Comparison therefore
//! uses `f64::to_bits` (which also makes NaN equal to itself — a recorded
//! "no lead" must match a replayed "no lead").

use crate::trace::Trace;
use adas_simulator::TraceSample;

/// Accessor for one scalar field of a step record.
pub type ScalarAccessor = fn(&TraceSample) -> f64;

/// Accessor for one boolean flag of a step record.
pub type FlagAccessor = fn(&TraceSample) -> bool;

/// The comparable scalar fields of a step record, in wire order. Each entry
/// is `(field name, accessor)`.
pub const SAMPLE_FIELDS: [(&str, ScalarAccessor); 13] = [
    ("time", |s| s.time),
    ("ego_s", |s| s.ego_s),
    ("ego_d", |s| s.ego_d),
    ("ego_v", |s| s.ego_v),
    ("ego_accel", |s| s.ego_accel),
    ("gas", |s| s.gas),
    ("brake", |s| s.brake),
    ("steer", |s| s.steer),
    ("true_rd", |s| s.true_rd),
    ("perceived_rd", |s| s.perceived_rd),
    ("lead_v", |s| s.lead_v),
    ("lane_line_distance", |s| s.lane_line_distance),
    ("ttc", |s| s.ttc),
];

/// The boolean flag fields of a step record.
pub const SAMPLE_FLAGS: [(&str, FlagAccessor); 6] = [
    ("fcw_alert", |s| s.fcw_alert),
    ("aeb_active", |s| s.aeb_active),
    ("driver_braking", |s| s.driver_braking),
    ("driver_steering", |s| s.driver_steering),
    ("ml_active", |s| s.ml_active),
    ("fault_active", |s| s.fault_active),
];

/// The first point at which two step streams disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Absolute step index (run-relative, accounting for ring offsets).
    pub step: u64,
    /// Simulation time at the divergent step, seconds.
    pub time: f64,
    /// Name of the first differing field (in wire order), or a structural
    /// pseudo-field like `sample_count`.
    pub field: &'static str,
    /// The recorded value, rendered.
    pub recorded: String,
    /// The replayed/other value, rendered.
    pub replayed: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence at step {} (t = {:.2} s): field `{}` — recorded {} vs replayed {}",
            self.step, self.time, self.field, self.recorded, self.replayed
        )
    }
}

/// Verdict of a replay verification or a two-trace comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every retained step matched bit-for-bit (and the outcomes agree).
    Identical,
    /// The streams disagree, first at the contained point.
    Diverged(Divergence),
}

impl Verdict {
    /// True for [`Verdict::Identical`].
    #[must_use]
    pub fn is_identical(&self) -> bool {
        matches!(self, Verdict::Identical)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Identical => f.write_str("Identical"),
            Verdict::Diverged(d) => write!(f, "{d}"),
        }
    }
}

fn render(v: f64) -> String {
    if v.is_finite() {
        // Full round-trip precision: a divergence report must show the
        // exact values, not a rounded rendering that may look equal.
        format!("{v:?}")
    } else if v.is_nan() {
        "NaN (absent)".to_owned()
    } else {
        format!("{v}")
    }
}

/// Compares one pair of step records; returns the first differing field.
#[must_use]
pub fn compare_samples(
    step: u64,
    recorded: &TraceSample,
    replayed: &TraceSample,
) -> Option<Divergence> {
    for (name, get) in SAMPLE_FIELDS {
        let a = get(recorded);
        let b = get(replayed);
        if a.to_bits() != b.to_bits() {
            return Some(Divergence {
                step,
                time: recorded.time,
                field: name,
                recorded: render(a),
                replayed: render(b),
            });
        }
    }
    for (name, get) in SAMPLE_FLAGS {
        let a = get(recorded);
        let b = get(replayed);
        if a != b {
            return Some(Divergence {
                step,
                time: recorded.time,
                field: name,
                recorded: a.to_string(),
                replayed: b.to_string(),
            });
        }
    }
    None
}

/// Compares two step streams. `offset` is the absolute step index of the
/// first element (non-zero when a ring-buffered recording only retained a
/// tail).
#[must_use]
pub fn compare_streams(recorded: &[TraceSample], replayed: &[TraceSample], offset: u64) -> Verdict {
    let n = recorded.len().min(replayed.len());
    for (i, (a, b)) in recorded.iter().zip(replayed.iter()).enumerate() {
        if let Some(d) = compare_samples(offset + i as u64, a, b) {
            return Verdict::Diverged(d);
        }
    }
    if recorded.len() != replayed.len() {
        let time = if recorded.len() > n {
            recorded[n].time
        } else {
            replayed[n].time
        };
        return Verdict::Diverged(Divergence {
            step: offset + n as u64,
            time,
            field: "sample_count",
            recorded: recorded.len().to_string(),
            replayed: replayed.len().to_string(),
        });
    }
    Verdict::Identical
}

/// Report of a full two-trace comparison: identity mismatches plus the
/// first step-level divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Human-readable header/identity mismatches (different run, different
    /// config fingerprint, …). A non-empty list means the step comparison
    /// below compares different experiments.
    pub header_mismatches: Vec<String>,
    /// Step-stream verdict.
    pub verdict: Verdict,
    /// Outcome disagreement, if any (rendered `recorded vs other`).
    pub outcome_mismatch: Option<String>,
}

impl DiffReport {
    /// True when identities, steps, and outcomes all matched.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.header_mismatches.is_empty()
            && self.verdict.is_identical()
            && self.outcome_mismatch.is_none()
    }
}

/// Compares two traces completely: identity, step stream, and outcome.
///
/// Ring offsets are honoured: when the two traces retained different
/// windows of the same run, only the overlapping step range is compared.
#[must_use]
pub fn diff_traces(a: &Trace, b: &Trace) -> DiffReport {
    let mut header_mismatches = Vec::new();
    let ha = &a.header;
    let hb = &b.header;
    if (ha.scenario, ha.position, ha.repetition) != (hb.scenario, hb.position, hb.repetition) {
        header_mismatches.push(format!(
            "run identity: {} vs {}",
            a.identity(),
            b.identity()
        ));
    }
    if ha.fault != hb.fault {
        header_mismatches.push(format!("fault: {:?} vs {:?}", ha.fault, hb.fault));
    }
    if ha.campaign_seed != hb.campaign_seed {
        header_mismatches.push(format!(
            "campaign seed: {} vs {}",
            ha.campaign_seed, hb.campaign_seed
        ));
    }
    if ha.config_fingerprint != hb.config_fingerprint {
        header_mismatches.push(format!(
            "config fingerprint: {:016x} vs {:016x}",
            ha.config_fingerprint, hb.config_fingerprint
        ));
    }
    if ha.model_fingerprint != hb.model_fingerprint {
        header_mismatches.push(format!(
            "model fingerprint: {:016x} vs {:016x}",
            ha.model_fingerprint, hb.model_fingerprint
        ));
    }

    // Align the retained windows on absolute step index.
    let start = ha.first_step.max(hb.first_step);
    let skip_a = usize::try_from(start - ha.first_step).unwrap_or(usize::MAX);
    let skip_b = usize::try_from(start - hb.first_step).unwrap_or(usize::MAX);
    let verdict = if skip_a <= a.samples.len() && skip_b <= b.samples.len() {
        compare_streams(&a.samples[skip_a..], &b.samples[skip_b..], start)
    } else {
        Verdict::Diverged(Divergence {
            step: start,
            time: 0.0,
            field: "retained_window",
            recorded: format!("steps {}..", ha.first_step),
            replayed: format!("steps {}..", hb.first_step),
        })
    };

    let oa = &a.outcome;
    let ob = &b.outcome;
    let outcome_mismatch = if (oa.end, oa.accident, oa.steps) != (ob.end, ob.accident, ob.steps)
        || oa.accident_time.map(f64::to_bits) != ob.accident_time.map(f64::to_bits)
        || oa.min_ttc.to_bits() != ob.min_ttc.to_bits()
    {
        Some(format!("{oa:?} vs {ob:?}"))
    } else {
        None
    };

    DiffReport {
        header_mismatches,
        verdict,
        outcome_mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: f64) -> TraceSample {
        TraceSample {
            time: t,
            ego_v: 20.0,
            lead_v: f64::NAN,
            ..TraceSample::default()
        }
    }

    #[test]
    fn identical_streams_are_identical() {
        let a = vec![s(0.0), s(0.01)];
        assert!(compare_streams(&a, &a.clone(), 0).is_identical());
    }

    #[test]
    fn nan_equals_nan() {
        let a = vec![s(0.0)];
        let b = vec![s(0.0)];
        assert!(compare_streams(&a, &b, 0).is_identical());
    }

    #[test]
    fn first_divergent_field_in_wire_order() {
        let a = vec![s(0.0), s(0.01), s(0.02)];
        let mut b = a.clone();
        b[1].ego_v += 1e-13; // tiny, but bit-different
        b[1].brake = 0.5; // later field also differs
        let Verdict::Diverged(d) = compare_streams(&a, &b, 100) else {
            panic!("expected divergence");
        };
        assert_eq!(d.step, 101);
        assert_eq!(d.field, "ego_v"); // ego_v precedes brake in wire order
        assert!((d.time - 0.01).abs() < 1e-12);
    }

    #[test]
    fn flag_divergence_detected() {
        let a = vec![s(0.0)];
        let mut b = a.clone();
        b[0].aeb_active = true;
        let Verdict::Diverged(d) = compare_streams(&a, &b, 0) else {
            panic!("expected divergence");
        };
        assert_eq!(d.field, "aeb_active");
        assert_eq!(d.recorded, "false");
    }

    #[test]
    fn length_mismatch_diverges_at_shorter_end() {
        let a = vec![s(0.0), s(0.01), s(0.02)];
        let b = vec![s(0.0), s(0.01)];
        let Verdict::Diverged(d) = compare_streams(&a, &b, 0) else {
            panic!("expected divergence");
        };
        assert_eq!(d.field, "sample_count");
        assert_eq!(d.step, 2);
    }
}
