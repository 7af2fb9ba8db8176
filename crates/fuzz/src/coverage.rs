//! Behavioural coverage signatures.
//!
//! AFL-style edge coverage does not exist in a physics simulation, so the
//! corpus is keyed by *behaviour*: which hazards and accident class the run
//! produced, which interventions fired, how the run ended, and coarse
//! buckets of the severity-relevant continuous observables (minimum TTC,
//! minimum lane-line distance). A mutant joins the corpus only when its
//! signature is new — i.e. it made the stack do something no retained case
//! had made it do — which is what drives the search toward the interesting
//! regions between grid cells.

use crate::case::FuzzCase;
use adas_recorder::EndReason;
use adas_scenarios::{AccidentKind, RunRecord};

/// Packed behavioural signature of one run (includes the grid cell, so
/// behaviourally-identical outcomes in different cells both survive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature(pub u64);

/// Bucket index for a minimum TTC, seconds. Monotone: tighter TTC → lower
/// bucket. Infinity (no closing lead) lands in the top bucket.
#[must_use]
pub fn ttc_bucket(min_ttc: f64) -> u64 {
    if min_ttc < 0.5 {
        0
    } else if min_ttc < 1.0 {
        1
    } else if min_ttc < 2.0 {
        2
    } else if min_ttc < 4.0 {
        3
    } else if min_ttc < 8.0 {
        4
    } else {
        5
    }
}

/// Bucket index for a minimum edge-to-lane-line distance, metres. NaN
/// (never measured) lands in the top bucket.
#[must_use]
pub fn lane_bucket(min_lane: f64) -> u64 {
    if min_lane.is_nan() {
        5
    } else if min_lane < 0.0 {
        0
    } else if min_lane < 0.1 {
        1
    } else if min_lane < 0.3 {
        2
    } else if min_lane < 0.8 {
        3
    } else {
        4
    }
}

/// Bucket index for the context-trigger TTC threshold, seconds. 0 is the
/// paper's immediate (always-armed) attack; positive thresholds grade into
/// four bands so a patch armed deep inside the hazard horizon and one armed
/// at cruise distance stop colliding into a single corpus bucket (the PR 9
/// scheduler gene previously only contributed its on/off bit via the cell
/// key).
#[must_use]
pub fn sched_bucket(sched_ttc: f64) -> u64 {
    if sched_ttc.is_nan() || sched_ttc <= 0.0 {
        0
    } else if sched_ttc < 1.5 {
        1
    } else if sched_ttc < 3.0 {
        2
    } else if sched_ttc < 5.0 {
        3
    } else {
        4
    }
}

fn accident_code(a: Option<AccidentKind>) -> u64 {
    match a {
        None => 0,
        Some(AccidentKind::LaneViolation) => 1,
        Some(AccidentKind::ForwardCollision) => 2,
    }
}

impl Signature {
    /// Computes the signature of one finished run.
    #[must_use]
    pub fn of(case: &FuzzCase, record: &RunRecord, end: EndReason) -> Self {
        // The scheduler bucket sits above the cell key (which tops out at
        // bit 26 after the shift), so every immediate-attack signature —
        // including the ones pinned inside committed repro files — is
        // bit-identical to the pre-bucket encoding.
        let mut bits = sched_bucket(case.sched_ttc) << 27;
        bits |= case.cell_key() << 16;
        bits |= u64::from(record.h1_time.is_some()) << 15;
        bits |= u64::from(record.h2_time.is_some()) << 14;
        bits |= accident_code(record.accident) << 12;
        bits |= u64::from(end.code()) << 10;
        bits |= u64::from(record.aeb_trigger.is_some()) << 9;
        bits |= u64::from(record.driver_brake_trigger.is_some()) << 8;
        bits |= u64::from(record.driver_steer_trigger.is_some()) << 7;
        bits |= u64::from(record.ml_activated) << 6;
        bits |= ttc_bucket(record.min_ttc) << 3;
        bits |= lane_bucket(record.min_lane_line_distance);
        Signature(bits)
    }

    /// Renders the behavioural half of the signature for CLI output, e.g.
    /// `H1 A1 end=Accident aeb,driver-brake ttc<0.5 lane<0.1`.
    #[must_use]
    pub fn describe(self) -> String {
        let b = self.0;
        let mut parts = Vec::new();
        if b >> 15 & 1 == 1 {
            parts.push("H1".to_owned());
        }
        if b >> 14 & 1 == 1 {
            parts.push("H2".to_owned());
        }
        match b >> 12 & 3 {
            1 => parts.push("A2".to_owned()),
            2 => parts.push("A1".to_owned()),
            _ => {}
        }
        parts.push(format!(
            "end={}",
            match b >> 10 & 3 {
                1 => "Accident",
                2 => "Quiescent",
                _ => "TimeLimit",
            }
        ));
        let mut fired = Vec::new();
        if b >> 9 & 1 == 1 {
            fired.push("aeb");
        }
        if b >> 8 & 1 == 1 {
            fired.push("driver-brake");
        }
        if b >> 7 & 1 == 1 {
            fired.push("driver-steer");
        }
        if b >> 6 & 1 == 1 {
            fired.push("ml");
        }
        if !fired.is_empty() {
            parts.push(fired.join(","));
        }
        const TTC: [&str; 6] = ["<0.5", "<1", "<2", "<4", "<8", "≥8"];
        const LANE: [&str; 6] = ["<0", "<0.1", "<0.3", "<0.8", "≥0.8", "n/a"];
        parts.push(format!("ttc{}", TTC[(b >> 3 & 7).min(5) as usize]));
        parts.push(format!("lane{}", LANE[(b & 7).min(5) as usize]));
        const SCHED: [&str; 5] = ["", "<1.5", "<3", "<5", "≥5"];
        let sched = (b >> 27 & 7).min(4) as usize;
        if sched > 0 {
            parts.push(format!("sched{}", SCHED[sched]));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_attack::FaultType;
    use adas_scenarios::{InitialPosition, ScenarioId};

    fn case() -> FuzzCase {
        FuzzCase::baseline(
            ScenarioId::S4,
            InitialPosition::Near,
            2,
            Some(FaultType::RelativeDistance),
        )
    }

    #[test]
    fn buckets_are_monotone() {
        assert!(ttc_bucket(0.2) < ttc_bucket(1.5));
        assert!(ttc_bucket(3.0) < ttc_bucket(f64::INFINITY));
        assert!(lane_bucket(-0.5) < lane_bucket(0.05));
        assert!(lane_bucket(0.2) < lane_bucket(2.0));
        assert_eq!(lane_bucket(f64::NAN), 5);
    }

    #[test]
    fn behaviour_changes_move_the_signature() {
        let c = case();
        let quiet = RunRecord {
            min_lane_line_distance: 1.0,
            ..RunRecord::default()
        };
        let base = Signature::of(&c, &quiet, EndReason::TimeLimit);
        let mut crash = quiet.clone();
        crash.accident = Some(AccidentKind::ForwardCollision);
        crash.h1_time = Some(10.0);
        assert_ne!(base, Signature::of(&c, &crash, EndReason::Accident));
        let mut braked = quiet.clone();
        braked.aeb_trigger = Some(12.0);
        assert_ne!(base, Signature::of(&c, &braked, EndReason::TimeLimit));
    }

    #[test]
    fn same_behaviour_same_signature() {
        let c = case();
        let r = RunRecord::default();
        assert_eq!(
            Signature::of(&c, &r, EndReason::TimeLimit),
            Signature::of(&c, &r, EndReason::TimeLimit)
        );
    }

    #[test]
    fn sched_buckets_separate_trigger_bands() {
        assert_eq!(sched_bucket(0.0), 0);
        assert_eq!(sched_bucket(-1.0), 0);
        assert_eq!(sched_bucket(f64::NAN), 0);
        assert!(sched_bucket(0.5) < sched_bucket(2.0));
        assert!(sched_bucket(2.0) < sched_bucket(4.0));
        assert!(sched_bucket(4.0) < sched_bucket(6.0));
        assert_eq!(sched_bucket(8.0), 4);
    }

    #[test]
    fn scheduled_cases_at_different_ttc_get_distinct_signatures() {
        let r = RunRecord::default();
        let mut tight = case();
        tight.sched_ttc = 1.0;
        let mut loose = case();
        loose.sched_ttc = 6.0;
        let a = Signature::of(&tight, &r, EndReason::TimeLimit);
        let b = Signature::of(&loose, &r, EndReason::TimeLimit);
        // Same cell key (both scheduled), same behaviour — only the
        // trigger band separates them.
        assert_eq!(tight.cell_key(), loose.cell_key());
        assert_ne!(a, b);
        assert!(b.describe().contains("sched≥5"), "{}", b.describe());
    }

    #[test]
    fn immediate_signatures_keep_the_pre_bucket_encoding() {
        // Committed repro files pin exact signature values; an immediate
        // case must hash to the legacy layout (no bits above 26 set).
        let c = case();
        let r = RunRecord::default();
        let sig = Signature::of(&c, &r, EndReason::TimeLimit);
        assert_eq!(sig.0 >> 27, 0);
        let legacy = {
            let mut bits = c.cell_key() << 16;
            bits |= ttc_bucket(r.min_ttc) << 3;
            bits |= lane_bucket(r.min_lane_line_distance);
            Signature(bits)
        };
        assert_eq!(sig, legacy);
    }

    #[test]
    fn describe_mentions_fired_interventions() {
        let c = case();
        let r = RunRecord {
            aeb_trigger: Some(3.0),
            h1_time: Some(2.0),
            ..RunRecord::default()
        };
        let text = Signature::of(&c, &r, EndReason::Quiescent).describe();
        assert!(text.contains("H1"), "{text}");
        assert!(text.contains("aeb"), "{text}");
        assert!(text.contains("end=Quiescent"), "{text}");
    }
}
