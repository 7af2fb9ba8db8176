//! Human-readable timeline rendering of a trace: fault onset → perception
//! error → intervention firings → outcome.

use crate::trace::{EndReason, Trace};
use adas_scenarios::AccidentKind;

fn fmt_val(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else if v.is_nan() {
        "—".to_owned()
    } else {
        "∞".to_owned()
    }
}

/// Renders a multi-line forensic summary of `trace`.
#[must_use]
pub fn explain(trace: &Trace) -> String {
    let mut out = String::new();
    let h = &trace.header;
    out.push_str(&format!("run       {}\n", trace.identity()));
    out.push_str(&format!(
        "config    fingerprint {:016x} · friction {} · interventions: driver={} (rt {:.1} s), check={}, aebs={:?}, ml={}\n",
        h.config_fingerprint,
        h.friction,
        h.interventions.driver,
        h.interventions.driver_reaction_time,
        h.interventions.safety_check,
        h.interventions.aebs,
        h.interventions.ml,
    ));
    if h.model_fingerprint != 0 {
        out.push_str(&format!(
            "model     fingerprint {:016x}\n",
            h.model_fingerprint
        ));
    }
    out.push_str(&format!(
        "recorded  {} steps retained (from step {}), {} events\n",
        trace.samples.len(),
        h.first_step,
        trace.events.len()
    ));
    out.push_str("\ntimeline\n");
    if trace.events.is_empty() {
        out.push_str("  (no discrete events — benign, intervention-free run)\n");
    }
    for e in &trace.events {
        out.push_str(&format!(
            "  t = {:7.2} s  {:<28} (context {})\n",
            e.time,
            e.kind.label(),
            fmt_val(e.value)
        ));
    }

    // Perception-error context: the worst recorded disagreement between
    // ground truth and perceived relative distance, ignoring steps where
    // either side legitimately reports "no lead".
    let worst = trace
        .samples
        .iter()
        .filter(|s| s.true_rd.is_finite() && s.perceived_rd.is_finite())
        .map(|s| (s.time, (s.perceived_rd - s.true_rd).abs()))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((t, err)) = worst {
        if err > 0.5 {
            out.push_str(&format!(
                "\nperception  worst RD error {err:.1} m at t = {t:.2} s\n"
            ));
        }
    }

    let o = &trace.outcome;
    out.push_str("\noutcome\n");
    out.push_str(&format!(
        "  end: {} after {} steps\n",
        o.end.label(),
        o.steps
    ));
    if let (Some(kind), Some(t)) = (o.accident, o.accident_time) {
        let label = match kind {
            AccidentKind::ForwardCollision => "A1 forward collision",
            AccidentKind::LaneViolation => "A2 lane violation",
        };
        out.push_str(&format!("  accident: {label} at t = {t:.2} s\n"));
    }
    if let Some(f) = o.fault_start {
        out.push_str(&format!("  fault first active: t = {f:.2} s\n"));
        if let Some(t) = o.accident_time {
            out.push_str(&format!("  fault → accident: {:.2} s\n", t - f));
        }
    }
    out.push_str(&format!(
        "  min TTC {} s · min lane-line distance {} m\n",
        fmt_val(o.min_ttc),
        fmt_val(o.min_lane_line_distance)
    ));
    if o.end != EndReason::Accident && o.accident.is_none() {
        out.push_str("  accident prevented\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, InterventionSummary, TraceEvent, TraceHeader, TraceOutcome};
    use adas_attack::FaultType;
    use adas_safety::{AebsMode, InterventionKind};
    use adas_scenarios::{InitialPosition, ScenarioId};
    use adas_simulator::TraceSample;

    #[test]
    fn explain_mentions_fault_interventions_and_outcome() {
        let trace = Trace {
            header: TraceHeader {
                scenario: ScenarioId::S1,
                position: InitialPosition::Near,
                repetition: 0,
                fault: Some(FaultType::RelativeDistance),
                campaign_seed: 2025,
                config_fingerprint: 1,
                model_fingerprint: 0,
                interventions: InterventionSummary {
                    driver: true,
                    driver_reaction_time: 2.5,
                    safety_check: true,
                    aebs: AebsMode::Independent,
                    ml: false,
                    mitigation: 0,
                    views: 0,
                },
                friction: adas_simulator::FrictionCondition::Default,
                max_steps: 10_000,
                quiescence_steps: 300,
                first_step: 0,
                attack: adas_attack::AttackScheduler::Immediate,
            },
            samples: vec![TraceSample {
                time: 10.0,
                true_rd: 40.0,
                perceived_rd: 78.0,
                ..TraceSample::default()
            }],
            events: vec![
                TraceEvent {
                    time: 10.0,
                    kind: EventKind::FaultOn,
                    value: 78.0,
                },
                TraceEvent {
                    time: 12.5,
                    kind: EventKind::InterventionOn(InterventionKind::Aeb),
                    value: 1.9,
                },
            ],
            outcome: TraceOutcome {
                end: EndReason::Quiescent,
                accident: None,
                accident_time: None,
                fault_start: Some(10.0),
                min_ttc: 1.4,
                min_lane_line_distance: 0.8,
                steps: 2500,
            },
        };
        let text = explain(&trace);
        assert!(text.contains("fault injection ON"), "{text}");
        assert!(text.contains("AEB braking ON"), "{text}");
        assert!(text.contains("worst RD error 38.0 m"), "{text}");
        assert!(text.contains("accident prevented"), "{text}");
        assert!(text.contains("quiescent"), "{text}");
    }
}
