//! Trace writer: accumulates step records, derives discrete events from
//! flag edges, and supports a bounded ring-buffer mode for long campaigns.

use crate::trace::{EventKind, Trace, TraceEvent, TraceHeader, TraceOutcome};
use adas_safety::InterventionKind;
use adas_simulator::TraceSample;
use std::collections::VecDeque;

/// How many step records a writer retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Keep every step (exact replay verification needs this).
    Full,
    /// Keep only the most recent `n` steps; events and the outcome footer
    /// are always kept in full, so a bounded trace still yields a complete
    /// timeline even when the step tail rolled over.
    Ring(usize),
}

/// Accumulates one run's flight-recorder data.
///
/// Events are derived online from the flag edges of consecutive samples
/// (fault/FCW/AEB/driver/ML channels switching on or off), so callers only
/// push plain [`TraceSample`]s. Event `value`s carry the most useful
/// context at the moment of the edge: ground-truth TTC for longitudinal
/// channels, lane-line distance for lateral ones.
#[derive(Debug)]
pub struct TraceWriter {
    mode: RecordMode,
    samples: VecDeque<TraceSample>,
    events: Vec<TraceEvent>,
    prev_flags: Flags,
    steps_seen: u64,
    dropped: u64,
}

/// The boolean channels of a sample, extracted for edge detection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flags {
    fault: bool,
    fcw: bool,
    aeb: bool,
    driver_brake: bool,
    driver_steer: bool,
    ml: bool,
}

impl Flags {
    #[inline]
    fn of(s: &TraceSample) -> Self {
        Self {
            fault: s.fault_active,
            fcw: s.fcw_alert,
            aeb: s.aeb_active,
            driver_brake: s.driver_braking,
            driver_steer: s.driver_steering,
            ml: s.ml_active,
        }
    }
}

impl TraceWriter {
    /// A writer in the given mode.
    ///
    /// # Panics
    ///
    /// Panics if a ring capacity of zero is requested.
    #[must_use]
    pub fn new(mode: RecordMode) -> Self {
        if let RecordMode::Ring(n) = mode {
            assert!(n > 0, "ring capacity must be positive");
        }
        let cap = match mode {
            RecordMode::Full => 1024,
            RecordMode::Ring(n) => n,
        };
        Self {
            mode,
            samples: VecDeque::with_capacity(cap),
            events: Vec::new(),
            prev_flags: Flags::default(),
            steps_seen: 0,
            dropped: 0,
        }
    }

    /// A [`RecordMode::Full`] writer that adopts an existing sample
    /// buffer's allocation (cleared first) — the campaign capture path
    /// cycles one buffer through thousands of runs instead of re-faulting
    /// fresh pages for every run.
    #[must_use]
    pub fn from_buffer(mut buf: Vec<TraceSample>) -> Self {
        buf.clear();
        Self {
            mode: RecordMode::Full,
            // O(1): a VecDeque adopts a Vec's allocation directly.
            samples: VecDeque::from(buf),
            events: Vec::new(),
            prev_flags: Flags::default(),
            steps_seen: 0,
            dropped: 0,
        }
    }

    /// Pre-sizes the sample store for an expected run length (no-op in
    /// ring mode, which is already bounded).
    pub fn reserve(&mut self, steps: usize) {
        if self.mode == RecordMode::Full {
            self.samples
                .reserve(steps.saturating_sub(self.samples.len()));
        }
    }

    /// Records one step and derives any events its flag edges imply.
    ///
    /// Inlined across crates: this sits on the per-step hot path of traced
    /// campaigns (the platform calls it 10⁴ times per run).
    #[inline]
    pub fn record(&mut self, sample: TraceSample) {
        self.derive_events(&sample);
        if let RecordMode::Ring(cap) = self.mode {
            if self.samples.len() == cap {
                self.samples.pop_front();
                self.dropped += 1;
            }
        }
        self.samples.push_back(sample);
        self.steps_seen += 1;
    }

    /// Emits on/off events for every flag edge between the previous sample
    /// and this one.
    #[inline]
    fn derive_events(&mut self, sample: &TraceSample) {
        let flags = Flags::of(sample);
        let prev = self.prev_flags;
        // Fast path: in the overwhelming majority of steps no channel
        // switches, and the whole edge scan reduces to one comparison.
        if flags == prev {
            return;
        }
        self.derive_edges(sample, flags, prev);
    }

    /// The slow path of [`derive_events`](Self::derive_events): at least
    /// one channel changed state since the previous sample.
    #[cold]
    fn derive_edges(&mut self, sample: &TraceSample, flags: Flags, prev: Flags) {
        let mut edge =
            |on: bool, was: bool, kind_on: EventKind, kind_off: EventKind, value: f64| {
                if on && !was {
                    self.events.push(TraceEvent {
                        time: sample.time,
                        kind: kind_on,
                        value,
                    });
                } else if !on && was {
                    self.events.push(TraceEvent {
                        time: sample.time,
                        kind: kind_off,
                        value,
                    });
                }
            };
        edge(
            flags.fault,
            prev.fault,
            EventKind::FaultOn,
            EventKind::FaultOff,
            sample.perceived_rd,
        );
        edge(
            flags.fcw,
            prev.fcw,
            EventKind::InterventionOn(InterventionKind::Fcw),
            EventKind::InterventionOff(InterventionKind::Fcw),
            sample.ttc,
        );
        edge(
            flags.aeb,
            prev.aeb,
            EventKind::InterventionOn(InterventionKind::Aeb),
            EventKind::InterventionOff(InterventionKind::Aeb),
            sample.ttc,
        );
        edge(
            flags.driver_brake,
            prev.driver_brake,
            EventKind::InterventionOn(InterventionKind::DriverBrake),
            EventKind::InterventionOff(InterventionKind::DriverBrake),
            sample.ttc,
        );
        edge(
            flags.driver_steer,
            prev.driver_steer,
            EventKind::InterventionOn(InterventionKind::DriverSteer),
            EventKind::InterventionOff(InterventionKind::DriverSteer),
            sample.lane_line_distance,
        );
        edge(
            flags.ml,
            prev.ml,
            EventKind::InterventionOn(InterventionKind::Ml),
            EventKind::InterventionOff(InterventionKind::Ml),
            sample.ttc,
        );
        self.prev_flags = flags;
    }

    /// Steps recorded so far (including any dropped by the ring).
    #[must_use]
    pub fn steps_seen(&self) -> u64 {
        self.steps_seen
    }

    /// Steps dropped by the ring buffer so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events derived so far.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Finalises into a [`Trace`]. `header.first_step` is overwritten with
    /// the index of the first retained sample.
    #[must_use]
    pub fn finish(self, mut header: TraceHeader, outcome: TraceOutcome) -> Trace {
        header.first_step = self.dropped;
        Trace {
            header,
            // O(1) for a deque that never wrapped (the adopted-Vec and
            // fresh-Full cases); ring tails pay one compaction copy.
            samples: Vec::from(self.samples),
            events: self.events,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::InterventionSummary;
    use adas_safety::AebsMode;
    use adas_scenarios::{InitialPosition, ScenarioId};

    fn header() -> TraceHeader {
        TraceHeader {
            scenario: ScenarioId::S1,
            position: InitialPosition::Near,
            repetition: 0,
            fault: None,
            campaign_seed: 1,
            config_fingerprint: 0,
            model_fingerprint: 0,
            interventions: InterventionSummary {
                driver: false,
                driver_reaction_time: 2.5,
                safety_check: false,
                aebs: AebsMode::Disabled,
                ml: false,
                mitigation: 0,
                views: 0,
            },
            friction: adas_simulator::FrictionCondition::Default,
            max_steps: 100,
            quiescence_steps: 0,
            first_step: 0,
            attack: adas_attack::AttackScheduler::Immediate,
        }
    }

    fn outcome(steps: u64) -> TraceOutcome {
        TraceOutcome {
            end: crate::trace::EndReason::TimeLimit,
            accident: None,
            accident_time: None,
            fault_start: None,
            min_ttc: f64::INFINITY,
            min_lane_line_distance: 1.0,
            steps,
        }
    }

    fn step(t: f64, aeb: bool, fault: bool) -> TraceSample {
        TraceSample {
            time: t,
            ttc: 3.0,
            aeb_active: aeb,
            fault_active: fault,
            ..TraceSample::default()
        }
    }

    #[test]
    fn derives_on_and_off_edges() {
        let mut w = TraceWriter::new(RecordMode::Full);
        w.record(step(0.0, false, false));
        w.record(step(0.01, false, true)); // fault on
        w.record(step(0.02, true, true)); // aeb on
        w.record(step(0.03, true, false)); // fault off
        w.record(step(0.04, false, false)); // aeb off
        let t = w.finish(header(), outcome(5));
        let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::FaultOn,
                EventKind::InterventionOn(InterventionKind::Aeb),
                EventKind::FaultOff,
                EventKind::InterventionOff(InterventionKind::Aeb),
            ]
        );
        assert_eq!(t.events[1].time, 0.02);
        assert_eq!(t.events[1].value, 3.0);
        assert_eq!(t.samples.len(), 5);
        assert_eq!(t.header.first_step, 0);
    }

    #[test]
    fn first_sample_active_flags_emit_events() {
        let mut w = TraceWriter::new(RecordMode::Full);
        w.record(step(0.0, true, true));
        assert_eq!(w.events().len(), 2);
    }

    #[test]
    fn ring_keeps_tail_and_counts_drops() {
        let mut w = TraceWriter::new(RecordMode::Ring(10));
        for i in 0..25 {
            w.record(step(f64::from(i) * 0.01, false, i == 2));
        }
        assert_eq!(w.dropped(), 15);
        let t = w.finish(header(), outcome(25));
        assert_eq!(t.samples.len(), 10);
        assert_eq!(t.header.first_step, 15);
        assert!((t.samples[0].time - 0.15).abs() < 1e-12);
        // The fault-on/off events from the dropped prefix survive.
        assert_eq!(t.events.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_ring_capacity_panics() {
        let _ = TraceWriter::new(RecordMode::Ring(0));
    }
}
