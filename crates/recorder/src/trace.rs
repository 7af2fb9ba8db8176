//! The in-memory trace and its file codec.

use crate::format::{
    decode_sample, encode_sample, TraceError, EVENT_WIRE_SIZE, SAMPLE_WIRE_SIZE, TRACE_MAGIC,
};
use adas_attack::{AttackScheduler, FaultType};
use adas_codec::{Fingerprint, Reader, Writer};
use adas_safety::{AebsMode, InterventionKind};
use adas_scenarios::{AccidentKind, InitialPosition, ScenarioId};
use adas_simulator::{FrictionCondition, TraceSample};
use std::path::{Path, PathBuf};

/// Which safety interventions were active for the recorded run — the
/// replay-relevant projection of the platform's intervention configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterventionSummary {
    /// Human-driver reaction simulator enabled.
    pub driver: bool,
    /// Driver reaction time, seconds.
    pub driver_reaction_time: f64,
    /// Firmware safety checking enabled.
    pub safety_check: bool,
    /// AEBS data-source configuration.
    pub aebs: AebsMode,
    /// ML mitigation enabled.
    pub ml: bool,
    /// Mitigation-strategy wire code when [`Self::ml`] is set (0 = CUSUM
    /// baseline, 1 = uncertainty ensemble, 2 = masked-view check). Kept as
    /// a raw code so the recorder stays decoupled from `adas-ml`.
    pub mitigation: u8,
    /// Configured view count M for the view-based strategies (0 = strategy
    /// default). Always 0 for the CUSUM baseline.
    pub views: u8,
}

/// Everything needed to re-execute the recorded run and to verify the
/// reconstruction matches what actually ran.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Driving scenario.
    pub scenario: ScenarioId,
    /// Initial position / road pairing.
    pub position: InitialPosition,
    /// Repetition index within the campaign sweep.
    pub repetition: u32,
    /// Injected fault type (`None` for benign runs).
    pub fault: Option<FaultType>,
    /// Campaign seed the run's RNG streams derive from.
    pub campaign_seed: u64,
    /// Fingerprint of the full `PlatformConfig` the run executed under.
    /// Replay reconstructs the config from the fields below plus defaults
    /// and refuses to run if the fingerprints disagree.
    pub config_fingerprint: u64,
    /// Fingerprint of the trained ML model's weights (0 when the run used
    /// no model). Replay must be given a model with the same fingerprint.
    pub model_fingerprint: u64,
    /// Active interventions.
    pub interventions: InterventionSummary,
    /// Road-surface friction condition.
    pub friction: FrictionCondition,
    /// Configured step limit.
    pub max_steps: u64,
    /// Configured quiescence early-stop threshold (steps; 0 = disabled).
    pub quiescence_steps: u64,
    /// Step index of the first retained sample (> 0 when a bounded ring
    /// buffer dropped the beginning of a long run).
    pub first_step: u64,
    /// Attack-scheduling policy the run executed under (serialised right
    /// after the magic).
    pub attack: AttackScheduler,
}

/// A discrete event derived from the step stream: an intervention or fault
/// channel switching on or off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time, seconds.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
    /// Context value at the moment of the event (TTC for longitudinal
    /// events, lane-line distance for lateral ones, 0 otherwise).
    pub value: f64,
}

/// Event vocabulary: each intervention/fault channel has an on and an off
/// edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Fault injection started perturbing frames.
    FaultOn,
    /// Fault injection stopped.
    FaultOff,
    /// An intervention channel engaged.
    InterventionOn(InterventionKind),
    /// An intervention channel released.
    InterventionOff(InterventionKind),
}

impl EventKind {
    /// Stable wire code. Faults use 0/1; interventions use
    /// `2 + 2·kind + off`.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            EventKind::FaultOn => 0,
            EventKind::FaultOff => 1,
            EventKind::InterventionOn(k) => 2 + 2 * k.code(),
            EventKind::InterventionOff(k) => 3 + 2 * k.code(),
        }
    }

    /// Inverse of [`Self::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(EventKind::FaultOn),
            1 => Some(EventKind::FaultOff),
            _ => {
                let kind = InterventionKind::from_code((code - 2) / 2)?;
                Some(if (code - 2).is_multiple_of(2) {
                    EventKind::InterventionOn(kind)
                } else {
                    EventKind::InterventionOff(kind)
                })
            }
        }
    }

    /// Human-readable label for timelines.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            EventKind::FaultOn => "fault injection ON".to_owned(),
            EventKind::FaultOff => "fault injection off".to_owned(),
            EventKind::InterventionOn(k) => format!("{} ON", k.label()),
            EventKind::InterventionOff(k) => format!("{} off", k.label()),
        }
    }
}

/// How the recorded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// Ran the full configured number of steps.
    TimeLimit,
    /// An accident latched.
    Accident,
    /// The ego came to a lasting stop.
    Quiescent,
}

impl EndReason {
    /// Stable wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            EndReason::TimeLimit => 0,
            EndReason::Accident => 1,
            EndReason::Quiescent => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(EndReason::TimeLimit),
            1 => Some(EndReason::Accident),
            2 => Some(EndReason::Quiescent),
            _ => None,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EndReason::TimeLimit => "time limit",
            EndReason::Accident => "accident",
            EndReason::Quiescent => "quiescent (lasting stop)",
        }
    }
}

/// Outcome footer: how the run ended plus the summary metrics `explain`
/// and the persistence policy care about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOutcome {
    /// Why the run ended.
    pub end: EndReason,
    /// Accident kind, if one ended the run.
    pub accident: Option<AccidentKind>,
    /// Accident time, seconds.
    pub accident_time: Option<f64>,
    /// First fault activation time, seconds.
    pub fault_start: Option<f64>,
    /// Minimum ground-truth TTC over the run, seconds.
    pub min_ttc: f64,
    /// Minimum edge-to-lane-line distance, metres.
    pub min_lane_line_distance: f64,
    /// Steps executed.
    pub steps: u64,
}

/// A complete flight-recorder trace: identity, step records, derived
/// events, and the outcome footer.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run identity and replay parameters.
    pub header: TraceHeader,
    /// Retained step records (all of them, or the tail in ring mode).
    pub samples: Vec<TraceSample>,
    /// Discrete events in time order (always complete, even in ring mode).
    pub events: Vec<TraceEvent>,
    /// Outcome footer.
    pub outcome: TraceOutcome,
}

/// Atomically writes `bytes` to `path` (temp file in the same directory +
/// rename; parent directories created on demand).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), TraceError> {
    let dir = path
        .parent()
        .ok_or_else(|| TraceError::Io(format!("no parent directory for {}", path.display())))?;
    std::fs::create_dir_all(dir).map_err(|e| TraceError::Io(e.to_string()))?;
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        path.file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
        std::process::id()
    ));
    // fsync before the rename: a crash right after the rename must never
    // leave a durable *name* pointing at torn *contents* (a long-lived
    // `adas-serve` process would otherwise re-trip on the bad entry at
    // every warm start until someone deletes it by hand).
    let write_synced = |tmp: &Path| -> std::io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()
    };
    let result = write_synced(&tmp).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(TraceError::Io(format!("{}: {e}", path.display())));
    }
    Ok(())
}

impl Trace {
    /// Serialises the trace (header, samples, events, outcome, checksum).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialise().0
    }

    /// Serialises once and also returns the whole-file FNV checksum (the
    /// content address). [`save_in`] uses this to serialise and checksum a
    /// trace exactly once per persist instead of once for the file name and
    /// again for the file body.
    ///
    /// [`save_in`]: Trace::save_in
    fn serialise(&self) -> (Vec<u8>, u64) {
        let cap = TRACE_MAGIC.len()
            + 128
            + self.samples.len() * SAMPLE_WIRE_SIZE
            + self.events.len() * EVENT_WIRE_SIZE
            + 64;
        let mut w = Writer::with_capacity(cap);
        let h = &self.header;
        w.bytes(TRACE_MAGIC);
        w.put(&h.attack);

        // Header.
        w.u8(h.scenario.index() as u8);
        w.u8(h.position.index() as u8);
        w.u32(h.repetition);
        w.u8(h.fault.map_or(0, FaultType::code));
        w.u64(h.campaign_seed);
        w.u64(h.config_fingerprint);
        w.u64(h.model_fingerprint);
        w.bool(h.interventions.driver);
        w.f64(h.interventions.driver_reaction_time);
        w.bool(h.interventions.safety_check);
        w.put(&h.interventions.aebs);
        // Packed ML byte: 0 = ml off; else bits 0-1 carry 1 + strategy
        // code and bits 2-7 the view count.
        w.u8(if h.interventions.ml {
            1 + (h.interventions.mitigation & 0b11) + (h.interventions.views << 2)
        } else {
            0
        });
        w.put(&h.friction);
        w.u64(h.max_steps);
        w.u64(h.quiescence_steps);
        w.u64(h.first_step);
        w.u64(self.samples.len() as u64);
        w.u64(self.events.len() as u64);

        // Step records.
        for s in &self.samples {
            encode_sample(&mut w, s);
        }
        // Events.
        for e in &self.events {
            w.f64(e.time);
            w.u8(e.kind.code());
            w.f64(e.value);
        }
        // Outcome footer.
        let o = &self.outcome;
        w.u8(o.end.code());
        w.u8(o.accident.map_or(0, AccidentKind::code));
        w.opt_f64(o.accident_time);
        w.opt_f64(o.fault_start);
        w.f64(o.min_ttc);
        w.f64(o.min_lane_line_distance);
        w.u64(o.steps);

        // Whole-file checksum.
        let sum = Fingerprint::new().write_bytes(w.as_bytes());
        w.u64(sum.value());
        // The content address covers the trailer too; continue the running
        // checksum over it rather than re-hashing the whole buffer.
        let address = sum.write_u64(sum.value()).value();
        (w.into_bytes(), address)
    }

    /// Parses [`Self::to_bytes`] output, verifying the checksum first so a
    /// damaged file is rejected before any structural decoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < TRACE_MAGIC.len() + 8 || !bytes.starts_with(TRACE_MAGIC) {
            return Err(TraceError::BadMagic);
        }
        let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        let computed = Fingerprint::new().write_bytes(payload).value();
        if computed != stored {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader::new(payload);
        r.take(TRACE_MAGIC.len())?;
        let attack = AttackScheduler::decode(&mut r)?;
        let scenario = r.code(|c| ScenarioId::ALL.get(usize::from(c)).copied())?;
        let position = r.code(|c| InitialPosition::ALL.get(usize::from(c)).copied())?;
        let repetition = r.u32()?;
        let fault = r.opt_code(FaultType::from_code)?;
        let campaign_seed = r.u64()?;
        let config_fingerprint = r.u64()?;
        let model_fingerprint = r.u64()?;
        let driver = r.bool()?;
        let driver_reaction_time = r.f64()?;
        let safety_check = r.bool()?;
        let aebs = r.code(AebsMode::from_code)?;
        // A views field without a strategy is not a value any writer
        // produces.
        let (ml, mitigation, views) = r.code(|b| match b {
            0 => Some((false, 0, 0)),
            _ if b & 0b11 != 0 => Some((true, (b & 0b11) - 1, b >> 2)),
            _ => None,
        })?;
        let friction = FrictionCondition::decode(&mut r)?;
        let max_steps = r.u64()?;
        let quiescence_steps = r.u64()?;
        let first_step = r.u64()?;
        let n_samples = r.u64()?;
        let n_events = r.u64()?;

        // Each count is checked against the bytes actually present before
        // anything is allocated for it.
        let n_samples = r.fits(n_samples, SAMPLE_WIRE_SIZE)?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            samples.push(decode_sample(&mut r)?);
        }
        let n_events = r.fits(n_events, EVENT_WIRE_SIZE)?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let time = r.f64()?;
            let kind = r.code(EventKind::from_code)?;
            let value = r.f64()?;
            events.push(TraceEvent { time, kind, value });
        }
        let end = r.code(EndReason::from_code)?;
        let accident = r.opt_code(AccidentKind::from_code)?;
        let accident_time = r.opt_f64()?;
        let fault_start = r.opt_f64()?;
        let min_ttc = r.f64()?;
        let min_lane_line_distance = r.f64()?;
        let steps = r.u64()?;
        r.finish()?;

        Ok(Self {
            header: TraceHeader {
                scenario,
                position,
                repetition,
                fault,
                campaign_seed,
                config_fingerprint,
                model_fingerprint,
                interventions: InterventionSummary {
                    driver,
                    driver_reaction_time,
                    safety_check,
                    aebs,
                    ml,
                    mitigation,
                    views,
                },
                friction,
                max_steps,
                quiescence_steps,
                first_step,
                attack,
            },
            samples,
            events,
            outcome: TraceOutcome {
                end,
                accident,
                accident_time,
                fault_start,
                min_ttc,
                min_lane_line_distance,
                steps,
            },
        })
    }

    /// Content address of this trace: FNV-1a over the serialised bytes,
    /// rendered as fixed-width hex (the same addressing scheme as the
    /// artifact cache).
    #[must_use]
    pub fn content_hex(&self) -> String {
        format!("{:016x}", self.serialise().1)
    }

    /// The content-addressed file name this trace would be stored under.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("trace-{}.bin", self.content_hex())
    }

    /// Where a trace with content hash `hex` would live under `dir` —
    /// the lookup half of the [`save_in`](Trace::save_in) content
    /// addressing. `None` when `hex` is not a 16-digit lowercase hex
    /// string (network input never names arbitrary files).
    #[must_use]
    pub fn path_for(dir: &Path, hex: &str) -> Option<PathBuf> {
        let valid = hex.len() == 16
            && hex
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        valid.then(|| dir.join(format!("trace-{hex}.bin")))
    }

    /// Writes the trace content-addressed into `dir` (created on demand)
    /// and returns the path. Writes are atomic (temp file + rename) so
    /// concurrent campaign workers never leave a torn trace. The trace is
    /// serialised and checksummed exactly once — the same pass yields both
    /// the file name and the file body (persistence is on the campaign hot
    /// path under `ADAS_TRACE`).
    pub fn save_in(&self, dir: &Path) -> Result<PathBuf, TraceError> {
        let (bytes, sum) = self.serialise();
        let path = dir.join(format!("trace-{sum:016x}.bin"));
        write_atomic(&path, &bytes)?;
        Ok(path)
    }

    /// Writes the trace to an explicit path (atomic, parent created on
    /// demand). Used for the golden regression traces, whose names must be
    /// stable across regenerations.
    pub fn save_as(&self, path: &Path) -> Result<(), TraceError> {
        write_atomic(path, &self.to_bytes())
    }

    /// Loads and decodes a trace file.
    ///
    /// # Errors
    ///
    /// I/O failures, checksum mismatches, and structural decode errors all
    /// surface as [`TraceError`].
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// One-line identity summary (`S1/Near rep 0, fault Relative Distance,
    /// seed 2025`).
    #[must_use]
    pub fn identity(&self) -> String {
        let h = &self.header;
        format!(
            "{}/{:?} rep {} · fault {} · seed {}",
            h.scenario.label(),
            h.position,
            h.repetition,
            h.fault.map_or("none", FaultType::label),
            h.campaign_seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_attack::ContextTrigger;
    use adas_codec::DecodeError;

    /// Re-stamps the trailing checksum after a test patched the payload.
    fn restamp(bytes: &mut [u8]) {
        let payload_len = bytes.len() - 8;
        let sum = Fingerprint::new()
            .write_bytes(&bytes[..payload_len])
            .value();
        bytes[payload_len..].copy_from_slice(&sum.to_le_bytes());
    }

    fn sample_trace() -> Trace {
        let samples: Vec<TraceSample> = (0..50)
            .map(|i| TraceSample {
                time: f64::from(i) * 0.01,
                ego_v: 20.0 + f64::from(i) * 0.01,
                true_rd: if i < 25 {
                    60.0 - f64::from(i)
                } else {
                    f64::INFINITY
                },
                lead_v: if i < 25 { 13.0 } else { f64::NAN },
                aeb_active: i > 30,
                fault_active: i > 10,
                ..TraceSample::default()
            })
            .collect();
        Trace {
            header: TraceHeader {
                scenario: ScenarioId::S3,
                position: InitialPosition::Far,
                repetition: 7,
                fault: Some(FaultType::Mixed),
                campaign_seed: 2025,
                config_fingerprint: 0xDEAD_BEEF,
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
                friction: FrictionCondition::Off25,
                max_steps: 10_000,
                quiescence_steps: 300,
                first_step: 0,
                attack: AttackScheduler::Immediate,
            },
            samples,
            events: vec![
                TraceEvent {
                    time: 0.11,
                    kind: EventKind::FaultOn,
                    value: 3.2,
                },
                TraceEvent {
                    time: 0.31,
                    kind: EventKind::InterventionOn(InterventionKind::Aeb),
                    value: 1.8,
                },
            ],
            outcome: TraceOutcome {
                end: EndReason::Accident,
                accident: Some(AccidentKind::ForwardCollision),
                accident_time: Some(0.49),
                fault_start: Some(0.11),
                min_ttc: 0.4,
                min_lane_line_distance: 0.7,
                steps: 50,
            },
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        let d = Trace::from_bytes(&bytes).unwrap();
        // NaN != NaN under PartialEq; compare through Debug which renders
        // NaN stably.
        assert_eq!(format!("{t:?}"), format!("{d:?}"));
    }

    #[test]
    fn immediate_attack_is_one_tag_byte_after_the_magic() {
        let bytes = sample_trace().to_bytes();
        assert!(bytes.starts_with(TRACE_MAGIC));
        assert_eq!(bytes[TRACE_MAGIC.len()], 0);
        assert_eq!(bytes[TRACE_MAGIC.len() + 1], ScenarioId::S3.index() as u8);
    }

    #[test]
    fn scheduled_attack_round_trips() {
        let mut t = sample_trace();
        t.header.attack = AttackScheduler::Context(ContextTrigger {
            ttc_below: Some(2.25),
            lane_excursion_above: None,
            curvature_above: Some(1.0 / 900.0),
            arm_after: 5.0,
        });
        let bytes = t.to_bytes();
        assert_eq!(bytes[TRACE_MAGIC.len()], 1);
        let d = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(d.header.attack, t.header.attack);
        assert_eq!(format!("{t:?}"), format!("{d:?}"));
        // The content address must differ from the immediate rendering of
        // the same run: scheduling is part of the trace identity.
        assert_ne!(d.content_hex(), sample_trace().content_hex());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        // Walk a stride of bit positions across the whole file (checking
        // all ~40k bits would be slow for no extra coverage).
        for byte in (0..bytes.len()).step_by(37) {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << (byte % 8);
            assert!(
                Trace::from_bytes(&corrupt).is_err(),
                "bit flip at byte {byte} was not rejected"
            );
        }
    }

    #[test]
    fn truncation_at_any_boundary_is_rejected() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        for cut in [
            0,
            5,
            TRACE_MAGIC.len(),
            100,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            assert!(Trace::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_trace().to_bytes();
        bytes.extend_from_slice(b"junk");
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn event_kind_codes_round_trip() {
        let mut kinds = vec![EventKind::FaultOn, EventKind::FaultOff];
        for k in InterventionKind::ALL {
            kinds.push(EventKind::InterventionOn(k));
            kinds.push(EventKind::InterventionOff(k));
        }
        let mut seen = std::collections::HashSet::new();
        for kind in kinds {
            let code = kind.code();
            assert!(seen.insert(code), "duplicate code {code}");
            assert_eq!(EventKind::from_code(code).unwrap(), kind);
        }
        assert_eq!(EventKind::from_code(200), None);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("adas-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = sample_trace();
        let path = t.save_in(&dir).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("trace-"));
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(format!("{t:?}"), format!("{loaded:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mitigation_variants_round_trip_in_ml_byte() {
        // Every strategy × a spread of view counts survives the packed
        // ML byte, and the legacy plain-bool encoding still decodes as
        // the CUSUM baseline.
        for (mitigation, views) in [(0u8, 0u8), (0, 1), (1, 0), (1, 8), (2, 6), (2, 63)] {
            let mut t = sample_trace();
            t.header.interventions.ml = true;
            t.header.interventions.mitigation = mitigation;
            t.header.interventions.views = views;
            let d = Trace::from_bytes(&t.to_bytes()).unwrap();
            assert_eq!(d.header.interventions.mitigation, mitigation);
            assert_eq!(d.header.interventions.views, views);
            assert!(d.header.interventions.ml);
        }
        // Distinct variants serialise to distinct bytes (and hence
        // distinct content addresses for otherwise-identical traces).
        let encode = |mitigation, views| {
            let mut t = sample_trace();
            t.header.interventions.ml = true;
            t.header.interventions.mitigation = mitigation;
            t.header.interventions.views = views;
            t.content_hex()
        };
        assert_ne!(encode(0, 0), encode(1, 0));
        assert_ne!(encode(1, 0), encode(2, 0));
        assert_ne!(encode(1, 0), encode(1, 8));
        // A views-without-strategy byte is rejected as corruption, not
        // silently misread. Craft it by patching the serialised byte and
        // re-stamping the checksum.
        let mut t = sample_trace();
        t.header.interventions.ml = true;
        let mut bytes = t.to_bytes();
        let ml_pos = TRACE_MAGIC.len() + 1 + 1 + 1 + 4 + 1 + 8 + 8 + 8 + 1 + 8 + 1 + 1;
        assert_eq!(bytes[ml_pos], 1, "ml byte not where expected");
        bytes[ml_pos] = 0b100; // views = 1, strategy bits = 0
        restamp(&mut bytes);
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Malformed(DecodeError {
                offset: ml_pos,
                needed: 0
            }))
        );
    }

    #[test]
    fn hostile_sample_count_is_an_error_not_a_panic() {
        // With a valid checksum, n_samples = 105⁻¹ mod 2⁶⁴ makes the
        // unchecked size product wrap to 1 byte; the decoder must refuse
        // the count instead of trying to allocate for it.
        let mut t = sample_trace();
        t.samples.clear();
        t.events.clear();
        let mut bytes = t.to_bytes();
        let footer = 1 + 1 + 9 + 9 + 8 + 8 + 8;
        let n_samples = bytes.len() - 8 - footer - 16;
        let inverse = 0x8fd8_fd8f_d8fd_8fd9u64;
        assert_eq!(inverse.wrapping_mul(SAMPLE_WIRE_SIZE as u64), 1);
        bytes[n_samples..n_samples + 8].copy_from_slice(&inverse.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn content_address_is_stable_and_content_sensitive() {
        let t = sample_trace();
        assert_eq!(t.content_hex(), t.content_hex());
        let mut t2 = t.clone();
        t2.samples[3].ego_v += 1e-12;
        assert_ne!(t.content_hex(), t2.content_hex());
    }
}
