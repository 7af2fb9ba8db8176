//! Replayable repro files.
//!
//! A finding the fuzzer shrinks is persisted as a flat `key = value` file
//! plus the flight-recorder trace of the shrunk run. The file is the same
//! TOML subset as `.scn` scenarios, read by the same reader
//! ([`adas_codec::text`]): strings are written with its `quote`, and a
//! duplicate, unknown or missing key is an error at its line. Floats are
//! written with `{:?}` and seeds as `u64` text, so the round-trip is
//! bit-exact; [`Repro::verify`] re-runs the case and demands the same
//! oracle family fires, the behavioural signature matches, and — when the
//! trace is present — the fresh run is bit-identical to the recording.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use adas_codec::text::{keyword_of, quote, Document, TextError};
use adas_recorder::{diff_traces, Trace};

use crate::case::FuzzCase;
use crate::engine::evaluate;
use crate::oracle::OracleKind;
use adas_attack::FaultType;
use adas_scenarios::{InitialPosition, ScenarioId};

/// One persisted, replayable finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The (shrunk) violating case.
    pub case: FuzzCase,
    /// Campaign seed the violation reproduces under.
    pub seed: u64,
    /// Which oracle family fired.
    pub oracle: OracleKind,
    /// Human-readable violation text at save time.
    pub detail: String,
    /// Expected behavioural signature of the primary run.
    pub signature: u64,
    /// Trace file path relative to the repro's directory, if recorded.
    pub trace_file: Option<String>,
}

/// Each `fault` value's spelling.
const FAULTS: [(&str, Option<FaultType>); 4] = [
    ("none", None),
    ("RelativeDistance", Some(FaultType::RelativeDistance)),
    ("DesiredCurvature", Some(FaultType::DesiredCurvature)),
    ("Mixed", Some(FaultType::Mixed)),
];

/// Each `position` value's spelling.
const POSITIONS: [(&str, InitialPosition); 2] = [
    ("Near", InitialPosition::Near),
    ("Far", InitialPosition::Far),
];

impl Repro {
    /// Stable file stem: oracle family plus the case fingerprint, so two
    /// findings of the same family in different cells never collide.
    #[must_use]
    pub fn file_stem(&self) -> String {
        format!("{}-{:016x}", self.oracle.name(), self.case.fingerprint())
    }

    /// Serialises to the flat TOML subset.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# adas-fuzz repro v1 — replay with `adas-fuzz replay <this file>`"
        );
        let _ = writeln!(s, "oracle = {}", quote(self.oracle.name()));
        let _ = writeln!(s, "seed = {}", self.seed);
        let _ = writeln!(s, "signature = {}", self.signature);
        let _ = writeln!(s, "detail = {}", quote(&self.detail));
        if let Some(tf) = &self.trace_file {
            let _ = writeln!(s, "trace_file = {}", quote(tf));
        }
        let c = &self.case;
        let _ = writeln!(s, "scenario = {}", quote(c.scenario.label()));
        let _ = writeln!(
            s,
            "position = {}",
            quote(keyword_of(&POSITIONS, &c.position))
        );
        let _ = writeln!(s, "iv_row = {}", c.iv_row);
        let _ = writeln!(s, "fault = {}", quote(keyword_of(&FAULTS, &c.fault)));
        let _ = writeln!(s, "repetition = {}", c.repetition);
        let _ = writeln!(s, "ego_speed_delta = {:?}", c.ego_speed_delta);
        let _ = writeln!(s, "friction = {:?}", c.friction);
        let _ = writeln!(s, "attack_start_offset = {:?}", c.attack_start_offset);
        let _ = writeln!(s, "attack_duration = {:?}", c.attack_duration);
        let _ = writeln!(s, "attack_intensity = {:?}", c.attack_intensity);
        let _ = writeln!(s, "attack_direction = {:?}", c.attack_direction);
        let _ = writeln!(s, "trigger_offset = {:?}", c.trigger_offset);
        let _ = writeln!(s, "sched_ttc = {:?}", c.sched_ttc);
        s
    }

    /// Parses the flat TOML subset produced by [`Repro::to_toml`]. Every
    /// key is required except `trace_file`; a duplicate or unknown key is
    /// an error.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        Self::read(text).map_err(|e| e.to_string())
    }

    fn read(text: &str) -> Result<Self, TextError> {
        let root = Document::parse(text)?.into_root()?;
        let mut f = root.fields();
        let oracles = OracleKind::ALL.map(|o| (o.name(), o));
        let scenarios = ScenarioId::ALL.map(|s| (s.label(), s));
        let oracle = f.required("oracle")?.keyword("oracle", &oracles)?;
        let seed = f.required("seed")?.parse("a u64")?;
        let signature = f.required("signature")?.parse("a u64")?;
        let detail = f.required("detail")?.string()?.to_owned();
        let trace_file = f
            .optional("trace_file")
            .map(|e| e.string().map(str::to_owned))
            .transpose()?;
        let case = FuzzCase {
            scenario: f.required("scenario")?.keyword("scenario", &scenarios)?,
            position: f.required("position")?.keyword("position", &POSITIONS)?,
            iv_row: f.required("iv_row")?.parse("an index")?,
            fault: f.required("fault")?.keyword("fault", &FAULTS)?,
            repetition: f.required("repetition")?.parse("a u32")?,
            ego_speed_delta: f.required("ego_speed_delta")?.parse("a number")?,
            friction: f.required("friction")?.parse("a number")?,
            attack_start_offset: f.required("attack_start_offset")?.parse("a number")?,
            attack_duration: f.required("attack_duration")?.parse("a number")?,
            attack_intensity: f.required("attack_intensity")?.parse("a number")?,
            attack_direction: f.required("attack_direction")?.parse("a number")?,
            trigger_offset: f.required("trigger_offset")?.parse("a number")?,
            sched_ttc: f.required("sched_ttc")?.parse("a number")?,
        };
        f.finish()?;
        Ok(Repro {
            case,
            seed,
            oracle,
            detail,
            signature,
            trace_file,
        })
    }

    /// Writes `<dir>/<stem>.toml` plus `<dir>/traces/<stem>.bin`, returning
    /// the path of the TOML file. Sets `trace_file` accordingly.
    pub fn save(&mut self, dir: &Path, trace: &Trace) -> Result<PathBuf, String> {
        let stem = self.file_stem();
        let trace_dir = dir.join("traces");
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
        let trace_rel = format!("traces/{stem}.bin");
        trace
            .save_as(&dir.join(&trace_rel))
            .map_err(|e| format!("{e:?}"))?;
        self.trace_file = Some(trace_rel);
        let toml_path = dir.join(format!("{stem}.toml"));
        std::fs::write(&toml_path, self.to_toml()).map_err(|e| e.to_string())?;
        Ok(toml_path)
    }

    /// Loads a repro from a `.toml` path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_toml(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Re-runs the case and checks the finding still holds: same oracle
    /// family fires, same behavioural signature, and (when a trace was
    /// saved) the fresh run is bit-identical to the recording.
    /// `base_dir` is the directory the repro file lives in, used to
    /// resolve `trace_file`.
    pub fn verify(&self, base_dir: &Path) -> Result<(), String> {
        let eval = evaluate(&self.case, self.seed);
        if !eval.violations.iter().any(|v| v.oracle == self.oracle) {
            return Err(format!(
                "oracle {} no longer fires; observed: {:?}",
                self.oracle.name(),
                eval.violations
                    .iter()
                    .map(|v| v.oracle.name())
                    .collect::<Vec<_>>()
            ));
        }
        if eval.signature.0 != self.signature {
            return Err(format!(
                "signature drifted: stored {:#x}, fresh {:#x} ({})",
                self.signature,
                eval.signature.0,
                eval.signature.describe()
            ));
        }
        if let Some(tf) = &self.trace_file {
            let stored = Trace::load(&base_dir.join(tf)).map_err(|e| format!("{tf}: {e:?}"))?;
            let (_, fresh) = crate::case::run_case(&self.case, self.seed);
            let report = diff_traces(&stored, &fresh);
            if !report.is_identical() {
                return Err(format!("trace diverged from recording: {report:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Repro {
        let mut case = FuzzCase::baseline(
            ScenarioId::S5,
            InitialPosition::Far,
            4,
            Some(FaultType::Mixed),
        );
        case.ego_speed_delta = -std::f64::consts::PI;
        case.friction = 0.300_000_000_000_000_04;
        case.attack_start_offset = 17.25;
        case.attack_direction = -1.0;
        Repro {
            case,
            seed: 2025,
            oracle: OracleKind::HazardOrdering,
            detail: "accident \"A1\" at t=3.2\nwith no prior hazard \\ flag".to_owned(),
            signature: 0xDEAD_BEEF,
            trace_file: Some("traces/demo.bin".to_owned()),
        }
    }

    #[test]
    fn toml_round_trip_is_lossless() {
        let r = sample();
        let parsed = Repro::from_toml(&r.to_toml()).unwrap();
        assert_eq!(parsed, r);
        // Floats must round-trip bit-exactly, not just approximately.
        assert_eq!(parsed.case.friction.to_bits(), r.case.friction.to_bits());
    }

    #[test]
    fn round_trip_without_trace_file() {
        let mut r = sample();
        r.trace_file = None;
        assert_eq!(Repro::from_toml(&r.to_toml()).unwrap(), r);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Repro::from_toml("").is_err());
        assert!(Repro::from_toml("oracle = \"no-such-oracle\"\n").is_err());
        let mut r = sample();
        r.detail.clear();
        let good = r.to_toml();
        let broken = good.replace("scenario = \"S5\"", "scenario = \"S9\"");
        assert!(Repro::from_toml(&broken).is_err());
        let missing = good.replace("friction", "fricshun");
        assert!(Repro::from_toml(&missing).is_err());
    }

    #[test]
    fn duplicate_unknown_and_missing_keys_are_errors() {
        let good = sample().to_toml();
        let duplicate = format!("{good}seed = 7\n");
        let err = Repro::from_toml(&duplicate).unwrap_err();
        assert!(err.contains("duplicate key `seed`"), "{err}");
        let unknown = format!("{good}colour = \"red\"\n");
        let err = Repro::from_toml(&unknown).unwrap_err();
        assert!(err.contains("unknown key `colour`"), "{err}");
        // Every committed repro carries `sched_ttc`; a file without it is
        // malformed, not a pre-scheduler default.
        let missing: String = good
            .lines()
            .filter(|l| !l.starts_with("sched_ttc"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = Repro::from_toml(&missing).unwrap_err();
        assert!(err.contains("missing `sched_ttc`"), "{err}");
    }

    #[test]
    fn file_stem_is_oracle_plus_fingerprint() {
        let r = sample();
        let stem = r.file_stem();
        assert!(stem.starts_with("hazard-ordering-"), "{stem}");
        assert_eq!(stem.len(), "hazard-ordering-".len() + 16);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let r = sample();
        let text = format!("# header\n\n{}\n# trailer\n", r.to_toml());
        assert_eq!(Repro::from_toml(&text).unwrap(), r);
    }
}
