//! Scenario-space checker for CI: every `.scn` file shipped in the repo
//! must parse, render canonically (parse ∘ render is a fixed point), and
//! compile for both spawn positions; the DSL catalog must be bit-identical
//! to the hard-coded S1–S6 constructors (digest compare over setups and
//! RNG stream positions). Writes a scenario-space coverage summary to
//! `results/SCENARIO_coverage.json`.
//!
//! Usage: `adas-scn-check [extra.scn ...]` — extra files are checked with
//! the same rules; any failure exits non-zero.

use adas_core::{Fingerprint, TextTable};
use adas_scenarios::dsl::{BehaviorSpec, RoadKind, ScenarioDoc, TriggerKind};
use adas_scenarios::{InitialPosition, ScenarioId, ScenarioSetup};
use adas_simulator::DeterministicRng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Repetitions folded into the equivalence digest per (scenario, position).
const DIGEST_REPS: u64 = 10;

#[derive(Default)]
struct Coverage {
    files: usize,
    npcs: usize,
    max_npcs_per_file: usize,
    phases: usize,
    vars: usize,
    zones: usize,
    segments_with_friction: usize,
    road_kinds: [usize; 4],
    triggers: [usize; 3],
    behaviors: [usize; 3],
    with_patch: usize,
}

impl Coverage {
    fn absorb(&mut self, doc: &ScenarioDoc) {
        self.files += 1;
        self.npcs += doc.npcs.len();
        self.max_npcs_per_file = self.max_npcs_per_file.max(doc.npcs.len());
        self.vars += doc.vars.len();
        self.zones += doc.zones.len();
        self.with_patch += usize::from(doc.patch_start_s.is_some());
        self.road_kinds[match doc.road.kind {
            RoadKind::Position => 0,
            RoadKind::Straight => 1,
            RoadKind::Curvy => 2,
            RoadKind::Segments => 3,
        }] += 1;
        self.segments_with_friction += doc
            .road
            .segments
            .iter()
            .filter(|s| s.friction.is_some())
            .count();
        for npc in &doc.npcs {
            self.phases += npc.phases.len();
            for phase in &npc.phases {
                self.triggers[match phase.trigger {
                    TriggerKind::Immediately => 0,
                    TriggerKind::AtTime => 1,
                    TriggerKind::GapBelow => 2,
                }] += 1;
                self.behaviors[match phase.behavior {
                    BehaviorSpec::SetSpeed { .. } => 0,
                    BehaviorSpec::Stop { .. } => 1,
                    BehaviorSpec::MoveLateral { .. } => 2,
                }] += 1;
            }
        }
    }
}

fn scn_files_under(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    files.sort();
    files
}

/// Parse + canonical-render + compile checks for one file. The builtin
/// files are checked under their own scenario id (the road `position`
/// kind differs per id); everything else compiles under S1.
fn check_file(path: &Path) -> Result<ScenarioDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = ScenarioDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rendered = doc.render();
    let reparsed = ScenarioDoc::parse(&rendered)
        .map_err(|e| format!("{}: canonical render does not reparse: {e}", path.display()))?;
    if reparsed != doc {
        return Err(format!(
            "{}: render/parse round trip drifted",
            path.display()
        ));
    }
    let id = path
        .file_stem()
        .and_then(|s| s.to_str())
        .and_then(|stem| {
            ScenarioId::ALL
                .into_iter()
                .find(|s| s.label().eq_ignore_ascii_case(stem))
        })
        .unwrap_or(ScenarioId::ALL[0]);
    for position in InitialPosition::ALL {
        for rep in 0..3u64 {
            let mut rng = DeterministicRng::from_seed(rep);
            doc.compile(id, position, &mut rng)
                .map_err(|e| format!("{} ({position:?} rep {rep}): {e}", path.display()))?;
        }
    }
    Ok(doc)
}

/// Digest of the full jittered scenario space one constructor produces:
/// every (scenario, position, repetition) setup plus the post-build RNG
/// probe, folded into one fingerprint.
fn constructor_digest(
    build: fn(ScenarioId, InitialPosition, &mut DeterministicRng) -> ScenarioSetup,
    id: ScenarioId,
) -> u64 {
    let mut fp = Fingerprint::new().write_str("scenario-space-v1");
    for position in InitialPosition::ALL {
        for rep in 0..DIGEST_REPS {
            let mut rng = DeterministicRng::for_run(
                adas_bench::CAMPAIGN_SEED,
                id.index() as u64,
                position.index() as u64,
                rep,
            );
            let setup = build(id, position, &mut rng);
            fp = fp
                .write_str(&format!("{setup:?}"))
                .write_u64(rng.uniform(0.0, 1.0).to_bits());
        }
    }
    fp.value()
}

fn main() -> ExitCode {
    let extra: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let mut files = scn_files_under(Path::new("scenarios/builtin"));
    let builtin_count = files.len();
    files.extend(scn_files_under(Path::new("scenarios/examples")));
    files.extend(extra);
    if builtin_count != ScenarioId::ALL.len() {
        eprintln!(
            "FAIL: expected {} builtin .scn files under scenarios/builtin/, found {builtin_count} \
             (run from the repository root)",
            ScenarioId::ALL.len()
        );
        return ExitCode::FAILURE;
    }

    let mut coverage = Coverage::default();
    let mut failures = 0usize;
    for path in &files {
        match check_file(path) {
            Ok(doc) => {
                coverage.absorb(&doc);
                println!("OK     {}", path.display());
            }
            Err(e) => {
                failures += 1;
                println!("FAIL   {e}");
            }
        }
    }

    // DSL catalog vs hard-coded constructors, as digests so CI logs show
    // *which* scenario drifted without dumping megabytes of Debug.
    let mut digest_rows = Vec::new();
    let mut table = TextTable::new(vec!["scenario", "dsl digest", "hardcoded", "verdict"]);
    for id in ScenarioId::ALL {
        let dsl = constructor_digest(ScenarioSetup::build, id);
        let hardcoded = constructor_digest(ScenarioSetup::build_hardcoded, id);
        let ok = dsl == hardcoded;
        failures += usize::from(!ok);
        table.row(vec![
            id.label().to_owned(),
            format!("{dsl:016x}"),
            format!("{hardcoded:016x}"),
            if ok { "identical" } else { "DRIFTED" }.to_owned(),
        ]);
        digest_rows.push(format!(
            "    {{\"scenario\": \"{}\", \"digest\": \"{dsl:016x}\", \"identical\": {ok}}}",
            id.label()
        ));
    }
    print!("{}", table.render());

    let json = format!(
        "{{\n  \"files\": {},\n  \"builtin\": {builtin_count},\n  \"npcs\": {},\n  \
         \"max_npcs_per_file\": {},\n  \"phases\": {},\n  \"vars\": {},\n  \
         \"friction_zones\": {},\n  \"segments_with_friction\": {},\n  \
         \"road_kinds\": {{\"position\": {}, \"straight\": {}, \"curvy\": {}, \"segments\": {}}},\n  \
         \"triggers\": {{\"immediately\": {}, \"at_time\": {}, \"gap_below\": {}}},\n  \
         \"behaviors\": {{\"set_speed\": {}, \"stop\": {}, \"move_lateral\": {}}},\n  \
         \"with_patch\": {},\n  \"digest_reps\": {DIGEST_REPS},\n  \"equivalence\": [\n{}\n  ],\n  \
         \"failures\": {failures}\n}}\n",
        coverage.files,
        coverage.npcs,
        coverage.max_npcs_per_file,
        coverage.phases,
        coverage.vars,
        coverage.zones,
        coverage.segments_with_friction,
        coverage.road_kinds[0],
        coverage.road_kinds[1],
        coverage.road_kinds[2],
        coverage.road_kinds[3],
        coverage.triggers[0],
        coverage.triggers[1],
        coverage.triggers[2],
        coverage.behaviors[0],
        coverage.behaviors[1],
        coverage.behaviors[2],
        coverage.with_patch,
        digest_rows.join(",\n"),
    );
    adas_bench::write_results_file("SCENARIO_coverage.json", &json);
    println!(
        "{} file(s), {} failure(s) — coverage written to results/SCENARIO_coverage.json",
        files.len(),
        failures
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
