//! Every example scenario shipped under `scenarios/examples/` must parse,
//! render canonically (round-trip through the parser), and compile for
//! both spawn positions — the same checks `adas-scn-check` runs in CI.

use adas_scenarios::{InitialPosition, ScenarioDoc, ScenarioId};
use adas_simulator::DeterministicRng;
use std::path::{Path, PathBuf};

fn example_files() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/examples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    files.sort();
    files
}

#[test]
fn examples_exist() {
    assert!(
        example_files().len() >= 3,
        "scenarios/examples/ should ship at least the cut-in, platoon, and \
         merge examples"
    );
}

#[test]
fn every_example_parses_compiles_and_round_trips() {
    for path in example_files() {
        let text = std::fs::read_to_string(&path).expect("readable");
        let doc = ScenarioDoc::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Canonical render must parse back to the identical document.
        let rendered = doc.render();
        let reparsed = ScenarioDoc::parse(&rendered)
            .unwrap_or_else(|e| panic!("{}: render not reparseable: {e}", path.display()));
        assert_eq!(
            reparsed,
            doc,
            "{}: render/parse round trip drifted",
            path.display()
        );
        // And the document must compile for both spawn positions.
        for position in InitialPosition::ALL {
            let mut rng = DeterministicRng::from_seed(7);
            let setup = doc
                .compile(ScenarioId::S1, position, &mut rng)
                .unwrap_or_else(|e| panic!("{}: {position:?}: {e}", path.display()));
            assert!(!setup.npcs.is_empty(), "{}: no traffic", path.display());
            assert!(setup.ego_speed > 0.0);
        }
    }
}

#[test]
fn examples_cover_the_advertised_features() {
    // The three shipped examples exist to demonstrate specific DSL
    // features; losing one silently would gut the documentation.
    let mut multi_npc = false;
    let mut multi_phase = false;
    let mut segment_friction = false;
    let mut standalone_zone = false;
    for path in example_files() {
        let text = std::fs::read_to_string(&path).expect("readable");
        let doc = ScenarioDoc::parse(&text).expect("parses");
        multi_npc |= doc.npcs.len() >= 3;
        multi_phase |= doc.npcs.iter().any(|n| n.phases.len() >= 2);
        segment_friction |= doc.road.segments.iter().any(|s| s.friction.is_some());
        standalone_zone |= !doc.zones.is_empty();
    }
    assert!(multi_npc, "no example with ≥3 NPCs");
    assert!(multi_phase, "no example with a multi-phase NPC script");
    assert!(segment_friction, "no example with per-segment friction");
    assert!(
        standalone_zone,
        "no example with a standalone friction zone"
    );
}
