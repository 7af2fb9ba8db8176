//! Property tests for the `.scn` parser: rendering a synthesised document
//! and parsing it back is the identity, compilation is deterministic in
//! the RNG seed, and arbitrarily mutated input produces a typed
//! [`ScnError`] with a plausible line number — never a panic.

use adas_scenarios::dsl::{
    BehaviorSpec, ExprField, NpcSpec, PhaseSpec, RoadKind, RoadSpec, ScenarioDoc, SegmentSpec,
    TriggerKind, ZoneSpec,
};
use adas_scenarios::{InitialPosition, ScenarioId};
use adas_simulator::DeterministicRng;
use proptest::prelude::*;

// --- generators -----------------------------------------------------------

/// A literal in a range that `{:?}` never renders in scientific notation.
fn num(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    let v = lo + rng.unit_f64() * (hi - lo);
    (v * 100.0).round() / 100.0
}

fn literal(rng: &mut TestRng, lo: f64, hi: f64) -> ExprField {
    ExprField::number(num(rng, lo, hi))
}

/// A quoted expression drawing on the builtin functions and any
/// previously declared `[vars]` names.
fn expression(rng: &mut TestRng, vars: &[(String, ExprField)], lo: f64, hi: f64) -> ExprField {
    let (a, b) = (num(rng, lo, hi), num(rng, 0.05, 2.0));
    let src = match rng.usize_in(0, if vars.is_empty() { 4 } else { 6 }) {
        0 => format!("mph({a:?}) + gauss({b:?})"),
        1 => format!("pos({a:?}, {:?})", a + num(rng, 1.0, 40.0)),
        2 => format!("{a:?} + uniform(-{b:?}, {b:?})"),
        3 => format!("({a:?} + {b:?}) * 2.0 - {b:?}"),
        4 => format!("{} + {a:?}", vars[rng.usize_in(0, vars.len())].0),
        _ => format!("0.0 - ({} / 2.0)", vars[rng.usize_in(0, vars.len())].0),
    };
    ExprField::expression(&src).expect("generator emits valid expressions")
}

fn field(rng: &mut TestRng, vars: &[(String, ExprField)], lo: f64, hi: f64) -> ExprField {
    if rng.next_u64() & 1 == 0 {
        literal(rng, lo, hi)
    } else {
        expression(rng, vars, lo, hi)
    }
}

fn road(rng: &mut TestRng) -> RoadSpec {
    match rng.usize_in(0, 4) {
        0 => RoadSpec {
            kind: RoadKind::Position,
            length: None,
            lane_width: None,
            lane_count: None,
            segments: Vec::new(),
        },
        1 => RoadSpec {
            kind: RoadKind::Straight,
            length: Some(num(rng, 1_000.0, 4_000.0)),
            lane_width: None,
            lane_count: None,
            segments: Vec::new(),
        },
        2 => RoadSpec {
            kind: RoadKind::Curvy,
            length: Some(num(rng, 1_000.0, 4_000.0)),
            lane_width: None,
            lane_count: None,
            segments: Vec::new(),
        },
        _ => {
            let segments = (0..rng.usize_in(1, 4))
                .map(|_| {
                    let (radius, curvature) = match rng.usize_in(0, 3) {
                        0 => (Some(num(rng, 300.0, 900.0)), None),
                        1 => (None, Some(num(rng, 0.1, 0.9) / 100.0)),
                        _ => (None, None),
                    };
                    SegmentSpec {
                        length: num(rng, 150.0, 900.0),
                        radius,
                        curvature,
                        friction: (rng.next_u64() & 1 == 0).then(|| num(rng, 0.4, 1.0)),
                    }
                })
                .collect();
            RoadSpec {
                kind: RoadKind::Segments,
                length: None,
                lane_width: (rng.next_u64() & 1 == 0).then(|| num(rng, 3.0, 4.0)),
                lane_count: (rng.next_u64() & 1 == 0).then(|| 2 + (rng.next_u64() % 3) as u8),
                segments,
            }
        }
    }
}

fn phase(rng: &mut TestRng, vars: &[(String, ExprField)]) -> PhaseSpec {
    let (trigger, threshold) = match rng.usize_in(0, 3) {
        0 => (TriggerKind::Immediately, None),
        1 => (TriggerKind::AtTime, Some(field(rng, vars, 5.0, 40.0))),
        _ => (TriggerKind::GapBelow, Some(field(rng, vars, 10.0, 60.0))),
    };
    let behavior = match rng.usize_in(0, 3) {
        0 => BehaviorSpec::SetSpeed {
            target: field(rng, vars, 5.0, 30.0),
            rate: literal(rng, 0.5, 4.0),
        },
        1 => BehaviorSpec::Stop {
            decel: literal(rng, 3.0, 9.0),
        },
        _ => BehaviorSpec::MoveLateral {
            target_d: literal(rng, -3.6, 3.6),
            duration: literal(rng, 1.0, 6.0),
        },
    };
    PhaseSpec {
        trigger,
        threshold,
        behavior,
    }
}

fn document(rng: &mut TestRng) -> ScenarioDoc {
    let vars: Vec<(String, ExprField)> = (0..rng.usize_in(0, 4))
        .map(|i| (format!("v{i}"), ExprField::number(num(rng, 1.0, 300.0))))
        .collect();
    let npcs = (0..rng.usize_in(1, 4))
        .map(|_| NpcSpec {
            s: field(rng, &vars, 60.0, 400.0),
            d: literal(rng, -3.6, 3.6),
            speed: field(rng, &vars, 8.0, 30.0),
            phases: (0..rng.usize_in(0, 3)).map(|_| phase(rng, &vars)).collect(),
        })
        .collect();
    let zones = (0..rng.usize_in(0, 3))
        .map(|_| {
            let start = num(rng, 100.0, 2_000.0);
            ZoneSpec {
                start_s: start,
                end_s: start + num(rng, 20.0, 300.0),
                scale: num(rng, 0.3, 1.0),
            }
        })
        .collect();
    ScenarioDoc {
        name: format!("prop-{}", rng.next_u64() % 10_000),
        summary: if rng.next_u64() & 1 == 0 {
            String::new()
        } else {
            "synthesised by the property generator".to_owned()
        },
        road: road(rng),
        ego_start_s: literal(rng, 5.0, 60.0),
        ego_speed: field(rng, &vars, 15.0, 32.0),
        vars,
        npcs,
        patch_start_s: (rng.next_u64() & 1 == 0).then(|| field(rng, &[], 200.0, 600.0)),
        zones,
    }
}

/// Mutates rendered text to (probably) break it while staying valid UTF-8.
fn mutate(rng: &mut TestRng, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    match rng.usize_in(0, 6) {
        // Truncate at an arbitrary character boundary.
        0 => {
            let cut = rng.usize_in(0, text.len() + 1);
            text.char_indices()
                .map(|(i, _)| i)
                .take_while(|&i| i <= cut)
                .last()
                .map_or(String::new(), |i| text[..i].to_owned())
        }
        // Delete one line.
        1 => {
            let victim = rng.usize_in(0, lines.len());
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, l)| format!("{l}\n"))
                .collect()
        }
        // Duplicate one line (duplicate keys must be rejected, not race).
        2 => {
            let victim = rng.usize_in(0, lines.len());
            lines
                .iter()
                .enumerate()
                .flat_map(|(i, l)| {
                    let n = if i == victim { 2 } else { 1 };
                    std::iter::repeat_n(format!("{l}\n"), n)
                })
                .collect()
        }
        // Replace one line with junk drawn from the grammar's alphabet.
        3 => {
            let junk = [
                "[",
                "]]",
                "= 1.0",
                "threshold =",
                "s = \"gauss(\"",
                "🚗 = 3",
            ];
            let victim = rng.usize_in(0, lines.len());
            let junk = junk[rng.usize_in(0, junk.len())];
            lines
                .iter()
                .enumerate()
                .map(|(i, l)| format!("{}\n", if i == victim { junk } else { l }))
                .collect()
        }
        // Insert a bogus section or key.
        4 => {
            let extra = [
                "[[npc.phase]]",
                "[nonsense]",
                "kind = \"mobius\"",
                "speed = \"v99 + 1.0\"",
            ];
            let at = rng.usize_in(0, lines.len() + 1);
            let extra = extra[rng.usize_in(0, extra.len())];
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                if i == at {
                    out.push_str(extra);
                    out.push('\n');
                }
                out.push_str(l);
                out.push('\n');
            }
            if at == lines.len() {
                out.push_str(extra);
                out.push('\n');
            }
            out
        }
        // Flip one character to a structural one.
        _ => {
            let chars: Vec<char> = text.chars().collect();
            let victim = rng.usize_in(0, chars.len());
            let structural = ['"', '=', '[', ']', '(', ',', '#'];
            chars
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    if i == victim {
                        structural[rng.usize_in(0, structural.len())]
                    } else {
                        c
                    }
                })
                .collect()
        }
    }
}

// --- properties -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn render_then_parse_is_the_identity(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("roundtrip-{seed}"));
        let doc = document(&mut rng);
        let rendered = doc.render();
        let parsed = ScenarioDoc::parse(&rendered)
            .unwrap_or_else(|e| panic!("generated doc must parse: {e}\n{rendered}"));
        prop_assert_eq!(&parsed, &doc);
        // And rendering is a fixed point: parse ∘ render converges after
        // one pass, so stored documents never churn.
        prop_assert_eq!(parsed.render(), rendered);
    }

    #[test]
    fn compilation_is_deterministic_in_the_seed(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("compile-{seed}"));
        let doc = document(&mut rng);
        let scenario = ScenarioId::ALL[rng.usize_in(0, ScenarioId::ALL.len())];
        let position = InitialPosition::ALL[rng.usize_in(0, InitialPosition::ALL.len())];
        let mut rng_a = DeterministicRng::from_seed(seed);
        let mut rng_b = DeterministicRng::from_seed(seed);
        let a = doc.compile(scenario, position, &mut rng_a);
        let b = doc.compile(scenario, position, &mut rng_b);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b);
                // Draw counts must agree too, or batch lanes desync.
                prop_assert_eq!(
                    rng_a.uniform(0.0, 1.0).to_bits(),
                    rng_b.uniform(0.0, 1.0).to_bits()
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "non-deterministic compile: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn mutated_documents_error_with_line_numbers_and_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("mutate-{seed}"));
        let doc = document(&mut rng);
        let mut text = doc.render();
        for round in 0..rng.usize_in(1, 4) {
            let _ = round;
            text = mutate(&mut rng, &text);
        }
        match ScenarioDoc::parse(&text) {
            // Some mutations keep the document valid — that's fine, the
            // property under test is "typed error or success, no panic".
            Ok(_) => {}
            Err(e) => {
                let lines = text.lines().count();
                prop_assert!(
                    e.line <= lines + 1,
                    "error line {} out of range for a {}-line document: {e}",
                    e.line,
                    lines
                );
                prop_assert!(!e.message.is_empty(), "empty diagnostic");
                // The Display form carries the location for CLI surfaces.
                prop_assert!(e.to_string().contains("line"), "{e}");
            }
        }
    }
}
