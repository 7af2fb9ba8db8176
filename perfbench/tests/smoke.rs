//! A smoke-sized run of every workload, untraced and traced, emits every
//! metric `BENCHMARK.json` names for that mode, with its unit, and passes
//! its output checks.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// benchmark's own result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(text.parse().unwrap_or_else(|e| panic!("{text}: {e}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    Parser {
        s: text.as_bytes(),
        i: 0,
    }
    .value()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_owned()
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    match parse(&text).get(section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_owned(),
                    m.get("unit").str().to_owned(),
                )
            })
            .collect(),
        other => panic!("{section} is {other:?}"),
    }
}

fn run_smoke(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

fn check(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run_smoke(workload, trace);
        assert_eq!(
            result.get("correct"),
            &Json::Bool(true),
            "{workload} trace={trace}"
        );
        assert_eq!(
            result.get("failed"),
            &Json::Num(0.0),
            "{workload} trace={trace}"
        );
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.get("unit").str().to_owned()))
            .collect();
        assert_eq!(emitted, catalogue(section), "{workload} trace={trace}");
        for (name, v) in metrics {
            let Json::Num(x) = v.get("value") else {
                panic!("{workload}: {name} has no numeric value")
            };
            assert!(x.is_finite(), "{workload}: {name} = {x}");
            if !trace {
                assert!(*x > 0.0, "{workload}: end-to-end {name} = {x}");
            }
        }
    }
}

#[test]
fn table_vi_cold_emits_every_metric() {
    check("table-vi-cold");
}

#[test]
fn fuzz_session_emits_every_metric() {
    check("fuzz-session");
}

#[test]
fn serve_mixed_emits_every_metric() {
    check("serve-mixed");
}

#[test]
fn store_scan_emits_every_metric() {
    check("store-scan");
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
