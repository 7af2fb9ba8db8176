//! Shared plumbing for the experiment harness binaries.
//!
//! Each binary regenerates one table or figure of the paper (see the
//! per-experiment index in `DESIGN.md`); this library provides the common
//! campaign wiring, the trained ML baseline, and the paper's reference
//! numbers so every harness prints a paper-vs-measured comparison.

use adas_core::{collect_training_data, fingerprint_dataset, ArtifactCache, Fingerprint};
use adas_ml::{train, LstmPredictor, ModelSpec, TrainConfig};
use std::time::Instant;

/// Default campaign seed used by every harness (override with the first CLI
/// argument where supported).
pub const CAMPAIGN_SEED: u64 = 2025;

/// Default repetitions per (scenario, position) cell — the paper uses 10.
pub const REPS: u32 = 10;

/// Parses `--reps N` / first positional integer from the CLI, defaulting to
/// [`REPS`].
#[must_use]
pub fn reps_from_args() -> u32 {
    std::env::args()
        .skip(1)
        .find_map(|a| a.parse::<u32>().ok())
        .unwrap_or(REPS)
}

/// The hyper-parameters every harness trains the baseline with (also part
/// of the model's cache key).
#[must_use]
pub fn baseline_train_config() -> TrainConfig {
    let mut tc = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    tc.adam.lr = 5e-3;
    tc
}

pub use adas_core::model_fingerprint;

/// Trains the ML mitigation baseline on fault-free traces and returns it,
/// through `cache` (harnesses pass [`ArtifactCache::from_env`], i.e.
/// `results/cache`, see `ADAS_CACHE`/`ADAS_CACHE_DIR`; tests point it at
/// a temp directory; [`ArtifactCache::disabled`] forces a retrain).
///
/// Training is deterministic for a given seed; progress is printed because
/// it takes ~5 s on a 2-vCPU host at the shipped 64-32 hidden sizes.
///
/// The cache key covers the *content* of the training dataset plus every
/// hyper-parameter and the architecture, so any change to data collection,
/// training, or the model invalidates old entries automatically.
#[must_use]
pub fn trained_baseline_cached(cache: &ArtifactCache, seed: u64, spec: ModelSpec) -> LstmPredictor {
    eprintln!("[ml] collecting fault-free training episodes…");
    let data = collect_training_data(seed, 1, 25);
    let tc = baseline_train_config();
    let key = Fingerprint::new()
        .write_str("lstm-baseline-v3")
        .write_u64(seed)
        .write(&spec)
        .write(&tc)
        .write_u64(fingerprint_dataset(&data).value());
    let decode = |bytes: &[u8]| {
        LstmPredictor::from_bytes(bytes)
            .ok()
            .filter(|m| m.spec() == spec)
    };
    if let Some(model) = cache.load_decoded("model", key, decode) {
        eprintln!("[ml] loaded trained weights from cache ({key})");
        return model;
    }
    eprintln!("[ml] {} windows collected; training {spec:?}…", data.len());
    let mut model = LstmPredictor::new(spec);
    let report = train(&mut model, &data, &tc);
    eprintln!(
        "[ml] training losses per epoch: {:?}",
        report
            .epoch_loss
            .iter()
            .map(|l| (l * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    cache.store("model", key, &model.to_bytes());
    model
}

/// Wall-clock phase accounting for a harness run, emitted as
/// `results/BENCH_campaign.json` (total and per-phase seconds + runs +
/// runs/sec, worker threads, lockstep batch width and lane occupancy,
/// cache counters).
#[derive(Debug)]
pub struct PhaseTimer {
    started: Instant,
    phases: Vec<(String, f64, u64)>,
    current: Option<(String, Instant, u64)>,
    executed_runs: u64,
    trace: Option<(String, u64, u64)>,
}

impl PhaseTimer {
    /// Starts the clock (and zeroes the process-wide batch-occupancy
    /// counters, so the emitted occupancy covers exactly this harness run).
    #[must_use]
    pub fn new() -> Self {
        adas_core::batch::reset_stats();
        Self {
            started: Instant::now(),
            phases: Vec::new(),
            current: None,
            executed_runs: 0,
            trace: None,
        }
    }

    /// Records flight-recorder activity for the emitted JSON: the policy
    /// mode label plus how many runs were recorded and how many traces were
    /// persisted. Together with `total_wall_s` from a traced vs. untraced
    /// invocation this documents the recording overhead.
    pub fn set_trace_info(&mut self, mode: &str, runs_recorded: u64, traces_persisted: u64) {
        self.trace = Some((mode.to_owned(), runs_recorded, traces_persisted));
    }

    fn close_current(&mut self) {
        if let Some((name, since, runs_at_start)) = self.current.take() {
            self.phases.push((
                name,
                since.elapsed().as_secs_f64(),
                self.executed_runs - runs_at_start,
            ));
        }
    }

    /// Ends the running phase (if any) and starts a new one.
    pub fn phase(&mut self, name: &str) {
        self.close_current();
        self.current = Some((name.to_owned(), Instant::now(), self.executed_runs));
    }

    /// Records `n` simulation runs actually executed (cache hits don't
    /// count — runs/sec measures the executor, not the cache).
    pub fn add_runs(&mut self, n: u64) {
        self.executed_runs += n;
    }

    /// Closes the running phase and writes `BENCH_campaign.json` under
    /// `results/`.
    pub fn finish(mut self, cache: &ArtifactCache) {
        self.close_current();
        let total = self.started.elapsed().as_secs_f64();
        let runs_per_sec = if total > 0.0 {
            self.executed_runs as f64 / total
        } else {
            0.0
        };
        let stats = cache.stats();
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"total_wall_s\": {total:.3},\n"));
        json.push_str(&format!("  \"executed_runs\": {},\n", self.executed_runs));
        json.push_str(&format!("  \"runs_per_sec\": {runs_per_sec:.2},\n"));
        json.push_str(&format!(
            "  \"threads\": {},\n",
            adas_core::parallel::thread_count(usize::MAX)
        ));
        let batch = adas_core::batch::stats_snapshot();
        json.push_str(&format!(
            "  \"batch\": {{ \"width\": {}, \"ticks\": {}, \"lane_steps\": {}, \
             \"slot_steps\": {}, \"occupancy\": {} }},\n",
            adas_core::parallel::batch_width(),
            batch.ticks,
            batch.lane_steps,
            batch.slot_steps,
            batch
                .occupancy()
                .map_or_else(|| "null".to_owned(), |o| format!("{o:.4}")),
        ));
        json.push_str(&format!(
            "  \"cache\": {{ \"enabled\": {}, \"hits\": {}, \"misses\": {}, \"writes\": {}, \
             \"bypasses\": {} }},\n",
            cache.is_enabled(),
            stats.hits,
            stats.misses,
            stats.writes,
            stats.bypasses
        ));
        if let Some((mode, recorded, persisted)) = &self.trace {
            json.push_str(&format!(
                "  \"trace\": {{ \"mode\": \"{mode}\", \"runs_recorded\": {recorded}, \
                 \"traces_persisted\": {persisted} }},\n"
            ));
        }
        json.push_str("  \"phases\": [\n");
        let n = self.phases.len();
        for (i, (name, secs, runs)) in self.phases.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let escaped: String = name
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    _ => vec![c],
                })
                .collect();
            let phase_rps = if *secs > 0.0 {
                *runs as f64 / secs
            } else {
                0.0
            };
            json.push_str(&format!(
                "    {{ \"name\": \"{escaped}\", \"wall_s\": {secs:.3}, \"runs\": {runs}, \
                 \"runs_per_sec\": {phase_rps:.2} }}{comma}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        write_results_file("BENCH_campaign.json", &json);
    }
}

impl Default for PhaseTimer {
    fn default() -> Self {
        Self::new()
    }
}

/// Paper reference values for comparisons printed by the harnesses.
pub mod paper {
    /// Table IV rows: (scenario, hazards/20, accidents/20, following
    /// distance m, hard brake %, min TTC s, t_fcw s).
    pub const TABLE_IV: [(&str, u32, u32, f64, f64, f64, f64); 6] = [
        ("S1", 1, 0, 26.02, 32.7, 5.70, 4.42),
        ("S2", 1, 0, 29.15, 15.7, 5.27, 4.38),
        ("S3", 2, 1, 29.88, 46.7, 3.71, 4.39),
        ("S4", 10, 10, 23.72, 86.7, 0.85, 3.24),
        ("S5", 2, 1, 29.42, 58.0, 2.33, 3.90),
        ("S6", 3, 0, 28.15, 30.3, 5.44, 4.46),
    ];

    /// Table V: minimal distance to lane lines per scenario, metres.
    pub const TABLE_V: [(&str, f64); 6] = [
        ("S1", 0.45),
        ("S2", 0.49),
        ("S3", 0.07),
        ("S4", 0.63),
        ("S5", 0.44),
        ("S6", 0.59),
    ];

    /// Table VI reference: (fault, row label, A1 %, A2 %, prevented %).
    pub const TABLE_VI: [(&str, &str, f64, f64, f64); 24] = [
        ("Relative Distance", "None", 82.50, 17.50, 0.0),
        ("Relative Distance", "Driver+Check", 55.00, 0.0, 45.00),
        (
            "Relative Distance",
            "Driver+Check+AEB-Comp",
            49.17,
            0.0,
            50.83,
        ),
        (
            "Relative Distance",
            "Driver+Check+AEB-Indep",
            0.0,
            0.0,
            100.0,
        ),
        ("Relative Distance", "AEB-Comp", 80.83, 0.0, 19.17),
        ("Relative Distance", "AEB-Indep", 0.0, 0.0, 100.0),
        ("Relative Distance", "Driver", 51.17, 0.83, 40.00),
        ("Relative Distance", "ML", 1.67, 65.83, 32.50),
        ("Desired Curvature", "None", 0.0, 100.0, 0.0),
        ("Desired Curvature", "Driver+Check", 0.0, 54.17, 45.83),
        (
            "Desired Curvature",
            "Driver+Check+AEB-Comp",
            0.0,
            52.72,
            47.27,
        ),
        (
            "Desired Curvature",
            "Driver+Check+AEB-Indep",
            0.0,
            46.67,
            53.33,
        ),
        ("Desired Curvature", "AEB-Comp", 0.0, 60.0, 40.00),
        ("Desired Curvature", "AEB-Indep", 0.0, 59.17, 40.83),
        ("Desired Curvature", "Driver", 0.0, 51.67, 48.33),
        ("Desired Curvature", "ML", 0.0, 60.0, 40.00),
        ("Mixed", "None", 4.17, 95.83, 0.0),
        ("Mixed", "Driver+Check", 7.50, 54.17, 38.33),
        ("Mixed", "Driver+Check+AEB-Comp", 8.33, 41.67, 50.00),
        ("Mixed", "Driver+Check+AEB-Indep", 0.0, 48.33, 51.67),
        ("Mixed", "AEB-Comp", 6.67, 67.50, 25.83),
        ("Mixed", "AEB-Indep", 0.0, 58.33, 41.67),
        ("Mixed", "Driver", 8.33, 22.50, 69.17),
        ("Mixed", "ML", 0.0, 76.92, 23.08),
    ];

    /// Table VII: prevention rate (%) vs driver reaction time, per fault
    /// type, reaction times 1.0–3.5 s.
    pub const TABLE_VII_TIMES: [f64; 6] = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5];

    /// Table VII reference rows.
    pub const TABLE_VII: [(&str, [f64; 6]); 3] = [
        ("Relative Distance", [53.33, 55.0, 55.0, 40.0, 43.33, 41.67]),
        (
            "Desired Curvature",
            [77.50, 55.83, 58.11, 48.33, 52.50, 40.00],
        ),
        ("Mixed", [70.83, 70.00, 68.33, 69.17, 60.83, 53.33]),
    ];

    /// Table VIII reference: hazard prevention (%) vs road friction
    /// (default, 25 % off, 50 % off, 75 % off).
    pub const TABLE_VIII: [(&str, [f64; 4]); 2] = [
        ("Relative Distance", [50.83, 51.65, 47.50, 43.33]),
        ("Curvature/Lateral", [47.27, 44.17, 45.83, 18.33]),
    ];
}

/// Writes `contents` under `results/` (created on demand) and logs the path.
pub fn write_results_file(name: &str, contents: &str) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[warn] cannot create results dir: {e}");
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => eprintln!("[out] wrote {}", path.display()),
        Err(e) => eprintln!("[warn] cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_vi_rows_complete() {
        assert_eq!(paper::TABLE_VI.len(), 24);
        // Every fault type has 8 rows.
        for fault in ["Relative Distance", "Desired Curvature", "Mixed"] {
            assert_eq!(
                paper::TABLE_VI.iter().filter(|r| r.0 == fault).count(),
                8,
                "{fault}"
            );
        }
    }

    #[test]
    fn paper_percentages_roughly_partition() {
        // A few of the paper's own rows do not sum exactly to 100 %
        // (e.g. Relative Distance / Driver: 51.17 + 0.83 + 40.00 = 92).
        // Sanity-check the transcription stays within plausible bounds.
        for (fault, row, a1, a2, prev) in paper::TABLE_VI {
            let sum = a1 + a2 + prev;
            assert!((85.0..=101.0).contains(&sum), "{fault}/{row}: {sum}");
        }
    }

    #[test]
    fn reps_default() {
        assert_eq!(REPS, 10);
    }
}
