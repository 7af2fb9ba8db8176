//! Characterises the PANDA −3.5 m/s² accel-clamp defect.
//!
//! Two passes, both deterministic:
//!
//! 1. **Farm sweep** — a multi-session fuzz job (the exact code path a
//!    `SubmitFuzz` submission runs on a worker: [`farm::run_session`] per
//!    seed, [`farm::fold`] for fleet-wide dedup) over a bigger budget than
//!    the quick default, reporting every deduped finding whose differential
//!    rerun blames the `safety-check` channel — i.e. runs where the clamp
//!    *caused* the accident it guards against. `--repros DIR` persists the
//!    shrunk clamp repros exactly as the farm coordinator would.
//!
//! 2. **Envelope grid** — the same differential the intervention-regression
//!    oracle runs (severity with the check vs. with it ablated), swept over
//!    ego-speed offset × road friction on the canonical defect cell
//!    (S4/Near, Driver+Check, no attack). The printed map is the defect
//!    envelope quoted in EXPERIMENTS.md.
//!
//! ```bash
//! cargo run --release -p adas-fuzz --example clamp_envelope
//! cargo run --release -p adas-fuzz --example clamp_envelope -- --repros /tmp/clamp
//! ```

use adas_fuzz::case::{run_case_with, FuzzCase};
use adas_fuzz::farm::{self, FuzzJobSpec};
use adas_fuzz::{severity, OracleKind};
use adas_scenarios::{InitialPosition, ScenarioId};

/// First session seed of the sweep; chosen once, then pinned so the
/// committed repros (file stems include the seed) stay reproducible.
const SWEEP_SEED: u64 = 8_082_100;
/// Sessions in the sweep (seeds `SWEEP_SEED..SWEEP_SEED + SESSIONS`).
const SESSIONS: usize = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let repro_dir = args
        .iter()
        .position(|a| a == "--repros")
        .map(|i| args.get(i + 1).expect("--repros needs a directory").clone());

    // Pass 1: the SubmitFuzz-shaped sweep. No time box — the envelope
    // must not depend on the machine's clock.
    let spec = FuzzJobSpec {
        seeds: (0..SESSIONS as u64).map(|i| SWEEP_SEED + i).collect(),
        max_runs: 900,
        batch: 24,
        shrink_steps: 8,
        max_secs_ms: 0,
    };
    println!(
        "farm sweep: {} sessions x {} runs (seeds {}..{})",
        spec.seeds.len(),
        spec.max_runs,
        SWEEP_SEED,
        SWEEP_SEED + SESSIONS as u64
    );
    let outcomes: Vec<_> = spec
        .seeds
        .iter()
        .map(|&seed| {
            let o = farm::run_session(&spec, seed);
            println!(
                "  session {seed}: {} runs · corpus {} · {} findings",
                o.runs,
                o.corpus,
                o.findings.len()
            );
            o
        })
        .collect();
    let summary = farm::fold(&spec, &outcomes);
    println!(
        "\nfolded: {} runs · {} deduped findings ({} dedup hits)",
        summary.runs,
        summary.findings.len(),
        summary.dedup_hits
    );
    for (oracle, n) in OracleKind::ALL.iter().zip(summary.by_oracle()) {
        if n > 0 {
            println!("  {:<24} {n}", oracle.name());
        }
    }

    // The clamp defect shows up as the differential oracle blaming the
    // safety-check channel: severity is *lower* with the check ablated.
    let clamp: Vec<_> = summary
        .findings
        .iter()
        .filter(|f| {
            f.oracle == OracleKind::InterventionRegression && f.detail.contains("safety-check")
        })
        .collect();
    println!("\nclamp-blamed findings ({}):", clamp.len());
    for f in &clamp {
        println!(
            "  seed {} sig {} {} — d_v={:+.2} m/s mu={:.2} rep {}\n    {}",
            f.session_seed,
            f.signature,
            f.shrunk.label(),
            f.shrunk.ego_speed_delta,
            f.shrunk.friction,
            f.shrunk.repetition,
            f.detail
        );
    }
    if let Some(dir) = repro_dir {
        let owned: Vec<_> = clamp.iter().map(|f| (*f).clone()).collect();
        let paths = farm::save_repros(&owned, dir.as_ref()).expect("persist repros");
        println!("\nwrote {} repros under {dir}", paths.len());
    }

    // Pass 2: the envelope grid. Same differential as the oracle, on the
    // canonical cell: S4/Near (lead brakes to a stop), Driver+Check
    // (iv_row 1), no attack — the defect needs no adversary at all.
    println!("\nenvelope: S4/Near Driver+Check, benign, severity(with check) > severity(without)");
    println!("rows: ego_speed_delta -8..+8 m/s · cols: friction 0.20..1.00 ('#' = defect fires)\n");
    let mut fired = Vec::new();
    print!("        ");
    for c in 0..=16 {
        print!("{}", if c % 4 == 0 { 'v' } else { ' ' });
    }
    println!("  (mu 0.20, 0.40, 0.60, 0.80, 1.00)");
    for r in (-16..=16).rev() {
        let dv = f64::from(r) * 0.5;
        print!("  {dv:+5.1}  ");
        for c in 0..=16 {
            let mu = 0.2 + f64::from(c) * 0.05;
            let mut case = FuzzCase::baseline(ScenarioId::S4, InitialPosition::Near, 1, None);
            case.ego_speed_delta = dv;
            case.friction = mu;
            let with_check = case.config();
            let mut without = with_check;
            without.interventions.safety_check = false;
            let (base, _) = run_case_with(&case, SWEEP_SEED, &with_check);
            let (ablated, _) = run_case_with(&case, SWEEP_SEED, &without);
            if severity(&base) > severity(&ablated) {
                fired.push((dv, mu));
                print!("#");
            } else {
                print!(".");
            }
        }
        println!();
    }
    if fired.is_empty() {
        println!("\nthe defect never fired on the grid");
        return;
    }
    let (dv_min, dv_max) = fired
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &(dv, _)| {
            (lo.min(dv), hi.max(dv))
        });
    let (mu_min, mu_max) = fired
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &(_, mu)| {
            (lo.min(mu), hi.max(mu))
        });
    println!(
        "\ndefect envelope: {} / {} grid points · ego_speed_delta in [{dv_min:+.1}, {dv_max:+.1}] m/s \
         · friction in [{mu_min:.2}, {mu_max:.2}]",
        fired.len(),
        33 * 17,
    );
}
