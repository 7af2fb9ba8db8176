//! `adas-store` — CLI over a columnar results store directory.
//!
//! ```text
//! adas-store synth   --dir results/store --cells 1000000 --seed 2025
//! adas-store query   --dir results/store --by fault,iv
//! adas-store verify  --dir results/store
//! adas-store compact --dir results/store
//! adas-store findings --dir results/store
//! ```
//!
//! The directory defaults to `ADAS_STORE_DIR`, then `results/store`.

use adas_store::{agg, synth, GroupBy, RecordKind, Store, StoreError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: adas-store <synth|query|verify|compact|findings> [options]\n\
         \n\
         common:\n\
           --dir <path>        store directory (default $ADAS_STORE_DIR or results/store)\n\
         synth:\n\
           --cells <n>         synthetic cell rows to append (default 0)\n\
           --findings <n>      synthetic finding rows to append (default 0)\n\
           --seed <u64>        generator seed (default 2025)\n\
         query:\n\
           --by <axes>         comma list of scenario,position,fault,iv,mitigation,sched\n\
           --out <path>        write CSV there instead of stdout"
    );
    ExitCode::from(2)
}

struct Opts {
    dir: PathBuf,
    by: String,
    out: Option<PathBuf>,
    cells: u64,
    findings: u64,
    seed: u64,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        dir: adas_store::dir_from_env().unwrap_or_else(|| PathBuf::from("results/store")),
        by: String::new(),
        out: None,
        cells: 0,
        findings: 0,
        seed: 2025,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            "--by" => opts.by = value("--by")?,
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--cells" => {
                opts.cells = value("--cells")?
                    .parse()
                    .map_err(|e| format!("--cells: {e}"))?;
            }
            "--findings" => {
                opts.findings = value("--findings")?
                    .parse()
                    .map_err(|e| format!("--findings: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(verb) = args.first() else {
        return usage();
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("adas-store: {e}");
            return usage();
        }
    };
    let result = match verb.as_str() {
        "synth" => cmd_synth(&opts),
        "query" => cmd_query(&opts),
        "verify" => cmd_verify(&opts),
        "compact" => cmd_compact(&opts),
        "findings" => cmd_findings(&opts),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("adas-store: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_synth(opts: &Opts) -> Result<ExitCode, StoreError> {
    let store = Store::open(&opts.dir)?;
    // Append in bounded batches so a million-row synth never holds the
    // whole load in memory either.
    const BATCH: u64 = 100_000;
    let mut written = 0u64;
    let mut batch_seed = opts.seed;
    if opts.cells > 0 {
        let mut w = store.create_segment(RecordKind::Cell)?;
        while written < opts.cells {
            let n = BATCH.min(opts.cells - written);
            w.append_bytes(&adas_store::record::encode_cells(&synth::cells(
                batch_seed, n,
            )))?;
            written += n;
            batch_seed = batch_seed.wrapping_add(1);
        }
        let total = w.finish()?;
        println!("synth: wrote {total} cell rows");
    }
    if opts.findings > 0 {
        let mut w = store.create_segment(RecordKind::Finding)?;
        let mut left = opts.findings;
        let mut fseed = opts.seed;
        while left > 0 {
            let n = BATCH.min(left);
            w.append_bytes(&adas_store::record::encode_findings(&synth::findings(
                fseed, n,
            )))?;
            left -= n;
            fseed = fseed.wrapping_add(1);
        }
        let total = w.finish()?;
        println!("synth: wrote {total} finding rows");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(opts: &Opts) -> Result<ExitCode, StoreError> {
    let store = Store::open(&opts.dir)?;
    let by = GroupBy::parse(&opts.by)?;
    let (groups, reports) = agg::aggregate(&store, &by)?;
    let text = agg::render(&by, &groups);
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| StoreError::io(path, &e))?;
            println!("query: {} groups -> {}", groups.len(), path.display());
        }
        None => print!("{text}"),
    }
    let damaged: u64 = reports.iter().map(|r| r.corrupt_blocks).sum();
    let truncated = reports.iter().filter(|r| r.truncated).count();
    if damaged > 0 || truncated > 0 {
        eprintln!(
            "query: note: recovered past {damaged} damaged block(s), {truncated} truncated segment(s)"
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(opts: &Opts) -> Result<ExitCode, StoreError> {
    let store = Store::open(&opts.dir)?;
    let report = store.verify()?;
    for seg in &report.segments {
        println!(
            "{}: {} blocks, {} records{}{}",
            seg.path.display(),
            seg.blocks,
            seg.records,
            if seg.corrupt_blocks > 0 {
                format!(", {} corrupt block(s)", seg.corrupt_blocks)
            } else {
                String::new()
            },
            if seg.truncated {
                ", truncated tail"
            } else {
                ""
            },
        );
    }
    println!(
        "verify: {} segment(s), {} intact records, {}",
        report.segments.len(),
        report.records(),
        if report.clean() { "clean" } else { "DAMAGED" }
    );
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compact(opts: &Opts) -> Result<ExitCode, StoreError> {
    let store = Store::open(&opts.dir)?;
    for kind in [RecordKind::Cell, RecordKind::Finding] {
        let n = store.compact(kind)?;
        println!("compact: {} -> {n} records", kind.prefix());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_findings(opts: &Opts) -> Result<ExitCode, StoreError> {
    let store = Store::open(&opts.dir)?;
    let mut by_oracle: BTreeMap<u8, u64> = BTreeMap::new();
    let mut total = 0u64;
    store.scan_findings(|f| {
        *by_oracle.entry(f.oracle).or_default() += 1;
        total += 1;
    })?;
    println!("oracle,findings");
    for (oracle, n) in &by_oracle {
        println!("{oracle},{n}");
    }
    println!("total,{total}");
    Ok(ExitCode::SUCCESS)
}
