//! `serve-mixed`: an in-process fabric coordinator in front of two worker
//! daemons on loopback (disk cache tier and store write-through on), with
//! two closed-loop clients submitting Table VI-style campaigns that
//! include the ML row — each on a fresh connection, as
//! `adas-serve client submit` does. About nine in ten campaigns are fully
//! warm (memoised during set-up); the rest carry one fresh cell that
//! varies the driver reaction time, never the campaign seed (the resident
//! models are keyed by seed, and a new seed would retrain).

use super::{mean_us, mix, ratio, timed, units_for, Ctx, Window};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use adas_attack::FaultType;
use adas_bench::{model_fingerprint, trained_baseline_cached, CAMPAIGN_SEED};
use adas_core::job::CellSpec;
use adas_core::{ArtifactCache, CampaignSpec, CellStats, InterventionConfig, ModelSpec};
use adas_fabric::{Coordinator, CoordinatorServer, FabricConfig, Fleet};
use adas_ml::LstmPredictor;
use adas_serve::{Client, JobState, Server, ServerConfig, Submission};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker daemons in the fleet.
const WORKERS: usize = 2;

/// Closed-loop clients (one connection each at a time).
const CLIENTS: usize = 2;

/// Scenario subset of every campaign: S1 + S4.
const SCENARIO_MASK: u8 = 0b00_1001;

/// Per-run step cap of every campaign (15 s of simulated driving).
const MAX_STEPS: u32 = 1500;

/// Seconds one campaign takes on the reference machine, per client pair
/// (two clients with think time complete ~50 campaigns/s).
const CAMPAIGN_S: f64 = 1.0 / 50.0;

/// Highest latency tail level reported (500 campaigns in a 10 s window).
const MAX_TAIL: f64 = 0.95;

/// One in this many campaigns carries a fresh cell.
const FRESH_ONE_IN: u64 = 10;

/// Upper bound of a client's think time before each campaign, µs: one
/// period of the coordinator's accept poll, so arrivals fall at random
/// phases of the polls instead of locking to them.
const THINK_MAX_US: u64 = 20_000;

/// Admission limit of the coordinator (above the client count: no
/// rejection is expected).
const ADMIT: usize = 4;

fn spec(cells: Vec<CellSpec>) -> CampaignSpec {
    CampaignSpec {
        max_steps: MAX_STEPS,
        scenario_mask: SCENARIO_MASK,
        ..CampaignSpec::new(CAMPAIGN_SEED, 1, cells)
    }
}

/// The three warm campaigns: one fault's eight Table VI rows each.
fn warm_specs() -> Vec<CampaignSpec> {
    FaultType::ALL
        .into_iter()
        .map(|f| {
            spec(
                InterventionConfig::table_vi_rows()
                    .into_iter()
                    .map(|iv| CellSpec {
                        fault: Some(f),
                        interventions: iv,
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The campaign sequence the clients draw from, in order, each with
/// whether it carries a fresh cell.
fn plan(ctx: &Ctx, len: usize) -> (Vec<CampaignSpec>, Vec<bool>) {
    let warm = warm_specs();
    let mut fresh = 0u64;
    (0..len as u64)
        .map(|i| {
            let r = mix(ctx.seed, 5000 + i);
            let mut s = warm[(r % warm.len() as u64) as usize].clone();
            if (r >> 16).is_multiple_of(FRESH_ONE_IN) {
                let plain: Vec<usize> = (0..s.cells.len())
                    .filter(|&c| !s.cells[c].interventions.ml)
                    .collect();
                let c = plain[((r >> 32) % plain.len() as u64) as usize];
                fresh += 1;
                s.cells[c].interventions.driver_reaction_time =
                    1.0 + fresh as f64 * 1e-4 + (ctx.seed % 1000) as f64 * 1e-7;
                return (s, true);
            }
            (s, false)
        })
        .unzip()
}

/// A running fleet: workers, coordinator front, and their threads.
struct Fabric {
    front: String,
    workers: Vec<String>,
    fleet: Arc<Fleet>,
    threads: Vec<JoinHandle<()>>,
}

impl Fabric {
    fn start(
        cache_root: &Path,
        store_dir: &Path,
        prep: &Path,
        spec: ModelSpec,
    ) -> Result<Self, String> {
        // Workers and coordinator read the store write-through target from
        // the environment at construction; it is cleared once they exist.
        std::env::set_var(adas_store::STORE_DIR_ENV, store_dir);
        let mut workers = Vec::new();
        let mut threads = Vec::new();
        for w in 0..WORKERS {
            let dir = cache_root.join(format!("worker-{w}"));
            copy_files(prep, &dir)?;
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                queue_capacity: 2 * ADMIT,
                cache: ArtifactCache::at(&dir),
                trace_dir: cache_root.join("traces"),
                model_spec: spec,
            })
            .map_err(|e| format!("bind worker: {e}"))?;
            workers.push(server.local_addr().map_err(|e| e.to_string())?.to_string());
            threads.push(std::thread::spawn(move || {
                let _ = server.run();
            }));
        }
        let coordinator = Coordinator::connect(&FabricConfig {
            workers: workers.clone(),
            heartbeat: Duration::from_millis(500),
            deadline: Duration::from_secs(60),
            vnodes: 64,
            admit: ADMIT,
            epoch: 1,
        })
        .map_err(|e| format!("coordinator: {e}"))?;
        std::env::remove_var(adas_store::STORE_DIR_ENV);
        let fleet = Arc::clone(&coordinator.fleet);
        let front = CoordinatorServer::bind("127.0.0.1:0", coordinator, ADMIT)
            .map_err(|e| format!("bind coordinator: {e}"))?;
        let front_addr = front.local_addr().map_err(|e| e.to_string())?.to_string();
        threads.push(std::thread::spawn(move || {
            let _ = front.run();
        }));
        Ok(Self {
            front: front_addr,
            workers,
            fleet,
            threads,
        })
    }

    /// Shuts the front down, then every worker, and joins their threads.
    fn stop(self) {
        for addr in std::iter::once(&self.front).chain(&self.workers) {
            if let Ok(mut c) = Client::connect(addr) {
                let _ = c.shutdown();
            }
        }
        self.fleet.stop();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn copy_files(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let name = path.file_name().expect("a file has a name");
            std::fs::copy(&path, to.join(name)).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Expected statistics per cell key, computed directly (scalar
/// `run_single` per run, cells in parallel) for every cell the plan uses.
fn references(
    specs: &[CampaignSpec],
    model: &Arc<LstmPredictor>,
    model_fp: adas_core::Fingerprint,
) -> HashMap<u64, Vec<u8>> {
    let mut cells: Vec<(u64, CampaignSpec, CellSpec)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for s in specs {
        for c in &s.cells {
            let key = s
                .cell_key(c, c.interventions.ml.then_some(model_fp))
                .value();
            if seen.insert(key) {
                cells.push((key, s.clone(), *c));
            }
        }
    }
    let computed = adas_core::parallel::map(&cells, |_, (key, s, c)| {
        let config = s.config_for(c);
        let ml = c.interventions.ml.then_some(model);
        let records: Vec<_> = s
            .run_ids()
            .into_iter()
            .map(|id| adas_core::run_single(id, c.fault, &config, ml, s.campaign_seed))
            .collect();
        (*key, CellStats::from_records(&records).to_bytes())
    });
    computed.into_iter().collect()
}

/// One campaign as a client sees it.
#[derive(Debug, Default, Clone, Copy)]
struct Sample {
    ok: bool,
    latency_s: f64,
    submit_s: f64,
    first_cell_s: f64,
    stream_s: f64,
    cells: u64,
    runs: u64,
    retries: u64,
}

struct Served<'a> {
    refs: &'a HashMap<u64, Vec<u8>>,
    model_fp: adas_core::Fingerprint,
    tracer: &'a Tracer,
}

impl Served<'_> {
    /// Connect, submit (retrying admission rejections on the serve
    /// backoff schedule), stream to the last cell, check every cell.
    fn campaign(&self, addr: &str, spec: &CampaignSpec, seed: u64) -> Sample {
        let mut sample = Sample::default();
        let id = self.tracer.reserve();
        let t0 = Instant::now();
        let result =
            (|| -> Result<(), String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut attempt = 0u32;
                loop {
                    match client.submit(spec).map_err(|e| e.to_string())? {
                        Submission::Accepted { .. } => break,
                        Submission::Rejected {
                            retry_after_ms,
                            reason,
                        } => {
                            sample.retries += 1;
                            if retry_after_ms == 0 || attempt >= 16 {
                                return Err(format!("rejected: {reason}"));
                            }
                            std::thread::sleep(Duration::from_millis(
                                adas_serve::backoff::delay_ms(retry_after_ms, attempt, seed),
                            ));
                            attempt += 1;
                        }
                    }
                }
                let accepted = Instant::now();
                let mut first = None;
                let mut last = accepted;
                let (cells, state) = client
                    .stream_results(|_, _| {
                        let now = Instant::now();
                        first.get_or_insert(now);
                        last = now;
                    })
                    .map_err(|e| e.to_string())?;
                let first = first.unwrap_or(accepted);
                sample.latency_s = (last - t0).as_secs_f64();
                sample.submit_s = (accepted - t0).as_secs_f64();
                sample.first_cell_s = (first - accepted).as_secs_f64();
                sample.stream_s = (last - first).as_secs_f64();
                self.tracer.record(
                    self.tracer.reserve(),
                    "serve",
                    "connect_submit",
                    id,
                    t0,
                    accepted,
                );
                self.tracer.record(
                    self.tracer.reserve(),
                    "serve",
                    "first_cell",
                    id,
                    accepted,
                    first,
                );
                self.tracer
                    .record(self.tracer.reserve(), "serve", "stream", id, first, last);
                // The client's whole campaign, parent of the three serve
                // spans, which cover all of it: booked to the benchmark's
                // own layer, since the client cannot see where inside the
                // coordinator (fabric) or the workers (serve) time went.
                self.tracer.record(id, "bench", "campaign", None, t0, last);
                if state != JobState::Done || cells.len() != spec.cells.len() {
                    return Err(format!(
                        "{state:?} with {} of {} cells",
                        cells.len(),
                        spec.cells.len()
                    ));
                }
                for (index, stats) in &cells {
                    let cell = spec
                        .cells
                        .get(*index as usize)
                        .ok_or("cell index out of range")?;
                    let key = spec.cell_key(cell, cell.interventions.ml.then_some(self.model_fp));
                    if self.refs.get(&key.value()) != Some(&stats.to_bytes()) {
                        return Err(format!("cell {index} differs from the direct computation"));
                    }
                    sample.runs += stats.runs as u64;
                }
                sample.cells = cells.len() as u64;
                Ok(())
            })();
        if let Err(e) = &result {
            eprintln!("[perfbench] campaign failed: {e}");
        }
        sample.ok = result.is_ok();
        sample
    }
}

/// Two closed-loop clients draw every campaign of `plan`, in order, each
/// after a seeded think time.
fn measure(
    ctx: &Ctx,
    served: &Served<'_>,
    front: &str,
    plan: &[CampaignSpec],
) -> (Window, Vec<Sample>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= plan.len() {
                            break;
                        }
                        let r = mix(ctx.seed, i as u64);
                        std::thread::sleep(Duration::from_micros(r % THINK_MAX_US));
                        mine.push(served.campaign(front, &plan[i], r));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut window = Window {
        runs_wall: wall,
        cells_wall: wall,
        ..Window::default()
    };
    for s in samples.iter().filter(|s| s.ok) {
        window.runs += s.runs as f64;
        window.cells += s.cells as f64;
        window.latencies_ms.push(s.latency_s * 1e3);
    }
    (window, samples)
}

/// Sums a numeric field (`"key": N`) over metrics frames.
fn frame_sum(frames: &[String], key: &str) -> f64 {
    let needle = format!("\"{key}\": ");
    frames
        .iter()
        .filter_map(|f| {
            let rest = &f[f.find(&needle)? + needle.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().ok()
        })
        .sum()
}

fn frames(addrs: &[String]) -> Vec<String> {
    addrs
        .iter()
        .filter_map(|a| Client::connect(a).ok()?.metrics().ok())
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// Model preparation, socket binding and fleet start-up failures.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut model_spec = ModelSpec::default();
    if ctx.smoke {
        model_spec.hidden1 = 8;
        model_spec.hidden2 = 4;
    }
    // Untimed preparation: the benchmark-owned cache of trained weights
    // (trained on first use in a checkout, loaded afterwards).
    let prep = ctx.persist.join("model-cache");
    let model = Arc::new(trained_baseline_cached(
        &ArtifactCache::at(&prep),
        CAMPAIGN_SEED,
        model_spec,
    ));
    let model_fp = model_fingerprint(&model);
    // One plan segment per window: the traced window (if any) draws from
    // the second, so its fresh cells are fresh too.
    let segment = if ctx.smoke {
        12
    } else {
        units_for(ctx.seconds, CAMPAIGN_S)
    };
    let (plan, fresh) = plan(ctx, segment * (1 + usize::from(ctx.trace)));
    let refs = references(&plan, &model, model_fp);
    let served = Served {
        refs: &refs,
        model_fp,
        tracer: &Tracer::disabled(),
    };

    // Set-up: start the fleet and memoise the warm campaigns.
    let mut setup_s = Vec::new();
    let mut fabric = None;
    for s in 0..ctx.setups(super::SETUPS) {
        if let Some(f) = fabric.take() {
            Fabric::stop(f);
        }
        let root = ctx.work.join(format!("fleet-{s}"));
        let (started, secs) = timed(|| -> Result<Fabric, String> {
            let f = Fabric::start(&root, &root.join("store"), &prep, model_spec)?;
            for (i, w) in warm_specs().iter().enumerate() {
                let sample = served.campaign(&f.front, w, i as u64);
                out.check(sample.ok, || format!("warm-up campaign {i}"));
            }
            Ok(f)
        });
        fabric = Some(started?);
        setup_s.push(secs);
    }
    let fabric = fabric.expect("at least one set-up");

    let (window, samples) = measure(ctx, &served, &fabric.front, &plan[..segment]);
    for s in &samples {
        out.check(s.ok, || "served campaign".to_owned());
    }
    window.report(
        &mut out,
        &setup_s,
        "one campaign, connect to last cell",
        MAX_TAIL,
    );
    out.context_num("campaigns", samples.len() as f64);
    out.context_num(
        "fresh_campaigns",
        fresh[..segment].iter().filter(|&&f| f).count() as f64,
    );
    out.context_num("cells_per_campaign", plan[0].cells.len() as f64);

    if ctx.trace {
        let tracer = Tracer::enabled();
        let traced_served = Served {
            refs: &refs,
            model_fp,
            tracer: &tracer,
        };
        let before = frames(&fabric.workers);
        let coord_before = frames(std::slice::from_ref(&fabric.front));
        let (traced, traced_samples) =
            measure(ctx, &traced_served, &fabric.front, &plan[segment..]);
        let after = frames(&fabric.workers);
        let coord_after = frames(std::slice::from_ref(&fabric.front));
        for s in &traced_samples {
            out.check(s.ok, || "traced campaign".to_owned());
        }
        let delta = |k: &str| frame_sum(&after, k) - frame_sum(&before, k);
        let (memo, disk, computed) = (delta("memo_hits"), delta("disk_hits"), delta("computed"));
        out.set("serve.memo_hits", memo);
        out.set("serve.disk_hits", disk);
        out.set("serve.computed", computed);
        out.set("serve.memo_hit_ratio", ratio(memo, memo + disk + computed));
        out.set(
            "serve.retries",
            traced_samples.iter().map(|s| s.retries).sum::<u64>() as f64,
        );
        let cdelta = |k: &str| frame_sum(&coord_after, k) - frame_sum(&coord_before, k);
        out.set(
            "fabric.redispatched_cells",
            cdelta("assigned") - cdelta("merged"),
        );
        let spans = tracer.spans();
        out.set(
            "serve.submit_us",
            mean_us(&spans, "serve", "connect_submit"),
        );
        out.set(
            "serve.first_cell_us",
            mean_us(&spans, "serve", "first_cell"),
        );
        out.set("serve.stream_us", mean_us(&spans, "serve", "stream"));
        let untraced = Window {
            runs: window.cells,
            runs_wall: window.cells_wall,
            ..Window::default()
        };
        let traced_rate = Window {
            runs: traced.cells,
            runs_wall: traced.cells_wall,
            ..Window::default()
        };
        super::report_overhead(&mut out, &untraced, &traced_rate);
        probes(&mut out, &tracer, &fabric, &refs, &plan, &model, ctx)?;
        super::report_layers(&mut out, &tracer.spans());
    }
    Fabric::stop(fabric);
    Ok(out)
}

/// Per-layer probes after the traced window: fabric overhead against a
/// direct worker, and the core codec / key / cache calls on the
/// workload's own specs, cells and keys.
fn probes(
    out: &mut Outcome,
    tracer: &Tracer,
    fabric: &Fabric,
    refs: &HashMap<u64, Vec<u8>>,
    plan: &[CampaignSpec],
    model: &Arc<LstmPredictor>,
    ctx: &Ctx,
) -> Result<(), String> {
    let model_fp = model_fingerprint(model);
    let quiet = Served {
        refs,
        model_fp,
        tracer: &Tracer::disabled(),
    };
    let warm = &warm_specs()[0];
    // Fill the direct worker's memo with the cells routed to its peer.
    let _ = quiet.campaign(&fabric.workers[0], warm, 0);
    let (mut via, mut direct) = (Vec::new(), Vec::new());
    for i in 0..15 {
        let a = quiet.campaign(&fabric.front, warm, i);
        let b = quiet.campaign(&fabric.workers[0], warm, i);
        out.check(a.ok && b.ok, || "fabric overhead probe".to_owned());
        via.push(a.latency_s);
        direct.push(b.latency_s);
    }
    out.set(
        "fabric.overhead_us",
        (median(&via).unwrap_or(0.0) - median(&direct).unwrap_or(0.0)) * 1e6,
    );

    let specs = &plan[..plan.len().min(64)];
    for s in specs {
        for c in &s.cells {
            tracer.span("core", "CampaignSpec::cell_key", None, |_| {
                let fp = c.interventions.ml.then(|| model_fingerprint(model));
                std::hint::black_box(s.cell_key(c, fp))
            });
        }
        let bytes = tracer.span("core", "CampaignSpec::to_bytes", None, |_| s.to_bytes());
        let back = tracer.span("core", "CampaignSpec::from_bytes", None, |_| {
            CampaignSpec::from_bytes(&bytes)
        });
        out.check(back.as_ref() == Some(s), || {
            "CampaignSpec round trip".to_owned()
        });
    }
    let cache = ArtifactCache::at(ctx.work.join("probe-cache"));
    for (key, bytes) in refs {
        let stats = tracer.span("core", "CellStats::from_bytes", None, |_| {
            CellStats::from_bytes(bytes)
        });
        out.check(stats.is_some(), || "CellStats decode".to_owned());
        let fp = adas_core::Fingerprint::new().write_u64(*key);
        tracer.span("core", "ArtifactCache::store", None, |_| {
            cache.store("cell", fp, bytes)
        });
        let loaded = tracer.span("core", "ArtifactCache::load", None, |_| {
            cache.load("cell", fp)
        });
        out.check(loaded.as_ref() == Some(bytes), || {
            "artifact cache round trip".to_owned()
        });
    }
    let spans = tracer.spans();
    for (metric, name) in [
        ("core.cell_key_us", "CampaignSpec::cell_key"),
        ("core.spec_encode_us", "CampaignSpec::to_bytes"),
        ("core.spec_decode_us", "CampaignSpec::from_bytes"),
        ("core.cellstats_decode_us", "CellStats::from_bytes"),
        ("core.cache_store_us", "ArtifactCache::store"),
        ("core.cache_load_us", "ArtifactCache::load"),
    ] {
        out.set(metric, mean_us(&spans, "core", name));
    }
    Ok(())
}
