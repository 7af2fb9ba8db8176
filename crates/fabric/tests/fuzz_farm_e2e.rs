//! End-to-end fuzz-farm tests: the fleet-wide deduped finding set (and
//! every shrunk repro's bytes) is invariant under worker count, shard
//! routing, and a worker SIGKILLed mid-job — a 4-worker farm folds to
//! exactly what one in-process fold of the same seeds produces.

use adas_core::ArtifactCache;
use adas_fabric::{Coordinator, CoordinatorServer, FabricConfig};
use adas_fuzz::farm::{self, FuzzJobSpec, SessionOutcome};
use adas_serve::{Client, JobState, Server, ServerConfig, Submission};
use std::io::BufRead;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adas-farm-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_worker(name: &str) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 8,
        cache: ArtifactCache::disabled(),
        trace_dir: tmp_dir(name),
        model_spec: adas_ml::ModelSpec::default(),
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn stop_worker(addr: &str, handle: thread::JoinHandle<std::io::Result<()>>) {
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    handle.join().expect("join").expect("clean exit");
}

fn fabric_config(workers: Vec<String>) -> FabricConfig {
    FabricConfig {
        workers,
        heartbeat: Duration::from_millis(250),
        deadline: Duration::from_secs(60),
        vnodes: 64,
        admit: 4,
        epoch: 1,
    }
}

/// Six quick sessions, no time box (the determinism suite never
/// time-boxes: a wall-clock cutoff would make the *set of seeds that
/// finish their budget* machine-dependent).
fn farm_spec() -> FuzzJobSpec {
    FuzzJobSpec::quick(8_082_025, 6)
}

#[test]
fn deduped_findings_are_worker_count_invariant() {
    let spec = farm_spec();

    // Reference: every session in-process, folded in global seed order.
    let direct: Vec<SessionOutcome> = spec
        .seeds
        .iter()
        .map(|&s| farm::run_session(&spec, s))
        .collect();
    let reference = farm::fold(&spec, &direct);
    assert!(
        !reference.findings.is_empty(),
        "the quick budget must surface at least one finding for this test to mean anything"
    );
    assert!(
        reference.dedup_hits > 0,
        "sessions must rediscover each other's findings so dedup is exercised"
    );

    // Single daemon over the wire.
    let (solo_addr, solo) = start_worker("fuzz-solo");
    let mut client = Client::connect(&solo_addr).expect("connect solo");
    let accepted = client.submit_fuzz(&spec).expect("protocol ok");
    let Submission::Accepted { cells, .. } = accepted else {
        panic!("daemon rejected the fuzz job: {accepted:?}");
    };
    assert_eq!(cells as usize, spec.seeds.len());
    let (solo_outcomes, state) = client.stream_fuzz(|_| {}).expect("stream");
    assert_eq!(state, JobState::Done);
    stop_worker(&solo_addr, solo);
    let solo_summary = farm::fold(&spec, &solo_outcomes);
    assert_eq!(
        solo_summary.findings, reference.findings,
        "single-daemon findings must be bit-identical to the in-process fold"
    );

    // Four-worker fabric through the Coordinator API.
    let fleet: Vec<(String, _)> = (0..4)
        .map(|i| start_worker(&format!("fuzz-w{i}")))
        .collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.clone()).collect();
    let coordinator = Coordinator::connect(&fabric_config(addrs.clone())).expect("connect fleet");
    let emitted = std::sync::Mutex::new(Vec::new());
    let summary = coordinator
        .run_fuzz_farm(&spec, |o| emitted.lock().unwrap().push(o.seed))
        .expect("sharded fuzz farm");
    assert_eq!(
        summary.findings, reference.findings,
        "sharded findings (incl. shrunk cases and trace bytes) must not drift"
    );
    assert_eq!(summary.sessions, spec.seeds.len() as u64);
    assert_eq!(summary.dedup_hits, reference.dedup_hits);
    assert_eq!(
        *emitted.lock().unwrap(),
        spec.seeds,
        "sessions must stream in global seed order, never arrival order"
    );
    coordinator.fleet.stop();

    // The TCP front-end: a stock client sees the usual Accepted →
    // FuzzResult* → JobDone stream and can reproduce the fold itself.
    let front_coordinator =
        Coordinator::connect(&fabric_config(addrs)).expect("connect fleet for front");
    let front = CoordinatorServer::bind("127.0.0.1:0", front_coordinator, 4).expect("bind front");
    let front_addr = front.local_addr().expect("front addr").to_string();
    let front_thread = thread::spawn(move || front.run());
    let mut client = Client::connect(&front_addr).expect("connect front");
    let accepted = client.submit_fuzz(&spec).expect("protocol ok");
    assert!(
        matches!(accepted, Submission::Accepted { .. }),
        "{accepted:?}"
    );
    let (front_outcomes, state) = client.stream_fuzz(|_| {}).expect("stream front");
    assert_eq!(state, JobState::Done);
    let front_summary = farm::fold(&spec, &front_outcomes);
    assert_eq!(
        front_summary.findings, reference.findings,
        "front-end run must not drift"
    );

    let metrics = client.metrics().expect("front metrics");
    assert!(metrics.contains("\"fuzz\""), "{metrics}");
    client.shutdown().expect("front shutdown");
    front_thread.join().expect("join").expect("front exits");

    for (addr, handle) in fleet {
        stop_worker(&addr, handle);
    }
}

#[test]
fn killed_worker_sessions_are_redispatched_deterministically() {
    let exe = env!("CARGO_BIN_EXE_adas-serve");
    let spawn = |name: &str| {
        let mut child = std::process::Command::new(exe)
            .args(["worker", "--addr", "127.0.0.1:0", "--queue", "8"])
            .env("ADAS_CACHE", "off")
            .env("ADAS_TRACE_DIR", tmp_dir(name))
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn worker process");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = std::io::BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("worker exited before listening")
                .expect("read stderr");
            if let Some(rest) = line.strip_prefix("[serve] listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("addr token")
                    .to_string();
            }
        };
        thread::spawn(move || for _ in lines {});
        (child, addr)
    };
    let (mut victim, victim_addr) = spawn("fuzz-victim");
    let (mut survivor, survivor_addr) = spawn("fuzz-survivor");

    let spec = farm_spec();
    let direct: Vec<SessionOutcome> = spec
        .seeds
        .iter()
        .map(|&s| farm::run_session(&spec, s))
        .collect();
    let reference = farm::fold(&spec, &direct);

    let mut config = fabric_config(vec![victim_addr, survivor_addr.clone()]);
    config.heartbeat = Duration::from_millis(150);
    let coordinator = Coordinator::connect(&config).expect("connect fleet");
    assert_eq!(coordinator.fleet.live_slots().len(), 2);

    // SIGKILL the victim when the first session lands: its remaining
    // seeds must re-dispatch to the survivor and fold identically.
    let first = std::sync::atomic::AtomicBool::new(true);
    let summary = coordinator
        .run_fuzz_farm(&spec, |_| {
            if first.swap(false, std::sync::atomic::Ordering::Relaxed) {
                victim.kill().expect("kill victim worker");
            }
        })
        .expect("farm must survive the kill");
    assert_eq!(
        summary.findings, reference.findings,
        "re-dispatched sessions must fold to the same deduped finding set"
    );
    assert_eq!(summary.sessions, spec.seeds.len() as u64);
    coordinator.fleet.stop();

    let _ = victim.wait();
    if let Ok(mut c) = Client::connect(&survivor_addr) {
        let _ = c.shutdown();
    }
    let _ = survivor.wait();
}
