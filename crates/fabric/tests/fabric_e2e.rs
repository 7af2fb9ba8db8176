//! End-to-end fabric tests: a sharded campaign is bit-identical to the
//! direct `run_single` path and to a single-daemon run; a worker killed
//! mid-campaign (SIGKILL, no drain) loses no cells and produces no
//! duplicates; garbage byte streams never wedge the coordinator or a
//! worker; and a held-open connection never blocks either one's shutdown.

use adas_attack::FaultType;
use adas_core::job::CellSpec;
use adas_core::{run_single, ArtifactCache, CampaignSpec, CellStats, InterventionConfig};
use adas_fabric::{Coordinator, CoordinatorServer, FabricConfig};
use adas_scenarios::RunRecord;
use adas_serve::protocol::{recv_response, send_request};
use adas_serve::{Client, JobState, Request, Server, ServerConfig};
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adas-fabric-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Binds an in-process worker daemon on an ephemeral port.
fn start_worker(name: &str) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    start_worker_with_spec(name, adas_ml::ModelSpec::default())
}

fn start_worker_with_spec(
    name: &str,
    model_spec: adas_ml::ModelSpec,
) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 8,
        cache: ArtifactCache::disabled(),
        trace_dir: tmp_dir(name),
        model_spec,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn stop_worker(addr: &str, handle: thread::JoinHandle<std::io::Result<()>>) {
    Client::connect(addr).expect("connect").shutdown().expect("shutdown ack");
    handle.join().expect("join").expect("clean exit");
}

fn fabric_config(workers: Vec<String>) -> FabricConfig {
    FabricConfig {
        workers,
        heartbeat: Duration::from_millis(250),
        deadline: Duration::from_secs(30),
        vnodes: 64,
        admit: 4,
        epoch: 1,
    }
}

/// S1 + S4, short runs — small but non-trivial, five distinct cells so a
/// 4-worker ring almost surely splits the grid.
fn sharded_spec() -> CampaignSpec {
    CampaignSpec {
        campaign_seed: 8_082_025,
        repetitions: 2,
        max_steps: 1200,
        scenario_mask: 0b00_1001,
        attack: adas_attack::AttackScheduler::Immediate,
        cells: vec![
            CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::none(),
            },
            CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::driver_and_check(),
            },
            CellSpec {
                fault: Some(FaultType::DesiredCurvature),
                interventions: InterventionConfig::driver_only(),
            },
            CellSpec {
                fault: Some(FaultType::Mixed),
                interventions: InterventionConfig::driver_and_check(),
            },
            CellSpec {
                fault: None,
                interventions: InterventionConfig::none(),
            },
        ],
    }
}

/// The reference result: the same grid evaluated in-process through
/// `run_single`, serially, exactly as the CLI harnesses do.
fn direct_cell_bytes(spec: &CampaignSpec) -> Vec<Vec<u8>> {
    let ids = spec.run_ids();
    spec.cells
        .iter()
        .map(|cell| {
            let config = spec.config_for(cell);
            let records: Vec<RunRecord> = ids
                .iter()
                .map(|id| run_single(*id, cell.fault, &config, None, spec.campaign_seed))
                .collect();
            CellStats::from_records(&records).to_bytes()
        })
        .collect()
}

#[test]
fn sharded_campaign_bit_identical_to_direct_and_single_daemon() {
    let spec = sharded_spec();
    let reference = direct_cell_bytes(&spec);

    // Single daemon over the wire.
    let (solo_addr, solo) = start_worker("solo");
    let mut client = Client::connect(&solo_addr).expect("connect solo");
    let result = client
        .run_campaign(&spec, |_, _| {})
        .expect("protocol ok")
        .expect("accepted");
    assert_eq!(result.state, JobState::Done);
    let solo_bytes: Vec<Vec<u8>> =
        result.cells.iter().map(|(_, s)| s.to_bytes()).collect();
    stop_worker(&solo_addr, solo);
    assert_eq!(
        solo_bytes, reference,
        "single-daemon run must match the direct path"
    );

    // Four-worker fabric, driven through the Coordinator API.
    let fleet: Vec<(String, _)> = (0..4).map(|i| start_worker(&format!("w{i}"))).collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.clone()).collect();
    let config = fabric_config(addrs.clone());
    let coordinator = Coordinator::connect(&config).expect("connect fleet");

    let emitted = std::sync::Mutex::new(Vec::new());
    let cells = coordinator
        .run_campaign(&spec, |index, _| emitted.lock().unwrap().push(index))
        .expect("sharded campaign");
    let fabric_bytes: Vec<Vec<u8>> = cells.iter().map(CellStats::to_bytes).collect();
    assert_eq!(
        fabric_bytes, reference,
        "sharded run must be bit-identical to the direct path"
    );
    // Strict grid-order emission, never arrival order.
    let order: Vec<u32> = (0..spec.cells.len() as u32).collect();
    assert_eq!(*emitted.lock().unwrap(), order);
    // The grid really was split across workers.
    let live = coordinator.fleet.live_slots();
    assert_eq!(live.len(), 4, "all workers should be live");

    // Warm re-run: every cell now memo-hits on the worker that owns it.
    let warm = coordinator.run_campaign(&spec, |_, _| {}).expect("warm run");
    let warm_bytes: Vec<Vec<u8>> = warm.iter().map(CellStats::to_bytes).collect();
    assert_eq!(warm_bytes, reference, "warm sharded run must not drift");
    coordinator.fleet.stop();

    // Same campaign through the TCP front-end: the stock client sees an
    // ordinary daemon that happens to shard.
    let front_coordinator =
        Coordinator::connect(&fabric_config(addrs.clone())).expect("connect fleet for front");
    let front = CoordinatorServer::bind("127.0.0.1:0", front_coordinator, 4).expect("bind front");
    let front_addr = front.local_addr().expect("front addr").to_string();
    let front_thread = thread::spawn(move || front.run());
    let mut client = Client::connect(&front_addr).expect("connect front");
    let result = client
        .run_campaign(&spec, |_, _| {})
        .expect("protocol ok")
        .expect("accepted");
    assert_eq!(result.state, JobState::Done);
    for (i, (index, _)) in result.cells.iter().enumerate() {
        assert_eq!(*index as usize, i, "front must stream in grid order");
    }
    let front_bytes: Vec<Vec<u8>> =
        result.cells.iter().map(|(_, s)| s.to_bytes()).collect();
    assert_eq!(front_bytes, reference, "front-end run must not drift");

    let metrics = client.metrics().expect("front metrics");
    assert!(metrics.contains("\"role\": \"coordinator\""), "{metrics}");
    client.shutdown().expect("front shutdown");
    front_thread.join().expect("join").expect("front exits");

    for (addr, handle) in fleet {
        stop_worker(&addr, handle);
    }
}

#[test]
fn mitigation_cells_shard_bit_identically_to_direct_and_single_daemon() {
    // One cell per ML mitigation strategy: the strategy + view count ride
    // the v2 cell codec through routing and land on (potentially)
    // different workers, and every path — direct, single daemon, sharded
    // fabric — must produce the same bytes. Workers train their resident
    // model at a small spec so the test stays cheap; the direct reference
    // trains identical weights through the same pipeline.
    let tiny = adas_ml::ModelSpec {
        hidden1: 16,
        hidden2: 8,
        seed: 9,
    };
    let spec = CampaignSpec {
        campaign_seed: 8_082_025,
        repetitions: 1,
        max_steps: 900,
        scenario_mask: 0b00_1001,
        attack: adas_attack::AttackScheduler::Immediate,
        cells: vec![
            CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::ml_only(),
            },
            CellSpec {
                fault: Some(FaultType::RelativeDistance),
                interventions: InterventionConfig::ensemble_only(),
            },
            CellSpec {
                fault: Some(FaultType::Mixed),
                interventions: InterventionConfig::maskcheck_only(),
            },
        ],
    };
    let model = std::sync::Arc::new(adas_bench::trained_baseline_cached(
        &ArtifactCache::disabled(),
        spec.campaign_seed,
        tiny,
    ));
    let ids = spec.run_ids();
    let reference: Vec<Vec<u8>> = spec
        .cells
        .iter()
        .map(|cell| {
            let config = spec.config_for(cell);
            let records: Vec<RunRecord> = ids
                .iter()
                .map(|id| run_single(*id, cell.fault, &config, Some(&model), spec.campaign_seed))
                .collect();
            CellStats::from_records(&records).to_bytes()
        })
        .collect();

    // Single daemon over the wire.
    let (solo_addr, solo) = start_worker_with_spec("mitig-solo", tiny);
    let mut client = Client::connect(&solo_addr).expect("connect solo");
    let result = client
        .run_campaign(&spec, |_, _| {})
        .expect("protocol ok")
        .expect("accepted");
    assert_eq!(result.state, JobState::Done);
    let solo_bytes: Vec<Vec<u8>> = result.cells.iter().map(|(_, s)| s.to_bytes()).collect();
    stop_worker(&solo_addr, solo);
    assert_eq!(
        solo_bytes, reference,
        "single-daemon mitigation cells must match the direct path"
    );

    // Two-worker fabric: mitigation variants of otherwise-equal cells
    // have distinct route keys, so they may land on different workers.
    let fleet: Vec<(String, _)> = (0..2)
        .map(|i| start_worker_with_spec(&format!("mitig-w{i}"), tiny))
        .collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.clone()).collect();
    // Lazy model training + view-based cells make the first dispatch slow
    // on a loaded machine — keep the silence deadline far above it so
    // this test never exercises the dead-worker path.
    let config = FabricConfig {
        deadline: Duration::from_secs(300),
        ..fabric_config(addrs)
    };
    let coordinator = Coordinator::connect(&config).expect("connect fleet");
    let cells = coordinator
        .run_campaign(&spec, |_, _| {})
        .expect("sharded mitigation campaign");
    let fabric_bytes: Vec<Vec<u8>> = cells.iter().map(CellStats::to_bytes).collect();
    assert_eq!(
        fabric_bytes, reference,
        "sharded mitigation cells must be bit-identical to the direct path"
    );
    coordinator.fleet.stop();
    for (addr, handle) in fleet {
        stop_worker(&addr, handle);
    }
}

#[test]
fn killed_worker_cells_are_redispatched_without_duplicates() {
    let exe = env!("CARGO_BIN_EXE_adas-serve");

    // Two worker *processes*, so one can be SIGKILLed mid-campaign.
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
                break rest.split_whitespace().next().expect("addr token").to_string();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        thread::spawn(move || for _ in lines {});
        (child, addr)
    };
    let (mut victim, victim_addr) = spawn("victim");
    let (mut survivor, survivor_addr) = spawn("survivor");

    let spec = sharded_spec();
    let reference = direct_cell_bytes(&spec);

    let mut config = fabric_config(vec![victim_addr.clone(), survivor_addr.clone()]);
    config.heartbeat = Duration::from_millis(150);
    let coordinator = Coordinator::connect(&config).expect("connect fleet");
    assert_eq!(coordinator.fleet.live_slots().len(), 2);

    // SIGKILL the victim as soon as the first merged cell arrives: its
    // remaining cells must re-dispatch to the survivor.
    let merged = AtomicUsize::new(0);
    let emitted = std::sync::Mutex::new(Vec::new());
    let cells = coordinator
        .run_campaign(&spec, |index, _| {
            if merged.fetch_add(1, Ordering::Relaxed) == 0 {
                victim.kill().expect("kill victim worker");
            }
            emitted.lock().unwrap().push(index);
        })
        .expect("campaign must survive the kill");

    let fabric_bytes: Vec<Vec<u8>> = cells.iter().map(CellStats::to_bytes).collect();
    assert_eq!(
        fabric_bytes, reference,
        "re-dispatched cells must stay bit-identical to the direct path"
    );
    let order: Vec<u32> = (0..spec.cells.len() as u32).collect();
    assert_eq!(
        *emitted.lock().unwrap(),
        order,
        "merge order is grid order — no duplicates, no reordering"
    );
    // The monitor sweeps on its own thread: when the victim's buffered
    // results covered its whole shard, death is only noticed by the next
    // failed heartbeat, which can land just after the campaign returns.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while coordinator.fleet.workers[0].is_alive() && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(25));
    }
    assert!(
        !coordinator.fleet.workers[0].is_alive(),
        "the killed worker must be marked dead"
    );
    coordinator.fleet.stop();

    let _ = victim.wait();
    if let Ok(mut c) = Client::connect(&survivor_addr) {
        let _ = c.shutdown();
    }
    let _ = survivor.wait();
}

#[test]
fn garbage_frames_never_wedge_worker_or_coordinator() {
    use std::io::Write;

    let (worker_addr, worker) = start_worker("garbage-worker");
    let coordinator =
        Coordinator::connect(&fabric_config(vec![worker_addr.clone()])).expect("connect");
    let front = CoordinatorServer::bind("127.0.0.1:0", coordinator, 2).expect("bind front");
    let front_addr = front.local_addr().expect("front addr").to_string();
    let front_thread = thread::spawn(move || front.run());

    // Hostile byte streams against both tiers: bad magic, truncated
    // header, a declared-but-absent payload, and random trash.
    for target in [&worker_addr, &front_addr] {
        for garbage in [
            b"XXXXGARBAGE-GARBAGE-GARBAGE".as_slice(),
            b"AS".as_slice(),
            &[b'A', b'S', 2, 0x0A, 0xFF, 0xFF, 0xFF, 0x7F],
            &[0u8; 64],
        ] {
            let mut stream = std::net::TcpStream::connect(target).expect("connect raw");
            stream.write_all(garbage).expect("write garbage");
            drop(stream);
        }
    }

    // Both survive: a real campaign still shards and completes.
    let spec = CampaignSpec {
        campaign_seed: 42,
        repetitions: 1,
        max_steps: 600,
        scenario_mask: 0b1,
        attack: adas_attack::AttackScheduler::Immediate,
        cells: vec![CellSpec {
            fault: Some(FaultType::RelativeDistance),
            interventions: InterventionConfig::driver_and_check(),
        }],
    };
    let mut client = Client::connect(&front_addr).expect("connect front");
    let result = client
        .run_campaign(&spec, |_, _| {})
        .expect("protocol ok")
        .expect("accepted");
    assert_eq!(result.state, JobState::Done);
    assert_eq!(result.cells.len(), 1);

    // A peer holding its connection open — idle, or stalled inside a
    // frame header — must not hold either tier's drain: after `Shutdown`,
    // each `run()` returns within a few read timeouts. A heartbeat
    // round-trip first makes sure each connection is being served.
    let hold = |addr: &str| {
        let mut idle = Client::connect(addr).expect("connect idle");
        idle.heartbeat(1).expect("idle heartbeat");
        let mut half = std::net::TcpStream::connect(addr).expect("connect half-frame");
        send_request(&mut half, &Request::Heartbeat { nonce: 2 }).expect("heartbeat");
        recv_response(&mut half).expect("heartbeat ack");
        half.write_all(b"AS").expect("write half frame");
        (idle, half)
    };
    let _front_held = hold(&front_addr);
    client.shutdown().expect("front shutdown");
    join_within_drain_bound(front_thread, "coordinator front-end");
    let _worker_held = hold(&worker_addr);
    Client::connect(&worker_addr)
        .expect("connect worker")
        .shutdown()
        .expect("worker shutdown");
    join_within_drain_bound(worker, "worker daemon");
}

/// Joins a server thread, failing when its `run()` is still blocked
/// eight 250 ms read timeouts after `Shutdown` was acknowledged.
fn join_within_drain_bound(handle: thread::JoinHandle<std::io::Result<()>>, tier: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while !handle.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "{tier} run() still blocked 2 s after Shutdown with a connection held open"
        );
        thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("join").expect("clean exit");
}
