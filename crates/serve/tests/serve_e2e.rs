//! End-to-end tests against an in-process `adas-serve` daemon on an
//! ephemeral port: bit-identical streamed results vs the direct
//! `run_single` path at multiple `ADAS_THREADS` settings, concurrent
//! clients, backpressure at queue capacity 1, graceful shutdown with a job
//! in flight, warm resubmission, wire replay, and daemon survival of
//! malformed byte streams.

use adas_attack::FaultType;
use adas_core::job::CellSpec;
use adas_core::{
    run_single, run_single_traced, ArtifactCache, CampaignSpec, CellStats, InterventionConfig,
    PlatformConfig, RunId,
};
use adas_recorder::RecordMode;
use adas_scenarios::{InitialPosition, RunRecord, ScenarioId};
use adas_serve::{Client, JobState, ReplayOutcome, Response, Server, ServerConfig, Submission};
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

/// Serialises tests that mutate `ADAS_THREADS` (process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adas-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Binds a server on an ephemeral port and runs it on its own thread.
fn start_server(
    queue_capacity: usize,
    cache: ArtifactCache,
    trace_dir: PathBuf,
) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity,
        cache,
        trace_dir,
        model_spec: adas_ml::ModelSpec::default(),
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// S1 + S4 only (mask bits 0 and 3), short runs — small but non-trivial.
fn quick_spec(cells: Vec<CellSpec>) -> CampaignSpec {
    CampaignSpec {
        campaign_seed: 7_082_025,
        repetitions: 2,
        max_steps: 1500,
        scenario_mask: 0b00_1001,
        attack: adas_attack::AttackScheduler::Immediate,
        cells,
    }
}

/// Full-mask, many-repetition spec that keeps the executor busy for a
/// while (hundreds of full-length runs).
fn slow_spec(cells: usize) -> CampaignSpec {
    let all = [
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
            interventions: InterventionConfig::none(),
        },
        CellSpec {
            fault: Some(FaultType::Mixed),
            interventions: InterventionConfig::driver_only(),
        },
    ];
    CampaignSpec::new(0xBEEF, 20, all[..cells].to_vec())
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

fn streamed_cell_bytes(addr: &str, spec: &CampaignSpec) -> Vec<Vec<u8>> {
    let mut client = Client::connect(addr).expect("connect");
    let result = client
        .run_campaign(spec, |_, _| {})
        .expect("protocol ok")
        .expect("accepted");
    assert_eq!(result.state, JobState::Done);
    assert_eq!(result.cells.len(), spec.cells.len());
    // Cells stream in submission order.
    for (i, (index, _)) in result.cells.iter().enumerate() {
        assert_eq!(*index as usize, i);
    }
    result
        .cells
        .into_iter()
        .map(|(_, s)| s.to_bytes())
        .collect()
}

fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("missing {key} in {json}"))
        + pat.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric metric")
}

#[test]
fn wire_results_bit_identical_to_direct_run_at_any_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let spec_a = quick_spec(vec![
        CellSpec {
            fault: Some(FaultType::RelativeDistance),
            interventions: InterventionConfig::none(),
        },
        CellSpec {
            fault: Some(FaultType::RelativeDistance),
            interventions: InterventionConfig::driver_and_check(),
        },
    ]);
    let spec_b = quick_spec(vec![
        CellSpec {
            fault: Some(FaultType::DesiredCurvature),
            interventions: InterventionConfig::driver_only(),
        },
        CellSpec {
            fault: None,
            interventions: InterventionConfig::none(),
        },
    ]);
    let reference_a = direct_cell_bytes(&spec_a);
    let reference_b = direct_cell_bytes(&spec_b);

    for threads in ["1", "4"] {
        std::env::set_var("ADAS_THREADS", threads);
        let (addr, server) = start_server(8, ArtifactCache::disabled(), tmp_dir("threads"));

        // Two concurrent clients with different campaigns.
        let (wire_a, wire_b) = thread::scope(|scope| {
            let a = scope.spawn(|| streamed_cell_bytes(&addr, &spec_a));
            let b = scope.spawn(|| streamed_cell_bytes(&addr, &spec_b));
            (a.join().expect("client a"), b.join().expect("client b"))
        });
        assert_eq!(
            wire_a, reference_a,
            "threads={threads}: wire cells must be bit-identical to direct run"
        );
        assert_eq!(
            wire_b, reference_b,
            "threads={threads}: wire cells must be bit-identical to direct run"
        );

        Client::connect(&addr)
            .expect("connect")
            .shutdown()
            .expect("shutdown ack");
        server.join().expect("join").expect("clean exit");
        std::env::remove_var("ADAS_THREADS");
    }
}

#[test]
fn warm_resubmission_is_served_from_memory_with_identical_bytes() {
    let cache_dir = tmp_dir("warm-cache");
    let (addr, server) = start_server(8, ArtifactCache::at(&cache_dir), tmp_dir("warm-traces"));
    let spec = quick_spec(vec![
        CellSpec {
            fault: Some(FaultType::RelativeDistance),
            interventions: InterventionConfig::none(),
        },
        CellSpec {
            fault: Some(FaultType::Mixed),
            interventions: InterventionConfig::driver_and_check(),
        },
    ]);

    let cold = streamed_cell_bytes(&addr, &spec);
    let warm = streamed_cell_bytes(&addr, &spec);
    assert_eq!(cold, warm, "warm resubmission must return identical bytes");

    let mut client = Client::connect(&addr).expect("connect");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(json_u64(&metrics, "memo_hits"), 2, "{metrics}");
    assert_eq!(json_u64(&metrics, "computed"), 2, "{metrics}");
    client.shutdown().expect("shutdown ack");
    server.join().expect("join").expect("clean exit");
}

#[test]
fn full_queue_rejects_with_explicit_backpressure() {
    let (addr, server) = start_server(1, ArtifactCache::disabled(), tmp_dir("backpressure"));

    // A: accepted and picked up by the executor.
    let mut client_a = Client::connect(&addr).expect("connect a");
    let spec = slow_spec(2);
    assert!(matches!(
        client_a.submit(&spec).expect("submit a"),
        Submission::Accepted { .. }
    ));
    thread::sleep(Duration::from_millis(400)); // executor pops A

    // B: fills the single queue slot while A runs.
    let mut client_b = Client::connect(&addr).expect("connect b");
    assert!(matches!(
        client_b.submit(&spec).expect("submit b"),
        Submission::Accepted { .. }
    ));

    // C: bounced with explicit backpressure, not an error or a hang.
    let mut client_c = Client::connect(&addr).expect("connect c");
    match client_c.submit(&spec).expect("submit c") {
        Submission::Rejected {
            retry_after_ms,
            reason,
        } => {
            assert!(retry_after_ms > 0, "retry hint must be positive");
            assert!(reason.contains("full"), "reason: {reason}");
        }
        Submission::Accepted { .. } => panic!("third job must be rejected"),
    }

    // Both accepted jobs still stream to completion.
    let (cells_a, state_a) = client_a.stream_results(|_, _| {}).expect("stream a");
    let (cells_b, state_b) = client_b.stream_results(|_, _| {}).expect("stream b");
    assert_eq!((state_a, cells_a.len()), (JobState::Done, 2));
    assert_eq!((state_b, cells_b.len()), (JobState::Done, 2));

    let metrics = client_c.metrics().expect("metrics");
    assert_eq!(json_u64(&metrics, "rejected"), 1, "{metrics}");
    client_c.shutdown().expect("shutdown ack");
    server.join().expect("join").expect("clean exit");
}

#[test]
fn graceful_shutdown_drains_the_in_flight_job() {
    let (addr, server) = start_server(4, ArtifactCache::disabled(), tmp_dir("drain"));

    let mut client_a = Client::connect(&addr).expect("connect a");
    let spec = slow_spec(2);
    assert!(matches!(
        client_a.submit(&spec).expect("submit"),
        Submission::Accepted { .. }
    ));
    thread::sleep(Duration::from_millis(300)); // let the job start

    // Shutdown arrives while the job is mid-flight…
    Client::connect(&addr)
        .expect("connect b")
        .shutdown()
        .expect("shutdown ack");

    // …yet the accepted job drains to completion before the server exits.
    let (cells, state) = client_a.stream_results(|_, _| {}).expect("stream");
    assert_eq!(state, JobState::Done, "in-flight job must drain, not drop");
    assert_eq!(cells.len(), 2);
    server.join().expect("join").expect("clean exit");

    // New submissions are refused once the listener is gone.
    assert!(Client::connect(&addr).is_err(), "listener must be closed");
}

#[test]
fn cancel_stops_a_running_job_and_status_tracks_it() {
    let (addr, server) = start_server(4, ArtifactCache::disabled(), tmp_dir("cancel"));

    let mut client_a = Client::connect(&addr).expect("connect a");
    let spec = slow_spec(4);
    let Submission::Accepted { job_id, cells } = client_a.submit(&spec).expect("submit") else {
        panic!("submission must be accepted");
    };
    assert_eq!(cells, 4);
    thread::sleep(Duration::from_millis(300));

    let mut client_b = Client::connect(&addr).expect("connect b");
    let status = client_b.status(job_id).expect("status");
    assert!(
        !status.state.is_terminal(),
        "job should still be live, got {:?}",
        status.state
    );
    assert_eq!(status.cells_total, 4);
    client_b.cancel(job_id).expect("cancel");

    let (cells, state) = client_a.stream_results(|_, _| {}).expect("stream");
    assert_eq!(state, JobState::Cancelled);
    assert!(cells.len() < 4, "cancelled job must not stream all cells");
    let status = client_b.status(job_id).expect("status after cancel");
    assert_eq!(status.state, JobState::Cancelled);

    client_b.shutdown().expect("shutdown ack");
    server.join().expect("join").expect("clean exit");
}

#[test]
fn malformed_and_truncated_streams_never_wedge_the_daemon() {
    use adas_serve::protocol::recv_response;
    use std::io::Write;

    let (addr, server) = start_server(4, ArtifactCache::disabled(), tmp_dir("garbage"));

    // Garbage magic: the server answers with a protocol error and drops
    // the connection.
    let mut garbage = std::net::TcpStream::connect(&addr).expect("connect raw");
    garbage.write_all(b"XXXXGARBAGE-GARBAGE").expect("write");
    match recv_response(&mut garbage) {
        Ok(Response::Error(e)) => assert!(e.contains("magic"), "{e}"),
        Ok(other) => panic!("unexpected response {other:?}"),
        Err(_) => {} // already dropped — equally acceptable
    }
    drop(garbage);

    // Truncated frame: declared 100-byte payload, 10 bytes sent, then EOF.
    let mut truncated = std::net::TcpStream::connect(&addr).expect("connect raw");
    let mut frame = vec![b'A', b'S', adas_serve::protocol::VERSION, 0x04];
    frame.extend_from_slice(&100u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 10]);
    truncated.write_all(&frame).expect("write");
    drop(truncated);

    // Invalid campaign spec (zero cells): refused by the payload codec
    // before it can reach the queue.
    let mut client = Client::connect(&addr).expect("connect");
    let empty = CampaignSpec::new(1, 1, Vec::new());
    let err = client.submit(&empty).expect_err("must be refused");
    assert!(format!("{err}").contains("campaign spec"), "{err}");

    // The daemon is alive and still counts protocol errors (the refusal
    // above dropped that connection, as framing errors must).
    let mut client = Client::connect(&addr).expect("reconnect");
    let metrics = client.metrics().expect("metrics after garbage");
    assert!(json_u64(&metrics, "protocol_errors") >= 1, "{metrics}");
    client.shutdown().expect("shutdown ack");
    server.join().expect("join").expect("clean exit");
}

#[test]
fn local_trace_replays_over_the_wire() {
    let trace_dir = tmp_dir("replay-traces");
    let (addr, server) = start_server(4, ArtifactCache::disabled(), trace_dir.clone());
    let mut client = Client::connect(&addr).expect("connect");

    let run = RunId {
        scenario: ScenarioId::ALL[0],
        position: InitialPosition::ALL[0],
        repetition: 0,
    };
    let cell = CellSpec {
        fault: Some(FaultType::RelativeDistance),
        interventions: InterventionConfig::driver_and_check(),
    };

    // Trace a run locally and store it where the server resolves hashes,
    // then ask the server to verify it: bit-exact re-execution.
    let mut config = PlatformConfig::with_interventions(cell.interventions);
    config.max_steps = 2000;
    let (traced, trace) =
        run_single_traced(run, cell.fault, &config, None, 0, 2025, RecordMode::Full);
    // Traced and untraced executions of the same run agree exactly.
    let plain = run_single(run, cell.fault, &config, None, 2025);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    trace.save_in(&trace_dir).expect("persist trace");
    let hex = trace.content_hex();
    let (outcome, detail) = client.replay(&hex).expect("replay");
    assert_eq!(outcome, ReplayOutcome::Identical, "{detail}");

    // Unknown and malformed hashes answer NotFound — no panic, no hang.
    let (outcome, _) = client.replay("0000000000000000").expect("replay missing");
    assert_eq!(outcome, ReplayOutcome::NotFound);
    let (outcome, _) = client.replay("../../etc/passwd").expect("replay hostile");
    assert_eq!(outcome, ReplayOutcome::NotFound);

    client.shutdown().expect("shutdown ack");
    server.join().expect("join").expect("clean exit");
}
