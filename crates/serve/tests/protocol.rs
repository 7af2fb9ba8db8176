//! Wire-protocol property tests: every frame round-trips byte-exactly,
//! and malformed frames (truncated, oversized, wrong version, mutated)
//! produce protocol errors — never panics, never unbounded allocation.

use adas_attack::FaultType;
use adas_core::job::CellSpec;
use adas_core::{CampaignSpec, CellStats, InterventionConfig, SCENARIO_MASK_ALL};
use adas_safety::AebsMode;
use adas_serve::protocol::{
    read_frame, write_frame, JobState, ProtocolError, ReplayOutcome, Request, Response,
    MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;

// --- generators -----------------------------------------------------------

fn arb_cell(rng: &mut TestRng) -> CellSpec {
    let fault = match rng.usize_in(0, 4) {
        0 => None,
        1 => Some(FaultType::RelativeDistance),
        2 => Some(FaultType::DesiredCurvature),
        _ => Some(FaultType::Mixed),
    };
    let aebs = match rng.usize_in(0, 3) {
        0 => AebsMode::Disabled,
        1 => AebsMode::Compromised,
        _ => AebsMode::Independent,
    };
    let mitigation = match rng.usize_in(0, 3) {
        0 => adas_core::MitigationKind::Cusum,
        1 => adas_core::MitigationKind::Ensemble,
        _ => adas_core::MitigationKind::MaskCheck,
    };
    CellSpec {
        fault,
        interventions: InterventionConfig {
            driver: rng.next_u64() & 1 == 1,
            driver_reaction_time: 0.5 + rng.unit_f64() * 3.0,
            safety_check: rng.next_u64() & 1 == 1,
            aebs,
            ml: rng.next_u64() & 1 == 1,
            mitigation,
            views: (rng.next_u64() % u64::from(adas_core::MAX_VIEWS + 1)) as u8,
        },
    }
}

fn arb_spec(rng: &mut TestRng) -> CampaignSpec {
    let cells = (0..rng.usize_in(1, 6)).map(|_| arb_cell(rng)).collect();
    CampaignSpec {
        campaign_seed: rng.next_u64(),
        repetitions: 1 + rng.next_u64() as u32 % 10,
        max_steps: [0u32, 500, 10_000][rng.usize_in(0, 3)],
        scenario_mask: 1 + (rng.next_u64() as u8 % SCENARIO_MASK_ALL),
        attack: adas_attack::AttackScheduler::Immediate,
        cells,
    }
}

fn arb_stats(rng: &mut TestRng) -> CellStats {
    let runs = 1 + rng.next_u64() % 200;
    let mut s = CellStats {
        runs,
        ..CellStats::default()
    };
    for count in [
        &mut s.a1,
        &mut s.a2,
        &mut s.prevented,
        &mut s.hazard,
        &mut s.aeb_n,
        &mut s.driver_brake_n,
        &mut s.driver_steer_n,
        &mut s.ml_n,
        &mut s.aeb_time_n,
        &mut s.driver_brake_time_n,
        &mut s.driver_steer_time_n,
    ] {
        *count = rng.next_u64() % (runs + 1);
    }
    for sum in [
        &mut s.aeb_time_sum,
        &mut s.driver_brake_time_sum,
        &mut s.driver_steer_time_sum,
    ] {
        *sum = rng.unit_f64() * 100.0;
    }
    s
}

fn arb_string(rng: &mut TestRng) -> String {
    let alphabet = "abcxyz 0189/:-_ä≥✓";
    let chars: Vec<char> = alphabet.chars().collect();
    (0..rng.usize_in(0, 40))
        .map(|_| chars[rng.usize_in(0, chars.len())])
        .collect()
}

fn arb_request(rng: &mut TestRng) -> Request {
    match rng.usize_in(0, 10) {
        0 => Request::SubmitCampaign(arb_spec(rng)),
        1 => Request::Replay {
            trace_hex: arb_string(rng),
        },
        2 => Request::Status {
            job_id: rng.next_u64(),
        },
        3 => Request::Cancel {
            job_id: rng.next_u64(),
        },
        4 => Request::Metrics,
        5 => Request::RegisterWorker {
            fleet_epoch: rng.next_u64(),
        },
        6 => Request::Heartbeat {
            nonce: rng.next_u64(),
        },
        7 => {
            // AssignCells requires indices.len() == spec.cells.len().
            let spec = arb_spec(rng);
            let indices = (0..spec.cells.len())
                .map(|_| rng.next_u64() as u32 % 1024)
                .collect();
            Request::AssignCells {
                assignment_id: rng.next_u64(),
                indices,
                spec,
            }
        }
        8 => Request::WorkerDrain,
        _ => Request::Shutdown,
    }
}

fn arb_state(rng: &mut TestRng) -> JobState {
    [
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Cancelled,
        JobState::Failed,
    ][rng.usize_in(0, 5)]
}

fn arb_response(rng: &mut TestRng) -> Response {
    match rng.usize_in(0, 11) {
        0 => Response::Accepted {
            job_id: rng.next_u64(),
            cells: rng.next_u64() as u32 % 1024,
        },
        1 => Response::Rejected {
            retry_after_ms: rng.next_u64() as u32 % 10_000,
            reason: arb_string(rng),
        },
        2 => Response::CellResult {
            job_id: rng.next_u64(),
            cell_index: rng.next_u64() as u32 % 1024,
            stats: arb_stats(rng),
        },
        3 => Response::JobDone {
            job_id: rng.next_u64(),
            state: arb_state(rng),
        },
        4 => Response::ReplayVerdict {
            outcome: [
                ReplayOutcome::Identical,
                ReplayOutcome::Diverged,
                ReplayOutcome::NotFound,
                ReplayOutcome::Error,
            ][rng.usize_in(0, 4)],
            detail: arb_string(rng),
        },
        5 => Response::StatusReport {
            state: arb_state(rng),
            cells_done: rng.next_u64() as u32,
            cells_total: rng.next_u64() as u32,
            runs_done: rng.next_u64(),
        },
        6 => Response::MetricsJson(arb_string(rng)),
        7 => Response::Error(arb_string(rng)),
        8 => Response::WorkerHello {
            queue_capacity: rng.next_u64() as u32,
            threads: rng.next_u64() as u32,
            batch_width: rng.next_u64() as u32,
            memo_cells: rng.next_u64(),
        },
        9 => Response::HeartbeatAck {
            nonce: rng.next_u64(),
            queued: rng.next_u64() as u32,
            running: rng.next_u64() as u32,
        },
        _ => Response::ShutdownAck,
    }
}

/// Frames a message and reads it back through the byte stream.
fn frame_roundtrip(kind: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    let mut wire = Vec::new();
    write_frame(&mut wire, kind, payload).expect("write to vec");
    let mut cursor: &[u8] = &wire;
    let out = read_frame(&mut cursor).expect("read back");
    assert!(cursor.is_empty(), "frame left trailing bytes");
    out
}

// --- round-trip properties ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn requests_roundtrip(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("req-{seed}"));
        let request = arb_request(&mut rng);
        let (kind, payload) = frame_roundtrip(request.kind(), &request.payload());
        let back = Request::decode(kind, &payload).expect("decodes");
        prop_assert_eq!(back, request);
    }

    #[test]
    fn responses_roundtrip(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("resp-{seed}"));
        let response = arb_response(&mut rng);
        let (kind, payload) = frame_roundtrip(response.kind(), &response.payload());
        let back = Response::decode(kind, &payload).expect("decodes");
        // NaN-free generators, so PartialEq is exact here.
        prop_assert_eq!(back, response);
    }

    #[test]
    fn mutated_frames_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("mutate-{seed}"));
        let request = arb_request(&mut rng);
        let mut wire = Vec::new();
        write_frame(&mut wire, request.kind(), &request.payload()).expect("write");
        // Flip one byte anywhere in the frame.
        let at = rng.usize_in(0, wire.len());
        wire[at] ^= 1 << rng.usize_in(0, 8);
        let mut cursor: &[u8] = &wire;
        // Any result is fine — the property is "no panic, no hang".
        if let Ok((kind, payload)) = read_frame(&mut cursor) {
            let _ = Request::decode(kind, &payload);
            let _ = Response::decode(kind, &payload);
        }
    }

    #[test]
    fn truncations_error_cleanly(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("trunc-{seed}"));
        let response = arb_response(&mut rng);
        let mut wire = Vec::new();
        write_frame(&mut wire, response.kind(), &response.payload()).expect("write");
        let cut = rng.usize_in(0, wire.len());
        let mut cursor: &[u8] = &wire[..cut];
        match read_frame(&mut cursor) {
            Err(ProtocolError::Closed) => prop_assert_eq!(cut, 0),
            Err(_) => {}
            // A cut can still parse when it lands exactly after a frame
            // whose payload length was satisfied — only possible at the
            // full length.
            Ok(_) => prop_assert_eq!(cut, wire.len()),
        }
    }
}

// --- directed malformed-frame cases ---------------------------------------

fn header(version: u8, kind: u8, len: u32) -> Vec<u8> {
    let mut h = vec![b'A', b'S', version, kind];
    h.extend_from_slice(&len.to_le_bytes());
    h
}

#[test]
fn truncated_length_prefix_is_an_error_not_a_panic() {
    // Header cut inside the 4-byte length field.
    for cut in 1..8 {
        let full = header(VERSION, 0x06, 0);
        let mut cursor: &[u8] = &full[..cut];
        match read_frame(&mut cursor) {
            Err(ProtocolError::Io(_)) => {}
            other => panic!("cut {cut}: expected Io error, got {other:?}"),
        }
    }
}

#[test]
fn oversized_declared_length_is_rejected_before_allocation() {
    // Declares a 4 GiB-ish payload; must be rejected from the 8 header
    // bytes alone (the "payload" here is empty, so any attempt to read or
    // allocate it would fail or OOM).
    let wire = header(VERSION, 0x06, MAX_PAYLOAD + 1);
    let mut cursor: &[u8] = &wire;
    assert_eq!(
        read_frame(&mut cursor),
        Err(ProtocolError::Oversized(MAX_PAYLOAD + 1))
    );
    let wire = header(VERSION, 0x06, u32::MAX);
    let mut cursor: &[u8] = &wire;
    assert_eq!(
        read_frame(&mut cursor),
        Err(ProtocolError::Oversized(u32::MAX))
    );
}

#[test]
fn bad_version_byte_is_rejected() {
    // Versions 1 (before the fabric frames) and 2 (percentage cell
    // stats) are rejected too: workers and coordinators negotiate
    // nothing, the version byte must match.
    for version in [0u8, 1, 2, 9, 0xFF] {
        let wire = header(version, 0x06, 0);
        let mut cursor: &[u8] = &wire;
        assert_eq!(
            read_frame(&mut cursor),
            Err(ProtocolError::BadVersion(version))
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut wire = header(VERSION, 0x06, 0);
    wire[0] = b'X';
    let mut cursor: &[u8] = &wire;
    assert_eq!(
        read_frame(&mut cursor),
        Err(ProtocolError::BadMagic([b'X', b'S']))
    );
}

#[test]
fn unknown_kind_bytes_are_rejected_by_decode() {
    for kind in [0x00u8, 0x02, 0x0E, 0x7F, 0x85, 0x8E, 0xFF] {
        let wire = header(VERSION, kind, 0);
        let mut cursor: &[u8] = &wire;
        let (k, payload) = read_frame(&mut cursor).expect("framing is fine");
        assert_eq!(
            Request::decode(k, &payload),
            Err(ProtocolError::UnknownKind(kind))
        );
        assert_eq!(
            Response::decode(k, &payload),
            Err(ProtocolError::UnknownKind(kind))
        );
    }
    // The fuzz-farm kinds are one-directional: 0x0C/0x0D are requests
    // (an empty payload is malformed, not unknown), 0x8D is a response.
    assert_eq!(
        Request::decode(0x0C, &[]),
        Err(ProtocolError::Malformed("fuzz spec"))
    );
    assert_eq!(
        Response::decode(0x0C, &[]),
        Err(ProtocolError::UnknownKind(0x0C))
    );
    assert_eq!(
        Request::decode(0x8D, &[]),
        Err(ProtocolError::UnknownKind(0x8D))
    );
    assert_eq!(
        Response::decode(0x8D, &[]),
        Err(ProtocolError::Malformed("job id"))
    );
}

#[test]
fn declared_length_beyond_stream_is_an_io_error() {
    let mut wire = header(VERSION, 0x04, 8);
    wire.extend_from_slice(&[1, 2, 3]); // 3 of the declared 8 bytes
    let mut cursor: &[u8] = &wire;
    assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::Io(_))));
}

#[test]
fn trailing_bytes_in_fixed_payloads_are_malformed() {
    let mut payload = Request::Status { job_id: 1 }.payload();
    payload.push(0);
    assert_eq!(
        Request::decode(0x04, &payload),
        Err(ProtocolError::Malformed("trailing bytes"))
    );
}

#[test]
fn empty_connection_close_is_clean() {
    let mut cursor: &[u8] = &[];
    assert_eq!(read_frame(&mut cursor), Err(ProtocolError::Closed));
}

#[test]
fn assign_cells_count_mismatch_is_malformed() {
    // A valid AssignCells frame whose index count disagrees with the
    // embedded spec's cell count must be rejected, not trusted.
    let spec = CampaignSpec {
        campaign_seed: 7,
        repetitions: 1,
        max_steps: 50,
        scenario_mask: 1,
        attack: adas_attack::AttackScheduler::Immediate,
        cells: vec![
            CellSpec {
                fault: None,
                interventions: InterventionConfig::none(),
            },
            CellSpec {
                fault: Some(FaultType::Mixed),
                interventions: InterventionConfig::driver_and_check(),
            },
        ],
    };
    let good = Request::AssignCells {
        assignment_id: 9,
        indices: vec![4, 11],
        spec: spec.clone(),
    };
    let (kind, payload) = frame_roundtrip(good.kind(), &good.payload());
    assert_eq!(Request::decode(kind, &payload).expect("valid"), good);

    let bad = Request::AssignCells {
        assignment_id: 9,
        indices: vec![4],
        spec,
    };
    let result = Request::decode(bad.kind(), &bad.payload());
    assert!(
        matches!(result, Err(ProtocolError::Malformed(_))),
        "count mismatch must be malformed, got {result:?}"
    );
}

#[test]
fn assign_cells_zero_or_huge_count_is_rejected() {
    use adas_core::job::MAX_CELLS;
    // Hand-build payloads with hostile counts: 0 cells and
    // MAX_CELLS + 1 cells (the latter would otherwise pre-allocate).
    for count in [0u32, (MAX_CELLS + 1) as u32] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&9u64.to_le_bytes()); // assignment_id
        payload.extend_from_slice(&count.to_le_bytes());
        for i in 0..count.min(2048) {
            payload.extend_from_slice(&i.to_le_bytes());
        }
        let result = Request::decode(0x0A, &payload);
        assert!(
            matches!(result, Err(ProtocolError::Malformed(_))),
            "count {count}: expected malformed, got {result:?}"
        );
    }
}
