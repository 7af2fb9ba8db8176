//! The accept loop serves a connection the moment it arrives: an idle
//! daemon answers 50 fresh connections, one `Metrics` round-trip each,
//! well inside the time a loop polling every 20 ms would need (~500 ms).
//! Its own test binary, so no concurrent campaign competes for the CPU.

use adas_core::ArtifactCache;
use adas_serve::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

#[test]
fn fresh_connections_are_served_on_arrival() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 2,
        cache: ArtifactCache::disabled(),
        trace_dir: std::env::temp_dir(),
        model_spec: adas_ml::ModelSpec::default(),
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let run = std::thread::spawn(move || server.run());

    let t0 = Instant::now();
    for _ in 0..50 {
        let metrics = Client::connect(&addr)
            .expect("connect")
            .metrics()
            .expect("metrics round-trip");
        assert!(metrics.contains("\"connections\""), "{metrics}");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 fresh connections took {elapsed:?}: accepts are waiting, not arriving"
    );

    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    run.join().expect("join").expect("clean exit");
}
