//! SIGTERM/SIGINT end a daemon blocked in `accept`. The handler only sets
//! a process-wide flag, so the accept loop's waker must notice it and
//! wake the loop. The flag cannot be cleared, hence a test binary of its
//! own.

use adas_core::ArtifactCache;
use adas_serve::{signal, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

#[test]
fn a_signal_wakes_the_blocked_accept_loop_and_drains() {
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

    // Served, then idle: the loop is parked in `accept`.
    let mut idle = Client::connect(&addr).expect("connect");
    idle.metrics().expect("metrics round-trip");

    // What the SIGTERM/SIGINT handler does.
    signal::trigger();
    assert!(signal::triggered());

    // The held-open connection drains within its read timeout, and the
    // loop exits without any further client connecting.
    let deadline = Instant::now() + Duration::from_secs(2);
    while !run.is_finished() {
        assert!(
            Instant::now() < deadline,
            "run() still blocked in accept 2 s after the signal"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    run.join().expect("join").expect("clean exit");
    assert!(Client::connect(&addr).is_err(), "listener must be closed");
}
