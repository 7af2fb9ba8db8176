//! Worker fleet membership and health tracking.
//!
//! The coordinator registers with every worker at startup
//! (`RegisterWorker` → `WorkerHello`), then a single monitor thread
//! probes each live worker with `Heartbeat` frames over a persistent
//! per-worker connection. A worker is marked **dead** when a probe fails
//! at the transport level or no ack arrives within the configured
//! deadline; dead workers are re-probed every sweep and **revived** when
//! a fresh registration succeeds (a restarted daemon rejoins
//! automatically). Queue-full rejections are *not* health signals —
//! only the transport decides liveness.

use crate::FabricError;
use adas_serve::client::WorkerHello;
use adas_serve::Client;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One worker's membership record.
#[derive(Debug)]
pub struct WorkerSlot {
    /// Dial address (`host:port`).
    pub addr: String,
    /// Stable ring identity ([`crate::ring::worker_id`] of `addr`).
    pub id: u64,
    alive: AtomicBool,
    /// Capabilities from the most recent successful registration.
    hello: Mutex<Option<WorkerHello>>,
    /// Milliseconds since fleet start at the last successful probe.
    last_seen_ms: AtomicU64,
    /// Monitor-owned heartbeat connection (reconnected on failure).
    conn: Mutex<Option<Client>>,
}

impl WorkerSlot {
    /// Whether the worker is currently considered live.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Capabilities from the latest `WorkerHello`, if ever registered.
    #[must_use]
    pub fn hello(&self) -> Option<WorkerHello> {
        *self.hello.lock().expect("hello lock")
    }
}

/// The worker fleet: slots plus the monitor's shared clock and state.
#[derive(Debug)]
pub struct Fleet {
    /// All configured workers, in configuration order (= ring slots).
    pub workers: Vec<Arc<WorkerSlot>>,
    /// Coordinator session epoch, sent with every registration.
    pub epoch: u64,
    heartbeat: Duration,
    deadline: Duration,
    started: Instant,
    stop: AtomicBool,
    /// Monotonic heartbeat nonce (shared across workers — uniqueness is
    /// all the ack check needs).
    nonces: AtomicU64,
    /// Workers lost (dead transitions) since fleet start.
    pub lost: AtomicU64,
    /// Workers revived (dead → alive transitions) since fleet start.
    pub revived: AtomicU64,
}

impl Fleet {
    /// Connects to and registers with every address. Workers that fail
    /// the initial handshake start *dead* (the monitor keeps trying);
    /// at least one must register or this fails fast.
    ///
    /// # Errors
    ///
    /// [`FabricError::NoWorkers`] for an empty list,
    /// [`FabricError::NoLiveWorkers`] when every registration fails.
    pub fn connect(
        addrs: &[String],
        epoch: u64,
        heartbeat: Duration,
        deadline: Duration,
    ) -> Result<Arc<Self>, FabricError> {
        if addrs.is_empty() {
            return Err(FabricError::NoWorkers);
        }
        let fleet = Arc::new(Self {
            workers: addrs
                .iter()
                .map(|addr| {
                    Arc::new(WorkerSlot {
                        addr: addr.clone(),
                        id: crate::ring::worker_id(addr),
                        alive: AtomicBool::new(false),
                        hello: Mutex::new(None),
                        last_seen_ms: AtomicU64::new(0),
                        conn: Mutex::new(None),
                    })
                })
                .collect(),
            epoch,
            heartbeat,
            deadline,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            nonces: AtomicU64::new(1),
            lost: AtomicU64::new(0),
            revived: AtomicU64::new(0),
        });
        let mut live = 0usize;
        for slot in 0..fleet.workers.len() {
            if fleet.try_register(slot) {
                live += 1;
            } else {
                eprintln!(
                    "[fabric] worker {} unreachable at startup (monitor will keep probing)",
                    fleet.workers[slot].addr
                );
            }
        }
        if live == 0 {
            return Err(FabricError::NoLiveWorkers);
        }
        Ok(fleet)
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Slot indices of currently-live workers.
    #[must_use]
    pub fn live_slots(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_alive())
            .map(|(i, _)| i)
            .collect()
    }

    /// Marks a worker dead (transport failure observed by the monitor or
    /// by a dispatch connection). Idempotent.
    pub fn mark_dead(&self, slot: usize) {
        let w = &self.workers[slot];
        if w.alive.swap(false, Ordering::Relaxed) {
            self.lost.fetch_add(1, Ordering::Relaxed);
            eprintln!("[fabric] worker {} marked dead", w.addr);
        }
        *w.conn.lock().expect("conn lock") = None;
    }

    /// Opens a fresh connection, registers, and marks the slot alive.
    /// Returns success.
    fn try_register(&self, slot: usize) -> bool {
        let w = &self.workers[slot];
        let Ok(mut client) = Client::connect(&w.addr) else {
            return false;
        };
        if client.set_read_timeout(Some(self.deadline)).is_err() {
            return false;
        }
        // A slot that registered before and comes back is a revival; the
        // startup handshake is not.
        let was_registered = w.hello.lock().expect("hello lock").is_some();
        match client.register_worker(self.epoch) {
            Ok(hello) => {
                *w.hello.lock().expect("hello lock") = Some(hello);
                *w.conn.lock().expect("conn lock") = Some(client);
                w.last_seen_ms.store(self.now_ms(), Ordering::Relaxed);
                if !w.alive.swap(true, Ordering::Relaxed) {
                    if was_registered {
                        self.revived.fetch_add(1, Ordering::Relaxed);
                    }
                    eprintln!(
                        "[fabric] worker {} registered (epoch {})",
                        w.addr, self.epoch
                    );
                }
                true
            }
            Err(_) => false,
        }
    }

    /// One monitor sweep: heartbeat live workers (marking the stalled or
    /// unreachable dead), re-register dead ones.
    pub fn sweep(&self) {
        for slot in 0..self.workers.len() {
            let w = &self.workers[slot];
            if w.is_alive() {
                let nonce = self.nonces.fetch_add(1, Ordering::Relaxed);
                let ok = {
                    let mut conn = w.conn.lock().expect("conn lock");
                    conn.as_mut().is_some_and(|c| c.heartbeat(nonce).is_ok())
                };
                if ok {
                    w.last_seen_ms.store(self.now_ms(), Ordering::Relaxed);
                } else {
                    let silent = self
                        .now_ms()
                        .saturating_sub(w.last_seen_ms.load(Ordering::Relaxed));
                    // One failed probe after a recent success may be a
                    // blip; past the deadline it is a death.
                    *w.conn.lock().expect("conn lock") = None;
                    if silent >= self.deadline.as_millis() as u64 || !self.try_register(slot) {
                        self.mark_dead(slot);
                    }
                }
            } else {
                self.try_register(slot);
            }
        }
    }

    /// Spawns the monitor thread (one per fleet); it sweeps every
    /// heartbeat interval until [`Self::stop`].
    pub fn start_monitor(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let fleet = Arc::clone(self);
        std::thread::Builder::new()
            .name("fabric-monitor".into())
            .spawn(move || {
                while !fleet.stop.load(Ordering::Relaxed) {
                    fleet.sweep();
                    std::thread::sleep(fleet.heartbeat);
                }
            })
            .expect("spawn fabric monitor")
    }

    /// Stops the monitor thread (it exits within one heartbeat interval).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Per-worker status as a JSON array fragment.
    #[must_use]
    pub fn status_json(&self) -> String {
        let now = self.now_ms();
        let rows: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                let seen = w.last_seen_ms.load(Ordering::Relaxed);
                let (threads, batch, queue) = w
                    .hello()
                    .map_or((0, 0, 0), |h| (h.threads, h.batch_width, h.queue_capacity));
                format!(
                    "{{ \"addr\": \"{}\", \"alive\": {}, \"silent_ms\": {}, \
                     \"threads\": {threads}, \"batch_width\": {batch}, \
                     \"queue_capacity\": {queue} }}",
                    w.addr,
                    w.is_alive(),
                    now.saturating_sub(seen),
                )
            })
            .collect();
        format!("[ {} ]", rows.join(", "))
    }
}
