//! A FIFO fairness gate: a capacity-bounded admission primitive that
//! admits waiters strictly in arrival order.
//!
//! A plain semaphore (or a `Mutex` convoy) lets the OS scheduler pick the
//! next waiter, so under saturation a burst-happy client can starve a
//! polite one indefinitely. [`FairGate`] hands out monotonically
//! increasing tickets and only admits the waiter whose ticket is next, so
//! every submitter makes progress at the same rate — the per-client
//! fairness the `adas-serve bench` load generator measures under.

use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct GateState {
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Ticket currently allowed to take a slot (all lower tickets have
    /// been admitted already).
    serving: u64,
    /// Admitted holders that have not yet released their slot.
    active: usize,
}

/// FIFO ticket gate bounding concurrent holders to `capacity`, admitting
/// strictly in arrival order.
#[derive(Debug)]
pub struct FairGate {
    state: Mutex<GateState>,
    turn: Condvar,
    capacity: usize,
}

impl FairGate {
    /// A gate admitting at most `capacity` concurrent holders (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(GateState {
                next_ticket: 0,
                serving: 0,
                active: 0,
            }),
            turn: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured concurrency bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes a ticket and blocks until it is this caller's turn *and* a
    /// slot is free. The returned guard releases the slot on drop.
    pub fn enter(&self) -> FairGuard<'_> {
        let mut s = self.state.lock().expect("gate lock");
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        while !(s.serving == ticket && s.active < self.capacity) {
            s = self.turn.wait(s).expect("gate wait");
        }
        s.serving += 1;
        s.active += 1;
        drop(s);
        // Wake everyone: the next ticket holder may be any waiter.
        self.turn.notify_all();
        FairGuard { gate: self }
    }
}

/// Slot held in a [`FairGate`]; dropping it releases the slot.
#[derive(Debug)]
pub struct FairGuard<'a> {
    gate: &'a FairGate,
}

impl Drop for FairGuard<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().expect("gate lock");
        s.active -= 1;
        drop(s);
        self.gate.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn bounds_concurrency() {
        let gate = Arc::new(FairGate::new(3));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (gate, live, peak) = (gate.clone(), live.clone(), peak.clone());
                std::thread::spawn(move || {
                    let _slot = gate.enter();
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?} > capacity");
    }

    #[test]
    fn admits_in_arrival_order() {
        let gate = Arc::new(FairGate::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Hold the only slot (ticket 0) so arrivals queue up behind it in
        // a known order.
        let first = gate.enter();
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let (waiter, order) = (gate.clone(), order.clone());
                let h = std::thread::spawn(move || {
                    let _slot = waiter.enter();
                    order.lock().expect("order").push(i);
                });
                // Waiter i holds ticket i + 1 once the gate has handed out
                // i + 2 tickets; only then may waiter i + 1 arrive.
                while gate.state.lock().expect("gate lock").next_ticket < i + 2 {
                    std::thread::yield_now();
                }
                h
            })
            .collect();
        drop(first);
        for h in handles {
            h.join().expect("waiter");
        }
        assert_eq!(*order.lock().expect("order"), (0..8).collect::<Vec<_>>());
    }
}
