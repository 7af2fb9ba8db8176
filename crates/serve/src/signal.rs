//! Minimal SIGTERM / SIGINT hook for graceful shutdown.
//!
//! The workspace is offline (no `libc`/`signal-hook` crates), so on Unix
//! this binds `signal(2)` from the already-linked C library directly. The
//! handler only stores into a static atomic — the one thing that is
//! unconditionally async-signal-safe. `signal(2)` installs restartable
//! handlers, so a signal does not interrupt the accept loop's blocking
//! `accept`; the loop's waker thread polls [`triggered`] (through
//! `Service::is_shutdown`) and connects to the listener to wake it.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has been received (or [`trigger`] called).
#[must_use]
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::Relaxed)
}

/// Programmatic equivalent of receiving a termination signal (tests, and
/// the in-process `Shutdown` request path).
pub fn trigger() {
    TRIGGERED.store(true, Ordering::Relaxed);
}

/// Installs the handler for SIGTERM and SIGINT. Idempotent; a no-op on
/// non-Unix targets (ctrl-c then terminates the process the default way).
#[cfg(unix)]
#[allow(unsafe_code)]
pub fn install() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        TRIGGERED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    // SAFETY: `signal(2)` with a handler that performs a single atomic
    // store; both arguments are valid for the lifetime of the process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// Non-Unix fallback: no handler is installed.
#[cfg(not(unix))]
pub fn install() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_flips_the_flag() {
        install();
        // The flag may already be set if another test triggered it; this
        // test only asserts the set path (the flag is process-global).
        trigger();
        assert!(triggered());
    }
}
