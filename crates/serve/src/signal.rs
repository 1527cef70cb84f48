//! SIGTERM/SIGINT → drain flag: the workspace's only `unsafe` code,
//! kept to a single libc `signal()` registration.
//!
//! `std` exposes no signal API and the workspace is dependency-free, so
//! the daemon registers a handler through the C `signal` symbol every
//! unix libc exports. The handler does the only async-signal-safe thing
//! possible: one relaxed atomic store into [`term_flag`]. The serve
//! accept loop polls that flag and turns it into a graceful drain —
//! finish admitted work, refuse new work, exit 0 — so `kill -TERM` and
//! a protocol `shutdown` request take the identical code path.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

/// The process-wide drain flag raised by the handler that
/// [`install_term_handler`] registers. Pass it to
/// `Server::serve_unix`.
pub fn term_flag() -> &'static AtomicBool {
    &TERM
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The installed handler: async-signal-safe by construction (a single
/// relaxed store, no allocation, no locks, no formatting).
extern "C" fn raise_term(_signum: i32) {
    TERM.store(true, Ordering::Relaxed);
}

extern "C" {
    // ISO C `signal(2)`; the return value (the previous handler) is a
    // function pointer we never call, declared as a pointer-sized
    // integer to avoid materializing a callable type for it.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
}

/// Registers the handler that raises [`term_flag`] for `SIGTERM` and
/// `SIGINT`. Idempotent.
pub fn install_term_handler() {
    // SAFETY: `signal` is the ISO C registration call present in every
    // unix libc; `raise_term` is an `extern "C" fn(i32)` matching the
    // handler ABI and is async-signal-safe (one atomic store). We
    // discard the previous handler, which is the intended takeover.
    unsafe {
        signal(SIGTERM, raise_term);
        signal(SIGINT, raise_term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Installs the handler and delivers a real SIGTERM to this test
    /// process via `kill`. If registration were broken the default
    /// disposition would terminate the test binary — failure shows up
    /// as a dead test run, success as the latched flag.
    #[test]
    fn sigterm_latches_the_drain_flag() {
        install_term_handler();
        assert!(!term_flag().load(Ordering::Relaxed));
        let status = std::process::Command::new("kill")
            .args(["-s", "TERM", &std::process::id().to_string()])
            .status()
            .expect("spawn kill");
        assert!(status.success());
        // Delivery is asynchronous; give the kernel a moment.
        for _ in 0..100 {
            if term_flag().load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("SIGTERM was delivered but the flag never latched");
    }
}
