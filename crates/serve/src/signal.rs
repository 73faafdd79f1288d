//! Minimal async-signal-safe shutdown flag for SIGINT/SIGTERM.
//!
//! The container has no `libc` crate, so the handler is installed
//! through a raw `signal(2)` FFI declaration (libc's `signal` symbol is
//! always present in the C runtime Rust links against on Unix). The
//! handler does the only async-signal-safe thing possible: it flips one
//! global `AtomicBool`. The server's accept waker polls it and wakes
//! the blocking `accept(2)` with one loopback connect; connection
//! threads poll it between reads.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; polled by the accept waker and the
/// connection threads.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod unix {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)` from the C runtime. The return value (the
        /// previous handler) is deliberately ignored.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only atomics are async-signal-safe; everything else (logging,
        // joining, dropping) happens on the accept loop's thread.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the standard C library function; the
        // handler only touches a static atomic.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Installs the SIGINT/SIGTERM handler (no-op on non-Unix platforms,
/// where only [`request_shutdown`] can trigger a drain).
pub fn install() {
    #[cfg(unix)]
    unix::install();
}

/// Whether a shutdown was requested (by a signal or programmatically).
#[must_use]
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests a shutdown programmatically (tests; non-Unix fallback).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears the flag (tests only — real servers exit after one drain).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}
