//! Allocation probe for the hot-path allocation-freedom gate.
//!
//! The steady-state epoch loop is designed to be allocation-free: every
//! buffer it touches (event queue, scheduler scratch, telemetry
//! vectors) is reused in place after warmup. This module gives tests a
//! way to *enforce* that instead of trusting it.
//!
//! The probe is a process-global counter that a test binary's
//! `#[global_allocator]` feeds via [`add`] on every heap allocation (see
//! `tests/hotpath_alloc.rs`). The simulator never feeds it — under the
//! normal system allocator the counter stays at zero forever — so the
//! checks below are inert outside an instrumented test binary.
//!
//! Two layers of checking:
//!
//! * The test itself reads [`count`] around a steady-state region and
//!   asserts the delta is zero.
//! * When a test additionally [`arm`]s the probe, the serial event loop
//!   records the counter on entry and `debug_assert`s on exit that it
//!   did not grow, attributing any accidental per-event allocation to
//!   the exact window that performed it. Debug builds only; release
//!   builds compile the check out entirely.
//!
//! Everything is `Relaxed`: the counter is a tally, not a
//! synchronization point, and the instrumented tests are single-threaded
//! over the measured region.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

/// Records `n` heap allocations. Called from a test binary's counting
/// `#[global_allocator]`; never called by the simulator itself.
#[inline]
pub fn add(n: u64) {
    COUNT.fetch_add(n, Ordering::Relaxed);
}

/// Total allocations recorded so far (0 unless a counting allocator is
/// installed).
#[inline]
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Arms the in-loop `debug_assert` check: while armed, each serial
/// event-loop window asserts (in debug builds) that it performed no
/// recorded allocations.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the in-loop check.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether the in-loop check is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_arming_toggles() {
        let before = count();
        add(3);
        add(2);
        assert_eq!(count() - before, 5);
        assert!(!armed());
        arm();
        assert!(armed());
        disarm();
        assert!(!armed());
    }
}
