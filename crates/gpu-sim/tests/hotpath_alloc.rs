//! Allocation-freedom gate for the steady-state epoch loop.
//!
//! This binary installs a counting `#[global_allocator]` that forwards
//! every heap allocation to `gpu_sim::alloc_probe`. After a warmup phase
//! (where allocation is legitimate: scheduler scratch, telemetry vectors
//! and the CUs' lazily compacted pending-op lists all size themselves),
//! steady-state epochs must perform **zero** allocations — the whole hot
//! path runs out of reused buffers. A single accidental per-event or
//! per-epoch allocation fails this test with the exact count.
//!
//! The probe is also armed so the event loop's own `debug_assert` check
//! (see `Gpu::run_until`) is exercised with a live counter: it attributes
//! any regression to the event-loop window rather than the epoch's
//! telemetry tail. That window covers every CU step, `Cu::run_ahead`'s
//! runs of CU-local steps included, and the dispatcher.
//!
//! One `#[test]` only: the counter is process-global, and a second test
//! thread would bleed its allocations into the measured region.

use gpu_sim::alloc_probe;
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Femtos;
use std::alloc::{GlobalAlloc, Layout, System};

/// Forwards to the system allocator, tallying every allocation (including
/// growth-reallocations) into the probe.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_probe::add(1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_probe::add(1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP_EPOCHS: usize = 30;
const STEADY_EPOCHS: usize = 20;

#[test]
fn steady_state_epochs_do_not_allocate() {
    // lulesh on the 16-CU platform drives every hot structure: dense
    // wavefront occupancy, event-queue traffic, L1/L2/DRAM accesses, dispatch.
    let app = workloads::by_name("lulesh", workloads::Scale::Quick).expect("registered");
    let mut gpu = Gpu::new(GpuConfig::small(), app);
    let mut stats = EpochStats::empty();
    for _ in 0..WARMUP_EPOCHS {
        gpu.run_epoch_into(Femtos::from_micros(1), &mut stats);
    }

    alloc_probe::arm();
    let before = alloc_probe::count();
    for _ in 0..STEADY_EPOCHS {
        gpu.run_epoch_into(Femtos::from_micros(1), &mut stats);
    }
    let grew = alloc_probe::count() - before;
    alloc_probe::disarm();
    assert!(stats.committed_total() > 0, "steady-state epochs must still make progress");
    assert_eq!(
        grew, 0,
        "steady-state epoch loop performed {grew} heap allocations over {STEADY_EPOCHS} epochs; \
         the hot path must run out of reused buffers"
    );
}
