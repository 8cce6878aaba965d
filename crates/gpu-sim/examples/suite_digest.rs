//! Prints a per-workload digest of observable simulator behavior over the
//! full Table II suite: epoch stats and snapshot bytes after six 1 µs
//! epochs, plus the run-to-completion outcome. A second block repeats the
//! digest for a few workloads on the 64-CU paper platform, on a 12-CU GPU
//! (a CU count that is not a power of two), on 8 CUs of 80 wavefront
//! slots (comd, dgemm and BwdSoft keep more than 64 wavefronts live per
//! CU, past one 64-bit word of the CU's ready set) and on a single CU
//! (no other CU ever precedes it, so the event loop runs every one of its
//! steps ahead of the wake tree), with every CU retimed at each epoch
//! boundary so frequency-transition stalls reschedule CUs mid-run.
//!
//! The digest is the bit-exactness oracle for hot-path work. `ci.sh` diffs
//! its output against `suite_digest.expected`:
//!
//! ```sh
//! cargo run --release -p gpu-sim --example suite_digest \
//!     | diff crates/gpu-sim/examples/suite_digest.expected -
//! ```
//!
//! Any changed line means observable behavior changed, which a perf change
//! must not do. Regenerate the file only for a change that means to alter
//! simulated behavior, and say so in its change notes.

use gpu_sim::prelude::*;
use workloads::registry::{all, by_name, Scale};

/// Workloads repeated on the extra CU shapes: compute-bound, memory-bound,
/// multi-kernel and barrier-heavy shapes.
const EXTRA_WORKLOADS: [&str; 4] = ["comd", "lulesh", "dgemm", "BwdSoft"];

/// V/f states cycled through by the retimed digests.
const RETIME_MHZ: [u32; 3] = [1300, 2200, 1700];

/// FNV-1a, 64-bit. Deliberately dependency-free; this is a diff aid, not a
/// cryptographic commitment.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Sets CU `i` to the `(epoch + i)`-th retime state with a 50 ns
/// transition stall.
fn retime(gpu: &mut Gpu, epoch: usize) {
    for cu in 0..gpu.n_cus() {
        let mhz = RETIME_MHZ[(epoch + cu) % RETIME_MHZ.len()];
        gpu.set_cu_frequency(cu, Frequency::from_mhz(mhz), Femtos::from_nanos(50));
    }
}

fn digest_epochs(cfg: GpuConfig, app: &App, retimed: bool) -> u64 {
    let mut gpu = Gpu::new(cfg, app.clone());
    let mut h = Fnv::new();
    for epoch in 0..6 {
        if retimed {
            retime(&mut gpu, epoch);
        }
        let stats = gpu.run_epoch(Femtos::from_micros(1));
        h.write(format!("{stats:?}").as_bytes());
    }
    h.write(&gpu.save_snapshot());
    h.0
}

fn digest_completion(cfg: GpuConfig, app: &App) -> u64 {
    let mut gpu = Gpu::new(cfg, app.clone());
    let outcome = gpu.run_to_outcome(Femtos::from_micros(100_000));
    let mut h = Fnv::new();
    h.write(format!("{outcome:?}").as_bytes());
    h.write(&gpu.save_snapshot());
    h.0
}

fn main() {
    let small = GpuConfig::small();
    for w in all() {
        let app = (w.build)(Scale::Quick);
        println!(
            "{:<8} epochs={:016x} complete={:016x}",
            w.name,
            digest_epochs(small, &app, false),
            digest_completion(small, &app),
        );
    }
    let extra = [
        ("cus64", GpuConfig::default()),
        ("cus12", GpuConfig { n_cus: 12, ..small }),
        ("slots80", GpuConfig { n_cus: 8, wf_slots: 80, ..small }),
        ("cus1", GpuConfig { n_cus: 1, ..small }),
    ];
    for (label, cfg) in extra {
        for name in EXTRA_WORKLOADS {
            let app = by_name(name, Scale::Quick).expect("registry workload");
            println!(
                "{name:<8} {label} retimed epochs={:016x} complete={:016x}",
                digest_epochs(cfg, &app, true),
                digest_completion(cfg, &app),
            );
        }
    }
}
