//! Prints a per-workload digest of observable simulator behavior over the
//! full Table II suite: epoch stats and snapshot bytes after six 1 µs
//! epochs at 1 and 4 lanes, plus the run-to-completion outcome. A second
//! block repeats the digest for a few workloads on the 64-CU paper
//! platform and on a 12-CU GPU (a CU count that is not a power of two),
//! with every CU retimed at each epoch boundary so frequency-transition
//! stalls reschedule CUs mid-run.
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

/// Workloads repeated on the extra CU counts: compute-bound, memory-bound,
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

fn digest_epochs(cfg: GpuConfig, app: &App, lanes: usize, retimed: bool) -> u64 {
    let mut gpu = Gpu::new(cfg, app.clone());
    gpu.set_sim_lanes(lanes);
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
    gpu.set_sim_lanes(1);
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
            "{:<8} lanes1={:016x} lanes4={:016x} complete={:016x}",
            w.name,
            digest_epochs(small, &app, 1, false),
            digest_epochs(small, &app, 4, false),
            digest_completion(small, &app),
        );
    }
    let extra = [("cus64", GpuConfig::default()), ("cus12", GpuConfig { n_cus: 12, ..small })];
    for (label, cfg) in extra {
        for name in EXTRA_WORKLOADS {
            let app = by_name(name, Scale::Quick).expect("registry workload");
            println!(
                "{name:<8} {label} retimed lanes1={:016x} lanes4={:016x} complete={:016x}",
                digest_epochs(cfg, &app, 1, true),
                digest_epochs(cfg, &app, 4, true),
                digest_completion(cfg, &app),
            );
        }
    }
}
