//! # gpu-sim — a deterministic wavefront-granular GPU timing simulator
//!
//! This crate is the simulation substrate for the PCSTALL reproduction
//! (*Predict; Don't React for Enabling Efficient Fine-Grain DVFS in GPUs*,
//! ASPLOS 2023). It models a Vega-class GPU at the granularity the paper's
//! mechanisms operate on:
//!
//! * **Compute units** with 40 wavefront slots, *oldest-first* scheduling,
//!   in-order per-wavefront issue and `s_waitcnt`-style asynchronous memory
//!   semantics ([`cu::Cu`]).
//! * **Per-CU clock domains** whose frequency can change at epoch
//!   boundaries with a modeled IVR/FLL transition stall ([`gpu::Gpu`]).
//! * A **shared memory system** — per-CU L1s in the CU clock domain, 16
//!   banked L2 slices and DRAM channels in a fixed 1.6 GHz domain — with
//!   deterministic queueing contention ([`mem::MemSystem`]).
//! * **Per-epoch telemetry** equivalent to the hardware performance
//!   counters the paper's estimation models consume ([`stats::EpochStats`]).
//!
//! The whole [`gpu::Gpu`] is `Clone` and execution is bit-exactly
//! deterministic, which implements the paper's fork–pre-execute oracle: a
//! clone is a process fork, and re-running a clone replays the original.
//!
//! ## Quickstart
//!
//! ```
//! use gpu_sim::prelude::*;
//!
//! // Build a small compute kernel: 16 iterations of 8 dependent VALU ops.
//! let mut b = KernelBuilder::new("demo", 8, 4, 42);
//! b.begin_loop(16, 0);
//! b.valu(2, 8);
//! b.end_loop();
//! let app = App::new("demo-app", vec![b.finish()]).map_err(|e| e.to_string())?;
//!
//! let mut gpu = Gpu::new(GpuConfig::tiny(), app);
//! let stats = gpu.run_epoch(Femtos::from_micros(1));
//! assert!(stats.committed_total() > 0);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc_probe;
pub mod cache;
pub mod config;
pub mod cu;
pub mod gpu;
pub mod isa;
pub mod kernel;
pub mod mem;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wavefront;

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use crate::config::GpuConfig;
    pub use crate::gpu::{Gpu, ProgressMeter, RunOutcome};
    pub use crate::isa::{Op, Pc};
    pub use crate::kernel::{AddressPattern, App, Kernel, KernelBuilder};
    pub use crate::stats::{CuEpochStats, EpochStats, WfEpochStats};
    pub use crate::time::{Femtos, Frequency};
}
