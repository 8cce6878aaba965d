//! # pcstall-repro — reproduction of *Predict; Don't React* (ASPLOS 2023)
//!
//! A from-scratch Rust implementation of the paper's entire evaluation
//! stack for fine-grain GPU DVFS:
//!
//! | Crate | Role |
//! |---|---|
//! | [`gpu_sim`] | Deterministic wavefront-granular GPU timing simulator with per-CU clock domains |
//! | [`workloads`] | The 16 synthetic Table II applications (9 HPC + 7 MI) |
//! | [`power`] | V(f) curve, per-CU power, energy integration, ED^nP metrics, Table I storage model |
//! | [`dvfs`] | V/f states, domain partitioning, fixed-time epochs, EDP/ED²P/energy objectives |
//! | [`pcstall`] | The paper's contribution: wavefront-level estimation, the PC-indexed sensitivity table, all Table III designs, the fork–pre-execute oracle |
//! | [`harness`] | Experiment runner regenerating every figure and table |
//!
//! ## Quickstart
//!
//! ```
//! use harness::runner::{run, RunConfig};
//! use pcstall::policy::{PcStallConfig, PolicyKind};
//! use workloads::{by_name, Scale};
//!
//! let app = by_name("comd", Scale::Quick).expect("registered workload");
//! let mut cfg = RunConfig::reduced(PolicyKind::PcStall(PcStallConfig::default()));
//! cfg.gpu = gpu_sim::config::GpuConfig::tiny();
//! cfg.max_epochs = 10;
//! let result = run(&app, &cfg);
//! assert!(result.epochs > 0);
//! ```
//!
//! See `examples/` for end-to-end scenarios. Every paper figure, table and
//! ablation runs through the `repro` binary: `repro list` names them,
//! `repro run fig14` regenerates one into `results/`, and `repro all` runs
//! them all.

pub use dvfs;
pub use gpu_sim;
pub use harness;
pub use pcstall;
pub use power;
pub use workloads;
