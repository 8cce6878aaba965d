//! # harness — the PCSTALL experiment runner
//!
//! Reproduces every figure and table of the paper's evaluation:
//!
//! * [`session`] — the layered run engine: a [`session::Session`] owns the
//!   GPU and the policy and steps one epoch at a time, while energy
//!   integration, accuracy scoring, residency tracking, the power-cap
//!   manager and sensitivity tracing attach as [`session::RunObserver`]s.
//! * [`runner`] — policy-in-the-loop simulation of one application: a thin
//!   composition of [`session`] with the standard observer set.
//! * [`studies`] — the characterization studies (Figures 5–11) built on
//!   fork-probed sensitivity traces.
//! * [`sweeps`] — parallel (workload × design) grids, with per-grid
//!   resume journals (a killed sweep restarts without redoing completed
//!   cells, bit-identically).
//! * [`supervised`] — watchdogged grids: per-cell deadlines, deterministic
//!   retry/backoff, per-app circuit breaking and preemption snapshots
//!   (DESIGN.md §10).
//! * [`snapcache`] — the content-addressed warmup snapshot store: warmup
//!   prefixes are restored from versioned binary snapshots instead of
//!   re-simulated.
//! * [`figures`] — one entry point per paper figure/table and per
//!   ablation/extension study, each reading only a [`figures::Preset`]
//!   (`repro run <id>` runs and archives them).
//! * [`report`] — markdown/CSV rendering via the crash-safe atomic writer
//!   into [`report::results_dir`];
//!   [`ascii`] — terminal charts.
//! * [`agreement`] — decision-agreement analysis against the oracle.
//! * [`error`] — typed [`error::HarnessError`]s every figure entry point
//!   returns instead of panicking.
//!
//! ```no_run
//! use harness::figures::{fig14, Preset};
//! let out = fig14(&Preset::reduced()).expect("figure assembled");
//! println!("{}", out.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agreement;
pub mod ascii;
pub mod error;
pub mod figures;
pub mod report;
pub mod runner;
pub mod session;
pub mod snapcache;
pub mod studies;
pub mod supervised;
pub mod sweeps;

pub use error::HarnessError;
pub use figures::{FigureOutput, Preset};
pub use runner::{run, run_with_sensitivity_trace, RunConfig, RunResult};
pub use session::{RunObserver, SensitivityTrace, Session};
pub use supervised::{run_grid_supervised, SuperviseConfig, SupervisedGrid};
