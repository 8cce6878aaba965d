//! # scenarios — trace-driven workloads and the seeded scenario fuzzer
//!
//! The paper's evaluation runs on sixteen hand-built Table II stand-ins;
//! this crate breaks that ceiling in both directions behind one
//! [`Source`] abstraction that yields `gpu_sim::kernel::App`s:
//!
//! * [`trace`] — a compact, versioned, checksummed kernel-trace format
//!   (binary and text) in the style of trace-driven GPU simulators:
//!   [`trace::record`] serializes any existing app, [`trace::parse`]
//!   reconstructs it bit-exactly, and every malformed input is a typed
//!   [`trace::TraceError`] naming the offset/field — never a panic. A
//!   replayed trace runs through every harness entry point (sweeps,
//!   figures, agreement, serve) exactly like a registry workload.
//! * [`fuzz`] — a seeded, counter-based scenario generator (the same
//!   splitmix64 discipline as `faults`): [`fuzz::generate`]`(seed, index)`
//!   is a pure function, bit-identical at any thread count and across
//!   process invocations, composing instruction mixes, phase structure,
//!   divergence, locality patterns and multi-kernel sequences.
//! * [`properties`] — the differential oracles fuzzed scenarios are
//!   checked against: V/f-grid energy monotonicity, energy-accounting
//!   conservation across snapshot splits and snapshot round-trip
//!   bit-exactness.
//! * [`source`] — [`Source::parse`] turns `"xsbench"`, `"trace:p.pckt"` or
//!   `"fuzz:42:7"` specs into buildable sources, with did-you-mean
//!   suggestions on registry misses.
//!
//! Std-only, like every crate in the workspace.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fuzz;
pub mod properties;
pub mod source;
pub mod trace;

pub use properties::{PropertyConfig, PropertyViolation};
pub use source::{Source, SourceError};
pub use trace::TraceError;
