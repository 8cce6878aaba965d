//! # serve — a fault-hardened multi-tenant DVFS policy server
//!
//! The paper's PCSTALL predictor only pays off if a decision arrives every
//! epoch, on time, for every tenant — even when telemetry is late, lossy,
//! or adversarial. This crate is the service-level framing of that
//! requirement: a long-running, std-only policy server that manages
//! thousands of concurrent *sessions*, each holding per-tenant PCSTALL
//! predictor state (a [`pcstall::pc_table::PcTable`]), all stepped
//! serially on one thread.
//!
//! The moving parts, and where they come from:
//!
//! * **Ingest** ([`queue`]) — telemetry batches enter bounded,
//!   priority-tiered queues with explicit backpressure. Overload sheds the
//!   lowest-priority queued work first, and *never silently*: every shed
//!   decision is counted per tier and surfaced in the server stats.
//! * **Admission & eviction** ([`server`]) — a cap on live tenants; the
//!   coldest tenants, popped off one victim heap per epoch, are evicted
//!   into CRC-checked [`snapshot::ContainerWriter`] containers the server
//!   holds itself, and restored **bit-exactly** on their next batch
//!   (live-migration in miniature). Torn reads are detected by the
//!   container CRC and walked through seeded retry/backoff before falling
//!   back to a cold rebuild.
//! * **Degradation** ([`session`]) — circuit breakers keyed by tenant id
//!   ([`supervise::CircuitBreaker`], attributable per tenant through
//!   [`supervise::KeyedSupervisionReport`]) guard each telemetry channel;
//!   a blind tenant walks the PR-3 `ResilientPolicy` degradation ladder
//!   (hold → STALL-on-last-good → safe-max) instead of stalling the epoch.
//! * **Arbitration** ([`server`]) — a global power-cap arbiter
//!   deterministically redistributes headroom: tenants with the flattest
//!   predicted frequency response (memory-bound or degraded-blind) are
//!   demoted first, freeing watts for frequency-sensitive tenants.
//! * **Chaos** ([`soak`]) — a seeded soak drives correlated fault storms
//!   (the `faults` crate's storm profile), hung tenants, and torn snapshot
//!   reads through the server and asserts the SLOs: every admitted tenant
//!   live or held, no missed global-cap epoch, and a bit-identical
//!   decision log across a kill-and-recover mid-soak restart. Its one
//!   closed loop, [`drive_soak`], reaches the server through the
//!   [`SoakFleet`] trait, which the server implements in process and the
//!   `wire` crate's client fleet implements over PCWR.
//!
//! ## Determinism
//!
//! Every decision is a pure function of the submitted batches and the
//! server's snapshot state. Every step of an epoch runs serially in
//! ascending tenant id, and no server-side draw reads a clock or thread
//! state, so the chaos soak can pin its decision digest as a constant
//! and demand it again after a kill-and-recover or over the wire
//! (DESIGN.md §13).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;
pub mod server;
pub mod session;
pub mod soak;
pub mod telemetry;

pub use queue::{IngestQueues, ShedStats, SubmitOutcome};
pub use server::{Decision, PolicyServer, ServerConfig, ServerStats};
pub use session::{Request, Rung, TenantSession};
pub use soak::{drive_soak, run_soak, server_config_for, SoakConfig, SoakFleet, SoakReport};
pub use telemetry::{synth_record, TelemetryBatch, TenantRecord};
