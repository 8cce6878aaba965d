//! # wire — the policy server on a real wire
//!
//! Everything before this crate exchanged telemetry and decisions through
//! in-process calls: [`serve::PolicyServer::submit`] on one side,
//! `run_epoch` on the other. This crate puts that surface on a byte
//! stream and then proves nothing changed:
//!
//! * **Framing** ([`frame`]) — a versioned, length-prefixed, CRC-32
//!   checked envelope (`PCWR` magic) carrying the full serve surface:
//!   telemetry submit, decision fetch, admission/eviction notices,
//!   shed/backpressure outcomes, and snapshot-backed session resume.
//!   Every malformed input maps to a typed [`frame::FrameError`] naming
//!   the offending offset; count limits are checked *before* any
//!   count-sized allocation.
//! * **Gateway** ([`gateway`]) — the transport-agnostic server front-end:
//!   per-tenant submit sequence numbers (retransmit dedupe), watermarked
//!   decision mailboxes (idempotent reads), FNV-authenticated resume
//!   tokens that survive a kill/recover, and typed `Reject` frames
//!   instead of silent drops.
//! * **Transports** — a [`std::net::TcpListener`] front-end ([`tcp`])
//!   with bounded per-connection read budgets, read deadlines, and a
//!   half-open/slowloris reaping watchdog; and a deterministic in-process
//!   duplex shim ([`shim`]) whose byte-stream faults come from
//!   counter-pure draws in [`faults::stream`].
//! * **Client** ([`client`]) — seeded-backoff reconnects, per-connection
//!   circuit breakers, and idempotent resume: a retry loop that is safe
//!   *because of the protocol*, not because the transport is kind.
//! * **The oracle** ([`soak`]) — the chaos soak's one closed loop,
//!   [`serve::drive_soak`], run through a [`ClientFleet`] (one client per
//!   tenant plus an admin ticker) with transport faults armed. Same SLOs
//!   (every admitted tenant accounted for, zero missed cap epochs), and a
//!   decision-log digest bit-identical to the in-process path
//!   (DESIGN.md §15).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod frame;
pub mod gateway;
pub mod shim;
pub mod soak;
pub mod tcp;

pub use client::{Client, ClientConfig, ClientReport, Exhausted};
pub use frame::{
    decode_frame, encode_frame, Frame, FrameError, FrameReader, Notice, NoticeKind, ResumeToken,
    ServerInfo, WireOutcome,
};
pub use gateway::{Conn, ConnStep, Gateway, GatewayStats};
pub use shim::{ShimConn, ShimNet, TransportStats};
pub use soak::{run_wire_soak, token_seed_for, ClientFleet, WireSoakConfig, WireSoakReport};
pub use tcp::{tcp_dialer, TcpServerConfig, TcpServerStats, WireServer};
