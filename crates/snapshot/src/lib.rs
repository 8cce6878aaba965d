//! # snapshot — versioned, checksummed binary simulator checkpoints
//!
//! This crate is the persistence layer of the reproduction: it turns live
//! simulator state into compact, self-describing byte strings and back,
//! **bit-exactly**. A restored simulator must replay the same event stream
//! as the original, so the codec never goes through floating-point text,
//! platform-dependent layouts or hash-ordered containers — every field is
//! written explicitly, in a fixed order, by a hand-written [`Snapshot`]
//! implementation that mirrors the simulator's manual `clone_from` chain.
//!
//! Four modules, bottom up:
//!
//! * [`codec`] — a varint-packed [`codec::Encoder`]/[`codec::Decoder`] pair
//!   and the [`Snapshot`] trait with implementations for primitives,
//!   `Option`, `Vec`, tuples and strings. Decoding is total: malformed
//!   input yields a typed [`SnapError`], never a panic.
//! * [`envelope`] — the single-payload framed envelope (magic, version,
//!   length, CRC-32) shared by the kernel-trace and wire formats, with
//!   one error type and one field-attributed payload cursor.
//! * [`container`] — the on-disk/file format: magic + format version +
//!   named section table with a CRC-32 per section
//!   ([`container::ContainerWriter`] / [`container::ContainerReader`]).
//!   Truncated bytes, flipped bits and future format versions are all
//!   rejected with distinct errors before any payload is interpreted.
//! * [`store`] — a content-addressed [`store::SnapshotStore`]: an
//!   in-memory LRU in front of an on-disk cache directory, keyed by a
//!   stable hash of whatever identifies the cached state (application,
//!   configuration, warmup depth). Disk writes go through a pluggable
//!   atomic writer so embedders reuse their crash-safe I/O path.
//!
//! The crate is `std`-only and dependency-free by design: it sits below
//! every simulator crate in the dependency graph.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod container;
pub mod crc32;
pub mod envelope;
pub mod error;
pub mod store;

pub use codec::{Decoder, Encoder, Snapshot};
pub use container::{ContainerReader, ContainerWriter, FORMAT_VERSION};
pub use error::SnapError;
pub use store::{content_key, fnv1a64, SnapshotStore};
