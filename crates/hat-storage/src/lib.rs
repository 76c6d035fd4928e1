//! Multi-versioned key-value storage substrate for HAT replicas.
//!
//! The paper's prototype backs each replica with LevelDB and a write-ahead
//! log: "Servers are durable: they synchronously write to LevelDB before
//! responding to client requests, while new writes in MAV are synchronously
//! flushed to a disk-resident write-ahead log" (§6.3). This crate is the
//! equivalent substrate, built from scratch:
//!
//! * [`version`] — totally-ordered version stamps (`(sequence, writer)`
//!   pairs — the paper's "client ID + sequence number" timestamps) and
//!   versioned records.
//! * [`memtable`] — an ordered, multi-versioned in-memory table with
//!   last-writer-wins visibility, snapshot (`≤ stamp`) reads, prefix scans
//!   for predicate reads, and version garbage collection.
//! * [`wal`] — a checksummed, length-prefixed append-only write-ahead log
//!   with a pre-zeroed tail, so a sync flushes data rather than a new
//!   file size, and one-pass crash recovery (torn tails are detected and
//!   cut).
//! * [`store`] — the [`store::Store`] trait plus [`store::MemStore`]
//!   (volatile) and [`store::DurableStore`] (WAL-backed) implementations.
//!
//! The store is deliberately replica-local: replication, visibility rules
//! (e.g. MAV's pending/good sets) and conflict policy all live in
//! `hat-core`'s protocol layer. The storage layer guarantees only the
//! per-item total version order that Read Uncommitted requires (§5.1.1).

pub mod error;
pub mod memtable;
pub mod store;
pub mod version;
pub mod wal;

pub use error::StorageError;
pub use memtable::Memtable;
pub use store::{DurableStore, MemStore, Store, SyncPolicy};
pub use version::{Key, Record, SharedRecord, VersionStamp};
pub use wal::{Wal, WalEntry};
