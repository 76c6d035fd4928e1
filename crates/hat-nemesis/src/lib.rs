//! Deterministic fault injection for HAT deployments.
//!
//! A *nemesis* is a seeded, fully deterministic adversarial schedule —
//! a time-ordered list of [`Fault`]s composed from rolling partitions,
//! asymmetric (one-way) link loss, latency spikes, crash-restart with
//! WAL replay and torn log tails, and live shard handoffs racing the
//! workload mid-transaction. The [`runner`] drives every protocol
//! engine through a schedule while a closed-loop workload keeps
//! committing, then heals the deployment, waits for anti-entropy to
//! settle, and asserts:
//!
//! 1. the engine's **advertised Table 3 model** (`ProtocolKind::model`)
//!    still holds over the recorded history (`hat-history`'s phenomenon
//!    checkers);
//! 2. every replica **converges** to the same per-key newest version;
//! 3. a restarted replica provably serves **WAL-recovered state**
//!    (`wal_records_replayed > 0`).
//!
//! HAT systems promise exactly this: availability and their (weak but
//! honest) isolation guarantees *through* partitions and node failures,
//! not merely in their absence. The nemesis harness is the executable
//! form of that claim.
//!
//! Determinism: schedules are pure functions of the cluster layout and
//! the horizon; the simulator consumes one seeded rng stream; faults
//! never draw from it (victims follow the layout, latency scaling
//! multiplies the sampled value without extra draws). Two runs
//! with the same seed are bit-identical — a failing schedule replays
//! exactly from `(schedule, engine, seed)`, which every assertion
//! message includes.

pub mod runner;
pub mod schedule;

pub use runner::{advertised_level, converged, run, workload_keys, NemesisOpts, NemesisReport};
pub use schedule::{
    standard_catalog, Compose, CrashRestart, Fault, Flapping, Handoffs, LatencySpikes, Nemesis,
    Rolling, SplitBrain,
};
