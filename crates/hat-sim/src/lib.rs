//! Deterministic discrete-event network simulator for HAT experiments.
//!
//! The HAT paper ([Bailis et al., VLDB 2013]) evaluates its prototype on
//! Amazon EC2 across seven geographic regions. This crate replaces that
//! testbed with a deterministic, seeded simulation:
//!
//! * [`time`] — a microsecond-resolution logical clock ([`SimTime`]).
//! * [`event`] — the ordered event queue driving the simulation.
//! * [`latency`] — round-trip latency models calibrated to the paper's
//!   published EC2 measurements (Table 1a/b/c), including log-normal tails
//!   for reproducing the CDFs of Figure 1.
//! * [`partition`] — explicit network partition schedules; partitions are
//!   first-class data so impossibility results (§5.2) can be exercised
//!   deterministically.
//! * [`topology`] — sites (region + availability zone) and node placement.
//! * [`engine`] — the simulation engine: actors exchange messages and
//!   timers; delivery latency is drawn from the latency model and messages
//!   crossing an active partition are dropped. Built on the wall clock
//!   instead ([`Engine::wall`]), the same engine is each worker thread
//!   of the threaded runtime, holding a range of nodes.
//!
//! Everything is deterministic given a seed: two runs with identical
//! configuration produce identical histories, which the test suite relies
//! on heavily.
//!
//! [Bailis et al., VLDB 2013]: https://arxiv.org/abs/1302.0309

pub mod engine;
pub mod event;
pub mod latency;
pub mod partition;
pub mod time;
pub mod topology;

pub use engine::{
    Actor, Ctx, Engine, EngineConfig, Link, NetHop, NetStats, NetTracer, NodeFaultStats, TimerId,
};
pub use event::{Event, EventQueue};
pub use latency::{LatencyModel, LinkClass, Region, RegionPair, ALL_REGIONS};
pub use partition::{Partition, PartitionSchedule};
pub use time::{SimDuration, SimTime};
pub use topology::{NodeId, Site, Topology};
