//! Protocol-specific state machines: per level, a server half behind
//! [`ProtocolEngine`] and a client half behind [`ClientProtocol`], side
//! by side in one module.
//!
//! * [`engine`] — the two traits every isolation / consistency level
//!   implements, the [`ServerView`] handed to server hooks, the
//!   [`EngineMsg`] body an engine's own messages carry, and the
//!   [`engine_for`] registry.
//! * [`eventual`] / [`read_committed`] / [`master`] — the last-writer-
//!   wins engines (the isolation differences live in the client halves:
//!   write-through vs buffering, any-replica vs master routing).
//! * [`mav`] — the two-phase Monotonic Atomic View algorithm of §5.1.2 /
//!   Appendix B (pending/good sets, sibling acknowledgements).
//! * [`ramp`] — the Read Atomic (RAMP) family: atomic visibility by
//!   reader-side repair from per-write metadata instead of MAV's
//!   server-side notification fan-in.
//! * [`twopl`] — the distributed two-phase-locking lock table (the
//!   unavailable serializable baseline of §6.1/§6.3).
//! * [`replication`] — the anti-entropy buffer shared by all
//!   configurations (§5.1.4 convergence).

pub mod engine;
pub mod eventual;
pub mod master;
pub mod mav;
pub mod ramp;
pub mod read_committed;
pub mod replication;
pub mod twopl;

pub use engine::{
    engine_for, lww_apply, ClientProtocol, EngineMsg, EnginePair, ProtocolEngine, Route,
    ServerView, Step,
};
pub use eventual::EventualEngine;
pub use master::MasterEngine;
pub use mav::MavEngine;
pub use ramp::{RampCore, RampFastEngine, RampSmallEngine};
pub use read_committed::ReadCommittedEngine;
pub use twopl::TwoPlEngine;
