//! # hat-runtime — threaded runtime for HAT deployments
//!
//! The discrete-event simulator (`hat-sim`) gives determinism; this crate
//! gives *concurrency*: every node (server or client) runs on its own OS
//! thread, exchanging messages over `std::sync::mpsc` channels. The protocol
//! state machines are exactly the ones the simulator drives —
//! [`hat_core::Node`] — so anything verified deterministically also runs
//! for real. Service-time holds and modelled network latency become
//! actual delays on the delivery schedule.
//!
//! One type, [`Runtime`], is the running deployment, with two entry
//! points that build it the same way:
//!
//! * [`Runtime::spawn`], for closed loops: driver-mode clients replay
//!   `TxnSource` plans, and [`Runtime::shutdown`] collects metrics and
//!   histories.
//! * [`BuildThreaded::build_threaded`], named like the simulator's
//!   `build()`: interactive transactions go into client threads over
//!   command channels through the backend-agnostic
//!   [`hat_core::Frontend`] surface — the conformance suite runs
//!   identical scripts against both backends.
//!
//! Every client has its command port either way, and dropping a
//! `Runtime` stops and joins its threads.

pub mod node_loop;
pub mod runtime;

pub use runtime::{BuildThreaded, Runtime, RuntimeConfig};
