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
//! Two ways to drive it:
//!
//! * **Closed-loop** ([`Runtime::spawn`]): driver-mode clients replay
//!   `TxnSource` plans; metrics and histories are collected at shutdown.
//! * **Interactive** ([`BuildThreaded::build_threaded`]): a
//!   [`RuntimeFrontend`] injects transaction operations into client
//!   threads over command channels, exposing the same backend-agnostic
//!   [`hat_core::Frontend`] surface as the simulator — the conformance
//!   suite runs identical scripts against both.

pub mod node_loop;
pub mod runtime;

pub use runtime::{BuildThreaded, Runtime, RuntimeConfig, RuntimeFrontend};
