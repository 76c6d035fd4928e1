//! # hat-runtime — threaded runtime for HAT deployments
//!
//! The discrete-event simulator (`hat-sim`) gives determinism; this crate
//! gives *concurrency*: the nodes (servers and clients) run on a pool of
//! worker threads, at most one per core, exchanging messages over
//! `std::sync::mpsc` channels. Each worker is a wall-clock
//! [`hat_sim::Engine`] holding a contiguous range of [`hat_core::Node`]s
//! — servers and clients on separate workers whenever there are two or
//! more — so a send between nodes on one worker never takes a channel.
//! It is the simulator's event loop and the protocol state machines it
//! drives, so anything verified deterministically also runs for real,
//! and service-time holds and mean network latency become actual
//! delays. The park policy and the timer rule are in [`node_loop`].
//!
//! One type, [`Runtime`], is the running deployment, with two entry
//! points that build it the same way: [`Runtime::spawn`] for closed loops
//! (driver-mode clients replay `TxnSource` plans, and
//! [`Runtime::shutdown`] collects metrics and histories), and
//! [`BuildThreaded::build_threaded`], named like the simulator's
//! `build()`, for interactive transactions through the backend-agnostic
//! [`hat_core::Frontend`] surface; the conformance suite runs identical
//! scripts against both backends. Every client has its command port
//! either way, and dropping a `Runtime` stops and joins its workers.

pub mod node_loop;
pub mod runtime;

pub use runtime::{BuildThreaded, Runtime, RuntimeConfig};
