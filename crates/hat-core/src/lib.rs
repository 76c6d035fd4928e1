//! # hat-core — Highly Available Transactions
//!
//! The primary contribution of the paper, as a library: protocol state
//! machines for the HAT and non-HAT systems evaluated in §6.3, the client
//! session machinery of §5.1, the isolation/consistency taxonomy of
//! Table 3 / Figure 2, and the ACID-in-the-wild survey of Table 2.
//!
//! ## Protocols
//!
//! Seven engines, from [`ProtocolKind::Eventual`] to
//! [`ProtocolKind::TwoPhaseLocking`]. [`ProtocolKind::model`] states the
//! Table 3 model each one guarantees, and through
//! [`taxonomy::Model::availability`] its availability class.
//!
//! Servers and clients are deterministic [`hat_sim::Actor`]s; the same
//! state machines run under the discrete-event simulator and the threaded
//! runtime. Each protocol is a pair of halves — a
//! [`protocol::ProtocolEngine`] plugged into the protocol-agnostic
//! [`Server`] and a [`protocol::ClientProtocol`] plugged into the
//! protocol-agnostic [`ClientCore`]; new levels register both in
//! [`protocol::engine_for`] or inject them through
//! [`DeploymentBuilder::engine_factory`] without touching either.
//!
//! ## High-level API
//!
//! [`DeploymentBuilder`] assembles a cluster deployment;
//! [`Frontend::open_session`] opens sessions with per-session options;
//! [`Frontend::txn`] runs interactive transactions with typed results:
//!
//! ```
//! use hat_core::{
//!     ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SessionOptions,
//! };
//!
//! let mut front = DeploymentBuilder::new(ProtocolKind::ReadCommitted)
//!     .seed(7)
//!     .clusters(ClusterSpec::single_dc(2, 3))
//!     .build();
//! let session = front.open_session(SessionOptions::default());
//! front.txn(&session, |t| t.put("greeting", "hello"));
//! front.quiesce();
//! let v = front.txn(&session, |t| t.get("greeting"));
//! assert_eq!(v.as_deref(), Some("hello"));
//! ```
//!
//! The same code runs against the threaded runtime by swapping
//! `build()` for `build_threaded()` (from the `hat-runtime` crate) —
//! [`Frontend`] is the backend-agnostic surface.

pub mod api;
pub mod client;
pub mod cluster;
pub mod config;
pub mod error;
pub mod frontend;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod survey;
pub mod taxonomy;
pub mod timestamp;
pub mod txn;

pub use api::{net_tracer, DeploymentBuilder, SimFrontend};
pub use client::{Client, ClientCmd, ClientCore, ClientReply, SessionLevel, SessionOptions};
pub use cluster::{ClusterLayout, ClusterSpec};
pub use config::{ProtocolKind, ReadMode, RetryPolicy, ServiceModel, SystemConfig};
pub use error::HatError;
pub use frontend::{Frontend, Session, TxnBackend, TxnCtx};
pub use messages::Msg;
pub use metrics::ClientMetrics;
pub use node::Node;
pub use protocol::{engine_for, ClientProtocol, ProtocolEngine, ServerView};
pub use server::{Server, ServerStats};
pub use shard::ShardRing;
pub use timestamp::{Timestamp, TimestampGen};
pub use txn::{Op, OpRecord, TxnOutcome, TxnRecord, TxnSpec};

// Re-export the tracing vocabulary so downstream crates (runtime,
// nemesis, bench) speak it without a direct hat-trace dependency.
pub use hat_trace::{
    events_recorded_total, format_txn_window, format_window, spans, DropReason, OpKind, OpSpan,
    TraceEvent, TraceEventKind, TraceSink, TxnId, TxnSpan,
};
