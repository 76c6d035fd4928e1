//! # hatdb — Highly Available Transactions in Rust
//!
//! A from-scratch reproduction of *Highly Available Transactions: Virtues
//! and Limitations* (Bailis, Davidson, Fekete, Ghodsi, Hellerstein,
//! Stoica — VLDB 2013, extended version arXiv:1302.0309).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim`] — deterministic discrete-event simulator with EC2-calibrated
//!   latency models and partition injection.
//! * [`storage`] — multi-versioned key-value substrate with WAL and crash
//!   recovery (the prototype's LevelDB role).
//! * [`core`] — the HAT protocols (Eventual, Read Committed, MAV, Master,
//!   2PL), client sessions, the isolation/consistency taxonomy, and the
//!   Table 2 isolation survey.
//! * [`history`] — Adya-style history recording and anomaly detection
//!   (G0/G1, IMP/PMP, OTV, session phenomena, Lost Update, Write Skew).
//! * [`workloads`] — YCSB-style generators and an executable TPC-C-lite.
//! * [`runtime`] — a threaded runtime driving the same protocol state
//!   machines over real channels.
//!
//! The transaction surface is backend-agnostic: [`DeploymentBuilder`]
//! describes a deployment, [`Frontend`] is the one API for running
//! transactions against it, and a [`Session`] carries its own
//! [`SessionOptions`]. `build()` executes on the simulator
//! ([`core::SimFrontend`]); `build_threaded()` (from [`runtime`])
//! executes the identical deployment on a pool of worker threads, at
//! most one per core (a [`Runtime`]).
//!
//! ## Quickstart
//!
//! ```
//! use hatdb::{ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SessionOptions};
//!
//! // Two fully-replicated clusters in one datacenter, MAV isolation.
//! let mut front = DeploymentBuilder::new(ProtocolKind::Mav)
//!     .seed(42)
//!     .clusters(ClusterSpec::single_dc(2, 1))
//!     .build();
//!
//! let session = front.open_session(SessionOptions::default());
//! front.txn(&session, |t| {
//!     t.put("x", "1")?;
//!     t.put("y", "1")
//! });
//! front.quiesce();
//! let (x, y) = front.txn(&session, |t| Ok((t.get("x")?, t.get("y")?)));
//! // MAV: once any effect of the transaction is visible, all are.
//! assert_eq!(x, y);
//! ```
//!
//! Histories recorded by any run feed straight into the anomaly checker:
//!
//! ```
//! use hatdb::history::{check, Model};
//! use hatdb::{ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SessionOptions};
//!
//! let mut front = DeploymentBuilder::new(ProtocolKind::ReadCommitted)
//!     .seed(7)
//!     .clusters(ClusterSpec::single_dc(2, 1))
//!     .build();
//! let session = front.open_session(SessionOptions::default());
//! front.txn(&session, |t| t.put("greeting", "hello"));
//! front.quiesce();
//! let v = front.txn(&session, |t| t.get("greeting"));
//! assert_eq!(v.as_deref(), Some("hello"));
//!
//! let report = check(front.take_records(), Model::ReadCommitted);
//! assert!(report.ok());
//! ```

pub use hat_core as core;
pub use hat_history as history;
pub use hat_obs as obs;
pub use hat_runtime as runtime;
pub use hat_sim as sim;
pub use hat_storage as storage;
pub use hat_trace as trace;
pub use hat_workloads as workloads;

pub use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, HatError, ProtocolEngine, ProtocolKind, RetryPolicy,
    Session, SessionLevel, SessionOptions, SimFrontend, TxnCtx,
};
pub use hat_runtime::{BuildThreaded, Runtime, RuntimeConfig};
