//! # hat-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/exp_*.rs`).
//! This library holds shared experiment plumbing: YCSB-style closed-loop
//! runs over simulated deployments and row formatting. Wall-clock
//! performance is measured by the separate `bench/` package.

pub mod runner;

pub use runner::{header, row, run_ycsb, YcsbRunConfig, YcsbRunResult};
