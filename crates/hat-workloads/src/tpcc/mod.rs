//! TPC-C-lite: the paper's §6.2 application analysis, made executable.
//!
//! TPC-C models a wholesale supplier: warehouses with districts,
//! customers, stock and orders, plus five transaction types. The paper
//! argues that four of the five are well served by HATs while New-Order's
//! sequential ID assignment (and Delivery's idempotence requirement)
//! inherently need unavailable coordination. The test suite and the
//! `hat-experiments tpcc` experiment reproduce each claim:
//!
//! * Payment is monotonic (increment-only) and commutes: YTD sums
//!   converge under any HAT protocol (Consistency Condition 1 holds
//!   under MAV).
//! * New-Order's stock decrement never drives stock negative thanks to
//!   the restock rule (§6.2: "restocks each item's inventory count
//!   (increments by 91) if it would become negative").
//! * Sequential order IDs require preventing Lost Update — under a
//!   partition, two HAT New-Orders assign the same ID (Consistency
//!   Conditions 2–3 are violated); timestamp-based IDs keep uniqueness
//!   but not sequentiality.
//! * Delivery is non-monotonic (deletes from the pending queue): under a
//!   partition two carriers can deliver the same order (double billing),
//!   the compensation the paper discusses.

pub mod consistency;
pub mod schema;
pub mod txns;

pub use consistency::{check_consistency, ConsistencyReport};
pub use schema::{keys, Customer, District, Order, Stock, Warehouse};
pub use txns::{IdPolicy, TpccConfig, TpccRunner};
