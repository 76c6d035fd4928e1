//! Transactions: specifications, operations and recorded histories.
//!
//! A [`TxnSpec`] is the *plan* of a transaction (the ops to run); a
//! [`TxnRecord`] is what actually happened — which versions each read
//! observed, which versions the writes installed, and how the transaction
//! ended. Records are the input to `hat-history`'s Adya-style anomaly
//! checker (Appendix A formalism).

use crate::timestamp::Timestamp;
use bytes::Bytes;
use hat_storage::Key;

/// One operation in a transaction plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read a single item.
    Read(Key),
    /// Write `value` to an item.
    Write(Key, Bytes),
    /// Predicate read: all items whose key starts with the prefix
    /// (`SELECT WHERE key LIKE 'p%'`).
    PredicateRead(Key),
}

impl Op {
    /// Convenience constructor for a read of a string key.
    pub fn read(key: &str) -> Op {
        Op::Read(Key::from(key.to_owned()))
    }

    /// Convenience constructor for a write of string key/value.
    pub fn write(key: &str, value: &str) -> Op {
        Op::Write(Key::from(key.to_owned()), Bytes::from(value.to_owned()))
    }

    /// Convenience constructor for a predicate read over a string prefix.
    pub fn predicate(prefix: &str) -> Op {
        Op::PredicateRead(Key::from(prefix.to_owned()))
    }

    /// The key (or prefix) this operation touches.
    pub fn key(&self) -> &Key {
        match self {
            Op::Read(k) | Op::Write(k, _) | Op::PredicateRead(k) => k,
        }
    }

    /// True for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(..))
    }
}

/// A transaction plan: ordered operations to execute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnSpec {
    /// Operations in program order.
    pub ops: Vec<Op>,
}

impl TxnSpec {
    /// A plan from a list of ops.
    pub fn new(ops: Vec<Op>) -> Self {
        TxnSpec { ops }
    }

    /// Keys written by this plan, deduplicated, in first-write order.
    /// This is the MAV algorithm's `tx_keys` sibling list.
    pub fn write_set(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for op in &self.ops {
            if let Op::Write(k, _) = op {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
        keys
    }

    /// Keys read by this plan (item reads only), deduplicated.
    pub fn read_set(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for op in &self.ops {
            if let Op::Read(k) = op {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
        keys
    }
}

/// How a transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// All effects installed.
    Committed,
    /// Aborted by the application (internal).
    AbortedInternal,
    /// Aborted by the system (external: timeout, deadlock victim...).
    AbortedExternal,
    /// The commit round never resolved (timeout, partition, server
    /// crash): the writes may or may not be durably installed. Neither
    /// committed nor aborted — anomaly checkers must not treat reads of
    /// an indeterminate transaction's writes as aborted reads.
    Indeterminate,
}

/// What one executed operation observed or installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRecord {
    /// A read of `key` that observed the version written at
    /// `observed` (the initial `⊥` version when `observed.seq == 0`).
    Read {
        /// Key read.
        key: Key,
        /// Stamp of the version observed.
        observed: Timestamp,
        /// The value observed (empty for `⊥`).
        value: Bytes,
    },
    /// A write of `key` installed at the transaction's timestamp.
    Write {
        /// Key written.
        key: Key,
        /// Installed value.
        value: Bytes,
    },
    /// A predicate read over `prefix` observing a version set.
    PredicateRead {
        /// Prefix scanned.
        prefix: Key,
        /// `(key, stamp)` pairs of the matched versions.
        matches: Vec<(Key, Timestamp)>,
    },
}

/// The execution record of one transaction — a history fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// The transaction's timestamp (unique id; also the stamp of all its
    /// writes).
    pub id: Timestamp,
    /// Session (client) that ran the transaction.
    pub session: u32,
    /// Position of this transaction within its session (commit order).
    pub session_seq: u64,
    /// Executed operations in program order.
    pub ops: Vec<OpRecord>,
    /// Final outcome.
    pub outcome: TxnOutcome,
}

impl TxnRecord {
    /// Keys this transaction wrote.
    pub fn write_keys(&self) -> impl Iterator<Item = &Key> {
        self.ops.iter().filter_map(|op| match op {
            OpRecord::Write { key, .. } => Some(key),
            _ => None,
        })
    }

    /// True if the transaction committed.
    pub fn committed(&self) -> bool {
        self.outcome == TxnOutcome::Committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_set_dedupes_preserving_order() {
        let spec = TxnSpec::new(vec![
            Op::write("b", "1"),
            Op::read("x"),
            Op::write("a", "2"),
            Op::write("b", "3"),
        ]);
        let ws = spec.write_set();
        assert_eq!(ws, vec![Key::from("b"), Key::from("a")]);
        assert_eq!(spec.read_set(), vec![Key::from("x")]);
    }

    #[test]
    fn op_accessors() {
        let w = Op::write("k", "v");
        assert!(w.is_write());
        assert_eq!(w.key(), &Key::from("k"));
        let r = Op::read("k");
        assert!(!r.is_write());
        let p = Op::predicate("pre");
        assert_eq!(p.key(), &Key::from("pre"));
    }

    #[test]
    fn record_write_keys() {
        let rec = TxnRecord {
            id: Timestamp::new(1, 1),
            session: 1,
            session_seq: 0,
            ops: vec![
                OpRecord::Write {
                    key: Key::from("x"),
                    value: Bytes::from("1"),
                },
                OpRecord::Read {
                    key: Key::from("y"),
                    observed: Timestamp::INITIAL,
                    value: Bytes::new(),
                },
            ],
            outcome: TxnOutcome::Committed,
        };
        assert_eq!(rec.write_keys().count(), 1);
        assert!(rec.committed());
    }
}
