//! Version stamps and versioned records.
//!
//! The paper's Read Uncommitted algorithm (§5.1.1) totally orders writes
//! per item by "marking each of a transaction's writes with the same
//! timestamp (unique across transactions; e.g., combining a client's ID
//! with a sequence number) and applying a 'last writer wins' conflict
//! reconciliation policy at each replica". [`VersionStamp`] is exactly
//! that timestamp: ordered first by sequence number, then by writer id as
//! a deterministic tiebreak, so every pair of distinct stamps is ordered
//! and all replicas agree on the order.

use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

/// A key in the store. Keys are arbitrary byte strings; string keys are
/// the common case (`Key::from("x")`).
pub type Key = Bytes;

/// A shared handle to a stored record.
///
/// A record is allocated once — when a client write is applied — and then
/// travels the entire read/replication path (memtable chains, replication
/// log entries, in-flight messages, client caches) as this refcounted
/// handle. Cloning it bumps a counter instead of deep-copying value bytes
/// and sibling lists; the WAL append encodes straight from the borrowed
/// record, so nothing on the write path copies it. `Record: From` makes both
/// `rec.into()` and `Arc::new(rec)` work at construction sites.
pub type SharedRecord = Arc<Record>;

/// A globally unique, totally ordered write timestamp: `(seq, writer)`.
///
/// `seq` is a per-writer logical sequence number (in the prototype, the
/// client's transaction counter); `writer` is the client id. Two stamps
/// from different writers with equal `seq` are ordered by writer id — an
/// arbitrary but *consistent* order, which is all last-writer-wins needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VersionStamp {
    /// Logical sequence number (major component).
    pub seq: u64,
    /// Writer (client) id (tiebreak component).
    pub writer: u32,
}

impl VersionStamp {
    /// The stamp of the initial (null, `⊥`) version of every item.
    pub const INITIAL: VersionStamp = VersionStamp { seq: 0, writer: 0 };

    /// Builds a stamp.
    pub fn new(seq: u64, writer: u32) -> Self {
        VersionStamp { seq, writer }
    }

    /// True for the initial `⊥` stamp.
    pub fn is_initial(self) -> bool {
        self == Self::INITIAL
    }
}

impl fmt::Display for VersionStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@c{}", self.seq, self.writer)
    }
}

/// A stored version of one item: the stamp, the value bytes, and the
/// transaction's sibling metadata.
///
/// `siblings` is the MAV algorithm's `tx_keys` list (Appendix B): the set
/// of keys written by the same transaction. Protocols that do not need it
/// leave it empty; the storage layer treats it as opaque. One list is
/// shared by every record of its transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Version stamp (transaction timestamp).
    pub stamp: VersionStamp,
    /// Value bytes.
    pub value: Bytes,
    /// Keys written by the same transaction (MAV metadata), possibly empty.
    pub siblings: Arc<[Key]>,
}

impl Record {
    /// Builds a record with no sibling metadata.
    pub fn new(stamp: VersionStamp, value: impl Into<Bytes>) -> Self {
        Record {
            stamp,
            value: value.into(),
            siblings: Arc::default(),
        }
    }

    /// Builds a record carrying the transaction's sibling key list.
    pub fn with_siblings(
        stamp: VersionStamp,
        value: impl Into<Bytes>,
        siblings: impl Into<Arc<[Key]>>,
    ) -> Self {
        Record {
            stamp,
            value: value.into(),
            siblings: siblings.into(),
        }
    }

    /// Approximate serialized size in bytes: the measure used for the
    /// paper's metadata-overhead discussion (Figure 4: 34 B of overhead at
    /// 1 op/txn growing to ~1.9 kB at 128 ops/txn).
    pub fn encoded_len(&self) -> usize {
        // stamp (12) + value length prefix (4) + value + per-sibling
        // length prefix (4) + sibling bytes
        12 + 4 + self.value.len() + self.siblings.iter().map(|s| 4 + s.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_total_order() {
        let a = VersionStamp::new(1, 0);
        let b = VersionStamp::new(1, 1);
        let c = VersionStamp::new(2, 0);
        assert!(a < b, "writer id breaks ties");
        assert!(b < c, "seq dominates writer");
        assert!(a < c);
        assert!(VersionStamp::INITIAL < a);
        assert!(VersionStamp::INITIAL.is_initial());
        assert!(!a.is_initial());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(VersionStamp::new(7, 3).to_string(), "7@c3");
    }

    #[test]
    fn encoded_len_grows_with_siblings() {
        let base = Record::new(VersionStamp::new(1, 1), Bytes::from(vec![0u8; 100]));
        let with = Record::with_siblings(
            VersionStamp::new(1, 1),
            Bytes::from(vec![0u8; 100]),
            vec![Key::from("key-00000001"), Key::from("key-00000002")],
        );
        assert!(with.encoded_len() > base.encoded_len());
        assert_eq!(
            with.encoded_len() - base.encoded_len(),
            2 * (4 + 12),
            "two 12-byte sibling keys with 4-byte prefixes"
        );
    }
}
