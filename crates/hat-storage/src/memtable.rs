//! Ordered, multi-versioned in-memory table.
//!
//! Each key maps to its committed versions sorted by [`VersionStamp`].
//! Visibility questions the protocols need are answered here:
//!
//! * `latest` — last-writer-wins read (Read Uncommitted / eventual).
//! * `latest_at_or_below` — snapshot read at a stamp bound (used by the
//!   MAV `good` lookup and by cut-isolation reads on sticky replicas).
//! * `exact` — read a specific version (MAV `pending` promotion).
//! * `scan_prefix` — predicate reads over a logical key range (P-CI,
//!   TPC-C secondary lookups).
//! * `gc_below` — discard versions strictly dominated by a stamp, keeping
//!   the newest at-or-below version per key (the paper's "older versions
//!   can be asynchronously garbage collected", §5.1.2).

use crate::version::{Key, SharedRecord, VersionStamp};
use std::collections::BTreeMap;

/// Multi-versioned ordered table. Not synchronized; callers wrap it in a
/// lock if shared (the simulator is single-threaded, the runtime wraps
/// stores in `parking_lot` mutexes).
///
/// Version chains hold [`SharedRecord`] handles, so a record installed
/// here and later read back is never deep-copied — readers get a
/// refcount bump on the allocation made at write time.
#[derive(Debug, Clone, Default)]
pub struct Memtable {
    map: BTreeMap<Key, Vec<SharedRecord>>,
    versions: usize,
    /// Per-key version-chain bound (`None` = unbounded). Multi-version
    /// readers (RAMP's exact-stamp fetches, snapshot reads) only ever
    /// reach back a bounded distance, so retaining every version forever
    /// is pure memory leak; the cap drops the oldest versions of a chain
    /// once it grows past the bound, always keeping the newest `cap`.
    cap: Option<usize>,
}

impl Memtable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table whose per-key version chains are bounded at `cap`
    /// (the newest `cap` versions are retained).
    pub fn with_version_cap(cap: usize) -> Self {
        Memtable {
            cap: Some(cap.max(1)),
            ..Self::default()
        }
    }

    /// Inserts a version. A duplicate stamp for the same key *replaces*
    /// the stored value and returns `false`: replacement keeps redelivery
    /// idempotent while letting a transaction's later write of the same
    /// key supersede its intermediate write (both carry the transaction's
    /// timestamp; the final one must win).
    pub fn insert(&mut self, key: Key, record: impl Into<SharedRecord>) -> bool {
        let record = record.into();
        let cap = self.cap;
        let versions = self.map.entry(key).or_default();
        let fresh = match versions.binary_search_by(|r| r.stamp.cmp(&record.stamp)) {
            Ok(pos) => {
                versions[pos] = record;
                false
            }
            Err(pos) => {
                versions.insert(pos, record);
                self.versions += 1;
                true
            }
        };
        if let Some(cap) = cap {
            if versions.len() > cap {
                let drop = versions.len() - cap;
                versions.drain(..drop);
                self.versions -= drop;
            }
        }
        fresh
    }

    /// The latest version of `key` (last-writer-wins winner), if any.
    pub fn latest(&self, key: &[u8]) -> Option<&SharedRecord> {
        self.map.get(key).and_then(|v| v.last())
    }

    /// The newest version of `key` with stamp `≤ bound`, if any.
    pub fn latest_at_or_below(&self, key: &[u8], bound: VersionStamp) -> Option<&SharedRecord> {
        let versions = self.map.get(key)?;
        let idx = versions.partition_point(|r| r.stamp <= bound);
        idx.checked_sub(1).map(|i| &versions[i])
    }

    /// The newest version of `key` with stamp `≥ bound`, if any (MAV's
    /// "pending stable write with a higher timestamp" lookup).
    pub fn latest_at_or_above(&self, key: &[u8], bound: VersionStamp) -> Option<&SharedRecord> {
        let versions = self.map.get(key)?;
        versions.last().filter(|r| r.stamp >= bound)
    }

    /// The version of `key` with exactly stamp `stamp`, if present.
    pub fn exact(&self, key: &[u8], stamp: VersionStamp) -> Option<&SharedRecord> {
        let versions = self.map.get(key)?;
        versions
            .binary_search_by(|r| r.stamp.cmp(&stamp))
            .ok()
            .map(|i| &versions[i])
    }

    /// Removes the version of `key` stamped `stamp`, returning it.
    pub fn remove(&mut self, key: &[u8], stamp: VersionStamp) -> Option<SharedRecord> {
        let versions = self.map.get_mut(key)?;
        let idx = versions.binary_search_by(|r| r.stamp.cmp(&stamp)).ok()?;
        let rec = versions.remove(idx);
        self.versions -= 1;
        if versions.is_empty() {
            self.map.remove(key);
        }
        Some(rec)
    }

    /// All versions of `key`, oldest first.
    pub fn versions(&self, key: &[u8]) -> &[SharedRecord] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Latest version of every key whose bytes start with `prefix`,
    /// in key order. This is the predicate-read primitive: a `SELECT
    /// WHERE key LIKE 'prefix%'` over last-writer-wins state.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Key, SharedRecord)> {
        self.map
            .range(Key::copy_from_slice(prefix)..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, versions)| Some((k.clone(), versions.last()?.clone())))
            .collect()
    }

    /// Garbage-collects versions strictly below `bound`, always retaining
    /// the newest version at-or-below `bound` of each key (so snapshot
    /// reads at `bound` still succeed). Returns the number of versions
    /// dropped.
    pub fn gc_below(&mut self, bound: VersionStamp) -> usize {
        let mut dropped = 0;
        for versions in self.map.values_mut() {
            let visible_idx = versions.partition_point(|r| r.stamp <= bound);
            if let Some(keep_from) = visible_idx.checked_sub(1) {
                dropped += keep_from;
                versions.drain(..keep_from);
            }
        }
        self.versions -= dropped;
        dropped
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of stored versions.
    pub fn version_count(&self) -> usize {
        self.versions
    }

    /// True if the table holds no versions.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(key, versions)` in key order (what
    /// [`Store::all_versions`](crate::Store::all_versions) dumps to reseed
    /// a restarted server's replication log).
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[SharedRecord])> {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Record;
    use bytes::Bytes;

    fn rec(seq: u64, writer: u32, val: &str) -> Record {
        Record::new(VersionStamp::new(seq, writer), Bytes::from(val.to_owned()))
    }

    fn k(s: &str) -> Key {
        Key::from(s.to_owned())
    }

    #[test]
    fn lww_latest_wins_regardless_of_arrival_order() {
        let mut m = Memtable::new();
        m.insert(k("x"), rec(5, 1, "late"));
        m.insert(k("x"), rec(3, 1, "early"));
        assert_eq!(m.latest(b"x").unwrap().value, Bytes::from("late"));
        assert_eq!(m.versions(b"x").len(), 2);
        assert_eq!(m.versions(b"x")[0].stamp.seq, 3, "sorted ascending");
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut m = Memtable::new();
        assert!(m.insert(k("x"), rec(1, 1, "a")));
        assert!(!m.insert(k("x"), rec(1, 1, "a")));
        assert_eq!(m.version_count(), 1);
    }

    #[test]
    fn snapshot_reads_at_bound() {
        let mut m = Memtable::new();
        m.insert(k("x"), rec(1, 0, "v1"));
        m.insert(k("x"), rec(5, 0, "v5"));
        m.insert(k("x"), rec(9, 0, "v9"));
        let at = |s| m.latest_at_or_below(b"x", VersionStamp::new(s, 9));
        assert_eq!(at(0), None, "nothing at or below 0@c9? stamp (0,9) < (1,0)");
        assert_eq!(at(1).unwrap().value, Bytes::from("v1"));
        assert_eq!(at(7).unwrap().value, Bytes::from("v5"));
        assert_eq!(at(100).unwrap().value, Bytes::from("v9"));
    }

    #[test]
    fn at_or_above_returns_newest_only_if_high_enough() {
        let mut m = Memtable::new();
        m.insert(k("x"), rec(5, 0, "v5"));
        assert!(m
            .latest_at_or_above(b"x", VersionStamp::new(5, 0))
            .is_some());
        assert!(m
            .latest_at_or_above(b"x", VersionStamp::new(6, 0))
            .is_none());
    }

    #[test]
    fn exact_and_remove() {
        let mut m = Memtable::new();
        m.insert(k("x"), rec(1, 0, "a"));
        m.insert(k("x"), rec(2, 0, "b"));
        assert_eq!(
            m.exact(b"x", VersionStamp::new(1, 0)).unwrap().value,
            Bytes::from("a")
        );
        assert!(m.exact(b"x", VersionStamp::new(3, 0)).is_none());
        let removed = m.remove(b"x", VersionStamp::new(1, 0)).unwrap();
        assert_eq!(removed.value, Bytes::from("a"));
        assert_eq!(m.version_count(), 1);
        m.remove(b"x", VersionStamp::new(2, 0));
        assert!(m.is_empty(), "empty key vectors are pruned");
    }

    #[test]
    fn prefix_scan_returns_latest_per_key_in_order() {
        let mut m = Memtable::new();
        m.insert(k("order/1"), rec(1, 0, "o1"));
        m.insert(k("order/1"), rec(4, 0, "o1v2"));
        m.insert(k("order/2"), rec(2, 0, "o2"));
        m.insert(k("other"), rec(3, 0, "x"));
        let hits = m.scan_prefix(b"order/");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, k("order/1"));
        assert_eq!(hits[0].1.value, Bytes::from("o1v2"));
        assert_eq!(hits[1].0, k("order/2"));
    }

    #[test]
    fn gc_keeps_visible_version_at_bound() {
        let mut m = Memtable::new();
        for s in [1u64, 3, 5, 7] {
            m.insert(k("x"), rec(s, 0, &format!("v{s}")));
        }
        let dropped = m.gc_below(VersionStamp::new(5, 9));
        // versions 1 and 3 dominated by 5; 5 retained (visible at bound), 7 retained
        assert_eq!(dropped, 2);
        assert_eq!(m.versions(b"x").len(), 2);
        assert_eq!(
            m.latest_at_or_below(b"x", VersionStamp::new(5, 9))
                .unwrap()
                .value,
            Bytes::from("v5")
        );
    }

    #[test]
    fn gc_on_key_with_no_visible_version_is_noop() {
        let mut m = Memtable::new();
        m.insert(k("x"), rec(10, 0, "future"));
        assert_eq!(m.gc_below(VersionStamp::new(5, 0)), 0);
        assert_eq!(m.versions(b"x").len(), 1);
    }

    #[test]
    fn version_cap_bounds_the_chain_keeping_newest() {
        let mut m = Memtable::with_version_cap(3);
        for s in 1..=10u64 {
            m.insert(k("x"), rec(s, 0, &format!("v{s}")));
        }
        assert_eq!(m.versions(b"x").len(), 3);
        assert_eq!(m.version_count(), 3);
        // the newest three survive; by-timestamp reads within the bound
        // still work
        assert_eq!(
            m.exact(b"x", VersionStamp::new(8, 0)).unwrap().value,
            Bytes::from("v8")
        );
        assert!(m.exact(b"x", VersionStamp::new(7, 0)).is_none());
        assert_eq!(m.latest(b"x").unwrap().stamp.seq, 10);
        // re-inserting an evicted stamp is treated as a fresh version and
        // immediately evicted again from the low end
        m.insert(k("x"), rec(1, 0, "old"));
        assert_eq!(m.versions(b"x").len(), 3);
        assert_eq!(m.versions(b"x")[0].stamp.seq, 8);
    }

    #[test]
    fn counts_track_inserts() {
        let mut m = Memtable::new();
        m.insert(k("a"), rec(1, 0, "1"));
        m.insert(k("a"), rec(2, 0, "2"));
        m.insert(k("b"), rec(1, 0, "1"));
        assert_eq!(m.key_count(), 2);
        assert_eq!(m.version_count(), 3);
    }
}
