//! The replica-local store: a trait plus volatile and durable engines.
//!
//! [`MemStore`] corresponds to the paper's "in-memory persistence" runs
//! (§6.3: "With in-memory persistence (i.e., no LevelDB or WAL), MAV
//! throughput was within 20% of eventual"); [`DurableStore`] corresponds
//! to the default durable configuration where every write is logged before
//! the server responds.
//!
//! ## Durability is two steps
//!
//! [`Store::put`] *logs and applies*: the frame is handed to the OS and
//! the version becomes readable, but nothing has been forced to disk.
//! [`Store::persist`] — the durability barrier — *makes durable*: one
//! `sync_data` covering every put since the previous barrier, however
//! many there were (group commit). Whoever releases a reply calls the
//! barrier first. The one invariant callers keep: **a node releases no
//! send while it holds an unsynced write** — acknowledgements, and also
//! read replies and replication pushes, which can expose the write just
//! as well. [`Store::needs_persist`] says whether such a write is held.

use crate::error::{Result, StorageError};
use crate::memtable::Memtable;
use crate::version::{Key, SharedRecord, VersionStamp};
use crate::wal::{Wal, WalEntry};
use std::path::{Path, PathBuf};

/// What the durable store promises about its WAL reaching the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// No reply leaves a server before the writes it reflects are
    /// synced: [`Store::persist`] forces the log — the paper's durable
    /// configuration.
    Always,
    /// The OS decides when the log reaches the disk: [`Store::persist`]
    /// does nothing. Fastest, weakest.
    Never,
}

/// Replica-local multi-version storage.
///
/// Reads return [`SharedRecord`] handles to the allocation made at write
/// time: cloning one out of the table is a refcount bump, not a deep copy
/// of value bytes and sibling lists. Callers are protocol state machines
/// that thread the handle straight into messages and caches, so the
/// record's single allocation is shared across the whole hot path while
/// the trait stays object-safe.
pub trait Store {
    /// Installs a version. Returns `true` if newly installed, `false` if
    /// the (key, stamp) pair was already present (idempotent redelivery).
    fn put(&mut self, key: Key, record: SharedRecord) -> Result<bool>;

    /// Last-writer-wins read.
    fn latest(&self, key: &[u8]) -> Option<SharedRecord>;

    /// Newest version at or below `bound` (snapshot read).
    fn latest_at_or_below(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord>;

    /// Newest version, provided its stamp is at or above `bound`.
    fn latest_at_or_above(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord>;

    /// The version stamped exactly `stamp`.
    fn exact(&self, key: &[u8], stamp: VersionStamp) -> Option<SharedRecord>;

    /// Read a *specific* version by timestamp — the RAMP second-round
    /// fetch (readers repair fractured reads by asking for the exact
    /// sibling version named in another record's metadata). Alias of
    /// [`Store::exact`] with a reader-facing name; engines that keep
    /// auxiliary version sets (pending/prepared) layer those on top.
    fn get_at(&self, key: &[u8], stamp: VersionStamp) -> Option<SharedRecord> {
        self.exact(key, stamp)
    }

    /// Latest version per key under `prefix` (predicate read).
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Key, SharedRecord)>;

    /// Snapshot predicate read bounded at `bound`.
    fn scan_prefix_at_or_below(
        &self,
        prefix: &[u8],
        bound: VersionStamp,
    ) -> Vec<(Key, SharedRecord)>;

    /// Garbage-collects versions dominated below `bound`; returns count
    /// dropped.
    fn gc_below(&mut self, bound: VersionStamp) -> usize;

    /// Number of distinct keys.
    fn key_count(&self) -> usize;

    /// Number of stored versions.
    fn version_count(&self) -> usize;

    /// Forces buffered writes to stable storage unconditionally,
    /// whatever the store's policy (no-op for volatile stores).
    fn sync(&mut self) -> Result<()>;

    /// The durability barrier: makes every put since the previous
    /// barrier durable *if the store promises durability and holds an
    /// unsynced put* — one disk sync for the whole batch, none
    /// otherwise. Must be called before any send that could reflect
    /// those puts is released; an `Err` means they may not be durable
    /// and no such send may leave. Volatile stores have nothing to do.
    fn persist(&mut self) -> Result<()> {
        Ok(())
    }

    /// True while [`Store::persist`] has work to do: a put has been
    /// logged that the store promises to, but did not yet, make durable.
    fn needs_persist(&self) -> bool {
        false
    }

    /// `(syncs, puts)` — log syncs that reached the disk and the puts
    /// they covered; `puts / syncs` is the mean group-commit size.
    /// `(0, 0)` for volatile stores.
    fn sync_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Every stored version of every key, in key order. Used to reseed
    /// a restarted server's replication buffer from recovered state —
    /// whole version chains, not just per-key latest, so multi-key
    /// transactions re-gossip intact.
    fn all_versions(&self) -> Vec<(Key, SharedRecord)>;

    /// How many records recovery replayed into this store when it was
    /// opened (0 for volatile stores, which never recover anything).
    fn recovered_records(&self) -> u64 {
        0
    }

    /// Bytes of a torn log tail recovery cut when this store was opened
    /// (0 for volatile stores).
    fn torn_bytes_cut(&self) -> u64 {
        0
    }

    /// Bytes currently in the write-ahead log backing this store (0 for
    /// volatile stores). Observers diff this across writes to attribute
    /// WAL append traffic without the store knowing about tracing.
    fn wal_bytes(&self) -> u64 {
        0
    }
}

/// Purely in-memory store.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    table: Memtable,
}

impl MemStore {
    /// An empty volatile store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty volatile store whose per-key version chains are bounded
    /// at `cap` newest versions (see [`Memtable::with_version_cap`]).
    pub fn with_version_cap(cap: usize) -> Self {
        MemStore {
            table: Memtable::with_version_cap(cap),
        }
    }
}

impl Store for MemStore {
    fn put(&mut self, key: Key, record: SharedRecord) -> Result<bool> {
        Ok(self.table.insert(key, record))
    }
    fn latest(&self, key: &[u8]) -> Option<SharedRecord> {
        self.table.latest(key).cloned()
    }
    fn latest_at_or_below(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord> {
        self.table.latest_at_or_below(key, bound).cloned()
    }
    fn latest_at_or_above(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord> {
        self.table.latest_at_or_above(key, bound).cloned()
    }
    fn exact(&self, key: &[u8], stamp: VersionStamp) -> Option<SharedRecord> {
        self.table.exact(key, stamp).cloned()
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Key, SharedRecord)> {
        self.table
            .scan_prefix(prefix)
            .into_iter()
            .map(|(k, r)| (k, r.clone()))
            .collect()
    }
    fn scan_prefix_at_or_below(
        &self,
        prefix: &[u8],
        bound: VersionStamp,
    ) -> Vec<(Key, SharedRecord)> {
        self.table
            .scan_prefix_at_or_below(prefix, bound)
            .into_iter()
            .map(|(k, r)| (k, r.clone()))
            .collect()
    }
    fn gc_below(&mut self, bound: VersionStamp) -> usize {
        self.table.gc_below(bound)
    }
    fn key_count(&self) -> usize {
        self.table.key_count()
    }
    fn version_count(&self) -> usize {
        self.table.version_count()
    }
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
    fn all_versions(&self) -> Vec<(Key, SharedRecord)> {
        dump_versions(&self.table)
    }
}

/// Key-ordered dump of every version chain (shared handles, no copies).
fn dump_versions(table: &Memtable) -> Vec<(Key, SharedRecord)> {
    table
        .iter()
        .flat_map(|(k, versions)| versions.iter().map(move |r| (k.clone(), r.clone())))
        .collect()
}

/// WAL-backed durable store with checkpoint compaction.
///
/// Layout inside the directory: `wal` (the active log) and `checkpoint`
/// (a compacted log of all versions as of the last [`DurableStore::checkpoint`]
/// call). Recovery replays `checkpoint` then `wal`.
pub struct DurableStore {
    dir: PathBuf,
    table: Memtable,
    wal: Wal,
    policy: SyncPolicy,
    /// Puts logged since the last sync.
    unsynced_puts: u64,
    /// Puts a sync has covered.
    synced_puts: u64,
    /// Set by the first failed append or sync and never cleared: a
    /// failed append may have left a partial frame that later frames
    /// would land behind, and a failed sync may have dropped the dirty
    /// pages a retry would then report as written. The store refuses
    /// further writes and barriers instead of guessing.
    failed: bool,
    recovered: u64,
    torn_bytes: u64,
}

impl DurableStore {
    /// Opens (or creates) a durable store in `dir`, replaying any existing
    /// checkpoint and WAL.
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut table = Memtable::new();
        let mut recovered = 0u64;
        let checkpoint = Wal::replay(dir.join("checkpoint"))?;
        // One read and one scan of the log, which also cuts a torn tail:
        // new frames land right behind the last whole one, where the next
        // replay reaches them.
        let (wal, log, torn_bytes) = Wal::recover(dir.join("wal"))?;
        for entry in checkpoint.into_iter().chain(log) {
            if let WalEntry::Put { key, record } = entry {
                table.insert(key, record);
                recovered += 1;
            }
        }
        Ok(DurableStore {
            dir,
            table,
            wal,
            policy,
            unsynced_puts: 0,
            synced_puts: 0,
            failed: false,
            recovered,
            torn_bytes,
        })
    }

    /// Path of the active WAL file inside a store directory — the file a
    /// torn-tail fault injector truncates between crash and recovery.
    pub fn wal_path(dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join("wal")
    }

    /// Writes a checkpoint of the entire table and truncates the WAL.
    ///
    /// The checkpoint is written to a temporary file and atomically
    /// renamed, so a crash mid-checkpoint leaves the previous
    /// checkpoint + WAL intact.
    pub fn checkpoint(&mut self) -> Result<()> {
        let tmp = self.dir.join("checkpoint.tmp");
        let _ = std::fs::remove_file(&tmp);
        {
            let mut ckpt = Wal::open(&tmp)?;
            for (key, versions) in self.table.iter() {
                for record in versions {
                    ckpt.append_put(key, record)?;
                }
            }
            ckpt.sync()?;
        }
        std::fs::rename(&tmp, self.dir.join("checkpoint"))?;
        self.wal.reset()?;
        // Everything the log held is in the synced checkpoint now.
        self.unsynced_puts = 0;
        Ok(())
    }

    /// Bytes of frames in the active WAL: its logical length, not the
    /// file's, which runs on in pre-written zeros.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Runs one operation on the log, refusing once any has failed
    /// (see the `failed` field).
    fn wal_op<T>(&mut self, op: impl FnOnce(&mut Wal) -> Result<T>) -> Result<T> {
        if self.failed {
            return Err(StorageError::Io(std::io::Error::other(
                "an earlier WAL append or sync failed; the store accepts no more writes",
            )));
        }
        let result = op(&mut self.wal);
        self.failed = result.is_err();
        result
    }

    fn sync_wal(&mut self) -> Result<()> {
        self.wal_op(Wal::sync)?;
        self.synced_puts += std::mem::take(&mut self.unsynced_puts);
        Ok(())
    }
}

impl Store for DurableStore {
    fn put(&mut self, key: Key, record: SharedRecord) -> Result<bool> {
        // Log before applying: a version is never visible unless the WAL
        // holds its frame. The frame is encoded straight from the
        // borrowed key and record and reaches the OS here; reaching the
        // disk is `persist`'s job.
        self.wal_op(|wal| wal.append_put(&key, &record))?;
        self.unsynced_puts += 1;
        Ok(self.table.insert(key, record))
    }
    fn latest(&self, key: &[u8]) -> Option<SharedRecord> {
        self.table.latest(key).cloned()
    }
    fn latest_at_or_below(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord> {
        self.table.latest_at_or_below(key, bound).cloned()
    }
    fn latest_at_or_above(&self, key: &[u8], bound: VersionStamp) -> Option<SharedRecord> {
        self.table.latest_at_or_above(key, bound).cloned()
    }
    fn exact(&self, key: &[u8], stamp: VersionStamp) -> Option<SharedRecord> {
        self.table.exact(key, stamp).cloned()
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Key, SharedRecord)> {
        self.table
            .scan_prefix(prefix)
            .into_iter()
            .map(|(k, r)| (k, r.clone()))
            .collect()
    }
    fn scan_prefix_at_or_below(
        &self,
        prefix: &[u8],
        bound: VersionStamp,
    ) -> Vec<(Key, SharedRecord)> {
        self.table
            .scan_prefix_at_or_below(prefix, bound)
            .into_iter()
            .map(|(k, r)| (k, r.clone()))
            .collect()
    }
    fn gc_below(&mut self, bound: VersionStamp) -> usize {
        self.table.gc_below(bound)
    }
    fn key_count(&self) -> usize {
        self.table.key_count()
    }
    fn version_count(&self) -> usize {
        self.table.version_count()
    }
    fn sync(&mut self) -> Result<()> {
        self.sync_wal()
    }
    fn persist(&mut self) -> Result<()> {
        if self.needs_persist() {
            self.sync_wal()?;
        }
        Ok(())
    }
    fn needs_persist(&self) -> bool {
        // A failed store holds a put it could not log: the barrier must
        // report that, whatever the policy, so the put is never
        // acknowledged.
        self.failed || (self.policy == SyncPolicy::Always && self.unsynced_puts > 0)
    }
    fn sync_stats(&self) -> (u64, u64) {
        (self.wal.syncs(), self.synced_puts)
    }
    fn all_versions(&self) -> Vec<(Key, SharedRecord)> {
        dump_versions(&self.table)
    }
    fn recovered_records(&self) -> u64 {
        self.recovered
    }
    fn torn_bytes_cut(&self) -> u64 {
        self.torn_bytes
    }
    fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Record;
    use bytes::Bytes;

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hat-store-test-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(seq: u64, val: &str) -> SharedRecord {
        Record::new(VersionStamp::new(seq, 1), Bytes::from(val.to_owned())).into()
    }

    #[test]
    fn memstore_basic_ops() {
        let mut s = MemStore::new();
        assert!(s.put(Key::from("x"), rec(1, "a")).unwrap());
        assert!(!s.put(Key::from("x"), rec(1, "a")).unwrap());
        s.put(Key::from("x"), rec(5, "b")).unwrap();
        assert_eq!(s.latest(b"x").unwrap().value, Bytes::from("b"));
        assert_eq!(
            s.latest_at_or_below(b"x", VersionStamp::new(2, 0))
                .unwrap()
                .value,
            Bytes::from("a")
        );
        assert_eq!(s.key_count(), 1);
        assert_eq!(s.version_count(), 2);
        assert_eq!(s.gc_below(VersionStamp::new(5, 9)), 1);
        s.sync().unwrap();
    }

    #[test]
    fn durable_store_recovers_after_reopen() {
        let dir = tmpdir();
        {
            let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            s.put(Key::from("x"), rec(1, "one")).unwrap();
            s.put(Key::from("y"), rec(2, "two")).unwrap();
            s.put(Key::from("x"), rec(3, "three")).unwrap();
        } // dropped without any explicit close: every frame reached the OS
        let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(s.latest(b"x").unwrap().value, Bytes::from("three"));
        assert_eq!(s.latest(b"y").unwrap().value, Bytes::from("two"));
        assert_eq!(s.version_count(), 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_preserves_data() {
        let dir = tmpdir();
        {
            let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            for i in 0..10 {
                s.put(Key::from(format!("k{i}")), rec(i as u64 + 1, "v"))
                    .unwrap();
            }
            let before = s.wal_len();
            assert!(before > 0);
            s.checkpoint().unwrap();
            assert_eq!(s.wal_len(), 0);
            // writes after checkpoint land in the fresh WAL
            s.put(Key::from("after"), rec(100, "post")).unwrap();
        }
        let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(s.key_count(), 11);
        assert_eq!(s.latest(b"after").unwrap().value, Bytes::from("post"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A put the log could not take is never covered by a later
    /// barrier: once an append fails the store refuses puts and
    /// barriers alike, under either policy, so no caller can
    /// acknowledge past the hole.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_fails_every_later_barrier() {
        for policy in [SyncPolicy::Always, SyncPolicy::Never] {
            let dir = tmpdir();
            let mut s = DurableStore::open(&dir, policy).unwrap();
            s.put(Key::from("ok"), rec(1, "v")).unwrap();
            s.persist().unwrap();
            // Every write to /dev/full fails with ENOSPC.
            s.wal = Wal::open("/dev/full").unwrap();
            assert!(s.put(Key::from("lost"), rec(2, "v")).is_err());
            assert!(s.latest(b"lost").is_none(), "a failed put is not applied");
            assert!(s.needs_persist(), "the barrier has a failure to report");
            assert!(s.persist().is_err());
            assert!(s.put(Key::from("later"), rec(3, "v")).is_err());
            assert!(s.sync().is_err());
            drop(s);
            let s = DurableStore::open(&dir, policy).unwrap();
            assert_eq!(s.version_count(), 1, "only the acknowledged put recovers");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn scan_prefix_via_trait() {
        let mut s: Box<dyn Store> = Box::new(MemStore::new());
        s.put(Key::from("p/a"), rec(1, "1")).unwrap();
        s.put(Key::from("p/b"), rec(2, "2")).unwrap();
        s.put(Key::from("q/a"), rec(3, "3")).unwrap();
        assert_eq!(s.scan_prefix(b"p/").len(), 2);
        assert_eq!(
            s.scan_prefix_at_or_below(b"p/", VersionStamp::new(1, 9))
                .len(),
            1
        );
    }

    #[test]
    fn recovered_records_counts_replayed_versions() {
        let dir = tmpdir();
        {
            let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            assert_eq!(s.recovered_records(), 0, "fresh store recovers nothing");
            s.put(Key::from("x"), rec(1, "one")).unwrap();
            s.put(Key::from("x"), rec(2, "two")).unwrap();
            s.put(Key::from("y"), rec(3, "three")).unwrap();
        }
        let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(s.recovered_records(), 3);
        assert_eq!(MemStore::new().recovered_records(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_recovery_drops_only_the_last_record() {
        let dir = tmpdir();
        {
            let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            s.put(Key::from("a"), rec(1, "keep")).unwrap();
            s.put(Key::from("b"), rec(2, "torn")).unwrap();
        }
        Wal::chop_tail(DurableStore::wal_path(&dir), 3).unwrap();
        let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(s.recovered_records(), 1);
        assert!(s.torn_bytes_cut() > 0, "the rest of the torn frame is cut");
        assert_eq!(s.latest(b"a").unwrap().value, Bytes::from("keep"));
        assert!(s.latest(b"b").is_none(), "torn record must not recover");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn all_versions_dumps_whole_chains() {
        let mut s = MemStore::new();
        s.put(Key::from("x"), rec(1, "a")).unwrap();
        s.put(Key::from("x"), rec(2, "b")).unwrap();
        s.put(Key::from("y"), rec(3, "c")).unwrap();
        let dump = s.all_versions();
        assert_eq!(dump.len(), 3);
        assert_eq!(
            dump.iter()
                .map(|(k, r)| (k.as_ref().to_vec(), r.stamp.seq))
                .collect::<Vec<_>>(),
            vec![(b"x".to_vec(), 1), (b"x".to_vec(), 2), (b"y".to_vec(), 3)],
            "key order, version order within key"
        );
    }

    #[test]
    fn siblings_survive_recovery() {
        let dir = tmpdir();
        {
            let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            s.put(
                Key::from("x"),
                Record::with_siblings(
                    VersionStamp::new(1, 2),
                    Bytes::from("v"),
                    vec![Key::from("x"), Key::from("y")],
                )
                .into(),
            )
            .unwrap();
        }
        let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        let r = s.latest(b"x").unwrap();
        assert_eq!(*r.siblings, [Key::from("x"), Key::from("y")]);
        assert_eq!(r.stamp, VersionStamp::new(1, 2));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
