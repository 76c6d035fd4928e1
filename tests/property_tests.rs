//! Property-based tests over the core data structures and invariants.

use bytes::Bytes;
use hatdb::core::taxonomy::{Model, Taxonomy};
use hatdb::storage::{DurableStore, MemStore, Store, SyncPolicy, Wal, WalEntry};
use hatdb::storage::{Key, Memtable, Record, SharedRecord, VersionStamp};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_key() -> impl Strategy<Value = Key> {
    "[a-z]{1,8}".prop_map(|s| Key::from(s.into_bytes()))
}

fn arb_stamp() -> impl Strategy<Value = VersionStamp> {
    (1u64..1000, 1u32..16).prop_map(|(seq, writer)| VersionStamp::new(seq, writer))
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        arb_stamp(),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(arb_key(), 0..4),
    )
        .prop_map(|(stamp, value, siblings)| Record::with_siblings(stamp, value, siblings))
}

/// One of a dozen keys sharing three first letters.
fn dense_key() -> impl Strategy<Value = Key> {
    "[a-c]{1,2}".prop_map(|s| Key::from(s.into_bytes()))
}

/// One of 21 stamps.
fn dense_stamp() -> impl Strategy<Value = VersionStamp> {
    (1u64..8, 1u32..4).prop_map(|(seq, writer)| VersionStamp::new(seq, writer))
}

fn dense_record() -> impl Strategy<Value = Record> {
    (
        dense_stamp(),
        proptest::collection::vec(any::<u8>(), 0..8),
        proptest::collection::vec(dense_key(), 0..3),
    )
        .prop_map(|(stamp, value, siblings)| Record::with_siblings(stamp, value, siblings))
}

/// The reference model: every version, the last write of a (key, stamp)
/// pair winning.
type Reference = BTreeMap<(Key, VersionStamp), SharedRecord>;

/// The model's versions of `key`, oldest first.
fn chain<'a>(model: &'a Reference, key: &Key) -> Vec<&'a SharedRecord> {
    let lo = (key.clone(), VersionStamp::new(0, 0));
    let hi = (key.clone(), VersionStamp::new(u64::MAX, u32::MAX));
    model.range(lo..=hi).map(|(_, r)| r).collect()
}

/// Asserts that every read `store` provides answers as `model` does, for
/// every key and prefix the history could name.
fn assert_reads_match(store: &dyn Store, model: &Reference, bound: VersionStamp) {
    let mut keys: Vec<Key> = model.keys().map(|(k, _)| k.clone()).collect();
    keys.dedup();
    keys.push(Key::from("d"));
    for key in &keys {
        let versions = chain(model, key);
        let latest = versions.last().copied().cloned();
        assert_eq!(store.latest(key), latest);
        assert_eq!(
            store.latest_at_or_below(key, bound),
            versions
                .iter()
                .rev()
                .find(|r| r.stamp <= bound)
                .copied()
                .cloned()
        );
        assert_eq!(
            store.latest_at_or_above(key, bound),
            latest.filter(|r| r.stamp >= bound)
        );
        for seq in 0..9 {
            for writer in 0..5 {
                let stamp = VersionStamp::new(seq, writer);
                assert_eq!(
                    store.exact(key, stamp),
                    model.get(&(key.clone(), stamp)).cloned()
                );
            }
        }
    }
    for prefix in ["", "a", "b", "c", "d"]
        .iter()
        .map(|p| p.as_bytes())
        .chain(keys.iter().map(|k| k.as_ref()))
    {
        let expect: Vec<(Key, SharedRecord)> = keys
            .iter()
            .filter(|k| k.starts_with(prefix))
            .filter_map(|k| Some((k.clone(), (*chain(model, k).last()?).clone())))
            .collect();
        assert_eq!(store.scan_prefix(prefix), expect, "prefix {prefix:?}");
    }
    assert_eq!(store.key_count(), keys.len() - 1);
    assert_eq!(store.version_count(), model.len());
    let all: Vec<(Key, SharedRecord)> = model
        .iter()
        .map(|((k, _), r)| (k.clone(), r.clone()))
        .collect();
    assert_eq!(store.all_versions(), all, "every version, in key order");
}

/// Drops what `gc_below(bound)` drops from the model: each key's versions
/// older than its newest at or below `bound`. Returns how many went.
fn gc_model(model: &mut Reference, bound: VersionStamp) -> usize {
    let before = model.len();
    let mut keep_from: BTreeMap<Key, VersionStamp> = BTreeMap::new();
    for (key, stamp) in model.keys() {
        if *stamp <= bound {
            keep_from.insert(key.clone(), *stamp);
        }
    }
    model.retain(|(key, stamp), _| keep_from.get(key).is_none_or(|from| stamp >= from));
    before - model.len()
}

proptest! {
    /// WAL entries round-trip byte-exactly through encode/decode.
    #[test]
    fn wal_entry_round_trips(key in arb_key(), record in arb_record()) {
        let entry = WalEntry::Put { key, record };
        let encoded = hatdb::storage::wal::encode_entry(&entry);
        prop_assert_eq!(hatdb::storage::wal::decode_entry(&encoded), Some(entry));
    }

    /// Every read a `Store` provides answers as a naive reference model
    /// (a map keyed by (key, stamp)) does, on each store the testbed
    /// runs: volatile, durable under either sync policy, and the durable
    /// stores reopened from their logs. Keys and stamps are drawn from
    /// small ranges, so histories repeat stamps and rewrite a stamp.
    #[test]
    fn memtable_matches_reference_model(
        ops in proptest::collection::vec((dense_key(), dense_record()), 1..80),
        bound in dense_stamp()
    ) {
        let mut model = Reference::new();
        for (key, record) in &ops {
            model.insert((key.clone(), record.stamp), record.clone().into());
        }
        // Cases run one after another, and each removes the directory.
        let dir = std::env::temp_dir().join(format!("hat-prop-store-{}", std::process::id()));
        let mut stores: Vec<Box<dyn Store>> = vec![Box::new(MemStore::new())];
        for (name, policy) in [("always", SyncPolicy::Always), ("never", SyncPolicy::Never)] {
            stores.push(Box::new(DurableStore::open(dir.join(name), policy).unwrap()));
        }
        for store in &mut stores {
            for (key, record) in &ops {
                store.put(key.clone(), record.clone().into()).unwrap();
            }
            store.persist().unwrap();
        }
        for name in ["always", "never"] {
            stores.push(Box::new(DurableStore::open(dir.join(name), SyncPolicy::Always).unwrap()));
        }
        for store in &stores {
            assert_reads_match(store.as_ref(), &model, bound);
        }
        let dropped = gc_model(&mut model, bound);
        for store in &mut stores {
            prop_assert_eq!(store.gc_below(bound), dropped);
            assert_reads_match(store.as_ref(), &model, bound);
        }
        drop(stores);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Snapshot reads never return a version above the bound, and return
    /// the newest at-or-below one.
    #[test]
    fn snapshot_reads_respect_bound(
        ops in proptest::collection::vec((arb_key(), arb_record()), 1..60),
        bound in arb_stamp()
    ) {
        let mut table = Memtable::new();
        for (key, record) in &ops {
            table.insert(key.clone(), record.clone());
        }
        for (key, _) in &ops {
            if let Some(r) = table.latest_at_or_below(key, bound) {
                prop_assert!(r.stamp <= bound);
                // nothing between r.stamp and bound exists
                for v in table.versions(key) {
                    prop_assert!(!(v.stamp > r.stamp && v.stamp <= bound));
                }
            } else {
                for v in table.versions(key) {
                    prop_assert!(v.stamp > bound);
                }
            }
        }
    }

    /// GC below a bound preserves every read at or above the bound.
    #[test]
    fn gc_preserves_snapshot_reads_at_bound(
        ops in proptest::collection::vec((arb_key(), arb_record()), 1..60),
        bound in arb_stamp()
    ) {
        let mut table = Memtable::new();
        for (key, record) in &ops {
            table.insert(key.clone(), record.clone());
        }
        let before: Vec<(Key, Option<VersionStamp>)> = ops
            .iter()
            .map(|(k, _)| (k.clone(), table.latest_at_or_below(k, bound).map(|r| r.stamp)))
            .collect();
        table.gc_below(bound);
        for (key, expect) in before {
            let got = table.latest_at_or_below(&key, bound).map(|r| r.stamp);
            prop_assert_eq!(got, expect);
        }
    }

    /// Taxonomy: strength is a strict partial order (irreflexive,
    /// antisymmetric, transitive) over the Figure 2 models.
    #[test]
    fn taxonomy_is_a_strict_partial_order(ai in 0usize..21, bi in 0usize..21, ci in 0usize..21) {
        let t = Taxonomy::new();
        let (a, b, c) = (Model::ALL[ai], Model::ALL[bi], Model::ALL[ci]);
        prop_assert!(!t.stronger_than(a, a), "irreflexive");
        if t.stronger_than(a, b) {
            prop_assert!(!t.stronger_than(b, a), "antisymmetric");
        }
        if t.stronger_than(a, b) && t.stronger_than(b, c) {
            prop_assert!(t.stronger_than(a, c), "transitive");
        }
    }

    /// Version stamps order totally and agree with tuple ordering.
    #[test]
    fn stamps_order_like_tuples(a in arb_stamp(), b in arb_stamp()) {
        prop_assert_eq!(a.cmp(&b), (a.seq, a.writer).cmp(&(b.seq, b.writer)));
    }
}

/// Crash-recovery property (non-proptest loop: file I/O is slow): for a
/// range of truncation points, WAL replay returns a prefix of the
/// appended entries, never garbage.
#[test]
fn wal_recovery_yields_a_prefix_under_truncation() {
    let dir = std::env::temp_dir().join(format!("hat-prop-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal");
    let entries: Vec<WalEntry> = (0..20u64)
        .map(|i| WalEntry::Put {
            key: Key::from(format!("k{i}")),
            record: Record::new(VersionStamp::new(i + 1, 1), Bytes::from(vec![i as u8; 8])),
        })
        .collect();
    let logical = {
        let mut wal = Wal::open(&path).unwrap();
        for e in &entries {
            wal.append(e).unwrap();
        }
        wal.sync().unwrap();
        wal.len() as usize
    };
    // The frames alone: the file runs on in pre-written zeros.
    let full = std::fs::read(&path).unwrap()[..logical].to_vec();
    for cut in (0..full.len()).step_by(7) {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (_, replayed, _) = Wal::recover(&path).unwrap();
        assert!(replayed.len() <= entries.len());
        assert_eq!(
            replayed.as_slice(),
            &entries[..replayed.len()],
            "prefix property violated at cut {cut}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
