//! Property-based tests over the core data structures and invariants.

use bytes::Bytes;
use hatdb::core::taxonomy::{Model, Taxonomy};
use hatdb::storage::{Key, Memtable, Record, VersionStamp};
use hatdb::storage::{Wal, WalEntry};
use proptest::prelude::*;

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

proptest! {
    /// WAL entries round-trip byte-exactly through encode/decode.
    #[test]
    fn wal_entry_round_trips(key in arb_key(), record in arb_record()) {
        let entry = WalEntry::Put { key, record };
        let encoded = hatdb::storage::wal::encode_entry(&entry);
        prop_assert_eq!(hatdb::storage::wal::decode_entry(&encoded), Some(entry));
    }

    /// The memtable's latest() always agrees with a naive reference
    /// model (BTreeMap keyed by (key, stamp)).
    #[test]
    fn memtable_matches_reference_model(
        ops in proptest::collection::vec((arb_key(), arb_record()), 1..80)
    ) {
        let mut table = Memtable::new();
        let mut reference: std::collections::BTreeMap<(Key, VersionStamp), Bytes> =
            Default::default();
        for (key, record) in &ops {
            table.insert(key.clone(), record.clone());
            reference.insert((key.clone(), record.stamp), record.value.clone());
        }
        // latest per key must match the reference max stamp
        let keys: std::collections::BTreeSet<&Key> = ops.iter().map(|(k, _)| k).collect();
        for key in keys {
            let expect = reference
                .range((key.clone(), VersionStamp::new(0, 0))..=(key.clone(), VersionStamp::new(u64::MAX, u32::MAX)))
                .next_back()
                .map(|((_, s), v)| (*s, v.clone()));
            let got = table.latest(key).map(|r| (r.stamp, r.value.clone()));
            prop_assert_eq!(got, expect);
        }
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
        let replayed = Wal::replay(&path).unwrap();
        assert!(replayed.len() <= entries.len());
        assert_eq!(
            replayed.as_slice(),
            &entries[..replayed.len()],
            "prefix property violated at cut {cut}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
