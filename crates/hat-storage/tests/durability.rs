//! Crash-recovery integration tests for the durable store.

use bytes::Bytes;
use hat_storage::{DurableStore, Key, Record, Store, SyncPolicy, VersionStamp, Wal};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hat-durability-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn rec(seq: u64, val: &str) -> Record {
    Record::new(VersionStamp::new(seq, 1), Bytes::from(val.to_owned()))
}

/// The full lifecycle: write → "crash" → recover → everything visible,
/// including multi-version state.
#[test]
fn wal_recovery_preserves_versions() {
    let dir = tmpdir("lifecycle");
    {
        let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        for i in 1..=80u64 {
            s.put(
                Key::from(format!("k{}", i % 10)),
                rec(i, &format!("v{i}")).into(),
            )
            .unwrap();
        }
        // no clean shutdown: the store is simply dropped
    }
    let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(s.key_count(), 10);
    assert_eq!(s.version_count(), 80);
    // latest version of k0 is i=80
    assert_eq!(s.latest(b"k0").unwrap().value, Bytes::from("v80"));
    // snapshot reads reach back past the newest versions
    let old = s
        .latest_at_or_below(b"k0", VersionStamp::new(40, 9))
        .unwrap();
    assert_eq!(old.value, Bytes::from("v40"));
    std::fs::remove_dir_all(dir).unwrap();
}

/// A crash that tears the WAL tail mid-record loses only the torn
/// suffix; everything before it recovers.
#[test]
fn torn_wal_tail_after_checkpoint_recovers_prefix() {
    let dir = tmpdir("torn");
    {
        let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        for i in 1..=20u64 {
            s.put(Key::from("x"), rec(i, &format!("v{i}")).into())
                .unwrap();
        }
    }
    // tear the last few bytes off the WAL
    let wal_path = dir.join("wal");
    let data = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &data[..data.len() - 5]).unwrap();
    let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    let latest = s.latest(b"x").unwrap();
    assert_eq!(latest.value, Bytes::from("v19"), "only the torn write lost");
    assert_eq!(s.version_count(), 19);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Repeated open/close cycles never lose or duplicate versions.
#[test]
fn repeated_restart_cycles_are_stable() {
    let dir = tmpdir("cycles");
    let mut expect = 0u64;
    for cycle in 0..5u64 {
        let mut s = DurableStore::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(s.version_count() as u64, expect, "cycle {cycle}");
        for i in 0..7u64 {
            let seq = cycle * 7 + i + 1;
            s.put(Key::from(format!("k{}", seq % 3)), rec(seq, "v").into())
                .unwrap();
        }
        expect += 7;
        s.sync().unwrap();
    }
    let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(s.version_count() as u64, expect);
    std::fs::remove_dir_all(dir).unwrap();
}

/// GC after recovery still respects snapshot bounds.
#[test]
fn gc_after_recovery() {
    let dir = tmpdir("gc");
    {
        let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        for i in 1..=10u64 {
            s.put(Key::from("x"), rec(i, &format!("v{i}")).into())
                .unwrap();
        }
    }
    let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    // writers are client 1, so (8, 5) dominates version (8, 1)
    let bound = VersionStamp::new(8, 5);
    let dropped = s.gc_below(bound);
    assert_eq!(
        dropped, 7,
        "versions 1..=7 dominated by 8 (visible at bound)"
    );
    assert_eq!(
        s.latest_at_or_below(b"x", bound).unwrap().value,
        Bytes::from("v8")
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// Group commit: N puts then one barrier is exactly one sync, and all N
/// recover after reopen. A second barrier on the now-clean store syncs
/// nothing.
#[test]
fn one_barrier_syncs_a_batch_of_puts_once() {
    let dir = tmpdir("barrier");
    {
        let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        s.persist().unwrap();
        assert_eq!(s.sync_stats(), (0, 0), "barrier on a clean store");
        assert!(!s.needs_persist());
        for i in 1..=16u64 {
            s.put(Key::from(format!("k{i}")), rec(i, "v").into())
                .unwrap();
            assert!(s.needs_persist());
        }
        assert_eq!(s.sync_stats(), (0, 0), "put logs, it does not sync");
        s.persist().unwrap();
        assert_eq!(s.sync_stats(), (1, 16));
        assert!(!s.needs_persist());
        s.persist().unwrap();
        assert_eq!(s.sync_stats(), (1, 16), "nothing new to make durable");
    }
    let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(s.version_count(), 16);
    assert_eq!(s.recovered_records(), 16);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A synced store's file runs on in pre-written zeros. A torn frame
/// written at the log's end, over those zeros, is what recovery counts
/// and cuts; the zeros are not damage, and later puts recover.
#[test]
fn torn_frame_over_the_zero_tail_is_counted_and_cut() {
    let dir = tmpdir("zero-tail");
    let logical = {
        let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        for i in 1..=3u64 {
            s.put(Key::from(format!("k{i}")), rec(i, "v").into())
                .unwrap();
        }
        s.persist().unwrap();
        s.wal_len()
    };
    let wal_path = DurableStore::wal_path(&dir);
    let file_len = || std::fs::metadata(&wal_path).unwrap().len();
    assert!(file_len() > logical + 48);
    Wal::tear_tail(&wal_path, 48).unwrap();
    let mut s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!((s.torn_bytes_cut(), s.recovered_records()), (48, 3));
    assert_eq!((s.wal_len(), file_len()), (logical, logical));
    s.put(Key::from("k4"), rec(4, "v").into()).unwrap();
    s.persist().unwrap();
    let logical = s.wal_len();
    drop(s);
    assert!(file_len() > logical, "zeros ahead of the log again");
    let s = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!((s.torn_bytes_cut(), s.version_count()), (0, 4));
    std::fs::remove_dir_all(dir).unwrap();
}

/// `Never` leaves the disk to the OS: the barrier never syncs, the
/// unconditional `sync` still does.
#[test]
fn never_policy_syncs_only_when_forced() {
    let dir = tmpdir("never");
    let mut s = DurableStore::open(&dir, SyncPolicy::Never).unwrap();
    for i in 1..=5u64 {
        s.put(Key::from("x"), rec(i, "v").into()).unwrap();
    }
    assert!(!s.needs_persist());
    s.persist().unwrap();
    assert_eq!(s.sync_stats(), (0, 0));
    s.sync().unwrap();
    assert_eq!(s.sync_stats(), (1, 5));
    std::fs::remove_dir_all(dir).unwrap();
}
