//! Crash-image property: whatever a crash leaves in the unsynced,
//! pre-zeroed region of a log — part of a frame, zeros, a whole frame
//! behind a zero header, garbage — `DurableStore::open` recovers a prefix
//! of the appended puts that holds every synced one, and reports no
//! error. A bit flip inside the synced prefix, followed by the rest of
//! the log, is `StorageError::Corrupt`.

use hat_storage::wal::{crc32, encode_entry};
use hat_storage::{
    DurableStore, Key, Record, StorageError, Store, SyncPolicy, VersionStamp, WalEntry,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writer id of every put. No byte of it is zero, so no frame holds a
/// long run of zeros.
const WRITER: u32 = 0x0101_0101;

static RUN: AtomicU64 = AtomicU64::new(0);

fn scratch() -> PathBuf {
    std::env::temp_dir().join(format!(
        "hat-crash-image-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ))
}

fn open(dir: &Path) -> Result<DurableStore, StorageError> {
    DurableStore::open(dir, SyncPolicy::Always)
}

fn key(i: usize) -> Key {
    Key::from(format!("k{i}"))
}

/// Put `i`'s record: stamp `(i + 1, WRITER)`, `len` non-zero bytes.
fn record(i: usize, len: usize) -> Record {
    let byte = b'a' + (i % 26) as u8;
    Record::new(VersionStamp::new(i as u64 + 1, WRITER), vec![byte; len])
}

/// `entry` framed as the log frames it.
fn frame(entry: &WalEntry) -> Vec<u8> {
    let payload = encode_entry(entry);
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Where each frame of `log` starts.
fn frame_starts(log: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < log.len() {
        starts.push(at);
        at += 8 + u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    }
    starts
}

/// `len` bytes of xorshift noise.
fn garbage(mut x: u64, len: usize) -> Vec<u8> {
    x |= 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovery_keeps_every_synced_put(
        puts in proptest::collection::vec((1usize..48, 0u8..3), 1..12),
        tail in (0u8..4, 0usize..4096, any::<u64>()),
    ) {
        let dir = scratch();
        // The log: put `i`, then a sync whenever its coin comes up 0.
        let (mut synced, mut synced_len) = (0, 0);
        let appended_len = {
            let mut s = open(&dir).unwrap();
            for (i, &(len, coin)) in puts.iter().enumerate() {
                s.put(key(i), record(i, len).into()).unwrap();
                if coin == 0 {
                    s.persist().unwrap();
                    (synced, synced_len) = (i + 1, s.wal_len() as usize);
                }
            }
            s.wal_len() as usize
        };
        let wal = DurableStore::wal_path(&dir);
        let log = std::fs::read(&wal).unwrap()[..appended_len].to_vec();

        // The crash image: the synced prefix, what the crash left of the
        // unsynced region, then zeros.
        let (kind, n, seed) = tail;
        let mut image = log[..synced_len].to_vec();
        match kind {
            // Whole unsynced frames, then part of the next.
            0 => image.extend_from_slice(&log[synced_len..][..n % (appended_len - synced_len + 1)]),
            // A whole frame behind a zero header.
            1 => {
                image.resize(synced_len + 8 + n % 64, 0);
                image.extend(frame(&WalEntry::Put { key: Key::from("ghost"), record: record(0, 8) }));
            }
            2 => image.extend(garbage(seed, n)),
            _ => {}
        }
        image.resize(image.len() + 1024, 0);
        std::fs::write(&wal, &image).unwrap();

        let mut s = open(&dir).unwrap_or_else(|e| panic!("damage past the last sync is no error: {e}"));
        let recovered = s.recovered_records() as usize;
        prop_assert!(
            synced <= recovered && recovered <= puts.len(),
            "recovered {recovered} of {} puts, {synced} synced", puts.len()
        );
        for (i, &(len, _)) in puts.iter().enumerate() {
            let expect = (i < recovered).then(|| record(i, len));
            prop_assert_eq!(s.latest(&key(i)).as_deref(), expect.as_ref(), "put {}", i);
        }
        prop_assert!(s.latest(b"ghost").is_none());
        // A put after recovery lands where the next recovery reads it.
        s.put(Key::from("after"), record(0, 4).into()).unwrap();
        s.persist().unwrap();
        drop(s);
        prop_assert_eq!(open(&dir).unwrap().recovered_records() as usize, recovered + 1);

        // A bit flip in any synced frame but the last, with the rest of the
        // log intact behind it: corruption, never a silent cut or a panic.
        if synced >= 2 {
            let last_synced = frame_starts(&log)[synced - 1];
            let mut flipped = log.clone();
            flipped[seed as usize % last_synced] ^= 1 << ((seed >> 32) % 8);
            std::fs::write(&wal, &flipped).unwrap();
            let reopened = open(&dir);
            prop_assert!(
                matches!(reopened, Err(StorageError::Corrupt { .. })),
                "flip before byte {last_synced}: {:?}", reopened.map(|s| s.recovered_records())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
