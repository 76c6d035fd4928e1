//! Append-only, checksummed write-ahead log with a pre-zeroed tail.
//!
//! Record framing: `[u32 payload_len][u32 crc32(payload)][payload]`, all
//! little-endian. No real frame has an empty payload (the tag byte alone
//! is one byte), so **an all-zero 8-byte header ends the log**.
//!
//! ## The pre-zeroed tail
//!
//! A log has a logical end, where the next frame goes, and behind it the
//! file runs on in zeros. Frames are positioned writes at the logical
//! end, over those zeros. [`Wal::sync`] keeps them topped up: once fewer
//! than half a chunk (1 MiB) of zeros lie ahead of the logical end, it
//! writes zeros out to one chunk past it. The sync after that commits
//! the file's new size once; every other sync overwrites blocks the file
//! already has and flushes data only, where an append would make every
//! `sync_data` commit a new file size through the file system's journal
//! as well. (PostgreSQL's pre-zeroed WAL segments and RocksDB's recycled
//! logs do the same.) Appends never write zeros, so a log filled without
//! syncing costs nothing extra.
//!
//! ## Recovery and the crash image
//!
//! Recovery walks the frames from the start and keeps each whole one. It
//! stops at a zero header, at the end of the file, or at a damaged frame
//! (too short for its length, or failing its checksum), and cuts
//! everything past the last whole frame.
//!
//! Why that keeps every synced frame and takes no crash for corruption:
//! once a sync returns with the logical end at `S`, bytes `[0, S)` are on
//! disk. Everything the file holds past `S` was written after it: zeros
//! from a top-up, and frames appended since, over those zeros. A crash
//! can lose any of these later writes, a sector at a time, and a lost
//! sector reads as the zeros beneath it or lies past the end of the
//! file. So a crash image is the synced prefix, then whole frames
//! appended after it, then the end of the file, a zero header, or a
//! damaged frame with a lost sector (a run of zeros) inside it. Recovery
//! keeps the prefix and those whole frames: a prefix of what was appended
//! that holds every synced frame.
//!
//! A damaged frame *followed by valid data* is corruption instead
//! ([`StorageError::Corrupt`]), as in LevelDB's log reader. A flipped
//! bit in a length field hides where the next frame starts, so recovery
//! looks for a whole frame at every byte offset past the damaged frame's
//! header, up to the first sector's worth (512) of zero bytes in a row:
//! a torn frame meets that run at its lost sector, while a bit flip
//! inside the synced prefix meets the next intact frame first. Only a
//! damaged frame whose own payload holds a sector of zeros before the
//! next frame reads as a torn tail.

use crate::error::{Result, StorageError};
use crate::version::{Key, Record, VersionStamp};
use bytes::{Buf, Bytes};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// One logical WAL entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// A version installed for `key`.
    Put {
        /// The written key.
        key: Key,
        /// The installed version.
        record: Record,
    },
    /// A checkpoint marker: all versions `≤ stamp` are covered by a
    /// compacted log. No store writes one, and recovery skips it; the
    /// variant stays because the benchmark (`bench/src/kernels.rs`)
    /// matches on it.
    Checkpoint {
        /// Upper stamp bound the checkpoint covers.
        stamp: VersionStamp,
    },
}

const TAG_PUT: u8 = 1;
const TAG_CHECKPOINT: u8 = 2;

/// Encodes an entry payload (without framing).
pub fn encode_entry(entry: &WalEntry) -> Bytes {
    let mut buf = Vec::with_capacity(64);
    encode_into(&mut buf, entry);
    Bytes::from(buf)
}

/// Appends `entry`'s payload to `buf` — the one encoder behind
/// [`encode_entry`], [`Wal::append`] and [`Wal::append_put`].
fn encode_into(buf: &mut Vec<u8>, entry: &WalEntry) {
    match entry {
        WalEntry::Put { key, record } => encode_put(buf, key, record),
        WalEntry::Checkpoint { stamp } => {
            buf.push(TAG_CHECKPOINT);
            buf.extend_from_slice(&stamp.seq.to_le_bytes());
            buf.extend_from_slice(&stamp.writer.to_le_bytes());
        }
    }
}

/// Appends the payload of a `Put` of `record` under `key` to `buf`,
/// straight from the borrowed parts (no [`WalEntry`] is built).
fn encode_put(buf: &mut Vec<u8>, key: &[u8], record: &Record) {
    buf.push(TAG_PUT);
    put_bytes(buf, key);
    buf.extend_from_slice(&record.stamp.seq.to_le_bytes());
    buf.extend_from_slice(&record.stamp.writer.to_le_bytes());
    put_bytes(buf, &record.value);
    buf.extend_from_slice(&(record.siblings.len() as u32).to_le_bytes());
    for s in record.siblings.iter() {
        put_bytes(buf, s);
    }
}

/// Decodes an entry payload produced by [`encode_entry`].
pub fn decode_entry(mut buf: &[u8]) -> Option<WalEntry> {
    if buf.is_empty() {
        return None;
    }
    let tag = buf.get_u8();
    match tag {
        TAG_PUT => {
            let key = get_bytes(&mut buf)?;
            if buf.remaining() < 12 {
                return None;
            }
            let seq = buf.get_u64_le();
            let writer = buf.get_u32_le();
            let value = get_bytes(&mut buf)?;
            if buf.remaining() < 4 {
                return None;
            }
            let nsibs = buf.get_u32_le() as usize;
            let mut siblings = Vec::with_capacity(nsibs.min(1024));
            for _ in 0..nsibs {
                siblings.push(get_bytes(&mut buf)?);
            }
            Some(WalEntry::Put {
                key,
                record: Record {
                    stamp: VersionStamp::new(seq, writer),
                    value,
                    siblings: siblings.into(),
                },
            })
        }
        TAG_CHECKPOINT => {
            if buf.remaining() < 12 {
                return None;
            }
            let seq = buf.get_u64_le();
            let writer = buf.get_u32_le();
            Some(WalEntry::Checkpoint {
                stamp: VersionStamp::new(seq, writer),
            })
        }
        _ => None,
    }
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

fn get_bytes(buf: &mut &[u8]) -> Option<Bytes> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return None;
    }
    let out = Bytes::copy_from_slice(&buf[..len]);
    buf.advance(len);
    Some(out)
}

/// Slicing-by-8 tables for the reflected IEEE polynomial: `[0]` is the
/// classic bytewise table, and `[k][b]` is the CRC step of byte `b`
/// followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Bytes of frame header: `[u32 payload_len][u32 crc32(payload)]`.
const FRAME_HEADER: usize = 8;

/// Zeros [`Wal::sync`] keeps written ahead of the log's end: it tops
/// them up to a whole chunk once fewer than half a chunk remain.
const ZERO_CHUNK: u64 = 1 << 20;

/// The smallest unit a crash loses: a run of this many zero bytes after
/// a damaged frame is where the log was cut (see the module doc).
const SECTOR: usize = 512;

/// An open write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// The logical end: where the next frame goes.
    appended: u64,
    /// How far the file is known to reach; bytes from `appended` up to
    /// here are zeros.
    allocated: u64,
    /// The frame being written, reused across appends so the write path
    /// allocates nothing per entry.
    frame: Vec<u8>,
    syncs: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending after
    /// its valid prefix: [`Wal::recover`] without the entries.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::recover(path).map(|(wal, _, _)| wal)
    }

    /// Opens (creating if absent) the log at `path`, reading and checking
    /// it once. Returns the log, the entries of its valid prefix, and the
    /// bytes of damage found right past that prefix (a torn frame, up to
    /// its last non-zero byte before a sector of zeros; the pre-written
    /// zeros are not damage). Everything past the prefix is cut before
    /// this returns, so no frame can land behind damage. Damage followed
    /// by valid frames is [`StorageError::Corrupt`]. A path that is not a
    /// regular file (a device) is opened as an empty log and never read.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Wal, Vec<WalEntry>, u64)> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let data = read_log(&file)?;
        let (entries, end) = scan(&data)?;
        let damage = &data[end..][..zeros_start(&data[end..])];
        let torn = damage
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |last| last as u64 + 1);
        let end = end as u64;
        if data.len() as u64 > end {
            file.set_len(end)?;
            file.sync_data()?;
        }
        let wal = Wal {
            file,
            path,
            appended: end,
            allocated: end,
            frame: Vec::new(),
            syncs: 0,
        };
        Ok((wal, entries, torn))
    }

    /// Appends one entry (buffered in the OS; call [`Wal::sync`] for
    /// durability).
    pub fn append(&mut self, entry: &WalEntry) -> Result<()> {
        self.write_frame(|buf| encode_into(buf, entry))
    }

    /// Appends a `Put` entry encoded straight from its borrowed parts —
    /// what [`Wal::append`] writes for a [`WalEntry::Put`] holding clones
    /// of them, byte for byte, without making the clones.
    pub fn append_put(&mut self, key: &[u8], record: &Record) -> Result<()> {
        self.write_frame(|buf| encode_put(buf, key, record))
    }

    /// Frames whatever `encode` appends to the reused buffer and hands
    /// it to the OS in one positioned write at the logical end.
    fn write_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        self.frame.clear();
        self.frame.resize(FRAME_HEADER, 0);
        encode(&mut self.frame);
        // Every length inside the payload is bounded by this one, so this
        // is the only place a record too large for the format is caught.
        let payload_len = u32::try_from(self.frame.len() - FRAME_HEADER).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "WAL entry exceeds the 4 GiB frame limit",
            )
        })?;
        let crc = crc32(&self.frame[FRAME_HEADER..]);
        self.frame[..4].copy_from_slice(&payload_len.to_le_bytes());
        self.frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all_at(&self.frame, self.appended)?;
        self.appended += self.frame.len() as u64;
        self.allocated = self.allocated.max(self.appended);
        Ok(())
    }

    /// Forces appended entries to stable storage, then tops up the zeros
    /// ahead of the log (see the module doc). A failed top-up does not
    /// fail the sync: the frames it would have covered are plain appends.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.syncs += 1;
        if self.allocated - self.appended < ZERO_CHUNK / 2 {
            let end = self.appended + ZERO_CHUNK;
            let zeros = vec![0u8; (end - self.allocated) as usize];
            if self.file.write_all_at(&zeros, self.allocated).is_ok() {
                self.allocated = end;
            }
        }
        Ok(())
    }

    /// How many times [`Wal::sync`] has reached the disk on this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Bytes of frames in the log, including pre-existing ones: its
    /// logical length. The file is longer by its pre-written zeros.
    pub fn len(&self) -> u64 {
        self.appended
    }

    /// True if the log contains no frames.
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Chops `bytes` off the end of the log at `path` — the torn-write
    /// fault: a crash mid-append leaves a partial final frame, which
    /// [`Wal::recover`] must cut while keeping the valid prefix. The
    /// chop is taken from the log's logical end, and the pre-written
    /// zeros behind it go too. Chopping more bytes than the log holds
    /// empties it. No-op on a missing file.
    pub fn chop_tail(path: impl AsRef<Path>, bytes: u64) -> Result<()> {
        let Some((file, end)) = open_at_end(path.as_ref())? else {
            return Ok(());
        };
        file.set_len(end.saturating_sub(bytes))?;
        file.sync_data()?;
        Ok(())
    }

    /// Writes `junk` bytes of a partial frame at the logical end of the
    /// log at `path`, over its pre-written zeros — the torn-write fault:
    /// a crash mid-append leaves a final frame whose header promises more
    /// bytes than reached the disk. [`Wal::recover`] cuts it. Synced
    /// (acknowledged) records are never affected — that is what
    /// distinguishes a torn tail from disk corruption, which no recovery
    /// protocol can be expected to mask. No-op when `junk` is 0 or the
    /// file does not exist.
    pub fn tear_tail(path: impl AsRef<Path>, junk: u64) -> Result<()> {
        if junk == 0 {
            return Ok(());
        }
        let Some((file, end)) = open_at_end(path.as_ref())? else {
            return Ok(());
        };
        let mut frame = Vec::with_capacity(junk as usize);
        if junk >= 8 {
            let body = (junk - 8) as u32;
            // Promise more payload than was flushed: a guaranteed short
            // read at recovery, independent of the junk's content.
            frame.extend_from_slice(&(body + 64).to_le_bytes());
            frame.extend_from_slice(&0u32.to_le_bytes());
        }
        frame.resize(junk as usize, 0xAA);
        file.write_all_at(&frame, end)?;
        file.sync_data()?;
        Ok(())
    }
}

/// Everything in `file` if it is a regular file; nothing otherwise (a
/// device such as `/dev/full` reads as endless zeros).
fn read_log(mut file: &File) -> Result<Vec<u8>> {
    let mut data = Vec::new();
    if file.metadata()?.is_file() {
        file.read_to_end(&mut data)?;
    }
    Ok(data)
}

/// The existing log at `path`, open for writing, and the end of its valid
/// prefix; `None` if there is no such file.
fn open_at_end(path: &Path) -> Result<Option<(File, u64)>> {
    let file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let (_, end) = scan(&read_log(&file)?)?;
    Ok(Some((file, end as u64)))
}

/// Walks the frame sequence in `data`, returning the decoded entries and
/// the end of the valid prefix: where a zero header, a torn frame or the
/// end of `data` stops the walk.
fn scan(data: &[u8]) -> Result<(Vec<WalEntry>, usize)> {
    let mut entries = Vec::new();
    let mut at = 0;
    while let Some(header) = data.get(at..at + FRAME_HEADER) {
        if header == [0; FRAME_HEADER] {
            break;
        }
        let Some(payload) = whole_frame(&data[at..]) else {
            if frame_follows(&data[at + 1..]) {
                return Err(StorageError::Corrupt {
                    offset: at as u64,
                    reason: "damaged frame before valid trailing records".into(),
                });
            }
            break;
        };
        match decode_entry(payload) {
            Some(e) => entries.push(e),
            None => {
                return Err(StorageError::Corrupt {
                    offset: at as u64,
                    reason: "undecodable payload with valid checksum".into(),
                })
            }
        }
        at += FRAME_HEADER + payload.len();
    }
    Ok((entries, at))
}

/// The payload of the frame at the start of `data`, if the frame is
/// whole: all its bytes are there and its checksum matches.
fn whole_frame(data: &[u8]) -> Option<&[u8]> {
    let ([l0, l1, l2, l3, c0, c1, c2, c3], rest) = data.split_first_chunk::<FRAME_HEADER>()?;
    let payload = rest.get(..u32::from_le_bytes([*l0, *l1, *l2, *l3]) as usize)?;
    (crc32(payload) == u32::from_le_bytes([*c0, *c1, *c2, *c3])).then_some(payload)
}

/// True if a whole frame with a payload starts at some byte offset of
/// `data` before its first sector of zeros.
fn frame_follows(data: &[u8]) -> bool {
    (0..zeros_start(data)).any(|at| whole_frame(&data[at..]).is_some_and(|p| !p.is_empty()))
}

/// Where the first run of [`SECTOR`] zero bytes in `data` starts (its
/// length if there is none): the end of any damage it begins with.
fn zeros_start(data: &[u8]) -> usize {
    let mut run = 0;
    for (i, &b) in data.iter().enumerate() {
        run = if b == 0 { run + 1 } else { 0 };
        if run == SECTOR {
            return i + 1 - SECTOR;
        }
    }
    data.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hat-wal-test-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn put(key: &str, seq: u64, val: &str, sibs: &[&str]) -> WalEntry {
        WalEntry::Put {
            key: Key::from(key.to_owned()),
            record: Record::with_siblings(
                VersionStamp::new(seq, 1),
                Bytes::from(val.to_owned()),
                sibs.iter()
                    .map(|s| Key::from(s.to_string()))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// The entries recovery reads back from the log at `path`.
    fn recovered(path: impl AsRef<Path>) -> Result<Vec<WalEntry>> {
        Wal::recover(path).map(|(_, entries, _)| entries)
    }

    /// The frames of `wal`'s log, without the zeros the file runs on in.
    fn logical_bytes(wal: &Wal) -> Vec<u8> {
        let mut data = std::fs::read(wal.path()).unwrap();
        data.truncate(wal.len() as usize);
        data
    }

    #[test]
    fn encode_decode_round_trip() {
        for entry in [
            put("x", 3, "hello", &[]),
            put("y", 9, "", &["x", "y", "z"]),
            WalEntry::Checkpoint {
                stamp: VersionStamp::new(77, 2),
            },
        ] {
            let enc = encode_entry(&entry);
            assert_eq!(decode_entry(&enc), Some(entry));
        }
    }

    #[test]
    fn tear_tail_spares_synced_records_and_recovery_truncates() {
        let dir = tmpdir();
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&put("a", 1, "v1", &[])).unwrap();
            wal.append(&put("b", 2, "v2", &[])).unwrap();
            wal.sync().unwrap();
        }
        // The first tear lands on the pre-written zeros, the second at
        // the end of a file recovery has cut back to the log.
        for junk in [3u64, 48] {
            Wal::tear_tail(&path, junk).unwrap();
            // Recovery keeps every synced record and cuts the damage, so
            // future appends stay reachable.
            let (_, entries, torn) = Wal::recover(&path).unwrap();
            assert_eq!((entries.len(), torn), (2, junk), "junk={junk}");
        }
        assert_eq!(Wal::recover(&path).unwrap().2, 0, "clean log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&put("c", 3, "v3", &[])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(recovered(&path).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn log opened directly, with no recovery step first, still
    /// takes new frames where recovery will reach them.
    #[test]
    fn open_appends_over_a_torn_tail_not_behind_it() {
        let dir = tmpdir();
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&put("a", 1, "v1", &[])).unwrap();
            wal.sync().unwrap();
        }
        Wal::tear_tail(&path, 48).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&put("b", 2, "v2", &[])).unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(
            recovered(&path).unwrap(),
            vec![put("a", 1, "v1", &[]), put("b", 2, "v2", &[])]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A sync leaves zeros written ahead of the log; they are not part of
    /// it, and recovery cuts them.
    #[test]
    fn sync_writes_zeros_ahead_and_recovery_cuts_them() {
        let dir = tmpdir();
        let path = dir.join("wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&put("a", 1, "v1", &[])).unwrap();
        let logical = wal.len();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), logical);
        wal.sync().unwrap();
        let data = std::fs::read(&path).unwrap();
        assert_eq!(data.len() as u64, logical + ZERO_CHUNK);
        assert!(data[logical as usize..].iter().all(|&b| b == 0));
        // A second sync has headroom to spare and writes nothing more.
        wal.append(&put("b", 2, "v2", &[])).unwrap();
        wal.sync().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            logical + ZERO_CHUNK
        );
        let len = wal.len();
        drop(wal);
        let (wal, entries, torn) = Wal::recover(&path).unwrap();
        assert_eq!((entries.len(), torn, wal.len()), (2, 0, len));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn decode_rejects_truncated() {
        let enc = encode_entry(&put("abc", 1, "value", &["s1"]));
        for cut in 1..enc.len() {
            assert_eq!(decode_entry(&enc[..cut]), None, "cut at {cut}");
        }
        assert_eq!(decode_entry(&[]), None);
        assert_eq!(decode_entry(&[99]), None, "unknown tag");
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: crc32("123456789") = 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing-by-8 gives the bytewise table's CRC for every length and
    /// alignment, remainder bytes included.
    #[test]
    fn crc32_matches_the_bytewise_reference() {
        fn bytewise(data: &[u8]) -> u32 {
            !data.iter().fold(!0u32, |crc, &b| {
                CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
            })
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in (0..80).chain([511, 1024, 2040]) {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start={start} len={len}");
            }
        }
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir();
        let path = dir.join("wal");
        let entries = vec![
            put("a", 1, "1", &[]),
            put("b", 2, "2", &["a", "b"]),
            WalEntry::Checkpoint {
                stamp: VersionStamp::new(2, 1),
            },
            put("a", 3, "3", &[]),
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            assert!(wal.is_empty());
            for e in &entries {
                wal.append(e).unwrap();
            }
            wal.sync().unwrap();
            assert!(!wal.is_empty());
        }
        assert_eq!(recovered(&path).unwrap(), entries);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The borrowed-parts path writes the frames `append` writes for the
    /// equivalent `WalEntry::Put`, and `syncs` counts `sync` calls only.
    #[test]
    fn append_put_matches_append_byte_for_byte() {
        let dir = tmpdir();
        let entries = [put("a", 1, "value", &[]), put("b", 2, "", &["a", "b"])];
        let (mut by_entry, mut by_parts) = (
            Wal::open(dir.join("entry")).unwrap(),
            Wal::open(dir.join("parts")).unwrap(),
        );
        for e in &entries {
            let WalEntry::Put { key, record } = e else {
                unreachable!()
            };
            by_entry.append(e).unwrap();
            by_parts.append_put(key, record).unwrap();
        }
        assert_eq!(by_parts.syncs(), 0);
        by_parts.sync().unwrap();
        assert_eq!(by_parts.syncs(), 1);
        assert_eq!(by_entry.len(), by_parts.len());
        assert_eq!(logical_bytes(&by_entry), logical_bytes(&by_parts));
        assert_eq!(recovered(dir.join("parts")).unwrap(), entries);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = tmpdir();
        assert!(recovered(dir.join("nope")).unwrap().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tmpdir();
        let path = dir.join("wal");
        let data = {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&put("a", 1, "1", &[])).unwrap();
            wal.append(&put("b", 2, "2", &[])).unwrap();
            wal.sync().unwrap();
            logical_bytes(&wal)
        };
        // simulate a crash mid-append: chop bytes off the log's tail
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let replayed = recovered(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(matches!(&replayed[0], WalEntry::Put { key, .. } if key.as_ref() == b"a"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let dir = tmpdir();
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&put("a", 1, "aaaaaaaa", &[])).unwrap();
            wal.append(&put("b", 2, "bbbbbbbb", &[])).unwrap();
            wal.sync().unwrap();
        }
        // flip a payload byte in the first record
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        match recovered(&path) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_appends_after_existing_content() {
        let dir = tmpdir();
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&put("a", 1, "1", &[])).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert!(!wal.is_empty());
            wal.append(&put("b", 2, "2", &[])).unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(recovered(&path).unwrap().len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn garbage_file_reports_corruption_or_empty() {
        let dir = tmpdir();
        let path = dir.join("wal");
        use std::io::Write as _;
        let mut f = File::create(&path).unwrap();
        f.write_all(&[7u8; 5]).unwrap(); // shorter than a header
        drop(f);
        // too short for a header: treated as torn tail -> empty
        assert!(recovered(&path).unwrap().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
