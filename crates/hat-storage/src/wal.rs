//! Append-only, checksummed write-ahead log.
//!
//! Record framing: `[u32 payload_len][u32 crc32(payload)][payload]`, all
//! little-endian. On recovery the log is replayed front to back; a record
//! that fails its length or checksum *at the tail* is treated as a torn
//! write (the crash happened mid-append) and discarded, while a bad record
//! *followed by valid data* is reported as corruption — the same policy
//! LevelDB's log reader applies.

use crate::error::{Result, StorageError};
use crate::version::{Key, Record, VersionStamp};
use bytes::{Buf, Bytes};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
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
    /// A checkpoint marker: all versions `≤ stamp` are persisted in a
    /// checkpoint file, so earlier entries may be dropped at compaction.
    Checkpoint {
        /// Upper stamp bound covered by the checkpoint.
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
    for s in &record.siblings {
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
                    siblings,
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

/// CRC-32 (IEEE 802.3 polynomial, reflected).
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Bytes of frame header: `[u32 payload_len][u32 crc32(payload)]`.
const FRAME_HEADER: usize = 8;

/// An open write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    appended: u64,
    /// The frame being written, reused across appends so the write path
    /// allocates nothing per entry.
    frame: Vec<u8>,
    syncs: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let appended = file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path,
            appended,
            frame: Vec::new(),
            syncs: 0,
        })
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
    /// it to the OS in one `write_all`.
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
        self.file.write_all(&self.frame)?;
        self.appended += self.frame.len() as u64;
        Ok(())
    }

    /// Forces appended entries to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// How many times [`Wal::sync`] has reached the disk on this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Bytes appended so far (including pre-existing content).
    pub fn len(&self) -> u64 {
        self.appended
    }

    /// True if the log contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Truncates the log to zero length (after a checkpoint has been
    /// written elsewhere).
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::End(0))?;
        self.appended = 0;
        self.file.sync_data()?;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Chops `bytes` off the end of the log at `path` — the torn-write
    /// fault: a crash mid-append leaves a partial final frame, which
    /// [`Wal::replay`] must discard while keeping the valid prefix.
    /// Chopping more bytes than the file holds empties it. No-op on a
    /// missing file.
    pub fn chop_tail(path: impl AsRef<Path>, bytes: u64) -> Result<()> {
        let file = match OpenOptions::new().write(true).open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        file.set_len(len.saturating_sub(bytes))?;
        file.sync_data()?;
        Ok(())
    }

    /// Appends `junk` bytes of a partial frame to the log at `path` —
    /// the torn-write fault: a crash mid-append leaves a final frame
    /// whose header promises more bytes than reached the disk.
    /// [`Wal::replay`] discards it and [`Wal::truncate_torn_tail`]
    /// removes it. Synced (acknowledged) records are never affected —
    /// that is what distinguishes a torn tail from disk corruption,
    /// which no recovery protocol can be expected to mask. No-op when
    /// `junk` is 0 or the file does not exist.
    pub fn tear_tail(path: impl AsRef<Path>, junk: u64) -> Result<()> {
        if junk == 0 {
            return Ok(());
        }
        let mut file = match OpenOptions::new().append(true).open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let mut frame = Vec::with_capacity(junk as usize);
        if junk >= 8 {
            let body = (junk - 8) as u32;
            // Promise more payload than was flushed: a guaranteed short
            // read at replay, independent of the junk's content.
            frame.extend_from_slice(&(body + 64).to_le_bytes());
            frame.extend_from_slice(&0u32.to_le_bytes());
            frame.resize(junk as usize, 0xAA);
        } else {
            frame.resize(junk as usize, 0xAA);
        }
        file.write_all(&frame)?;
        file.sync_data()?;
        Ok(())
    }

    /// Truncates the log at `path` to its valid frame prefix, removing a
    /// torn tail left by a crash mid-append. Returns the bytes removed.
    /// Recovery must run this before appending to a replayed log —
    /// otherwise new frames would land *after* the torn one and be
    /// unreachable to a future replay.
    pub fn truncate_torn_tail(path: impl AsRef<Path>) -> Result<u64> {
        let mut data = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e.into()),
        }
        let (_, valid) = scan(&data)?;
        let trimmed = data.len() as u64 - valid;
        if trimmed > 0 {
            let file = OpenOptions::new().write(true).open(path.as_ref())?;
            file.set_len(valid)?;
            file.sync_data()?;
        }
        Ok(trimmed)
    }

    /// Replays the log at `path`, returning decoded entries.
    ///
    /// A framing/checksum failure at the tail is treated as a torn write:
    /// replay stops and the valid prefix is returned. A failure *before*
    /// valid trailing data returns [`StorageError::Corrupt`].
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<WalEntry>> {
        let mut data = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        let (entries, _) = scan(&data)?;
        Ok(entries)
    }
}

/// Walks the frame sequence in `data`, returning the decoded entries and
/// the byte length of the valid prefix (a torn tail ends it early).
fn scan(data: &[u8]) -> Result<(Vec<WalEntry>, u64)> {
    let mut entries = Vec::new();
    {
        let mut offset = 0usize;
        let mut tail_error: Option<u64> = None;
        while offset < data.len() {
            let start = offset;
            if data.len() - offset < 8 {
                tail_error = Some(start as u64);
                break;
            }
            let len = u32::from_le_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[offset + 4..offset + 8].try_into().unwrap());
            offset += 8;
            if data.len() - offset < len {
                tail_error = Some(start as u64);
                break;
            }
            let payload = &data[offset..offset + len];
            offset += len;
            if crc32(payload) != crc {
                // Bad checksum: torn tail if nothing valid follows,
                // corruption otherwise. We conservatively check whether the
                // remaining bytes parse as at least one valid record.
                if has_valid_record(&data[offset..]) {
                    return Err(StorageError::Corrupt {
                        offset: start as u64,
                        reason: "checksum mismatch before valid trailing records".into(),
                    });
                }
                tail_error = Some(start as u64);
                break;
            }
            match decode_entry(payload) {
                Some(e) => entries.push(e),
                None => {
                    return Err(StorageError::Corrupt {
                        offset: start as u64,
                        reason: "undecodable payload with valid checksum".into(),
                    })
                }
            }
        }
        // Torn tails are expected after crashes: the valid prefix ends
        // where the first damaged frame starts.
        let valid = tail_error.unwrap_or(data.len() as u64);
        Ok((entries, valid))
    }
}

fn has_valid_record(mut data: &[u8]) -> bool {
    while data.len() >= 8 {
        let len = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if data.len() - 8 < len {
            return false;
        }
        if crc32(&data[8..8 + len]) == crc {
            return true;
        }
        data = &data[8 + len..];
    }
    false
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
                sibs.iter().map(|s| Key::from(s.to_string())).collect(),
            ),
        }
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
        for junk in [3u64, 48] {
            Wal::tear_tail(&path, junk).unwrap();
            // Replay discards the torn frame, keeps every synced record.
            assert_eq!(Wal::replay(&path).unwrap().len(), 2, "junk={junk}");
            // Recovery cuts the damage so future appends stay reachable.
            let trimmed = Wal::truncate_torn_tail(&path).unwrap();
            assert_eq!(trimmed, junk);
        }
        assert_eq!(Wal::truncate_torn_tail(&path).unwrap(), 0, "clean log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&put("c", 3, "v3", &[])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(Wal::replay(&path).unwrap(), entries);
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
        assert_eq!(
            std::fs::read(dir.join("entry")).unwrap(),
            std::fs::read(dir.join("parts")).unwrap()
        );
        assert_eq!(Wal::replay(dir.join("parts")).unwrap(), entries);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = tmpdir();
        assert!(Wal::replay(dir.join("nope")).unwrap().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tmpdir();
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&put("a", 1, "1", &[])).unwrap();
            wal.append(&put("b", 2, "2", &[])).unwrap();
            wal.sync().unwrap();
        }
        // simulate a crash mid-append: chop bytes off the tail
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
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
        match Wal::replay(&path) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reset_empties_log() {
        let dir = tmpdir();
        let path = dir.join("wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&put("a", 1, "1", &[])).unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        assert!(Wal::replay(&path).unwrap().is_empty());
        // appends still work after reset
        wal.append(&put("b", 2, "2", &[])).unwrap();
        wal.sync().unwrap();
        assert_eq!(Wal::replay(&path).unwrap().len(), 1);
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
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
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
        assert!(Wal::replay(&path).unwrap().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
