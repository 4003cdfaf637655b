//! Epoch-commit write-ahead log for the coordinator.
//!
//! This module is the *only* place in `crates/distrib` that touches WAL
//! files (the `wal-funnel` lint rule enforces that): every durability
//! decision — record framing, checksumming, fsync, truncation — lives in
//! one audited funnel, the same way all socket I/O is confined to
//! [`crate::io`].
//!
//! One record per applied `(site, epoch)` delta frame, appended and
//! fsynced *before* the ack goes back to the site. The record format
//! reuses the engine checkpoint header codec
//! ([`ustream_engine::checkpoint::encode_payload`]):
//!
//! ```text
//! UWALREC 1 <payload-bytes> <fnv1a64-hex>\n<json DeltaFrame>
//! ```
//!
//! Because the ack is sent only after the record is durable, every acked
//! epoch is recoverable from snapshot ∪ WAL; a torn tail record can only
//! belong to an epoch that was never acked, which the site retries
//! anyway. [`replay`] therefore truncates at the first bad checksum and
//! loses nothing that was promised.

use crate::protocol::DeltaFrame;
use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use ustream_common::{Result, UStreamError};
use ustream_engine::checkpoint::{decode_framed, encode_payload};

/// Magic tag of one WAL record header.
pub const WAL_MAGIC: &str = "UWALREC";
/// Record format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;

/// Append-only WAL handle owned by a live coordinator.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: String,
    records: u64,
    bytes: u64,
}

fn io_err(path: &str, op: &str, e: std::io::Error) -> UStreamError {
    UStreamError::Io(std::io::Error::new(e.kind(), format!("{op} {path}: {e}")))
}

fn encode_record(frame: &DeltaFrame) -> Result<Vec<u8>> {
    let json = serde_json::to_string(frame)
        .map_err(|e| UStreamError::Checkpoint(format!("WAL record encode: {e}")))?;
    Ok(encode_payload(WAL_MAGIC, WAL_VERSION, json.as_bytes()))
}

impl Wal {
    /// Creates (or truncates) the WAL at `path`. Used on a fresh,
    /// non-resumed start: nothing durable exists yet, so nothing to keep.
    pub fn create(path: &str) -> Result<Self> {
        let file = File::create(path).map_err(|e| io_err(path, "create", e))?;
        Ok(Self {
            file,
            path: path.to_string(),
            records: 0,
            bytes: 0,
        })
    }

    /// Opens the WAL at `path` for appending, after [`replay`] has
    /// already truncated any torn tail. `records` is the replay's record
    /// count, so the handle's counters continue from the survivors.
    pub fn open_appending(path: &str, records: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        let bytes = file.metadata().map_err(|e| io_err(path, "stat", e))?.len();
        Ok(Self {
            file,
            path: path.to_string(),
            records,
            bytes,
        })
    }

    /// Appends one applied epoch and fsyncs it. The caller must not ack
    /// the epoch until this returns `Ok` — that ordering is the whole
    /// durability argument.
    ///
    /// # Errors
    ///
    /// [`UStreamError::Io`] when the write or fsync fails; the caller
    /// treats that as a crash (no ack), because the record may be torn.
    pub fn append(&mut self, frame: &DeltaFrame) -> Result<()> {
        let record = encode_record(frame)?;
        #[cfg(feature = "failpoints")]
        if ustream_engine::failpoints::should_fire(ustream_engine::failpoints::COORD_WAL_TORN) {
            // Tear the record: half the bytes land, then the "process
            // dies". Replay must cut the WAL back to the previous record.
            let half = &record[..record.len() / 2];
            let _ = self.file.write_all(half);
            let _ = self.file.sync_data();
            self.bytes += half.len() as u64;
            return Err(UStreamError::Io(std::io::Error::other(format!(
                "{}: torn WAL write (failpoint)",
                self.path
            ))));
        }
        self.file
            .write_all(&record)
            .map_err(|e| io_err(&self.path, "append", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "fsync", e))?;
        self.records += 1;
        self.bytes += record.len() as u64;
        Ok(())
    }

    /// Empties the WAL after a successful snapshot: everything the log
    /// held is now covered by the snapshot generation.
    pub fn truncate(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| io_err(&self.path, "truncate", e))?;
        // set_len does not move the write cursor: without the rewind the
        // next append would land at the old offset, leaving a hole of
        // zero bytes that poisons the whole log at replay.
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, "rewind", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "fsync", e))?;
        self.records = 0;
        self.bytes = 0;
        Ok(())
    }

    /// Records appended since the last truncation (or replay count).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// What [`replay`] recovered from a WAL file.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// The decoded records, oldest first, ending at the last intact one.
    pub frames: Vec<DeltaFrame>,
    /// Count of intact records (`frames.len()` as u64).
    pub records: u64,
    /// Bytes of the intact prefix — the file's length after replay.
    pub bytes: u64,
    /// Whether a torn/corrupt tail was found and cut off.
    pub truncated: bool,
    /// Bytes the truncation discarded.
    pub dropped_bytes: u64,
}

/// Replays the WAL at `path`: decodes records until the first bad
/// checksum / torn header, truncates the file back to the intact prefix,
/// and returns the surviving frames oldest-first. A missing file is an
/// empty (fully successful) replay.
///
/// # Errors
///
/// [`UStreamError::Io`] when the file exists but cannot be read or the
/// truncation write-back fails.
pub fn replay(path: &str) -> Result<WalReplay> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(io_err(path, "read", e)),
    };
    let mut out = WalReplay::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let tail = &bytes[offset..];
        let parsed = decode_framed(WAL_MAGIC, WAL_VERSION, tail).and_then(|(payload, len)| {
            let text = std::str::from_utf8(payload)
                .map_err(|_| UStreamError::Checkpoint("WAL payload is not UTF-8".into()))?;
            let frame = serde_json::from_str::<DeltaFrame>(text)
                .map_err(|e| UStreamError::Checkpoint(format!("WAL record decode: {e}")))?;
            Ok((frame, len))
        });
        let Ok((frame, len)) = parsed else {
            out.truncated = true;
            break;
        };
        out.frames.push(frame);
        offset += len;
    }
    out.records = out.frames.len() as u64;
    out.bytes = offset as u64;
    out.dropped_bytes = (bytes.len() - offset) as u64;
    if out.dropped_bytes > 0 {
        out.truncated = true;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        file.set_len(out.bytes)
            .map_err(|e| io_err(path, "truncate", e))?;
        file.sync_data().map_err(|e| io_err(path, "fsync", e))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DeltaFrame;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> String {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed); // relaxed-ok: unique-name counter
        std::env::temp_dir()
            .join(format!("uwal-{tag}-{}-{n}.wal", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Two records written before snapshots shared their ECFs replay, and
    /// re-encode to the very same bytes.
    #[test]
    fn unshared_layout_fixture_round_trips_byte_for_byte() {
        let bytes = include_bytes!("../tests/fixtures/wal_records_v1.wal");
        let path = temp_path("fixture");
        std::fs::write(&path, bytes).unwrap();
        let replayed = replay(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(replayed.records, 2);
        assert!(!replayed.truncated);
        let mut again = Vec::new();
        for frame in &replayed.frames {
            again.extend(encode_record(frame).unwrap());
        }
        assert_eq!(again, bytes.to_vec());
    }

    fn frame(site: u64, seq: u64) -> DeltaFrame {
        DeltaFrame {
            site,
            seq,
            full: false,
            updates: std::collections::BTreeMap::new(),
            removes: vec![seq + 100],
            points: seq * 3,
            last_tick: seq * 10,
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let path = temp_path("rt");
        let mut wal = Wal::create(&path).unwrap();
        for seq in 1..=5 {
            wal.append(&frame(2, seq)).unwrap();
        }
        assert_eq!(wal.records(), 5);
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, 5);
        assert!(!replayed.truncated);
        assert_eq!(replayed.bytes, wal.bytes());
        for (i, f) in replayed.frames.iter().enumerate() {
            assert_eq!(*f, frame(2, i as u64 + 1));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_wal_is_empty_replay() {
        let path = temp_path("missing");
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, 0);
        assert!(!replayed.truncated);
    }

    #[test]
    fn torn_tail_truncated_and_survivors_kept() {
        let path = temp_path("torn");
        let mut wal = Wal::create(&path).unwrap();
        for seq in 1..=3 {
            wal.append(&frame(1, seq)).unwrap();
        }
        let good_bytes = wal.bytes();
        drop(wal);
        // Simulate a torn fourth record: append half of a valid record.
        let rec = encode_record(&frame(1, 4)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&rec[..rec.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, 3);
        assert!(replayed.truncated);
        assert_eq!(replayed.bytes, good_bytes);
        assert_eq!(replayed.dropped_bytes, (rec.len() / 2) as u64);
        // The file really shrank: a second replay is clean.
        let again = replay(&path).unwrap();
        assert_eq!(again.records, 3);
        assert!(!again.truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_then_append_leaves_no_hole() {
        let path = temp_path("trunc");
        let mut wal = Wal::create(&path).unwrap();
        for seq in 1..=3 {
            wal.append(&frame(1, seq)).unwrap();
        }
        wal.truncate().unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(&frame(1, 4)).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, 1, "no zero-byte hole before the record");
        assert!(!replayed.truncated);
        assert_eq!(replayed.frames[0], frame(1, 4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_byte_mid_log_cuts_everything_after() {
        let path = temp_path("flip");
        let mut wal = Wal::create(&path).unwrap();
        let mut first_len = 0;
        for seq in 1..=4 {
            wal.append(&frame(3, seq)).unwrap();
            if seq == 1 {
                first_len = wal.bytes();
            }
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = first_len as usize + 20; // inside record 2's payload
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, 1, "only the record before the flip");
        assert!(replayed.truncated);
        assert_eq!(replayed.bytes, first_len);
        let _ = std::fs::remove_file(&path);
    }
}
