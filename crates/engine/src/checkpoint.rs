//! Durable engine checkpoints: full state to a single file, atomically.
//!
//! A checkpoint captures everything a [`crate::StreamEngine`] needs to
//! resume as if never interrupted: the complete per-shard clusterer states
//! (via [`ClustererState`], which includes the id allocators and
//! variance-refresh phase, not just the summaries), the retained pyramidal
//! snapshots, the configuration, and the global counters. Restoring from a
//! checkpoint therefore reproduces horizon queries *exactly* — the
//! round-trip property `tests/checkpoint_roundtrip.rs` verifies bit for
//! bit.
//!
//! ## File format
//!
//! One ASCII header line, then a JSON payload:
//!
//! ```text
//! USTREAMCKPT <version> <payload-bytes> <fnv1a64-hex>\n
//! {...}
//! ```
//!
//! The checksum is FNV-1a (64-bit) over the payload, so any torn or
//! bit-flipped write is detected at load time and reported as
//! [`UStreamError::Checkpoint`] — never undefined behaviour, never a
//! half-restored engine. Writes go to `<path>.tmp` first, are fsynced,
//! and then renamed into place (with the parent directory synced after),
//! so a crash mid-write leaves the previous checkpoint intact and a
//! completed write survives power loss.

use crate::config::EngineConfig;
use serde::{Deserialize, Serialize};
use std::fs;
use umicro::{ClustererState, Ecf};
use ustream_common::{Result, Timestamp, UStreamError};
use ustream_snapshot::ClusterSetSnapshot;

/// Magic token opening every checkpoint file.
pub const MAGIC: &str = "USTREAMCKPT";
/// Format version written by this build.
pub const VERSION: u32 = 1;

/// One shard's complete saved state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// The clusterer's full mutable state.
    pub state: ClustererState<Ecf>,
    /// Micro-clusters created on this shard so far.
    pub created: u64,
    /// Micro-clusters evicted on this shard so far.
    pub evicted: u64,
    /// Records clustered on this shard so far.
    pub processed: u64,
    /// Novelty alerts raised on this shard so far.
    pub alerts: u64,
}

/// One retained pyramidal snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// Capture tick.
    pub time: Timestamp,
    /// The merged, namespaced cluster set at that tick.
    pub clusters: ClusterSetSnapshot<Ecf>,
}

/// The complete persisted engine state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Engine configuration at checkpoint time; a restore reuses it.
    pub config: EngineConfig,
    /// Per-shard states, indexed by shard.
    pub shards: Vec<ShardCheckpoint>,
    /// Retained pyramidal snapshots, chronological.
    pub snapshots: Vec<SnapshotEntry>,
    /// Global records-processed ordinal.
    pub points_processed: u64,
    /// Engine clock (latest stream tick observed).
    pub last_tick: Timestamp,
    /// Total novelty alerts raised.
    pub alerts_raised: u64,
    /// Exact merges performed.
    pub merges: u64,
    /// Round-robin router cursor, so routing resumes in phase.
    pub router: u64,
}

/// FNV-1a, 64-bit — tiny, dependency-free, and plenty to catch torn writes
/// and bit flips (this is corruption *detection*, not an adversarial MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frames `payload` under the generic checksummed header:
/// `<magic> <version> <payload-bytes> <fnv1a64-hex>\n<payload>`.
///
/// This is the byte-level codec every durable artifact in the workspace
/// shares — engine checkpoints here, coordinator snapshots and WAL records
/// in the distributed tier — so torn-write detection has exactly one
/// implementation to audit.
pub fn encode_payload(magic: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{magic} {version} {} {:016x}\n",
        payload.len(),
        fnv1a64(payload)
    );
    let mut out = header.into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Verifies the generic header of [`encode_payload`] and returns the
/// payload slice. The whole byte slice must be exactly one record; use
/// [`decode_framed`] for concatenated-record streams (the WAL).
///
/// Every failure mode — wrong magic, unsupported version, truncated file,
/// checksum mismatch — comes back as [`UStreamError::Checkpoint`] with a
/// message saying which check failed.
pub fn decode_payload<'a>(magic: &str, version: u32, bytes: &'a [u8]) -> Result<&'a [u8]> {
    let (payload, consumed) = decode_framed(magic, version, bytes)?;
    if consumed != bytes.len() {
        return Err(UStreamError::Checkpoint(format!(
            "{} trailing bytes after the payload",
            bytes.len() - consumed
        )));
    }
    Ok(payload)
}

/// Verifies one [`encode_payload`] record at the *head* of `bytes` and
/// returns `(payload, record_length)`, ignoring whatever follows — later
/// records of an append-only log. The coordinator WAL replays through
/// this, so torn-record detection shares the checkpoint codec's checksum
/// logic instead of re-implementing it.
pub fn decode_framed<'a>(magic: &str, version: u32, bytes: &'a [u8]) -> Result<(&'a [u8], usize)> {
    let newline = bytes
        .iter()
        .take(MAX_HEADER_BYTES)
        .position(|b| *b == b'\n')
        .ok_or_else(|| UStreamError::Checkpoint("missing header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| UStreamError::Checkpoint("header is not UTF-8".into()))?;
    let mut fields = header.split_ascii_whitespace();
    let got_magic = fields.next().unwrap_or_default();
    if got_magic != magic {
        return Err(UStreamError::Checkpoint(format!(
            "bad magic {got_magic:?} (expected a {magic} file)"
        )));
    }
    let got_version: u32 = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| UStreamError::Checkpoint("unparseable version".into()))?;
    if got_version != version {
        return Err(UStreamError::Checkpoint(format!(
            "unsupported {magic} version {got_version} (this build reads {version})"
        )));
    }
    let declared_len: usize = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| UStreamError::Checkpoint("unparseable payload length".into()))?;
    let declared_sum = fields
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| UStreamError::Checkpoint("unparseable checksum".into()))?;

    let rest = &bytes[newline + 1..];
    if rest.len() < declared_len {
        return Err(UStreamError::Checkpoint(format!(
            "payload is {} bytes, header declares {declared_len} (truncated write?)",
            rest.len()
        )));
    }
    let payload = &rest[..declared_len];
    let actual_sum = fnv1a64(payload);
    if actual_sum != declared_sum {
        return Err(UStreamError::Checkpoint(format!(
            "checksum mismatch: computed {actual_sum:016x}, header declares {declared_sum:016x} \
             (file corrupt)"
        )));
    }
    Ok((payload, newline + 1 + declared_len))
}

/// Upper bound on a record header's byte length; a header line longer
/// than this (or binary junk with no newline) is corruption, not a
/// record. Keeps [`decode_framed`] from scanning megabytes of garbage
/// for a `\n` that is not there.
const MAX_HEADER_BYTES: usize = 128;

/// Serialises a checkpoint to its on-disk byte form (header + payload).
pub fn encode(ckpt: &EngineCheckpoint) -> Result<Vec<u8>> {
    let payload =
        serde_json::to_string(ckpt).map_err(|e| UStreamError::Checkpoint(e.to_string()))?;
    Ok(encode_payload(MAGIC, VERSION, payload.as_bytes()))
}

/// Parses and verifies the on-disk byte form.
///
/// Every failure mode — wrong magic, unsupported version, truncated file,
/// checksum mismatch, malformed JSON — comes back as
/// [`UStreamError::Checkpoint`] with a message saying which check failed.
pub fn decode(bytes: &[u8]) -> Result<EngineCheckpoint> {
    let payload = decode_payload(MAGIC, VERSION, bytes)?;
    let text = std::str::from_utf8(payload)
        .map_err(|_| UStreamError::Checkpoint("payload is not UTF-8".into()))?;
    let ckpt: EngineCheckpoint = serde_json::from_str(text)
        .map_err(|e| UStreamError::Checkpoint(format!("payload parse: {e}")))?;
    if let Err(msg) = ckpt.validate() {
        return Err(UStreamError::Checkpoint(msg));
    }
    Ok(ckpt)
}

impl EngineCheckpoint {
    /// Structural sanity checks beyond what the parser enforces.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.shards.is_empty() {
            return Err("checkpoint holds no shards".into());
        }
        if self.shards.len() != self.config.shards {
            return Err(format!(
                "checkpoint holds {} shard states but its config declares {}",
                self.shards.len(),
                self.config.shards
            ));
        }
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .state
                .validate()
                .map_err(|e| format!("shard {i} state: {e}"))?;
        }
        // lint:allow(hot-panic): windows(2) yields exactly-2-element slices
        if self.snapshots.windows(2).any(|w| w[0].time > w[1].time) {
            return Err("snapshots are not chronological".into());
        }
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically *and durably*: the full stream
/// goes to `<path>.tmp`, which is fsynced and then renamed over `path`,
/// followed by an fsync of the parent directory. A crash mid-write leaves
/// the previous file intact; once this returns, the new file survives
/// power loss. The durability matters to callers that delete their redo
/// state when this returns — the coordinator truncates its epoch WAL
/// right after snapshotting through here, so a snapshot that only lives
/// in the page cache would silently break the "every acked epoch
/// survives" invariant.
pub fn write_atomic_bytes(path: &str, bytes: &[u8]) -> Result<()> {
    let tmp = format!("{path}.tmp");
    let mut file = fs::File::create(&tmp)?;
    std::io::Write::write_all(&mut file, bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    // The rename itself lives in the directory entry: without syncing the
    // directory, power loss can roll the whole rename back.
    #[cfg(unix)]
    {
        let parent = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or_else(|| std::path::Path::new("."));
        fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Writes the checkpoint to `path` atomically: the full byte stream goes to
/// `<path>.tmp`, which is then renamed over `path`.
pub fn write_atomic(path: &str, ckpt: &EngineCheckpoint) -> Result<()> {
    #[allow(unused_mut)]
    let mut bytes = encode(ckpt)?;
    #[cfg(feature = "failpoints")]
    if crate::failpoints::should_fire(crate::failpoints::CHECKPOINT_CORRUPT) {
        if let Some(last) = bytes.last_mut() {
            *last ^= 0xFF;
        }
    }
    write_atomic_bytes(path, &bytes)
}

/// Reads and verifies a checkpoint from `path`.
pub fn read(path: &str) -> Result<EngineCheckpoint> {
    let bytes = fs::read(path)?;
    decode(&bytes)
}

// ---- checkpoint generations -------------------------------------------
//
// With `EngineBuilder::checkpoint_generations(n)`, auto-checkpoints
// rotate through `n` files `<base>.0 … <base>.{n-1}` plus a manifest
// `<base>.manifest` listing `slot seq` pairs newest-first. A single corrupt
// write (or a corrupt byte on disk) then costs one generation, not the
// whole recovery story: [`read_latest`] walks the manifest newest-first and
// returns the first generation that still decodes, falling back to a slot
// scan when the manifest itself is missing or unreadable.

/// Slots scanned by [`read_latest`] when no manifest is usable.
const MAX_SCAN_SLOTS: u64 = 64;

/// On-disk path of rotation slot `slot` under `base`.
pub fn generation_path(base: &str, slot: u64) -> String {
    format!("{base}.{slot}")
}

/// On-disk path of the rotation manifest under `base`.
pub fn manifest_path(base: &str) -> String {
    format!("{base}.manifest")
}

/// `(slot, seq)` entries newest-first, or `None` when the manifest is
/// missing or malformed (callers then fall back to scanning the slots).
fn read_manifest(base: &str) -> Option<Vec<(u64, u64)>> {
    let text = fs::read_to_string(manifest_path(base)).ok()?;
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        let slot: u64 = fields.next()?.parse().ok()?;
        let seq: u64 = fields.next()?.parse().ok()?;
        entries.push((slot, seq));
    }
    (!entries.is_empty()).then_some(entries)
}

fn write_manifest(base: &str, entries: &[(u64, u64)]) -> Result<()> {
    let mut text = String::new();
    for (slot, seq) in entries {
        text.push_str(&format!("{slot} {seq}\n"));
    }
    write_atomic_bytes(&manifest_path(base), text.as_bytes())
}

/// Writes checkpoint number `seq` into its rotation slot
/// (`seq % generations`) and promotes it to the head of the manifest.
///
/// The generation file is written atomically first, the manifest second —
/// a crash between the two leaves a valid file that the slot-scan fallback
/// of [`read_latest`] still finds.
pub fn write_rotated(
    base: &str,
    generations: u64,
    seq: u64,
    ckpt: &EngineCheckpoint,
) -> Result<()> {
    let generations = generations.max(1);
    let slot = seq % generations;
    write_atomic(&generation_path(base, slot), ckpt)?;
    promote_manifest(base, generations, slot, seq)
}

/// The generic-payload counterpart of [`write_rotated`]: any byte stream
/// (already framed by its own [`encode_payload`] header) rotates through
/// the same slot + manifest machinery. The distributed tier's coordinator
/// snapshots persist through this.
pub fn write_rotated_bytes(base: &str, generations: u64, seq: u64, bytes: &[u8]) -> Result<()> {
    let generations = generations.max(1);
    let slot = seq % generations;
    write_atomic_bytes(&generation_path(base, slot), bytes)?;
    promote_manifest(base, generations, slot, seq)
}

fn promote_manifest(base: &str, generations: u64, slot: u64, seq: u64) -> Result<()> {
    let mut entries = read_manifest(base).unwrap_or_default();
    entries.retain(|(s, _)| *s != slot);
    entries.insert(0, (slot, seq));
    entries.truncate(generations as usize);
    write_manifest(base, &entries)
}

/// The newest rotation ordinal the manifest records, when it is readable.
/// A restarted writer continues its rotation from here instead of
/// clobbering the newest surviving generation with its first write.
pub fn latest_manifest_seq(base: &str) -> Option<u64> {
    read_manifest(base).and_then(|entries| entries.iter().map(|(_, seq)| *seq).max())
}

/// What a [`read_latest`]-style recovery scan had to step over — surfaced
/// to callers so a silently rotting generation set is visible in stats
/// instead of being hidden by the fallback succeeding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationRecovery {
    /// Candidate generation files that existed but failed to read or
    /// decode (torn writes, bit rot, version skew). Zero on a clean load.
    pub corrupt_skipped: u64,
    /// Whether a readable manifest drove the scan (false = slot scan).
    pub via_manifest: bool,
    /// Whether the bare `base` path itself was among the candidates
    /// examined (the slot-scan fallback checks it; a manifest hit that
    /// returns early does not).
    pub scanned_bare: bool,
    /// The error of the last corrupt candidate, for diagnostics.
    pub last_error: Option<String>,
}

/// Loads the newest generation under `base` that `decode` accepts,
/// counting every candidate that had to be skipped.
///
/// Walks the manifest newest-first and returns the first generation that
/// decodes; when the manifest is missing or unusable (or lists only
/// corrupt generations), scans `<base>.0 … <base>.{63}` and the bare
/// `base` path and returns the decodable candidate with the highest
/// `ordinal`. Returns `None` with the recovery metadata when nothing
/// decodes — the caller decides whether that is an error.
pub fn read_latest_with<T>(
    base: &str,
    decode: &dyn Fn(&[u8]) -> Result<T>,
    ordinal: &dyn Fn(&T) -> u64,
) -> (Option<T>, GenerationRecovery) {
    fn try_path<T>(
        path: &str,
        decode: &dyn Fn(&[u8]) -> Result<T>,
        rec: &mut GenerationRecovery,
        failed: &mut std::collections::BTreeSet<String>,
    ) -> Option<T> {
        if !std::path::Path::new(path).exists() {
            return None;
        }
        let res = fs::read(path)
            .map_err(UStreamError::Io)
            .and_then(|b| decode(&b));
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                rec.last_error = Some(format!("{path}: {e}"));
                failed.insert(path.to_string());
                None
            }
        }
    }

    let mut rec = GenerationRecovery::default();
    // Distinct corrupt paths: the slot-scan fallback revisits the files the
    // manifest walk already rejected, and one rotten file is one defect.
    let mut failed = std::collections::BTreeSet::new();
    if let Some(entries) = read_manifest(base) {
        rec.via_manifest = true;
        for (slot, _seq) in &entries {
            if let Some(v) = try_path(&generation_path(base, *slot), decode, &mut rec, &mut failed)
            {
                rec.corrupt_skipped = failed.len() as u64;
                return (Some(v), rec);
            }
        }
    }
    let mut best: Option<T> = None;
    let mut candidates: Vec<String> = (0..MAX_SCAN_SLOTS)
        .map(|s| generation_path(base, s))
        .collect();
    candidates.push(base.to_string());
    rec.scanned_bare = true;
    for path in candidates {
        if let Some(v) = try_path(&path, decode, &mut rec, &mut failed) {
            if best.as_ref().is_none_or(|b| ordinal(&v) > ordinal(b)) {
                best = Some(v);
            }
        }
    }
    rec.corrupt_skipped = failed.len() as u64;
    (best, rec)
}

/// [`read_latest`] plus the recovery metadata: how many corrupt
/// generations the scan skipped before finding one that decodes.
pub fn read_latest_traced(base: &str) -> Result<(EngineCheckpoint, GenerationRecovery)> {
    let (best, rec) = read_latest_with(base, &decode, &|ck: &EngineCheckpoint| ck.points_processed);
    match best {
        Some(ck) => Ok((ck, rec)),
        None => Err(match rec.last_error {
            Some(msg) => UStreamError::Checkpoint(msg),
            None => UStreamError::Checkpoint(format!(
                "no checkpoint generation found at {base} (or {base}.N)"
            )),
        }),
    }
}

/// Loads the newest checkpoint generation that still decodes.
///
/// Tries the manifest order (newest first); when the manifest is missing
/// or unusable, scans `<base>.0 … <base>.{63}` and the bare `base` path and
/// returns the valid checkpoint with the highest `points_processed`. Errors
/// only when *no* generation decodes — with the decode error of the last
/// corrupt candidate, so the caller sees why recovery failed. Callers that
/// should *notice* skipped generations use [`read_latest_traced`].
pub fn read_latest(base: &str) -> Result<EngineCheckpoint> {
    read_latest_traced(base).map(|(ck, _)| ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use umicro::UMicroConfig;

    /// A checkpoint written before snapshots shared their ECFs (two
    /// decayed shards, merged snapshots in the pyramid) still decodes, and
    /// encodes back to the very same bytes.
    #[test]
    fn unshared_layout_fixture_round_trips_byte_for_byte() {
        let bytes = include_bytes!("../tests/fixtures/engine_checkpoint_v1.ckpt");
        let ckpt = decode(bytes).unwrap();
        assert_eq!(ckpt.shards.len(), 2);
        assert!(!ckpt.snapshots.is_empty());
        assert_eq!(encode(&ckpt).unwrap(), bytes.to_vec());
    }

    fn tiny_checkpoint() -> EngineCheckpoint {
        EngineCheckpoint {
            config: EngineConfig::new(UMicroConfig::new(4, 2).unwrap()),
            shards: vec![ShardCheckpoint {
                state: ClustererState {
                    ids: Vec::new(),
                    summaries: Vec::new(),
                    next_id: 0,
                    points_processed: 0,
                    since_refresh: 0,
                    variances: Vec::new(),
                    last_seen: 0,
                },
                created: 0,
                evicted: 0,
                processed: 0,
                alerts: 0,
            }],
            snapshots: Vec::new(),
            points_processed: 0,
            last_tick: 0,
            alerts_raised: 0,
            merges: 0,
            router: 0,
        }
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn encode_decode_round_trip() {
        let ckpt = tiny_checkpoint();
        let bytes = encode(&ckpt).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.shards.len(), 1);
        assert_eq!(back.config.umicro.n_micro, 4);
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = encode(&tiny_checkpoint()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = decode(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "wrong error: {err}"
        );
    }

    #[test]
    fn truncated_payload_detected() {
        let mut bytes = encode(&tiny_checkpoint()).unwrap();
        bytes.truncate(bytes.len() - 10);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"), "wrong error: {err}");
    }

    #[test]
    fn wrong_magic_detected() {
        let err = decode(b"NOTACKPT 1 0 0\n").unwrap_err();
        assert!(err.to_string().contains("bad magic"), "wrong error: {err}");
    }

    #[test]
    fn future_version_refused() {
        let payload = b"{}";
        let header = format!("{MAGIC} 999 {} {:016x}\n", payload.len(), fnv1a64(payload));
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(payload);
        let err = decode(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unsupported USTREAMCKPT version"),
            "wrong error: {err}"
        );
    }

    #[test]
    fn garbage_file_is_an_error_not_a_panic() {
        for garbage in [
            &b""[..],
            &b"\n"[..],
            &b"\xff\xfe\x00\x01"[..],
            &b"USTREAMCKPT\n"[..],
            &b"USTREAMCKPT 1 oops zzzz\n"[..],
        ] {
            assert!(decode(garbage).is_err());
        }
    }

    #[test]
    fn shard_count_mismatch_rejected() {
        let mut ckpt = tiny_checkpoint();
        ckpt.config.shards = 2;
        let bytes = encode(&ckpt).unwrap();
        let err = decode(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("shard states"),
            "wrong error: {err}"
        );
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir();
        let path = dir
            .join(format!("ustream-ckpt-test-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let ckpt = tiny_checkpoint();
        write_atomic(&path, &ckpt).unwrap();
        // No stray temp file left behind.
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let back = read(&path).unwrap();
        assert_eq!(back.shards.len(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read("/nonexistent/dir/engine.ckpt").unwrap_err();
        assert!(matches!(err, UStreamError::Io(_)));
    }

    fn temp_base(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("ustream-rot-{tag}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn cleanup_rotation(base: &str) {
        for slot in 0..8 {
            let _ = fs::remove_file(generation_path(base, slot));
        }
        let _ = fs::remove_file(manifest_path(base));
        let _ = fs::remove_file(base);
    }

    fn ckpt_at(points: u64) -> EngineCheckpoint {
        let mut ck = tiny_checkpoint();
        ck.points_processed = points;
        ck
    }

    #[test]
    fn rotation_keeps_n_generations_and_reads_newest() {
        let base = temp_base("keepn");
        cleanup_rotation(&base);
        for seq in 0..6u64 {
            write_rotated(&base, 3, seq, &ckpt_at(seq * 10)).unwrap();
        }
        // Exactly the three slot files exist, plus the manifest.
        for slot in 0..3 {
            assert!(std::path::Path::new(&generation_path(&base, slot)).exists());
        }
        assert!(!std::path::Path::new(&generation_path(&base, 3)).exists());
        let back = read_latest(&base).unwrap();
        assert_eq!(back.points_processed, 50);
        cleanup_rotation(&base);
    }

    #[test]
    fn read_latest_skips_corrupt_newest_generation() {
        let base = temp_base("skipnew");
        cleanup_rotation(&base);
        for seq in 0..3u64 {
            write_rotated(&base, 3, seq, &ckpt_at(seq * 10)).unwrap();
        }
        // Corrupt the newest generation (slot 2 = seq 2) on disk.
        let newest = generation_path(&base, 2);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, bytes).unwrap();
        let back = read_latest(&base).unwrap();
        assert_eq!(back.points_processed, 10, "should fall back to seq 1");
        cleanup_rotation(&base);
    }

    #[test]
    fn read_latest_skips_newest_generation_truncated_mid_header() {
        let base = temp_base("midheader");
        cleanup_rotation(&base);
        for seq in 0..3u64 {
            write_rotated(&base, 3, seq, &ckpt_at(seq * 10)).unwrap();
        }
        // A crash mid-write can leave the newest slot cut off inside the
        // header itself — shorter than the magic, no newline, nothing to
        // checksum. That must cost one generation, not the recovery.
        let newest = generation_path(&base, 2);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..7]).unwrap();
        let back = read_latest(&base).unwrap();
        assert_eq!(back.points_processed, 10, "should fall back to seq 1");
        cleanup_rotation(&base);
    }

    #[test]
    fn read_latest_scans_slots_when_manifest_is_garbage() {
        let base = temp_base("scan");
        cleanup_rotation(&base);
        for seq in 0..3u64 {
            write_rotated(&base, 3, seq, &ckpt_at(seq * 10)).unwrap();
        }
        fs::write(manifest_path(&base), b"not a manifest\n").unwrap();
        let back = read_latest(&base).unwrap();
        assert_eq!(back.points_processed, 20);
        cleanup_rotation(&base);
    }

    #[test]
    fn read_latest_falls_back_to_bare_base_path() {
        let base = temp_base("bare");
        cleanup_rotation(&base);
        write_atomic(&base, &ckpt_at(7)).unwrap();
        let back = read_latest(&base).unwrap();
        assert_eq!(back.points_processed, 7);
        cleanup_rotation(&base);
    }

    #[test]
    fn read_latest_with_nothing_on_disk_is_an_error() {
        let base = temp_base("none");
        cleanup_rotation(&base);
        assert!(read_latest(&base).is_err());
    }

    #[test]
    fn traced_read_counts_skipped_corrupt_generations() {
        let base = temp_base("traced");
        cleanup_rotation(&base);
        for seq in 0..3u64 {
            write_rotated(&base, 3, seq, &ckpt_at(seq * 10)).unwrap();
        }
        let (_, rec) = read_latest_traced(&base).unwrap();
        assert_eq!(rec.corrupt_skipped, 0, "clean load skips nothing");
        assert!(rec.via_manifest);

        // Rot the two newest generations (slots 2 and 1).
        for slot in [2u64, 1] {
            let path = generation_path(&base, slot);
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            fs::write(&path, bytes).unwrap();
        }
        let (ck, rec) = read_latest_traced(&base).unwrap();
        assert_eq!(ck.points_processed, 0, "only seq 0 survives");
        assert_eq!(rec.corrupt_skipped, 2, "both rotten generations counted");
        assert!(rec.last_error.is_some());
        cleanup_rotation(&base);
    }

    #[test]
    fn traced_read_does_not_double_count_across_manifest_and_scan() {
        let base = temp_base("traced-dedup");
        cleanup_rotation(&base);
        for seq in 0..2u64 {
            write_rotated(&base, 2, seq, &ckpt_at(seq * 10)).unwrap();
        }
        // Rot every generation: the manifest walk fails each, then the
        // slot scan revisits the same files. One rotten file, one count.
        for slot in [0u64, 1] {
            let path = generation_path(&base, slot);
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            fs::write(&path, bytes).unwrap();
        }
        let err = read_latest_traced(&base).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let (best, rec) = read_latest_with(&base, &decode, &|ck| ck.points_processed);
        assert!(best.is_none());
        assert_eq!(rec.corrupt_skipped, 2, "two files, two counts, no dupes");
        cleanup_rotation(&base);
    }

    #[test]
    fn rotated_bytes_round_trip_through_generic_reader() {
        let base = temp_base("bytes");
        cleanup_rotation(&base);
        for seq in 0..4u64 {
            let payload = format!("{{\"ord\":{seq}}}");
            let bytes = encode_payload("UTESTSNAP", 1, payload.as_bytes());
            write_rotated_bytes(&base, 2, seq, &bytes).unwrap();
        }
        assert_eq!(latest_manifest_seq(&base), Some(3));
        let decode_ord = |bytes: &[u8]| -> Result<u64> {
            let payload = decode_payload("UTESTSNAP", 1, bytes)?;
            let text = std::str::from_utf8(payload)
                .map_err(|_| UStreamError::Checkpoint("not utf-8".into()))?;
            text.trim_start_matches("{\"ord\":")
                .trim_end_matches('}')
                .parse()
                .map_err(|_| UStreamError::Checkpoint("bad ord".into()))
        };
        let (best, rec) = read_latest_with(&base, &decode_ord, &|v| *v);
        assert_eq!(best, Some(3));
        assert_eq!(rec.corrupt_skipped, 0);
        cleanup_rotation(&base);
    }
}
