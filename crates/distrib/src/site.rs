//! A local clustering site: wraps a sharded [`StreamEngine`], extracts
//! ECF deltas since the last acknowledged epoch, and ships them to the
//! coordinator over the fault-injected transport with bounded retry.
//!
//! ## Delta extraction
//!
//! The site retains `acked`: the exact cluster map the coordinator held
//! after the last acknowledged epoch. Extraction flushes the engine,
//! snapshots the live map, and diffs — every cluster whose ECF differs
//! bit-for-bit from `acked` ships its *full current state* (replace
//! semantics, see the protocol module), every id that vanished ships as a
//! remove. Both maps hold the engine's shared ECF pointers
//! ([`StreamEngine::live_clusters`]), so a cluster no insert touched since
//! the last ack is the same allocation on both sides and the diff skips it
//! without comparing a single moment; only the changed clusters are
//! copied, into the frame. Because the diff is against the acked map (not
//! "since last attempt"), a failed or dropped epoch is never lost: its
//! changes simply stay dirty and ride the next epoch.
//!
//! ## Crash recovery
//!
//! With a [`CheckpointPolicy`] the site rotates generations of its engine
//! checkpoint between records, so each generation is an exact prefix cut
//! of its sub-stream. [`Site::resume`] restores the newest readable
//! generation ([`StreamEngine::restore_latest`]), reports how many records
//! that state covers, and the runner re-feeds the tail. The first
//! handshake after a resume learns the coordinator's `last_applied` and
//! forces a `full` resync frame — the coordinator's map is replaced
//! wholesale, so nothing double-counts and nothing gaps regardless of
//! which epochs the crash swallowed.

use crate::io::Transport;
use crate::protocol::{
    decode_coord_response, encode_site_request, CoordResponse, DeltaFrame, SiteRequest, MAX_SITES,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use umicro::Ecf;
use ustream_common::{Backoff, Result, UStreamError, UncertainPoint};
use ustream_engine::{EngineBuilder, EngineConfig, StreamEngine};

/// A frame's copy of a shared cluster map.
fn owned(clusters: &BTreeMap<u64, Arc<Ecf>>) -> BTreeMap<u64, Ecf> {
    clusters
        .iter()
        .map(|(id, ecf)| (*id, Ecf::clone(ecf)))
        .collect()
}

/// Bounded retry policy of the delta shipper (and the handshake).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per ship before giving up with
    /// [`UStreamError::RetriesExhausted`].
    pub max_attempts: u32,
    /// First backoff delay, in milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff cap, in milliseconds.
    pub max_backoff_ms: u64,
    /// Jitter seed (mixed with the site id so sites never sync up).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff_ms: 20,
            max_backoff_ms: 1_000,
            seed: 0xd15c,
        }
    }
}

/// Rotated checkpointing of the site's engine between records.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Base path; generations land in `<base>.N` plus `<base>.manifest`.
    pub base: String,
    /// Generations to rotate through.
    pub generations: u64,
    /// Records between checkpoints.
    pub every_points: u64,
}

/// Site tuning knobs.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// This site's id (must be unique per coordinator and `< MAX_SITES`).
    pub site_id: u64,
    /// Coordinator address, e.g. `127.0.0.1:7171`.
    pub coordinator_addr: String,
    /// Records between delta shipments.
    pub delta_every: u64,
    /// Per-operation socket deadline.
    pub io_deadline: Duration,
    /// Largest emitted/accepted frame.
    pub max_frame_bytes: usize,
    /// Retry policy for shipping and handshakes.
    pub retry: RetryPolicy,
    /// Optional rotated checkpointing (required for [`Site::resume`]).
    pub checkpoint: Option<CheckpointPolicy>,
}

impl SiteConfig {
    /// Defaults: ship every 256 records, 5 s deadline, default retry, no
    /// checkpointing.
    pub fn new(site_id: u64, coordinator_addr: &str) -> Self {
        Self {
            site_id,
            coordinator_addr: coordinator_addr.to_string(),
            delta_every: 256,
            io_deadline: Duration::from_secs(5),
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
            retry: RetryPolicy::default(),
            checkpoint: None,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.site_id >= MAX_SITES {
            return Err(UStreamError::InvalidConfig(format!(
                "site_id {} out of range (max {MAX_SITES})",
                self.site_id
            )));
        }
        if self.delta_every == 0 {
            return Err(UStreamError::InvalidConfig(
                "delta_every must be positive".into(),
            ));
        }
        if let Some(ck) = &self.checkpoint {
            if ck.generations == 0 || ck.every_points == 0 {
                return Err(UStreamError::InvalidConfig(
                    "checkpoint generations and every_points must be positive".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Progress counters of one site.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteStats {
    /// Records pushed into the local engine.
    pub points: u64,
    /// Delta epochs acknowledged by the coordinator.
    pub epochs_acked: u64,
    /// Epochs that degenerated into full resyncs (nack, behind-ack, or
    /// post-recovery handshake).
    pub full_resyncs: u64,
    /// Ship attempts beyond the first (retries).
    pub send_retries: u64,
    /// Periodic syncs that exhausted their retries (state stays dirty and
    /// rides the next epoch).
    pub sync_failures: u64,
    /// Rotated checkpoints written.
    pub checkpoints_written: u64,
    /// Frames actually written to the wire.
    pub frames_sent: u64,
    /// Bytes actually written to the wire.
    pub bytes_sent: u64,
}

/// A running site.
pub struct Site {
    engine: StreamEngine,
    transport: Transport,
    cfg: SiteConfig,
    /// The exact map the coordinator acknowledged last.
    acked: BTreeMap<u64, Arc<Ecf>>,
    acked_seq: u64,
    /// Next frame must carry the complete map (post-handshake resync).
    pending_full: bool,
    since_delta: u64,
    since_ckpt: u64,
    ckpt_seq: u64,
    stats: SiteStats,
}

impl Site {
    /// Builds a fresh engine from `engine_cfg` and performs the handshake.
    pub fn start(engine_cfg: EngineConfig, cfg: SiteConfig) -> Result<Self> {
        cfg.validate()?;
        let engine = EngineBuilder::from_config(engine_cfg).build()?;
        Self::attach(engine, cfg)
    }

    /// Restores the engine from the newest readable checkpoint generation
    /// and performs the handshake. Returns the site plus the number of
    /// records the restored state already covers — the runner re-feeds its
    /// sub-stream from that ordinal (no double-count, no gap).
    pub fn resume(cfg: SiteConfig) -> Result<(Self, u64)> {
        cfg.validate()?;
        let base = cfg
            .checkpoint
            .as_ref()
            .map(|c| c.base.clone())
            .ok_or_else(|| {
                UStreamError::InvalidConfig("resume requires a checkpoint policy".into())
            })?;
        let engine = StreamEngine::restore_latest(&base)?;
        let covered = engine.points_processed();
        let mut site = Self::attach(engine, cfg)?;
        site.stats.points = covered;
        Ok((site, covered))
    }

    /// Wraps an already-running engine: handshake, then delta shipping.
    pub fn attach(engine: StreamEngine, cfg: SiteConfig) -> Result<Self> {
        cfg.validate()?;
        let transport = Transport::new(
            &cfg.coordinator_addr,
            cfg.site_id,
            cfg.io_deadline,
            cfg.max_frame_bytes,
        );
        let mut site = Self {
            engine,
            transport,
            cfg,
            acked: BTreeMap::new(),
            acked_seq: 0,
            pending_full: false,
            since_delta: 0,
            since_ckpt: 0,
            ckpt_seq: 0,
            stats: SiteStats::default(),
        };
        site.handshake()?;
        Ok(site)
    }

    /// Hello round-trip with bounded retry: learns the coordinator's
    /// `last_applied` for this site. A non-zero answer means the
    /// coordinator holds state this session did not ship (we crashed or
    /// restarted), so the next frame must be a full resync.
    fn handshake(&mut self) -> Result<()> {
        let req = SiteRequest::Hello {
            site: self.cfg.site_id,
        };
        let frame = encode_site_request(&req, self.cfg.max_frame_bytes)?;
        let mut backoff = self.backoff();
        let mut last_err: Option<UStreamError> = None;
        for attempt in 0..=self.cfg.retry.max_attempts {
            if attempt > 0 {
                self.stats.send_retries += 1;
                // lint:allow(no-sleep): bounded, jittered retry backoff
                std::thread::sleep(backoff.next_delay());
            }
            match self.hello_roundtrip(&frame) {
                Ok(last_applied) => {
                    self.acked_seq = last_applied;
                    self.acked.clear();
                    self.pending_full = last_applied > 0;
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(self.exhausted(last_err))
    }

    fn hello_roundtrip(&mut self, frame: &[u8]) -> Result<u64> {
        self.transport.send(frame)?;
        let payload = self.transport.recv()?.ok_or_else(eof)?;
        match decode_coord_response(&payload).map_err(UStreamError::from)? {
            CoordResponse::HelloAck { last_applied } => Ok(last_applied),
            CoordResponse::Error { message } => Err(UStreamError::Serde(format!(
                "coordinator rejected hello: {message}"
            ))),
            // A stale ack from a previous session's duplicated frame can
            // linger in the socket buffer; skip one and re-read.
            _ => {
                let payload = self.transport.recv()?.ok_or_else(eof)?;
                match decode_coord_response(&payload).map_err(UStreamError::from)? {
                    CoordResponse::HelloAck { last_applied } => Ok(last_applied),
                    other => Err(UStreamError::Serde(format!(
                        "unexpected hello response: {other:?}"
                    ))),
                }
            }
        }
    }

    /// Fails the site over to a (typically resumed) coordinator at
    /// `coordinator_addr`: drops the old connection, re-points the
    /// transport, and re-handshakes. When the coordinator recovered from
    /// its WAL + snapshot, the handshake's `last_applied` equals
    /// `acked_seq` and shipping continues with the next delta — no full
    /// resync; a coordinator that lost state answers behind and the
    /// normal nack/resync fallback engages.
    pub fn repoint(&mut self, coordinator_addr: &str) -> Result<()> {
        self.cfg.coordinator_addr = coordinator_addr.to_string();
        self.transport.set_addr(coordinator_addr);
        let before_seq = self.acked_seq;
        let before_map = std::mem::take(&mut self.acked);
        if let Err(e) = self.handshake() {
            // The handshake exhausted its retries without mutating any
            // session state, so put the shadow map back — losing it here
            // would make a *later* successful repoint diff against an
            // empty map and never ship removals of clusters the
            // coordinator still holds. `pending_full` is a safety net for
            // callers that ignore this error and keep syncing: a full
            // frame is always exact, whatever the far end recovered.
            self.acked = before_map;
            self.pending_full = true;
            return Err(e);
        }
        if self.acked_seq == before_seq && before_seq > 0 {
            // The coordinator confirmed the exact epoch this session
            // already had acked — it recovered our state bit-for-bit, so
            // keep the acked map and skip the full resync the handshake
            // pessimistically schedules for any non-zero answer.
            self.acked = before_map;
            self.pending_full = false;
        }
        Ok(())
    }

    /// Pushes one record into the local engine, shipping a delta and/or
    /// writing a checkpoint when their cadences come due.
    ///
    /// A shipping failure after all retries does **not** fail the push:
    /// the site keeps clustering through a partition and the dirty state
    /// rides the next epoch (`stats().sync_failures` counts these).
    /// Checkpoint failures do fail the push — losing durability is not
    /// survivable silently.
    pub fn push(&mut self, point: UncertainPoint) -> Result<()> {
        self.engine.push(point)?;
        self.stats.points += 1;
        self.since_delta += 1;
        self.since_ckpt += 1;
        if let Some(ck) = self.cfg.checkpoint.clone() {
            if self.since_ckpt >= ck.every_points {
                self.checkpoint_now(&ck)?;
            }
        }
        if self.since_delta >= self.cfg.delta_every {
            self.since_delta = 0;
            if let Err(e) = self.sync() {
                if matches!(e, UStreamError::RetriesExhausted { .. }) {
                    self.stats.sync_failures += 1;
                } else {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Writes a rotated checkpoint now (an exact prefix cut — the engine
    /// is flushed first and the caller is between records).
    fn checkpoint_now(&mut self, ck: &CheckpointPolicy) -> Result<()> {
        self.engine
            .checkpoint_rotated(&ck.base, ck.generations, self.ckpt_seq)?;
        self.ckpt_seq += 1;
        self.since_ckpt = 0;
        self.stats.checkpoints_written += 1;
        Ok(())
    }

    /// Extracts and ships one delta epoch, retrying under the policy until
    /// acked. Returns the acked epoch, or `Ok(acked_seq)` unchanged when
    /// nothing is dirty.
    ///
    /// # Errors
    ///
    /// [`UStreamError::RetriesExhausted`] when every attempt failed; the
    /// dirty state is retained and ships with the next epoch.
    pub fn sync(&mut self) -> Result<u64> {
        let Some((frame, current)) = self.extract_delta() else {
            return Ok(self.acked_seq);
        };
        self.ship(frame, current)
    }

    /// Flushes the engine and diffs the live cluster map against the
    /// acked map. Returns the frame and the map it brings the coordinator
    /// to; `None` when nothing changed and no resync is pending.
    fn extract_delta(&mut self) -> Option<(DeltaFrame, BTreeMap<u64, Arc<Ecf>>)> {
        self.engine.flush();
        let current = self.engine.live_clusters().clusters;
        let (updates, removes, full) = if self.pending_full {
            self.stats.full_resyncs += 1;
            (owned(&current), Vec::new(), true)
        } else {
            let updates: BTreeMap<u64, Ecf> = current
                .iter()
                .filter(|(id, ecf)| {
                    !self
                        .acked
                        .get(*id)
                        .is_some_and(|a| Arc::ptr_eq(a, ecf) || a == *ecf)
                })
                .map(|(id, ecf)| (*id, Ecf::clone(ecf)))
                .collect();
            let removes: Vec<u64> = self
                .acked
                .keys()
                .filter(|id| !current.contains_key(id))
                .copied()
                .collect();
            if updates.is_empty() && removes.is_empty() {
                return None;
            }
            (updates, removes, false)
        };
        let frame = DeltaFrame {
            site: self.cfg.site_id,
            seq: self.acked_seq + 1,
            full,
            updates,
            removes,
            points: self.engine.points_processed(),
            last_tick: self.engine.stats().last_tick,
        };
        Some((frame, current))
    }

    /// Rebuilds the pending epoch as a full-resync frame at `seq`, with
    /// the map it brings the coordinator to.
    fn rebuild_full(&mut self, seq: u64) -> (DeltaFrame, BTreeMap<u64, Arc<Ecf>>) {
        self.stats.full_resyncs += 1;
        self.pending_full = true;
        self.acked_seq = seq.saturating_sub(1);
        let current = self.engine.live_clusters().clusters;
        let frame = DeltaFrame {
            site: self.cfg.site_id,
            seq,
            full: true,
            updates: owned(&current),
            removes: Vec::new(),
            points: self.engine.points_processed(),
            last_tick: self.engine.stats().last_tick,
        };
        (frame, current)
    }

    /// Ships `frame` until acked, following nacks into full resyncs. On
    /// the ack the coordinator holds `current`, which becomes `acked`.
    fn ship(&mut self, mut frame: DeltaFrame, mut current: BTreeMap<u64, Arc<Ecf>>) -> Result<u64> {
        let mut backoff = self.backoff();
        let mut last_err: Option<UStreamError> = None;
        for attempt in 0..=self.cfg.retry.max_attempts {
            if attempt > 0 {
                self.stats.send_retries += 1;
                // lint:allow(no-sleep): bounded, jittered retry backoff
                std::thread::sleep(backoff.next_delay());
            }
            match self.delta_roundtrip(&frame) {
                Ok(Verdict::Acked) => {
                    self.acked = current;
                    self.acked_seq = frame.seq;
                    self.pending_full = false;
                    self.stats.epochs_acked += 1;
                    self.fold_transport_stats();
                    return Ok(frame.seq);
                }
                Ok(Verdict::Resync { expected }) => {
                    // Not a transport fault: rebuild and retry immediately
                    // on the live connection (no backoff advance).
                    (frame, current) = self.rebuild_full(expected);
                }
                Err(e) => last_err = Some(e),
            }
        }
        self.fold_transport_stats();
        Err(self.exhausted(last_err))
    }

    /// One send + read-until-relevant-response round. Stale responses —
    /// acks below our sequence left over from duplicated or reordered
    /// earlier frames — are skipped, bounded by a small budget so a
    /// babbling peer cannot pin us past the deadline.
    fn delta_roundtrip(&mut self, frame: &DeltaFrame) -> Result<Verdict> {
        let req = SiteRequest::Delta {
            frame: frame.clone(),
        };
        let bytes = encode_site_request(&req, self.cfg.max_frame_bytes)?;
        self.transport.send(&bytes)?;
        for _ in 0..16 {
            let payload = self.transport.recv()?.ok_or_else(eof)?;
            match decode_coord_response(&payload).map_err(UStreamError::from)? {
                CoordResponse::DeltaAck { site, applied }
                    if site == self.cfg.site_id && applied >= frame.seq =>
                {
                    return Ok(Verdict::Acked);
                }
                CoordResponse::DeltaAck { site, .. } if site == self.cfg.site_id => {
                    // Stale ack from an earlier epoch's duplicate; read on.
                }
                CoordResponse::DeltaNack { site, expected } if site == self.cfg.site_id => {
                    if frame.full && expected == frame.seq {
                        // Stale nack for the epoch we are already
                        // resyncing; read on.
                        continue;
                    }
                    return Ok(Verdict::Resync { expected });
                }
                CoordResponse::Error { message } => {
                    return Err(UStreamError::Io(std::io::Error::other(format!(
                        "coordinator error: {message}"
                    ))));
                }
                _ => {
                    // HelloAck or query responses cannot answer a delta;
                    // treat as stale and read on.
                }
            }
        }
        Err(UStreamError::Io(std::io::Error::other(
            "no relevant response within the stale-skip budget",
        )))
    }

    fn backoff(&self) -> Backoff {
        Backoff::new(
            self.cfg.retry.base_backoff_ms,
            self.cfg.retry.max_backoff_ms,
            self.cfg.retry.seed ^ self.cfg.site_id,
        )
    }

    fn exhausted(&self, last: Option<UStreamError>) -> UStreamError {
        UStreamError::RetriesExhausted {
            attempts: self.cfg.retry.max_attempts + 1,
            last_error: last
                .map(|e| e.to_string())
                .unwrap_or_else(|| "no attempt recorded".into()),
        }
    }

    fn fold_transport_stats(&mut self) {
        let t = self.transport.stats();
        self.stats.frames_sent = t.frames_sent;
        self.stats.bytes_sent = t.bytes_sent;
    }

    /// Progress counters (transport bytes included).
    pub fn stats(&self) -> SiteStats {
        let mut s = self.stats;
        let t = self.transport.stats();
        s.frames_sent = t.frames_sent;
        s.bytes_sent = t.bytes_sent;
        s
    }

    /// The wrapped engine (queries, flush).
    pub fn engine(&self) -> &StreamEngine {
        &self.engine
    }

    /// Final sync (retried), engine shutdown, and the closing stats.
    ///
    /// # Errors
    ///
    /// [`UStreamError::RetriesExhausted`] when the final sync could not be
    /// acked; the engine is still shut down cleanly.
    pub fn finish(mut self) -> Result<SiteStats> {
        let sync_result = self.sync();
        self.engine.shutdown();
        let stats = self.stats();
        sync_result.map(|_| stats)
    }
}

/// Outcome of one delta round-trip.
enum Verdict {
    Acked,
    Resync { expected: u64 },
}

fn eof() -> UStreamError {
    UStreamError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "coordinator closed the connection before replying",
    ))
}
