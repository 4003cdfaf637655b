//! The merging coordinator: accepts delta frames from sites, applies them
//! idempotently, and maintains the merged global micro-cluster view plus a
//! pyramidal horizon store over it.
//!
//! ## Idempotent application
//!
//! Per site the coordinator tracks `last_applied`, the highest contiguous
//! epoch it has merged. A frame with `seq <= last_applied` is a duplicate
//! — a retransmit race, a reordered delivery (the `failpoints` feature
//! injects them), or a replay after a lost ack — and is *dropped, never
//! re-merged*; the coordinator re-acks so the sender unblocks. A frame
//! with `seq > last_applied + 1` means the coordinator is missing state
//! (typically its own restart) and is nacked with the expected sequence;
//! the site answers with a `full` resync frame. Only `seq ==
//! last_applied + 1` mutates state, and because deltas carry replace
//! semantics, even a hypothetical double-apply would be harmless.
//!
//! ## Durability (epoch-commit WAL + rotated snapshots)
//!
//! With a [`DurabilityPolicy`], every applied epoch is appended to a
//! checksummed WAL ([`crate::wal`]) and fsynced *before* the ack is
//! written back — so every acked epoch survives a coordinator crash.
//! Periodically the full coordinator state (per-site epoch maps + cluster
//! views, the horizon store, the epoch counter) rotates through snapshot
//! generations via the engine's checkpoint machinery, after which the WAL
//! is truncated. [`Coordinator::resume`] rebuilds from the newest intact
//! snapshot plus the WAL tail; a torn tail record can only carry a
//! never-acked epoch, so truncating it loses nothing that was promised.
//! Because recovery restores exactly the acked prefix per site, a
//! reconnecting site's next epoch is `last_applied + 1` and applies
//! cleanly — the bounded-delta-tail path; full resync stays as the
//! fallback for anything the WAL + snapshot genuinely did not cover.
//!
//! ## Liveness
//!
//! Each applied-or-acked frame stamps the site's `last_heard` instant; a
//! site silent longer than the configured suspicion timeout is reported
//! `suspect` in [`CoordStats`] — detection is the coordinator's job,
//! recovery (respawn + checkpoint replay) is the site runner's.

use crate::io::{read_frame, write_frame};
use crate::protocol::{
    decode_site_request, encode_coord_response, global_cluster_id, CoordRecovery, CoordResponse,
    CoordStats, DeltaFrame, SiteHealth, SiteRequest, MAX_SITES,
};
use crate::wal::{self, Wal};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use umicro::Ecf;
use ustream_common::ordered::{ranks, OrderedMutex};
use ustream_common::{Result, UStreamError};
use ustream_engine::checkpoint;
use ustream_snapshot::{ClusterSetSnapshot, HorizonTracker, PyramidConfig};

/// Magic tag of a coordinator snapshot generation.
pub const SNAP_MAGIC: &str = "UCOORDSNAP";
/// Snapshot format version this build writes and reads.
pub const SNAP_VERSION: u32 = 1;

/// Where and how often the coordinator persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityPolicy {
    /// Snapshot base path: generations land at `<base>.N` with a
    /// `<base>.manifest`, the WAL at `<base>.wal`.
    pub base: String,
    /// Snapshot generations to retain.
    pub generations: u64,
    /// Write a durable snapshot (and truncate the WAL) every this many
    /// applied epochs — the recovery-cost ceiling in WAL records.
    pub snapshot_every_epochs: u64,
}

impl DurabilityPolicy {
    /// A policy with the default rotation depth (3) and snapshot cadence
    /// (every 32 epochs).
    pub fn new(base: impl Into<String>) -> Self {
        Self {
            base: base.into(),
            generations: 3,
            snapshot_every_epochs: 32,
        }
    }

    /// The WAL file path derived from `base`.
    #[must_use]
    pub fn wal_path(&self) -> String {
        format!("{}.wal", self.base)
    }
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Per-operation socket deadline.
    pub io_deadline: Duration,
    /// Largest accepted/emitted frame.
    pub max_frame_bytes: usize,
    /// A site silent for longer than this is reported `suspect`.
    pub suspicion_timeout: Duration,
    /// Pyramidal geometry of the horizon store over the merged view.
    pub pyramid: PyramidConfig,
    /// Record a merged snapshot into the horizon store every this many
    /// applied epochs (0 disables recording).
    pub snapshot_every_epochs: u64,
    /// When set, the coordinator WALs every applied epoch before acking
    /// and rotates durable snapshots; `None` keeps the in-memory-only
    /// behaviour (a crash forces every site into full resync).
    pub durability: Option<DurabilityPolicy>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            io_deadline: Duration::from_secs(30),
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
            suspicion_timeout: Duration::from_secs(10),
            pyramid: PyramidConfig::default(),
            snapshot_every_epochs: 4,
            durability: None,
        }
    }
}

/// What the coordinator holds for one site. Each ECF is allocated once,
/// when its frame is applied, and shared from then on with the horizon
/// store and the durable snapshots.
#[derive(Debug)]
struct SiteView {
    last_applied: u64,
    clusters: BTreeMap<u64, Arc<Ecf>>,
    points: u64,
    last_tick: u64,
    last_heard: Instant,
}

impl SiteView {
    fn new() -> Self {
        Self {
            last_applied: 0,
            clusters: BTreeMap::new(),
            points: 0,
            last_tick: 0,
            last_heard: Instant::now(),
        }
    }
}

/// One site's slice of a [`CoordSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SiteSnap {
    site: u64,
    last_applied: u64,
    points: u64,
    last_tick: u64,
    clusters: BTreeMap<u64, Arc<Ecf>>,
}

/// One recorded horizon-store entry of a [`CoordSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HorizonEntry {
    time: u64,
    clusters: ClusterSetSnapshot<Ecf>,
}

/// The full durable coordinator state: everything [`Coordinator::resume`]
/// needs to continue as if the process had never died (modulo the WAL
/// tail, which replays on top).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CoordSnapshot {
    /// Applied-epoch counter at snapshot time — the rotation ordinal.
    epochs_applied: u64,
    /// Per-site epoch/ack shadow maps and cluster views.
    sites: Vec<SiteSnap>,
    /// The horizon store's recorded snapshots, oldest first.
    horizon: Vec<HorizonEntry>,
}

fn decode_snapshot(bytes: &[u8]) -> Result<CoordSnapshot> {
    let payload = checkpoint::decode_payload(SNAP_MAGIC, SNAP_VERSION, bytes)?;
    let text = std::str::from_utf8(payload)
        .map_err(|_| UStreamError::Checkpoint("coordinator snapshot is not UTF-8".into()))?;
    serde_json::from_str(text)
        .map_err(|e| UStreamError::Checkpoint(format!("coordinator snapshot parse: {e}")))
}

fn encode_snapshot(snap: &CoordSnapshot) -> Result<Vec<u8>> {
    let json = serde_json::to_string(snap)
        .map_err(|e| UStreamError::Checkpoint(format!("coordinator snapshot encode: {e}")))?;
    Ok(checkpoint::encode_payload(
        SNAP_MAGIC,
        SNAP_VERSION,
        json.as_bytes(),
    ))
}

#[derive(Default)]
struct Counters {
    epochs_applied: AtomicU64,
    duplicates_dropped: AtomicU64,
    gaps_nacked: AtomicU64,
    frames_rejected: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
}

struct Inner {
    cfg: CoordinatorConfig,
    sites: OrderedMutex<BTreeMap<u64, SiteView>>,
    horizons: OrderedMutex<HorizonTracker<Ecf>>,
    counters: Counters,
    stopping: AtomicBool,
    /// The epoch-commit WAL (`None` without a durability policy).
    /// Lock order: `sites` → `horizons` → `wal` — appends happen under
    /// the `sites` guard so a snapshot that exports state and truncates
    /// the log under that same guard can never lose an acked epoch.
    ///
    /// The cost is deliberate: every site's apply serializes behind one
    /// fsync, so durable-coordinator throughput is O(fsync) across all
    /// sites. Correctness only needs ack-after-fsync, not
    /// one-fsync-per-ack — group commit (batch appends under the guard,
    /// one fsync outside it with a sequence check, then ack the batch) is
    /// the known escape hatch if multi-site throughput ever outweighs the
    /// simplicity of this ordering.
    wal: OrderedMutex<Option<Wal>>,
    /// Next rotation ordinal for [`checkpoint::write_rotated_bytes`].
    snapshot_seq: AtomicU64,
    /// Durable snapshot generations written by this process.
    snapshots_written: AtomicU64,
    /// `epochs_applied` at the last durable snapshot.
    last_snapshot_epoch: AtomicU64,
    /// Set by [`Coordinator::resume`] before the acceptor starts.
    recovery: Option<CoordRecovery>,
}

/// A running coordinator: TCP acceptor plus merged state.
pub struct Coordinator {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds `addr` and starts accepting site sessions. With a
    /// durability policy, starts a fresh WAL (resuming the snapshot
    /// rotation ordinal past any surviving generations); use
    /// [`Self::resume`] to *recover* previous state instead.
    ///
    /// # Errors
    ///
    /// [`UStreamError::InvalidConfig`] when the durability base already
    /// holds a non-empty WAL: that tail is the only copy of acked epochs
    /// a predecessor never snapshotted, and truncating it while its stale
    /// snapshot generations survive would hand a later [`Self::resume`] a
    /// mixed-history recovery. The operator must resume or move the WAL
    /// aside explicitly.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: CoordinatorConfig) -> Result<Self> {
        let inner = Inner::new(cfg);
        if let Some(d) = inner.cfg.durability.clone() {
            let wal_path = d.wal_path();
            if let Ok(meta) = std::fs::metadata(&wal_path) {
                if meta.len() > 0 {
                    return Err(UStreamError::InvalidConfig(format!(
                        "{wal_path} holds {} bytes of acked epochs a previous coordinator \
                         never snapshotted; start with --resume to recover them, or move \
                         the WAL aside to deliberately start fresh",
                        meta.len()
                    )));
                }
            }
            *inner.wal.lock() = Some(Wal::create(&wal_path)?);
            let next = checkpoint::latest_manifest_seq(&d.base).map_or(0, |s| s + 1);
            self::store_relaxed(&inner.snapshot_seq, next);
        }
        Self::launch(addr, Arc::new(inner))
    }

    /// Recovers a durable coordinator: loads the newest intact snapshot
    /// generation (counting any corrupt ones it had to skip), replays the
    /// WAL tail (truncating at the first torn/corrupt record), and starts
    /// accepting on `addr` — typically a *new* address, since the dead
    /// process's port may linger in TIME_WAIT; sites follow via
    /// [`crate::Site::repoint`]. Every epoch that was ever acked is
    /// restored, so reconnecting sites continue with their next delta
    /// instead of a full resync.
    ///
    /// # Errors
    ///
    /// [`UStreamError::InvalidConfig`] when `cfg.durability` is `None`;
    /// I/O or checkpoint errors when the WAL exists but cannot be read or
    /// re-opened. Missing snapshot + missing WAL is *not* an error — the
    /// coordinator comes up empty and sites resync, same as a cold start.
    pub fn resume<A: ToSocketAddrs>(addr: A, cfg: CoordinatorConfig) -> Result<Self> {
        let Some(d) = cfg.durability.clone() else {
            return Err(UStreamError::InvalidConfig(
                "Coordinator::resume requires CoordinatorConfig::durability".into(),
            ));
        };
        let (snap, rec) =
            checkpoint::read_latest_with(&d.base, &decode_snapshot, &|s: &CoordSnapshot| {
                s.epochs_applied
            });
        let snap = snap.unwrap_or_default();
        let replayed = wal::replay(&d.wal_path())?;

        let mut inner = Inner::new(cfg);
        inner.import_snapshot(&snap);
        for frame in replayed.frames {
            inner.apply_replay(frame);
        }
        inner.recovery = Some(CoordRecovery {
            snapshot_epochs: snap.epochs_applied,
            corrupt_generations_skipped: rec.corrupt_skipped,
            wal_records_replayed: replayed.records,
            wal_truncated: replayed.truncated,
            wal_bytes_dropped: replayed.dropped_bytes,
        });
        let next = checkpoint::latest_manifest_seq(&d.base).map_or(0, |s| s + 1);
        self::store_relaxed(&inner.snapshot_seq, next);
        *inner.wal.lock() = Some(Wal::open_appending(&d.wal_path(), replayed.records)?);
        Self::launch(addr, Arc::new(inner))
    }

    fn launch<A: ToSocketAddrs>(addr: A, inner: Arc<Inner>) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(UStreamError::Io)?;
        let local = listener.local_addr().map_err(UStreamError::Io)?;
        listener.set_nonblocking(true).map_err(UStreamError::Io)?;
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("udistrib-coord".into())
                .spawn(move || run_acceptor(&listener, &inner))
                .map_err(|e| UStreamError::Io(std::io::Error::other(e.to_string())))?
        };
        Ok(Self {
            inner,
            addr: local,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters and per-site health.
    pub fn stats(&self) -> CoordStats {
        self.inner.stats()
    }

    /// The merged global micro-cluster map (site-namespaced ids).
    pub fn global_clusters(&self) -> BTreeMap<u64, Ecf> {
        self.inner.global_clusters()
    }

    /// One site's micro-clusters as last applied (site-local ids).
    pub fn site_clusters(&self, site: u64) -> BTreeMap<u64, Ecf> {
        self.inner.site_clusters(site)
    }

    /// `last_applied` for `site` (0 when unknown).
    pub fn last_applied(&self, site: u64) -> u64 {
        self.inner
            .sites
            .lock()
            .get(&site)
            .map_or(0, |v| v.last_applied)
    }

    /// Merged clusters over the trailing window `(now − h, now]`, served
    /// from the pyramidal store.
    pub fn horizon_clusters(&self, h: u64) -> Result<ClusterSetSnapshot<Ecf>> {
        let now = self
            .inner
            .sites
            .lock()
            .values()
            .map(|v| v.last_tick)
            .max()
            .unwrap_or(0);
        self.inner.horizons.lock().horizon_clusters(now, h)
    }

    /// Stops accepting, joins the acceptor, writes a final durable
    /// snapshot (when durable — so a clean shutdown leaves a fresh
    /// generation and an empty WAL), and returns final stats.
    pub fn shutdown(mut self) -> CoordStats {
        self.stop();
        if self.inner.cfg.durability.is_some() {
            let _ = self.inner.write_snapshot();
        }
        self.inner.stats()
    }

    /// Stops *without* the final snapshot — the programmatic equivalent
    /// of `kill -9` for crash-recovery tests: whatever reached the WAL
    /// and the last snapshot generation is all [`Self::resume`] gets.
    pub fn kill(mut self) -> CoordStats {
        self.stop();
        self.inner.stats()
    }

    fn stop(&mut self) {
        self.inner.stopping.store(true, Ordering::Relaxed); // relaxed-ok: stop flag; acceptor re-polls within ms
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Relaxed atomic store helper (all uses are pre-acceptor or stats-grade).
fn store_relaxed(cell: &AtomicU64, value: u64) {
    cell.store(value, Ordering::Relaxed); // relaxed-ok: set before the acceptor thread exists, or stats-grade
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Inner {
    fn new(cfg: CoordinatorConfig) -> Self {
        Self {
            horizons: OrderedMutex::new(
                "distrib::horizons",
                ranks::DISTRIB_HORIZONS,
                HorizonTracker::new(cfg.pyramid),
            ),
            cfg,
            sites: OrderedMutex::new("distrib::sites", ranks::DISTRIB_SITES, BTreeMap::new()),
            counters: Counters::default(),
            stopping: AtomicBool::new(false),
            wal: OrderedMutex::new("distrib::wal", ranks::DISTRIB_WAL, None),
            snapshot_seq: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            last_snapshot_epoch: AtomicU64::new(0),
            recovery: None,
        }
    }

    /// Applies one frame's content to a site view. Shared by the live
    /// path and WAL replay so both produce bit-identical state.
    fn merge_into(view: &mut SiteView, frame: DeltaFrame) {
        if frame.full {
            view.clusters.clear();
        }
        for (id, ecf) in frame.updates {
            view.clusters.insert(id, Arc::new(ecf));
        }
        for id in &frame.removes {
            view.clusters.remove(id);
        }
        view.points = frame.points;
        view.last_tick = view.last_tick.max(frame.last_tick);
        view.last_applied = frame.seq;
    }

    /// Simulated crash: stop everything, reply to no one. The failpoint
    /// arm points and WAL/snapshot write failures funnel here — from the
    /// sites' perspective the coordinator simply died mid-request.
    fn crash(&self) {
        self.stopping.store(true, Ordering::Relaxed); // relaxed-ok: stop flag; conn loops re-poll per frame
    }

    /// The epoch/ack state machine (see module docs). Pure state
    /// transition — transport-free, so unit tests drive it directly.
    /// `None` means the coordinator "crashed" while handling the frame
    /// (failpoint or durability-write failure): the connection closes
    /// without a reply and the site must retry against [`Coordinator::resume`].
    fn apply_delta(&self, frame: DeltaFrame) -> Option<CoordResponse> {
        if frame.site >= MAX_SITES {
            return Some(CoordResponse::Error {
                message: format!("site id {} out of range (max {MAX_SITES})", frame.site),
            });
        }
        // The wire carries every f64 bit for bit, but the WAL and the
        // snapshots are JSON, which has no ±∞ or NaN: such a record would
        // be acked and then lost as "torn" on replay. Refuse it before the
        // commit point, as a malformed frame.
        if let Some(id) = frame
            .updates
            .iter()
            .find_map(|(id, e)| (!e.is_finite()).then_some(*id))
        {
            self.counters
                .frames_rejected
                .fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
            return Some(CoordResponse::Error {
                message: format!(
                    "site {} epoch {}: cluster {id} has a non-finite moment or weight",
                    frame.site, frame.seq
                ),
            });
        }
        #[cfg(feature = "failpoints")]
        if ustream_engine::failpoints::should_fire(ustream_engine::failpoints::COORD_CRASH_PRE_WAL)
        {
            self.crash();
            return None;
        }
        let mut sites = self.sites.lock();
        let view = sites.entry(frame.site).or_insert_with(SiteView::new);
        view.last_heard = Instant::now();
        if frame.seq <= view.last_applied {
            // Duplicate or reordered epoch: drop, never re-merge, re-ack
            // so the sender can make progress.
            self.counters
                .duplicates_dropped
                .fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
            return Some(CoordResponse::DeltaAck {
                site: frame.site,
                applied: view.last_applied,
            });
        }
        if frame.seq > view.last_applied + 1 && !frame.full {
            // Gap: the coordinator is missing epochs (it restarted without
            // durable state, or an earlier ack was fabricated). Ask for a
            // full resync.
            self.counters.gaps_nacked.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
            return Some(CoordResponse::DeltaNack {
                site: frame.site,
                expected: view.last_applied + 1,
            });
        }
        // Commit point: the epoch is durable before any state mutates and
        // before the ack exists. A failure here is a crash, not an error
        // reply — the record may be torn, so nothing may be promised.
        if let Some(w) = self.wal.lock().as_mut() {
            // lint:allow(blocking-under-lock): commit point — the fsync must complete under `wal` (and the caller's `sites`) so no ack can precede durability; the stall is the protocol's documented cost
            if w.append(&frame).is_err() {
                self.crash();
                return None;
            }
        }
        #[cfg(feature = "failpoints")]
        if ustream_engine::failpoints::should_fire(ustream_engine::failpoints::COORD_CRASH_POST_WAL)
        {
            // The epoch is durable but the site never hears the ack: on
            // resume its retry must dedup, not double-apply.
            self.crash();
            return None;
        }
        let site = frame.site;
        let applied = frame.seq;
        Self::merge_into(view, frame);
        let epochs = self.counters.epochs_applied.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: incremented under the sites lock; snapshot export reads it there too
        drop(sites);

        let every = self.cfg.snapshot_every_epochs;
        if every > 0 && epochs.is_multiple_of(every) {
            self.record_snapshot();
        }
        if let Some(d) = self.cfg.durability.as_ref() {
            if d.snapshot_every_epochs > 0 {
                let since = epochs.saturating_sub(self.last_snapshot_epoch.load(Ordering::Relaxed)); // relaxed-ok: cadence heuristic; a lagging read snapshots one epoch late
                if since >= d.snapshot_every_epochs && self.write_snapshot().is_err() {
                    // Mid-snapshot crash (torn generation): no ack — the
                    // epoch is in the WAL, so the site's retry dedups
                    // after resume.
                    return None;
                }
            }
        }
        Some(CoordResponse::DeltaAck { site, applied })
    }

    /// Applies one replayed WAL record during [`Coordinator::resume`].
    /// Records the snapshot already covers dedup silently (no counters:
    /// the original application already counted); the horizon-store
    /// cadence re-runs so recordings the crash wiped are reconstructed
    /// from identical state.
    fn apply_replay(&self, frame: DeltaFrame) -> bool {
        let mut sites = self.sites.lock();
        let view = sites.entry(frame.site).or_insert_with(SiteView::new);
        if frame.seq <= view.last_applied {
            return false;
        }
        if frame.seq > view.last_applied + 1 && !frame.full {
            // A WAL gap cannot happen by construction (appends are
            // ordered); skip defensively rather than corrupt the view.
            return false;
        }
        Self::merge_into(view, frame);
        let epochs = self.counters.epochs_applied.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: resume is single-threaded
        drop(sites);
        let every = self.cfg.snapshot_every_epochs;
        if every > 0 && epochs.is_multiple_of(every) {
            self.record_snapshot();
        }
        true
    }

    /// Loads a decoded snapshot into a freshly built `Inner`.
    fn import_snapshot(&self, snap: &CoordSnapshot) {
        let mut sites = self.sites.lock();
        for s in &snap.sites {
            sites.insert(
                s.site,
                SiteView {
                    last_applied: s.last_applied,
                    clusters: s.clusters.clone(),
                    points: s.points,
                    last_tick: s.last_tick,
                    last_heard: Instant::now(),
                },
            );
        }
        drop(sites);
        let mut horizons = self.horizons.lock();
        for h in &snap.horizon {
            horizons.record_snapshot(h.time, h.clusters.clone());
        }
        drop(horizons);
        store_relaxed(&self.counters.epochs_applied, snap.epochs_applied);
        store_relaxed(&self.last_snapshot_epoch, snap.epochs_applied);
    }

    /// Exports the full state under the `sites` guard. Kept separate from
    /// [`Self::write_snapshot`] so tests can round-trip the codec.
    fn export_snapshot(&self, sites: &BTreeMap<u64, SiteView>) -> CoordSnapshot {
        let horizon = {
            let horizons = self.horizons.lock();
            horizons
                .store()
                .iter_chronological()
                .map(|s| HorizonEntry {
                    time: s.time,
                    clusters: s.data.clone(),
                })
                .collect()
        };
        CoordSnapshot {
            epochs_applied: self.counters.epochs_applied.load(Ordering::Relaxed), // relaxed-ok: caller holds the sites lock appliers increment under
            sites: sites
                .iter()
                .map(|(site, v)| SiteSnap {
                    site: *site,
                    last_applied: v.last_applied,
                    points: v.points,
                    last_tick: v.last_tick,
                    clusters: v.clusters.clone(),
                })
                .collect(),
            horizon,
        }
    }

    /// Writes one durable snapshot generation and truncates the WAL. The
    /// `sites` guard is held across export *and* truncation: appends also
    /// happen under that guard, so no acked epoch can slip into the WAL
    /// between the export and the truncate and be lost.
    fn write_snapshot(&self) -> Result<()> {
        let Some(d) = self.cfg.durability.as_ref() else {
            return Ok(());
        };
        let sites = self.sites.lock();
        let snap = self.export_snapshot(&sites);
        let bytes = encode_snapshot(&snap)?;
        let seq = self.snapshot_seq.fetch_add(1, Ordering::Relaxed); // relaxed-ok: serialized by the sites lock
        #[cfg(feature = "failpoints")]
        if ustream_engine::failpoints::should_fire(ustream_engine::failpoints::COORD_SNAPSHOT_TORN)
        {
            // Mid-snapshot crash: half a generation lands (a corrupt file
            // the recovery scan must skip and count) and the WAL is NOT
            // truncated — replay over the previous generation recovers.
            let torn = &bytes[..bytes.len() / 2];
            let _ = checkpoint::write_rotated_bytes(&d.base, d.generations, seq, torn);
            self.crash();
            return Err(UStreamError::Checkpoint(
                "torn snapshot write (failpoint)".into(),
            ));
        }
        // lint:allow(blocking-under-lock): snapshot fsync stays under `sites` deliberately — appends also run under `sites`, so no acked epoch can land between this export and the truncate below
        checkpoint::write_rotated_bytes(&d.base, d.generations, seq, &bytes)?;
        if let Some(w) = self.wal.lock().as_mut() {
            // lint:allow(blocking-under-lock): WAL truncation is fenced by the same `sites` guard as the snapshot write; releasing first would let an acked epoch vanish
            w.truncate()?;
        }
        self.snapshots_written.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
        store_relaxed(&self.last_snapshot_epoch, snap.epochs_applied);
        drop(sites);
        Ok(())
    }

    fn global_clusters(&self) -> BTreeMap<u64, Ecf> {
        let sites = self.sites.lock();
        let mut merged = BTreeMap::new();
        for (site, view) in sites.iter() {
            for (local, ecf) in &view.clusters {
                merged.insert(global_cluster_id(*site, *local), Ecf::clone(ecf));
            }
        }
        merged
    }

    fn site_clusters(&self, site: u64) -> BTreeMap<u64, Ecf> {
        self.sites
            .lock()
            .get(&site)
            .map_or_else(BTreeMap::new, |v| {
                v.clusters
                    .iter()
                    .map(|(id, ecf)| (*id, Ecf::clone(ecf)))
                    .collect()
            })
    }

    /// Files the merged view in the horizon store. The snapshot shares
    /// every ECF with the site views, so a recording copies pointers only.
    fn record_snapshot(&self) {
        let (now, merged) = {
            let sites = self.sites.lock();
            let now = sites.values().map(|v| v.last_tick).max().unwrap_or(0);
            let mut merged = BTreeMap::new();
            for (site, view) in sites.iter() {
                for (local, ecf) in &view.clusters {
                    merged.insert(global_cluster_id(*site, *local), Arc::clone(ecf));
                }
            }
            (now, merged)
        };
        if now == 0 {
            return;
        }
        let snap = ClusterSetSnapshot { clusters: merged };
        self.horizons.lock().record_snapshot(now, snap);
    }

    fn stats(&self) -> CoordStats {
        let sites = self.sites.lock();
        let mut health = Vec::with_capacity(sites.len());
        let mut total_points = 0u64;
        let mut global_clusters = 0u64;
        for (site, view) in sites.iter() {
            let silent = view.last_heard.elapsed();
            health.push(SiteHealth {
                site: *site,
                last_applied: view.last_applied,
                points: view.points,
                last_tick: view.last_tick,
                last_heard_ms: silent.as_millis() as u64,
                suspect: silent > self.cfg.suspicion_timeout,
            });
            total_points += view.points;
            global_clusters += view.clusters.len() as u64;
        }
        let (wal_records, wal_bytes) = self
            .wal
            .lock()
            .as_ref()
            .map_or((0, 0), |w| (w.records(), w.bytes()));
        let epochs_applied = self.counters.epochs_applied.load(Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
        let last_snapshot_age_epochs = if self.cfg.durability.is_some() {
            // relaxed-ok: stats counter; readers tolerate lag
            epochs_applied.saturating_sub(self.last_snapshot_epoch.load(Ordering::Relaxed))
        } else {
            0
        };
        CoordStats {
            sites: health,
            epochs_applied,
            duplicates_dropped: self.counters.duplicates_dropped.load(Ordering::Relaxed), // relaxed-ok: stats counter; readers tolerate lag
            gaps_nacked: self.counters.gaps_nacked.load(Ordering::Relaxed), // relaxed-ok: stats counter; readers tolerate lag
            frames_rejected: self.counters.frames_rejected.load(Ordering::Relaxed), // relaxed-ok: stats counter; readers tolerate lag
            frames_received: self.counters.frames_received.load(Ordering::Relaxed), // relaxed-ok: stats counter; readers tolerate lag
            bytes_received: self.counters.bytes_received.load(Ordering::Relaxed), // relaxed-ok: stats counter; readers tolerate lag
            global_clusters,
            total_points,
            wal_records,
            wal_bytes,
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed), // relaxed-ok: stats counter; readers tolerate lag
            last_snapshot_age_epochs,
            recovery: self.recovery.clone(),
        }
    }

    /// `None` means the coordinator "crashed" handling the request: close
    /// the connection without replying.
    fn handle(&self, req: SiteRequest) -> Option<CoordResponse> {
        // A crashed coordinator answers nothing, even on connections that
        // were already blocked in a read when the crash fired — otherwise
        // a "dead" process keeps serving (and acking!) like a zombie.
        // relaxed-ok: stop flag; the residual race is one in-flight frame
        if self.stopping.load(Ordering::Relaxed) {
            return None;
        }
        match req {
            SiteRequest::Hello { site } => {
                let mut sites = self.sites.lock();
                let view = sites.entry(site).or_insert_with(SiteView::new);
                view.last_heard = Instant::now();
                Some(CoordResponse::HelloAck {
                    last_applied: view.last_applied,
                })
            }
            SiteRequest::Delta { frame } => self.apply_delta(frame),
            SiteRequest::Stats => Some(CoordResponse::Stats {
                stats: self.stats(),
            }),
            SiteRequest::GlobalClusters => Some(CoordResponse::Clusters {
                clusters: self.global_clusters(),
            }),
            SiteRequest::SiteClusters { site } => Some(CoordResponse::Clusters {
                clusters: self.site_clusters(site),
            }),
        }
    }
}

/// Non-blocking accept with a short poll so the stop flag is honoured
/// within milliseconds (same pattern as the serving front-end).
fn run_acceptor(listener: &TcpListener, inner: &Arc<Inner>) {
    // relaxed-ok: stop flag; re-polled every few ms
    while !inner.stopping.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let inner = Arc::clone(inner);
                let _ = std::thread::Builder::new()
                    .name("udistrib-conn".into())
                    .spawn(move || run_conn(stream, &inner));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // lint:allow(no-sleep): non-blocking accept poll, keeps shutdown latency ~5 ms
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // lint:allow(no-sleep): accept-error backoff
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Per-connection loop: strictly sequential request/response. A frame the
/// codec rejects (bad checksum, oversized, malformed payload) poisons the
/// stream's framing, so the connection answers with an error and closes;
/// the site's retry redials cleanly. A `None` from the handler is a
/// simulated crash: close without a reply, exactly like a killed process.
fn run_conn(mut stream: TcpStream, inner: &Arc<Inner>) {
    let deadline = inner.cfg.io_deadline;
    let max = inner.cfg.max_frame_bytes;
    // relaxed-ok: stop flag; checked between frames
    while !inner.stopping.load(Ordering::Relaxed) {
        let payload = match read_frame(&mut stream, max, deadline) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(_) => {
                inner
                    .counters
                    .frames_rejected
                    .fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
                let resp = CoordResponse::Error {
                    message: "unreadable frame (checksum, size, or deadline); reconnect".into(),
                };
                if let Ok(frame) = encode_coord_response(&resp, max) {
                    let _ = write_frame(&mut stream, &frame, deadline);
                }
                return;
            }
        };
        inner
            .counters
            .frames_received
            .fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
        inner.counters.bytes_received.fetch_add(
            (payload.len() + ustream_serve::protocol::HEADER_LEN) as u64,
            Ordering::Relaxed, // relaxed-ok: stats counter; readers tolerate lag
        );
        let resp = match decode_site_request(&payload) {
            Ok(req) => match inner.handle(req) {
                Some(resp) => resp,
                None => return, // simulated crash: no reply, drop the conn
            },
            Err(e) => {
                inner
                    .counters
                    .frames_rejected
                    .fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; readers tolerate lag
                CoordResponse::Error {
                    message: format!("malformed request: {e}"),
                }
            }
        };
        let frame = match encode_coord_response(&resp, max) {
            Ok(f) => f,
            Err(_) => return,
        };
        if write_frame(&mut stream, &frame, deadline).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ustream_common::UncertainPoint;

    fn inner() -> Inner {
        Inner::new(CoordinatorConfig {
            snapshot_every_epochs: 1,
            ..CoordinatorConfig::default()
        })
    }

    fn ecf(x: f64, t: u64) -> Ecf {
        Ecf::from_point(&UncertainPoint::new(vec![x, 0.0], vec![0.1, 0.1], t, None))
    }

    fn delta(site: u64, seq: u64, full: bool, ids: &[(u64, f64)], removes: &[u64]) -> DeltaFrame {
        DeltaFrame {
            site,
            seq,
            full,
            updates: ids.iter().map(|(id, x)| (*id, ecf(*x, seq))).collect(),
            removes: removes.to_vec(),
            points: seq * 10,
            last_tick: seq,
        }
    }

    #[test]
    fn in_order_epochs_apply_and_ack() {
        let c = inner();
        let r1 = c.apply_delta(delta(1, 1, false, &[(5, 1.0)], &[])).unwrap();
        assert!(matches!(r1, CoordResponse::DeltaAck { applied: 1, .. }));
        let r2 = c
            .apply_delta(delta(1, 2, false, &[(6, 2.0)], &[5]))
            .unwrap();
        assert!(matches!(r2, CoordResponse::DeltaAck { applied: 2, .. }));
        let sites = c.sites.lock();
        let view = sites.get(&1).unwrap();
        assert_eq!(view.last_applied, 2);
        assert!(view.clusters.contains_key(&6) && !view.clusters.contains_key(&5));
    }

    #[test]
    fn duplicates_are_dropped_never_remerged() {
        let c = inner();
        let first = delta(1, 1, false, &[(5, 1.0)], &[]);
        c.apply_delta(first.clone());
        // The duplicate carries *different* content for the same epoch; if
        // the coordinator re-merged it, cluster 9 would appear.
        let forged = delta(1, 1, false, &[(9, 9.0)], &[5]);
        let r = c.apply_delta(forged).unwrap();
        assert!(matches!(r, CoordResponse::DeltaAck { applied: 1, .. }));
        let sites = c.sites.lock();
        let view = sites.get(&1).unwrap();
        assert!(view.clusters.contains_key(&5), "original epoch must stand");
        assert!(!view.clusters.contains_key(&9), "duplicate must not merge");
        drop(sites);
        assert_eq!(c.stats().duplicates_dropped, 1);
    }

    #[test]
    fn gaps_are_nacked_with_the_expected_seq() {
        let c = inner();
        c.apply_delta(delta(1, 1, false, &[(5, 1.0)], &[]));
        let r = c.apply_delta(delta(1, 5, false, &[(6, 2.0)], &[])).unwrap();
        assert!(
            matches!(r, CoordResponse::DeltaNack { expected: 2, .. }),
            "{r:?}"
        );
        assert_eq!(c.stats().gaps_nacked, 1);
        // A full frame at the gap seq resyncs and is accepted.
        let r = c.apply_delta(delta(1, 5, true, &[(6, 2.0)], &[])).unwrap();
        assert!(matches!(r, CoordResponse::DeltaAck { applied: 5, .. }));
        let sites = c.sites.lock();
        let view = sites.get(&1).unwrap();
        assert_eq!(view.clusters.len(), 1);
        assert!(view.clusters.contains_key(&6), "full frame replaces map");
    }

    #[test]
    fn full_frames_replace_the_whole_site_view() {
        let c = inner();
        c.apply_delta(delta(2, 1, false, &[(1, 1.0), (2, 2.0)], &[]));
        c.apply_delta(delta(2, 2, true, &[(3, 3.0)], &[]));
        let sites = c.sites.lock();
        let view = sites.get(&2).unwrap();
        assert_eq!(view.clusters.len(), 1);
        assert!(view.clusters.contains_key(&3));
    }

    #[test]
    fn global_view_namespaces_sites_disjointly() {
        let c = inner();
        c.apply_delta(delta(0, 1, false, &[(7, 1.0)], &[]));
        c.apply_delta(delta(1, 1, false, &[(7, 2.0)], &[]));
        let merged = c.global_clusters();
        assert_eq!(
            merged.len(),
            2,
            "same local id on two sites must not collide"
        );
    }

    #[test]
    fn hello_reports_last_applied() {
        let c = inner();
        c.apply_delta(delta(3, 1, false, &[(1, 1.0)], &[]));
        match c.handle(SiteRequest::Hello { site: 3 }).unwrap() {
            CoordResponse::HelloAck { last_applied } => assert_eq!(last_applied, 1),
            other => panic!("wrong response: {other:?}"),
        }
        match c.handle(SiteRequest::Hello { site: 99 }).unwrap() {
            CoordResponse::HelloAck { last_applied } => assert_eq!(last_applied, 0),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn suspicion_flags_silent_sites() {
        let c = Inner::new(CoordinatorConfig {
            suspicion_timeout: Duration::from_millis(0),
            ..CoordinatorConfig::default()
        });
        c.apply_delta(delta(1, 1, false, &[(1, 1.0)], &[]));
        std::thread::sleep(Duration::from_millis(5));
        let stats = c.stats();
        assert!(stats.sites[0].suspect, "silent site must turn suspect");
    }

    #[test]
    fn out_of_range_site_is_an_error() {
        let c = inner();
        let r = c
            .apply_delta(delta(MAX_SITES, 1, false, &[(1, 1.0)], &[]))
            .unwrap();
        assert!(matches!(r, CoordResponse::Error { .. }));
    }

    #[test]
    fn wal_replay_rebuilds_exact_state() {
        let path = std::env::temp_dir()
            .join(format!("ucoord-replay-{}.wal", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        let live = inner();
        *live.wal.lock() = Some(Wal::create(&path).unwrap());
        live.apply_delta(delta(1, 1, false, &[(5, 1.0)], &[]));
        live.apply_delta(delta(2, 1, false, &[(7, 3.0)], &[]));
        live.apply_delta(delta(1, 2, false, &[(6, 2.0)], &[5]));

        let rebuilt = inner();
        for frame in wal::replay(&path).unwrap().frames {
            rebuilt.apply_replay(frame);
        }
        assert_eq!(live.global_clusters(), rebuilt.global_clusters());
        assert_eq!(
            // relaxed-ok: single-threaded test assertion
            rebuilt.counters.epochs_applied.load(Ordering::Relaxed),
            3,
            "every WAL record applied exactly once"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A coordinator snapshot written before site views and horizon
    /// recordings shared their ECFs decodes, and encodes back to the very
    /// same bytes.
    #[test]
    fn unshared_layout_fixture_round_trips_byte_for_byte() {
        let bytes = include_bytes!("../tests/fixtures/coord_snapshot_v1.snap");
        let snap = decode_snapshot(bytes).unwrap();
        assert_eq!(snap.sites.len(), 2);
        assert!(!snap.horizon.is_empty());
        assert_eq!(encode_snapshot(&snap).unwrap(), bytes.to_vec());
        // A coordinator loaded from it writes it back unchanged.
        let c = inner();
        c.import_snapshot(&snap);
        let again = encode_snapshot(&c.export_snapshot(&c.sites.lock())).unwrap();
        assert_eq!(again, bytes.to_vec());
    }

    fn arb_ecf() -> impl Strategy<Value = Ecf> {
        (-100.0f64..100.0, -100.0f64..100.0, 0.01f64..5.0, 1u64..1000).prop_map(|(x, y, e, t)| {
            Ecf::from_point(&UncertainPoint::new(vec![x, y], vec![e, e * 0.5], t, None))
        })
    }

    fn arb_snapshot() -> impl Strategy<Value = CoordSnapshot> {
        let site = (
            0u64..8,
            1u64..500,
            0u64..10_000,
            0u64..5_000,
            proptest::collection::vec((0u64..1u64 << 50, arb_ecf()), 0..12),
        )
            .prop_map(|(site, last_applied, points, last_tick, kv)| SiteSnap {
                site,
                last_applied,
                points,
                last_tick,
                clusters: kv.into_iter().map(|(id, e)| (id, Arc::new(e))).collect(),
            });
        let entry =
            (1u64..10_000, proptest::collection::vec(arb_ecf(), 0..6)).prop_map(|(time, ecfs)| {
                HorizonEntry {
                    time,
                    clusters: ClusterSetSnapshot::from_pairs(
                        ecfs.into_iter().enumerate().map(|(i, e)| (i as u64, e)),
                    ),
                }
            });
        (
            0u64..100_000,
            proptest::collection::vec(site, 0..6),
            proptest::collection::vec(entry, 0..8),
        )
            .prop_map(|(epochs_applied, sites, horizon)| CoordSnapshot {
                epochs_applied,
                sites,
                horizon,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The snapshot codec is bit-exact across arbitrary site counts,
        /// cluster-map sizes, and horizon bucket counts: epoch/ack maps,
        /// merged views, and the horizon store all survive the round trip.
        #[test]
        fn snapshot_codec_round_trips(snap in arb_snapshot()) {
            let bytes = encode_snapshot(&snap).unwrap();
            let back = decode_snapshot(&bytes).unwrap();
            prop_assert_eq!(back.epochs_applied, snap.epochs_applied);
            prop_assert_eq!(back.sites.len(), snap.sites.len());
            for (a, b) in back.sites.iter().zip(snap.sites.iter()) {
                prop_assert_eq!(a.site, b.site);
                prop_assert_eq!(a.last_applied, b.last_applied);
                prop_assert_eq!(a.points, b.points);
                prop_assert_eq!(a.last_tick, b.last_tick);
                prop_assert_eq!(&a.clusters, &b.clusters);
            }
            prop_assert_eq!(back.horizon.len(), snap.horizon.len());
            for (a, b) in back.horizon.iter().zip(snap.horizon.iter()) {
                prop_assert_eq!(a.time, b.time);
                prop_assert_eq!(&a.clusters.clusters, &b.clusters.clusters);
            }
        }

        /// A flipped byte anywhere in an encoded snapshot is detected —
        /// the recovery scan can trust a generation that decodes.
        #[test]
        fn snapshot_codec_rejects_any_flipped_byte(
            snap in arb_snapshot(),
            pos_seed in 0usize..usize::MAX,
            bit in 0u8..8,
        ) {
            let mut bytes = encode_snapshot(&snap).unwrap();
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= 1 << bit;
            prop_assert!(decode_snapshot(&bytes).is_err());
        }
    }
}
