//! The engine proper: shard workers, shared state and query API.
//!
//! ## Sharded topology
//!
//! Ingestion is spread across `config.shards` independent workers. Each
//! shard owns a bounded channel, a clusterer (any
//! [`OnlineClusterer<Summary = Ecf>`], boxed), and a novelty monitor; the
//! hot path locks only the shard's own mutex, so shards never contend with
//! each other while clustering. Records are routed round-robin.
//!
//! Because the ECF is additive (Property 2.1 of the paper), folding the
//! shard cluster sets into one global view is *exact*. Merge boundaries
//! fall every `snapshot_every` routed records (the cadence in force when
//! the router crosses them, so the `WidenMerge` rung widens it). The
//! router hands boundary `k` to every shard in band, as a *cut*: an
//! annotation on the command that carries the shard's records across it,
//! or a standalone cut command for a shard that got no record in that
//! call. Each shard snapshots its own state at the cut's exact position in
//! its command stream, under its own lock, and deposits the snapshot in
//! the cut table. The shard that deposits the last part of cut `k` unions
//! the parts under namespaced ids ([`ustream_snapshot::namespaced_id`])
//! and files the result in the pyramidal store, which serves all horizon
//! and evolution queries. No merge takes another shard's lock or waits for
//! another shard's work. With `shards = 1` the engine reproduces the
//! classic single-worker behaviour exactly (shard 0's ids are the identity
//! mapping).
//!
//! What a stored snapshot holds: every shard snapshots cut `k` at the same
//! tick, the highest tick routed up to the boundary, and the snapshot is
//! filed under the highest tick its parts hold. With one producer the
//! snapshot of cut `k` is exactly the first `k · snapshot_every` routed
//! records, so with monotone ticks the snapshot stored at `T` holds every
//! record with tick `≤ T`. With several producers the sends race after
//! routing, so a shard's part is a prefix of its own command stream that
//! can miss a record routed just before the boundary or take one routed
//! just after it: each cut is still a union of per-shard prefixes, and its
//! stamp is the highest tick in that union. A shard that reaches cut `k +
//! 1` before cut `k` deposits the later part for both, so stored snapshots
//! still nest: no cluster holds fewer records in a later one.
//!
//! A cut never makes a producer wait. A cut that a full channel cannot
//! take without blocking stays with the router, unsent, and goes out ahead
//! of the next command or flush barrier sent to that shard; with one
//! producer no cut is pending once [`StreamEngine::flush`] returns.
//!
//! ## Fault tolerance
//!
//! Three independent defences keep a long-running engine alive:
//!
//! * **Shard supervision** — each worker's command loop runs under
//!   [`std::panic::catch_unwind`]. A panic is recorded (restart count +
//!   payload in [`ShardStats`]), the shard's clusterer is rebuilt from the
//!   factory and re-seeded from the last globally merged snapshot, and the
//!   worker resumes draining its channel. At most the in-flight record is
//!   lost; the cuts the lost command carried are deposited from the
//!   rebuilt clusterer, so later cuts still complete. [`EngineReport::health`]
//!   surfaces the aggregate state.
//! * **Poison-point validation** — producers pass through
//!   [`crate::validate::check_point`] before a record reaches a channel;
//!   the configured [`ValidationPolicy`] rejects, repairs or quarantines
//!   malformed input, so a NaN can never reach the ECF sums.
//! * **Checkpoint/restore** — [`StreamEngine::checkpoint`] persists the
//!   complete engine state atomically; [`StreamEngine::restore`] resumes
//!   from it bit-for-bit (see [`crate::checkpoint`]).
//!
//! ## Overload resilience
//!
//! When a [`WatchdogConfig`] or [`LoadPolicy`] is configured, a *governor*
//! thread observes the engine from the outside using only the lock-free
//! per-shard counters — the ingest hot path carries zero extra bookkeeping:
//!
//! * **Watchdog** — a shard with a non-empty backlog whose `processed`
//!   counter has not moved within the stall deadline is flagged stalled
//!   ([`ShardStats::stalled`], health turns `Degraded`) and, when respawn
//!   is enabled, gets a *rescue consumer*: an extra worker thread cloned
//!   onto the same MPMC channel. The wedged worker keeps whatever it is
//!   stuck on; the rescue drains the backlog behind it (ingestion
//!   serialises on the shard state lock). Records of that shard then
//!   cluster out of order, and a cut the rescue reaches first stands in
//!   for the earlier one the wedged worker holds; the cut table files cuts
//!   in cut order all the same.
//! * **Degradation ladder** — sustained channel pressure walks
//!   [`LoadStage`] rungs: widen the merge cadence, then sample admissions
//!   uniformly (unbiased up to the recorded keep rate), then shed with a
//!   count. Pressure clearing walks back down. Every transition is
//!   timestamped into [`EngineReport::load_transitions`].
//!
//! The governor deliberately takes **no shard state locks** — a stalled
//! worker may be wedged while holding one, and the governor must keep
//! diagnosing regardless.
//!
//! Lock ordering (deadlock freedom): a shard lock, the router, the cut
//! table, the horizon lock and the memo are never held together, so they
//! cannot deadlock among themselves; only leaf locks that take no other
//! lock (a shard's panic payload, the checkpoint error, the transition
//! log) are ever taken under another one.
//!
//! * The router lock covers routing only: the cursor, the cuts a call
//!   crosses and the unsent cuts. No channel send happens under it.
//! * A worker clusters a chunk and takes a cut's snapshot under its own
//!   shard lock, and releases it before it queues alerts or deposits.
//! * The cut table's lock covers slot bookkeeping only: a deposit, the
//!   completion of every cut whose parts are all in, and popping a
//!   completed cut for filing.
//! * The horizon lock covers pointer work only: filing a merged snapshot
//!   (the snapshots it evicts are freed after release), and copying out
//!   the snapshot pointers a query, a recovery seed or a checkpoint needs.
//!   Subtraction, k-means and window comparison run after it is released,
//!   and no path takes a shard lock, the cut table or the memo under it.
//! * The memo lock guards the one-entry horizon memo: a hit or a fill
//!   clones one window under it (a reader fills it only where reads
//!   repeat, see [`Memo`]), and the filer takes the stale entry and drops
//!   it after releasing it, so a reader never frees a stale window.
//! * Filing is serialised by a gate that is only ever *tried*: its holder
//!   files every completed cut in cut order, taking the cut table, the
//!   horizon and the memo lock one at a time; a worker that finds the gate
//!   taken leaves its cut to the holder, so no thread waits on a merge.
//! * Readers of live state (live view, macro-clusters, stats, checkpoint
//!   capture, recovery) take shard locks one at a time, holding none of
//!   the others.
//!
//! The governor takes no shard state locks at all.

use crate::config::{EngineConfig, NoveltyBaseline};
use crate::load::{DrainOutcome, LoadPolicy, LoadStage, LoadTransition};
use crate::report::{EngineReport, HealthStatus, NoveltyAlert, ShardStats};
use crate::validate::{Quarantine, QuarantinedPoint};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use umicro::macrocluster::macro_cluster_ecfs;
use umicro::{
    compare_windows, ClustererState, DecayedUMicro, Ecf, EvolutionReport, InsertOutcome,
    MacroClustering, MicroCluster, OnlineClusterer, QueryStats, UMicro,
};
use ustream_common::{P2Quantile, Result, Timestamp, UStreamError, UncertainPoint};
use ustream_snapshot::{
    merge_namespaced, namespaced_id, shard_of_id, ClusterSetSnapshot, HorizonTracker, SHARD_ID_BITS,
};

mod admission;
mod governor;
mod persist;

pub use admission::TryPushError;

use admission::Router;
use persist::{maybe_auto_checkpoint, write_checkpoint};

/// The boxed clusterer type each shard runs by default.
pub type DynClusterer = Box<dyn OnlineClusterer<Summary = Ecf>>;

/// The factory shards are (re)built from — invoked at startup and again
/// whenever a panicked worker respawns its clusterer.
type ClustererFactory = Box<dyn Fn(usize) -> DynClusterer + Send + Sync>;

/// A merged snapshot as the pyramid holds it: readers copy the pointer.
type Shared = Arc<ClusterSetSnapshot<Ecf>>;

/// The pyramid of merged snapshots.
type Pyramid = HorizonTracker<Ecf, Shared>;

/// Records a chunk clusters under one shard-lock acquisition at most.
const MAX_CHUNK: usize = 4_096;

/// A merge boundary on its way to a shard: cut `k`, which every shard
/// snapshots at `stamp`, the highest tick routed up to the boundary.
#[derive(Debug, Clone, Copy)]
struct Cut {
    k: u64,
    stamp: Timestamp,
}

enum Command {
    /// One record, and the cut right after it when it crossed a boundary.
    Point(Box<UncertainPoint>, Option<Cut>),
    /// A batch routed to this shard in one channel hop, and the cuts that
    /// fall in it: `(j, cut)` cuts after the batch's first `j` records,
    /// in ascending `j`.
    Batch(Vec<UncertainPoint>, Vec<(usize, Cut)>),
    /// A cut for a shard that got no record in the call that crossed it.
    Cut(Cut),
    /// Barrier: reply once every previously routed record is clustered.
    Flush(Sender<()>),
    Shutdown,
}

/// Per-shard novelty baseline state.
///
/// The P² quantile sketch is allocated only when the configuration actually
/// baselines on a quantile — under [`NoveltyBaseline::Mean`] no sketch
/// exists and no per-point quantile bookkeeping runs.
struct NoveltyMonitor {
    factor: Option<f64>,
    baseline: NoveltyBaseline,
    mean: f64,
    quantile: Option<P2Quantile>,
    samples: u64,
}

impl NoveltyMonitor {
    fn new(config: &EngineConfig) -> Self {
        let quantile = match (config.novelty_factor, config.novelty_baseline) {
            (Some(_), NoveltyBaseline::Quantile(q)) => Some(P2Quantile::new(q)),
            _ => None,
        };
        Self {
            factor: config.novelty_factor,
            baseline: config.novelty_baseline,
            mean: 0.0,
            quantile,
            samples: 0,
        }
    }

    fn baseline_estimate(&self) -> f64 {
        match self.baseline {
            NoveltyBaseline::Mean => self.mean,
            NoveltyBaseline::Quantile(_) => self
                .quantile
                .as_ref()
                .and_then(P2Quantile::estimate)
                .unwrap_or(0.0),
        }
    }

    fn observe_ordinary(&mut self, isolation: f64) {
        self.samples += 1;
        let n = self.samples as f64;
        self.mean += (isolation - self.mean) / n;
        if let Some(q) = self.quantile.as_mut() {
            q.observe(isolation);
        }
    }

    /// Judges one record's pre-insertion isolation: returns the baseline
    /// it exceeded when the record is novel, and otherwise folds it into
    /// the baseline — only non-alerting records do, so a burst of
    /// outliers cannot talk the monitor into accepting them.
    fn judge(&mut self, isolation: f64) -> Option<f64> {
        let factor = self.factor?;
        let baseline = self.baseline_estimate();
        // Warm-up: need a stable baseline before alerting.
        if self.samples >= 100 && isolation > factor * baseline.max(1e-12) {
            Some(baseline)
        } else {
            self.observe_ordinary(isolation);
            None
        }
    }
}

/// State a shard worker mutates under its own lock.
struct ShardState {
    alg: DynClusterer,
    created: u64,
    evicted: u64,
    /// Highest tick this shard has clustered (a restore starts it at the
    /// checkpoint's clock); a cut's parts are filed under the highest.
    max_tick: Timestamp,
    novelty: NoveltyMonitor,
    /// Reused per-chunk outcome buffers (novelty off / on).
    outcomes: Vec<InsertOutcome>,
    scored: Vec<(InsertOutcome, Option<f64>)>,
}

impl ShardState {
    fn new(alg: DynClusterer, config: &EngineConfig) -> Self {
        Self {
            alg,
            created: 0,
            evicted: 0,
            max_tick: 0,
            novelty: NoveltyMonitor::new(config),
            outcomes: Vec::new(),
            scored: Vec::new(),
        }
    }

    /// Clusters `chunk`, whose first record has global ordinal
    /// `first_position`, and appends an alert for every record the
    /// novelty monitor flags to `alerts`. With novelty on, one scored
    /// batch insert yields each record's pre-insertion isolation beside
    /// its outcome; with it off, a plain batch insert.
    fn cluster_chunk(
        &mut self,
        shard_idx: usize,
        chunk: &[UncertainPoint],
        first_position: u64,
        alerts: &mut Vec<NoveltyAlert>,
    ) {
        let Self {
            alg,
            created,
            evicted,
            novelty,
            outcomes,
            scored,
            ..
        } = self;
        let mut tally = |out: &InsertOutcome| {
            *created += u64::from(out.created);
            *evicted += u64::from(out.evicted.is_some());
        };
        if novelty.factor.is_none() {
            outcomes.clear();
            alg.insert_batch(chunk, outcomes);
            outcomes.iter().for_each(tally);
            return;
        }
        scored.clear();
        alg.insert_batch_scored(chunk, scored);
        for (position, ((out, isolation), p)) in (first_position..).zip(scored.iter().zip(chunk)) {
            tally(out);
            let Some(isolation) = *isolation else {
                continue;
            };
            if let Some(baseline) = novelty.judge(isolation) {
                alerts.push(NoveltyAlert {
                    timestamp: p.timestamp(),
                    position,
                    isolation,
                    baseline,
                    cluster_id: namespaced_id(shard_idx, out.cluster_id),
                });
            }
        }
    }
}

/// Lock-free per-shard instrumentation, readable from any thread.
#[derive(Default)]
struct ShardCounters {
    enqueued: AtomicU64,
    processed: AtomicU64,
    alerts: AtomicU64,
}

/// The shareable part of a shard: state + counters, no channel end.
struct ShardHandle {
    state: Mutex<ShardState>,
    counters: ShardCounters,
    /// Times the worker was respawned after a panic.
    restarts: AtomicU64,
    /// Payload of the most recent worker panic.
    last_panic: Mutex<Option<String>>,
    /// Whether the worker thread is currently running.
    alive: AtomicBool,
    /// Consumers ever attached to this shard's channel (the original
    /// worker plus rescue consumers). Shutdown sends this many `Shutdown`
    /// commands so every consumer — including a wedged one that later
    /// wakes — gets one.
    spawned: AtomicU64,
    /// Stall events the watchdog charged to this shard.
    stalls: AtomicU64,
    /// Whether the watchdog currently considers this shard stalled
    /// (cleared as soon as the processed counter moves).
    stalled: AtomicBool,
}

/// One shard's snapshot at a cut.
struct Part {
    k: u64,
    snap: ClusterSetSnapshot<Ecf>,
    /// The highest tick the shard had clustered at the cut.
    max_tick: Timestamp,
}

/// A cut every live shard has deposited: the parts to union and file.
struct Complete {
    /// The parts in shard order. The first is kept apart so a one-shard
    /// engine completes a cut without allocating.
    first: (usize, ClusterSetSnapshot<Ecf>),
    rest: Vec<(usize, ClusterSetSnapshot<Ecf>)>,
    /// The highest tick any part holds.
    stamp: Timestamp,
    /// When the last part came in; merge latency runs from here to filing.
    at: Instant,
}

/// One shard's place in the cut table.
#[derive(Default)]
struct Slot {
    /// The shard's deposits for cuts not complete yet, in cut order.
    parts: VecDeque<Part>,
    /// The lowest cut the shard has not deposited.
    owes: u64,
    /// The shard's worker is gone for good: cuts complete without it.
    retired: bool,
}

impl Slot {
    /// Whether cut `k` can complete as far as this shard goes.
    fn holds(&self, k: u64) -> bool {
        self.retired || self.parts.front().is_some_and(|p| p.k == k)
    }
}

/// Cut bookkeeping behind the cut table's lock.
struct Cuts {
    /// One slot per shard.
    slots: Vec<Slot>,
    /// The next cut to complete.
    next: u64,
    /// Completed cuts in cut order, waiting to be filed.
    complete: VecDeque<Complete>,
}

impl Cuts {
    fn new(shards: usize) -> Self {
        Self {
            slots: (0..shards).map(|_| Slot::default()).collect(),
            next: 0,
            complete: VecDeque::new(),
        }
    }

    /// Moves every cut whose parts are all in to the completed queue, in
    /// cut order; returns whether any moved.
    fn complete_ready(&mut self) -> bool {
        let mut any = false;
        while self.slots.iter().all(|slot| slot.holds(self.next)) {
            let mut stamp = 0;
            let mut first = None;
            let mut rest = Vec::new();
            for (shard, slot) in self.slots.iter_mut().enumerate() {
                let Some(part) = slot.parts.pop_front() else {
                    continue;
                };
                stamp = stamp.max(part.max_tick);
                if first.is_none() {
                    first = Some((shard, part.snap));
                } else {
                    rest.push((shard, part.snap));
                }
            }
            // Every shard retired: nothing completes any more.
            let Some(first) = first else {
                return any;
            };
            self.complete.push_back(Complete {
                first,
                rest,
                stamp,
                at: Instant::now(),
            });
            self.next += 1;
            any = true;
        }
        any
    }
}

/// Where shard cuts meet: deposits, completion, and in-order filing.
struct CutTable {
    state: Mutex<Cuts>,
    /// Held by the one worker filing completed cuts (only ever tried).
    filing: Mutex<()>,
}

impl CutTable {
    /// Deposits `part` for shard `shard`; returns whether a cut completed.
    ///
    /// A shard can reach cut `j` before an earlier cut `k`: producers race
    /// after routing, and a rescue consumer drains behind a wedged worker.
    /// The part for `j` then stands in for every earlier cut the shard
    /// still owes, since it holds everything their parts would, and the
    /// earlier markers are dropped when they arrive. So a shard's parts
    /// never shrink from one cut to the next. A part for a cut already
    /// complete, or from a retired shard, is dropped.
    fn deposit(&self, shard: usize, part: Part) -> bool {
        let mut cuts = self.state.lock();
        let next = cuts.next;
        let Some(slot) = cuts.slots.get_mut(shard) else {
            return false;
        };
        let owes = slot.owes.max(next);
        if slot.retired || part.k < owes {
            return false;
        }
        for k in owes..part.k {
            slot.parts.push_back(Part {
                k,
                snap: part.snap.clone(),
                max_tick: part.max_tick,
            });
        }
        slot.owes = part.k + 1;
        slot.parts.push_back(part);
        cuts.complete_ready()
    }

    /// Takes shard `shard` out of every pending and later cut, for a worker
    /// that is gone for good; returns whether a cut completed.
    fn retire(&self, shard: usize) -> bool {
        let mut cuts = self.state.lock();
        if let Some(slot) = cuts.slots.get_mut(shard) {
            slot.retired = true;
            slot.parts.clear();
        }
        cuts.complete_ready()
    }
}

/// Filings in a row that discarded an answer no one asked for again,
/// after which the memo keeps only answers asked for twice.
const MEMO_SPARSE_AFTER: u8 = 4;

/// The last horizon window answered, and the filing generation it holds
/// for: between two filings a window is a function of its horizon alone.
///
/// Memoising costs a clone of the window, which pays only when a caller
/// asks again before the next filing. So once [`MEMO_SPARSE_AFTER`]
/// filings in a row discarded an answer no one asked for again, the memo
/// keeps only an answer asked for twice in one generation, until a repeat
/// shows up.
#[derive(Default)]
struct Memo {
    /// Snapshots filed so far, as the last filer left it.
    generation: u64,
    /// `(h, window)` answered at `generation`.
    window: Option<(u64, ClusterSetSnapshot<Ecf>)>,
    /// Whether a horizon was asked for again at `generation`.
    repeated: bool,
    /// Filings in a row that discarded an unrepeated answer.
    unrepeated: u8,
    /// The horizon last asked for at `generation`, once sparse.
    asked: Option<u64>,
}

impl Memo {
    /// The memoised window of `h` ticks, cloned.
    fn hit(&mut self, h: u64) -> Option<ClusterSetSnapshot<Ecf>> {
        let (_, window) = self.window.as_ref().filter(|(at, _)| *at == h)?;
        self.repeated = true;
        Some(window.clone())
    }

    /// Memoises `window`, of `h` ticks at filing generation `generation`,
    /// when the memo is empty, nothing was filed since, and repeats are
    /// not sparse or this is one; an answer it would displace is left for
    /// the next filer to free.
    fn offer(&mut self, generation: u64, h: u64, window: &ClusterSetSnapshot<Ecf>) {
        if self.window.is_some() || self.generation != generation {
            return;
        }
        if self.unrepeated >= MEMO_SPARSE_AFTER {
            if self.asked.replace(h) != Some(h) {
                return;
            }
            self.repeated = true;
        }
        self.window = Some((h, window.clone()));
    }

    /// Moves the memo to generation `generation` and hands back the stale
    /// answer, for the filer to free after releasing the memo lock.
    fn advance(&mut self, generation: u64) -> Option<(u64, ClusterSetSnapshot<Ecf>)> {
        let stale = self.window.take();
        if stale.is_some() {
            self.unrepeated = match self.repeated {
                true => 0,
                false => self.unrepeated.saturating_add(1),
            };
        }
        self.generation = generation;
        self.repeated = false;
        self.asked = None;
        stale
    }
}

/// The newest filed snapshot's tick and pointer, and the pointer to the
/// base of the window of `h` ticks that ends at it: pointer copies only,
/// for a caller holding the horizon lock.
fn window_ends(horizons: &Pyramid, h: u64) -> Result<(Timestamp, Shared, Shared)> {
    let store = horizons.store();
    let current = store
        .newest()
        .ok_or(UStreamError::HorizonUnavailable { requested: h })?;
    let base = store.horizon_base(current.time, h)?;
    Ok((
        current.time,
        Arc::clone(&current.data),
        Arc::clone(&base.data),
    ))
}

/// State shared by all shards and the query API.
struct Global {
    config: EngineConfig,
    /// Rebuilds a shard's clusterer (startup and post-panic recovery).
    factory: ClustererFactory,
    /// Global records-processed ordinal (alert positions, checkpoints).
    processed: AtomicU64,
    last_tick: AtomicU64,
    alerts_raised: AtomicU64,
    merges: AtomicU64,
    merge_nanos: AtomicU64,
    /// Round-robin cursor and merge boundaries (here rather than on the
    /// engine so a checkpoint built from a worker thread can capture it).
    router: Mutex<Router>,
    /// Shard cuts on their way to the pyramid.
    cuts: CutTable,
    /// Raised before shutdown commands go out, so a worker that panics
    /// while draining its final commands does not try to respawn.
    shutting_down: AtomicBool,
    /// The pyramid of merged snapshots. Its newest snapshot is also the
    /// seed a respawned shard restores its slice from.
    horizons: Mutex<Pyramid>,
    memo: Mutex<Memo>,
    alerts: Mutex<VecDeque<NoveltyAlert>>,
    quarantine: Mutex<Quarantine>,
    rejected: AtomicU64,
    clamped: AtomicU64,
    backpressure_dropped: AtomicU64,
    checkpoints_written: AtomicU64,
    /// Highest `processed / checkpoint_every` epoch already checkpointed
    /// (so concurrent workers write each auto-checkpoint exactly once).
    checkpoint_epoch: AtomicU64,
    last_checkpoint_error: Mutex<Option<String>>,
    /// Engine start instant; degradation transitions are stamped against it.
    started: Instant,
    /// Current [`LoadStage`] (compact `as_u8` encoding).
    load_stage: AtomicU8,
    load_transitions: Mutex<Vec<LoadTransition>>,
    /// Points dropped outright in [`LoadStage::Shed`].
    points_shed: AtomicU64,
    /// Points dropped by probabilistic admission in [`LoadStage::Sample`].
    sampled_out: AtomicU64,
    /// Admission ordinal driving the deterministic sampling gate.
    admit_seq: AtomicU64,
    /// Stall events detected by the watchdog, across shards.
    stalls_detected: AtomicU64,
    /// Raised by [`StreamEngine::shutdown_drain`]: admission refused while
    /// the channels flush.
    draining: AtomicBool,
    /// The report cached by the first shutdown; later shutdowns return it.
    final_report: Mutex<Option<EngineReport>>,
    /// Rescue consumers the governor attached (joined at shutdown).
    extra_workers: Mutex<Vec<JoinHandle<()>>>,
    /// Corrupt/unreadable checkpoint generations skipped while restoring
    /// this engine. Zero for engines that never restored, or restored from
    /// the newest generation cleanly. Surfaced in [`EngineReport`] so a
    /// silently-degrading checkpoint directory shows up in stats rather
    /// than only in logs nobody reads.
    restore_corrupt_generations: AtomicU64,
}

impl Global {
    fn load_stage(&self) -> LoadStage {
        LoadStage::from_u8(self.load_stage.load(Ordering::Relaxed)) // relaxed-ok: stage byte is self-contained; a lagging reader acts one poll late at worst
    }

    /// The ladder's knobs; an engine without a policy can still be
    /// forced onto a rung, and then runs it with the defaults.
    fn load_policy(&self) -> LoadPolicy {
        self.config.load_policy.unwrap_or_default()
    }

    /// The merge/snapshot cadence at the current stage.
    fn merge_every(&self) -> u64 {
        self.load_policy()
            .cadence(self.config.snapshot_every, self.load_stage())
    }

    /// Publishes stage `to` and timestamps the move from `from`.
    fn transition(&self, from: LoadStage, to: LoadStage, pressure: f64) {
        self.load_stage.store(to.as_u8(), Ordering::Relaxed); // relaxed-ok: stage byte is self-contained; a lagging reader acts one poll late at worst
        self.load_transitions.lock().push(LoadTransition {
            at_ms: self.started.elapsed().as_millis() as u64,
            from,
            to,
            pressure,
        });
    }

    /// Files every completed cut, in cut order, unless another worker is
    /// filing already: that worker files what this one completed. Each
    /// filing unions the parts outside any lock, holds the horizon lock
    /// only to file the pointer, and retires the stale memo entry; the
    /// evicted snapshots and the stale window are freed after the locks
    /// are released.
    fn file_complete(&self, scratch: &mut Scratch) {
        loop {
            let Some(gate) = self.cuts.filing.try_lock() else {
                return;
            };
            loop {
                let next = self.cuts.state.lock().complete.pop_front();
                let Some(cut) = next else {
                    break;
                };
                let merged = merge_namespaced(std::iter::once(cut.first).chain(cut.rest));
                let packed = Arc::new(merged);
                let generation = {
                    let mut horizons = self.horizons.lock();
                    // Stamps fall behind only when shards reach cuts out of
                    // order (several producers, a rescue consumer).
                    let stamp = cut.stamp.max(horizons.last_recorded());
                    horizons.record_packed_with(stamp, packed, |old| scratch.evicted.push(old));
                    horizons.store().recorded()
                };
                let stale = self.memo.lock().advance(generation);
                drop(stale);
                scratch.evicted.clear();
                self.merges.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                let nanos = cut.at.elapsed().as_nanos() as u64;
                self.merge_nanos.fetch_add(nanos, Ordering::Relaxed); // relaxed-ok: monotone duration accumulator; only read for stats
            }
            drop(gate);
            // A cut completed while the gate was held is filed here.
            if self.cuts.state.lock().complete.is_empty() {
                return;
            }
        }
    }
}

/// What a worker keeps across commands, outside its panic fence.
#[derive(Default)]
struct Scratch {
    /// The cuts of the command in flight; the first `settled` are
    /// deposited. A panic leaves the rest owed.
    owed: Vec<Cut>,
    settled: usize,
    /// Snapshots a filing evicted, freed once the horizon lock is released.
    evicted: Vec<Shared>,
}

impl Scratch {
    /// Marks `cuts` as the in-flight command's.
    fn owe(&mut self, cuts: &[(usize, Cut)]) {
        self.owed.clear();
        self.owed.extend(cuts.iter().map(|&(_, cut)| cut));
        self.settled = 0;
    }
}

/// Deposits shard `idx`'s snapshot at `cut` and files whatever that
/// completes.
fn deposit(
    global: &Global,
    idx: usize,
    cut: Cut,
    snap: ClusterSetSnapshot<Ecf>,
    max_tick: Timestamp,
    scratch: &mut Scratch,
) {
    let part = Part {
        k: cut.k,
        snap,
        max_tick,
    };
    let completed = global.cuts.deposit(idx, part);
    scratch.settled += 1;
    if completed {
        global.file_complete(scratch);
    }
}

/// Clusters a routed batch — a lone record is a batch of one — and
/// deposits the cuts that fall in it, each at its exact position: the
/// records before a cut cluster in chunks of at most [`MAX_CHUNK`], one
/// global-ordinal reservation and one shard-lock acquisition each (scored
/// when novelty detection is on, see [`ShardState::cluster_chunk`]), and
/// the cut's snapshot is taken under the lock of the chunk it ends. A
/// chunk's novelty alerts are queued, and a cut deposited, after the shard
/// lock is released.
fn ingest(
    global: &Global,
    shard: &ShardHandle,
    idx: usize,
    points: &[UncertainPoint],
    cuts: &[(usize, Cut)],
    scratch: &mut Scratch,
) {
    let mut alerts = Vec::new();
    let mut from = 0;
    let mut cuts = cuts.iter();
    loop {
        let (to, cut) = match cuts.next() {
            Some(&(at, cut)) => (at.clamp(from, points.len()), Some(cut)),
            None => (points.len(), None),
        };
        let segment = points.get(from..to).unwrap_or_default();
        if segment.is_empty() && cut.is_none() {
            return;
        }
        let mut chunks = segment.chunks(MAX_CHUNK).peekable();
        loop {
            let chunk = chunks.next().unwrap_or_default();
            let last = chunks.peek().is_none();
            let part = ingest_chunk(global, shard, idx, chunk, cut.filter(|_| last), &mut alerts);
            if let (Some(cut), Some((snap, max_tick))) = (cut, part) {
                deposit(global, idx, cut, snap, max_tick, scratch);
            }
            if last {
                break;
            }
        }
        if cut.is_none() {
            return;
        }
        from = to;
    }
}

/// Clusters one chunk under the shard lock and, given a cut, snapshots the
/// shard at it under the same lock; returns the snapshot with the highest
/// tick the shard has clustered.
fn ingest_chunk(
    global: &Global,
    shard: &ShardHandle,
    idx: usize,
    chunk: &[UncertainPoint],
    cut: Option<Cut>,
    alerts: &mut Vec<NoveltyAlert>,
) -> Option<(ClusterSetSnapshot<Ecf>, Timestamp)> {
    let len = chunk.len() as u64;
    let max_tick = chunk.iter().map(UncertainPoint::timestamp).max();
    let start = if len > 0 {
        global.processed.fetch_add(len, Ordering::Relaxed) // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
    } else {
        0
    };
    if let Some(tick) = max_tick {
        global.last_tick.fetch_max(tick, Ordering::Relaxed); // relaxed-ok: monotone watermark; readers tolerate a lagging value
    }
    let part = {
        let mut st = shard.state.lock();
        if len > 0 {
            st.cluster_chunk(idx, chunk, start + 1, alerts);
            st.max_tick = st.max_tick.max(max_tick.unwrap_or(0));
        }
        // Counted with the records that raised them, so a checkpoint
        // taken under this lock sees both or neither.
        if !alerts.is_empty() {
            let n = alerts.len() as u64;
            shard.counters.alerts.fetch_add(n, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
            global.alerts_raised.fetch_add(n, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
        }
        cut.map(|cut| (st.alg.snapshot_at(cut.stamp), st.max_tick))
    };
    if !alerts.is_empty() {
        queue_alerts(global, alerts);
    }
    if len > 0 {
        shard.counters.processed.fetch_add(len, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
    }
    part
}

/// Moves a chunk's alerts into the bounded global queue in one
/// alerts-lock acquisition (the oldest fall off past `max_alerts`).
fn queue_alerts(global: &Global, alerts: &mut Vec<NoveltyAlert>) {
    let mut queue = global.alerts.lock();
    queue.extend(alerts.drain(..));
    let excess = queue.len().saturating_sub(global.config.max_alerts);
    queue.drain(..excess);
}

/// Deposits the cuts a panicked command still owed, each from the shard's
/// state as it now stands (an empty part when even the snapshot panics),
/// so the cuts after them can complete.
fn settle_owed(global: &Global, shard: &ShardHandle, idx: usize, scratch: &mut Scratch) {
    while let Some(&cut) = scratch.owed.get(scratch.settled) {
        let taken = catch_unwind(AssertUnwindSafe(|| {
            let mut st = shard.state.lock();
            (st.alg.snapshot_at(cut.stamp), st.max_tick)
        }));
        let (snap, max_tick) = taken.unwrap_or_default();
        deposit(global, idx, cut, snap, max_tick, scratch);
    }
}

/// Renders a panic payload into something a [`ShardStats::last_panic`]
/// reader can act on.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Rebuilds shard `idx`'s clusterer after a panic, seeding it with the
/// shard's slice of the newest stored snapshot (the last merge; budgets
/// never evict it) so already-merged history is not lost. Returns `false`
/// when recovery is impossible (the factory itself panicked) — the worker
/// then stays down.
fn recover_shard(global: &Global, shards: &[Arc<ShardHandle>], idx: usize) -> bool {
    // The factory is caller-supplied code: it gets the same panic fence as
    // the ingest loop, because a respawn that dies must not kill the engine.
    let fresh = || catch_unwind(AssertUnwindSafe(|| (global.factory)(idx))).ok();
    let Some(mut alg) = fresh() else {
        return false;
    };

    // Copy the seed's pointer out before touching the shard lock (lock
    // ordering).
    let seed = global
        .horizons
        .lock()
        .store()
        .newest()
        .map(|s| Arc::clone(&s.data));
    if let Some(merged) = seed {
        let mask = (1u64 << SHARD_ID_BITS) - 1;
        let mut ids = Vec::new();
        let mut summaries = Vec::new();
        for (gid, ecf) in &merged.clusters {
            if shard_of_id(*gid) == idx {
                ids.push(gid & mask);
                summaries.push(Arc::clone(ecf));
            }
        }
        let state = ClustererState {
            next_id: ids.iter().max().map_or(0, |m| m + 1),
            ids,
            summaries,
            points_processed: shards[idx].counters.processed.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            since_refresh: 0,
            // Empty → the importer recomputes global variances from the
            // summaries.
            variances: Vec::new(),
            last_seen: global.last_tick.load(Ordering::Relaxed), // relaxed-ok: monotone watermark; readers tolerate a lagging value
        };
        if state.validate().is_ok() && alg.import_state(&state).is_err() {
            // A failed import may leave the clusterer half-seeded; fall
            // back to a pristine instance (history stays queryable through
            // the pyramidal store either way).
            match fresh() {
                Some(a) => alg = a,
                None => return false,
            }
        }
    }

    let mut st = shards[idx].state.lock();
    st.alg = alg;
    // The baseline may have been poisoned by whatever caused the panic;
    // restart its warm-up.
    st.novelty = NoveltyMonitor::new(&global.config);
    true
}

#[cfg(feature = "failpoints")]
fn fire_worker_failpoints() {
    if crate::failpoints::should_fire(crate::failpoints::CHANNEL_STALL) {
        std::thread::sleep(Duration::from_millis(50));
    }
    // The armed count is a sleep in milliseconds served whole by exactly
    // one worker — a deterministic "wedged consumer" for watchdog tests.
    let hang_ms = crate::failpoints::take(crate::failpoints::WORKER_HANG);
    if hang_ms > 0 {
        std::thread::sleep(Duration::from_millis(hang_ms));
    }
    if crate::failpoints::should_fire(crate::failpoints::SHARD_WORKER_PANIC) {
        panic!("injected shard worker panic");
    }
}

/// Drains shard `idx`'s command channel until shutdown or disconnect.
/// Runs inside the supervisor's panic fence; a panic here consumes the
/// in-flight command (it is already out of the channel), so recovery loses
/// at most that one record or batch, and `scratch` keeps the cuts it still
/// owed.
fn drain_commands(
    rx: &Receiver<Command>,
    global: &Global,
    all_shards: &[Arc<ShardHandle>],
    idx: usize,
    scratch: &mut Scratch,
) {
    let own = &all_shards[idx];
    for cmd in rx.iter() {
        match cmd {
            Command::Point(p, cut) => {
                let cuts = cut.map(|cut| (1, cut));
                scratch.owe(cuts.as_slice());
                #[cfg(feature = "failpoints")]
                fire_worker_failpoints();
                ingest(
                    global,
                    own,
                    idx,
                    std::slice::from_ref(&*p),
                    cuts.as_slice(),
                    scratch,
                );
                maybe_auto_checkpoint(global, all_shards);
            }
            Command::Batch(points, cuts) => {
                scratch.owe(&cuts);
                #[cfg(feature = "failpoints")]
                fire_worker_failpoints();
                ingest(global, own, idx, &points, &cuts, scratch);
                maybe_auto_checkpoint(global, all_shards);
            }
            Command::Cut(cut) => {
                let cuts = [(0, cut)];
                scratch.owe(&cuts);
                ingest(global, own, idx, &[], &cuts, scratch);
            }
            Command::Flush(reply) => {
                // Everything routed to this shard before the flush has
                // been drained by now, and every cut marked before it
                // deposited (and filed, when this shard completed it).
                let _ = reply.send(());
            }
            Command::Shutdown => return,
        }
    }
}

/// A shard worker's whole life: drain commands, survive panics, respawn
/// the clusterer, deposit the cuts the lost command owed, and mark the
/// handle dead on the way out. A worker that cannot respawn retires its
/// shard from the cut table, so cuts keep completing without it.
fn shard_worker(
    rx: Receiver<Command>,
    global: Arc<Global>,
    all_shards: Vec<Arc<ShardHandle>>,
    idx: usize,
) {
    let mut scratch = Scratch::default();
    loop {
        match catch_unwind(AssertUnwindSafe(|| {
            drain_commands(&rx, &global, &all_shards, idx, &mut scratch)
        })) {
            Ok(()) => break,
            Err(payload) => {
                let own = &all_shards[idx];
                *own.last_panic.lock() = Some(panic_message(payload));
                own.restarts.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                if global.shutting_down.load(Ordering::Acquire) {
                    break;
                }
                if !recover_shard(&global, &all_shards, idx) {
                    if global.cuts.retire(idx) {
                        global.file_complete(&mut scratch);
                    }
                    break;
                }
                settle_owed(&global, own, idx, &mut scratch);
            }
        }
    }
    all_shards[idx].alive.store(false, Ordering::Release);
}

/// The embeddable analytics engine. See the crate docs for an example.
///
/// All query methods are callable from any thread while ingestion is in
/// flight; they take shard/horizon locks briefly and never block on the
/// channels.
pub struct StreamEngine {
    txs: Vec<Sender<Command>>,
    shards: Vec<Arc<ShardHandle>>,
    global: Arc<Global>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    governor: Mutex<Option<JoinHandle<()>>>,
}

impl StreamEngine {
    /// [`Self::launch`] with the default UMicro clusterers (decayed when
    /// `config.decay_half_life` is set), each holding an even share of the
    /// global `n_micro` budget.
    pub(crate) fn launch_default(config: EngineConfig) -> Result<Self> {
        // Sized inside the factory, which `launch` first calls after
        // validating: `shard_n_micro` divides by the shard count.
        let shard_config = config.clone();
        Self::launch(config, move |_shard| -> DynClusterer {
            let mut umicro = shard_config.umicro.clone();
            umicro.n_micro = shard_config.shard_n_micro();
            match shard_config.decay_half_life {
                Some(hl) => Box::new(DecayedUMicro::with_half_life(umicro, hl)),
                None => Box::new(UMicro::new(umicro)),
            }
        })
    }

    /// The real engine startup, and the one place a configuration is
    /// validated: checks `config`, then spawns shard workers (and the
    /// governor when configured). Every constructor — the builder's
    /// `build`/`build_with` and all three restores — comes through here.
    ///
    /// # Errors
    ///
    /// [`UStreamError::InvalidConfig`] naming the first invalid field,
    /// [`UStreamError::Io`] when a worker thread cannot be spawned.
    pub(crate) fn launch(
        config: EngineConfig,
        clusterer: impl Fn(usize) -> DynClusterer + Send + Sync + 'static,
    ) -> Result<Self> {
        config.validate()?;
        let n_shards = config.shards;
        let quarantine_capacity = config.quarantine_capacity;
        let mut horizons = Pyramid::new(config.pyramid);
        if let Some(budget) = config.snapshot_budget {
            horizons.set_budget(budget);
        }
        let global = Arc::new(Global {
            factory: Box::new(clusterer),
            processed: AtomicU64::new(0),
            last_tick: AtomicU64::new(0),
            alerts_raised: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            merge_nanos: AtomicU64::new(0),
            router: Mutex::new(Router::default()),
            cuts: CutTable {
                state: Mutex::new(Cuts::new(n_shards)),
                filing: Mutex::new(()),
            },
            shutting_down: AtomicBool::new(false),
            horizons: Mutex::new(horizons),
            memo: Mutex::new(Memo::default()),
            alerts: Mutex::new(VecDeque::new()),
            quarantine: Mutex::new(Quarantine::new(quarantine_capacity)),
            rejected: AtomicU64::new(0),
            clamped: AtomicU64::new(0),
            backpressure_dropped: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoint_epoch: AtomicU64::new(0),
            last_checkpoint_error: Mutex::new(None),
            started: Instant::now(),
            load_stage: AtomicU8::new(LoadStage::Normal.as_u8()),
            load_transitions: Mutex::new(Vec::new()),
            points_shed: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            admit_seq: AtomicU64::new(0),
            stalls_detected: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            final_report: Mutex::new(None),
            extra_workers: Mutex::new(Vec::new()),
            restore_corrupt_generations: AtomicU64::new(0),
            config,
        });

        let shards: Vec<Arc<ShardHandle>> = (0..n_shards)
            .map(|i| {
                Arc::new(ShardHandle {
                    state: Mutex::new(ShardState::new((global.factory)(i), &global.config)),
                    counters: ShardCounters::default(),
                    restarts: AtomicU64::new(0),
                    last_panic: Mutex::new(None),
                    alive: AtomicBool::new(true),
                    spawned: AtomicU64::new(1),
                    stalls: AtomicU64::new(0),
                    stalled: AtomicBool::new(false),
                })
            })
            .collect();

        let mut txs: Vec<Sender<Command>> = Vec::with_capacity(n_shards);
        let mut rxs: Vec<Receiver<Command>> = Vec::with_capacity(n_shards);
        let mut workers = Vec::with_capacity(n_shards);
        let abort = |txs: &[Sender<Command>], workers: Vec<JoinHandle<()>>, e: std::io::Error| {
            // Unwind: stop the workers already running, then report.
            global.shutting_down.store(true, Ordering::Release);
            for tx in txs {
                let _ = tx.send(Command::Shutdown);
            }
            for handle in workers {
                let _ = handle.join();
            }
            UStreamError::Io(e)
        };
        for i in 0..n_shards {
            let (tx, rx) = bounded::<Command>(global.config.channel_capacity);
            let global_for_worker = Arc::clone(&global);
            let all_shards = shards.clone();
            let worker_rx = rx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("ustream-shard-{i}"))
                .spawn(move || shard_worker(worker_rx, global_for_worker, all_shards, i));
            match spawned {
                Ok(handle) => {
                    txs.push(tx);
                    rxs.push(rx);
                    workers.push(handle);
                }
                Err(e) => return Err(abort(&txs, workers, e)),
            }
        }

        // The governor exists only when something needs governing.
        let governor_handle =
            if global.config.watchdog.is_some() || global.config.load_policy.is_some() {
                let global_for_gov = Arc::clone(&global);
                let shards_for_gov = shards.clone();
                let spawned = std::thread::Builder::new()
                    .name("ustream-governor".into())
                    .spawn(move || governor::governor(global_for_gov, shards_for_gov, rxs));
                match spawned {
                    Ok(handle) => Some(handle),
                    Err(e) => return Err(abort(&txs, workers, e)),
                }
            } else {
                None
            };

        Ok(Self {
            txs,
            shards,
            global,
            workers: Mutex::new(workers),
            governor: Mutex::new(governor_handle),
        })
    }

    /// Blocks until every previously pushed record has been clustered on
    /// every shard. Shards whose worker is permanently down are skipped.
    pub fn flush(&self) {
        for rx in self.flush_barriers() {
            let _ = rx.recv();
        }
    }

    /// Sends the unsent cuts, then a flush barrier down every shard channel
    /// that still has a consumer; each receiver answers once its shard has
    /// clustered everything routed to it before the barrier and deposited
    /// every cut sent ahead of it.
    fn flush_barriers(&self) -> Vec<Receiver<()>> {
        self.send_unsent();
        self.txs
            .iter()
            .filter_map(|tx| {
                let (reply_tx, reply_rx) = bounded(1);
                tx.send(Command::Flush(reply_tx)).ok().map(|_| reply_rx)
            })
            .collect()
    }

    /// Records processed so far (across all shards).
    pub fn points_processed(&self) -> u64 {
        self.global.processed.load(Ordering::Relaxed) // relaxed-ok: statistical read for reports/decisions that tolerate lag
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// Drains the quarantine buffer for inspection, oldest first.
    pub fn drain_quarantine(&self) -> Vec<QuarantinedPoint> {
        self.global.quarantine.lock().drain()
    }

    /// Snapshot of the live micro-clusters across all shards, with
    /// shard-namespaced ids, in id order (one copy of each ECF, owned by
    /// the caller).
    pub fn micro_clusters(&self) -> Vec<MicroCluster> {
        self.live_clusters()
            .clusters
            .into_iter()
            .map(|(id, ecf)| MicroCluster::new(id, Arc::unwrap_or_clone(ecf)))
            .collect()
    }

    /// The live micro-clusters across all shards, with shard-namespaced
    /// ids and statistics as stored (no decay synchronisation). Each ECF
    /// is shared with the shard's last snapshot while it is unchanged
    /// since, so callers that keep the map can tell an unchanged cluster
    /// by pointer; a changed one is a fresh copy only the caller holds.
    /// Reading changes nothing in the shards.
    pub fn live_clusters(&self) -> ClusterSetSnapshot<Ecf> {
        merge_namespaced(
            self.shards
                .iter()
                .enumerate()
                .map(|(i, shard)| (i, shard.state.lock().alg.live_clusters())),
        )
    }

    /// Macro-clusters of the merged live state.
    pub fn macro_clusters(&self, k: usize, seed: u64) -> MacroClustering {
        if self.shards.len() == 1 {
            // Single shard: delegate so decayed synchronisation and k-means
            // seeding match the unsharded engine exactly.
            // lint:allow(hot-panic): guarded by the shards.len() == 1 branch
            return self.shards[0].state.lock().alg.macro_cluster(k, seed);
        }
        let now = self.global.last_tick.load(Ordering::Relaxed); // relaxed-ok: monotone watermark; readers tolerate a lagging value
        let merged = merge_namespaced(
            self.shards
                .iter()
                .enumerate()
                .map(|(i, shard)| (i, shard.state.lock().alg.snapshot_at(now))),
        );
        macro_cluster_ecfs(
            merged.clusters.iter().map(|(id, ecf)| (*id, &**ecf)),
            k,
            seed,
        )
    }

    /// Micro-cluster statistics of the trailing window of `h` ticks,
    /// reconstructed from the merged pyramidal snapshots: the newest filed
    /// snapshot minus the one at or before `h` ticks earlier. The horizon
    /// lock is held only to copy the two snapshot pointers, and a repeat
    /// call between two filings is answered from a one-entry memo.
    pub fn horizon_clusters(&self, h: u64) -> Result<ClusterSetSnapshot<Ecf>> {
        let memoised = self.global.memo.lock().hit(h);
        if let Some(window) = memoised {
            return Ok(window);
        }
        let (generation, (_, current, base)) = {
            let horizons = self.global.horizons.lock();
            (horizons.store().recorded(), window_ends(&horizons, h)?)
        };
        let window = current.subtract_past(&base);
        self.global.memo.lock().offer(generation, h, &window);
        Ok(window)
    }

    /// Macro-clusters of the trailing window of `h` ticks.
    pub fn horizon_macro_clusters(&self, h: u64, k: usize, seed: u64) -> Result<MacroClustering> {
        let window = self.horizon_clusters(h)?;
        Ok(macro_cluster_ecfs(
            window.clusters.iter().map(|(id, ecf)| (*id, &**ecf)),
            k,
            seed,
        ))
    }

    /// Evolution between the two most recent windows of `h` ticks each,
    /// ending at the newest filed snapshot's tick `T`: `(T − 2h, T − h]`
    /// vs `(T − h, T]`.
    pub fn evolution(&self, h: u64, min_weight: f64) -> Result<EvolutionReport> {
        let (current, base, earlier, earlier_base) = {
            let horizons = self.global.horizons.lock();
            let (now, current, base) = window_ends(&horizons, h)?;
            let store = horizons.store();
            let earlier = store
                .find_at_or_before(now.saturating_sub(h))
                .ok_or(UStreamError::HorizonUnavailable { requested: h })?;
            let earlier_base = store.horizon_base(earlier.time, h).ok();
            (
                current,
                base,
                Arc::clone(&earlier.data),
                earlier_base.map(|b| Arc::clone(&b.data)),
            )
        };
        let recent = current.subtract_past(&base);
        // When the earlier window would reach past the stream origin, the
        // whole prefix up to its end *is* that window.
        let window;
        let earlier = match earlier_base {
            Some(base) => {
                window = earlier.subtract_past(&base);
                &window
            }
            None => &*earlier,
        };
        Ok(compare_windows(earlier, &recent, min_weight))
    }

    /// Drains the pending novelty alerts.
    pub fn drain_alerts(&self) -> Vec<NoveltyAlert> {
        self.global.alerts.lock().drain(..).collect()
    }

    /// Current run statistics (without stopping the engine).
    pub fn stats(&self) -> EngineReport {
        let elapsed = self.global.started.elapsed().as_secs_f64().max(1e-9);
        let shutting = self.global.shutting_down.load(Ordering::Acquire);
        let mut live_clusters = 0;
        let mut created = 0;
        let mut evicted = 0;
        let mut total_restarts = 0;
        let mut dead = 0;
        let mut any_stalled = false;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let st = shard.state.lock();
            let processed = shard.counters.processed.load(Ordering::Relaxed); // relaxed-ok: statistical read for reports/decisions that tolerate lag
            let enqueued = shard.counters.enqueued.load(Ordering::Relaxed); // relaxed-ok: statistical read for reports/decisions that tolerate lag
            let live = st.alg.num_clusters();
            let restarts = shard.restarts.load(Ordering::Relaxed); // relaxed-ok: statistical read for reports/decisions that tolerate lag
            let alive = shard.alive.load(Ordering::Acquire);
            let stalled = shard.stalled.load(Ordering::Relaxed); // relaxed-ok: advisory stall flag for reports; rescue correctness does not depend on its timing
            live_clusters += live;
            created += st.created;
            evicted += st.evicted;
            total_restarts += restarts;
            if !alive {
                dead += 1;
            }
            any_stalled |= stalled;
            per_shard.push(ShardStats {
                shard: i,
                processed,
                queue_depth: enqueued.saturating_sub(processed),
                live_clusters: live,
                alerts_raised: shard.counters.alerts.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
                points_per_sec: processed as f64 / elapsed,
                restarts,
                last_panic: shard.last_panic.lock().clone(),
                alive,
                stalls: shard.stalls.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
                stalled,
                clusterer_bytes: st.alg.approx_memory_bytes(),
            });
        }
        let health = if !shutting && dead == self.shards.len() {
            HealthStatus::Failed
        } else if total_restarts > 0 || (!shutting && dead > 0) || any_stalled {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        };
        let merges = self.global.merges.load(Ordering::Relaxed); // relaxed-ok: statistical read for reports/decisions that tolerate lag
        let merge_nanos = self.global.merge_nanos.load(Ordering::Relaxed); // relaxed-ok: monotone duration accumulator; only read for stats
        let (snapshots_retained, budget) = {
            let horizons = self.global.horizons.lock();
            (horizons.store().len(), horizons.budget_report())
        };
        let load_stage = self.global.load_stage();
        let quarantine = self.global.quarantine.lock();
        EngineReport {
            points_processed: self.global.processed.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            live_clusters,
            clusters_created: created,
            clusters_evicted: evicted,
            snapshots_retained,
            alerts_raised: self.global.alerts_raised.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            last_tick: self.global.last_tick.load(Ordering::Relaxed), // relaxed-ok: monotone watermark; readers tolerate a lagging value
            merges,
            mean_merge_micros: if merges > 0 {
                merge_nanos as f64 / 1_000.0 / merges as f64
            } else {
                0.0
            },
            health,
            points_rejected: self.global.rejected.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            points_clamped: self.global.clamped.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            points_quarantined: quarantine.admitted(),
            quarantine_dropped: quarantine.dropped(),
            backpressure_dropped: self.global.backpressure_dropped.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            checkpoints_written: self.global.checkpoints_written.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            last_checkpoint_error: self.global.last_checkpoint_error.lock().clone(),
            load_stage,
            load_transitions: self.global.load_transitions.lock().clone(),
            points_shed: self.global.points_shed.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            points_sampled_out: self.global.sampled_out.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            sampling_keep_per_mille: if load_stage >= LoadStage::Sample {
                self.global.load_policy().keep_per_mille
            } else {
                1_000
            },
            stalls_detected: self.global.stalls_detected.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            snapshot_bytes: budget.retained_bytes,
            snapshot_budget_evictions: budget.evictions,
            horizon_error_bound: budget.effective_error_bound,
            kernel_backend: umicro::kernel::simd::active().name(),
            restore_corrupt_generations: self
                .global
                .restore_corrupt_generations
                .load(Ordering::Relaxed), // relaxed-ok: set once at restore, read for reports
            per_shard,
        }
    }

    /// Graceful drain: stops admission, flushes every shard channel, runs a
    /// final merge, writes a final checkpoint (when a checkpoint path is
    /// configured), then shuts the engine down — reporting whether it all
    /// fit inside `deadline`.
    ///
    /// The flush itself is not interruptible mid-shard, so a wedged worker
    /// can push the drain past the deadline; `deadline_met` tells the
    /// caller honestly either way.
    pub fn shutdown_drain(&self, deadline: Duration) -> DrainOutcome {
        let started = Instant::now();
        self.global.draining.store(true, Ordering::Release);
        // The final merge: a cut after everything routed so far, sent ahead
        // of the barriers below and filed by the time they have answered.
        self.cut_now();
        let mut deadline_met = true;
        for rx in self.flush_barriers() {
            let left = deadline.saturating_sub(started.elapsed());
            if rx.recv_timeout(left).is_err() {
                deadline_met = false;
            }
        }
        if let Some(path) = self.global.config.checkpoint_path.as_deref() {
            let seq = self.global.checkpoint_epoch.load(Ordering::Relaxed) + 1; // relaxed-ok: epoch pre-read; the election CAS re-validates before publishing
            self.global.checkpoint_epoch.store(seq, Ordering::Relaxed); // relaxed-ok: epoch pre-read; the election CAS re-validates before publishing
            write_checkpoint(&self.global, &self.shards, path, seq);
        }
        deadline_met &= started.elapsed() <= deadline;
        let report = self.shutdown();
        DrainOutcome {
            deadline_met,
            drain_millis: started.elapsed().as_millis() as u64,
            report,
        }
    }

    /// Stops every thread the engine owns: governor first (so no rescue
    /// consumer appears after the per-shard `spawned` counts are read),
    /// then one `Shutdown` per channel consumer, then joins.
    fn stop_workers(&self) {
        self.global.shutting_down.store(true, Ordering::Release);
        // Handles are moved out before joining so no handle-registry lock
        // is held while a thread winds down.
        let governor = self.governor.lock().take();
        if let Some(handle) = governor {
            let _ = handle.join();
        }
        for (i, tx) in self.txs.iter().enumerate() {
            let consumers = self.shards[i].spawned.load(Ordering::Acquire).max(1);
            for _ in 0..consumers {
                let _ = tx.send(Command::Shutdown);
            }
        }
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        for handle in workers {
            let _ = handle.join();
        }
        let extra: Vec<_> = self.global.extra_workers.lock().drain(..).collect();
        for handle in extra {
            let _ = handle.join();
        }
    }

    /// Stops the workers and returns the final accounting. Idempotent:
    /// subsequent calls (and [`Self::stop`]) return the cached report of
    /// the first shutdown instead of re-sampling a dead engine.
    pub fn shutdown(&self) -> EngineReport {
        if let Some(report) = self.global.final_report.lock().clone() {
            return report;
        }
        self.stop_workers();
        let report = self.stats();
        let mut cache = self.global.final_report.lock();
        if let Some(existing) = cache.clone() {
            return existing;
        }
        *cache = Some(report.clone());
        report
    }

    /// Alias for [`Self::shutdown`], matching the common stop/start naming.
    pub fn stop(&self) -> EngineReport {
        self.shutdown()
    }
}

/// The unified read API over the whole sharded engine. Unlike the blanket
/// impl for plain clusterers, `horizon_clusters` here is pyramid-exact:
/// it answers by snapshot subtraction over the merged store, so a horizon
/// of `h` really means the trailing `h` ticks. `export_state` is `None` —
/// a sharded engine's portable state is the
/// [`EngineCheckpoint`](crate::EngineCheckpoint) (shard states plus the
/// snapshot store), written via [`StreamEngine::checkpoint`], not a single
/// flat [`ClustererState`].
///
/// `ClusterQuery` is referenced by path rather than imported: bringing it
/// into scope alongside [`OnlineClusterer`] would make every
/// `alg.macro_cluster(..)` call in this module ambiguous (both traits
/// expose the method, one via blanket impl).
impl umicro::ClusterQuery for StreamEngine {
    type Summary = Ecf;

    fn horizon_clusters(&mut self, horizon: u64) -> Result<ClusterSetSnapshot<Ecf>> {
        StreamEngine::horizon_clusters(self, horizon)
    }

    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        StreamEngine::macro_clusters(self, k, seed)
    }

    fn stats(&self) -> QueryStats {
        let mut num_clusters = 0usize;
        let mut bytes = 0usize;
        for shard in self.shards.iter() {
            let st = shard.state.lock();
            num_clusters += st.alg.num_clusters();
            bytes += st.alg.approx_memory_bytes();
        }
        QueryStats {
            points_processed: self.points_processed(),
            num_clusters,
            approx_memory_bytes: bytes,
        }
    }

    fn export_state(&self) -> Option<ClustererState<Ecf>> {
        None
    }
}

impl Drop for StreamEngine {
    fn drop(&mut self) {
        if self.global.final_report.lock().is_none() {
            self.stop_workers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use umicro::{InsertOutcome, UMicroConfig};
    use ustream_common::Timestamp;

    pub(super) fn pt(x: f64, y: f64, t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(vec![x, y], vec![0.3, 0.3], t, None)
    }

    pub(super) fn engine(n_micro: usize) -> StreamEngine {
        EngineBuilder::new(UMicroConfig::new(n_micro, 2).unwrap())
            .build()
            .unwrap()
    }

    /// A shard that reaches cut 1 before cut 0 (racing producers, or a
    /// rescue consumer behind a wedged worker) deposits its later part for
    /// both, and the late marker for cut 0 is dropped: cut 0 never holds
    /// more of the shard than cut 1.
    #[test]
    fn a_later_cut_deposited_first_stands_in_for_the_earlier_ones() {
        let table = CutTable {
            state: Mutex::new(Cuts::new(2)),
            filing: Mutex::new(()),
        };
        // A part of `n` one-record clusters, taken at tick `n`.
        let part = |k: u64, n: u64| Part {
            k,
            snap: ClusterSetSnapshot::from_pairs(
                (0..n).map(|id| (id, Ecf::from_point(&pt(id as f64, 0.0, n)))),
            ),
            max_tick: n,
        };
        assert!(
            !table.deposit(0, part(2, 3)),
            "shard 1 has deposited nothing"
        );
        assert!(!table.deposit(0, part(0, 5)), "a late marker is dropped");
        assert!(table.deposit(1, part(1, 1)), "cuts 0 and 1 complete");
        assert!(table.deposit(1, part(2, 2)));
        let filed: Vec<(usize, usize, Timestamp)> = table
            .state
            .lock()
            .complete
            .iter()
            .map(|c| (c.first.1.len(), c.rest[0].1.len(), c.stamp))
            .collect();
        // Shard 1's cut 1 stands in for its cut 0 the same way.
        assert_eq!(filed, vec![(3, 1, 3), (3, 1, 3), (3, 2, 3)]);
    }

    /// The memo clones an answer only where reads repeat: once a filing
    /// discards an answer no one asked for again, one read per generation
    /// memoises nothing, and a horizon asked for twice turns memoising
    /// back on.
    #[test]
    fn the_memo_stops_cloning_when_no_read_repeats() {
        let mut memo = Memo::default();
        let window = ClusterSetSnapshot::<Ecf>::default();
        let sparse = u64::from(MEMO_SPARSE_AFTER);
        for g in 0..sparse {
            memo.offer(g, 8, &window);
            assert!(memo.advance(g + 1).is_some(), "memoised at {g}");
        }
        for g in sparse..sparse + 3 {
            memo.offer(g, 8, &window);
            assert!(memo.advance(g + 1).is_none(), "generation {g}");
        }
        let g = sparse + 3;
        memo.offer(g, 8, &window);
        assert!(memo.hit(8).is_none());
        memo.offer(g, 8, &window);
        assert!(memo.hit(8).is_some(), "asked for twice");
        assert!(memo.advance(g + 1).is_some());
        memo.offer(g + 1, 30, &window);
        assert!(memo.hit(30).is_some(), "memoising is back on");
    }

    #[test]
    fn ingests_and_counts() {
        let e = engine(8);
        for t in 1..=500u64 {
            let x = if t % 2 == 0 { 0.0 } else { 20.0 };
            e.push(pt(x, x, t)).unwrap();
        }
        e.flush();
        assert_eq!(e.points_processed(), 500);
        assert!(!e.micro_clusters().is_empty());
        let report = e.shutdown();
        assert_eq!(report.points_processed, 500);
        assert_eq!(report.last_tick, 500);
        assert!(report.snapshots_retained > 0);
        assert_eq!(report.health, HealthStatus::Healthy);
        assert_eq!(report.points_rejected, 0);
    }

    #[test]
    fn macro_query_during_ingestion() {
        let e = engine(8);
        for t in 1..=200u64 {
            let x = if t % 2 == 0 { 0.0 } else { 30.0 };
            e.push(pt(x, -x, t)).unwrap();
        }
        e.flush();
        let mac = e.macro_clusters(2, 3);
        assert_eq!(mac.k(), 2);
        let mut lo = false;
        let mut hi = false;
        for c in &mac.centroids {
            if c[0] < 15.0 {
                lo = true;
            } else {
                hi = true;
            }
        }
        assert!(lo && hi, "centroids: {:?}", mac.centroids);
    }

    #[test]
    fn horizon_query_sees_recent_regime() {
        let e = engine(8);
        for t in 1..=1_024u64 {
            let x = if t <= 768 { 0.0 } else { 50.0 };
            e.push(pt(x, 0.0, t)).unwrap();
        }
        e.flush();
        let window = e.horizon_clusters(128).unwrap();
        let total = window.total_count();
        let new_mass: f64 = window
            .clusters
            .values()
            .map(|c| &**c)
            .filter(|c| ustream_common::AdditiveFeature::centroid(*c)[0] > 25.0)
            .map(ustream_common::AdditiveFeature::count)
            .sum();
        assert!(new_mass / total > 0.9, "{new_mass}/{total}");
        e.shutdown();
    }

    #[test]
    fn evolution_detects_regime_change() {
        let e = engine(12);
        for t in 1..=1_024u64 {
            let x = if t <= 512 { 0.0 } else { 60.0 };
            e.push(pt(x, 0.0, t)).unwrap();
        }
        e.flush();
        // Windows (0,512] vs (512,1024]: complete replacement.
        let report = e.evolution(512, 1.0).unwrap();
        assert!(report.emerged() > 0, "no emerged clusters: {report:?}");
        assert!(
            report.turbulence() > 0.5,
            "regime change should be turbulent: {}",
            report.turbulence()
        );
        e.shutdown();
    }

    #[test]
    fn novelty_alert_fires_on_outlier() {
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .novelty_factor(Some(4.0))
            .build()
            .unwrap();
        // Stable traffic, then one wild outlier.
        for t in 1..=400u64 {
            let x = (t % 7) as f64 * 0.1;
            e.push(pt(x, -x, t)).unwrap();
        }
        e.push(pt(10_000.0, -10_000.0, 401)).unwrap();
        for t in 402..=420u64 {
            e.push(pt(0.2, -0.2, t)).unwrap();
        }
        e.flush();
        let alerts = e.drain_alerts();
        assert!(
            alerts.iter().any(|a| a.timestamp == 401),
            "outlier not flagged: {alerts:?}"
        );
        let report = e.shutdown();
        assert!(report.alerts_raised >= 1);
    }

    #[test]
    fn quantile_baseline_novelty_alerting() {
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .novelty_factor(Some(4.0))
            .novelty_quantile(0.95)
            .build()
            .unwrap();
        for t in 1..=400u64 {
            let x = (t % 7) as f64 * 0.1;
            e.push(pt(x, -x, t)).unwrap();
        }
        e.push(pt(5_000.0, -5_000.0, 401)).unwrap();
        e.flush();
        let alerts = e.drain_alerts();
        assert!(
            alerts.iter().any(|a| a.timestamp == 401),
            "quantile baseline missed the outlier: {alerts:?}"
        );
        // The quantile baseline is far sturdier than the mean against a
        // heavy tail: regular traffic raised no alerts.
        assert!(alerts.len() <= 3, "too many false alerts: {}", alerts.len());
        e.shutdown();
    }

    #[test]
    fn mean_baseline_allocates_no_quantile_sketch() {
        // The default configuration baselines on the mean; the P² sketch
        // must not exist (and therefore cannot cost anything per point).
        let config = EngineConfig::new(UMicroConfig::new(4, 2).unwrap());
        assert!(NoveltyMonitor::new(&config).quantile.is_none());
        let config = EngineConfig {
            novelty_baseline: NoveltyBaseline::Quantile(0.9),
            ..config
        };
        assert!(NoveltyMonitor::new(&config).quantile.is_some());
        // Novelty disabled → no sketch either, whatever the baseline says.
        let config = EngineConfig {
            novelty_factor: None,
            ..config
        };
        assert!(NoveltyMonitor::new(&config).quantile.is_none());
    }

    #[test]
    fn decayed_engine_runs() {
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .decay_half_life(Some(200.0))
            .snapshot_every(8)
            .build()
            .unwrap();
        for t in 1..=300u64 {
            e.push(pt((t % 3) as f64, 0.0, t)).unwrap();
        }
        e.flush();
        let stats = e.stats();
        assert_eq!(stats.points_processed, 300);
        // Snapshot cadence of 8 → roughly 300/8 recordings (retention caps).
        assert!(stats.snapshots_retained > 0);
        e.shutdown();
    }

    #[test]
    fn multi_producer_ingestion() {
        let e = Arc::new(engine(16));
        let mut handles = Vec::new();
        for producer in 0..4u64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let t = producer * 250 + i + 1;
                    let x = (producer * 25) as f64;
                    e.push(pt(x, x, t)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        e.flush();
        assert_eq!(e.points_processed(), 1_000);
        let report = e.shutdown();
        assert_eq!(report.points_processed, 1_000);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let e = engine(4);
        e.push(pt(0.0, 0.0, 1)).unwrap();
        let a = e.shutdown();
        let b = e.shutdown();
        let c = e.stop();
        assert_eq!(a.points_processed, b.points_processed);
        // Regression: the second call must return the *cached* first report,
        // not re-sample a dead engine (which used to flip per-shard `alive`
        // accounting and re-send shutdowns into a closed channel).
        assert_eq!(a.health, b.health);
        assert_eq!(a.per_shard.len(), b.per_shard.len());
        for (x, y) in a.per_shard.iter().zip(&b.per_shard) {
            assert_eq!(x.processed, y.processed);
            assert_eq!(x.alive, y.alive);
        }
        assert_eq!(b.points_processed, c.points_processed);
        assert_eq!(b.load_stage, c.load_stage);
    }

    #[test]
    fn shutdown_drain_flushes_and_reports_deadline() {
        let e = engine(8);
        for t in 1..=500u64 {
            e.push(pt((t % 7) as f64, -((t % 5) as f64), t)).unwrap();
        }
        let outcome = e.shutdown_drain(Duration::from_secs(30));
        assert!(outcome.deadline_met, "generous deadline must be met");
        assert_eq!(outcome.report.points_processed, 500);
        // Admission is closed once draining starts.
        assert!(matches!(
            e.push(pt(0.0, 0.0, 501)),
            Err(UStreamError::EngineStopped)
        ));
    }

    #[test]
    fn sharded_engine_processes_everything() {
        let e = EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
            .shards(4)
            .snapshot_every(64)
            .build()
            .unwrap();
        assert_eq!(e.shards(), 4);
        for t in 1..=2_000u64 {
            let x = if t % 2 == 0 { 0.0 } else { 40.0 };
            e.push(pt(x, x, t)).unwrap();
        }
        e.flush();
        assert_eq!(e.points_processed(), 2_000);
        let report = e.shutdown();
        assert_eq!(report.points_processed, 2_000);
        assert_eq!(report.per_shard.len(), 4);
        // Round-robin: every shard saw an even quarter of the stream.
        for s in &report.per_shard {
            assert_eq!(s.processed, 500, "shard {} uneven: {s:?}", s.shard);
            assert_eq!(s.queue_depth, 0);
            assert_eq!(s.restarts, 0);
        }
        assert!(report.merges >= 2_000 / 64);
        assert!(report.mean_merge_micros > 0.0);
    }

    #[test]
    fn sharded_ids_are_namespaced_and_disjoint() {
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .shards(2)
            .snapshot_every(32)
            .build()
            .unwrap();
        for t in 1..=400u64 {
            let x = if t % 2 == 0 { 0.0 } else { 25.0 };
            e.push(pt(x, -x, t)).unwrap();
        }
        e.flush();
        let clusters = e.micro_clusters();
        let mut seen = std::collections::BTreeSet::new();
        for c in &clusters {
            assert!(seen.insert(c.id), "duplicate global id {}", c.id);
        }
        let shards_seen: std::collections::BTreeSet<usize> = clusters
            .iter()
            .map(|c| ustream_snapshot::shard_of_id(c.id))
            .collect();
        assert_eq!(shards_seen.len(), 2, "both shards hold clusters");
        e.shutdown();
    }

    #[test]
    fn sharded_merge_preserves_total_weight() {
        // Exactness of the shard merge: with a budget large enough that no
        // shard evicts, the merged live view carries every clustered point.
        let e = EngineBuilder::new(UMicroConfig::new(64, 2).unwrap())
            .shards(4)
            .snapshot_every(100)
            .build()
            .unwrap();
        for t in 1..=1_000u64 {
            e.push(pt((t % 5) as f64, (t % 3) as f64, t)).unwrap();
        }
        e.flush();
        let total: f64 = e
            .micro_clusters()
            .iter()
            .map(|c| ustream_common::AdditiveFeature::count(&c.ecf))
            .sum();
        assert!(
            (total - 1_000.0).abs() < 1e-6,
            "merged view lost weight: {total}"
        );
        e.shutdown();
    }

    #[test]
    fn custom_clusterer_factory() {
        // build_with lets callers supply their own OnlineClusterer stack.
        let config = EngineConfig::new(UMicroConfig::new(6, 2).unwrap());
        let shard_cfg = {
            let mut c = config.umicro.clone();
            c.n_micro = config.shard_n_micro();
            c
        };
        let e = EngineBuilder::from_config(config)
            .build_with(move |_i| Box::new(UMicro::new(shard_cfg.clone())) as DynClusterer)
            .unwrap();
        for t in 1..=100u64 {
            e.push(pt((t % 2) as f64 * 10.0, 0.0, t)).unwrap();
        }
        e.flush();
        assert_eq!(e.points_processed(), 100);
        e.shutdown();
    }

    // ---- novelty parity ---------------------------------------------------

    /// Forces the scalar reference isolation — the minimum over clusters
    /// of `corrected_sq_distance`, square-rooted — and leaves the scored
    /// batch insert to the trait default (isolation, then insert).
    struct ScalarIsolation {
        inner: UMicro,
    }

    impl OnlineClusterer for ScalarIsolation {
        type Summary = Ecf;

        fn insert(&mut self, p: &UncertainPoint) -> InsertOutcome {
            self.inner.insert(p)
        }

        fn live_clusters(&self) -> ClusterSetSnapshot<Ecf> {
            self.inner.live_clusters()
        }

        fn num_clusters(&self) -> usize {
            self.inner.num_clusters()
        }

        fn points_processed(&self) -> u64 {
            self.inner.points_processed()
        }

        fn isolation(&self, point: &UncertainPoint) -> Option<f64> {
            let best = self
                .inner
                .micro_clusters()
                .iter()
                .map(|c| umicro::distance::corrected_sq_distance(point, &c.ecf))
                .fold(f64::INFINITY, f64::min);
            best.is_finite().then(|| best.sqrt())
        }

        fn snapshot_at(&mut self, now: Timestamp) -> ClusterSetSnapshot<Ecf> {
            self.inner.snapshot_at(now)
        }

        fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
            self.inner.macro_cluster(k, seed)
        }
    }

    /// A seeded d=32 stream around four centres; every 97th record is an
    /// outlier, each farther out than the last.
    fn novelty_stream(len: u64) -> Vec<UncertainPoint> {
        let mut state = 0x5eed_u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        (1..=len)
            .map(|t| {
                let centre = if t % 97 == 0 {
                    300.0 * (t / 97) as f64
                } else {
                    (t % 4) as f64 * 10.0
                };
                let values = (0..32).map(|_| centre + unit() - 0.5).collect();
                let errors = (0..32).map(|_| 0.1 + 0.2 * unit()).collect();
                UncertainPoint::new(values, errors, t, None)
            })
            .collect()
    }

    fn drain_novelty(e: StreamEngine) -> Vec<NoveltyAlert> {
        e.flush();
        let alerts = e.drain_alerts();
        e.shutdown();
        alerts
    }

    /// Point-at-a-time and sliced ingestion raise the same alerts, and so
    /// does an engine scoring every record with the scalar reference.
    #[test]
    fn novelty_alerts_match_across_paths_and_reference() {
        let stream = novelty_stream(3_000);
        // One shard: alerts from several shards interleave by timing.
        let config = EngineBuilder::new(UMicroConfig::new(40, 32).unwrap())
            .shards(1)
            .novelty_factor(Some(4.0))
            .snapshot_every(256);
        let engine = || config.clone().build().unwrap();

        let pushed = engine();
        for p in &stream {
            pushed.push(p.clone()).unwrap();
        }
        let pushed = drain_novelty(pushed);

        let sliced = engine();
        for part in stream.chunks(300) {
            sliced.push_slice(part).unwrap();
        }
        let sliced = drain_novelty(sliced);

        let shard_cfg = UMicroConfig::new(40, 32).unwrap();
        let reference = config
            .clone()
            .build_with(move |_i| {
                Box::new(ScalarIsolation {
                    inner: UMicro::new(shard_cfg.clone()),
                }) as DynClusterer
            })
            .unwrap();
        reference.push_slice(&stream).unwrap();
        let reference = drain_novelty(reference);

        assert!(
            pushed.len() >= 20,
            "the injected outliers should alert: {}",
            pushed.len()
        );
        for (name, got) in [("push_slice", &sliced), ("scalar reference", &reference)] {
            assert_eq!(got.len(), pushed.len(), "{name}: alert count");
            for (a, b) in pushed.iter().zip(got) {
                assert_eq!(
                    (a.position, a.cluster_id),
                    (b.position, b.cluster_id),
                    "{name}"
                );
                assert!(
                    (a.isolation - b.isolation).abs() <= 1e-12 * a.isolation.max(b.isolation),
                    "{name}: isolation {} vs {}",
                    a.isolation,
                    b.isolation
                );
            }
        }
    }

    // ---- supervision -----------------------------------------------------

    /// A clusterer that panics on a sentinel record — exercises the worker
    /// supervision without the failpoints feature.
    struct Panicky {
        inner: DynClusterer,
    }

    impl OnlineClusterer for Panicky {
        type Summary = Ecf;

        fn insert(&mut self, p: &UncertainPoint) -> InsertOutcome {
            assert!(p.values()[0] < 600.0, "sentinel poison record");
            self.inner.insert(p)
        }

        fn live_clusters(&self) -> ClusterSetSnapshot<Ecf> {
            self.inner.live_clusters()
        }

        fn num_clusters(&self) -> usize {
            self.inner.num_clusters()
        }

        fn points_processed(&self) -> u64 {
            self.inner.points_processed()
        }

        fn isolation(&self, point: &UncertainPoint) -> Option<f64> {
            self.inner.isolation(point)
        }

        fn snapshot_at(&mut self, now: Timestamp) -> ClusterSetSnapshot<Ecf> {
            self.inner.snapshot_at(now)
        }

        fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
            self.inner.macro_cluster(k, seed)
        }

        fn export_state(&self) -> Option<ClustererState<Ecf>> {
            self.inner.export_state()
        }

        fn import_state(&mut self, state: &ClustererState<Ecf>) -> Result<()> {
            self.inner.import_state(state)
        }
    }

    /// A worker whose respawn fails stays down and retires its shard from
    /// the cut table: the other shard's cuts keep filing without it, also
    /// the cuts that cross on records routed to the dead shard.
    #[test]
    fn a_shard_that_cannot_respawn_stops_holding_up_cuts() {
        for every in [1, 2, 3] {
            let built = Arc::new(AtomicU64::new(0));
            let builds = Arc::clone(&built);
            let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
                .shards(2)
                .snapshot_every(every)
                .build_with(move |_shard| {
                    // Both shards build at launch; a respawn's build panics.
                    assert!(builds.fetch_add(1, Ordering::SeqCst) < 2, "no respawn");
                    Box::new(Panicky {
                        inner: Box::new(UMicro::new(UMicroConfig::new(4, 2).unwrap())),
                    }) as DynClusterer
                })
                .unwrap();
            for t in 1..=8u64 {
                e.push(pt((t % 2) as f64, 0.0, t)).unwrap();
            }
            e.flush();
            assert_eq!(e.stats().merges, 8 / every, "every {every}");
            // Record 9 goes to shard 0, which panics and cannot respawn.
            e.push(pt(666.0, 0.0, 9)).unwrap();
            let started = Instant::now();
            while e.stats().per_shard[0].alive && started.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(!e.stats().per_shard[0].alive);
            assert_eq!(built.load(Ordering::SeqCst), 3);
            // Records routed to the dead shard are refused; the cuts they
            // cross still reach shard 1, which keeps going.
            for t in 10..=21u64 {
                let _ = e.push(pt((t % 2) as f64, 0.0, t));
            }
            e.flush();
            assert_eq!(e.stats().merges, 21 / every, "every {every}");
            e.shutdown();
        }
    }

    #[test]
    fn worker_panic_respawns_and_reports_degraded() {
        let config = EngineConfig {
            snapshot_every: 8,
            ..EngineConfig::new(UMicroConfig::new(8, 2).unwrap())
        };
        let shard_cfg = {
            let mut c = config.umicro.clone();
            c.n_micro = config.shard_n_micro();
            c
        };
        let e = EngineBuilder::from_config(config)
            .build_with(move |_i| {
                Box::new(Panicky {
                    inner: Box::new(UMicro::new(shard_cfg.clone())),
                }) as DynClusterer
            })
            .unwrap();

        for t in 1..=64u64 {
            e.push(pt((t % 2) as f64, 0.0, t)).unwrap();
        }
        e.flush();
        assert_eq!(e.stats().health, HealthStatus::Healthy);
        let clusters_before = e.micro_clusters().len();
        assert!(clusters_before > 0);

        // The sentinel makes the worker panic mid-insert; the supervisor
        // respawns it seeded from the last merge and keeps draining.
        e.push(pt(666.0, 0.0, 65)).unwrap();
        e.flush();
        // Reseeded from the newest stored snapshot, the shard shares its
        // ECFs instead of copying them, so the next merge copies nothing.
        let newest = e
            .global
            .horizons
            .lock()
            .store()
            .newest()
            .map(|s| Arc::clone(&s.data))
            .unwrap();
        let live = e.live_clusters();
        assert_eq!(live.len(), newest.len());
        for (id, ecf) in &live.clusters {
            assert!(Arc::ptr_eq(ecf, &newest.clusters[id]), "cluster {id}");
        }
        for t in 66..=128u64 {
            e.push(pt((t % 2) as f64, 0.0, t)).unwrap();
        }
        e.flush(); // barrier replies only after the respawned worker drains

        let report = e.stats();
        assert_eq!(report.health, HealthStatus::Degraded);
        assert_eq!(report.per_shard[0].restarts, 1);
        assert!(report.per_shard[0].alive);
        assert!(
            report.per_shard[0]
                .last_panic
                .as_deref()
                .unwrap_or("")
                .contains("sentinel"),
            "panic payload lost: {:?}",
            report.per_shard[0].last_panic
        );
        // The respawned shard was reseeded from the merged history and kept
        // clustering: the merged view still holds clusters and ingestion
        // continued past the poison record.
        assert!(!e.micro_clusters().is_empty());
        // 64 + 1 poison + 63 tail; the poison record was counted before the
        // insert panicked (it is the at-most-one lost record).
        assert_eq!(e.points_processed(), 128);
        let final_report = e.shutdown();
        assert_eq!(final_report.health, HealthStatus::Degraded);
    }
}
