//! The producer path: the degradation ladder's admission gate,
//! producer-side validation, round-robin routing with the merge
//! boundaries it places, and the backpressure policies behind `push`,
//! `try_push`, `push_slice` and `push_with_timeout`.
//!
//! A cut is never dropped and never waited for. A cut that a full channel
//! cannot take without blocking stays *unsent*: the router keeps it, and it
//! goes out ahead of the next command or flush barrier sent to that shard,
//! so it still lands before anything routed to the shard after it. A cut
//! for a shard whose channel has closed goes with the shard, which the cut
//! table no longer waits for.

use super::{Command, Cut, StreamEngine};
use crate::load::LoadStage;
use crate::validate::{self, BackpressurePolicy, PointFault, ValidationPolicy};
use crossbeam::channel::TrySendError;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use ustream_common::{Result, Timestamp, UStreamError, UncertainPoint};

/// Why a [`StreamEngine::try_push`] could not enqueue; the record is handed
/// back in every variant.
#[derive(Debug)]
pub enum TryPushError {
    /// Every shard channel is at capacity (backpressure).
    Full(UncertainPoint),
    /// The engine has shut down.
    Stopped(UncertainPoint),
    /// The record failed validation under [`ValidationPolicy::Reject`] (or
    /// was unrepairable under [`ValidationPolicy::Clamp`]); the string says
    /// why.
    Invalid(UncertainPoint, String),
}

impl TryPushError {
    /// Recovers the record that could not be enqueued.
    pub fn into_inner(self) -> UncertainPoint {
        match self {
            TryPushError::Full(p) | TryPushError::Stopped(p) | TryPushError::Invalid(p, _) => p,
        }
    }

    /// Whether the failure was backpressure (retry later) rather than
    /// shutdown or rejection (permanent).
    pub fn is_full(&self) -> bool {
        matches!(self, TryPushError::Full(_))
    }
}

impl std::fmt::Display for TryPushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryPushError::Full(_) => f.write_str("all shard channels are full"),
            TryPushError::Stopped(_) => f.write_str("engine workers have stopped"),
            TryPushError::Invalid(_, reason) => write!(f, "invalid record: {reason}"),
        }
    }
}

impl std::error::Error for TryPushError {}

/// What producer-side validation decided about a record.
enum Admit {
    /// Valid (possibly repaired) — enqueue it.
    Enqueue(UncertainPoint),
    /// Diverted into quarantine; the push still succeeds.
    Consumed,
    /// Refused; the point and its fault travel back to the producer.
    Rejected(UncertainPoint, PointFault),
}

/// Producer-side routing, decided under one lock per call so a call's
/// shard, its record ordinals and the cuts it crosses agree.
#[derive(Debug, Default)]
pub(super) struct Router {
    /// Calls routed so far; a call starts at shard `cursor mod shards`.
    pub(super) cursor: u64,
    /// Records routed so far (attempts a full channel refused included).
    routed: u64,
    /// The highest tick routed so far.
    max_tick: Timestamp,
    /// Cuts issued so far: the next one is cut `cuts`.
    cuts: u64,
    /// `routed` at the last cut.
    cut_at: u64,
    /// Cuts a full channel could not take without blocking, each with its
    /// shard, oldest first.
    unsent: Vec<(usize, Cut)>,
}

impl Router {
    /// Routing resumed at a checkpoint: the cursor, the records routed and
    /// the clock, with no cut issued yet.
    pub(super) fn resume(cursor: u64, routed: u64, max_tick: Timestamp) -> Self {
        Self {
            cursor,
            routed,
            max_tick,
            cut_at: routed,
            ..Self::default()
        }
    }
}

/// One routed call: its first shard, the merge boundaries its records
/// cross — one every `every` routed records — and the cuts earlier
/// calls left unsent, which it delivers.
struct Routed {
    shard: usize,
    /// Records routed before the call.
    start: u64,
    every: u64,
    /// The call crosses cuts `first_cut..first_cut + crossed`.
    first_cut: u64,
    crossed: u64,
    /// The highest tick routed before the call.
    prior_max: Timestamp,
    /// The router's unsent cuts, taken out for this call to send.
    unsent: Vec<(usize, Cut)>,
}

impl Routed {
    /// The cut a one-record call crosses, if any.
    fn point_cut(&self, tick: Timestamp) -> Option<Cut> {
        (self.crossed > 0).then(|| Cut {
            k: self.first_cut,
            stamp: self.prior_max.max(tick),
        })
    }

    /// The cuts the call crosses, each with how many of the call's records
    /// precede it, given the call's ticks in order. Each cut is stamped
    /// with the highest tick routed up to its boundary.
    fn cuts(&self, ticks: impl Iterator<Item = Timestamp>) -> Vec<(usize, Cut)> {
        let mut cuts = Vec::with_capacity(self.crossed as usize);
        let mut stamp = self.prior_max;
        let mut boundary = (self.start / self.every + 1) * self.every;
        for (at, (ordinal, tick)) in (1..).zip((self.start + 1..).zip(ticks)) {
            stamp = stamp.max(tick);
            if ordinal == boundary {
                let k = self.first_cut + cuts.len() as u64;
                cuts.push((at, Cut { k, stamp }));
                boundary += self.every;
            }
        }
        cuts
    }
}

impl StreamEngine {
    /// Routes a call of `len` records whose highest tick is `max_tick`:
    /// picks its first shard round-robin, numbers its records, issues a
    /// cut for every boundary they cross at the cadence in force now, and
    /// takes out the unsent cuts for the call to deliver.
    fn route(&self, len: u64, max_tick: Timestamp) -> Routed {
        let every = self.global.merge_every();
        let shards = self.txs.len() as u64;
        let mut router = self.global.router.lock();
        let shard = (router.cursor % shards) as usize;
        router.cursor += 1;
        let start = router.routed;
        router.routed += len;
        let prior_max = router.max_tick;
        router.max_tick = prior_max.max(max_tick);
        let crossed = router.routed / every - start / every;
        let first_cut = router.cuts;
        router.cuts += crossed;
        if crossed > 0 {
            router.cut_at = router.routed / every * every;
        }
        Routed {
            shard,
            start,
            every,
            first_cut,
            crossed,
            prior_max,
            unsent: std::mem::take(&mut router.unsent),
        }
    }

    /// Issues a cut at everything routed so far, unless the last cut is
    /// already there, and leaves it unsent for every shard: the drain's
    /// final merge, which goes out ahead of the flush barriers after it.
    pub(super) fn cut_now(&self) {
        let shards = self.txs.len();
        let mut router = self.global.router.lock();
        if router.routed > router.cut_at {
            let cut = Cut {
                k: router.cuts,
                stamp: router.max_tick,
            };
            router.cuts += 1;
            router.cut_at = router.routed;
            router.unsent.extend((0..shards).map(|s| (s, cut)));
        }
    }

    /// Sends every unsent cut, blocking while a channel is full: a flush
    /// barrier goes out behind them.
    pub(super) fn send_unsent(&self) {
        let unsent = std::mem::take(&mut self.global.router.lock().unsent);
        for (s, cut) in unsent {
            let _ = self.txs[s].send(Command::Cut(cut));
        }
    }

    /// `cut` for every shard but `took`, the one that took the call's
    /// record.
    fn cut_others(
        &self,
        cut: Option<Cut>,
        took: Option<usize>,
    ) -> impl Iterator<Item = (usize, Cut)> {
        let shards = self.txs.len();
        cut.into_iter().flat_map(move |cut| {
            (0..shards)
                .filter(move |&s| Some(s) != took)
                .map(move |s| (s, cut))
        })
    }

    /// Sends shard `s` the cuts `unsent` holds for it, in order, then `cmd`,
    /// blocking on a full channel when `block` is set. A full channel hands
    /// `cmd` back with the cuts it did not take still unsent; a closed one
    /// hands it back and drops the shard's cuts.
    fn send_behind(
        &self,
        s: usize,
        unsent: &mut Vec<(usize, Cut)>,
        cmd: Command,
        block: bool,
    ) -> std::result::Result<(), TrySendError<Command>> {
        let send = |cmd: Command| {
            if block {
                self.txs[s]
                    .send(cmd)
                    .map_err(|e| TrySendError::Disconnected(e.0))
            } else {
                self.txs[s].try_send(cmd)
            }
        };
        while let Some(at) = unsent.iter().position(|&(to, _)| to == s) {
            match send(Command::Cut(unsent[at].1)) {
                Ok(()) => {
                    unsent.remove(at);
                }
                Err(TrySendError::Full(_)) => return Err(TrySendError::Full(cmd)),
                Err(TrySendError::Disconnected(_)) => {
                    unsent.retain(|&(to, _)| to != s);
                    return Err(TrySendError::Disconnected(cmd));
                }
            }
        }
        send(cmd)
    }

    /// Ends a call without blocking: sends the unsent cuts it did not
    /// deliver, then `fresh`, its standalone cuts. A cut a full channel
    /// refuses, and every later one for that shard, goes back to the
    /// router ahead of any left unsent since.
    fn settle(&self, mut unsent: Vec<(usize, Cut)>, fresh: impl Iterator<Item = (usize, Cut)>) {
        let mut full: Vec<usize> = Vec::new();
        let mut sent = |s: usize, cut: Cut| {
            if full.contains(&s) {
                return false;
            }
            match self.txs[s].try_send(Command::Cut(cut)) {
                Err(TrySendError::Full(_)) => {
                    full.push(s);
                    false
                }
                // A closed channel's shard is gone: its cuts go with it.
                _ => true,
            }
        };
        unsent.retain(|&(s, cut)| !sent(s, cut));
        for (s, cut) in fresh {
            if !sent(s, cut) {
                unsent.push((s, cut));
            }
        }
        if !unsent.is_empty() {
            let mut router = self.global.router.lock();
            unsent.append(&mut router.unsent);
            router.unsent = unsent;
        }
    }

    /// The degradation ladder's verdict on one record, ahead of
    /// validation: `true` lets it through; a record the `Sample` or `Shed`
    /// rung drops is counted and the push succeeds without it.
    fn ladder_admits(&self) -> bool {
        let dropped = match self.global.load_stage() {
            LoadStage::Normal | LoadStage::WidenMerge => return true,
            LoadStage::Sample => {
                if self.sample_keeps() {
                    return true;
                }
                &self.global.sampled_out
            }
            LoadStage::Shed => &self.global.points_shed,
        };
        dropped.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
        false
    }

    /// Deterministic uniform sampling:
    /// [`LoadPolicy::keeps`](crate::LoadPolicy::keeps) over the next
    /// admission ordinal.
    fn sample_keeps(&self) -> bool {
        let seq = self.global.admit_seq.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
        self.global.load_policy().keeps(seq)
    }

    /// Runs the configured validation over one record.
    fn admit(&self, point: UncertainPoint) -> Admit {
        let Some(policy) = self.global.config.validation else {
            return Admit::Enqueue(point);
        };
        let clock = self
            .global
            .config
            .monotone_timestamps
            .then(|| self.global.last_tick.load(Ordering::Relaxed)); // relaxed-ok: monotone watermark; readers tolerate a lagging value
        match validate::check_point(&point, self.global.config.umicro.dims, clock) {
            Ok(()) => Admit::Enqueue(point),
            Err(fault) => match policy {
                ValidationPolicy::Clamp if fault.clampable() => {
                    self.global.clamped.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    Admit::Enqueue(validate::clamp_point(&point, clock))
                }
                ValidationPolicy::Quarantine => {
                    self.global.quarantine.lock().admit(point, &fault);
                    Admit::Consumed
                }
                _ => {
                    self.global.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    Admit::Rejected(point, fault)
                }
            },
        }
    }

    /// Enqueues one record for clustering.
    ///
    /// The record first passes the configured [`ValidationPolicy`]; a
    /// rejected record comes back as [`UStreamError::InvalidPoint`], a
    /// quarantined one succeeds without being clustered. What happens when
    /// every shard channel is full depends on the [`BackpressurePolicy`]:
    /// `Block` waits (the default), `DropNewest` drops and counts the
    /// record, `Error` returns [`UStreamError::Backpressure`].
    ///
    /// Errors with [`UStreamError::EngineStopped`] after shutdown instead
    /// of panicking; the record is dropped in that case — use
    /// [`Self::try_push`] when the caller needs the record back.
    pub fn push(&self, point: UncertainPoint) -> Result<()> {
        match self.admit_pushed(point)? {
            Some(point) => self.dispatch_point(point),
            None => Ok(()),
        }
    }

    /// [`Self::push`] with a backpressure deadline: under a full channel
    /// the call retries non-blocking enqueues until `deadline` elapses,
    /// then returns [`UStreamError::DeadlineExceeded`] — regardless of the
    /// configured [`BackpressurePolicy`]. Producers that can tolerate
    /// bounded latency but not unbounded blocking use this instead of
    /// `push`. The typed deadline error lets callers (the serving
    /// front-end in particular) distinguish "my time budget ran out"
    /// (retry against a fresh deadline, or fail the request) from the
    /// instantaneous [`UStreamError::Backpressure`] signal (retry soon).
    /// The record is routed once, so retries cross no extra boundary, and
    /// the call never waits on a cut.
    pub fn push_with_timeout(&self, point: UncertainPoint, deadline: Duration) -> Result<()> {
        let Some(mut point) = self.admit_pushed(point)? else {
            return Ok(());
        };
        let tick = point.timestamp();
        let mut routed = self.route(1, tick);
        let cut = routed.point_cut(tick);
        let started = Instant::now();
        let outcome = loop {
            match self.try_send_point(point, routed.shard, cut, &mut routed.unsent) {
                Ok(s) => break Ok(s),
                Err(TryPushError::Full(p)) => {
                    let waited = started.elapsed();
                    if waited >= deadline {
                        break Err(UStreamError::DeadlineExceeded {
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                    point = p;
                    let backoff = Duration::from_micros(200).min(deadline - waited);
                    // lint:allow(no-sleep): bounded backpressure backoff chosen by the caller via push_with_timeout
                    std::thread::sleep(backoff);
                }
                Err(_) => break Err(UStreamError::EngineStopped),
            }
        };
        let took = outcome.as_ref().ok().copied();
        self.settle(routed.unsent, self.cut_others(cut, took));
        outcome.map(drop)
    }

    /// The front `push` and `push_with_timeout` share: the drain check,
    /// the ladder gate and validation. `Ok(None)` means the ladder dropped
    /// the record or validation quarantined it, and the push succeeds.
    fn admit_pushed(&self, point: UncertainPoint) -> Result<Option<UncertainPoint>> {
        #[cfg(feature = "failpoints")]
        let point = crate::failpoints::maybe_poison(point);
        if self.global.draining.load(Ordering::Acquire) {
            return Err(UStreamError::EngineStopped);
        }
        if !self.ladder_admits() {
            return Ok(None);
        }
        match self.admit(point) {
            Admit::Consumed => Ok(None),
            Admit::Rejected(_, fault) => Err(UStreamError::InvalidPoint(fault.to_string())),
            Admit::Enqueue(point) => Ok(Some(point)),
        }
    }

    /// Routes one already-validated record under the backpressure policy.
    fn dispatch_point(&self, point: UncertainPoint) -> Result<()> {
        match self.global.config.backpressure {
            BackpressurePolicy::Block => {
                let tick = point.timestamp();
                let mut routed = self.route(1, tick);
                let cut = routed.point_cut(tick);
                let s = routed.shard;
                let cmd = Command::Point(Box::new(point), cut);
                let sent = self.send_behind(s, &mut routed.unsent, cmd, true);
                let took = sent.is_ok().then_some(s);
                if took.is_some() {
                    self.shards[s]
                        .counters
                        .enqueued
                        .fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                }
                self.settle(routed.unsent, self.cut_others(cut, took));
                sent.map_err(|_| UStreamError::EngineStopped)
            }
            BackpressurePolicy::DropNewest => match self.try_enqueue(point) {
                Ok(()) => Ok(()),
                Err(TryPushError::Full(_)) => {
                    self.global
                        .backpressure_dropped
                        .fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    Ok(())
                }
                Err(_) => Err(UStreamError::EngineStopped),
            },
            BackpressurePolicy::Error => match self.try_enqueue(point) {
                Ok(()) => Ok(()),
                Err(TryPushError::Full(_)) => Err(UStreamError::Backpressure),
                Err(_) => Err(UStreamError::EngineStopped),
            },
        }
    }

    /// Non-blocking push: tries every shard once (starting at the
    /// round-robin cursor) and hands the record back if it fails
    /// validation, all channels are full, or the engine has stopped.
    pub fn try_push(&self, point: UncertainPoint) -> std::result::Result<(), TryPushError> {
        #[cfg(feature = "failpoints")]
        let point = crate::failpoints::maybe_poison(point);
        if self.global.draining.load(Ordering::Acquire) {
            return Err(TryPushError::Stopped(point));
        }
        if !self.ladder_admits() {
            return Ok(());
        }
        match self.admit(point) {
            Admit::Consumed => Ok(()),
            Admit::Rejected(point, fault) => Err(TryPushError::Invalid(point, fault.to_string())),
            Admit::Enqueue(point) => self.try_enqueue(point),
        }
    }

    /// Routes one record and tries every shard once; the cut it crossed
    /// goes to every other shard, or to all of them when none took it.
    fn try_enqueue(&self, point: UncertainPoint) -> std::result::Result<(), TryPushError> {
        let tick = point.timestamp();
        let mut routed = self.route(1, tick);
        let cut = routed.point_cut(tick);
        let sent = self.try_send_point(point, routed.shard, cut, &mut routed.unsent);
        let took = sent.as_ref().ok().copied();
        self.settle(routed.unsent, self.cut_others(cut, took));
        sent.map(drop)
    }

    /// Tries every shard once from `start`, each behind the cuts `unsent`
    /// holds for it; returns the shard that took the record (with `cut`
    /// right after it).
    fn try_send_point(
        &self,
        point: UncertainPoint,
        start: usize,
        cut: Option<Cut>,
        unsent: &mut Vec<(usize, Cut)>,
    ) -> std::result::Result<usize, TryPushError> {
        let n = self.txs.len();
        let mut cmd = Command::Point(Box::new(point), cut);
        for off in 0..n {
            let s = (start + off) % n;
            match self.send_behind(s, unsent, cmd, false) {
                Ok(()) => {
                    self.shards[s]
                        .counters
                        .enqueued
                        .fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    return Ok(s);
                }
                Err(TrySendError::Full(c)) => cmd = c,
                Err(TrySendError::Disconnected(c)) => {
                    return Err(TryPushError::Stopped(Self::unwrap_point(c)));
                }
            }
        }
        Err(TryPushError::Full(Self::unwrap_point(cmd)))
    }

    fn unwrap_point(cmd: Command) -> UncertainPoint {
        match cmd {
            Command::Point(p, _) => *p,
            _ => unreachable!("only points travel through try_send_point"),
        }
    }

    /// Batch push: splits the slice into one contiguous chunk per shard and
    /// enqueues each chunk in a single channel hop — amortising the
    /// per-record routing and channel cost for bulk producers. Each record
    /// is copied once, into the chunk that carries it.
    ///
    /// Validation is atomic per call: if any record is rejected under the
    /// active policy (or is unrepairable under `Clamp`), *nothing* is
    /// enqueued and the first fault comes back as
    /// [`UStreamError::InvalidPoint`]. Quarantined records are diverted and
    /// the rest of the batch proceeds. Under
    /// [`BackpressurePolicy::DropNewest`] a full shard drops its whole
    /// chunk (counted per record).
    pub fn push_slice(&self, points: &[UncertainPoint]) -> Result<()> {
        if points.is_empty() {
            return Ok(());
        }
        if self.global.draining.load(Ordering::Acquire) {
            return Err(UStreamError::EngineStopped);
        }
        let sampling = match self.global.load_stage() {
            LoadStage::Normal | LoadStage::WidenMerge => false,
            LoadStage::Shed => {
                self.global
                    .points_shed
                    .fetch_add(points.len() as u64, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                return Ok(());
            }
            LoadStage::Sample => true,
        };
        let mut kept = 0;
        let gated = points.iter().filter(|_| !sampling || self.sample_keeps());
        let admitted: std::result::Result<Vec<UncertainPoint>, PointFault> =
            match self.global.config.validation {
                None => Ok(gated.inspect(|_| kept += 1).cloned().collect()),
                Some(policy) => {
                    let clock = self
                        .global
                        .config
                        .monotone_timestamps
                        .then(|| self.global.last_tick.load(Ordering::Relaxed)); // relaxed-ok: monotone watermark; readers tolerate a lagging value
                    let dims = self.global.config.umicro.dims;
                    let mut admitted = Vec::with_capacity(points.len());
                    let mut quarantined: Vec<(UncertainPoint, PointFault)> = Vec::new();
                    let mut first_fault: Option<PointFault> = None;
                    let mut reject_count = 0u64;
                    let mut clamp_count = 0u64;
                    for p in gated {
                        kept += 1;
                        match validate::check_point(p, dims, clock) {
                            Ok(()) => admitted.push(p.clone()),
                            Err(fault) => match policy {
                                ValidationPolicy::Clamp if fault.clampable() => {
                                    clamp_count += 1;
                                    admitted.push(validate::clamp_point(p, clock));
                                }
                                ValidationPolicy::Quarantine => {
                                    quarantined.push((p.clone(), fault));
                                }
                                _ => {
                                    reject_count += 1;
                                    first_fault.get_or_insert(fault);
                                }
                            },
                        }
                    }
                    match first_fault {
                        Some(fault) => {
                            self.global
                                .rejected
                                .fetch_add(reject_count, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                            Err(fault)
                        }
                        None => {
                            self.global
                                .clamped
                                .fetch_add(clamp_count, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                            if !quarantined.is_empty() {
                                let mut q = self.global.quarantine.lock();
                                for (p, fault) in quarantined {
                                    q.admit(p, &fault);
                                }
                            }
                            Ok(admitted)
                        }
                    }
                }
            };
        if sampling {
            self.global
                .sampled_out
                .fetch_add((points.len() - kept) as u64, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
        }
        let admitted = admitted.map_err(|fault| UStreamError::InvalidPoint(fault.to_string()))?;
        if admitted.is_empty() {
            return Ok(());
        }
        self.dispatch_slice(admitted)
    }

    /// Routes an admitted batch: one contiguous chunk per shard from the
    /// round-robin cursor, each carrying the cuts that fall in it, and a
    /// standalone cut for each shard that gets no chunk. The chunks are
    /// split off the back of `admitted`, so no record is copied again. A
    /// chunk that is refused, or that follows an `Error` refusal or a
    /// closed channel, still sends its cuts, standalone.
    fn dispatch_slice(&self, mut admitted: Vec<UncertainPoint>) -> Result<()> {
        let ticks = || admitted.iter().map(UncertainPoint::timestamp);
        let max_tick = ticks().max().unwrap_or(0);
        let mut routed = self.route(admitted.len() as u64, max_tick);
        let cuts = if routed.crossed > 0 {
            routed.cuts(ticks())
        } else {
            Vec::new()
        };
        let policy = self.global.config.backpressure;
        let block = policy == BackpressurePolicy::Block;
        let n = self.txs.len();
        let chunk = admitted.len().div_ceil(n);
        let parts = admitted.len().div_ceil(chunk);
        let mut fresh = Vec::new();
        for off in parts..n {
            let s = (routed.shard + off) % n;
            fresh.extend(cuts.iter().map(|&(_, cut)| (s, cut)));
        }
        let mut outcome = Ok(());
        for off in (0..parts).rev() {
            let s = (routed.shard + off) % n;
            let part = admitted.split_off(off * chunk);
            let len = part.len();
            let marks: Vec<(usize, Cut)> = cuts
                .iter()
                .map(|&(at, cut)| (at.saturating_sub(off * chunk).min(len), cut))
                .collect();
            if outcome.is_err() {
                fresh.extend(marks.into_iter().map(|(_, cut)| (s, cut)));
                continue;
            }
            let cmd = Command::Batch(part, marks);
            match self.send_behind(s, &mut routed.unsent, cmd, block) {
                Ok(()) => {
                    self.shards[s]
                        .counters
                        .enqueued
                        .fetch_add(len as u64, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                }
                Err(TrySendError::Full(cmd)) => {
                    if policy == BackpressurePolicy::Error {
                        outcome = Err(UStreamError::Backpressure);
                    } else {
                        self.global
                            .backpressure_dropped
                            .fetch_add(len as u64, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    }
                    if let Command::Batch(_, marks) = cmd {
                        fresh.extend(marks.into_iter().map(|(_, cut)| (s, cut)));
                    }
                }
                Err(TrySendError::Disconnected(_)) => outcome = Err(UStreamError::EngineStopped),
            }
        }
        self.settle(routed.unsent, fresh.into_iter());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{engine, pt};
    use super::*;
    use crate::{DynClusterer, EngineBuilder};
    use umicro::{
        ClustererState, Ecf, InsertOutcome, MacroClustering, OnlineClusterer, UMicro, UMicroConfig,
    };
    use ustream_common::Timestamp;
    use ustream_snapshot::ClusterSetSnapshot;

    #[test]
    fn push_with_timeout_accepts_when_idle_and_stops_when_down() {
        let e = engine(8);
        e.push_with_timeout(pt(1.0, 1.0, 1), Duration::from_millis(100))
            .unwrap();
        e.flush();
        assert_eq!(e.points_processed(), 1);
        e.shutdown();
        assert!(matches!(
            e.push_with_timeout(pt(1.0, 1.0, 2), Duration::from_millis(10)),
            Err(UStreamError::EngineStopped)
        ));
    }

    #[test]
    fn push_with_timeout_reports_deadline_exceeded_on_full_channel() {
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .channel_capacity(1)
            .build_with(|_shard| -> DynClusterer {
                Box::new(Sluggish {
                    inner: Box::new(UMicro::new(UMicroConfig::new(8, 2).unwrap())),
                    delay: Duration::from_millis(20),
                })
            })
            .unwrap();
        // Saturate: each insert takes ~20ms, capacity 1, so a short deadline
        // cannot win the enqueue race for long.
        let mut saw_deadline = false;
        for t in 1..=50u64 {
            match e.push_with_timeout(pt(0.0, 0.0, t), Duration::from_micros(50)) {
                Ok(()) => {}
                Err(UStreamError::DeadlineExceeded { .. }) => {
                    saw_deadline = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(saw_deadline, "a 50µs deadline must eventually trip");
        e.shutdown();
    }

    /// A boundary on a record whose channels are full costs no wait: every
    /// record crosses one here, and each call returns within its deadline
    /// (plus scheduling slack well under one 150 ms insert), with the cuts
    /// no channel could take left unsent instead.
    #[test]
    fn push_with_timeout_never_waits_on_a_cut() {
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .shards(2)
            .channel_capacity(1)
            .build_with(|_shard| -> DynClusterer {
                Box::new(Sluggish {
                    inner: Box::new(UMicro::new(UMicroConfig::new(4, 2).unwrap())),
                    delay: Duration::from_millis(150),
                })
            })
            .unwrap();
        let deadline = Duration::from_millis(2);
        let mut refused = 0;
        for t in 1..=8u64 {
            let started = Instant::now();
            let pushed = e.push_with_timeout(pt(0.0, 0.0, t), deadline);
            let took = started.elapsed();
            assert!(
                took < deadline + Duration::from_millis(40),
                "record {t} took {took:?}: {pushed:?}"
            );
            match pushed {
                Ok(()) => {}
                Err(UStreamError::DeadlineExceeded { .. }) => refused += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(refused > 0, "the channels never filled");
        e.shutdown();
    }

    #[test]
    fn push_after_shutdown_errors_instead_of_panicking() {
        let e = engine(4);
        e.shutdown();
        assert!(matches!(
            e.push(pt(0.0, 0.0, 1)),
            Err(UStreamError::EngineStopped)
        ));
        assert!(matches!(
            e.try_push(pt(0.0, 0.0, 1)),
            Err(TryPushError::Stopped(_))
        ));
        assert!(e.push_slice(&[pt(0.0, 0.0, 1)]).is_err());
    }

    #[test]
    fn push_slice_batches_across_shards() {
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .shards(2)
            .snapshot_every(50)
            .build()
            .unwrap();
        let batch: Vec<UncertainPoint> = (1..=600u64).map(|t| pt((t % 4) as f64, 0.0, t)).collect();
        e.push_slice(&batch).unwrap();
        e.flush();
        assert_eq!(e.points_processed(), 600);
        let report = e.shutdown();
        // Contiguous halves: both shards got exactly half the batch.
        assert_eq!(report.per_shard[0].processed, 300);
        assert_eq!(report.per_shard[1].processed, 300);
    }

    #[test]
    fn try_push_hands_point_back_when_full() {
        let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
            .snapshot_every(1_000)
            .build()
            .unwrap();
        // The success path, then the deterministic Stopped path with the
        // record handed back intact.
        assert!(e.try_push(pt(0.0, 0.0, 1)).is_ok());
        e.flush();
        e.shutdown();
        match e.try_push(pt(7.0, 7.0, 2)) {
            Err(err) => {
                assert!(!err.is_full());
                let p = err.into_inner();
                assert_eq!(p.values(), &[7.0, 7.0]);
            }
            Ok(()) => panic!("push into a stopped engine must fail"),
        }
    }

    // ---- validation / quarantine ----------------------------------------

    #[test]
    fn reject_policy_refuses_nan_points() {
        let e = engine(8); // default policy: Reject
        match e.push(pt(f64::NAN, 0.0, 1)) {
            Err(UStreamError::InvalidPoint(msg)) => {
                assert!(msg.contains("non-finite"), "unexpected message: {msg}");
            }
            other => panic!("NaN push should be rejected, got {other:?}"),
        }
        // try_push hands the record back with the reason.
        match e.try_push(pt(f64::INFINITY, 0.0, 2)) {
            Err(TryPushError::Invalid(p, reason)) => {
                assert!(p.values()[0].is_infinite());
                assert!(reason.contains("non-finite"));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        e.flush();
        let report = e.stats();
        assert_eq!(report.points_rejected, 2);
        assert_eq!(report.points_processed, 0);
        e.shutdown();
    }

    #[test]
    fn clamp_policy_repairs_nan_points() {
        let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
            .validation(Some(ValidationPolicy::Clamp))
            .build()
            .unwrap();
        e.push(pt(f64::NAN, 5.0, 1)).unwrap();
        e.push(pt(1.0, 5.0, 2)).unwrap();
        e.flush();
        let report = e.stats();
        assert_eq!(report.points_clamped, 1);
        assert_eq!(report.points_processed, 2);
        // The clamped coordinate entered as 0.0 — everything stays finite.
        for c in e.micro_clusters() {
            let centroid = ustream_common::AdditiveFeature::centroid(&c.ecf);
            assert!(centroid.iter().all(|v| v.is_finite()), "{centroid:?}");
        }
        e.shutdown();
    }

    #[test]
    fn clamp_policy_still_rejects_dimension_mismatch() {
        let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
            .validation(Some(ValidationPolicy::Clamp))
            .build()
            .unwrap();
        let skinny = UncertainPoint::new(vec![1.0], vec![0.1], 1, None);
        assert!(matches!(e.push(skinny), Err(UStreamError::InvalidPoint(_))));
        assert_eq!(e.stats().points_rejected, 1);
        e.shutdown();
    }

    #[test]
    fn quarantine_policy_diverts_and_counts() {
        let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
            .validation(Some(ValidationPolicy::Quarantine))
            .quarantine_capacity(4)
            .build()
            .unwrap();
        e.push(pt(f64::NAN, 0.0, 1)).unwrap(); // diverted, not an error
        e.push(pt(1.0, 1.0, 2)).unwrap();
        e.flush();
        let report = e.stats();
        assert_eq!(report.points_quarantined, 1);
        assert_eq!(report.points_processed, 1);
        let held = e.drain_quarantine();
        assert_eq!(held.len(), 1);
        assert!(held[0].fault.contains("non-finite"), "{}", held[0].fault);
        assert!(held[0].point.values()[0].is_nan());
        assert!(e.drain_quarantine().is_empty());
        e.shutdown();
    }

    #[test]
    fn push_slice_rejects_batches_atomically() {
        let e = engine(8); // Reject policy
        let batch = vec![pt(0.0, 0.0, 1), pt(f64::NAN, 0.0, 2), pt(1.0, 1.0, 3)];
        assert!(matches!(
            e.push_slice(&batch),
            Err(UStreamError::InvalidPoint(_))
        ));
        e.flush();
        // Nothing from the poisoned batch was enqueued.
        assert_eq!(e.points_processed(), 0);
        assert_eq!(e.stats().points_rejected, 1);
        e.shutdown();
    }

    #[test]
    fn monotone_timestamps_enforced_when_asked() {
        let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
            .monotone_timestamps(true)
            .build()
            .unwrap();
        e.push(pt(0.0, 0.0, 100)).unwrap();
        e.flush();
        match e.push(pt(0.0, 0.0, 5)) {
            Err(UStreamError::InvalidPoint(msg)) => {
                assert!(msg.contains("behind the engine clock"), "{msg}");
            }
            other => panic!("stale timestamp should be rejected, got {other:?}"),
        }
        e.shutdown();
    }

    /// A clusterer whose every insert takes `delay` — saturates a tiny
    /// channel so backpressure paths can be exercised deterministically.
    struct Sluggish {
        inner: DynClusterer,
        delay: Duration,
    }

    impl OnlineClusterer for Sluggish {
        type Summary = Ecf;

        fn insert(&mut self, p: &UncertainPoint) -> InsertOutcome {
            std::thread::sleep(self.delay);
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
}
