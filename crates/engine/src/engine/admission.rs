//! The producer path: the degradation ladder's admission gate,
//! producer-side validation, round-robin routing and the backpressure
//! policies behind `push`, `try_push`, `push_slice` and
//! `push_with_timeout`.

use super::{Command, StreamEngine};
use crate::load::LoadStage;
use crate::validate::{self, BackpressurePolicy, PointFault, ValidationPolicy};
use crossbeam::channel::TrySendError;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use ustream_common::{Result, UStreamError, UncertainPoint};

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

impl StreamEngine {
    /// The next shard index in round-robin order.
    fn route(&self) -> usize {
        // relaxed-ok: monotone counter; only uniqueness matters, report readers tolerate lag
        (self.global.router.fetch_add(1, Ordering::Relaxed) % self.txs.len() as u64) as usize
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
    pub fn push_with_timeout(&self, point: UncertainPoint, deadline: Duration) -> Result<()> {
        let Some(mut point) = self.admit_pushed(point)? else {
            return Ok(());
        };
        let started = Instant::now();
        loop {
            match self.try_enqueue(point) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Full(p)) => {
                    let waited = started.elapsed();
                    if waited >= deadline {
                        return Err(UStreamError::DeadlineExceeded {
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                    point = p;
                    // lint:allow(no-sleep): bounded backpressure backoff chosen by the caller via push_with_timeout
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => return Err(UStreamError::EngineStopped),
            }
        }
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
                let s = self.route();
                self.txs[s]
                    .send(Command::Point(Box::new(point)))
                    .map_err(|_| UStreamError::EngineStopped)?;
                self.shards[s]
                    .counters
                    .enqueued
                    .fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                Ok(())
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

    fn try_enqueue(&self, point: UncertainPoint) -> std::result::Result<(), TryPushError> {
        let n = self.txs.len();
        let start = self.route();
        let mut cmd = Command::Point(Box::new(point));
        for off in 0..n {
            let s = (start + off) % n;
            match self.txs[s].try_send(cmd) {
                Ok(()) => {
                    self.shards[s]
                        .counters
                        .enqueued
                        .fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    return Ok(());
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
            Command::Point(p) => *p,
            _ => unreachable!("only points travel through try_enqueue"),
        }
    }

    /// Batch push: splits the slice into one contiguous chunk per shard and
    /// enqueues each chunk in a single channel hop — amortising the
    /// per-record routing and channel cost for bulk producers.
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
        let gated: Vec<UncertainPoint>;
        let points: &[UncertainPoint] = match self.global.load_stage() {
            LoadStage::Normal | LoadStage::WidenMerge => points,
            LoadStage::Shed => {
                self.global
                    .points_shed
                    .fetch_add(points.len() as u64, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                return Ok(());
            }
            LoadStage::Sample => {
                gated = points
                    .iter()
                    .filter(|_| self.sample_keeps())
                    .cloned()
                    .collect();
                self.global
                    .sampled_out
                    .fetch_add((points.len() - gated.len()) as u64, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                if gated.is_empty() {
                    return Ok(());
                }
                &gated
            }
        };
        let admitted: Vec<UncertainPoint> = match self.global.config.validation {
            None => points.to_vec(),
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
                for p in points {
                    match validate::check_point(p, dims, clock) {
                        Ok(()) => admitted.push(p.clone()),
                        Err(fault) => match policy {
                            ValidationPolicy::Clamp if fault.clampable() => {
                                clamp_count += 1;
                                admitted.push(validate::clamp_point(p, clock));
                            }
                            ValidationPolicy::Quarantine => quarantined.push((p.clone(), fault)),
                            _ => {
                                reject_count += 1;
                                first_fault.get_or_insert(fault);
                            }
                        },
                    }
                }
                if let Some(fault) = first_fault {
                    self.global
                        .rejected
                        .fetch_add(reject_count, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    return Err(UStreamError::InvalidPoint(fault.to_string()));
                }
                self.global
                    .clamped
                    .fetch_add(clamp_count, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                if !quarantined.is_empty() {
                    let mut q = self.global.quarantine.lock();
                    for (p, fault) in quarantined {
                        q.admit(p, &fault);
                    }
                }
                admitted
            }
        };
        if admitted.is_empty() {
            return Ok(());
        }

        let n = self.txs.len();
        let chunk = admitted.len().div_ceil(n);
        let start = self.route();
        for (off, part) in admitted.chunks(chunk).enumerate() {
            let s = (start + off) % n;
            let len = part.len() as u64;
            match self.global.config.backpressure {
                BackpressurePolicy::Block => {
                    self.txs[s]
                        .send(Command::Batch(part.to_vec()))
                        .map_err(|_| UStreamError::EngineStopped)?;
                }
                BackpressurePolicy::DropNewest => match self.txs[s]
                    .try_send(Command::Batch(part.to_vec()))
                {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        self.global
                            .backpressure_dropped
                            .fetch_add(len, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                        continue;
                    }
                    Err(TrySendError::Disconnected(_)) => return Err(UStreamError::EngineStopped),
                },
                BackpressurePolicy::Error => match self.txs[s]
                    .try_send(Command::Batch(part.to_vec()))
                {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => return Err(UStreamError::Backpressure),
                    Err(TrySendError::Disconnected(_)) => return Err(UStreamError::EngineStopped),
                },
            }
            self.shards[s]
                .counters
                .enqueued
                .fetch_add(len, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
        }
        Ok(())
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

    /// A clusterer whose every insert takes ~20ms — saturates a tiny
    /// channel so backpressure paths can be exercised deterministically.
    struct Sluggish {
        inner: DynClusterer,
    }

    impl OnlineClusterer for Sluggish {
        type Summary = Ecf;

        fn insert(&mut self, p: &UncertainPoint) -> InsertOutcome {
            std::thread::sleep(Duration::from_millis(20));
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
