//! Checkpoint wiring: capture, automatic and rotated checkpoints, and the
//! three restores (see [`crate::checkpoint`] for the file format).

use super::{DynClusterer, Global, Router, ShardHandle, StreamEngine};
use crate::checkpoint::{self, EngineCheckpoint, ShardCheckpoint, SnapshotEntry};
use crate::config::EngineConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use umicro::Ecf;
use ustream_common::{Result, Timestamp, UStreamError};
use ustream_snapshot::ClusterSetSnapshot;

/// Writes an automatic checkpoint when the stream has crossed into a new
/// `checkpoint_every` epoch. Exactly one worker wins each epoch; a failed
/// write is recorded in [`EngineReport::last_checkpoint_error`] and the
/// engine keeps running.
pub(super) fn maybe_auto_checkpoint(global: &Global, shards: &[Arc<ShardHandle>]) {
    let (Some(every), Some(path)) = (
        global.config.checkpoint_every,
        global.config.checkpoint_path.as_deref(),
    ) else {
        return;
    };
    let epoch = global.processed.load(Ordering::Relaxed) / every; // relaxed-ok: statistical read for reports/decisions that tolerate lag
    if epoch == 0 {
        return;
    }
    let prev = global.checkpoint_epoch.load(Ordering::Relaxed); // relaxed-ok: epoch pre-read; the election CAS re-validates before publishing
    if prev >= epoch
        || global
            .checkpoint_epoch
            .compare_exchange(prev, epoch, Ordering::AcqRel, Ordering::Relaxed) // relaxed-ok: CAS failure path only retries with a fresh read; the success edge is AcqRel
            .is_err()
    {
        return;
    }
    write_checkpoint(global, shards, path, epoch);
}

/// Captures and writes checkpoint `seq` under the configured rotation
/// scheme — the bare path with a single generation, the rotated slot +
/// manifest otherwise — and counts it, or records why it failed in
/// [`EngineReport::last_checkpoint_error`](crate::EngineReport::last_checkpoint_error);
/// the engine keeps running either way.
pub(super) fn write_checkpoint(global: &Global, shards: &[Arc<ShardHandle>], path: &str, seq: u64) {
    let generations = global.config.checkpoint_generations;
    let written = build_checkpoint(global, shards).and_then(|ck| {
        if generations > 1 {
            checkpoint::write_rotated(path, generations, seq, &ck)
        } else {
            checkpoint::write_atomic(path, &ck)
        }
    });
    match written {
        Ok(()) => {
            global.checkpoints_written.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
        }
        Err(e) => {
            *global.last_checkpoint_error.lock() = Some(e.to_string());
        }
    }
}

/// Captures the complete engine state: the filed snapshots' pointers
/// under the horizon lock, then each shard's state under its own lock, one
/// at a time and with no other lock held. A cut still pending (some shard
/// has not reached it, or it is still unsent) is not in the capture: the
/// restored engine never files it, and the records it would have covered
/// live on in the shard states.
fn build_checkpoint(global: &Global, shards: &[Arc<ShardHandle>]) -> Result<EngineCheckpoint> {
    let filed: Vec<(Timestamp, Arc<ClusterSetSnapshot<Ecf>>)> = global
        .horizons
        .lock()
        .store()
        .iter_chronological()
        .map(|s| (s.time, Arc::clone(&s.data)))
        .collect();
    let mut shard_ckpts = Vec::with_capacity(shards.len());
    for shard in shards {
        let st = shard.state.lock();
        let state = st.alg.export_state().ok_or_else(|| {
            UStreamError::Checkpoint("shard clusterer does not support state export".into())
        })?;
        shard_ckpts.push(ShardCheckpoint {
            state,
            created: st.created,
            evicted: st.evicted,
            processed: shard.counters.processed.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            alerts: shard.counters.alerts.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
        });
    }
    let snapshots = filed
        .into_iter()
        .map(|(time, clusters)| SnapshotEntry {
            time,
            clusters: Arc::unwrap_or_clone(clusters),
        })
        .collect();
    Ok(EngineCheckpoint {
        config: global.config.clone(),
        shards: shard_ckpts,
        snapshots,
        points_processed: global.processed.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
        last_tick: global.last_tick.load(Ordering::Relaxed), // relaxed-ok: monotone watermark; readers tolerate a lagging value
        alerts_raised: global.alerts_raised.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
        merges: global.merges.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
        router: global.router.lock().cursor,
    })
}

impl StreamEngine {
    /// Restores an engine from a checkpoint written by
    /// [`Self::checkpoint`], using the default UMicro clusterers. The
    /// restored engine reproduces `horizon_clusters` and `micro_clusters`
    /// exactly as they were at checkpoint time and continues the stream
    /// bit-for-bit identically to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`UStreamError::Io`] when the file cannot be read,
    /// [`UStreamError::Checkpoint`] when it is corrupt, truncated, from an
    /// unsupported version, or structurally inconsistent,
    /// [`UStreamError::InvalidConfig`] when the configuration it holds is
    /// invalid.
    pub fn restore(path: &str) -> Result<Self> {
        Self::resume(
            Self::read_checkpoint_with_fallback(path)?,
            Self::launch_default,
        )
    }

    /// Restores from the newest readable rotation generation under `base`
    /// (`base.N` + manifest), skipping any generation that is corrupt or
    /// truncated. This is the replay hook the distributed tier uses: a
    /// respawned site restores its engine here, reads
    /// [`Self::points_processed`] to learn the exact stream prefix the
    /// checkpoint covers, and re-feeds its sub-stream from that ordinal.
    ///
    /// # Errors
    ///
    /// [`UStreamError::Checkpoint`] / [`UStreamError::Io`] when no
    /// generation under `base` decodes, [`UStreamError::InvalidConfig`]
    /// when the configuration it holds is invalid.
    pub fn restore_latest(base: &str) -> Result<Self> {
        let (ck, rec) = checkpoint::read_latest_traced(base)?;
        Self::resume((ck, rec.corrupt_skipped), Self::launch_default)
    }

    /// [`Self::restore`] with a caller-supplied clusterer factory (the
    /// counterpart of [`EngineBuilder::build_with`](crate::EngineBuilder::build_with)).
    /// The factory-built clusterers must support
    /// [`OnlineClusterer::import_state`](umicro::OnlineClusterer::import_state).
    ///
    /// # Errors
    ///
    /// As [`Self::restore`].
    pub fn restore_with(
        path: &str,
        clusterer: impl Fn(usize) -> DynClusterer + Send + Sync + 'static,
    ) -> Result<Self> {
        Self::resume(Self::read_checkpoint_with_fallback(path)?, |config| {
            Self::launch(config, clusterer)
        })
    }

    /// Starts an engine on the checkpoint's configuration through
    /// `launch` (which validates it) and loads the checkpointed state;
    /// `skipped` corrupt generations are surfaced in the report.
    fn resume(
        (ck, skipped): (EngineCheckpoint, u64),
        launch: impl FnOnce(EngineConfig) -> Result<Self>,
    ) -> Result<Self> {
        let engine = launch(ck.config.clone())?;
        engine.apply_checkpoint(&ck)?;
        engine
            .global
            .restore_corrupt_generations
            .store(skipped, Ordering::Relaxed); // relaxed-ok: set once at restore, read for reports
        Ok(engine)
    }

    /// Reads `path` directly, then falls back to the newest readable
    /// rotation generation (`path.N` + manifest). The *original* error is
    /// preserved when no generation decodes either, so a plainly corrupt
    /// single-file checkpoint reports its own corruption. The second
    /// return is how many corrupt/unreadable files were skipped on the
    /// way to the checkpoint that loaded (the bare file counts as one
    /// when the fallback had to engage).
    fn read_checkpoint_with_fallback(path: &str) -> Result<(EngineCheckpoint, u64)> {
        match checkpoint::read(path) {
            Ok(ck) => Ok((ck, 0)),
            Err(primary) => {
                // A bare file that exists but failed to decode is itself a
                // skipped-corrupt generation; a merely-absent bare file is
                // the normal rotated layout and counts as nothing. When the
                // rotation scan already examined the bare path it counted
                // that defect itself.
                let bare_corrupt = std::fs::metadata(path).is_ok() as u64;
                match checkpoint::read_latest_traced(path) {
                    Ok((ck, rec)) => {
                        let extra = if rec.scanned_bare { 0 } else { bare_corrupt };
                        Ok((ck, rec.corrupt_skipped + extra))
                    }
                    Err(_) => Err(primary),
                }
            }
        }
    }

    /// Loads checkpoint state into a freshly started (idle) engine.
    fn apply_checkpoint(&self, ck: &EngineCheckpoint) -> Result<()> {
        for (i, sc) in ck.shards.iter().enumerate() {
            let shard = &self.shards[i];
            {
                let mut st = shard.state.lock();
                st.alg.import_state(&sc.state)?;
                st.created = sc.created;
                st.evicted = sc.evicted;
                st.max_tick = ck.last_tick;
            }
            shard
                .counters
                .processed
                .store(sc.processed, Ordering::Relaxed); // relaxed-ok: independent flag/knob publish; no paired payload needs release
            shard
                .counters
                .enqueued
                .store(sc.processed, Ordering::Relaxed); // relaxed-ok: independent flag/knob publish; no paired payload needs release
            shard.counters.alerts.store(sc.alerts, Ordering::Relaxed); // relaxed-ok: independent flag/knob publish; no paired payload needs release
        }
        let generation = {
            let mut horizons = self.global.horizons.lock();
            for entry in &ck.snapshots {
                horizons.record_snapshot(entry.time, entry.clusters.clone());
            }
            horizons.store().recorded()
        };
        self.global.memo.lock().advance(generation);
        *self.global.router.lock() = Router::resume(ck.router, ck.points_processed, ck.last_tick);
        self.global
            .processed
            .store(ck.points_processed, Ordering::Relaxed); // relaxed-ok: independent flag/knob publish; no paired payload needs release
        self.global.last_tick.store(ck.last_tick, Ordering::Relaxed); // relaxed-ok: monotone watermark; readers tolerate a lagging value
        self.global
            .alerts_raised
            .store(ck.alerts_raised, Ordering::Relaxed); // relaxed-ok: independent flag/knob publish; no paired payload needs release
        self.global.merges.store(ck.merges, Ordering::Relaxed); // relaxed-ok: independent flag/knob publish; no paired payload needs release
        if let Some(every) = self.global.config.checkpoint_every {
            self.global
                .checkpoint_epoch
                .store(ck.points_processed / every, Ordering::Relaxed); // relaxed-ok: independent flag/knob publish; no paired payload needs release
        }
        Ok(())
    }

    /// Persists the complete engine state to `path` atomically (via a
    /// `.tmp` file renamed into place). Flushes the shard channels first so
    /// the capture reflects every record pushed before the call; producers
    /// pushing *concurrently* with the call should quiesce for an exact
    /// cut.
    ///
    /// # Errors
    ///
    /// [`UStreamError::Checkpoint`] when a shard's clusterer does not
    /// support state export; [`UStreamError::Io`] on write failure.
    pub fn checkpoint(&self, path: &str) -> Result<()> {
        self.flush();
        let ck = build_checkpoint(&self.global, &self.shards)?;
        checkpoint::write_atomic(path, &ck)
    }

    /// [`Self::checkpoint`] into rotation slot `seq % generations` under
    /// `base`, promoting it in the manifest — the caller-driven counterpart
    /// of auto-checkpoint rotation. Distributed sites call this between
    /// records so each generation is an exact prefix cut of their
    /// sub-stream, which is what makes crash replay gap-free.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::checkpoint`].
    pub fn checkpoint_rotated(&self, base: &str, generations: u64, seq: u64) -> Result<()> {
        self.flush();
        let ck = build_checkpoint(&self.global, &self.shards)?;
        checkpoint::write_rotated(base, generations, seq, &ck)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::pt;
    use crate::{EngineBuilder, StreamEngine};
    use std::time::Duration;
    use umicro::UMicroConfig;
    use ustream_common::UStreamError;

    #[test]
    fn shutdown_drain_writes_final_checkpoint() {
        let path = temp_ckpt_path("drain-final");
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .snapshot_every(64)
            .auto_checkpoint(1_000_000, &path) // cadence never fires
            .build()
            .unwrap();
        for t in 1..=200u64 {
            e.push(pt(1.0, 2.0, t)).unwrap();
        }
        let outcome = e.shutdown_drain(Duration::from_secs(30));
        assert_eq!(outcome.report.checkpoints_written, 1);
        let restored = StreamEngine::restore(&path).unwrap();
        assert_eq!(restored.points_processed(), 200);
        restored.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    // ---- checkpoint / restore -------------------------------------------

    fn temp_ckpt_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("ustream-engine-{tag}-{}.ckpt", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn checkpoint_restore_round_trip_is_exact() {
        let path = temp_ckpt_path("roundtrip");
        let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .snapshot_every(16)
            .build()
            .unwrap();
        for t in 1..=256u64 {
            let x = if t % 2 == 0 { 0.0 } else { 30.0 };
            e.push(pt(x, -x, t)).unwrap();
        }
        e.flush();
        e.checkpoint(&path).unwrap();

        let r = StreamEngine::restore(&path).unwrap();
        assert_eq!(r.points_processed(), e.points_processed());
        let (mut a, mut b) = (e.micro_clusters(), r.micro_clusters());
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.ecf, y.ecf, "ECF of cluster {} diverged", x.id);
        }
        // Horizon queries resolve identically from the replayed store.
        let ha = e.horizon_clusters(64).unwrap();
        let hb = r.horizon_clusters(64).unwrap();
        assert_eq!(ha.clusters, hb.clusters);

        // Continuation: both engines see the same tail and stay identical.
        for t in 257..=320u64 {
            let p = pt((t % 3) as f64, (t % 5) as f64, t);
            e.push(p.clone()).unwrap();
            r.push(p).unwrap();
        }
        e.flush();
        r.flush();
        let (mut a, mut b) = (e.micro_clusters(), r.micro_clusters());
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(
                x.ecf, y.ecf,
                "post-restore continuation diverged at {}",
                x.id
            );
        }
        e.shutdown();
        r.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_checkpoint_writes_periodically() {
        let path = temp_ckpt_path("auto");
        let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
            .snapshot_every(8)
            .auto_checkpoint(50, path.clone())
            .build()
            .unwrap();
        for t in 1..=200u64 {
            e.push(pt((t % 2) as f64, 0.0, t)).unwrap();
        }
        e.flush();
        let report = e.stats();
        assert!(
            report.checkpoints_written >= 1,
            "no auto checkpoint: {report:?}"
        );
        assert_eq!(report.last_checkpoint_error, None);
        // The written file restores.
        let r = StreamEngine::restore(&path).unwrap();
        assert!(r.points_processed() >= 50);
        e.shutdown();
        r.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_of_corrupt_file_errors() {
        let path = temp_ckpt_path("corrupt");
        std::fs::write(&path, b"USTREAMCKPT 1 4 0000000000000000\nzzzz").unwrap();
        match StreamEngine::restore(&path) {
            Err(UStreamError::Checkpoint(msg)) => {
                assert!(msg.contains("checksum"), "{msg}");
            }
            Err(other) => panic!("wrong error kind: {other:?}"),
            Ok(_) => panic!("corrupt checkpoint must fail cleanly"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_checkpoint_restores_all_shards() {
        let path = temp_ckpt_path("sharded");
        let e = EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
            .shards(4)
            .snapshot_every(32)
            .build()
            .unwrap();
        for t in 1..=512u64 {
            let x = if t % 2 == 0 { 0.0 } else { 40.0 };
            e.push(pt(x, x, t)).unwrap();
        }
        e.flush();
        e.checkpoint(&path).unwrap();
        let r = StreamEngine::restore(&path).unwrap();
        assert_eq!(r.shards(), 4);
        assert_eq!(r.points_processed(), 512);
        let report = r.stats();
        for s in &report.per_shard {
            assert_eq!(s.processed, 128, "shard {} lost records", s.shard);
        }
        let (mut a, mut b) = (e.micro_clusters(), r.micro_clusters());
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.id, &x.ecf), (y.id, &y.ecf));
        }
        e.shutdown();
        r.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}
