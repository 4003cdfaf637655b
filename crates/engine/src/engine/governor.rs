//! The governor thread: the stall watchdog with its rescue consumers,
//! channel pressure, and the degradation-ladder walk (see "Overload
//! resilience" in the parent module).

use super::{drain_commands, settle_owed, Command, Global, Scratch, ShardHandle, StreamEngine};
use crate::load::{Ladder, LoadStage};
use crossbeam::channel::Receiver;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attaches a rescue consumer to shard `idx`'s channel: a fresh thread
/// draining the same MPMC receiver the wedged worker holds. It takes no
/// shard state lock the governor could be blocked on, and it does not
/// respawn itself — the original supervisor still owns panic recovery. A
/// rescue that panics still deposits the cuts its command owed.
fn spawn_rescue(
    global: &Arc<Global>,
    shards: &[Arc<ShardHandle>],
    rxs: &[Receiver<Command>],
    idx: usize,
) {
    let rx = rxs[idx].clone();
    let global_for_rescue = Arc::clone(global);
    let all_shards = shards.to_vec();
    let spawned = std::thread::Builder::new()
        .name(format!("ustream-rescue-{idx}"))
        .spawn(move || {
            let mut scratch = Scratch::default();
            let drained = catch_unwind(AssertUnwindSafe(|| {
                drain_commands(&rx, &global_for_rescue, &all_shards, idx, &mut scratch);
            }));
            if drained.is_err() {
                settle_owed(&global_for_rescue, &all_shards[idx], idx, &mut scratch);
            }
        });
    if let Ok(handle) = spawned {
        shards[idx].spawned.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
        global.extra_workers.lock().push(handle);
    }
}

/// Governor-local view of one shard's progress.
struct WatchState {
    last_processed: u64,
    last_change: Instant,
    last_respawn: Option<Instant>,
}

/// The governor thread: polls the lock-free shard counters, runs the stall
/// watchdog and walks the degradation ladder. Exits when the engine starts
/// shutting down (the shutdown path joins it *before* sending shutdown
/// commands, so no rescue consumer can appear after the shutdown fan-out
/// was counted).
pub(super) fn governor(
    global: Arc<Global>,
    shards: Vec<Arc<ShardHandle>>,
    rxs: Vec<Receiver<Command>>,
) {
    let watchdog = global.config.watchdog;
    let policy = global.config.load_policy;
    let poll = Duration::from_millis(watchdog.map_or(20, |w| w.poll_ms));
    let mut watch: Vec<WatchState> = shards
        .iter()
        .map(|s| WatchState {
            last_processed: s.counters.processed.load(Ordering::Relaxed), // relaxed-ok: statistical read for reports/decisions that tolerate lag
            last_change: Instant::now(),
            last_respawn: None,
        })
        .collect();
    let mut ladder = Ladder::default();
    while !global.shutting_down.load(Ordering::Acquire) {
        // lint:allow(no-sleep): watchdog governor cadence — config-bounded poll off the hot path
        std::thread::sleep(poll);
        if global.shutting_down.load(Ordering::Acquire) {
            break;
        }

        if let Some(wd) = watchdog {
            let deadline = Duration::from_millis(wd.stall_deadline_ms);
            for (i, shard) in shards.iter().enumerate() {
                let processed = shard.counters.processed.load(Ordering::Relaxed); // relaxed-ok: statistical read for reports/decisions that tolerate lag
                let backlog = shard
                    .counters
                    .enqueued
                    .load(Ordering::Relaxed) // relaxed-ok: statistical read for reports/decisions that tolerate lag
                    .saturating_sub(processed);
                let w = &mut watch[i];
                if processed != w.last_processed {
                    w.last_processed = processed;
                    w.last_change = Instant::now();
                    shard.stalled.store(false, Ordering::Relaxed); // relaxed-ok: advisory stall flag for reports; rescue correctness does not depend on its timing
                } else if backlog > 0 && w.last_change.elapsed() >= deadline {
                    // relaxed-ok: advisory stall flag for reports; rescue correctness does not depend on its timing
                    if !shard.stalled.swap(true, Ordering::Relaxed) {
                        shard.stalls.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                        global.stalls_detected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter; report readers tolerate lag, no acquire pairing
                    }
                    // Rate limit: at most one rescue per stall deadline, so
                    // a long wedge cannot leak an unbounded thread pile.
                    let may_respawn =
                        wd.respawn && w.last_respawn.is_none_or(|at| at.elapsed() >= deadline);
                    if may_respawn {
                        w.last_respawn = Some(Instant::now());
                        spawn_rescue(&global, &shards, &rxs, i);
                    }
                }
            }
        }

        if let Some(p) = policy {
            let pressure = channel_pressure(&global, &shards);
            let stage = global.load_stage();
            if let Some(to) = ladder.step(stage, pressure, &p) {
                global.transition(stage, to, pressure);
            }
        }
    }
}

/// Mean channel fill fraction across shards (the governor's pressure
/// signal).
fn channel_pressure(global: &Global, shards: &[Arc<ShardHandle>]) -> f64 {
    let backlog: u64 = shards
        .iter()
        .map(|s| {
            // relaxed-ok: statistical read for reports/decisions that tolerate lag
            let enqueued = s.counters.enqueued.load(Ordering::Relaxed);
            // relaxed-ok: statistical read for reports/decisions that tolerate lag
            let processed = s.counters.processed.load(Ordering::Relaxed);
            enqueued.saturating_sub(processed)
        })
        .sum();
    backlog as f64 / (global.config.channel_capacity * shards.len()) as f64
}

impl StreamEngine {
    /// The degradation-ladder rung the engine is currently on.
    pub fn load_stage(&self) -> LoadStage {
        self.global.load_stage()
    }

    /// Forces the engine onto a ladder rung, bypassing the governor's
    /// hysteresis. Meant for tests, benchmarks, and operators who want
    /// manual overload control; the governor (if running) will keep walking
    /// the ladder from here on its own evidence.
    pub fn force_load_stage(&self, stage: LoadStage) {
        let from = self.global.load_stage();
        if from != stage {
            let pressure = channel_pressure(&self.global, &self.shards);
            self.global.transition(from, stage, pressure);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::pt;
    use crate::{EngineBuilder, LoadPolicy, LoadStage};
    use umicro::UMicroConfig;

    #[test]
    fn forced_sampling_keeps_exactly_the_configured_fraction() {
        let e = EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
            .load_policy(LoadPolicy::default()) // keep_per_mille = 500
            .build()
            .unwrap();
        e.force_load_stage(LoadStage::Sample);
        for t in 1..=1_000u64 {
            e.push(pt((t % 3) as f64, 0.0, t)).unwrap();
        }
        e.flush();
        // Deterministic gate: seq % 1000 < 500 admits exactly half.
        assert_eq!(e.points_processed(), 500);
        let report = e.shutdown();
        assert_eq!(report.points_sampled_out, 500);
        assert_eq!(report.sampling_keep_per_mille, 500);
        assert_eq!(report.load_stage, LoadStage::Sample);
        assert_eq!(report.load_transitions.len(), 1);
        assert_eq!(report.load_transitions[0].from, LoadStage::Normal);
        assert_eq!(report.load_transitions[0].to, LoadStage::Sample);
    }

    #[test]
    fn forced_shed_drops_and_counts_then_recovers() {
        let e = EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
            .load_policy(LoadPolicy::default())
            .build()
            .unwrap();
        for t in 1..=100u64 {
            e.push(pt(0.0, 0.0, t)).unwrap();
        }
        e.force_load_stage(LoadStage::Shed);
        for t in 101..=200u64 {
            e.push(pt(0.0, 0.0, t)).unwrap(); // accepted but shed
        }
        e.push_slice(&[pt(0.0, 0.0, 201), pt(0.0, 0.0, 202)])
            .unwrap();
        e.force_load_stage(LoadStage::Normal);
        for t in 203..=250u64 {
            e.push(pt(0.0, 0.0, t)).unwrap();
        }
        e.flush();
        assert_eq!(e.points_processed(), 148);
        let report = e.shutdown();
        assert_eq!(report.points_shed, 102);
        assert_eq!(report.load_stage, LoadStage::Normal);
        assert_eq!(report.load_transitions.len(), 2);
        assert_eq!(report.sampling_keep_per_mille, 1_000);
    }
}
