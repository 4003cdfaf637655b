//! Alert and shutdown-report types.

use crate::load::{LoadStage, LoadTransition};
use std::fmt;
use ustream_common::Timestamp;

/// Aggregate health of the engine's shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Every shard worker is alive and none has ever been restarted.
    Healthy,
    /// The engine is serving queries and ingesting, but at least one worker
    /// has panicked: it was either respawned (losing at most the points
    /// queued plus clustered since the last merge on that shard) or is
    /// permanently down while the remaining shards carry the stream.
    Degraded,
    /// Every shard worker is dead and ingestion is impossible. Horizon
    /// queries over already-merged history still work.
    Failed,
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Healthy => write!(f, "healthy"),
            Self::Degraded => write!(f, "degraded"),
            Self::Failed => write!(f, "failed"),
        }
    }
}

/// A record flagged as unlike anything the clustering currently knows.
#[derive(Debug, Clone, PartialEq)]
pub struct NoveltyAlert {
    /// Arrival tick of the offending record.
    pub timestamp: Timestamp,
    /// Ordinal position in the stream (1-based).
    pub position: u64,
    /// Error-corrected distance to the nearest micro-cluster at arrival.
    pub isolation: f64,
    /// The running mean isolation the record was compared against.
    pub baseline: f64,
    /// Id of the micro-cluster the record ended up in.
    pub cluster_id: u64,
}

/// Per-shard accounting inside an [`EngineReport`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index (also the high bits of its global cluster ids).
    pub shard: usize,
    /// Records this shard has clustered.
    pub processed: u64,
    /// Records routed to this shard but not yet clustered (channel depth).
    pub queue_depth: u64,
    /// Micro-clusters alive on this shard.
    pub live_clusters: usize,
    /// Novelty alerts this shard raised.
    pub alerts_raised: u64,
    /// Clustered records per second of engine wall-clock.
    pub points_per_sec: f64,
    /// Times this shard's worker was respawned after a panic.
    pub restarts: u64,
    /// Panic payload of the most recent worker panic, if any.
    pub last_panic: Option<String>,
    /// Whether the worker thread is currently running. `false` after
    /// shutdown, or when the worker died and could not be respawned.
    pub alive: bool,
    /// Times the watchdog declared this shard stalled (backlog present,
    /// no progress within the stall deadline).
    pub stalls: u64,
    /// Whether the watchdog currently considers the shard stalled. Clears
    /// as soon as the processed counter moves again.
    pub stalled: bool,
    /// Approximate resident bytes of this shard's clusterer model.
    pub clusterer_bytes: usize,
}

/// Final accounting returned by [`crate::StreamEngine::shutdown`].
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Total records processed.
    pub points_processed: u64,
    /// Micro-clusters alive at shutdown (summed across shards).
    pub live_clusters: usize,
    /// Micro-clusters created over the run.
    pub clusters_created: u64,
    /// Micro-clusters evicted over the run.
    pub clusters_evicted: u64,
    /// Snapshots retained in the pyramidal store.
    pub snapshots_retained: usize,
    /// Novelty alerts raised (including drained ones).
    pub alerts_raised: u64,
    /// Last stream tick observed.
    pub last_tick: Timestamp,
    /// Exact ECF merges folding shard states into the global view: cuts
    /// filed in the pyramid.
    pub merges: u64,
    /// Mean wall-clock time from a cut's completion (its last shard part
    /// deposited) to its filing, in microseconds (0 when no merge has
    /// run). Time a cut waits for a shard that is behind is not in it.
    pub mean_merge_micros: f64,
    /// Aggregate worker health (see [`HealthStatus`]).
    pub health: HealthStatus,
    /// Points refused under [`ValidationPolicy::Reject`] or because their
    /// dimensionality never matched.
    ///
    /// [`ValidationPolicy::Reject`]: crate::ValidationPolicy::Reject
    pub points_rejected: u64,
    /// Points repaired under [`ValidationPolicy::Clamp`].
    ///
    /// [`ValidationPolicy::Clamp`]: crate::ValidationPolicy::Clamp
    pub points_clamped: u64,
    /// Points diverted under [`ValidationPolicy::Quarantine`] (including
    /// ones the bounded buffer has since dropped).
    ///
    /// [`ValidationPolicy::Quarantine`]: crate::ValidationPolicy::Quarantine
    pub points_quarantined: u64,
    /// Quarantined points evicted because the buffer overflowed.
    pub quarantine_dropped: u64,
    /// Points dropped under [`BackpressurePolicy::DropNewest`].
    ///
    /// [`BackpressurePolicy::DropNewest`]: crate::BackpressurePolicy::DropNewest
    pub backpressure_dropped: u64,
    /// Automatic checkpoints written successfully.
    pub checkpoints_written: u64,
    /// The most recent auto-checkpoint failure, if any.
    pub last_checkpoint_error: Option<String>,
    /// Current rung of the degradation ladder (always
    /// [`LoadStage::Normal`] when no load policy is configured).
    pub load_stage: LoadStage,
    /// Every walk of the degradation ladder, in order, timestamped in
    /// milliseconds since the engine started.
    pub load_transitions: Vec<LoadTransition>,
    /// Points dropped outright in [`LoadStage::Shed`].
    pub points_shed: u64,
    /// Points dropped by probabilistic admission in [`LoadStage::Sample`].
    /// Admitted counts can be rescaled by
    /// `(points_processed + points_sampled_out) / points_processed` when
    /// absolute magnitudes matter.
    pub points_sampled_out: u64,
    /// Admission rate (per mille) in effect while sampling; 1000 otherwise.
    pub sampling_keep_per_mille: u64,
    /// Stall events detected by the watchdog, summed across shards.
    pub stalls_detected: u64,
    /// Approximate bytes retained by the pyramidal snapshot store.
    pub snapshot_bytes: u64,
    /// Snapshots evicted by the memory budget (0 without a budget).
    pub snapshot_budget_evictions: u64,
    /// Effective horizon-error bound of the snapshot store: the paper's
    /// `1/α^(l−1)` when the budget never bit, inflated when eviction
    /// shortened the rings.
    pub horizon_error_bound: f64,
    /// Name of the kernel SIMD backend live in this process (`scalar`,
    /// `portable`, `avx2`, `avx512`, `neon`) — operators use this to
    /// confirm which compute path production is actually on.
    pub kernel_backend: &'static str,
    /// Corrupt or unreadable checkpoint generations the restore path had
    /// to skip when this engine was rebuilt from disk (0 for engines that
    /// never restored, or restored from the newest generation cleanly).
    /// Non-zero means the checkpoint directory is rotting while the
    /// fallback still succeeds — fix the disk before the last good
    /// generation goes too.
    pub restore_corrupt_generations: u64,
    /// Per-shard breakdown (one entry per shard worker).
    pub per_shard: Vec<ShardStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_fields_accessible() {
        let a = NoveltyAlert {
            timestamp: 10,
            position: 3,
            isolation: 42.0,
            baseline: 2.0,
            cluster_id: 7,
        };
        assert_eq!(a.timestamp, 10);
        assert!(a.isolation > a.baseline);
    }
}
