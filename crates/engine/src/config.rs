//! Engine configuration.

use crate::load::{LoadPolicy, WatchdogConfig};
use crate::validate::{BackpressurePolicy, ValidationPolicy};
use serde::{Deserialize, Serialize};
use umicro::UMicroConfig;
use ustream_common::UStreamError;
use ustream_snapshot::{PyramidConfig, SnapshotBudget};

/// How the novelty detector baselines "ordinary" isolation levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoveltyBaseline {
    /// Running mean of non-alerting isolations (cheap; sensitive to skew).
    Mean,
    /// A streaming quantile (P² sketch) of non-alerting isolations —
    /// robust to heavy-tailed isolation distributions; `q` is typically
    /// 0.95–0.99.
    Quantile(f64),
}

/// Configuration of a [`crate::StreamEngine`].
///
/// `Deserialize` is hand-written (not derived) so configs serialized before
/// the resilience fields existed — e.g. inside old checkpoints — still
/// parse, with `checkpoint_generations = 1` and no governor.
#[derive(Debug, Clone, Serialize)]
pub struct EngineConfig {
    /// The clustering configuration (budget, dimensionality, similarity,
    /// boundary mode).
    pub umicro: UMicroConfig,
    /// Pyramidal time-frame geometry for the snapshot store.
    pub pyramid: PyramidConfig,
    /// Ticks between snapshots (1 = every tick; larger values trade horizon
    /// resolution for memory/CPU).
    pub snapshot_every: u64,
    /// Optional exponential decay half-life in ticks (§II-E); `None`
    /// disables decay.
    pub decay_half_life: Option<f64>,
    /// Novelty alerting: a record is flagged when its error-corrected
    /// distance to the nearest micro-cluster exceeds `novelty_factor ×` the
    /// baseline isolation. `None` disables the (O(k·d)-per-point) monitor.
    pub novelty_factor: Option<f64>,
    /// Baseline statistic the factor multiplies.
    pub novelty_baseline: NoveltyBaseline,
    /// Capacity of each shard's ingestion channel (backpressure bound).
    pub channel_capacity: usize,
    /// Maximum retained (undrained) novelty alerts.
    pub max_alerts: usize,
    /// Number of shard workers. The micro-cluster budget `umicro.n_micro`
    /// is a *global* budget divided evenly across shards (ceiling division,
    /// at least 1 per shard); records are routed round-robin and each shard
    /// clusters its slice independently, with periodic exact ECF merges
    /// producing the global view. `1` (the default) reproduces the
    /// single-worker engine byte-for-byte.
    pub shards: usize,
    /// What to do with points that fail validation (NaN coordinates,
    /// invalid error vectors, dimension mismatches). `None` disables
    /// producer-side validation entirely — only safe when the producer
    /// guarantees well-formed input (e.g. the synthetic benchmarks).
    pub validation: Option<ValidationPolicy>,
    /// When validating, also require timestamps to be non-decreasing with
    /// respect to the engine clock (`last_tick`). Off by default: many real
    /// streams are mildly out of order and the pyramid tolerates it.
    pub monotone_timestamps: bool,
    /// Capacity of the quarantine buffer under
    /// [`ValidationPolicy::Quarantine`].
    pub quarantine_capacity: usize,
    /// What producers experience when every shard channel is full.
    pub backpressure: BackpressurePolicy,
    /// Automatic checkpoint cadence: every `n` ingested points the engine
    /// writes its full state to [`checkpoint_path`](Self::checkpoint_path).
    /// `None` (default) disables auto-checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Destination for automatic checkpoints; required when
    /// [`checkpoint_every`](Self::checkpoint_every) is set.
    pub checkpoint_path: Option<String>,
    /// Number of rotated checkpoint generations. `1` (default) keeps the
    /// historical single-file behaviour; `n > 1` rotates
    /// `<path>.0 … <path>.{n-1}` plus a manifest, and restore falls back
    /// generation by generation past corrupt files.
    pub checkpoint_generations: u64,
    /// Degradation ladder driven by channel pressure; `None` (default)
    /// never degrades. Setting a policy starts the governor thread.
    pub load_policy: Option<LoadPolicy>,
    /// Stall watchdog over the shard workers; `None` (default) disables it.
    /// Setting a config starts the governor thread.
    pub watchdog: Option<WatchdogConfig>,
    /// Memory budget for the pyramidal snapshot store; `None` (default)
    /// retains the full `α^l + 1` per order.
    pub snapshot_budget: Option<SnapshotBudget>,
}

impl Deserialize for EngineConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_obj()
            .ok_or_else(|| serde::Error::msg("expected object for `EngineConfig`"))?;
        let get = |name: &str| serde::field(fields, name, "EngineConfig");
        // Fields added after the first released config format default when
        // absent, so old checkpoints keep restoring.
        let opt = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        Ok(Self {
            umicro: Deserialize::from_value(get("umicro")?)?,
            pyramid: Deserialize::from_value(get("pyramid")?)?,
            snapshot_every: Deserialize::from_value(get("snapshot_every")?)?,
            decay_half_life: Deserialize::from_value(get("decay_half_life")?)?,
            novelty_factor: Deserialize::from_value(get("novelty_factor")?)?,
            novelty_baseline: Deserialize::from_value(get("novelty_baseline")?)?,
            channel_capacity: Deserialize::from_value(get("channel_capacity")?)?,
            max_alerts: Deserialize::from_value(get("max_alerts")?)?,
            shards: Deserialize::from_value(get("shards")?)?,
            validation: Deserialize::from_value(get("validation")?)?,
            monotone_timestamps: Deserialize::from_value(get("monotone_timestamps")?)?,
            quarantine_capacity: Deserialize::from_value(get("quarantine_capacity")?)?,
            backpressure: Deserialize::from_value(get("backpressure")?)?,
            checkpoint_every: Deserialize::from_value(get("checkpoint_every")?)?,
            checkpoint_path: Deserialize::from_value(get("checkpoint_path")?)?,
            checkpoint_generations: match opt("checkpoint_generations") {
                Some(v) => Deserialize::from_value(v)?,
                None => 1,
            },
            load_policy: match opt("load_policy") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
            watchdog: match opt("watchdog") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
            snapshot_budget: match opt("snapshot_budget") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
        })
    }
}

impl EngineConfig {
    /// Defaults: snapshot every tick, no decay, novelty at 8× the running
    /// isolation level, 4 096-record channel.
    pub fn new(umicro: UMicroConfig) -> Self {
        Self {
            umicro,
            pyramid: PyramidConfig::default(),
            snapshot_every: 1,
            decay_half_life: None,
            novelty_factor: Some(8.0),
            novelty_baseline: NoveltyBaseline::Mean,
            channel_capacity: 4_096,
            max_alerts: 1_024,
            shards: 1,
            validation: Some(ValidationPolicy::Reject),
            monotone_timestamps: false,
            quarantine_capacity: 256,
            backpressure: BackpressurePolicy::Block,
            checkpoint_every: None,
            checkpoint_path: None,
            checkpoint_generations: 1,
            load_policy: None,
            watchdog: None,
            snapshot_budget: None,
        }
    }

    /// The per-shard micro-cluster budget: the global budget split evenly
    /// (ceiling division, at least 1).
    pub fn shard_n_micro(&self) -> usize {
        self.umicro.n_micro.div_ceil(self.shards).max(1)
    }

    /// Checks every field, reporting the first problem. Called once, by
    /// the engine's launch, which every constructor and restore goes
    /// through.
    pub(crate) fn validate(&self) -> ustream_common::Result<()> {
        let fail = |msg: String| Err(UStreamError::InvalidConfig(msg));
        self.umicro.validate()?;
        if self.shards == 0 || self.shards > 1 << 16 {
            return fail(format!(
                "shards must be in 1..={} (got {})",
                1u32 << 16,
                self.shards
            ));
        }
        if self.snapshot_every == 0 {
            return fail("snapshot_every must be positive".into());
        }
        if self.channel_capacity == 0 {
            return fail("channel_capacity must be positive".into());
        }
        if let Some(hl) = self.decay_half_life {
            if hl <= 0.0 || hl.is_nan() {
                return fail(format!("decay half-life must be positive (got {hl})"));
            }
        }
        if let Some(f) = self.novelty_factor {
            if f <= 1.0 || f.is_nan() {
                return fail(format!("novelty factor must exceed 1 (got {f})"));
            }
        }
        if let NoveltyBaseline::Quantile(q) = self.novelty_baseline {
            if !(q > 0.0 && q < 1.0) {
                return fail(format!("novelty quantile must be in (0, 1) (got {q})"));
            }
        }
        match (self.checkpoint_every, self.checkpoint_path.as_deref()) {
            (Some(0), _) => return fail("checkpoint cadence must be positive".into()),
            (Some(_), None) => return fail("checkpoint_every needs a checkpoint path".into()),
            _ => {}
        }
        if !(1..=64).contains(&self.checkpoint_generations) {
            return fail(format!(
                "checkpoint generations must be in 1..=64 (got {})",
                self.checkpoint_generations
            ));
        }
        if let Some(policy) = self.load_policy {
            if let Some(msg) = policy.problem() {
                return fail(format!("load policy {msg}"));
            }
            // The engine's pressure is a channel fill fraction.
            if policy.high_watermark > 1.0 {
                return fail("load policy high_watermark must be <= 1".into());
            }
        }
        if let Some(watchdog) = self.watchdog {
            if watchdog.stall_deadline_ms == 0 {
                return fail("watchdog stall_deadline_ms must be positive".into());
            }
            if watchdog.poll_ms == 0 {
                return fail("watchdog poll_ms must be positive".into());
            }
        }
        if let Some(budget) = self.snapshot_budget {
            if budget.max_snapshots == Some(0) {
                return fail("snapshot budget of 0 snapshots would retain nothing".into());
            }
            if budget.max_bytes == Some(0) {
                return fail("snapshot budget of 0 bytes would retain nothing".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EngineConfig {
        EngineConfig::new(UMicroConfig::new(8, 2).unwrap())
    }

    #[test]
    fn shard_budget_splits_evenly_with_floor_of_one() {
        assert_eq!(base().shards, 1);
        assert_eq!(base().shard_n_micro(), 8);
        for (shards, per_shard) in [(4, 2), (3, 3), (64, 1)] {
            let c = EngineConfig { shards, ..base() };
            assert_eq!(c.shard_n_micro(), per_shard, "{shards} shards");
        }
    }

    #[test]
    fn validation_defaults_to_reject() {
        let c = base();
        assert_eq!(c.validation, Some(ValidationPolicy::Reject));
        assert_eq!(c.backpressure, BackpressurePolicy::Block);
        assert!(!c.monotone_timestamps);
        assert_eq!(c.checkpoint_every, None);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn old_configs_without_resilience_fields_still_parse() {
        // A config serialized before the resilience fields existed must
        // deserialize with the defaults (generations=1, no governor).
        let serde::Value::Obj(mut fields) = base().to_value() else {
            panic!("config must serialize to an object");
        };
        fields.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "checkpoint_generations" | "load_policy" | "watchdog" | "snapshot_budget"
            )
        });
        let back = EngineConfig::from_value(&serde::Value::Obj(fields)).unwrap();
        assert_eq!(back.checkpoint_generations, 1);
        assert!(back.load_policy.is_none());
        assert!(back.watchdog.is_none());
        assert!(back.snapshot_budget.is_none());
    }

    #[test]
    fn config_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let c = EngineConfig {
            shards: 4,
            decay_half_life: Some(250.0),
            novelty_baseline: NoveltyBaseline::Quantile(0.95),
            validation: Some(ValidationPolicy::Clamp),
            checkpoint_every: Some(500),
            checkpoint_path: Some("ckpt.bin".into()),
            ..base()
        };
        let v = c.to_value();
        let back = EngineConfig::from_value(&v).unwrap();
        assert_eq!(back.shards, 4);
        assert_eq!(back.decay_half_life, Some(250.0));
        assert_eq!(back.novelty_baseline, NoveltyBaseline::Quantile(0.95));
        assert_eq!(back.validation, Some(ValidationPolicy::Clamp));
        assert_eq!(back.checkpoint_every, Some(500));
        assert_eq!(back.checkpoint_path.as_deref(), Some("ckpt.bin"));
        assert_eq!(back.umicro.n_micro, c.umicro.n_micro);
        assert_eq!(back.snapshot_every, c.snapshot_every);
    }
}
