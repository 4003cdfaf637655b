//! The one way to construct a [`StreamEngine`].
//!
//! [`EngineBuilder`] is a chained-setter builder over [`EngineConfig`]
//! whose `build()` *returns* an [`InvalidConfig`] error instead of
//! panicking, so servers can reject a bad tenant configuration without
//! dying. Restores take their configuration from the checkpoint and go
//! through the same validation.
//!
//! [`InvalidConfig`]: ustream_common::UStreamError::InvalidConfig
//!
//! ```
//! use ustream_engine::{EngineBuilder, LoadPolicy, WatchdogConfig};
//! use umicro::UMicroConfig;
//! use ustream_common::UncertainPoint;
//!
//! let engine = EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
//!     .shards(2)
//!     .snapshot_every(8)
//!     .load_policy(LoadPolicy::default())
//!     .watchdog(WatchdogConfig::default())
//!     .build()
//!     .expect("valid configuration");
//! engine
//!     .push(UncertainPoint::new(vec![1.0, -1.0], vec![0.3, 0.3], 1, None))
//!     .unwrap();
//! engine.flush();
//! assert_eq!(engine.points_processed(), 1);
//! engine.shutdown();
//! ```

use crate::config::{EngineConfig, NoveltyBaseline};
use crate::engine::{DynClusterer, StreamEngine};
use crate::load::{LoadPolicy, WatchdogConfig};
use crate::validate::{BackpressurePolicy, ValidationPolicy};
use umicro::UMicroConfig;
use ustream_common::Result;
use ustream_snapshot::{PyramidConfig, SnapshotBudget};

/// Chained-setter construction of a [`StreamEngine`].
///
/// Every setter records its value without validating; [`Self::build`] and
/// [`Self::build_with`] validate the whole configuration at once and
/// report the *first* problem as
/// [`UStreamError::InvalidConfig`](ustream_common::UStreamError::InvalidConfig).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// A builder over the engine defaults for the given clustering
    /// configuration (see [`EngineConfig::new`]).
    pub fn new(umicro: UMicroConfig) -> Self {
        Self::from_config(EngineConfig::new(umicro))
    }

    /// A builder seeded from an existing configuration (e.g. one read back
    /// from a checkpoint) — setters override individual fields from there.
    pub fn from_config(config: EngineConfig) -> Self {
        Self { config }
    }

    /// Number of shard workers (round-robin routing, exact periodic merge).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Ticks between pyramidal snapshots.
    pub fn snapshot_every(mut self, ticks: u64) -> Self {
        self.config.snapshot_every = ticks;
        self
    }

    /// Pyramidal time-frame geometry.
    pub fn pyramid(mut self, pyramid: PyramidConfig) -> Self {
        self.config.pyramid = pyramid;
        self
    }

    /// Exponential decay half-life in ticks (`None` disables decay).
    pub fn decay_half_life(mut self, half_life: Option<f64>) -> Self {
        self.config.decay_half_life = half_life;
        self
    }

    /// Novelty alerting factor (`None` disables the monitor).
    pub fn novelty_factor(mut self, factor: Option<f64>) -> Self {
        self.config.novelty_factor = factor;
        self
    }

    /// Switches the novelty baseline to a streaming quantile.
    pub fn novelty_quantile(mut self, q: f64) -> Self {
        self.config.novelty_baseline = NoveltyBaseline::Quantile(q);
        self
    }

    /// Capacity of each shard's ingestion channel.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.channel_capacity = capacity;
        self
    }

    /// Maximum retained (undrained) novelty alerts.
    pub fn max_alerts(mut self, max: usize) -> Self {
        self.config.max_alerts = max;
        self
    }

    /// Producer-side validation policy (`None` disables validation).
    pub fn validation(mut self, policy: Option<ValidationPolicy>) -> Self {
        self.config.validation = policy;
        self
    }

    /// Requires non-decreasing timestamps at the producer boundary.
    pub fn monotone_timestamps(mut self, enforce: bool) -> Self {
        self.config.monotone_timestamps = enforce;
        self
    }

    /// Quarantine buffer capacity under [`ValidationPolicy::Quarantine`].
    pub fn quarantine_capacity(mut self, capacity: usize) -> Self {
        self.config.quarantine_capacity = capacity;
        self
    }

    /// What producers experience when every shard channel is full.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.config.backpressure = policy;
        self
    }

    /// Automatic checkpoints every `every` points, written to `path`.
    pub fn auto_checkpoint(mut self, every: u64, path: impl Into<String>) -> Self {
        self.config.checkpoint_every = Some(every);
        self.config.checkpoint_path = Some(path.into());
        self
    }

    /// Number of rotated checkpoint generations (1..=64).
    pub fn checkpoint_generations(mut self, generations: u64) -> Self {
        self.config.checkpoint_generations = generations;
        self
    }

    /// Installs the degradation ladder (starts the governor thread).
    pub fn load_policy(mut self, policy: LoadPolicy) -> Self {
        self.config.load_policy = Some(policy);
        self
    }

    /// Installs the stall watchdog (starts the governor thread).
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.config.watchdog = Some(watchdog);
        self
    }

    /// Caps the snapshot store's memory.
    pub fn snapshot_budget(mut self, budget: SnapshotBudget) -> Self {
        self.config.snapshot_budget = Some(budget);
        self
    }

    /// Validates and starts the engine with the default UMicro clusterers
    /// (decayed when a half-life is set).
    ///
    /// # Errors
    ///
    /// `UStreamError::InvalidConfig` naming the first invalid field,
    /// `UStreamError::Io` when a worker thread cannot be spawned.
    pub fn build(self) -> Result<StreamEngine> {
        StreamEngine::launch_default(self.config)
    }

    /// Validates and starts the engine with caller-supplied clusterers —
    /// any [`umicro::OnlineClusterer`] over ECF summaries. The factory is
    /// invoked once per shard index (and again on supervised respawn); it
    /// is responsible for sizing each shard's budget.
    ///
    /// # Errors
    ///
    /// `UStreamError::InvalidConfig` naming the first invalid field,
    /// `UStreamError::Io` when a worker thread cannot be spawned.
    pub fn build_with(
        self,
        clusterer: impl Fn(usize) -> DynClusterer + Send + Sync + 'static,
    ) -> Result<StreamEngine> {
        StreamEngine::launch(self.config, clusterer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umicro::UMicro;
    use ustream_common::{UStreamError, UncertainPoint};

    fn base() -> EngineBuilder {
        EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
    }

    fn pt(x: f64, t: u64) -> UncertainPoint {
        UncertainPoint::new(vec![x, -x], vec![0.2, 0.2], t, None)
    }

    #[test]
    fn build_runs_an_engine_end_to_end() {
        let engine = base().shards(2).snapshot_every(4).build().unwrap();
        for t in 1..=50 {
            engine
                .push(pt(if t % 2 == 0 { 0.0 } else { 8.0 }, t))
                .unwrap();
        }
        engine.flush();
        assert_eq!(engine.points_processed(), 50);
        let report = engine.shutdown();
        assert_eq!(report.per_shard.len(), 2);
    }

    #[test]
    fn build_with_uses_the_factory() {
        let engine = base()
            .build_with(|_shard| -> DynClusterer {
                Box::new(UMicro::new(UMicroConfig::new(4, 2).unwrap()))
            })
            .unwrap();
        engine.push(pt(1.0, 1)).unwrap();
        engine.flush();
        assert_eq!(engine.points_processed(), 1);
        engine.shutdown();
    }

    #[test]
    fn invalid_configs_error_instead_of_panicking() {
        let mut no_budget = UMicroConfig::new(16, 2).unwrap();
        no_budget.n_micro = 0;
        let cases: Vec<(EngineBuilder, &str)> = vec![
            (EngineBuilder::new(no_budget), "n_micro"),
            (base().shards(0), "shards"),
            (base().snapshot_every(0), "snapshot_every"),
            (base().channel_capacity(0), "channel_capacity"),
            (base().decay_half_life(Some(-1.0)), "half-life"),
            (base().novelty_factor(Some(0.5)), "novelty factor"),
            (base().novelty_quantile(1.5), "quantile"),
            (base().auto_checkpoint(0, "x.ckpt"), "cadence"),
            (base().checkpoint_generations(0), "generations"),
            (
                base().load_policy(LoadPolicy {
                    keep_per_mille: 0,
                    ..LoadPolicy::default()
                }),
                "keep_per_mille",
            ),
            (
                base().watchdog(WatchdogConfig {
                    stall_deadline_ms: 0,
                    ..WatchdogConfig::default()
                }),
                "stall_deadline_ms",
            ),
            (
                base().snapshot_budget(SnapshotBudget::by_snapshots(0)),
                "snapshots",
            ),
            (
                base().load_policy(LoadPolicy {
                    low_watermark: f64::NAN,
                    ..LoadPolicy::default()
                }),
                "low_watermark",
            ),
            (
                base().load_policy(LoadPolicy {
                    high_watermark: 1.5,
                    ..LoadPolicy::default()
                }),
                "high_watermark",
            ),
        ];
        for (builder, needle) in cases {
            let with_factory = builder.clone().build_with(|_shard| -> DynClusterer {
                Box::new(UMicro::new(UMicroConfig::new(4, 2).unwrap()))
            });
            assert!(
                matches!(with_factory, Err(UStreamError::InvalidConfig(_))),
                "build_with accepted the config `{needle}` should reject"
            );
            match builder.build() {
                Err(UStreamError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
                }
                Err(other) => panic!("expected InvalidConfig mentioning `{needle}`, got {other}"),
                Ok(_) => panic!("expected InvalidConfig mentioning `{needle}`, got an engine"),
            }
        }
    }

    #[test]
    fn setters_record_their_fields() {
        let c = EngineBuilder::from_config(EngineConfig::new(UMicroConfig::new(8, 2).unwrap()))
            .shards(3)
            .snapshot_every(16)
            .decay_half_life(Some(500.0))
            .novelty_factor(Some(5.0))
            .novelty_quantile(0.99)
            .channel_capacity(64)
            .max_alerts(9)
            .validation(Some(ValidationPolicy::Quarantine))
            .monotone_timestamps(true)
            .quarantine_capacity(32)
            .backpressure(BackpressurePolicy::DropNewest)
            .auto_checkpoint(1_000, "engine.ckpt")
            .checkpoint_generations(3)
            .load_policy(LoadPolicy::default())
            .watchdog(WatchdogConfig::default())
            .snapshot_budget(SnapshotBudget::by_snapshots(64))
            .config;
        assert_eq!((c.shards, c.snapshot_every), (3, 16));
        assert_eq!(c.umicro.n_micro, 8);
        assert_eq!(c.decay_half_life, Some(500.0));
        assert_eq!(c.novelty_factor, Some(5.0));
        assert_eq!(c.novelty_baseline, NoveltyBaseline::Quantile(0.99));
        assert_eq!((c.channel_capacity, c.max_alerts), (64, 9));
        assert_eq!(c.validation, Some(ValidationPolicy::Quarantine));
        assert!(c.monotone_timestamps);
        assert_eq!(c.quarantine_capacity, 32);
        assert_eq!(c.backpressure, BackpressurePolicy::DropNewest);
        assert_eq!(c.checkpoint_every, Some(1_000));
        assert_eq!(c.checkpoint_path.as_deref(), Some("engine.ckpt"));
        assert_eq!(c.checkpoint_generations, 3);
        assert_eq!(c.load_policy, Some(LoadPolicy::default()));
        assert_eq!(c.watchdog, Some(WatchdogConfig::default()));
        assert_eq!(c.snapshot_budget.unwrap().max_snapshots, Some(64));
        assert!(c.validate().is_ok());
    }
}
