//! # ustream-engine
//!
//! A high-level, thread-backed analytics engine over the UMicro algorithm —
//! the "interactive and online clustering in a data stream environment" the
//! paper's §II-D motivates, packaged as a component an application can
//! embed:
//!
//! * **concurrent ingestion** — producers push `(X, ψ(X))` records through
//!   a bounded crossbeam channel; a dedicated worker thread runs the
//!   one-pass clustering so producers never block on clustering work
//!   (beyond backpressure);
//! * **pyramidal snapshots** — the worker files micro-cluster snapshots
//!   into the pyramidal time frame at a configurable cadence;
//! * **interactive queries** — at any moment, any thread can ask for the
//!   live micro-clusters, macro-clusters, an arbitrary-horizon view, or an
//!   [`umicro::EvolutionReport`] comparing two adjacent windows;
//! * **novelty alerts** — records whose error-corrected distance to every
//!   known cluster exceeds a configurable multiple of the running isolation
//!   level are surfaced as [`NoveltyAlert`]s.
//!
//! Ingestion is **sharded**: [`EngineBuilder::shards`] spreads the
//! stream round-robin across `n` independent workers, each clustering an
//! even share of the global micro-cluster budget behind its own lock. The
//! additive ECF (Property 2.1) makes the periodic fold of shard states into
//! the global snapshot view *exact*, so horizon and evolution queries are
//! unchanged by sharding. Every shard clusterer is a boxed
//! [`umicro::OnlineClusterer`], so the same engine can drive UMicro, the
//! decayed variant, or any custom implementation ([`EngineBuilder::build_with`]).
//!
//! The engine is built to stay up: shard workers are **supervised**
//! (a panicking worker is respawned and reseeded from the last merged
//! snapshot, surfaced via [`EngineReport::health`]), malformed records are
//! **validated** at the producer boundary ([`ValidationPolicy`] decides
//! whether they are rejected, repaired or quarantined), and the complete
//! engine state can be **checkpointed** atomically and restored bit-for-bit
//! ([`StreamEngine::checkpoint`] / [`StreamEngine::restore`]).
//!
//! ```
//! use ustream_engine::EngineBuilder;
//! use umicro::UMicroConfig;
//! use ustream_common::UncertainPoint;
//!
//! let engine = EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
//!     .shards(2)
//!     .build()
//!     .expect("engine workers spawn");
//! for t in 1..=100u64 {
//!     let x = if t % 2 == 0 { 0.0 } else { 8.0 };
//!     engine
//!         .push(UncertainPoint::new(vec![x, -x], vec![0.3, 0.3], t, None))
//!         .expect("engine accepts records until shutdown");
//! }
//! engine.flush();
//! assert_eq!(engine.points_processed(), 100);
//! let macros = engine.macro_clusters(2, 7);
//! assert_eq!(macros.k(), 2);
//! let report = engine.shutdown();
//! assert_eq!(report.points_processed, 100);
//! assert_eq!(report.per_shard.len(), 2);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod builder;
pub mod checkpoint;
mod config;
mod engine;
#[cfg(feature = "failpoints")]
pub mod failpoints;
mod load;
mod report;
mod validate;

pub use builder::EngineBuilder;
pub use checkpoint::EngineCheckpoint;
pub use config::{EngineConfig, NoveltyBaseline};
pub use engine::{DynClusterer, StreamEngine, TryPushError};
pub use load::{DrainOutcome, Ladder, LoadPolicy, LoadStage, LoadTransition, WatchdogConfig};
pub use report::{EngineReport, HealthStatus, NoveltyAlert, ShardStats};
pub use umicro::{ClusterQuery, QueryStats};
pub use ustream_snapshot::SnapshotBudget;
pub use validate::{
    BackpressurePolicy, PointFault, Quarantine, QuarantinedPoint, ValidationPolicy,
};
