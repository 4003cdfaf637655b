//! `ustream stream` — replay a stream CSV through the sharded
//! [`StreamEngine`]: concurrent ingestion, periodic exact ECF merges,
//! novelty alerts and a per-shard throughput breakdown from the command
//! line.

use crate::args::{CliError, Flags};
use crate::commands::load_stream;
use std::time::Duration;
use umicro::UMicroConfig;
use ustream_common::DataStream;
use ustream_engine::{
    ClusterQuery, EngineBuilder, LoadPolicy, LoadStage, SnapshotBudget, StreamEngine,
    ValidationPolicy, WatchdogConfig,
};
use ustream_snapshot::PyramidConfig;

fn parse_validation(s: &str) -> Result<Option<ValidationPolicy>, CliError> {
    match s {
        "reject" => Ok(Some(ValidationPolicy::Reject)),
        "clamp" => Ok(Some(ValidationPolicy::Clamp)),
        "quarantine" => Ok(Some(ValidationPolicy::Quarantine)),
        "off" => Ok(None),
        other => {
            Err(format!("--validation must be reject|clamp|quarantine|off (got {other})").into())
        }
    }
}

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), CliError> {
    let input = flags.require("in")?;
    let shards: usize = flags.get("shards", 4)?;
    let n_micro: usize = flags.get("n-micro", 100)?;
    let k: usize = flags.get("k", 5)?;
    let seed: u64 = flags.get("seed", 42)?;
    let snapshot_every: u64 = flags.get("snapshot-every", 1_024)?;
    let batch: usize = flags.get("batch", 4_096)?;
    let novelty: f64 = flags.get("novelty-factor", 8.0)?;
    let alpha: u64 = flags.get("alpha", 2)?;
    let l: u32 = flags.get("l", 6)?;
    let horizon: Option<u64> = flags.get_opt("horizon")?;
    let validation = parse_validation(&flags.get_str("validation", "reject"))?;
    let checkpoint: Option<String> = flags.get_opt("checkpoint")?;
    let checkpoint_every: Option<u64> = flags.get_opt("checkpoint-every")?;
    let checkpoint_generations: u64 = flags.get("checkpoint-generations", 1)?;
    let resume: Option<String> = flags.get_opt("resume")?;
    let load_policy = match flags.get_str("load-policy", "off").as_str() {
        "off" => None,
        "on" => Some(LoadPolicy::default()),
        other => {
            return Err(format!("--load-policy must be on|off (got {other})").into());
        }
    };
    let keep_per_mille: Option<u64> = flags.get_opt("keep-per-mille")?;
    let watchdog_ms: Option<u64> = flags.get_opt("watchdog")?;
    let budget_snapshots: Option<usize> = flags.get_opt("snapshot-budget")?;
    let budget_bytes: Option<u64> = flags.get_opt("snapshot-budget-bytes")?;
    let drain_timeout: Option<u64> = flags.get_opt("drain-timeout")?;
    if checkpoint_every.is_some() && checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint <path>".into());
    }
    if keep_per_mille.is_some() && load_policy.is_none() {
        return Err("--keep-per-mille needs --load-policy on".into());
    }

    let stream = load_stream(input)?;
    let dims = stream.dims();
    let points: Vec<_> = stream.collect();

    let mut engine = match resume {
        Some(ref path) => {
            // The checkpoint carries the full engine configuration; the
            // clustering flags are ignored on resume.
            let engine = StreamEngine::restore(path)
                .map_err(|e| format!("cannot resume from {path}: {e}"))?;
            println!(
                "resumed from {path}: {} records already processed",
                engine.points_processed()
            );
            engine
        }
        None => {
            let mut builder = EngineBuilder::new(UMicroConfig::new(n_micro, dims)?)
                .shards(shards)
                .snapshot_every(snapshot_every)
                .pyramid(PyramidConfig::new(alpha, l)?)
                .validation(validation)
                .novelty_factor((novelty > 1.0).then_some(novelty))
                .checkpoint_generations(checkpoint_generations);
            if let (Some(every), Some(path)) = (checkpoint_every, checkpoint.as_deref()) {
                builder = builder.auto_checkpoint(every, path);
            }
            if let Some(mut policy) = load_policy {
                if let Some(keep) = keep_per_mille {
                    policy.keep_per_mille = keep;
                }
                builder = builder.load_policy(policy);
            }
            if let Some(ms) = watchdog_ms {
                builder = builder.watchdog(WatchdogConfig {
                    stall_deadline_ms: ms,
                    ..WatchdogConfig::default()
                });
            }
            if budget_snapshots.is_some() || budget_bytes.is_some() {
                builder = builder.snapshot_budget(SnapshotBudget {
                    max_snapshots: budget_snapshots,
                    max_bytes: budget_bytes,
                });
            }
            builder
                .build()
                .map_err(|e| format!("cannot start engine: {e}"))?
        }
    };
    for part in points.chunks(batch) {
        engine
            .push_slice(part)
            .map_err(|e| format!("ingestion failed: {e}"))?;
    }
    engine.flush();
    if let Some(ref path) = checkpoint {
        engine
            .checkpoint(path)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        println!("checkpoint written to {path}");
    }

    // All read-side queries below go through the unified `ClusterQuery`
    // surface — the same API the serving front-end answers over the wire.
    let mac = ClusterQuery::macro_cluster(&mut engine, k, seed);
    println!("macro-clusters (k = {k}):");
    for (i, (c, w)) in mac.centroids.iter().zip(&mac.weights).enumerate() {
        let head: Vec<String> = c.iter().take(5).map(|v| format!("{v:.3}")).collect();
        println!(
            "  #{i}: weight {w:>9.1}  centroid [{}{}]",
            head.join(", "),
            if c.len() > 5 { ", …" } else { "" }
        );
    }

    if let Some(h) = horizon {
        match ClusterQuery::horizon_clusters(&mut engine, h) {
            Ok(window) => println!(
                "\nwindow (last {h} ticks): {} micro-clusters, {:.0} points",
                window.len(),
                window.total_count()
            ),
            Err(e) => println!("\nwindow (last {h} ticks): unavailable ({e})"),
        }
    }

    let alerts = engine.drain_alerts();
    if !alerts.is_empty() {
        println!("\nnovelty alerts: {}", alerts.len());
        for a in alerts.iter().take(5) {
            println!(
                "  tick {:>8}: isolation {:.2} (baseline {:.2})",
                a.timestamp, a.isolation, a.baseline
            );
        }
    }

    let quarantined = engine.drain_quarantine();
    if !quarantined.is_empty() {
        println!("\nquarantined records: {}", quarantined.len());
        for q in quarantined.iter().take(5) {
            println!("  tick {:>8}: {}", q.point.timestamp(), q.fault);
        }
    }

    let report = match drain_timeout {
        Some(ms) => {
            let outcome = engine.shutdown_drain(Duration::from_millis(ms));
            println!(
                "\ndrain: {} ms ({} the {ms} ms deadline)",
                outcome.drain_millis,
                if outcome.deadline_met {
                    "met"
                } else {
                    "MISSED"
                }
            );
            outcome.report
        }
        None => engine.shutdown(),
    };
    println!(
        "\nprocessed {} records to tick {}; {} live micro-clusters, \
         {} snapshots retained",
        report.points_processed, report.last_tick, report.live_clusters, report.snapshots_retained
    );
    println!("health: {}", report.health);
    if report.points_rejected + report.points_clamped + report.points_quarantined > 0 {
        println!(
            "validation: {} rejected, {} clamped, {} quarantined ({} dropped from quarantine)",
            report.points_rejected,
            report.points_clamped,
            report.points_quarantined,
            report.quarantine_dropped
        );
    }
    if report.checkpoints_written > 0 {
        println!("auto-checkpoints written: {}", report.checkpoints_written);
    }
    if !report.load_transitions.is_empty() || report.load_stage != LoadStage::Normal {
        println!(
            "degradation ladder: final stage {}, {} shed, {} sampled out (keep {}‰)",
            report.load_stage,
            report.points_shed,
            report.points_sampled_out,
            report.sampling_keep_per_mille
        );
        for tr in &report.load_transitions {
            println!(
                "  {:>8} ms: {} -> {} (pressure {:.2})",
                tr.at_ms, tr.from, tr.to, tr.pressure
            );
        }
    }
    if report.stalls_detected > 0 {
        println!(
            "watchdog: {} stall(s) detected and rescued",
            report.stalls_detected
        );
    }
    if report.snapshot_budget_evictions > 0 {
        println!(
            "snapshot budget: {} evictions, {} bytes retained, horizon error bound {:.3}",
            report.snapshot_budget_evictions, report.snapshot_bytes, report.horizon_error_bound
        );
    }
    if let Some(e) = &report.last_checkpoint_error {
        println!("last checkpoint error: {e}");
    }
    println!(
        "{} shard(s), {} exact merges @ {:.0} µs mean:",
        report.per_shard.len(),
        report.merges,
        report.mean_merge_micros
    );
    for s in &report.per_shard {
        println!(
            "  shard {}: {:>9} records ({:>9.0} pts/s), {:>4} live clusters, {} alerts",
            s.shard, s.processed, s.points_per_sec, s.live_clusters, s.alerts_raised
        );
    }
    Ok(())
}
