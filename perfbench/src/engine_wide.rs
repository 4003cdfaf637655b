//! `engine-wide`: the sharded in-process engine at d=32, no socket and no
//! codec.
//!
//! A `StreamEngine` with 2 shards and a global budget of 200
//! micro-clusters (novelty at the default 8×, a merged snapshot every
//! 1024 records as `ustream stream` does, `Reject` validation). One
//! producer thread calls `push_slice` with 256-record batches and
//! `horizon_clusters` every 2 batches. Each shard's channel holds 8
//! batches, so a producer that outruns the shards blocks in `push_slice`
//! and the loop is closed.
//!
//! A write is one merge interval: the time of the 4 `push_slice` calls
//! that carry 1024 records. A single call's tail depends on whether it
//! met a shard's merge pause, which makes its p99 swing with host load;
//! every interval meets about one merge, so its p99 holds steady.

use crate::common::{
    median_secs, metric, note_error, peak_rss_mb, sampled, Pool, Report, RunCfg, Samples, Series,
};
use crate::probes::{self, Shape};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use umicro::{Ecf, UMicro, UMicroConfig};
use ustream_common::UncertainPoint;
use ustream_engine::{EngineBuilder, StreamEngine, ValidationPolicy};
use ustream_snapshot::{shard_of_id, SHARD_ID_BITS};

const SHARDS: usize = 2;
const DIMS: usize = 32;
const N_MICRO: usize = 200;
const BATCH: usize = 256;
const SNAPSHOT_EVERY: u64 = 1024;
const QUERY_EVERY: u64 = 2;
const HORIZON: u64 = 2048;
const CHANNEL_BATCHES: usize = 8;
/// Batches per timed write: one merge interval (`SNAPSHOT_EVERY` records).
const WRITE_BATCHES: u64 = SNAPSHOT_EVERY / BATCH as u64;
/// Batches pushed before timing: enough merged snapshots that every
/// timed horizon query finds its base.
const WARM_BATCHES: u64 = 32;
const SETUP_REPS: usize = 41;
const POOL_LEN: usize = 1 << 15;
const MACRO_K: usize = 5;
/// Traced pass: sample `stats()` every this many batches and time a
/// `flush()` every `FLUSH_EVERY`.
const STATS_EVERY: u64 = 8;
const FLUSH_EVERY: u64 = 128;

fn build() -> Result<StreamEngine, String> {
    let cfg = UMicroConfig::new(N_MICRO, DIMS).map_err(|e| e.to_string())?;
    EngineBuilder::new(cfg)
        .shards(SHARDS)
        .snapshot_every(SNAPSHOT_EVERY)
        .validation(Some(ValidationPolicy::Reject))
        .channel_capacity(CHANNEL_BATCHES)
        .build()
        .map_err(|e| e.to_string())
}

/// Batch `k` of the stream: pooled records stamped with global ticks.
fn batch(pool: &Pool, k: u64) -> Vec<UncertainPoint> {
    let base = k * BATCH as u64;
    (base..base + BATCH as u64)
        .map(|i| pool.point(i, i + 1))
        .collect()
}

struct Tally {
    /// One `push_slice` call each.
    push: Samples,
    /// One merge interval of `push_slice` calls each.
    write: Samples,
    query: Samples,
    flush: Samples,
    queue_depth: Samples,
    ops: u64,
    failed: u64,
    errors: Vec<String>,
    /// Horizon answers with no cluster in a window that holds `HORIZON`
    /// records: counted and reported, not failed (see the README).
    empty_windows: u64,
    /// Records per accepted batch.
    points: Series,
}

/// Pushes batches from `*next` until `deadline`, then flushes; returns
/// the tally and the elapsed time including the final flush.
fn pass(
    engine: &StreamEngine,
    pool: &Pool,
    next: &mut u64,
    secs: f64,
    traced: bool,
) -> (Tally, f64) {
    let t0 = Instant::now();
    let mut t = Tally {
        push: Samples::default(),
        write: Samples::default(),
        query: Samples::default(),
        flush: Samples::default(),
        queue_depth: Samples::default(),
        ops: 0,
        failed: 0,
        errors: Vec::new(),
        empty_windows: 0,
        points: Series::new(t0),
    };
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut interval_us = 0.0;
    while Instant::now() < deadline {
        let k = *next;
        let b = batch(pool, k);
        let s = Instant::now();
        let pushed = engine.push_slice(&b);
        let push_us = s.elapsed().as_secs_f64() * 1e6;
        t.push.push(push_us);
        interval_us += push_us;
        if (k + 1).is_multiple_of(WRITE_BATCHES) {
            t.write.push(interval_us);
            interval_us = 0.0;
        }
        t.ops += 1;
        match pushed {
            Ok(()) => t.points.record(BATCH as u64),
            Err(e) => {
                t.failed += 1;
                note_error(&mut t.errors, format!("push_slice of batch {k}: {e}"));
            }
        }
        *next += 1;
        if k.is_multiple_of(QUERY_EVERY) {
            let s = Instant::now();
            let answer = engine.horizon_clusters(HORIZON);
            t.query.since(s);
            t.ops += 1;
            match answer {
                Ok(w) if w.clusters.is_empty() => t.empty_windows += 1,
                Ok(_) => {}
                Err(e) => {
                    t.failed += 1;
                    note_error(&mut t.errors, format!("horizon query after batch {k}: {e}"));
                }
            }
        }
        if traced && k.is_multiple_of(STATS_EVERY) {
            let depth: u64 = engine.stats().per_shard.iter().map(|s| s.queue_depth).sum();
            t.queue_depth.push(depth as f64);
        }
        if traced && k.is_multiple_of(FLUSH_EVERY) {
            let s = Instant::now();
            engine.flush();
            t.flush.since(s);
        }
    }
    engine.flush();
    (t, t0.elapsed().as_secs_f64())
}

/// Replays every batch into one `UMicro` per shard along the engine's
/// round-robin routing (call `k` sends its first half to shard `k mod
/// 2`, its second half to the other) and compares with
/// `micro_clusters()`, bit for bit.
fn reference_check(
    rep: &mut Report,
    engine: &StreamEngine,
    pool: &Pool,
    batches: u64,
) -> Result<(), String> {
    let mask = (1u64 << SHARD_ID_BITS) - 1;
    let mut live: Vec<BTreeMap<u64, Ecf>> = vec![BTreeMap::new(); SHARDS];
    for mc in engine.micro_clusters() {
        live[shard_of_id(mc.id)].insert(mc.id & mask, mc.ecf);
    }
    let shard_cfg = UMicroConfig::new(N_MICRO.div_ceil(SHARDS), DIMS).map_err(|e| e.to_string())?;
    let chunk = BATCH.div_ceil(SHARDS);
    let refs: Vec<BTreeMap<u64, Ecf>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let cfg = shard_cfg.clone();
                s.spawn(move || {
                    let mut alg = UMicro::new(cfg);
                    for k in 0..batches {
                        let b = batch(pool, k);
                        for (off, part) in b.chunks(chunk).enumerate() {
                            if (k as usize + off) % SHARDS == shard {
                                for p in part {
                                    alg.insert(p);
                                }
                            }
                        }
                    }
                    alg.micro_clusters()
                        .iter()
                        .map(|mc| (mc.id, mc.ecf.clone()))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "reference thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    for (shard, want) in refs.iter().enumerate() {
        let got = &live[shard];
        let differing = want
            .iter()
            .filter(|(id, ecf)| got.get(*id) != Some(*ecf))
            .count()
            + got.keys().filter(|id| !want.contains_key(id)).count();
        rep.check(
            format!(
                "shard {shard}: {} micro-clusters after {batches} batches equal a per-shard UMicro",
                got.len()
            ),
            differing as u64,
        );
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let pool = Pool::new(cfg.seed, POOL_LEN, DIMS, 12, 6.0, 0.5);
    let mut rep = Report::default();

    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        let t0 = Instant::now();
        let e = build()?;
        setup.push(t0.elapsed().as_secs_f64());
        e.shutdown();
    }
    let t0 = Instant::now();
    let engine = build()?;
    setup.push(t0.elapsed().as_secs_f64());
    rep.add(metric("setup_s", median_secs(&setup), "s"));

    let result = drive(cfg, &engine, &pool, &mut rep);
    engine.shutdown();
    result?;
    Ok(rep)
}

fn drive(cfg: &RunCfg, engine: &StreamEngine, pool: &Pool, rep: &mut Report) -> Result<(), String> {
    for k in 0..WARM_BATCHES {
        engine
            .push_slice(&batch(pool, k))
            .map_err(|e| e.to_string())?;
    }
    engine.flush();
    let mut next = WARM_BATCHES;
    let mut empty_windows = 0;
    for (traced, secs) in cfg.passes() {
        let before = engine.stats();
        let (mut t, elapsed) = pass(engine, pool, &mut next, secs, traced);
        rep.attempted += t.ops;
        rep.failed += t.failed;
        rep.errors.append(&mut t.errors);
        let pps = t.points.rate(elapsed);
        empty_windows += t.empty_windows;
        if traced {
            let after = engine.stats();
            let points = (after.points_processed - before.points_processed).max(1) as f64;
            let merges = after.merges - before.merges;
            rep.add(metric("points_per_s.traced", pps, "1/s"));
            rep.add(sampled("engine.push_slice_p50_us", &t.push, 0.5, "us"));
            rep.add(sampled("engine.push_slice_p99_us", &t.push, 0.99, "us"));
            rep.add(sampled("engine.flush_us", &t.flush, 0.5, "us"));
            rep.add(sampled("engine.queue_depth", &t.queue_depth, 0.5, "count"));
            rep.add(metric("engine.merges", merges as f64, "count"));
            rep.add(metric(
                "engine.mean_merge_us",
                after.mean_merge_micros,
                "us",
            ));
            rep.add(metric(
                "engine.clusters_created_per_point",
                (after.clusters_created - before.clusters_created) as f64 / points,
                "ratio",
            ));
            rep.add(metric("engine.batch_us", 1e6 * BATCH as f64 / pps, "us"));
        } else {
            rep.add(metric("points_per_s", pps, "1/s"));
            rep.add(metric("points_per_s.untraced", pps, "1/s"));
            rep.add(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
            rep.add(sampled("write_p50_us", &t.write, 0.5, "us"));
            rep.add(sampled("write_p99_us", &t.write, 0.99, "us"));
            rep.add(sampled("read_p50_us", &t.query, 0.5, "us"));
            rep.add(sampled("read_p99_us", &t.query, 0.99, "us"));
        }
    }
    rep.add(metric(
        "engine.empty_windows",
        empty_windows as f64,
        "count",
    ));
    if empty_windows > 0 {
        rep.notes.push(format!(
            "{empty_windows} horizon queries answered an empty {HORIZON}-tick window"
        ));
    }
    if cfg.trace {
        layers(cfg, pool, rep)?;
    }
    reference_check(rep, engine, pool, next)
}

/// Layer probes at this shape, and what they leave unexplained of the
/// per-batch time.
fn layers(cfg: &RunCfg, pool: &Pool, rep: &mut Report) -> Result<(), String> {
    let shape = Shape {
        label: "engine-wide",
        dims: DIMS,
        n_micro: N_MICRO.div_ceil(SHARDS),
        batch: BATCH,
        tenants: 1,
        shards: SHARDS,
        macro_k: MACRO_K,
        pool,
        tmp: &cfg.tmp,
    };
    for m in probes::run(&shape)? {
        rep.add(m);
    }
    // The shards run in parallel, each clustering half a batch (isolation
    // then insert per record) plus its share of the merges; the producer's
    // validation overlaps with them.
    let per_shard = BATCH.div_ceil(SHARDS) as f64;
    let merge_share = rep.get("engine.mean_merge_us") * BATCH as f64 / SNAPSHOT_EVERY as f64;
    let cluster_us = per_shard * (rep.get("core.insert_ns") + rep.get("core.isolation_ns")) / 1e3;
    rep.add(metric(
        "unattributed_us",
        rep.get("engine.batch_us") - cluster_us - merge_share,
        "us",
    ));
    rep.notes.push(
        "unattributed_us = engine.batch_us - 128 * (core.insert_ns + core.isolation_ns) - merge time per batch"
            .into(),
    );
    Ok(())
}
