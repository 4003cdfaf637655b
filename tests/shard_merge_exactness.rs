//! Sharded-ingestion correctness: Property 2.1 makes the fold of per-shard
//! ECF sets an *exact* reconstruction of the concatenated stream's
//! statistics, and budget-split sharding must not degrade clustering
//! quality on the paper's SynDrift workload.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use umicro::{Ecf, OnlineClusterer, UMicro, UMicroConfig};
use ustream_common::{AdditiveFeature, UncertainPoint};
use ustream_engine::{EngineBuilder, EngineConfig};
use ustream_eval::ClusterPurity;
use ustream_snapshot::{merge_namespaced, namespaced_id, shard_of_id};
use ustream_synth::SynDriftConfig;

const DIMS: usize = 3;

fn arb_point() -> impl Strategy<Value = UncertainPoint> {
    (
        pvec(-50.0..50.0f64, DIMS),
        pvec(0.0..5.0f64, DIMS),
        1u64..1000,
    )
        .prop_map(|(values, errors, t)| UncertainPoint::new(values, errors, t, None))
}

/// Relative comparison tolerant of the differing summation orders between
/// per-cluster accumulation and one bulk pass.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Route a stream round-robin across `shards` independent UMicro
    /// instances, fold their snapshots with `merge_namespaced`, and check
    /// the merged set carries *exactly* the additive statistics (count,
    /// CF1x, CF2x, EF2x per dimension) of the concatenated stream.
    #[test]
    fn sharded_merge_matches_concatenated_stream(
        points in pvec(arb_point(), 1..40),
        shards in 1usize..5,
    ) {
        // Budget large enough that no shard ever evicts: every point stays
        // accounted for, so the merged set must reproduce the stream total.
        let mut workers: Vec<UMicro> = (0..shards)
            .map(|_| UMicro::new(UMicroConfig::new(64, DIMS).unwrap()))
            .collect();
        for (i, p) in points.iter().enumerate() {
            let _ = workers[i % shards].insert(p);
        }

        let now = points.iter().map(|p| p.timestamp()).max().unwrap();
        let merged = merge_namespaced(
            workers
                .iter_mut()
                .enumerate()
                .map(|(s, w)| (s, w.snapshot_at(now))),
        );

        // Ground truth: one bulk ECF over the concatenated stream.
        let mut bulk = Ecf::empty(DIMS);
        for p in &points {
            bulk.insert(p);
        }

        prop_assert!(close(merged.total_count(), bulk.count()));
        for j in 0..DIMS {
            let (mut cf1, mut cf2, mut ef2) = (0.0, 0.0, 0.0);
            for ecf in merged.clusters.values() {
                cf1 += ecf.cf1()[j];
                cf2 += ecf.cf2()[j];
                ef2 += ecf.ef2()[j];
            }
            prop_assert!(close(cf1, bulk.cf1()[j]), "CF1[{j}]: {cf1} vs {}", bulk.cf1()[j]);
            prop_assert!(close(cf2, bulk.cf2()[j]), "CF2[{j}]: {cf2} vs {}", bulk.cf2()[j]);
            prop_assert!(close(ef2, bulk.ef2()[j]), "EF2[{j}]: {ef2} vs {}", bulk.ef2()[j]);
        }

        // Namespacing sanity: every merged id decodes to a live shard.
        for id in merged.clusters.keys() {
            prop_assert!(shard_of_id(*id) < shards);
        }
    }
}

/// Splitting the micro-cluster budget across shards (the engine's
/// `shard_n_micro` policy) must preserve clustering quality: sharded purity
/// on a seeded SynDrift stream stays within a few points of the
/// single-worker purity.
#[test]
fn sharded_purity_matches_single_worker_on_syndrift() {
    let points: Vec<UncertainPoint> = SynDriftConfig::small_test().build(42).take(6_000).collect();
    let config = EngineConfig {
        shards: 4,
        ..EngineConfig::new(UMicroConfig::new(40, 5).unwrap())
    };

    // Single worker, full budget.
    let mut single = UMicro::new(config.umicro.clone());
    let mut single_purity = ClusterPurity::new();
    for p in &points {
        let out = single.insert(p);
        single_purity.observe(out.cluster_id, p.label().expect("SynDrift labels points"));
        if let Some(evicted) = out.evicted {
            single_purity.remove_cluster(evicted);
        }
    }

    // Four workers, the engine's even budget split, round-robin routing and
    // namespaced ids — the same policy `StreamEngine` applies.
    let mut shard_cfg = config.umicro.clone();
    shard_cfg.n_micro = config.shard_n_micro();
    let mut workers: Vec<UMicro> = (0..config.shards)
        .map(|_| UMicro::new(shard_cfg.clone()))
        .collect();
    let mut sharded_purity = ClusterPurity::new();
    for (i, p) in points.iter().enumerate() {
        let shard = i % config.shards;
        let out = workers[shard].insert(p);
        sharded_purity.observe(
            namespaced_id(shard, out.cluster_id),
            p.label().expect("SynDrift labels points"),
        );
        if let Some(evicted) = out.evicted {
            sharded_purity.remove_cluster(namespaced_id(shard, evicted));
        }
    }

    let single = single_purity.purity().expect("points observed");
    let sharded = sharded_purity.purity().expect("points observed");
    assert!(single > 0.5, "single-worker purity degenerate: {single}");
    assert!(sharded > 0.5, "sharded purity degenerate: {sharded}");
    assert!(
        (single - sharded).abs() < 0.10,
        "sharding moved purity too far: single {single:.3} vs sharded {sharded:.3}"
    );
}

/// End-to-end: the threaded 4-shard engine on a SynDrift prefix produces
/// *bitwise* the same global micro-cluster view as a single-threaded
/// simulation of the identical policy (round-robin routing, even budget
/// split, namespaced ids) — threading and channel hops add no drift.
#[test]
fn sharded_engine_is_exact_on_syndrift() {
    let points: Vec<UncertainPoint> = SynDriftConfig::small_test().build(7).take(2_000).collect();
    let config = EngineConfig {
        shards: 4,
        snapshot_every: 100,
        novelty_factor: None,
        ..EngineConfig::new(UMicroConfig::new(48, 5).unwrap())
    };

    // Reference: the same routing and budgets, run inline.
    let mut shard_cfg = config.umicro.clone();
    shard_cfg.n_micro = config.shard_n_micro();
    let mut workers: Vec<UMicro> = (0..config.shards)
        .map(|_| UMicro::new(shard_cfg.clone()))
        .collect();
    let mut expected = std::collections::BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        let _ = workers[i % config.shards].insert(p);
    }
    for (s, w) in workers.iter_mut().enumerate() {
        for (id, ecf) in OnlineClusterer::live_clusters(w).clusters {
            expected.insert(namespaced_id(s, id), ecf);
        }
    }

    // `push` routes round-robin from a zero cursor, so a single producer
    // reproduces the reference routing exactly.
    let engine = EngineBuilder::from_config(config)
        .build()
        .expect("engine starts");
    for p in &points {
        engine.push(p.clone()).expect("engine accepts records");
    }
    engine.flush();
    let micro = engine.micro_clusters();

    assert_eq!(micro.len(), expected.len());
    for mc in &micro {
        let reference = expected.get(&mc.id).expect("cluster id matches reference");
        assert_eq!(mc.ecf.count(), reference.count(), "count of id {}", mc.id);
        assert_eq!(mc.ecf.cf1(), reference.cf1(), "CF1 of id {}", mc.id);
        assert_eq!(mc.ecf.cf2(), reference.cf2(), "CF2 of id {}", mc.id);
        assert_eq!(mc.ecf.ef2(), reference.ef2(), "EF2 of id {}", mc.id);
    }

    let report = engine.shutdown();
    assert_eq!(report.points_processed, points.len() as u64);
    assert!(report.merges >= 1);
}
