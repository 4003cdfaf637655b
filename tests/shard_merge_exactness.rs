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

/// A seeded stream of `len` records at ticks `1..=len`: three blobs in
/// d=3, so each shard keeps a handful of clusters and never evicts.
fn ticked_stream(len: u64) -> Vec<UncertainPoint> {
    let mut state = 0x0dd5_eed5_u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (1..=len)
        .map(|t| {
            let centre = (unit() * 3.0).floor() * 20.0;
            let values = (0..DIMS).map(|_| centre + unit() - 0.5).collect();
            let errors = (0..DIMS).map(|_| 0.1 + 0.3 * unit()).collect();
            UncertainPoint::new(values, errors, t, None)
        })
        .collect()
}

/// Each cluster's id and its ECF's binary layout, `to_bits()` exact.
fn ecf_bits(snap: &ustream_snapshot::ClusterSetSnapshot<Ecf>) -> Vec<(u64, Vec<u8>)> {
    snap.clusters
        .iter()
        .map(|(id, ecf)| {
            let mut bytes = Vec::new();
            ustream_common::codec::Codec::encode(&**ecf, &mut bytes);
            (*id, bytes)
        })
        .collect()
}

/// Call lengths for the sliced runs: boundaries fall inside slices, and
/// some slices are shorter than the shard count.
const SLICES: [usize; 7] = [5, 13, 1, 29, 64, 2, 40];

/// Feeds `stream` into a `shards`-shard engine cutting every `every`
/// records — one `push` per record, or `push_slice` calls of [`SLICES`]
/// lengths — and checks every snapshot the checkpoint holds against
/// per-shard reference `UMicro`s fed the same routing.
fn check_cuts(shards: usize, every: u64, sliced: bool, stream: &[UncertainPoint]) {
    let config = EngineConfig {
        shards,
        snapshot_every: every,
        novelty_factor: None,
        ..EngineConfig::new(UMicroConfig::new(48, DIMS).expect("valid config"))
    };
    let mut shard_cfg = config.umicro.clone();
    shard_cfg.n_micro = config.shard_n_micro();
    let engine = EngineBuilder::from_config(config)
        .build()
        .expect("engine starts");

    // The engine's routing: every call starts one shard further round the
    // ring, and a slice goes out as one contiguous chunk per shard.
    let mut owner = Vec::with_capacity(stream.len());
    let mut cursor = 0usize;
    let mut next = 0usize;
    let mut calls = 0usize;
    while next < stream.len() {
        let len = if sliced {
            SLICES[calls % SLICES.len()].min(stream.len() - next)
        } else {
            1
        };
        let call = &stream[next..next + len];
        if sliced {
            engine.push_slice(call).expect("engine accepts records");
        } else {
            engine
                .push(call[0].clone())
                .expect("engine accepts records");
        }
        let chunk = len.div_ceil(shards);
        owner.extend((0..len).map(|i| (cursor + i / chunk) % shards));
        cursor += 1;
        calls += 1;
        next += len;
    }
    engine.flush();

    // The reference snapshot of every cut: each shard's UMicro fed its own
    // records among the first `k · every`.
    let mut refs: Vec<UMicro> = (0..shards)
        .map(|_| UMicro::new(shard_cfg.clone()))
        .collect();
    let mut expected = std::collections::BTreeMap::new();
    for (i, (p, &s)) in stream.iter().zip(&owner).enumerate() {
        let _ = refs[s].insert(p);
        let ordinal = i as u64 + 1;
        if ordinal.is_multiple_of(every) {
            let merged = merge_namespaced(
                refs.iter_mut()
                    .enumerate()
                    .map(|(s, r)| (s, r.snapshot_at(ordinal))),
            );
            expected.insert(ordinal, ecf_bits(&merged));
        }
    }

    let path = std::env::temp_dir()
        .join(format!(
            "ustream-cuts-{}-{shards}-{every}-{sliced}.ckpt",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    engine.checkpoint(&path).expect("checkpoint written");
    let ckpt = ustream_engine::checkpoint::read(&path).expect("checkpoint reads back");
    let _ = std::fs::remove_file(&path);
    let report = engine.shutdown();
    let label = format!("shards {shards}, every {every}, sliced {sliced}");
    assert_eq!(report.merges, expected.len() as u64, "{label}: cuts filed");
    assert!(ckpt.snapshots.len() >= 5, "{label}: too few snapshots kept");
    for entry in &ckpt.snapshots {
        // Ticks are ordinals, so the highest tick up to cut k is k · every.
        let want = expected
            .get(&entry.time)
            .unwrap_or_else(|| panic!("{label}: snapshot stamped {} is no cut", entry.time));
        assert!(
            ecf_bits(&entry.clusters) == *want,
            "{label}: the snapshot at {} is not the reference cut",
            entry.time
        );
    }
}

/// Every stored snapshot is an exact cut. With one producer, the snapshot
/// filed for cut `k` equals, bit for bit, the union of per-shard reference
/// clusterers fed each shard's records among the first `k ·
/// snapshot_every`, and it is stamped with the highest tick among them —
/// for record-by-record pushes and for slices that boundaries cut through.
#[test]
fn every_stored_snapshot_is_an_exact_cut() {
    let stream = ticked_stream(640);
    for shards in [2, 3] {
        for every in [1, 7, 64] {
            for sliced in [false, true] {
                check_cuts(shards, every, sliced, &stream);
            }
        }
    }
}

/// With several producers the sends race after routing, so a shard can
/// reach cut `k + 1` before cut `k`. Stored snapshots must still nest: no
/// cluster's count falls from one stored snapshot to the next (nothing is
/// evicted here), so a horizon subtraction between any two of them never
/// goes negative.
#[test]
fn concurrent_producers_file_nested_snapshots() {
    const PRODUCERS: usize = 4;
    let stream = ticked_stream(1_600);
    for shards in [2, 3] {
        // Room for every record to open its own cluster, so none is evicted.
        let engine = EngineBuilder::new(UMicroConfig::new(4_800, DIMS).expect("valid config"))
            .shards(shards)
            .snapshot_every(1)
            .novelty_factor(None)
            .build()
            .expect("engine starts");
        std::thread::scope(|scope| {
            for (p, &len) in SLICES.iter().take(PRODUCERS).enumerate() {
                let (engine, stream) = (&engine, &stream);
                scope.spawn(move || {
                    let mine: Vec<UncertainPoint> =
                        stream.iter().skip(p).step_by(PRODUCERS).cloned().collect();
                    for (i, call) in mine.chunks(len).enumerate() {
                        if i % 2 == 0 {
                            engine.push_slice(call).expect("engine accepts records");
                        } else {
                            for point in call {
                                engine.push(point.clone()).expect("engine accepts records");
                            }
                        }
                    }
                });
            }
        });
        engine.flush();
        let path = std::env::temp_dir()
            .join(format!(
                "ustream-nested-{}-{shards}.ckpt",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        engine.checkpoint(&path).expect("checkpoint written");
        let ckpt = ustream_engine::checkpoint::read(&path).expect("checkpoint reads back");
        let _ = std::fs::remove_file(&path);
        let report = engine.shutdown();
        assert_eq!(report.clusters_evicted, 0, "shards {shards}");
        assert_eq!(report.merges, stream.len() as u64, "shards {shards}");
        let newest = ckpt.snapshots.last().expect("snapshots stored");
        assert_eq!(newest.clusters.total_count(), stream.len() as f64);
        for pair in ckpt.snapshots.windows(2) {
            let (earlier, later) = (&pair[0], &pair[1]);
            for (id, ecf) in &earlier.clusters.clusters {
                let now = later.clusters.clusters.get(id).map_or(0.0, |e| e.count());
                assert!(
                    now >= ecf.count(),
                    "shards {shards}: cluster {id} falls from {} at {} to {now} at {}",
                    ecf.count(),
                    earlier.time,
                    later.time
                );
            }
        }
    }
}
