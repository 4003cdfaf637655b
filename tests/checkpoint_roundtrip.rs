//! Property-based checkpoint/restore round-trips: for random streams,
//! shard counts and snapshot cadences, a restored engine must reproduce
//! the checkpointed engine *bit for bit* — micro-cluster ECFs, horizon
//! queries and counters — and must continue the stream identically.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use umicro::UMicroConfig;
use ustream_common::UncertainPoint;
use ustream_engine::{EngineBuilder, StreamEngine};

const DIMS: usize = 2;

/// Unique checkpoint path per proptest case (cases run in one process).
fn case_path() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test-harness counter; thread::join supplies the final synchronisation
    std::env::temp_dir()
        .join(format!("ustream-roundtrip-{}-{n}.ckpt", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn arb_stream() -> impl Strategy<Value = Vec<UncertainPoint>> {
    pvec(
        (pvec(-50.0..50.0f64, DIMS), pvec(0.0..5.0f64, DIMS)),
        20..200,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (values, errors))| UncertainPoint::new(values, errors, i as u64 + 1, None))
            .collect()
    })
}

fn assert_engines_identical(a: &StreamEngine, b: &StreamEngine) {
    assert_eq!(a.points_processed(), b.points_processed());
    let mut ca = a.micro_clusters();
    let mut cb = b.micro_clusters();
    ca.sort_by_key(|c| c.id);
    cb.sort_by_key(|c| c.id);
    assert_eq!(ca.len(), cb.len(), "cluster counts diverged");
    for (x, y) in ca.iter().zip(&cb) {
        assert_eq!(x.id, y.id);
        // Ecf implements PartialEq field-by-field on the raw f64 vectors:
        // this is a bit-for-bit comparison, not an epsilon one.
        assert_eq!(x.ecf, y.ecf, "ECF of cluster {} diverged", x.id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restore_reproduces_engine_bit_for_bit(
        points in arb_stream(),
        shards in 1usize..4,
        snapshot_every in 1u64..32,
        n_micro in 4usize..16,
        tail in pvec((pvec(-50.0..50.0f64, DIMS), pvec(0.0..5.0f64, DIMS)), 0..40),
    ) {
        let path = case_path();
        let e = EngineBuilder::new(UMicroConfig::new(n_micro, DIMS).unwrap())
            .shards(shards)
            .snapshot_every(snapshot_every)
            .build()
            .unwrap();
        for p in &points {
            e.push(p.clone()).unwrap();
        }
        e.flush();
        e.checkpoint(&path).unwrap();

        let r = StreamEngine::restore(&path).unwrap();
        assert_engines_identical(&e, &r);

        // Horizon queries resolve identically from the replayed pyramid.
        let last = points.last().map_or(0, |p| p.timestamp());
        for h in [1, last / 2 + 1, last + 1] {
            let wa = e.horizon_clusters(h);
            let wb = r.horizon_clusters(h);
            match (wa, wb) {
                (Ok(wa), Ok(wb)) => prop_assert_eq!(&wa.clusters, &wb.clusters),
                (Err(_), Err(_)) => {}
                (wa, wb) => prop_assert!(false, "horizon {} diverged: {:?} vs {:?}", h, wa.is_ok(), wb.is_ok()),
            }
        }

        // Continuation: feed both engines the same tail and they stay
        // identical — the restored engine is indistinguishable from an
        // uninterrupted run.
        for (i, (values, errors)) in tail.iter().enumerate() {
            let p = UncertainPoint::new(values.clone(), errors.clone(), last + i as u64 + 1, None);
            e.push(p.clone()).unwrap();
            r.push(p).unwrap();
        }
        e.flush();
        r.flush();
        assert_engines_identical(&e, &r);

        e.shutdown();
        r.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restored_report_preserves_counters(
        points in arb_stream(),
        shards in 1usize..4,
    ) {
        let path = case_path();
        let e = EngineBuilder::new(UMicroConfig::new(8, DIMS).unwrap())
            .shards(shards)
            .snapshot_every(8)
            .build()
            .unwrap();
        for p in &points {
            e.push(p.clone()).unwrap();
        }
        e.flush();
        e.checkpoint(&path).unwrap();
        let ra = e.stats();

        let r = StreamEngine::restore(&path).unwrap();
        let rb = r.stats();
        prop_assert_eq!(ra.points_processed, rb.points_processed);
        prop_assert_eq!(ra.live_clusters, rb.live_clusters);
        prop_assert_eq!(ra.clusters_created, rb.clusters_created);
        prop_assert_eq!(ra.clusters_evicted, rb.clusters_evicted);
        prop_assert_eq!(ra.last_tick, rb.last_tick);
        prop_assert_eq!(ra.merges, rb.merges);
        let pa: Vec<u64> = ra.per_shard.iter().map(|s| s.processed).collect();
        let pb: Vec<u64> = rb.per_shard.iter().map(|s| s.processed).collect();
        prop_assert_eq!(pa, pb);

        e.shutdown();
        r.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}
