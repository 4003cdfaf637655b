//! Pyramidal time-frame costs: snapshot recording, horizon lookup,
//! subtractive window reconstruction, and the engine's merge tick.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use umicro::{Ecf, UMicroConfig};
use ustream_common::UncertainPoint;
use ustream_engine::EngineBuilder;
use ustream_snapshot::{ClusterSetSnapshot, PyramidConfig, SnapshotStore};

fn snapshot(dims: usize, clusters: usize, tick: u64) -> ClusterSetSnapshot<Ecf> {
    ClusterSetSnapshot::from_pairs((0..clusters as u64).map(|id| {
        let mut e = Ecf::empty(dims);
        for i in 0..4 {
            let values: Vec<f64> = (0..dims)
                .map(|j| (id + i + j as u64) as f64 * 0.1)
                .collect();
            let errors = vec![0.05; dims];
            e.insert(&UncertainPoint::new(values, errors, tick, None));
        }
        (id, e)
    }))
}

fn bench_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_record");
    for &clusters in &[10usize, 100] {
        let snap = snapshot(20, clusters, 1);
        group.bench_with_input(
            BenchmarkId::new("record_1k_ticks", clusters),
            &clusters,
            |b, _| {
                b.iter(|| {
                    let mut store = SnapshotStore::new(PyramidConfig::default());
                    for t in 1..=1_000u64 {
                        store.record(t, snap.clone());
                    }
                    store.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_horizon(c: &mut Criterion) {
    let mut store = SnapshotStore::new(PyramidConfig::new(2, 6).expect("valid pyramid config"));
    for t in 1..=10_000u64 {
        store.record(t, snapshot(20, 100, t));
    }
    let mut group = c.benchmark_group("snapshot_horizon");
    for &h in &[10u64, 100, 1_000] {
        group.bench_with_input(BenchmarkId::new("lookup", h), &h, |b, &h| {
            b.iter(|| {
                black_box(
                    store
                        .horizon_base(10_000, h)
                        .expect("horizon resolvable in the store")
                        .time,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("reconstruct", h), &h, |b, &h| {
            let current = store.find_at_or_before(10_000).expect("store is non-empty");
            let base = store
                .horizon_base(10_000, h)
                .expect("horizon resolvable in the store");
            b.iter(|| black_box(current.data.subtract_past(&base.data).len()))
        });
    }
    group.finish();
}

/// The merge tick at a distributed site's shape: one shard, d = 8,
/// 64 micro-clusters and a merge (snapshot + pyramid record) after every
/// record. One iteration pushes 64 records and waits for them with
/// `flush()`, so it prices 64 inserts plus 64 merge ticks.
fn bench_merge_tick(c: &mut Criterion) {
    const DIMS: usize = 8;
    let engine = EngineBuilder::new(UMicroConfig::new(64, DIMS).expect("valid config"))
        .shards(1)
        .snapshot_every(1)
        .novelty_factor(None)
        .build()
        .expect("engine starts");
    let mut tick = 0u64;
    let mut next = move || {
        tick += 1;
        let blob = (tick * 7 % 48) as f64 * 4.0;
        let values = (0..DIMS)
            .map(|j| blob + j as f64 + (tick % 13) as f64 * 0.05)
            .collect();
        UncertainPoint::new(values, vec![0.2; DIMS], tick, None)
    };
    for _ in 0..1_024 {
        engine.push(next()).expect("engine accepts records");
    }
    engine.flush();
    let mut group = c.benchmark_group("merge_tick");
    group.bench_function("push64_flush_d8_n64", |b| {
        b.iter(|| {
            for _ in 0..64 {
                engine.push(next()).expect("engine accepts records");
            }
            engine.flush();
        })
    });
    group.finish();
    engine.shutdown();
}

criterion_group!(benches, bench_record, bench_horizon, bench_merge_tick);
criterion_main!(benches);
