//! End-to-end sharded-engine ingestion: points/second through the full
//! channel → shard-worker → periodic-merge path at 1, 2, 4 and 8 shards.
//! Complements `fig_shard_scaling`, which reports the same sweep as a
//! figure-style table over a longer stream.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use umicro::UMicroConfig;
use ustream_common::UncertainPoint;
use ustream_engine::EngineBuilder;
use ustream_synth::{NoisyStream, SynDriftConfig};

const DIMS: usize = 20;
const N_MICRO: usize = 100;
const BATCH: usize = 10_000;

fn points() -> Vec<UncertainPoint> {
    let mut cfg = SynDriftConfig::paper();
    cfg.len = BATCH;
    NoisyStream::new(cfg.build(11), 0.5, StdRng::seed_from_u64(12)).collect()
}

fn bench_shard_scaling(c: &mut Criterion) {
    let pts = points();
    let mut group = c.benchmark_group("shard_scaling");
    group.throughput(Throughput::Elements(BATCH as u64));

    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("engine_{shards}_shards"), |b| {
            b.iter(|| {
                let engine = EngineBuilder::new(
                    UMicroConfig::new(N_MICRO, DIMS).expect("valid UMicro config"),
                )
                .shards(shards)
                .snapshot_every(2_048)
                .novelty_factor(None)
                .build()
                .expect("engine starts");
                for part in pts.chunks(2_048) {
                    engine.push_slice(part).expect("engine accepts records");
                }
                engine.flush();
                black_box(engine.shutdown().points_processed)
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
