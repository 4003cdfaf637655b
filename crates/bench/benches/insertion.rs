//! Per-point insertion cost: UMicro (both boundary modes) vs CluStream vs
//! STREAM on a realistic 20-dimensional noisy stream with the paper's 100
//! micro-cluster budget. This is the micro-benchmark behind Figures 8–10.

use clustream::{
    CluStream, CluStreamConfig, DenStream, DenStreamConfig, StreamKMeans, StreamKMeansConfig,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use umicro::config::BoundaryMode;
use umicro::{UMicro, UMicroConfig};
use ustream_common::UncertainPoint;
use ustream_synth::{NoisyStream, SynDriftConfig};

const DIMS: usize = 20;
const N_MICRO: usize = 100;
const BATCH: usize = 5_000;

fn points() -> Vec<UncertainPoint> {
    let mut cfg = SynDriftConfig::paper();
    cfg.len = BATCH;
    NoisyStream::new(cfg.build(11), 0.5, StdRng::seed_from_u64(12)).collect()
}

fn bench_insertion(c: &mut Criterion) {
    let pts = points();
    let mut group = c.benchmark_group("insertion");
    group.throughput(Throughput::Elements(BATCH as u64));

    group.bench_function("umicro_corrected", |b| {
        b.iter(|| {
            let mut alg =
                UMicro::new(UMicroConfig::new(N_MICRO, DIMS).expect("valid UMicro config"));
            for p in &pts {
                black_box(alg.insert(p));
            }
            alg.micro_clusters().len()
        })
    });

    group.bench_function("umicro_corrected_batched", |b| {
        b.iter(|| {
            let mut alg =
                UMicro::new(UMicroConfig::new(N_MICRO, DIMS).expect("valid UMicro config"));
            let mut out = Vec::with_capacity(256);
            for chunk in pts.chunks(256) {
                out.clear();
                alg.insert_batch(chunk, &mut out);
                black_box(out.len());
            }
            alg.micro_clusters().len()
        })
    });

    group.bench_function("umicro_uncertain_radius", |b| {
        b.iter(|| {
            let mut alg = UMicro::new(
                UMicroConfig::new(N_MICRO, DIMS)
                    .expect("valid UMicro config")
                    .with_boundary_mode(BoundaryMode::UncertainRadius),
            );
            for p in &pts {
                black_box(alg.insert(p));
            }
            alg.micro_clusters().len()
        })
    });

    group.bench_function("umicro_expected_distance_ranking", |b| {
        b.iter(|| {
            let mut alg = UMicro::new(
                UMicroConfig::new(N_MICRO, DIMS)
                    .expect("valid UMicro config")
                    .with_expected_distance(),
            );
            for p in &pts {
                black_box(alg.insert(p));
            }
            alg.micro_clusters().len()
        })
    });

    group.bench_function("clustream", |b| {
        b.iter(|| {
            let mut alg = CluStream::new(
                CluStreamConfig::new(N_MICRO, DIMS).expect("valid CluStream config"),
            );
            for p in &pts {
                black_box(alg.insert(p));
            }
            alg.micro_clusters().len()
        })
    });

    group.bench_function("stream_kmeans", |b| {
        b.iter(|| {
            let mut alg = StreamKMeans::new(
                StreamKMeansConfig::new(10, 500, DIMS, 13).expect("valid STREAM config"),
            );
            for p in &pts {
                alg.insert(p);
            }
            alg.representative_count()
        })
    });

    group.bench_function("denstream", |b| {
        b.iter(|| {
            // Radius tuned to the SynDrift unit-cube scale.
            let mut alg =
                DenStream::new(DenStreamConfig::new(DIMS, 1.2).expect("valid DenStream config"));
            for p in &pts {
                alg.insert(p);
            }
            alg.potential_clusters().len()
        })
    });

    group.finish();
}

fn bench_classifier(c: &mut Criterion) {
    use umicro::MicroClassifier;
    let pts = points();
    let mut clf = MicroClassifier::new(UMicroConfig::new(20, DIMS).expect("valid UMicro config"));
    for p in &pts {
        if p.label().is_some() {
            clf.train_labelled(p);
        }
    }
    let probe = pts[BATCH / 2].clone();
    let mut group = c.benchmark_group("classification");
    group.bench_function("classify_corrected", |b| {
        b.iter(|| black_box(clf.classify(&probe)))
    });
    group.bench_function("classify_euclidean", |b| {
        b.iter(|| black_box(clf.classify_euclidean(&probe)))
    });
    group.finish();
}

fn bench_uk_means(c: &mut Criterion) {
    use ustream_kmeans::{uk_means, UkMeansConfig};
    let pts = points();
    let mut group = c.benchmark_group("uk_means");
    group.bench_function("uk_means_k10", |b| {
        b.iter(|| black_box(uk_means(&pts, &UkMeansConfig::new(10, 3)).expected_ssq))
    });
    group.finish();
}

criterion_group!(benches, bench_insertion, bench_classifier, bench_uk_means);
criterion_main!(benches);
