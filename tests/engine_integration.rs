//! End-to-end engine tests over generated workloads: concurrent ingestion,
//! decay, horizon/evolution queries and novelty alerting in one harness.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use umicro::UMicroConfig;
use ustream_common::{DataStream, UncertainPoint};
use ustream_engine::EngineBuilder;
use ustream_snapshot::PyramidConfig;
use ustream_synth::profiles::forest_cover;
use ustream_synth::{NoisyStream, SynDriftConfig};

fn noisy_points(len: usize, seed: u64) -> (Vec<UncertainPoint>, usize) {
    let mut cfg = SynDriftConfig::small_test();
    cfg.len = len;
    let clean = cfg.build(seed);
    let dims = clean.dims();
    let pts = NoisyStream::new(clean, 0.5, StdRng::seed_from_u64(seed ^ 1)).collect();
    (pts, dims)
}

#[test]
fn engine_processes_generated_workload() {
    let (points, dims) = noisy_points(8_000, 3);
    let engine = EngineBuilder::new(UMicroConfig::new(40, dims).unwrap())
        .pyramid(PyramidConfig::new(2, 6).unwrap())
        .build()
        .expect("engine starts");
    for p in points {
        engine.push(p).expect("engine accepts records");
    }
    engine.flush();
    assert_eq!(engine.points_processed(), 8_000);

    let mac = engine.macro_clusters(4, 7);
    assert_eq!(mac.k(), 4);
    let window = engine.horizon_clusters(1_024).unwrap();
    assert!(window.total_count() > 0.0);

    let report = engine.shutdown();
    assert_eq!(report.points_processed, 8_000);
    assert!(report.snapshots_retained > 0);
}

#[test]
fn engine_multi_producer_totals_are_exact() {
    let (points, dims) = noisy_points(6_000, 9);
    let engine = Arc::new(
        EngineBuilder::new(UMicroConfig::new(30, dims).unwrap())
            .build()
            .expect("engine starts"),
    );
    let chunks: Vec<Vec<UncertainPoint>> = points.chunks(1_500).map(<[_]>::to_vec).collect();
    let mut handles = Vec::new();
    for chunk in chunks {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            for p in chunk {
                engine.push(p).expect("engine accepts records");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    engine.flush();
    let report = engine.shutdown();
    assert_eq!(report.points_processed, 6_000);
    assert_eq!(
        report.clusters_created - report.clusters_evicted,
        report.live_clusters as u64,
        "creation/eviction accounting must balance"
    );
}

#[test]
fn engine_detects_regime_change_on_real_profile() {
    // Forest profile, then a synthetic regime far outside its ranges.
    let clean = forest_cover(6_000, 21);
    let dims = clean.dims();
    let mut points: Vec<UncertainPoint> =
        NoisyStream::new(clean, 0.5, StdRng::seed_from_u64(22)).collect();
    let last_tick = points.last().unwrap().timestamp();
    for i in 0..3_000u64 {
        points.push(UncertainPoint::new(
            vec![99_000.0 + (i % 50) as f64; dims],
            vec![10.0; dims],
            last_tick + i + 1,
            None,
        ));
    }

    let engine = EngineBuilder::new(UMicroConfig::new(40, dims).unwrap())
        .novelty_factor(Some(6.0))
        .novelty_quantile(0.99)
        .build()
        .expect("engine starts");
    for p in points {
        engine.push(p).expect("engine accepts records");
    }
    engine.flush();

    // Novelty fired at the regime switch.
    let alerts = engine.drain_alerts();
    assert!(
        alerts.iter().any(|a| a.timestamp > last_tick),
        "no alert at the regime switch"
    );
    // Evolution across the switch must be turbulent. (The pyramid resolves
    // window boundaries to stored snapshot ticks, so the recent window can
    // straddle the switch slightly; demand a clear majority of churned
    // mass rather than total replacement.)
    let report = engine.evolution(3_000, 5.0).unwrap();
    assert!(
        report.turbulence() > 0.4,
        "turbulence {}",
        report.turbulence()
    );
    assert!(report.emerged() > 0, "the novel regime should emerge");
    engine.shutdown();
}

#[test]
fn decayed_engine_forgets_old_regimes_in_horizon_queries() {
    let dims = 2;
    let engine = EngineBuilder::new(UMicroConfig::new(16, dims).unwrap())
        .decay_half_life(Some(512.0))
        .build()
        .expect("engine starts");
    for t in 1..=4_096u64 {
        let x = if t <= 3_072 { 0.0 } else { 64.0 };
        engine
            .push(UncertainPoint::new(
                vec![x + (t % 5) as f64 * 0.1, -x],
                vec![0.3, 0.3],
                t,
                None,
            ))
            .expect("engine accepts records");
    }
    engine.flush();
    let window = engine.horizon_clusters(512).unwrap();
    let new_mass: f64 = window
        .clusters
        .values()
        .map(|c| &**c)
        .filter(|c| ustream_common::AdditiveFeature::centroid(*c)[0] > 32.0)
        .map(ustream_common::AdditiveFeature::count)
        .sum();
    assert!(
        new_mass / window.total_count() > 0.9,
        "recent window should be the new regime"
    );
    engine.shutdown();
}
