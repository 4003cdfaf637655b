//! Integration tests for the pyramidal time frame + subtractive horizon
//! reconstruction across crates (umicro + ustream-snapshot + persistence).

use rand::rngs::StdRng;
use rand::SeedableRng;
use umicro::{Ecf, HorizonAnalyzer, UMicro, UMicroConfig};
use ustream_common::{AdditiveFeature, DataStream, UncertainPoint};
use ustream_snapshot::persist::{read_snapshots, write_snapshots};
use ustream_snapshot::{ClusterSetSnapshot, PyramidConfig, SnapshotStore};
use ustream_synth::{NoisyStream, SynDriftConfig};

fn drive(len: u64, switch: u64, pyramid: PyramidConfig) -> (UMicro, HorizonAnalyzer) {
    let mut alg = UMicro::new(UMicroConfig::new(12, 2).expect("valid config"));
    let mut hz = HorizonAnalyzer::new(pyramid);
    for t in 1..=len {
        let x = if t <= switch { 0.0 } else { 50.0 };
        let p = UncertainPoint::new(vec![x, -x], vec![0.4, 0.4], t, None);
        alg.insert(&p);
        hz.record(t, &mut alg);
    }
    (alg, hz)
}

#[test]
fn horizon_window_counts_are_bounded_by_eq7() {
    let pyramid = PyramidConfig::new(2, 5).unwrap();
    let (_, hz) = drive(2_000, 10_000, pyramid);
    let bound = pyramid.horizon_error_bound();
    for h in [8u64, 32, 128, 512, 1024] {
        let window = hz.horizon_clusters(2_000, h).unwrap();
        let count = window.total_count();
        assert!(count >= h as f64 - 1e-9, "h={h}: count {count}");
        assert!(
            count <= h as f64 * (1.0 + bound) + 1e-9,
            "h={h}: count {count} violates Eq. 7 bound"
        );
    }
}

#[test]
fn horizon_isolates_recent_regime() {
    let (_, hz) = drive(4_096, 3_584, PyramidConfig::new(2, 6).unwrap());
    // Last 512 ticks are entirely the x=50 regime.
    let window = hz.horizon_clusters(4_096, 512).unwrap();
    let total = window.total_count();
    let new_mass: f64 = window
        .clusters
        .values()
        .filter(|e| e.centroid()[0] > 25.0)
        .map(|e| e.count())
        .sum();
    assert!(
        new_mass / total > 0.95,
        "recent window should be the new regime: {new_mass}/{total}"
    );

    // A much longer horizon still sees both regimes.
    let long = hz.horizon_clusters(4_096, 2_048).unwrap();
    let old_mass: f64 = long
        .clusters
        .values()
        .filter(|e| e.centroid()[0] < 25.0)
        .map(|e| e.count())
        .sum();
    assert!(old_mass > 0.0, "long horizon lost the old regime");
}

#[test]
fn snapshot_store_survives_persistence_round_trip() {
    let pyramid = PyramidConfig::new(2, 4).unwrap();
    let (_, hz) = drive(1_024, 768, pyramid);

    let mut buf = Vec::new();
    write_snapshots(hz.store(), &mut buf).unwrap();
    let restored: SnapshotStore<ClusterSetSnapshot<Ecf>> =
        read_snapshots(pyramid, buf.as_slice()).unwrap();

    assert_eq!(restored.len(), hz.store().len());
    // Horizon queries on the restored store give identical windows.
    for h in [16u64, 64, 256] {
        let live = hz.horizon_clusters(1_024, h).unwrap();
        let base = restored.horizon_base(1_024, h).unwrap();
        let current = restored.find_at_or_before(1_024).unwrap();
        let replayed = current.data.subtract_past(&base.data);
        assert_eq!(live.len(), replayed.len(), "h={h}");
        assert!((live.total_count() - replayed.total_count()).abs() < 1e-9);
    }
}

#[test]
fn horizon_statistics_match_direct_suffix_summary() {
    // The subtractive property must reproduce, cluster by cluster, the
    // statistics a direct summary of the window's points would give —
    // for clusters that existed before and after the window boundary.
    let mut alg = UMicro::new(UMicroConfig::new(4, 1).unwrap());
    let mut hz = HorizonAnalyzer::new(PyramidConfig::new(2, 6).unwrap());
    // Two stable clusters; track every inserted point.
    let mut suffix_points: Vec<(u64, UncertainPoint)> = Vec::new();
    let total = 512u64;
    let h = 128u64;
    for t in 1..=total {
        let x = if t % 2 == 0 { 0.0 } else { 100.0 };
        let p = UncertainPoint::new(vec![x], vec![0.5], t, None);
        let out = alg.insert(&p);
        if t > total - h {
            suffix_points.push((out.cluster_id, p));
        }
        hz.record(t, &mut alg);
    }
    let window = hz.horizon_clusters(total, h).unwrap();
    // Because 512 and 384 are both stored exactly (powers of 2 times 128),
    // the window is exactly the last 128 points.
    let mut direct: std::collections::BTreeMap<u64, Ecf> = std::collections::BTreeMap::new();
    for (id, p) in &suffix_points {
        direct.entry(*id).or_insert_with(|| Ecf::empty(1)).insert(p);
    }
    assert_eq!(window.len(), direct.len());
    for (id, got) in &window.clusters {
        let want = &direct[id];
        assert!((got.weight() - want.weight()).abs() < 1e-9, "cluster {id}");
        assert!((got.cf1()[0] - want.cf1()[0]).abs() < 1e-6, "cluster {id}");
        assert!((got.cf2()[0] - want.cf2()[0]).abs() < 1e-6, "cluster {id}");
        assert!((got.ef2()[0] - want.ef2()[0]).abs() < 1e-6, "cluster {id}");
    }
}

#[test]
fn horizon_analysis_on_noisy_generator_stream() {
    // Full pipeline: SynDrift + noise + UMicro + pyramidal store.
    let mut cfg = SynDriftConfig::small_test();
    cfg.len = 2_000;
    let stream = NoisyStream::new(cfg.build(4), 0.5, StdRng::seed_from_u64(5));
    let dims = stream.dims();
    let mut alg = UMicro::new(UMicroConfig::new(30, dims).unwrap());
    let mut hz = HorizonAnalyzer::with_defaults();
    let mut t = 0;
    for p in stream {
        t = p.timestamp();
        alg.insert(&p);
        hz.record(t, &mut alg);
    }
    let mac = hz.macro_cluster_horizon(t, 256, 4, 8).unwrap();
    assert_eq!(mac.k(), 4);
    assert!(mac.weights.iter().sum::<f64>() > 0.0);
}
