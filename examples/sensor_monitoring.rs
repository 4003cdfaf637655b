//! Sensor-fleet monitoring with horizon analysis.
//!
//! ```text
//! cargo run --release --example sensor_monitoring
//! ```
//!
//! A fleet of temperature/humidity/vibration sensors reports readings whose
//! error depends on each sensor's calibration grade — exactly the setting
//! the paper motivates ("sensors are typically expected to have considerable
//! noise … in many cases, the estimated error of the underlying data stream
//! is available"). Mid-stream, one zone of the plant shifts to a hotter
//! operating regime. We:
//!
//! 1. cluster the uncertain readings online with UMicro,
//! 2. record pyramidal snapshots each tick,
//! 3. answer "what did the *last quarter* of the stream look like?" via
//!    horizon subtraction — the old regime must be absent from that window,
//! 4. persist the snapshot store to JSON lines and reload it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use uncertain_streams::prelude::*;
use ustream_common::AdditiveFeature;
use ustream_snapshot::persist::{read_snapshots, write_snapshots};
use ustream_snapshot::PyramidConfig;

/// Per-sensor calibration: (value std-dev multipliers per channel).
#[derive(Clone, Copy)]
enum Grade {
    Lab,        // tight calibration
    Industrial, // moderate
    Budget,     // noisy
}

impl Grade {
    fn errors(self) -> [f64; 3] {
        match self {
            Grade::Lab => [0.05, 0.2, 0.01],
            Grade::Industrial => [0.2, 0.8, 0.05],
            Grade::Budget => [0.8, 2.5, 0.2],
        }
    }
}

fn reading(
    rng: &mut StdRng,
    centre: [f64; 3],
    spread: [f64; 3],
    grade: Grade,
    t: u64,
) -> UncertainPoint {
    let errs = grade.errors();
    let mut values = [0.0; 3];
    for j in 0..3 {
        let clean = Normal::new(centre[j], spread[j])
            .expect("finite mean and positive sigma")
            .sample(rng);
        let noise = Normal::new(0.0, errs[j])
            .expect("finite mean and positive sigma")
            .sample(rng);
        values[j] = clean + noise;
    }
    UncertainPoint::new(values.to_vec(), errs.to_vec(), t, None)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let total: u64 = 8_192;
    let regime_switch = total * 3 / 4;

    // Two plant zones: zone A runs cool, zone B runs warm. After the
    // switch, zone A shifts to a hot fault regime around (90, 40, 2.0).
    let zone_a_cool = [20.0, 55.0, 0.5];
    let zone_b_warm = [45.0, 30.0, 1.0];
    let zone_a_hot = [90.0, 40.0, 2.0];
    let spread = [1.5, 2.0, 0.1];

    let mut alg = UMicro::new(UMicroConfig::new(24, 3).expect("valid config"));
    let mut horizons = HorizonAnalyzer::new(PyramidConfig::new(2, 6).expect("valid geometry"));

    for t in 1..=total {
        let grade = match t % 3 {
            0 => Grade::Lab,
            1 => Grade::Industrial,
            _ => Grade::Budget,
        };
        let centre = if rng.gen_bool(0.5) {
            zone_b_warm
        } else if t <= regime_switch {
            zone_a_cool
        } else {
            zone_a_hot
        };
        let p = reading(&mut rng, centre, spread, grade, t);
        alg.insert(&p);
        horizons.record(t, &mut alg);
    }

    println!("stream finished: {} readings", alg.points_processed());

    // Live view: the LRU eviction policy has already recycled the stale
    // cool-regime micro-clusters to follow the hot fault regime.
    let live = alg.macro_cluster(3, 9);
    println!("\nlive macro-clusters (k = 3) — recent behaviour:");
    for (c, w) in live.centroids.iter().zip(&live.weights) {
        println!(
            "  temp {:>5.1}  humidity {:>5.1}  vibration {:>4.2}   weight {w:>7.1}",
            c[0], c[1], c[2]
        );
    }

    // The pyramidal store still knows the past: the snapshot just before
    // the regime switch shows the cool cluster that the live state evicted.
    let before = horizons
        .clusters_at(regime_switch)
        .expect("snapshot before switch");
    let cool_then: f64 = before
        .clusters
        .values()
        .filter(|e| e.centroid()[0] < 30.0)
        .map(|e| e.count())
        .sum();
    println!(
        "\nsnapshot at tick {regime_switch}: {:.0} of {:.0} points were in the cool regime",
        cool_then,
        before.total_count()
    );

    // Horizon view: the last quarter of the stream only.
    let h = total / 4;
    let window = horizons
        .horizon_clusters(total, h)
        .expect("horizon within retention");
    println!(
        "\nwindow (last {h} ticks): {} micro-clusters, {:.0} points",
        window.len(),
        window.total_count()
    );
    let cool_mass: f64 = window
        .clusters
        .values()
        .filter(|e| e.centroid()[0] < 30.0)
        .map(|e| e.count())
        .sum();
    println!(
        "mass in the old cool regime within the window: {:.1}%  (should be ~0)",
        100.0 * cool_mass / window.total_count()
    );
    let mac = horizons
        .macro_cluster_horizon(total, h, 2, 5)
        .expect("macro over window");
    println!("window macro-centroids (k = 2):");
    for c in &mac.centroids {
        println!(
            "  temp {:>5.1}  humidity {:>5.1}  vibration {:>4.2}",
            c[0], c[1], c[2]
        );
    }

    // Persist the pyramidal store and reload it — offline analysis later.
    let path = std::env::temp_dir().join("sensor_snapshots.jsonl");
    let file = std::fs::File::create(&path).expect("create snapshot file");
    write_snapshots(horizons.store(), file).expect("persist snapshots");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let restored: ustream_snapshot::SnapshotStore<
        ustream_snapshot::ClusterSetSnapshot<umicro::Ecf>,
    > = read_snapshots(
        *horizons.store().config(),
        std::fs::File::open(&path).expect("open snapshot file"),
    )
    .expect("reload snapshots");
    println!(
        "\npersisted {} snapshots ({} KiB) and reloaded {} — pyramidal store is durable",
        horizons.store().len(),
        bytes / 1024,
        restored.len()
    );
    std::fs::remove_file(&path).ok();
}
