//! Live analytics over an uncertain stream with the embeddable engine.
//!
//! ```text
//! cargo run --release --example engine_dashboard
//! ```
//!
//! Four producer threads feed uncertain sensor readings into a
//! [`StreamEngine`] while the main thread periodically "renders a
//! dashboard": live macro-clusters, a trailing-window view, the evolution
//! report between the two most recent windows, and any novelty alerts.
//! Halfway through, one producer's readings shift to a new operating
//! regime, which shows up in the evolution report and the window queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use umicro::UMicroConfig;
use uncertain_streams::prelude::*;
use ustream_snapshot::PyramidConfig;

fn main() {
    let engine = EngineBuilder::new(UMicroConfig::new(32, 3).expect("valid config"))
        .pyramid(PyramidConfig::new(2, 6).expect("valid geometry"))
        .novelty_factor(Some(6.0))
        .shards(2)
        .snapshot_every(16)
        .build()
        .expect("engine starts");
    let engine = Arc::new(engine);
    let clock = Arc::new(AtomicU64::new(0));

    let total_per_producer = 4_000u64;
    let mut producers = Vec::new();
    for producer in 0..4u64 {
        let engine = Arc::clone(&engine);
        let clock = Arc::clone(&clock);
        producers.push(std::thread::spawn(move || {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(100 + producer);
            for i in 0..total_per_producer {
                // relaxed-ok: shared tick counter only needs uniqueness, not ordering
                let t = clock.fetch_add(1, Ordering::Relaxed) + 1;
                // Producers 0-2 are stable plants; producer 3 shifts regime
                // halfway through.
                let base = if producer == 3 && i > total_per_producer / 2 {
                    [80.0, 15.0, 3.0]
                } else {
                    [20.0 + producer as f64 * 10.0, 50.0, 1.0]
                };
                // Honest uncertainty: the reported ψ is the std-dev of the
                // measurement noise actually injected.
                let errors = [0.4, 0.8, 0.05];
                let values: Vec<f64> = base
                    .iter()
                    .zip(&errors)
                    .map(|(b, e)| {
                        let clean = b + rng.gen_range(-1.0..1.0);
                        let noise: f64 = rand_distr::Distribution::sample(
                            &rand_distr::Normal::new(0.0, *e)
                                .expect("finite mean and positive sigma"),
                            &mut rng,
                        );
                        clean + noise
                    })
                    .collect();
                engine
                    .push(UncertainPoint::new(values, errors.to_vec(), t, None))
                    .expect("engine accepts records until shutdown");
                if i % 500 == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }

    // Periodic dashboard renders while ingestion is running.
    for frame in 1..=4 {
        std::thread::sleep(std::time::Duration::from_millis(120));
        let stats = engine.stats();
        println!(
            "frame {frame}: {} points, {} live micro-clusters, {} snapshots",
            stats.points_processed, stats.live_clusters, stats.snapshots_retained
        );
        for s in &stats.per_shard {
            println!(
                "  shard {}: {:>6} clustered, {:>4} queued, {} clusters, {:>8.0} pts/s",
                s.shard, s.processed, s.queue_depth, s.live_clusters, s.points_per_sec
            );
        }
    }

    for p in producers {
        p.join().expect("producer thread");
    }
    engine.flush();

    println!("\n== final dashboard ==");
    let mac = engine.macro_clusters(4, 7);
    println!("live macro-clusters (k = 4):");
    for (c, w) in mac.centroids.iter().zip(&mac.weights) {
        println!(
            "  [{:>5.1}, {:>5.1}, {:>4.2}]  weight {w:>7.1}",
            c[0], c[1], c[2]
        );
    }

    let h = 2_000;
    if let Ok(window) = engine.horizon_clusters(h) {
        println!(
            "\ntrailing {h}-tick window: {} micro-clusters, {:.0} points",
            window.len(),
            window.total_count()
        );
    }

    match engine.evolution(h, 5.0) {
        Ok(report) => {
            println!(
                "evolution over the last two {h}-tick windows: {} emerged, {} faded, \
                 {} persisted (mean drift {:.2}, turbulence {:.2})",
                report.emerged(),
                report.faded(),
                report.persisted(),
                report.mean_drift,
                report.turbulence()
            );
        }
        Err(e) => println!("evolution unavailable: {e}"),
    }

    let alerts = engine.drain_alerts();
    println!("novelty alerts: {}", alerts.len());
    for a in alerts.iter().take(5) {
        println!(
            "  tick {:>6}: isolation {:.1} (baseline {:.1})",
            a.timestamp, a.isolation, a.baseline
        );
    }

    let report = engine.shutdown();
    println!(
        "\nshutdown: {} points, {} created / {} evicted micro-clusters, {} alerts total",
        report.points_processed,
        report.clusters_created,
        report.clusters_evicted,
        report.alerts_raised
    );
    println!(
        "shards: {} exact merges, {:.1} µs mean merge latency",
        report.merges, report.mean_merge_micros
    );
    for s in &report.per_shard {
        println!(
            "  shard {}: {} records ({:.0} pts/s), {} live clusters, {} alerts",
            s.shard, s.processed, s.points_per_sec, s.live_clusters, s.alerts_raised
        );
    }
}
