//! Ingestion throughput of the sharded engine vs shard count.
//!
//! The stream is routed round-robin across `N` shard workers, each running
//! an independent clusterer over `n_micro / N` micro-clusters. Because the
//! per-point cost of UMicro is dominated by the nearest-cluster scan over
//! the live budget, splitting the budget shrinks every shard's scan — so
//! throughput scales with the shard count even on a single core, on top of
//! whatever thread-level parallelism the host offers.
//!
//! ```text
//! cargo run -p ustream-bench --release --bin fig_shard_scaling -- \
//!     --len 200000 --n-micro 100 --shards 1,2,4,8
//! ```
//!
//! Run with `--release`; debug-build rates are meaningless.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;
use umicro::UMicroConfig;
use ustream_bench::csv::{print_table, write_csv};
use ustream_bench::Args;
use ustream_common::UncertainPoint;
use ustream_engine::EngineBuilder;
use ustream_synth::{NoisyStream, SynDriftConfig};

const DIMS: usize = 20;

fn main() {
    let args = Args::parse();
    let len: usize = args.get("len", 200_000);
    let n_micro: usize = args.get("n-micro", 100);
    let eta: f64 = args.get("eta", 0.5);
    let seed: u64 = args.get("seed", 11);
    let batch: usize = args.get("batch", 8_192);
    let snapshot_every: u64 = args.get("snapshot-every", 4_096);
    let novelty: bool = args.get("novelty", false);
    let shard_counts: Vec<usize> = args
        .get_str("shards", "1,2,4,8")
        .split(',')
        .map(|s| s.trim().parse().expect("--shards takes e.g. 1,2,4,8"))
        .collect();

    eprintln!(
        "shard scaling on SynDrift (eta={eta}, len={len}, n_micro={n_micro}, \
         batch={batch}, snapshot_every={snapshot_every}, novelty={novelty})"
    );

    // Pre-materialise the stream so generation cost stays out of the timing.
    let mut cfg = SynDriftConfig::paper();
    cfg.len = len;
    let points: Vec<UncertainPoint> =
        NoisyStream::new(cfg.build(seed), eta, StdRng::seed_from_u64(seed + 1)).collect();

    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut baseline = None;
    for &shards in &shard_counts {
        let engine =
            EngineBuilder::new(UMicroConfig::new(n_micro, DIMS).expect("valid UMicro config"))
                .shards(shards)
                .snapshot_every(snapshot_every)
                .novelty_factor(novelty.then_some(8.0))
                .build()
                .expect("engine starts");

        let started = Instant::now();
        for part in points.chunks(batch) {
            engine.push_slice(part).expect("engine accepts records");
        }
        engine.flush();
        let elapsed = started.elapsed().as_secs_f64();

        let report = engine.shutdown();
        assert_eq!(report.points_processed, len as u64, "records lost");
        let rate = len as f64 / elapsed;
        let speedup = rate / *baseline.get_or_insert(rate);
        eprintln!(
            "  {shards} shard(s): {rate:>9.0} pts/s ({speedup:.2}x), \
             {} merges @ {:.0} us",
            report.merges, report.mean_merge_micros
        );
        rows.push(vec![
            shards as f64,
            rate,
            speedup,
            report.merges as f64,
            report.mean_merge_micros,
        ]);
    }

    let header = [
        "shards",
        "pts_per_s",
        "speedup_vs_1",
        "merges",
        "mean_merge_us",
    ];
    print_table("Sharded ingestion scaling [SynDrift]", &header, &rows);

    let out = PathBuf::from("results/shard_scaling.csv");
    write_csv(&out, &header, &rows).expect("write results csv");
    eprintln!("wrote {}", out.display());
}
