//! Ingestion throughput cost of producer-side validation.
//!
//! Every record the engine admits passes `check_point` (NaN/∞ scan of both
//! vectors, dimension check) unless validation is disabled. This benchmark
//! replays the same pre-materialised stream through a single-shard engine
//! with validation off and with each policy enabled, and reports the
//! relative overhead — the robustness budget is a few percent of
//! single-shard throughput.
//!
//! ```text
//! cargo run -p ustream-bench --release --bin fig_validation_overhead -- \
//!     --len 200000 --n-micro 100
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
use ustream_engine::{EngineBuilder, ValidationPolicy};
use ustream_synth::{NoisyStream, SynDriftConfig};

const DIMS: usize = 20;

fn run_once(
    points: &[UncertainPoint],
    n_micro: usize,
    batch: usize,
    snapshot_every: u64,
    validation: Option<ValidationPolicy>,
) -> f64 {
    let engine = EngineBuilder::new(UMicroConfig::new(n_micro, DIMS).expect("valid UMicro config"))
        .snapshot_every(snapshot_every)
        .novelty_factor(None)
        .validation(validation)
        .build()
        .expect("engine starts");
    let started = Instant::now();
    for part in points.chunks(batch) {
        engine.push_slice(part).expect("engine accepts records");
    }
    engine.flush();
    let elapsed = started.elapsed().as_secs_f64();
    let report = engine.shutdown();
    assert_eq!(report.points_processed, points.len() as u64, "records lost");
    points.len() as f64 / elapsed
}

fn main() {
    let args = Args::parse();
    let len: usize = args.get("len", 200_000);
    let n_micro: usize = args.get("n-micro", 100);
    let eta: f64 = args.get("eta", 0.5);
    let seed: u64 = args.get("seed", 11);
    let batch: usize = args.get("batch", 8_192);
    let snapshot_every: u64 = args.get("snapshot-every", 4_096);
    let reps: usize = args.get("reps", 3);

    eprintln!(
        "validation overhead on SynDrift (eta={eta}, len={len}, n_micro={n_micro}, \
         batch={batch}, single shard, best of {reps})"
    );

    let mut cfg = SynDriftConfig::paper();
    cfg.len = len;
    let points: Vec<UncertainPoint> =
        NoisyStream::new(cfg.build(seed), eta, StdRng::seed_from_u64(seed + 1)).collect();

    let policies: [(&str, Option<ValidationPolicy>); 4] = [
        ("off", None),
        ("reject", Some(ValidationPolicy::Reject)),
        ("clamp", Some(ValidationPolicy::Clamp)),
        ("quarantine", Some(ValidationPolicy::Quarantine)),
    ];

    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut baseline = None;
    for (i, (name, policy)) in policies.iter().enumerate() {
        // Best-of-N damps allocator and scheduler noise.
        let rate = (0..reps)
            .map(|_| run_once(&points, n_micro, batch, snapshot_every, *policy))
            .fold(0.0f64, f64::max);
        let base = *baseline.get_or_insert(rate);
        let overhead_pct = (base / rate - 1.0) * 100.0;
        eprintln!("  {name:>10}: {rate:>9.0} pts/s ({overhead_pct:+.2}% vs off)");
        rows.push(vec![i as f64, rate, overhead_pct]);
    }

    let header = ["policy_idx", "pts_per_s", "overhead_pct_vs_off"];
    print_table(
        "Validation overhead, single shard [SynDrift] (0=off 1=reject 2=clamp 3=quarantine)",
        &header,
        &rows,
    );

    let out = PathBuf::from("results/validation_overhead.csv");
    write_csv(&out, &header, &rows).expect("write results csv");
    eprintln!("wrote {}", out.display());
}
