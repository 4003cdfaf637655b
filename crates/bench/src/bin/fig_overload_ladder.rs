//! Throughput at each rung of the degradation ladder, plus the watchdog
//! heartbeat overhead guard.
//!
//! Part 1 replays the same pre-materialised stream through a single-shard
//! engine forced onto each [`LoadStage`] and reports the producer-side
//! throughput and the admission accounting — the ladder's whole point is
//! that each rung trades fidelity for ingest headroom, and this figure
//! shows how much headroom each rung actually buys.
//!
//! Part 2 measures the cost of running the governor thread (watchdog
//! heartbeat bookkeeping) against an identical engine without it, in
//! pairs whose order alternates per rep. The governor only reads
//! per-shard atomics on a 20 ms poll, so the overhead budget is <1% of
//! single-shard throughput, read as the median of the per-pair overheads;
//! `--strict` turns the budget into a hard exit code for CI.
//!
//! ```text
//! cargo run -p ustream-bench --release --bin fig_overload_ladder -- \
//!     --len 200000 --n-micro 100
//! ```
//!
//! Emits `results/BENCH_overload.json`. Run with `--release`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;
use umicro::UMicroConfig;
use ustream_bench::Args;
use ustream_common::UncertainPoint;
use ustream_engine::{EngineBuilder, LoadStage, WatchdogConfig};
use ustream_synth::{NoisyStream, SynDriftConfig};

const DIMS: usize = 20;

#[derive(Serialize)]
struct StageRow {
    stage: String,
    push_pts_per_s: f64,
    processed: u64,
    sampled_out: u64,
    shed: u64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    len: usize,
    reps: usize,
    stages: Vec<StageRow>,
    baseline_pts_per_s: f64,
    watchdog_pts_per_s: f64,
    watchdog_overhead_pct: f64,
    /// Each rep's overhead, in run order (even reps ran the baseline first).
    overhead_pairs_pct: Vec<f64>,
    overhead_budget_pct: f64,
}

fn base_builder(n_micro: usize, snapshot_every: u64) -> EngineBuilder {
    EngineBuilder::new(UMicroConfig::new(n_micro, DIMS).expect("valid UMicro config"))
        .snapshot_every(snapshot_every)
        .novelty_factor(None)
        .validation(None)
}

/// Producer-side throughput of one replay; returns (pts/s, final report).
fn run_once(
    points: &[UncertainPoint],
    builder: EngineBuilder,
    stage: Option<LoadStage>,
    batch: usize,
) -> (f64, ustream_engine::EngineReport) {
    let engine = builder.build().expect("engine starts");
    if let Some(stage) = stage {
        engine.force_load_stage(stage);
    }
    let started = Instant::now();
    for part in points.chunks(batch) {
        engine.push_slice(part).expect("engine accepts records");
    }
    engine.flush();
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let report = engine.shutdown();
    (points.len() as f64 / elapsed, report)
}

fn main() {
    let args = Args::parse();
    let len: usize = args.get("len", 200_000);
    let n_micro: usize = args.get("n-micro", 100);
    let eta: f64 = args.get("eta", 0.5);
    let seed: u64 = args.get("seed", 23);
    let batch: usize = args.get("batch", 8_192);
    let snapshot_every: u64 = args.get("snapshot-every", 4_096);
    let reps: usize = args.get("reps", 3);
    let strict: bool = args.get("strict", 0u8) != 0;

    eprintln!(
        "overload ladder on SynDrift (eta={eta}, len={len}, n_micro={n_micro}, \
         single shard, best of {reps})"
    );

    let mut cfg = SynDriftConfig::paper();
    cfg.len = len;
    let points: Vec<UncertainPoint> =
        NoisyStream::new(cfg.build(seed), eta, StdRng::seed_from_u64(seed + 1)).collect();

    // Part 1: throughput per forced ladder rung. No load policy is
    // installed, so no governor interferes with the forced stage.
    let stages = [
        ("normal", LoadStage::Normal),
        ("widen-merge", LoadStage::WidenMerge),
        ("sample", LoadStage::Sample),
        ("shed", LoadStage::Shed),
    ];
    let mut stage_rows = Vec::new();
    for (name, stage) in stages {
        let mut best: Option<(f64, ustream_engine::EngineReport)> = None;
        for _ in 0..reps {
            let got = run_once(
                &points,
                base_builder(n_micro, snapshot_every),
                Some(stage),
                batch,
            );
            if best.as_ref().is_none_or(|(rate, _)| got.0 > *rate) {
                best = Some(got);
            }
        }
        let (rate, report) = best.expect("at least one rep");
        eprintln!(
            "  {name:>12}: {rate:>9.0} pts/s (processed {}, sampled out {}, shed {})",
            report.points_processed, report.points_sampled_out, report.points_shed
        );
        stage_rows.push(StageRow {
            stage: name.to_string(),
            push_pts_per_s: rate,
            processed: report.points_processed,
            sampled_out: report.points_sampled_out,
            shed: report.points_shed,
        });
    }

    // Part 2: heartbeat overhead guard — watchdog governor vs none. Each
    // rep runs the pair back to back, alternating which goes first (ABBA),
    // so drift within a rep and the cost of going second hit both
    // variants equally; the gate reads the median of the per-rep overhead
    // ratios, which one noisy rep cannot move.
    let overhead_reps = reps.max(5);
    let mut pairs = Vec::with_capacity(overhead_reps);
    for rep in 0..overhead_reps {
        let baseline_run =
            || run_once(&points, base_builder(n_micro, snapshot_every), None, batch).0;
        let watchdog_run = || {
            run_once(
                &points,
                base_builder(n_micro, snapshot_every).watchdog(WatchdogConfig::default()),
                None,
                batch,
            )
            .0
        };
        let (baseline, watchdog) = if rep % 2 == 0 {
            let b = baseline_run();
            (b, watchdog_run())
        } else {
            let w = watchdog_run();
            (baseline_run(), w)
        };
        let overhead_pct = (baseline / watchdog - 1.0) * 100.0;
        eprintln!(
            "  pair {rep} ({}): baseline {baseline:.0} pts/s, watchdog {watchdog:.0} pts/s, \
             overhead {overhead_pct:+.2}%",
            if rep % 2 == 0 {
                "baseline first"
            } else {
                "watchdog first"
            }
        );
        pairs.push((baseline, watchdog, overhead_pct));
    }
    let median = |pick: fn(&(f64, f64, f64)) -> f64| {
        let mut xs: Vec<f64> = pairs.iter().map(pick).collect();
        xs.sort_by(f64::total_cmp);
        let mid = xs.len() / 2;
        if xs.len() % 2 == 1 {
            xs[mid]
        } else {
            (xs[mid - 1] + xs[mid]) / 2.0
        }
    };
    let baseline = median(|p| p.0);
    let watchdog = median(|p| p.1);
    let overhead_pct = median(|p| p.2);
    const BUDGET_PCT: f64 = 1.0;
    eprintln!(
        "  watchdog heartbeat: median overhead {overhead_pct:+.2}% over {overhead_reps} pairs \
         (medians {watchdog:.0} vs {baseline:.0} pts/s, budget {BUDGET_PCT}%)"
    );

    let report = Report {
        bench: "overload_ladder".to_string(),
        len,
        reps,
        stages: stage_rows,
        baseline_pts_per_s: baseline,
        watchdog_pts_per_s: watchdog,
        watchdog_overhead_pct: overhead_pct,
        overhead_pairs_pct: pairs.iter().map(|p| p.2).collect(),
        overhead_budget_pct: BUDGET_PCT,
    };
    let out = PathBuf::from("results/BENCH_overload.json");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    std::fs::write(
        &out,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_overload.json");
    eprintln!("wrote {}", out.display());

    if strict && overhead_pct > BUDGET_PCT {
        eprintln!(
            "FAIL: median watchdog overhead {overhead_pct:.2}% exceeds the {BUDGET_PCT}% budget"
        );
        std::process::exit(1);
    }
}
