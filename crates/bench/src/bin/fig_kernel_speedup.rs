//! Measures what the SoA distance kernel's vector backends buy:
//! single-shard insertion throughput (points/second) once per compiled
//! SIMD backend (packed centroid/noise matrices, forced vector ISA), on the
//! auto-dispatched backend, and on the auto-dispatched backend with
//! mini-batch insertion, across dimensionalities and micro-cluster
//! budgets. Every speedup is over the forced-scalar backend. A second
//! measurement per sweep point times the per-record novelty isolation
//! (error-corrected distance to the nearest micro-cluster) against the
//! full model: a scalar per-ECF loop over `corrected_sq_distance` against
//! one kernel sweep.
//!
//! ```text
//! cargo run -p ustream-bench --release --bin fig_kernel_speedup -- \
//!     --len 50000 --reps 3 [--strict]
//! ```
//!
//! `--strict` exits non-zero when, on any sweep point with `dims >= 8`,
//! the auto-dispatched SIMD kernel fails to clear 1.5x over the
//! forced-scalar backend, or the kernel's isolation fails to clear 2x
//! over the scalar per-ECF loop — the CI regression gates for
//! the vector backends and the fused novelty sweep.
//! Narrower rows are excluded deliberately: at d=5 a row is one 4-lane
//! chunk plus a tail element, so per-row vector setup costs as much as
//! the arithmetic it saves and the scalar backend wins — no vector ISA
//! can help rows the canonical 4-lane reduction already covers.
//!
//! Emits `results/BENCH_kernel.json` plus a table on stdout. Run with
//! `--release`; debug-build rates are meaningless.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use umicro::distance::corrected_sq_distance;
use umicro::kernel::simd::{self, Backend};
use umicro::{OnlineClusterer, UMicro, UMicroConfig};
use ustream_bench::Args;
use ustream_common::UncertainPoint;
use ustream_synth::{NoisyStream, SynDriftConfig};

/// Mini-batch size for the batched variant — large enough to amortise the
/// per-call overhead, small enough to stay cache-warm.
const BATCH: usize = 256;

/// SIMD-over-scalar-backend floor enforced by `--strict`.
const STRICT_FLOOR: f64 = 1.5;

/// Kernel-isolation-over-scalar-loop floor enforced by `--strict`.
const STRICT_ISO_FLOOR: f64 = 2.0;

/// `--strict` only gates sweep points at least this wide: below it a row
/// fits in the canonical four scalar lanes and vector ISAs cannot win.
const STRICT_MIN_DIMS: usize = 8;

/// Most records the isolation measurement probes per repetition.
const ISO_PROBES: usize = 10_000;

#[derive(Debug, Serialize)]
struct BackendRow {
    /// Kernel backend forced for this measurement.
    backend: String,
    /// Insertion throughput with the kernel on this backend.
    kernel_pps: f64,
    /// Speedup over the forced-scalar backend.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Row {
    dims: usize,
    n_micro: usize,
    /// One measurement per compiled-and-available SIMD backend.
    backends: Vec<BackendRow>,
    /// Auto-dispatched backend (what production runs).
    kernel_pps: f64,
    /// Auto-dispatched backend, `BATCH`-point `insert_batch` calls.
    batched_pps: f64,
    /// Auto-dispatched backend over the forced-scalar backend: the pure
    /// vector-ISA win.
    simd_speedup: f64,
    /// Batched over per-point insertion, both auto-dispatched.
    batched_speedup: f64,
    /// Nanoseconds per isolation through a scalar per-ECF loop over
    /// `corrected_sq_distance`, against a full `n_micro` model.
    iso_scalar_ns: f64,
    /// Nanoseconds per isolation call through the auto-dispatched
    /// kernel sweep, same model.
    iso_kernel_ns: f64,
    /// `iso_scalar_ns / iso_kernel_ns`.
    iso_speedup: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    len: usize,
    reps: usize,
    eta: f64,
    /// Backend the runtime dispatcher picked on this machine.
    auto_backend: String,
    rows: Vec<Row>,
}

fn stream(dims: usize, len: usize, eta: f64, seed: u64) -> Vec<UncertainPoint> {
    let mut cfg = SynDriftConfig::paper();
    cfg.dims = dims;
    cfg.len = len;
    NoisyStream::new(cfg.build(seed), eta, StdRng::seed_from_u64(seed ^ 0x0e7a)).collect()
}

fn config(n_micro: usize, dims: usize) -> UMicroConfig {
    UMicroConfig::new(n_micro, dims).expect("valid config")
}

/// Best-of-`reps` insertion throughput on the currently dispatched
/// backend.
fn measure(points: &[UncertainPoint], n_micro: usize, dims: usize, reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut alg = UMicro::new(config(n_micro, dims));
        let started = Instant::now();
        for p in points {
            black_box(alg.insert(p));
        }
        let rate = points.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
        best = best.max(rate);
    }
    best
}

/// Best-of-`reps` nanoseconds per `isolation` call against the model
/// `points` build, probing with the first [`ISO_PROBES`] of them:
/// `(scalar per-ECF loop, kernel sweep)`.
fn measure_isolation(
    points: &[UncertainPoint],
    n_micro: usize,
    dims: usize,
    reps: usize,
) -> (f64, f64) {
    let mut alg = UMicro::new(config(n_micro, dims));
    alg.insert_batch(points, &mut Vec::new());
    let probes = &points[..points.len().min(ISO_PROBES)];
    let time = |isolation: &dyn Fn(&UncertainPoint) -> Option<f64>| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let started = Instant::now();
            for p in probes {
                black_box(isolation(p));
            }
            let ns = started.elapsed().as_secs_f64() * 1e9 / probes.len().max(1) as f64;
            best = best.min(ns);
        }
        best
    };
    let scalar = time(&|p| {
        let sq = alg
            .micro_clusters()
            .iter()
            .map(|c| corrected_sq_distance(p, &c.ecf))
            .fold(f64::INFINITY, f64::min);
        Some(sq.sqrt())
    });
    (scalar, time(&|p| alg.isolation(p)))
}

fn main() {
    let args = Args::parse();
    let len: usize = args.get("len", 50_000);
    let reps: usize = args.get("reps", 3);
    let eta: f64 = args.get("eta", 0.5);
    let seed: u64 = args.get("seed", 11);
    let strict: bool = args.get("strict", false);

    let dims_sweep = [5usize, 20, 50];
    let micro_sweep = [25usize, 100];
    let auto_backend = simd::force(None).name().to_string();

    let mut rows = Vec::new();
    let mut strict_ok = true;
    println!(
        "{:>5} {:>8} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9} {:>8}",
        "dims",
        "n_micro",
        "kernel_pps",
        "batched_pps",
        "simd",
        "b_spd",
        "iso_s_ns",
        "iso_k_ns",
        "iso_spd"
    );
    for &dims in &dims_sweep {
        let points = stream(dims, len, eta, seed);
        for &n_micro in &micro_sweep {
            let mut measured = Vec::new();
            for &backend in Backend::compiled() {
                if backend.available() {
                    simd::force(Some(backend));
                    measured.push((backend, measure(&points, n_micro, dims, reps)));
                }
            }
            simd::force(None);
            let scalar_kernel_pps = measured
                .iter()
                .find(|(b, _)| *b == Backend::Scalar)
                .map_or(f64::NAN, |(_, pps)| *pps);
            let backends = measured
                .into_iter()
                .map(|(backend, pps)| BackendRow {
                    backend: backend.name().to_string(),
                    kernel_pps: pps,
                    speedup: pps / scalar_kernel_pps,
                })
                .collect();

            let kernel_pps = measure(&points, n_micro, dims, reps);
            let batched_pps = {
                let mut best = 0.0f64;
                let mut out = Vec::with_capacity(BATCH);
                for _ in 0..reps {
                    let mut alg = UMicro::new(config(n_micro, dims));
                    let started = Instant::now();
                    for chunk in points.chunks(BATCH) {
                        out.clear();
                        alg.insert_batch(chunk, &mut out);
                        black_box(out.len());
                    }
                    let rate = points.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
                    best = best.max(rate);
                }
                best
            };

            let (iso_scalar_ns, iso_kernel_ns) = measure_isolation(&points, n_micro, dims, reps);
            let iso_speedup = iso_scalar_ns / iso_kernel_ns;

            let simd_speedup = kernel_pps / scalar_kernel_pps;
            let below_floor = simd_speedup < STRICT_FLOOR || simd_speedup.is_nan();
            if strict && dims >= STRICT_MIN_DIMS && below_floor {
                strict_ok = false;
                eprintln!(
                    "STRICT: dims={dims} n_micro={n_micro}: auto backend is only \
                     {simd_speedup:.2}x the scalar-backend kernel (floor {STRICT_FLOOR}x)"
                );
            }
            let iso_below_floor = iso_speedup < STRICT_ISO_FLOOR || iso_speedup.is_nan();
            if strict && dims >= STRICT_MIN_DIMS && iso_below_floor {
                strict_ok = false;
                eprintln!(
                    "STRICT: dims={dims} n_micro={n_micro}: kernel isolation is only \
                     {iso_speedup:.2}x the scalar per-ECF loop (floor {STRICT_ISO_FLOOR}x)"
                );
            }
            let row = Row {
                dims,
                n_micro,
                backends,
                kernel_pps,
                batched_pps,
                simd_speedup,
                batched_speedup: batched_pps / kernel_pps,
                iso_scalar_ns,
                iso_kernel_ns,
                iso_speedup,
            };
            println!(
                "{:>5} {:>8} {:>12.0} {:>12.0} {:>8.2} {:>8.2} {:>9.0} {:>9.0} {:>8.2}",
                row.dims,
                row.n_micro,
                row.kernel_pps,
                row.batched_pps,
                row.simd_speedup,
                row.batched_speedup,
                row.iso_scalar_ns,
                row.iso_kernel_ns,
                row.iso_speedup
            );
            for b in &row.backends {
                println!(
                    "{:>5} {:>8} {:>12} {:>12.0} {:>8.2}",
                    "", "", b.backend, b.kernel_pps, b.speedup
                );
            }
            rows.push(row);
        }
    }

    let report = Report {
        bench: "kernel_speedup".to_string(),
        len,
        reps,
        eta,
        auto_backend,
        rows,
    };
    let out = PathBuf::from("results/BENCH_kernel.json");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    std::fs::write(
        &out,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_kernel.json");
    eprintln!("wrote {}", out.display());
    if strict && !strict_ok {
        eprintln!("STRICT: speedup floor violated; failing");
        std::process::exit(1);
    }
}
