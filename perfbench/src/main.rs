//! perfbench: one benchmark for the serving front-end, the sharded engine
//! and the distributed tier.
//!
//! ```text
//! perfbench --workload <serve-mixed|engine-wide|distrib-durable> --seed <n>
//!           --seconds <s> --trace <0|1> --out <dir> [--source <id>]
//! ```
//!
//! Prints a table of every figure, writes the full record (environment
//! included) to `<out>/<workload>-seed<n>-trace<t>.json`, and ends stdout
//! with one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits non-zero, printing no result
//! line, when a run cannot complete. `run.py` builds and invokes it.

mod common;
mod distrib_durable;
mod engine_wide;
mod probes;
mod serve_mixed;

use common::{Metric, Report, RunCfg};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const E2E: &[&str] = &[
    "points_per_s",
    "setup_s",
    "ok_frac",
    "peak_rss_mb",
    "write_p50_us",
    "write_p99_us",
    "read_p50_us",
    "read_p99_us",
];

/// Per-layer metrics every workload's traced run reports, as
/// `BENCHMARK.json` lists them.
const LAYERS: &[&str] = &[
    "points_per_s.untraced",
    "points_per_s.traced",
    "unattributed_us",
    "serve.protocol.encode_us",
    "serve.protocol.decode_us",
    "serve.protocol.bytes_per_point",
    "serve.registry.lookup_us",
    "serve.tenant.ingest_us",
    "serve.tenant.horizon_us",
    "core.insert_ns",
    "core.isolation_ns",
    "engine.validate_ns",
    "snapshot.record_us",
    "kmeans.macro_us",
    "distrib.protocol.encode_us",
    "distrib.wal.append_us",
];

const WORKLOADS: &[&str] = &["serve-mixed", "engine-wide", "distrib-durable"];

/// What each generic end-to-end name means on each workload.
fn alias(workload: &str, name: &str) -> &'static str {
    match (workload, name) {
        ("serve-mixed", "write_p50_us") => "ingest_p50_us",
        ("serve-mixed", "write_p99_us") => "ingest_p99_us",
        ("serve-mixed", "read_p50_us") => "query_p50_us",
        ("serve-mixed", "read_p99_us") => "query_p99_us",
        ("engine-wide", "write_p50_us") => "4 x push_slice (1024 records)",
        ("engine-wide", "write_p99_us") => "4 x push_slice (1024 records)",
        ("engine-wide", "read_p50_us") => "query_p50_us",
        ("engine-wide", "read_p99_us") => "query_p99_us",
        ("distrib-durable", "write_p50_us") => "epoch_p50_us",
        ("distrib-durable", "write_p99_us") => "epoch_p99_us",
        ("distrib-durable", "read_p50_us") => "site_horizon_p50_us",
        ("distrib-durable", "read_p99_us") => "site_horizon_p99_us",
        (_, "ok_frac") => "1 - failed_frac",
        _ => "",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut source) =
        (None, None, None, None, None, String::from("unknown"));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
        source,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        common::remove_dir(&self.0);
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`, plus each metric's sample
/// count when `samples` is set.
fn metrics_json(ms: &[&Metric], samples: bool) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let n = match m.samples {
                Some(n) if samples => format!(", \"samples\": {n}"),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let tmp = args
        .out
        .join(format!("tmp-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let scratch = Scratch(tmp);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp: scratch.0.clone(),
    };
    let mut rep: Report = match args.workload.as_str() {
        "serve-mixed" => serve_mixed::run(&cfg)?,
        "engine-wide" => engine_wide::run(&cfg)?,
        _ => distrib_durable::run(&cfg)?,
    };
    drop(scratch);
    let ok = 1.0 - rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.add(common::metric("ok_frac", ok, "ratio"));

    let backend = umicro::kernel::simd::active().name();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = cpu_model();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "env: backend={backend} nproc={nproc} cpu=\"{cpu}\" source={}",
        args.source
    );
    println!("  (results on different kernel backends are not comparable)");
    let wanted = if args.trace { LAYERS } else { E2E };
    println!(
        "{:<40} {:>14} {:<6} {:>8}  meaning",
        "metric (* = in the result line)", "value", "unit", "samples"
    );
    for m in &rep.metrics {
        let star = if wanted.contains(&m.name.as_str()) {
            "*"
        } else {
            " "
        };
        let n = m.samples.map_or(String::new(), |n| n.to_string());
        println!(
            "{star} {:<38} {:>14.3} {:<6} {:>8}  {}",
            m.name,
            m.value,
            m.unit,
            n,
            alias(&args.workload, &m.name)
        );
    }
    if args.trace {
        let (u, t) = (
            rep.get("points_per_s.untraced"),
            rep.get("points_per_s.traced"),
        );
        println!(
            "tracing cost: {u:.0} points/s untraced vs {t:.0} traced ({:+.1}%)",
            (t / u - 1.0) * 100.0
        );
    }
    for n in &rep.notes {
        println!("note: {n}");
    }
    let mismatched: Vec<&String> = rep.checks.iter().filter(|c| !c.starts_with("ok")).collect();
    println!(
        "reference checks: {} run, {} mismatched; {} of {} operations failed",
        rep.checks.len(),
        mismatched.len(),
        rep.failed,
        rep.attempted
    );
    for c in &mismatched {
        println!("  {c}");
    }
    for e in &rep.errors {
        println!("  failed: {e}");
    }

    let mut selected = Vec::new();
    for name in wanted {
        let m = rep
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a number ({})", m.value));
        }
        selected.push(m);
    }

    let all: Vec<&Metric> = rep.metrics.iter().filter(|m| m.value.is_finite()).collect();
    let checks: Vec<String> = rep.checks.iter().map(|c| json_str(c)).collect();
    let errors: Vec<String> = rep.errors.iter().map(|e| json_str(e)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"env\": {{\"kernel_backend\": {}, \"nproc\": {}, \"cpu\": {}, \"source\": {}}}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"checks\": [{}], \"metrics\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(backend),
        nproc,
        json_str(&cpu),
        json_str(&args.source),
        rep.attempted,
        rep.failed,
        errors.join(", "),
        checks.join(", "),
        metrics_json(&all, true),
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rep.failed == 0 && mismatched.is_empty(),
        rep.attempted,
        rep.failed,
        metrics_json(&selected, false)
    ))
}
