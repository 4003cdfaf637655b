//! Shared pieces: seeded inputs, latency samples, metric records, layer
//! probes' timing helper, and the environment every result is filed with.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use ustream_common::backoff::splitmix64;
use ustream_common::UncertainPoint;
use ustream_serve::protocol::WirePoint;

/// Uniform draw in `[0, 1)` from a 64-bit hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded pool of uncertain records. Workloads cycle through it with
/// fresh timestamps, so inputs are generated once, before any timing,
/// and the same seed always yields the same stream.
pub struct Pool {
    values: Vec<Vec<f64>>,
    errors: Vec<Vec<f64>>,
}

impl Pool {
    /// `len` records of `dims` coordinates around `centres` centres
    /// spaced over `[0, 100)`, with noise of width `spread` and error
    /// standard deviations in `[err/2, 3err/2)`.
    pub fn new(seed: u64, len: usize, dims: usize, centres: u64, spread: f64, err: f64) -> Self {
        let mut values = Vec::with_capacity(len);
        let mut errors = Vec::with_capacity(len);
        for i in 0..len as u64 {
            let h = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let centre = h % centres;
            let mut v = Vec::with_capacity(dims);
            let mut e = Vec::with_capacity(dims);
            for d in 0..dims as u64 {
                let c = unit(splitmix64(seed ^ (centre << 32) ^ (d << 8) ^ 0xc3)) * 100.0;
                let noise = unit(splitmix64(h ^ (d << 40) ^ 0x51)) - 0.5;
                v.push(c + noise * spread);
                e.push(err * (0.5 + unit(splitmix64(h ^ (d << 48) ^ 0xe7))));
            }
            values.push(v);
            errors.push(e);
        }
        Self { values, errors }
    }

    /// Record `i` of the endless stream, stamped with tick `t`.
    pub fn point(&self, i: u64, t: u64) -> UncertainPoint {
        let k = (i % self.values.len() as u64) as usize;
        UncertainPoint::new(self.values[k].clone(), self.errors[k].clone(), t, None)
    }

    /// Record `i` in wire form, stamped with tick `t`.
    pub fn wire(&self, i: u64, t: u64) -> WirePoint {
        let k = (i % self.values.len() as u64) as usize;
        WirePoint {
            values: self.values[k].clone(),
            errors: self.errors[k].clone(),
            timestamp: t,
        }
    }
}

/// Raw timing samples in microseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    /// Records the time since `t0`.
    pub fn since(&mut self, t0: Instant) {
        self.0.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Slices a timed pass is cut into for its throughput (and, on
/// `serve-mixed`, its latencies).
pub const SLICES: usize = 5;

/// Values recorded during one timed pass (record counts or latencies),
/// each with the moment it was recorded, so a figure can be taken per
/// slice of the pass and the median across slices reported: a stall
/// that hits one slice moves it little.
#[derive(Clone)]
pub struct Series {
    origin: Instant,
    at: Vec<f64>,
    values: Vec<f64>,
}

impl Series {
    /// An empty series for the pass that started at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            at: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Records `n` records as completing now.
    pub fn record(&mut self, n: u64) {
        self.push(n as f64);
    }

    /// Records the time since `t0`, in microseconds, as completing now.
    pub fn since(&mut self, t0: Instant) {
        self.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    fn push(&mut self, v: f64) {
        self.at.push(self.origin.elapsed().as_secs_f64());
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, o: Series) {
        self.at.extend(o.at);
        self.values.extend(o.values);
    }

    /// Records completed in the whole pass.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The values recorded in each of `SLICES` equal slices of
    /// `[0, elapsed)`.
    fn slices(&self, elapsed: f64) -> [Samples; SLICES] {
        let mut per: [Samples; SLICES] = Default::default();
        for (at, v) in self.at.iter().zip(&self.values) {
            let k = ((at / elapsed) * SLICES as f64) as usize;
            per[k.min(SLICES - 1)].push(*v);
        }
        per
    }

    /// Median across the slices of the records per second completed in
    /// each.
    pub fn rate(&self, elapsed: f64) -> f64 {
        let mut s = Samples::default();
        for per in self.slices(elapsed) {
            s.push(per.0.iter().sum::<f64>() * SLICES as f64 / elapsed);
        }
        s.median()
    }

    /// Median across the non-empty slices of each slice's `q` quantile.
    pub fn quantile(&self, q: f64, elapsed: f64) -> f64 {
        let mut s = Samples::default();
        for per in self.slices(elapsed) {
            if per.len() > 0 {
                s.push(per.quantile(q));
            }
        }
        s.median()
    }
}

/// Per-call time of `f` in microseconds: `reps` samples, each the mean
/// of `inner` back-to-back calls (so sub-microsecond calls are not
/// swamped by the clock read).
pub fn probe<R>(reps: usize, inner: usize, mut f: impl FnMut() -> R) -> Samples {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            black_box(f());
        }
        s.push(t0.elapsed().as_secs_f64() * 1e6 / inner as f64);
    }
    s
}

/// One measured figure.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median, when it has one.
    pub samples: Option<usize>,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
    }
}

pub fn sampled(name: &str, s: &Samples, q: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: s.quantile(q),
        unit,
        samples: Some(s.len()),
    }
}

/// `sampled` for a `Series` of latencies: the median across the slices
/// of the pass of each slice's `q` quantile.
pub fn sliced(name: &str, s: &Series, q: f64, elapsed: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: s.quantile(q, elapsed),
        unit,
        samples: Some(s.len()),
    }
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted, reference comparisons included.
    pub attempted: u64,
    /// Failed or refused operations plus reference mismatches.
    pub failed: u64,
    /// One line per reference check, for the log.
    pub checks: Vec<String>,
    /// How derived figures were formed, for the log.
    pub notes: Vec<String>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, m: Metric) {
        self.metrics.retain(|x| x.name != m.name);
        self.metrics.push(m);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Records a reference comparison.
    pub fn check(&mut self, what: String, mismatches: u64) {
        self.attempted += 1;
        self.failed += mismatches;
        let verdict = if mismatches == 0 { "ok" } else { "MISMATCH" };
        self.checks.push(format!("{verdict}: {what}"));
    }
}

/// Keeps the first few failure descriptions of a run.
pub fn note_error(errors: &mut Vec<String>, e: String) {
    if errors.len() < 5 {
        errors.push(e);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), `NaN` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The median of `reps` set-up timings, in seconds.
pub fn median_secs(v: &[f64]) -> f64 {
    let mut s = Samples::default();
    for x in v {
        s.push(*x);
    }
    s.median()
}

/// Removes a scratch directory, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Which run this is.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for durable files; removed by `main` on exit.
    pub tmp: std::path::PathBuf,
}

impl RunCfg {
    /// The timed passes: one untraced pass, or an untraced and a traced
    /// pass of half the length each, so a traced run reports its own
    /// tracing overhead without running longer.
    pub fn passes(&self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}
