//! `distrib-durable`: exact distributed clustering through a durable
//! coordinator, with coordinator kills.
//!
//! A `Coordinator` keeps its WAL and snapshot generations in the run's
//! scratch directory on the real disk (`snapshot_every_epochs` 32, the
//! CLI default). Two sites (d=8, 64 micro-clusters each) run on their own
//! threads; each pushes 64 records, ships them with `Site::sync`, and
//! then answers a local horizon query from its engine.
//! A few times per pass the coordinator is killed, resumed from its WAL
//! and snapshots, and both sites repoint to it.

use crate::common::{
    median_secs, metric, note_error, peak_rss_mb, sampled, Pool, Report, RunCfg, Samples, Series,
};
use crate::probes::{self, Shape};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use umicro::{Ecf, UMicro, UMicroConfig};
use ustream_distrib::protocol::encode_site_request;
use ustream_distrib::{
    Coordinator, CoordinatorConfig, DeltaFrame, DurabilityPolicy, Site, SiteConfig, SiteRequest,
};
use ustream_engine::EngineBuilder;
use ustream_serve::protocol::DEFAULT_MAX_FRAME_BYTES;

const SITES: usize = 2;
const DIMS: usize = 8;
const N_MICRO: usize = 64;
const EPOCH: u64 = 64;
const HORIZON: u64 = 256;
const MACRO_K: usize = 5;
/// Epochs each site ships before timing, so its horizon store covers
/// `HORIZON` from the first timed read.
const WARM_EPOCHS: u64 = 8;
/// Kill → resume → repoint cycles per pass.
const CYCLES: usize = 3;
const SETUP_REPS: usize = 5;
const POOL_LEN: usize = 1 << 14;
/// Frames kept from the traced pass to replay into the scratch WAL.
const MAX_TRACED_FRAMES: usize = 400;

fn coord_cfg(base: &Path) -> CoordinatorConfig {
    CoordinatorConfig {
        durability: Some(DurabilityPolicy::new(base.to_string_lossy().into_owned())),
        ..CoordinatorConfig::default()
    }
}

fn attach(id: u64, addr: &str) -> Result<Site, String> {
    let cfg = UMicroConfig::new(N_MICRO, DIMS).map_err(|e| e.to_string())?;
    let engine = EngineBuilder::new(cfg)
        .shards(1)
        .build()
        .map_err(|e| e.to_string())?;
    let mut sc = SiteConfig::new(id, addr);
    // Epochs are shipped by explicit `sync` calls, so each one is timed.
    sc.delta_every = u64::MAX;
    sc.io_deadline = Duration::from_secs(30);
    Site::attach(engine, sc).map_err(|e| e.to_string())
}

/// Site `s`'s record `j`: its own slice of the pool, its own clock.
fn point(pool: &Pool, s: usize, j: u64) -> ustream_common::UncertainPoint {
    pool.point(j * SITES as u64 + s as u64, j + 1)
}

struct SiteRun {
    site: Site,
    id: usize,
    /// Records pushed so far.
    next: u64,
    /// Traced pass: the map this site last shipped, to rebuild its frames.
    shadow: BTreeMap<u64, Ecf>,
    seq: u64,
}

struct Tally {
    epoch: Samples,
    /// Traced pass: extract plus `sync`, the whole epoch as traced.
    traced_epoch: Samples,
    read: Samples,
    extract: Samples,
    encode: Samples,
    frames: Vec<DeltaFrame>,
    ops: u64,
    failed: u64,
    errors: Vec<String>,
    /// Records per shipped epoch.
    points: Series,
}

impl Tally {
    fn new(origin: Instant) -> Self {
        Self {
            epoch: Samples::default(),
            traced_epoch: Samples::default(),
            read: Samples::default(),
            extract: Samples::default(),
            encode: Samples::default(),
            frames: Vec::new(),
            ops: 0,
            failed: 0,
            errors: Vec::new(),
            points: Series::new(origin),
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        note_error(&mut self.errors, e);
    }

    fn merge(&mut self, o: Tally) {
        self.epoch.extend(o.epoch);
        self.traced_epoch.extend(o.traced_epoch);
        self.read.extend(o.read);
        self.extract.extend(o.extract);
        self.encode.extend(o.encode);
        let room = MAX_TRACED_FRAMES.saturating_sub(self.frames.len());
        self.frames.extend(o.frames.into_iter().take(room));
        self.ops += o.ops;
        self.failed += o.failed;
        for e in o.errors {
            note_error(&mut self.errors, e);
        }
        self.points.extend(o.points);
    }
}

impl SiteRun {
    /// Pushes one epoch of records and ships it; `read` adds a local
    /// horizon query once the epoch is acked.
    fn epoch(&mut self, pool: &Pool, read: bool, traced: bool, t: &mut Tally) {
        for _ in 0..EPOCH {
            t.ops += 1;
            if let Err(e) = self.site.push(point(pool, self.id, self.next)) {
                t.fail(format!("site {} push: {e}", self.id));
            }
            self.next += 1;
        }
        let extract_us = if traced { self.trace_extract(t) } else { 0.0 };
        let t0 = Instant::now();
        let synced = self.site.sync();
        let sync_us = t0.elapsed().as_secs_f64() * 1e6;
        t.epoch.push(sync_us);
        t.points.record(EPOCH);
        if traced {
            t.traced_epoch.push(extract_us + sync_us);
        }
        t.ops += 1;
        if let Err(e) = synced {
            t.fail(format!("site {} sync: {e}", self.id));
        }
        if read {
            let t0 = Instant::now();
            let view = self.site.engine().horizon_clusters(HORIZON);
            t.read.since(t0);
            t.ops += 1;
            match view {
                Ok(w) if !w.clusters.is_empty() => {}
                other => {
                    let what = other.map_or_else(|e| e.to_string(), |_| "empty window".into());
                    t.fail(format!("site {} horizon read: {what}", self.id));
                }
            }
        }
    }

    /// The first two steps of an epoch, timed from outside: extract (the
    /// engine flush and cluster read `sync` starts with) and the frame
    /// encode, on a frame rebuilt the way the site builds its own.
    /// Returns the extract time in microseconds.
    fn trace_extract(&mut self, t: &mut Tally) -> f64 {
        let t0 = Instant::now();
        self.site.engine().flush();
        let current: BTreeMap<u64, Ecf> = self
            .site
            .engine()
            .micro_clusters()
            .into_iter()
            .map(|mc| (mc.id, mc.ecf))
            .collect();
        let extract_us = t0.elapsed().as_secs_f64() * 1e6;
        t.extract.push(extract_us);
        self.seq += 1;
        let frame =
            probes::delta_frame(self.id as u64, self.seq, &self.shadow, &current, self.next);
        let req = SiteRequest::Delta { frame };
        let t0 = Instant::now();
        let encoded = encode_site_request(&req, DEFAULT_MAX_FRAME_BYTES);
        t.encode.since(t0);
        if let Err(e) = encoded {
            t.fail(format!("site {} frame encode: {e}", self.id));
        }
        if t.frames.len() < MAX_TRACED_FRAMES {
            if let SiteRequest::Delta { frame } = req {
                t.frames.push(frame);
            }
        }
        self.shadow = current;
        extract_us
    }
}

/// Both sites on their own threads until `deadline`.
fn segment(
    sites: &mut [SiteRun],
    pool: &Pool,
    origin: Instant,
    deadline: Instant,
    traced: bool,
) -> Result<Tally, String> {
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = sites
            .iter_mut()
            .map(|run| {
                s.spawn(move || {
                    let mut t = Tally::new(origin);
                    while Instant::now() < deadline {
                        run.epoch(pool, true, traced, &mut t);
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "site thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut total = Tally::new(origin);
    for t in tallies {
        total.merge(t);
    }
    Ok(total)
}

/// Counters one coordinator incarnation adds, from its first to last
/// stats.
#[derive(Default)]
struct CoordCounters {
    epochs_applied: u64,
    duplicates_dropped: u64,
    gaps_nacked: u64,
    snapshots_written: u64,
}

impl CoordCounters {
    fn add(&mut self, start: &ustream_distrib::CoordStats, end: &ustream_distrib::CoordStats) {
        self.epochs_applied += end.epochs_applied.saturating_sub(start.epochs_applied);
        self.duplicates_dropped += end
            .duplicates_dropped
            .saturating_sub(start.duplicates_dropped);
        self.gaps_nacked += end.gaps_nacked.saturating_sub(start.gaps_nacked);
        self.snapshots_written += end
            .snapshots_written
            .saturating_sub(start.snapshots_written);
    }
}

/// The live system: coordinator, its start stats, and the sites.
struct Fleet {
    coord: Option<Coordinator>,
    coord_start: ustream_distrib::CoordStats,
    base: PathBuf,
    sites: Vec<SiteRun>,
    counters: CoordCounters,
    /// `(site, records, coordinator's map)` at each reference point.
    snapshots: Vec<(usize, u64, BTreeMap<u64, Ecf>)>,
    resume_ms: Samples,
    recover_ms: Samples,
}

impl Fleet {
    fn coord(&self) -> Result<&Coordinator, String> {
        self.coord
            .as_ref()
            .ok_or_else(|| "coordinator is down".to_string())
    }

    fn record_views(&mut self) -> Result<(), String> {
        let coord = self.coord()?;
        let views: Vec<_> = self
            .sites
            .iter()
            .map(|s| (s.id, s.next, coord.site_clusters(s.id as u64)))
            .collect();
        self.snapshots.extend(views);
        Ok(())
    }

    /// Kill → resume → every site repointed with its first epoch acked.
    fn recover(&mut self, pool: &Pool, t: &mut Tally) -> Result<(), String> {
        self.record_views()?;
        let coord = self.coord.take().ok_or("coordinator is down")?;
        let killed = Instant::now();
        let end = coord.kill();
        self.counters.add(&self.coord_start, &end);
        let t0 = Instant::now();
        let coord = Coordinator::resume("127.0.0.1:0", coord_cfg(&self.base))
            .map_err(|e| format!("coordinator resume: {e}"))?;
        self.resume_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let addr = coord.addr().to_string();
        for s in self.sites.iter_mut() {
            s.site
                .repoint(&addr)
                .map_err(|e| format!("site repoint: {e}"))?;
            s.epoch(pool, false, false, t);
        }
        self.recover_ms.push(killed.elapsed().as_secs_f64() * 1e3);
        self.coord_start = coord.stats();
        self.coord = Some(coord);
        self.record_views()
    }

    fn shutdown(mut self) -> Result<(), String> {
        let mut first_err = None;
        for s in self.sites.drain(..) {
            if let Err(e) = s.site.finish() {
                first_err.get_or_insert(format!("site finish: {e}"));
            }
        }
        if let Some(c) = self.coord.take() {
            c.shutdown();
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Binds a durable coordinator under `dir` and attaches both sites.
fn boot(dir: &Path) -> Result<(Fleet, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let base = dir.join("coord");
    let t0 = Instant::now();
    let coord = Coordinator::bind("127.0.0.1:0", coord_cfg(&base)).map_err(|e| e.to_string())?;
    let addr = coord.addr().to_string();
    let mut sites = Vec::with_capacity(SITES);
    for id in 0..SITES {
        match attach(id as u64, &addr) {
            Ok(site) => sites.push(SiteRun {
                site,
                id,
                next: 0,
                shadow: BTreeMap::new(),
                seq: 0,
            }),
            Err(e) => {
                coord.shutdown();
                return Err(e);
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Fleet {
            coord_start: coord.stats(),
            coord: Some(coord),
            base,
            sites,
            counters: CoordCounters::default(),
            snapshots: Vec::new(),
            resume_ms: Samples::default(),
            recover_ms: Samples::default(),
        },
        secs,
    ))
}

/// Replays each site's records into a single-node `UMicro` and compares
/// with every recorded coordinator view, bit for bit.
fn reference_check(
    rep: &mut Report,
    pool: &Pool,
    views: &mut [(usize, u64, BTreeMap<u64, Ecf>)],
) -> Result<(), String> {
    views.sort_by_key(|(s, n, _)| (*s, *n));
    let cfg = UMicroConfig::new(N_MICRO, DIMS).map_err(|e| e.to_string())?;
    for s in 0..SITES {
        let mut alg = UMicro::new(cfg.clone());
        let mut fed = 0u64;
        for (_, n, got) in views.iter().filter(|(vs, _, _)| *vs == s) {
            while fed < *n {
                alg.insert(&point(pool, s, fed));
                fed += 1;
            }
            let want: BTreeMap<u64, Ecf> = alg
                .micro_clusters()
                .iter()
                .map(|mc| (mc.id, mc.ecf.clone()))
                .collect();
            let differing = want
                .iter()
                .filter(|(id, e)| got.get(*id) != Some(*e))
                .count()
                + got.keys().filter(|id| !want.contains_key(id)).count();
            rep.check(
                format!("site {s} after {n} records: coordinator view equals a single-node UMicro"),
                differing as u64,
            );
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let pool = Pool::new(cfg.seed, POOL_LEN, DIMS, 5, 3.0, 0.3);
    let mut rep = Report::default();

    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPS {
        let dir = cfg.tmp.join(format!("distrib-{i}"));
        let (fleet, secs) = boot(&dir)?;
        setup.push(secs);
        if i + 1 == SETUP_REPS {
            live = Some(fleet);
        } else {
            fleet.shutdown()?;
            crate::common::remove_dir(&dir);
        }
    }
    rep.add(metric("setup_s", median_secs(&setup), "s"));
    let mut fleet = live.ok_or("no coordinator booted")?;
    let result = drive(cfg, &pool, &mut fleet, &mut rep);
    let mut views = std::mem::take(&mut fleet.snapshots);
    let closed = fleet.shutdown();
    result?;
    closed?;
    reference_check(&mut rep, &pool, &mut views)?;
    Ok(rep)
}

fn drive(cfg: &RunCfg, pool: &Pool, fleet: &mut Fleet, rep: &mut Report) -> Result<(), String> {
    let mut warm = Tally::new(Instant::now());
    for _ in 0..WARM_EPOCHS {
        for s in fleet.sites.iter_mut() {
            s.epoch(pool, false, false, &mut warm);
        }
    }
    if let Some(e) = warm.errors.first() {
        return Err(format!("warm-up: {e}"));
    }
    for (traced, secs) in cfg.passes() {
        let site_start: Vec<_> = fleet.sites.iter().map(|s| s.site.stats()).collect();
        fleet.resume_ms = Samples::default();
        fleet.recover_ms = Samples::default();
        let t0 = Instant::now();
        let mut t = Tally::new(t0);
        for seg in 0..=CYCLES {
            let deadline =
                t0 + Duration::from_secs_f64(secs * (seg + 1) as f64 / (CYCLES + 1) as f64);
            let part = segment(&mut fleet.sites, pool, t0, deadline, traced)?;
            t.merge(part);
            if seg < CYCLES {
                fleet.recover(pool, &mut t)?;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        rep.attempted += t.ops + CYCLES as u64;
        rep.failed += t.failed;
        rep.errors.append(&mut t.errors);
        let pps = t.points.rate(elapsed);
        let site_end: Vec<_> = fleet.sites.iter().map(|s| s.site.stats()).collect();
        let sum = |f: fn(&ustream_distrib::SiteStats) -> u64| -> f64 {
            site_end.iter().map(f).sum::<u64>() as f64
                - site_start.iter().map(f).sum::<u64>() as f64
        };
        let wire = sum(|s| s.bytes_sent) / t.points.total().max(1.0);
        if traced {
            rep.add(metric("points_per_s.traced", pps, "1/s"));
            rep.add(sampled("trace.epoch_p50_us", &t.traced_epoch, 0.5, "us"));
            rep.add(sampled(
                "distrib.coord.resume_ms",
                &fleet.resume_ms,
                0.5,
                "ms",
            ));
            rep.add(metric(
                "distrib.send_retries",
                sum(|s| s.send_retries),
                "count",
            ));
            rep.add(metric(
                "distrib.full_resyncs",
                sum(|s| s.full_resyncs),
                "count",
            ));
            layers(cfg, pool, rep, &t)?;
        } else {
            rep.add(metric("points_per_s", pps, "1/s"));
            rep.add(metric("points_per_s.untraced", pps, "1/s"));
            rep.add(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
            rep.add(sampled("write_p50_us", &t.epoch, 0.5, "us"));
            rep.add(sampled("write_p99_us", &t.epoch, 0.99, "us"));
            rep.add(sampled("read_p50_us", &t.read, 0.5, "us"));
            rep.add(sampled("read_p99_us", &t.read, 0.99, "us"));
            rep.add(sampled("recover_ms", &fleet.recover_ms, 0.5, "ms"));
            rep.add(metric("wire_bytes_per_point", wire, "B"));
        }
    }
    let coord = fleet.coord()?;
    let end = coord.stats();
    fleet.counters.add(&fleet.coord_start, &end);
    fleet.coord_start = end;
    fleet.record_views()?;
    if cfg.trace {
        let c = &fleet.counters;
        rep.add(metric(
            "distrib.epochs_applied",
            c.epochs_applied as f64,
            "count",
        ));
        rep.add(metric(
            "distrib.duplicates_dropped",
            c.duplicates_dropped as f64,
            "count",
        ));
        rep.add(metric("distrib.gaps_nacked", c.gaps_nacked as f64, "count"));
        rep.add(metric(
            "distrib.snapshots_written",
            c.snapshots_written as f64,
            "count",
        ));
    }
    Ok(())
}

/// Layer probes at this shape, replaced by the run's own figures where
/// the traced pass has them, and what they leave unexplained of the
/// traced epoch median.
fn layers(cfg: &RunCfg, pool: &Pool, rep: &mut Report, t: &Tally) -> Result<(), String> {
    let shape = Shape {
        label: "distrib-durable",
        dims: DIMS,
        n_micro: N_MICRO,
        batch: EPOCH as usize,
        tenants: SITES,
        shards: SITES,
        macro_k: MACRO_K,
        pool,
        tmp: &cfg.tmp,
    };
    for m in probes::run(&shape)? {
        rep.add(m);
    }
    rep.add(sampled("distrib.engine.extract_us", &t.extract, 0.5, "us"));
    rep.add(sampled("distrib.protocol.encode_us", &t.encode, 0.5, "us"));
    let (append, replay_ms) = probes::wal_append(&t.frames, &cfg.tmp.join("replay.wal"))?;
    rep.add(sampled("distrib.wal.append_us", &append, 0.5, "us"));
    rep.add(metric("distrib.wal.replay_ms", replay_ms, "ms"));
    let explained = [
        "distrib.engine.extract_us",
        "distrib.protocol.encode_us",
        "distrib.wal.append_us",
    ];
    let attributed: f64 = explained.iter().map(|n| rep.get(n)).sum();
    rep.add(metric(
        "unattributed_us",
        rep.get("trace.epoch_p50_us") - attributed,
        "us",
    ));
    rep.notes.push(format!(
        "unattributed_us = trace.epoch_p50_us - ({})",
        explained.join(" + ")
    ));
    Ok(())
}
