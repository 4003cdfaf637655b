//! Bytes-on-wire of the distributed tier: ECF delta shipping versus
//! forwarding every raw point to the coordinator.
//!
//! Boots a real coordinator on an ephemeral port, attaches `--sites`
//! sites, and drives a deterministic interleaved stream through them over
//! TCP. The delta cost is what the sites actually wrote to their sockets
//! (USRV header + binary payload, retries and duplicates included). The
//! raw-forwarding baseline frames the *same* point batches with the same
//! codec at the same cadence — batched per epoch, which flatters the
//! baseline relative to per-point forwarding.
//!
//! The run double-checks exactness on the side: the coordinator's merged
//! per-site maps must equal the per-shard maps of a single engine fed the
//! interleaved stream, bit for bit.
//!
//! ```text
//! cargo run -p ustream-bench --release --bin fig_distrib_bench -- \
//!     --sites 4 --points 20000 --dims 8
//! ```
//!
//! The run also prices a coordinator kill: half the stream, kill, restart
//! via the WAL-replay path and again cold (full-resync fallback), and
//! measure what the sites spend on the wire after each failover.
//!
//! Output goes to `results/BENCH_distrib.json`. `--smoke 1` shrinks the
//! run for CI; `--strict 1` exits non-zero unless every run is exact,
//! delta bytes are at most 10% of the raw baseline, and the WAL-replay
//! recovery is strictly cheaper than the full-resync fallback.

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use umicro::{Ecf, UMicroConfig};
use ustream_bench::Args;
use ustream_common::backoff::splitmix64;
use ustream_common::{codec_struct, UncertainPoint};
use ustream_distrib::{Coordinator, CoordinatorConfig, DurabilityPolicy, Site, SiteConfig};
use ustream_engine::EngineBuilder;
use ustream_serve::protocol::encode_message;
use ustream_snapshot::{shard_of_id, SHARD_ID_BITS};

const LOCAL_MASK: u64 = (1u64 << SHARD_ID_BITS) - 1;

/// Deterministic stream: a few drifting centres plus noise.
fn point(t: u64, dims: usize, seed: u64) -> UncertainPoint {
    let values = (0..dims)
        .map(|d| {
            let r = splitmix64(seed ^ t.wrapping_mul(0x9e37_79b9) ^ ((d as u64) << 32));
            let centre = ((r >> 8) % 5) as f64 * 12.0;
            let drift = (t as f64) * 1e-4;
            let noise = (r & 0xffff) as f64 / 65_536.0 - 0.5;
            centre + drift + noise
        })
        .collect();
    UncertainPoint::new(values, vec![0.3; dims], t, None)
}

/// What raw-point forwarding would put on the wire: the same sub-streams,
/// framed with the same codec, batched at the same epoch cadence.
struct RawBatch {
    site: u64,
    seq: u64,
    points: Vec<UncertainPoint>,
}

codec_struct!(RawBatch {
    site: u64,
    seq: u64,
    points: Vec<UncertainPoint>,
});

fn raw_forwarding_bytes(points: &[UncertainPoint], n_sites: usize, delta_every: usize) -> u64 {
    let mut total = 0u64;
    for site in 0..n_sites {
        let sub: Vec<UncertainPoint> = points.iter().skip(site).step_by(n_sites).cloned().collect();
        for (e, chunk) in sub.chunks(delta_every).enumerate() {
            let batch = RawBatch {
                site: site as u64,
                seq: e as u64 + 1,
                points: chunk.to_vec(),
            };
            let frame =
                encode_message(&batch, usize::MAX >> 1).expect("raw batch frames like a delta");
            total += frame.len() as u64;
        }
    }
    total
}

/// What one coordinator-kill-and-restart costs the sites in phase-2 wire
/// bytes, for one of the two restart paths.
struct RecoveryOutcome {
    phase2_bytes: u64,
    exact: bool,
    wal_records_replayed: u64,
}

/// One coordinator-kill scenario: the stream, the fleet shape, the
/// durable base path, and the per-shard reference the finished run must
/// equal. Shared verbatim by the two restart paths.
struct RecoveryScenario<'a> {
    points: &'a [UncertainPoint],
    n_sites: usize,
    n_micro: usize,
    dims: usize,
    delta_every: usize,
    expected: &'a [BTreeMap<u64, Ecf>],
    base: &'a str,
}

/// Feeds half the stream, kills the coordinator, restarts it either via
/// `resume` (WAL-replay path) or cold (full-resync fallback), fails the
/// sites over to the new port and finishes the stream. Returns the wire
/// bytes the sites spent *after* the failover — the recovery cost the
/// tentpole bounds.
fn recovery_run(sc: &RecoveryScenario<'_>, resume: bool) -> RecoveryOutcome {
    let RecoveryScenario {
        points,
        n_sites,
        n_micro,
        dims,
        delta_every,
        expected,
        base,
    } = *sc;
    let cleanup = || {
        for suffix in ["manifest", "0", "1", "2", "3", "tmp", "wal"] {
            let _ = std::fs::remove_file(format!("{base}.{suffix}"));
        }
    };
    cleanup();
    let durable = |snapshot_every_epochs: u64| CoordinatorConfig {
        durability: Some(DurabilityPolicy {
            base: base.to_string(),
            generations: 3,
            snapshot_every_epochs,
        }),
        ..CoordinatorConfig::default()
    };
    // A lazy snapshot cadence keeps a WAL tail alive at the kill, so the
    // replay path is actually exercised rather than loading a snapshot
    // that already covers everything.
    let coord = Coordinator::bind("127.0.0.1:0", durable(64)).expect("coordinator binds");
    let addr = coord.addr().to_string();
    let mut sites: Vec<Site> = (0..n_sites)
        .map(|i| {
            let engine =
                EngineBuilder::new(UMicroConfig::new(n_micro, dims).expect("valid site config"))
                    .shards(1)
                    .build()
                    .expect("site engine boots");
            let mut cfg = SiteConfig::new(i as u64, &addr);
            cfg.delta_every = delta_every as u64;
            cfg.io_deadline = Duration::from_secs(30);
            Site::attach(engine, cfg).expect("site attaches")
        })
        .collect();

    let half = points.len() / 2;
    for (k, p) in points.iter().take(half).enumerate() {
        sites[k % n_sites].push(p.clone()).expect("site ingest");
    }
    for site in sites.iter_mut() {
        site.sync().expect("pre-kill sync");
    }
    let before: u64 = sites.iter().map(|s| s.stats().bytes_sent).sum();
    coord.kill();

    let coord = if resume {
        Coordinator::resume("127.0.0.1:0", durable(64)).expect("coordinator resumes")
    } else {
        // Cold restart: the durable state is ignored, every site reships
        // its whole map — the fallback the WAL path is measured against.
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).expect("coordinator binds")
    };
    let addr2 = coord.addr().to_string();
    let wal_records_replayed = coord.stats().recovery.map_or(0, |r| r.wal_records_replayed);
    for site in sites.iter_mut() {
        site.repoint(&addr2).expect("site failover");
    }
    for (k, p) in points.iter().enumerate().skip(half) {
        sites[k % n_sites].push(p.clone()).expect("site ingest");
    }
    let mut after = 0u64;
    for site in sites {
        after += site.finish().expect("final sync").bytes_sent;
    }
    let exact = (0..n_sites).all(|i| coord.site_clusters(i as u64) == expected[i]);
    coord.shutdown();
    cleanup();
    RecoveryOutcome {
        phase2_bytes: after - before,
        exact,
        wal_records_replayed,
    }
}

#[derive(Serialize)]
struct Report {
    bench: String,
    sites: usize,
    points: usize,
    dims: usize,
    n_micro_per_site: usize,
    delta_every: usize,
    delta_bytes: u64,
    delta_frames: u64,
    raw_bytes: u64,
    bytes_ratio: f64,
    delta_bytes_per_point: f64,
    raw_bytes_per_point: f64,
    epochs_applied: u64,
    duplicates_dropped: u64,
    gaps_nacked: u64,
    frames_rejected: u64,
    exact: bool,
    recovery_replay_bytes: u64,
    recovery_resync_bytes: u64,
    recovery_ratio: f64,
    recovery_replay_exact: bool,
    recovery_resync_exact: bool,
    wal_records_replayed: u64,
}

fn main() {
    let args = Args::parse();
    let smoke: bool = args.get("smoke", 0u8) != 0;
    let n_sites: usize = args.get("sites", 4);
    let n_points: usize = args.get("points", if smoke { 6_000 } else { 20_000 });
    let dims: usize = args.get("dims", 8);
    let n_micro: usize = args.get("n-micro", if smoke { 16 } else { 64 });
    let delta_every: usize = args.get("delta-every", (n_points / n_sites.max(1) / 2).max(1));
    let seed: u64 = args.get("seed", 42);
    let strict: bool = args.get("strict", 0u8) != 0;

    eprintln!(
        "distrib bench: {n_sites} sites, {n_points} points, {dims} dims, \
         {n_micro} micro/site, epoch every {delta_every}"
    );

    let points: Vec<_> = (1..=n_points as u64)
        .map(|t| point(t, dims, seed))
        .collect();

    // Single-node ground truth (budget scaled so each shard matches one
    // site's clusterer exactly).
    let reference = EngineBuilder::new(
        UMicroConfig::new(n_micro * n_sites, dims).expect("valid reference config"),
    )
    .shards(n_sites)
    .build()
    .expect("reference engine boots");
    for p in &points {
        reference.push(p.clone()).expect("reference ingest");
    }
    reference.flush();
    let mut expected: Vec<BTreeMap<u64, Ecf>> = vec![BTreeMap::new(); n_sites];
    for mc in reference.micro_clusters() {
        expected[shard_of_id(mc.id)].insert(mc.id & LOCAL_MASK, mc.ecf);
    }
    reference.shutdown();

    // The distributed run, over real sockets.
    let coord =
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).expect("coordinator binds");
    let addr = coord.addr().to_string();
    let mut sites: Vec<Site> = (0..n_sites)
        .map(|i| {
            let engine =
                EngineBuilder::new(UMicroConfig::new(n_micro, dims).expect("valid site config"))
                    .shards(1)
                    .build()
                    .expect("site engine boots");
            let mut cfg = SiteConfig::new(i as u64, &addr);
            cfg.delta_every = delta_every as u64;
            cfg.io_deadline = Duration::from_secs(30);
            Site::attach(engine, cfg).expect("site attaches")
        })
        .collect();
    for (k, p) in points.iter().enumerate() {
        sites[k % n_sites].push(p.clone()).expect("site ingest");
    }
    let mut delta_bytes = 0u64;
    let mut delta_frames = 0u64;
    for site in sites {
        let s = site.finish().expect("final sync");
        delta_bytes += s.bytes_sent;
        delta_frames += s.frames_sent;
    }

    let exact = (0..n_sites).all(|i| coord.site_clusters(i as u64) == expected[i]);
    let stats = coord.stats();
    coord.shutdown();

    // Recovery cost: the same half-stream kill, restarted once through
    // the WAL-replay path and once cold (full resync). Epochs here are
    // smaller than the per-site cluster budget, so a delta touches a
    // strict subset of the map and the full-resync reship actually costs
    // something — with coarse epochs every cluster changes every epoch
    // and the two paths would be indistinguishable.
    let recovery_delta_every = (n_micro / 4).max(1);
    let base = std::env::temp_dir()
        .join(format!("ustream-bench-coord-{}.snap", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let scenario = RecoveryScenario {
        points: &points,
        n_sites,
        n_micro,
        dims,
        delta_every: recovery_delta_every,
        expected: &expected,
        base: &base,
    };
    eprintln!("  recovery: replaying WAL after a coordinator kill...");
    let replay = recovery_run(&scenario, true);
    eprintln!("  recovery: cold restart (full-resync fallback)...");
    let resync = recovery_run(&scenario, false);

    let raw_bytes = raw_forwarding_bytes(&points, n_sites, delta_every);
    let ratio = delta_bytes as f64 / raw_bytes.max(1) as f64;
    let report = Report {
        bench: "distrib".to_string(),
        sites: n_sites,
        points: n_points,
        dims,
        n_micro_per_site: n_micro,
        delta_every,
        delta_bytes,
        delta_frames,
        raw_bytes,
        bytes_ratio: ratio,
        delta_bytes_per_point: delta_bytes as f64 / n_points as f64,
        raw_bytes_per_point: raw_bytes as f64 / n_points as f64,
        epochs_applied: stats.epochs_applied,
        duplicates_dropped: stats.duplicates_dropped,
        gaps_nacked: stats.gaps_nacked,
        frames_rejected: stats.frames_rejected,
        exact,
        recovery_replay_bytes: replay.phase2_bytes,
        recovery_resync_bytes: resync.phase2_bytes,
        recovery_ratio: replay.phase2_bytes as f64 / resync.phase2_bytes.max(1) as f64,
        recovery_replay_exact: replay.exact,
        recovery_resync_exact: resync.exact,
        wal_records_replayed: replay.wal_records_replayed,
    };

    eprintln!(
        "  delta shipping: {} bytes in {} frames ({:.1} B/point)",
        delta_bytes, delta_frames, report.delta_bytes_per_point
    );
    eprintln!(
        "  raw forwarding: {} bytes ({:.1} B/point)",
        raw_bytes, report.raw_bytes_per_point
    );
    eprintln!("  ratio: {:.2}% of raw, exact: {exact}", ratio * 100.0);
    eprintln!(
        "  recovery after kill: WAL replay {}B (exact: {}, {} records replayed) \
         vs full resync {}B (exact: {}) — {:.1}% of the fallback",
        replay.phase2_bytes,
        replay.exact,
        replay.wal_records_replayed,
        resync.phase2_bytes,
        resync.exact,
        report.recovery_ratio * 100.0,
    );

    let out = PathBuf::from("results/BENCH_distrib.json");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    std::fs::write(
        &out,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_distrib.json");
    eprintln!("wrote {}", out.display());

    let mut problems = Vec::new();
    if !exact {
        problems.push("coordinator state diverged from the single-node run".to_string());
    }
    if ratio > 0.10 {
        problems.push(format!(
            "delta shipping used {:.2}% of raw-forwarding bytes (gate: 10%)",
            ratio * 100.0
        ));
    }
    if !replay.exact {
        problems.push("WAL-replay recovery diverged from the single-node run".to_string());
    }
    if !resync.exact {
        problems.push("full-resync recovery diverged from the single-node run".to_string());
    }
    if replay.phase2_bytes >= resync.phase2_bytes {
        problems.push(format!(
            "WAL-replay recovery cost {}B, not below the {}B full-resync fallback",
            replay.phase2_bytes, resync.phase2_bytes
        ));
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("FAIL: {p}");
        }
        if strict {
            std::process::exit(1);
        }
    }
}
