//! Coordinator durability without fault injection: WAL + snapshot
//! recovery over real sockets, clean-shutdown round trips, the
//! corrupt-generation fallback, and a torn-WAL property test — all on the
//! tier-1 path (no `failpoints` feature), because recovery must be exact
//! even when nothing hostile is happening.

use std::collections::BTreeMap;
use std::time::Duration;
use umicro::{Ecf, UMicroConfig};
use ustream_common::backoff::splitmix64;
use ustream_common::codec::{decode_exact, Codec};
use ustream_common::{UStreamError, UncertainPoint};
use ustream_distrib::protocol::{decode_coord_response, encode_site_request};
use ustream_distrib::{
    wal, CoordResponse, Coordinator, CoordinatorConfig, DeltaFrame, DurabilityPolicy, RetryPolicy,
    Site, SiteConfig, SiteRequest, Transport, Wal,
};
use ustream_engine::{EngineBuilder, StreamEngine};
use ustream_snapshot::{shard_of_id, SHARD_ID_BITS};

const LOCAL_MASK: u64 = (1u64 << SHARD_ID_BITS) - 1;

fn point(t: u64, dims: usize, seed: u64) -> UncertainPoint {
    let values = (0..dims)
        .map(|d| {
            let r = splitmix64(seed ^ t.wrapping_mul(0x9e37_79b9) ^ ((d as u64) << 32));
            let centre = ((r >> 8) % 4) as f64 * 10.0;
            let noise = (r & 0xffff) as f64 / 65_536.0 - 0.5;
            centre + noise
        })
        .collect();
    UncertainPoint::new(values, vec![0.3; dims], t, None)
}

fn site_engine(n_micro: usize, dims: usize) -> StreamEngine {
    EngineBuilder::new(UMicroConfig::new(n_micro, dims).expect("valid site config"))
        .shards(1)
        .build()
        .expect("site engine boots")
}

fn reference_maps(
    points: &[UncertainPoint],
    n_sites: usize,
    n_micro: usize,
    dims: usize,
) -> Vec<BTreeMap<u64, Ecf>> {
    let engine = EngineBuilder::new(
        UMicroConfig::new(n_micro * n_sites, dims).expect("valid reference config"),
    )
    .shards(n_sites)
    .build()
    .expect("reference engine boots");
    for p in points {
        engine.push(p.clone()).expect("reference ingest");
    }
    engine.flush();
    let mut maps = vec![BTreeMap::new(); n_sites];
    for mc in engine.micro_clusters() {
        maps[shard_of_id(mc.id)].insert(mc.id & LOCAL_MASK, mc.ecf);
    }
    engine.shutdown();
    maps
}

fn fast_cfg(site: u64, addr: &str, delta_every: u64) -> SiteConfig {
    let mut cfg = SiteConfig::new(site, addr);
    cfg.delta_every = delta_every;
    cfg.io_deadline = Duration::from_millis(400);
    cfg.retry = RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 2,
        max_backoff_ms: 40,
        seed: 0xd0_1ab1e,
    };
    cfg
}

fn temp_base(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("ustream-coord-{tag}-{}.snap", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn cleanup_base(base: &str) {
    for suffix in ["manifest", "0", "1", "2", "3", "tmp", "wal"] {
        let _ = std::fs::remove_file(format!("{base}.{suffix}"));
    }
}

fn durable_cfg(base: &str, snapshot_every_epochs: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        durability: Some(DurabilityPolicy {
            base: base.to_string(),
            generations: 3,
            snapshot_every_epochs,
        }),
        ..CoordinatorConfig::default()
    }
}

fn assert_exact(coord: &Coordinator, reference: &[BTreeMap<u64, Ecf>]) {
    for (i, expected) in reference.iter().enumerate() {
        let got = coord.site_clusters(i as u64);
        assert_eq!(&got, expected, "site {i} diverged from shard {i}");
    }
}

/// The headline recovery property: kill the coordinator mid-run, resume
/// on a fresh port, fail the sites over — the run finishes bit-for-bit
/// equal to the single-node reference, with zero nacked gaps and zero
/// full resyncs, because snapshot ∪ WAL covered every acked epoch.
#[test]
fn kill_and_resume_recovers_without_full_resyncs() {
    let (n_sites, n_micro, dims) = (2usize, 6usize, 2usize);
    let points: Vec<_> = (1..=300u64).map(|t| point(t, dims, 91)).collect();
    let reference = reference_maps(&points, n_sites, n_micro, dims);
    let base = temp_base("kill-resume");
    cleanup_base(&base);

    let coord = Coordinator::bind("127.0.0.1:0", durable_cfg(&base, 4)).unwrap();
    let addr = coord.addr().to_string();
    let mut sites: Vec<Site> = (0..n_sites)
        .map(|i| Site::attach(site_engine(n_micro, dims), fast_cfg(i as u64, &addr, 20)).unwrap())
        .collect();

    let half = points.len() / 2;
    for (k, p) in points.iter().take(half).enumerate() {
        sites[k % n_sites].push(p.clone()).unwrap();
    }
    // Flush the dirty tails so every site is fully acked at the kill.
    for site in sites.iter_mut() {
        site.sync().unwrap();
    }

    let pre = coord.stats();
    assert!(pre.epochs_applied > 0, "epochs must land before the kill");
    assert!(
        pre.snapshots_written > 0,
        "the snapshot cadence must have fired"
    );
    coord.kill();

    // Resume on a NEW ephemeral port: the dead listener's port may sit in
    // TIME_WAIT, and failover is the supported path anyway.
    let coord = Coordinator::resume("127.0.0.1:0", durable_cfg(&base, 4)).unwrap();
    let addr2 = coord.addr().to_string();
    assert_ne!(addr, addr2, "ephemeral rebind must pick a fresh port");

    let stats = coord.stats();
    let rec = stats.recovery.clone().expect("resume must report recovery");
    assert_eq!(
        rec.snapshot_epochs + rec.wal_records_replayed,
        pre.epochs_applied,
        "snapshot ∪ WAL must cover exactly the epochs applied before the kill"
    );
    assert_eq!(rec.corrupt_generations_skipped, 0);
    assert!(!rec.wal_truncated, "clean kill leaves no torn tail");
    assert_eq!(
        stats.epochs_applied, pre.epochs_applied,
        "recovered epoch counter must match"
    );

    for site in sites.iter_mut() {
        site.repoint(&addr2).unwrap();
    }
    for (k, p) in points.iter().enumerate().skip(half) {
        sites[k % n_sites].push(p.clone()).unwrap();
    }
    let final_stats: Vec<_> = sites.into_iter().map(|s| s.finish().unwrap()).collect();

    assert_exact(&coord, &reference);
    let stats = coord.stats();
    assert_eq!(stats.total_points, points.len() as u64);
    assert_eq!(stats.gaps_nacked, 0, "recovery must leave no gaps to nack");
    for (i, st) in final_stats.iter().enumerate() {
        assert_eq!(
            st.full_resyncs, 0,
            "site {i} must ship a bounded delta tail, not a full resync"
        );
    }
    coord.shutdown();
    cleanup_base(&base);
}

/// A clean shutdown writes a final snapshot and truncates the WAL, so the
/// follow-up resume replays nothing and reproduces the merged view
/// bit-for-bit.
#[test]
fn clean_shutdown_then_resume_replays_nothing() {
    let (n_sites, n_micro, dims) = (2usize, 5usize, 2usize);
    let points: Vec<_> = (1..=160u64).map(|t| point(t, dims, 47)).collect();
    let base = temp_base("clean-shutdown");
    cleanup_base(&base);

    let coord = Coordinator::bind("127.0.0.1:0", durable_cfg(&base, 1000)).unwrap();
    let addr = coord.addr().to_string();
    let mut sites: Vec<Site> = (0..n_sites)
        .map(|i| Site::attach(site_engine(n_micro, dims), fast_cfg(i as u64, &addr, 16)).unwrap())
        .collect();
    for (k, p) in points.iter().enumerate() {
        sites[k % n_sites].push(p.clone()).unwrap();
    }
    for site in sites {
        site.finish().unwrap();
    }

    let before = coord.global_clusters();
    let pre = coord.stats();
    assert!(
        pre.wal_records > 0,
        "with a lazy snapshot cadence the WAL must hold the epochs"
    );
    coord.shutdown(); // writes the final generation, truncates the WAL

    let coord = Coordinator::resume("127.0.0.1:0", durable_cfg(&base, 1000)).unwrap();
    let stats = coord.stats();
    let rec = stats.recovery.clone().unwrap();
    assert_eq!(
        rec.wal_records_replayed, 0,
        "a clean shutdown leaves an empty WAL"
    );
    assert_eq!(rec.snapshot_epochs, pre.epochs_applied);
    assert_eq!(coord.global_clusters(), before, "merged view must survive");
    assert_eq!(stats.total_points, pre.total_points);
    coord.shutdown();
    cleanup_base(&base);
}

/// When the newest snapshot generation is rotten, resume skips it,
/// *counts* it, recovers what the older generation + WAL still cover, and
/// the protocol's full-resync fallback converges the rest — degraded
/// cost, same exact answer.
#[test]
fn corrupt_newest_generation_falls_back_and_full_resync_converges() {
    let (n_sites, n_micro, dims) = (2usize, 5usize, 2usize);
    let points: Vec<_> = (1..=240u64).map(|t| point(t, dims, 63)).collect();
    let reference = reference_maps(&points, n_sites, n_micro, dims);
    let base = temp_base("rotten-gen");
    cleanup_base(&base);

    let coord = Coordinator::bind("127.0.0.1:0", durable_cfg(&base, 2)).unwrap();
    let addr = coord.addr().to_string();
    let mut sites: Vec<Site> = (0..n_sites)
        .map(|i| Site::attach(site_engine(n_micro, dims), fast_cfg(i as u64, &addr, 16)).unwrap())
        .collect();
    let half = points.len() / 2;
    for (k, p) in points.iter().take(half).enumerate() {
        sites[k % n_sites].push(p.clone()).unwrap();
    }
    for site in sites.iter_mut() {
        site.sync().unwrap();
    }
    let pre = coord.stats();
    assert!(pre.snapshots_written >= 2, "need at least two generations");
    coord.kill();

    // Rot the newest generation (first manifest line is `slot seq`,
    // newest first) by flipping its final payload byte.
    let manifest = std::fs::read_to_string(format!("{base}.manifest")).unwrap();
    let newest_slot = manifest
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().next())
        .unwrap()
        .to_string();
    let gen_path = format!("{base}.{newest_slot}");
    let mut bytes = std::fs::read(&gen_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&gen_path, bytes).unwrap();

    let coord = Coordinator::resume("127.0.0.1:0", durable_cfg(&base, 2)).unwrap();
    let addr2 = coord.addr().to_string();
    let rec = coord.stats().recovery.clone().unwrap();
    assert_eq!(
        rec.corrupt_generations_skipped, 1,
        "the rotten generation must be counted, not silently skipped"
    );

    for site in sites.iter_mut() {
        site.repoint(&addr2).unwrap();
    }
    for (k, p) in points.iter().enumerate().skip(half) {
        sites[k % n_sites].push(p.clone()).unwrap();
    }
    let final_stats: Vec<_> = sites.into_iter().map(|s| s.finish().unwrap()).collect();

    assert_exact(&coord, &reference);
    assert_eq!(coord.stats().total_points, points.len() as u64);
    assert!(
        final_stats.iter().any(|s| s.full_resyncs > 0),
        "losing the newest generation must engage the full-resync fallback"
    );
    coord.shutdown();
    cleanup_base(&base);
}

/// A failover attempt that dies mid-handshake must not eat the site's
/// delta state: the acked shadow map has to survive so a *later*
/// successful repoint still ships removals of clusters the coordinator
/// holds. The tiny `n_micro` forces constant eviction churn, so losing
/// the map would leave ghost clusters in the recovered view and break
/// the bit-for-bit assertion.
#[test]
fn failed_repoint_keeps_removals_flowing() {
    // Runaway geometric drift: every point lands far outside the
    // boundary of every retained cluster, so each insert mints a fresh
    // cluster id and LRU-evicts an old one — removals ship in every
    // epoch, which is exactly the traffic a lost shadow map can never
    // reproduce.
    fn churn_point(t: u64, dims: usize) -> UncertainPoint {
        let v = 1.5f64.powi(t as i32);
        UncertainPoint::new(vec![v; dims], vec![0.3; dims], t, None)
    }
    let (n_sites, n_micro, dims) = (2usize, 3usize, 2usize);
    let points: Vec<_> = (1..=300u64).map(|t| churn_point(t, dims)).collect();
    let reference = reference_maps(&points, n_sites, n_micro, dims);
    let base = temp_base("repoint-fail");
    cleanup_base(&base);

    let coord = Coordinator::bind("127.0.0.1:0", durable_cfg(&base, 4)).unwrap();
    let addr = coord.addr().to_string();
    let mut sites: Vec<Site> = (0..n_sites)
        .map(|i| Site::attach(site_engine(n_micro, dims), fast_cfg(i as u64, &addr, 20)).unwrap())
        .collect();

    let half = points.len() / 2;
    for (k, p) in points.iter().take(half).enumerate() {
        sites[k % n_sites].push(p.clone()).unwrap();
    }
    for site in sites.iter_mut() {
        site.sync().unwrap();
    }
    coord.kill();

    // Keep clustering through the outage: the churny engines evict
    // clusters the dead coordinator still holds acked, so the eventual
    // recovery *must* ship removals for them — exactly what an eaten
    // shadow map can never do.
    let two_thirds = 2 * points.len() / 3;
    for (k, p) in points.iter().enumerate().take(two_thirds).skip(half) {
        sites[k % n_sites].push(p.clone()).unwrap();
    }

    let coord = Coordinator::resume("127.0.0.1:0", durable_cfg(&base, 4)).unwrap();
    let addr2 = coord.addr().to_string();
    for site in sites.iter_mut() {
        // First failover attempt targets a dead port and exhausts its
        // retries; the site must come through with its shadow map intact.
        let err = site.repoint("127.0.0.1:1").unwrap_err();
        assert!(
            matches!(err, UStreamError::RetriesExhausted { .. }),
            "unexpected repoint failure: {err:?}"
        );
        site.repoint(&addr2).unwrap();
    }
    for (k, p) in points.iter().enumerate().skip(two_thirds) {
        sites[k % n_sites].push(p.clone()).unwrap();
    }
    let final_stats: Vec<_> = sites.into_iter().map(|s| s.finish().unwrap()).collect();

    assert_exact(&coord, &reference);
    assert_eq!(coord.stats().total_points, points.len() as u64);
    for (i, st) in final_stats.iter().enumerate() {
        assert_eq!(
            st.full_resyncs, 0,
            "site {i}: a failed repoint followed by an exact recovery must \
             not degrade into a full resync"
        );
    }
    coord.shutdown();
    cleanup_base(&base);
}

/// A fresh (non-resume) durable start may not destroy a predecessor's
/// un-snapshotted WAL tail: bind refuses until the operator resumes (or
/// moves the WAL aside). After a clean shutdown truncates the WAL, a
/// fresh bind is allowed again.
#[test]
fn bind_refuses_non_empty_wal_until_resumed() {
    let base = temp_base("bind-refuse");
    cleanup_base(&base);
    let wal_path = format!("{base}.wal");
    let mut w = Wal::create(&wal_path).unwrap();
    w.append(&DeltaFrame {
        site: 0,
        seq: 1,
        full: true,
        updates: BTreeMap::new(),
        removes: Vec::new(),
        points: 0,
        last_tick: 1,
    })
    .unwrap();
    drop(w);

    let err = match Coordinator::bind("127.0.0.1:0", durable_cfg(&base, 4)) {
        Err(e) => e,
        Ok(_) => panic!("bind over a non-empty WAL must refuse"),
    };
    assert!(
        matches!(err, UStreamError::InvalidConfig(_)),
        "unexpected bind failure: {err:?}"
    );
    let replayed = wal::replay(&wal_path).unwrap();
    assert_eq!(replayed.records, 1, "the refusal must not touch the WAL");

    let coord = Coordinator::resume("127.0.0.1:0", durable_cfg(&base, 4)).unwrap();
    let rec = coord.stats().recovery.clone().unwrap();
    assert_eq!(rec.wal_records_replayed, 1);
    coord.shutdown(); // final snapshot + WAL truncation

    let coord = Coordinator::bind("127.0.0.1:0", durable_cfg(&base, 4)).unwrap();
    coord.shutdown();
    cleanup_base(&base);
}

/// The wire carries ±∞ bit for bit, but the WAL is JSON and cannot: an
/// epoch whose ECF moment overflowed (a coordinate near 1e200 squares to
/// +∞) must be refused before the WAL append, never acked and then lost
/// as a torn record on replay. Every acked epoch around it survives a kill
/// and resume.
#[test]
fn non_finite_delta_is_refused_and_acked_epochs_survive_resume() {
    let base = temp_base("non-finite");
    cleanup_base(&base);
    let coord = Coordinator::bind("127.0.0.1:0", durable_cfg(&base, 1000)).unwrap();
    let max = 1 << 20;
    let mut link = Transport::new(&coord.addr().to_string(), 0, Duration::from_secs(2), max);
    let mut call = |req: SiteRequest| -> CoordResponse {
        link.send(&encode_site_request(&req, max).unwrap()).unwrap();
        decode_coord_response(&link.recv().unwrap().expect("a reply")).unwrap()
    };
    let ecf = |seq: u64| Ecf::from_point(&point(seq, 2, 5));
    let frame = |seq: u64, ecf: Ecf| DeltaFrame {
        site: 0,
        seq,
        full: seq == 1,
        updates: [(seq, ecf)].into_iter().collect(),
        removes: Vec::new(),
        points: seq,
        last_tick: seq,
    };
    // The first CF2 coordinate sits right after the u32 dimension count.
    let mut bytes = Vec::new();
    ecf(2).encode(&mut bytes);
    bytes[4..12].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
    let overflowed: Ecf = decode_exact(&bytes).unwrap();
    assert!(!overflowed.is_finite());

    let ack = |applied| CoordResponse::DeltaAck { site: 0, applied };
    assert_eq!(
        call(SiteRequest::Delta {
            frame: frame(1, ecf(1))
        }),
        ack(1)
    );
    let refused = call(SiteRequest::Delta {
        frame: frame(2, overflowed),
    });
    assert!(
        matches!(refused, CoordResponse::Error { .. }),
        "a non-finite epoch must not be acked: {refused:?}"
    );
    assert_eq!(
        call(SiteRequest::Delta {
            frame: frame(2, ecf(2))
        }),
        ack(2)
    );
    assert_eq!(
        call(SiteRequest::Delta {
            frame: frame(3, ecf(3))
        }),
        ack(3)
    );

    let pre = coord.stats();
    assert_eq!(pre.frames_rejected, 1);
    assert_eq!(
        pre.wal_records, 3,
        "the refused epoch never reached the WAL"
    );
    let held = coord.site_clusters(0);
    coord.kill();

    let coord = Coordinator::resume("127.0.0.1:0", durable_cfg(&base, 1000)).unwrap();
    let rec = coord.stats().recovery.clone().unwrap();
    assert_eq!(rec.wal_records_replayed, 3, "every acked epoch replays");
    assert!(!rec.wal_truncated, "nothing in the WAL may read as torn");
    assert_eq!(coord.site_clusters(0), held);
    coord.shutdown();
    cleanup_base(&base);
}

mod torn_wal_prop {
    use super::*;
    use proptest::prelude::*;

    fn tiny_ecf(x: f64, t: u64) -> Ecf {
        Ecf::from_point(&UncertainPoint::new(
            vec![x, -x],
            vec![0.2, 0.4],
            t.max(1),
            None,
        ))
    }

    /// Per-site contiguous epochs 1..=k, interleaved across sites the way
    /// the coordinator would have appended them.
    fn arb_frames() -> impl Strategy<Value = Vec<DeltaFrame>> {
        (1usize..4, 2usize..14, 0u64..1_000_000).prop_map(|(n_sites, epochs, seed)| {
            let mut frames = Vec::new();
            for seq in 1..=epochs as u64 {
                for site in 0..n_sites as u64 {
                    let r = splitmix64(seed ^ (seq << 8) ^ site);
                    let updates: BTreeMap<u64, Ecf> = (0..1 + (r % 3))
                        .map(|i| (i, tiny_ecf((r % 97) as f64 + i as f64, seq)))
                        .collect();
                    frames.push(DeltaFrame {
                        site,
                        seq,
                        full: seq == 1,
                        updates,
                        removes: if seq > 2 { vec![0] } else { Vec::new() },
                        points: seq * 7 + site,
                        last_tick: seq,
                    });
                }
            }
            frames
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For any WAL and any single corruption (truncation at a random
        /// byte, or one flipped bit), replay recovers exactly the records
        /// before the damage, physically truncates the file there, and a
        /// resume over that WAL applies each surviving epoch exactly once
        /// — never double-applied, never skipped.
        #[test]
        fn torn_wal_replays_the_exact_prefix_and_never_double_applies(
            frames in arb_frames(),
            cut_seed in 0usize..usize::MAX,
            flip in (0u8..2).prop_map(|b| b == 1),
        ) {
            let base = temp_base(&format!("torn-prop-{cut_seed}"));
            cleanup_base(&base);
            let wal_path = format!("{base}.wal");

            let mut w = Wal::create(&wal_path).unwrap();
            let mut ends = Vec::with_capacity(frames.len());
            for f in &frames {
                w.append(f).unwrap();
                ends.push(w.bytes() as usize);
            }
            let total = w.bytes() as usize;
            drop(w);

            // Corrupt at a random interior byte: everything at or past it
            // is unrecoverable, everything before it must survive.
            let cut = 1 + cut_seed % (total - 1);
            if flip {
                let mut bytes = std::fs::read(&wal_path).unwrap();
                bytes[cut] ^= 0x10;
                std::fs::write(&wal_path, bytes).unwrap();
            } else {
                let bytes = std::fs::read(&wal_path).unwrap();
                std::fs::write(&wal_path, &bytes[..cut]).unwrap();
            }
            let expect_survivors = ends.iter().filter(|e| **e <= cut).count();

            let replayed = wal::replay(&wal_path).unwrap();
            prop_assert_eq!(replayed.records as usize, expect_survivors);
            prop_assert_eq!(&replayed.frames[..], &frames[..expect_survivors]);
            prop_assert!(replayed.truncated || expect_survivors == frames.len());
            prop_assert_eq!(replayed.bytes as usize, ends.get(expect_survivors.wrapping_sub(1)).copied().unwrap_or(0));
            // The truncation is physical: a second replay is clean.
            let again = wal::replay(&wal_path).unwrap();
            prop_assert!(!again.truncated);
            prop_assert_eq!(again.records, replayed.records);

            // A resume over the truncated WAL (no snapshot) applies each
            // surviving epoch exactly once: per-site last_applied is the
            // max contiguous seq, and the epoch counter equals the record
            // count — a double-apply or a skip would break one of them.
            let coord = Coordinator::resume("127.0.0.1:0", durable_cfg(&base, 1_000_000)).unwrap();
            let stats = coord.stats();
            prop_assert_eq!(stats.epochs_applied, expect_survivors as u64);
            let mut per_site: BTreeMap<u64, u64> = BTreeMap::new();
            for f in &frames[..expect_survivors] {
                let e = per_site.entry(f.site).or_insert(0);
                prop_assert_eq!(f.seq, *e + 1, "test harness emitted a gap");
                *e = f.seq;
            }
            for h in &stats.sites {
                prop_assert_eq!(h.last_applied, per_site.get(&h.site).copied().unwrap_or(0));
            }
            coord.shutdown();
            cleanup_base(&base);
        }
    }
}
