//! Snapshot sharing is invisible: seeded streams through the engine hash
//! every stored snapshot, the horizon answers and the budget accounting
//! to constants committed before snapshots shared their ECFs, and a filed
//! snapshot never moves under later inserts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use umicro::{DecayedUMicro, Ecf, HorizonAnalyzer, UMicro, UMicroConfig};
use ustream_common::codec::Codec;
use ustream_common::UncertainPoint;
use ustream_engine::{checkpoint, EngineBuilder, SnapshotBudget, StreamEngine};
use ustream_snapshot::{ClusterSetSnapshot, PyramidConfig};

const RECORDS: u64 = 600;
const HORIZONS: [u64; 3] = [1, 16, 256];

/// FNV-1a over a byte stream, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Cluster ids and every moment's `to_bits()`, through the ECF's
    /// fixed binary layout.
    fn clusters<'a, E: Codec + 'a>(
        &mut self,
        clusters: impl IntoIterator<Item = (&'a u64, &'a E)>,
    ) {
        let mut buf = Vec::new();
        for (id, ecf) in clusters {
            self.u64(*id);
            buf.clear();
            ecf.encode(&mut buf);
            self.bytes(&buf);
        }
    }
}

/// xorshift64*: a stream generator with no dependency whose output could
/// change under this test.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let r = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (r >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Four drifting blobs; two records share each tick so duplicate-tick
/// snapshots replace their predecessor.
fn stream(seed: u64, dims: usize) -> Vec<UncertainPoint> {
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    (0..RECORDS)
        .map(|i| {
            let blob = (rng.unit() * 4.0) as usize;
            let drift = i as f64 / RECORDS as f64;
            let values = (0..dims)
                .map(|j| (blob * 10 + j) as f64 + 3.0 * drift + rng.unit() - 0.5)
                .collect();
            let errors = (0..dims).map(|_| 0.1 + rng.unit()).collect();
            UncertainPoint::new(values, errors, i / 2 + 1, None)
        })
        .collect()
}

fn scratch_path() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test-harness counter; each path is used by one thread
    std::env::temp_dir()
        .join(format!("ustream-sharing-{}-{n}.ckpt", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn hash_horizons(h: &mut Fnv, engine: &StreamEngine) {
    for horizon in HORIZONS {
        match engine.horizon_clusters(horizon) {
            Ok(window) => {
                h.u64(window.clusters.len() as u64);
                h.clusters(&window.clusters);
            }
            Err(_) => h.u64(u64::MAX),
        }
    }
}

/// Runs one seeded stream through an engine, one record at a time with a
/// flush after each so shard merges happen in a fixed order, and hashes
/// the horizon answers along the way, then every stored snapshot and the
/// budget accounting at the end.
fn run(decayed: bool, shards: usize, every: u64, dims: usize, budget: Option<u64>) -> u64 {
    let mut builder = EngineBuilder::new(UMicroConfig::new(12, dims).expect("valid config"))
        .shards(shards)
        .snapshot_every(every)
        .decay_half_life(decayed.then_some(40.0));
    if let Some(bytes) = budget {
        builder = builder.snapshot_budget(SnapshotBudget::by_bytes(bytes));
    }
    let engine = builder.build().expect("engine starts");
    let mut h = Fnv::new();
    for (i, p) in stream(dims as u64 * 31 + shards as u64, dims)
        .into_iter()
        .enumerate()
    {
        engine.push(p).expect("engine accepts records");
        engine.flush();
        if i % 97 == 96 {
            hash_horizons(&mut h, &engine);
        }
    }
    hash_horizons(&mut h, &engine);

    let path = scratch_path();
    engine.checkpoint(&path).expect("checkpoint written");
    let ckpt = checkpoint::read(&path).expect("checkpoint reads back");
    let _ = std::fs::remove_file(&path);
    h.u64(ckpt.snapshots.len() as u64);
    for entry in &ckpt.snapshots {
        h.u64(entry.time);
        h.u64(entry.clusters.clusters.len() as u64);
        h.clusters(&entry.clusters.clusters);
    }

    let report = engine.shutdown();
    h.u64(report.snapshot_budget_evictions);
    h.u64(report.snapshot_bytes);
    h.f64(report.horizon_error_bound);
    h.0
}

/// `(decayed, shards, snapshot_every, d)` → hash, computed before
/// snapshots shared their ECFs.
const EXPECTED: [(bool, usize, u64, usize, u64); 16] = [
    (false, 1, 1, 2, 0x44bd2b8670b57169),
    (false, 1, 1, 8, 0x0b1d4c32ae4df6fa),
    (false, 1, 7, 2, 0xc715f0c14c5dc3b5),
    (false, 1, 7, 8, 0xc5c2721534d50843),
    (false, 3, 1, 2, 0x0c318acca1f05480),
    (false, 3, 1, 8, 0x08cee350db9c5321),
    (false, 3, 7, 2, 0x6d74976a2f4289b3),
    (false, 3, 7, 8, 0xa90c6bc5a69778e8),
    (true, 1, 1, 2, 0x59e1804c7fdf1672),
    (true, 1, 1, 8, 0x74ed410b067245a2),
    (true, 1, 7, 2, 0x6fe245a729ed9867),
    (true, 1, 7, 8, 0xa819d4776d902009),
    (true, 3, 1, 2, 0xb585403bace7399e),
    (true, 3, 1, 8, 0x874f0a6758f621d6),
    (true, 3, 7, 2, 0x20e858c6f4bc8476),
    (true, 3, 7, 8, 0xa54390089a1e2a81),
];

#[test]
fn stored_snapshots_horizons_and_budgets_hash_to_the_unshared_constants() {
    let mut mismatches = Vec::new();
    for (decayed, shards, every, dims, expected) in EXPECTED {
        let unbudgeted = run(decayed, shards, every, dims, None);
        let budgeted = run(decayed, shards, every, dims, Some(20_000));
        let got = unbudgeted ^ budgeted.rotate_left(1);
        if got != expected {
            mismatches.push(format!(
                "({decayed}, {shards}, {every}, {dims}, {got:#018x}),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "hashes moved:\n{}",
        mismatches.join("\n")
    );
}

fn bits(snap: &ClusterSetSnapshot<Ecf>) -> BTreeMap<u64, Vec<u8>> {
    snap.clusters
        .iter()
        .map(|(id, ecf)| {
            let mut out = Vec::new();
            ecf.encode(&mut out);
            (*id, out)
        })
        .collect()
}

/// Clusters the two snapshots hold by the very same allocation.
fn shared_with(a: &ClusterSetSnapshot<Ecf>, b: &ClusterSetSnapshot<Ecf>) -> usize {
    a.clusters
        .iter()
        .filter(|(id, ecf)| {
            b.clusters
                .get(id)
                .is_some_and(|other| Arc::ptr_eq(ecf, other))
        })
        .count()
}

/// A filed snapshot never moves: later inserts copy the clusters they
/// touch instead of writing through the shared ECF.
#[test]
fn filed_snapshots_do_not_change_under_later_inserts() {
    let points = stream(7, 3);
    for decayed in [false, true] {
        let cfg = UMicroConfig::new(10, 3).unwrap();
        let mut plain = UMicro::new(cfg.clone());
        let mut decay = DecayedUMicro::with_half_life(cfg, 60.0);
        let mut hz = HorizonAnalyzer::new(PyramidConfig::new(2, 8).unwrap());
        let mut filed = BTreeMap::new();
        for (i, p) in points.iter().enumerate() {
            let t = i as u64 + 1;
            let snap = if decayed {
                decay.insert(p);
                decay.snapshot_at(t)
            } else {
                plain.insert(p);
                plain.snapshot_at(t)
            };
            if i % 25 == 0 {
                filed.insert(t, bits(&snap));
            }
            hz.record_snapshot(t, snap);
        }
        let mut checked = 0;
        for stored in hz.store().iter_chronological() {
            if let Some(copy) = filed.get(&stored.time) {
                assert_eq!(
                    &bits(&stored.data),
                    copy,
                    "decayed={decayed}: tick {} moved",
                    stored.time
                );
                checked += 1;
            }
        }
        assert!(checked >= 10, "only {checked} filed snapshots still stored");
    }
}

/// With a snapshot per record, consecutive snapshots share every cluster
/// but the one the record touched — in the clusterer and in the engine.
#[test]
fn consecutive_snapshots_share_all_but_the_touched_cluster() {
    let n = 16;
    let mut alg = UMicro::new(UMicroConfig::new(n, 2).unwrap());
    let centre =
        |k: usize| UncertainPoint::new(vec![k as f64 * 100.0, 0.0], vec![0.1, 0.1], 1, None);
    for k in 0..n {
        alg.insert(&centre(k));
    }
    let mut prev = alg.snapshot_at(1);
    for k in 0..3 * n {
        let outcome = alg.insert(&centre(k % n));
        assert!(!outcome.created);
        let next = alg.snapshot_at(1);
        assert_eq!(next.len(), n);
        assert_eq!(shared_with(&prev, &next), n - 1);
        let touched = &next.clusters[&outcome.cluster_id];
        assert!(!Arc::ptr_eq(touched, &prev.clusters[&outcome.cluster_id]));
        prev = next;
    }

    let engine = EngineBuilder::new(UMicroConfig::new(n, 2).unwrap())
        .shards(1)
        .snapshot_every(1)
        .novelty_factor(None)
        .build()
        .unwrap();
    for k in 0..n {
        engine.push(centre(k)).unwrap();
    }
    engine.flush();
    let mut prev = engine.live_clusters();
    for k in 0..n {
        engine.push(centre(k)).unwrap();
        engine.flush();
        let next = engine.live_clusters();
        assert_eq!(next.len(), n);
        assert_eq!(shared_with(&prev, &next), n - 1, "record {k}");
        prev = next;
    }
    engine.shutdown();
}

/// An evicted cluster's ECF lives exactly as long as the snapshots that
/// hold it, and is freed when the last of them leaves the pyramid.
#[test]
fn evicted_cluster_is_freed_with_its_last_snapshot() {
    let mut alg = UMicro::new(UMicroConfig::new(4, 2).unwrap());
    let mut hz = HorizonAnalyzer::new(PyramidConfig::new(2, 2).unwrap());
    // Every record lands far from every cluster: a new cluster each tick,
    // the least recently updated one evicted.
    let far = |t: u64| UncertainPoint::new(vec![t as f64 * 1e3, 0.0], vec![0.1, 0.1], t, None);
    alg.insert(&far(1));
    hz.record(1, &mut alg);
    let first = hz.clusters_at(1).unwrap();
    let (id, ecf) = first.clusters.iter().next().unwrap();
    let (id, tracked): (u64, Weak<Ecf>) = (*id, Arc::downgrade(ecf));
    let mut freed_at = None;
    for t in 2..=200u64 {
        alg.insert(&far(t));
        hz.record(t, &mut alg);
        if alg.micro_clusters().iter().any(|c| c.id == id) {
            continue;
        }
        let holders = hz
            .store()
            .iter_chronological()
            .filter(|s| {
                s.data
                    .clusters
                    .get(&id)
                    .is_some_and(|e| std::ptr::eq(Arc::as_ptr(e), tracked.as_ptr()))
            })
            .count();
        assert_eq!(tracked.strong_count(), holders, "tick {t}");
        if holders == 0 {
            freed_at = Some(t);
            break;
        }
    }
    let t = freed_at.expect("the pyramid must let go of the evicted cluster");
    assert!(t > 5, "freed at {t}, while snapshots still held it");
    assert!(tracked.upgrade().is_none());
}

/// Reading the live clusters captures nothing: a changed cluster comes
/// back as a copy only the caller holds, every read makes its own, and
/// the next snapshot still copies it once.
#[test]
fn reading_live_clusters_captures_nothing() {
    let n = 8;
    let mut alg = UMicro::new(UMicroConfig::new(n, 2).unwrap());
    let centre =
        |k: usize| UncertainPoint::new(vec![k as f64 * 100.0, 0.0], vec![0.1, 0.1], 1, None);
    for k in 0..n {
        alg.insert(&centre(k));
    }
    let filed = alg.snapshot_at(1);
    let touched = alg.insert(&centre(3)).cluster_id;
    let first = alg.live_clusters();
    let second = alg.live_clusters();
    assert_eq!(shared_with(&filed, &first), n - 1);
    assert_eq!(shared_with(&first, &second), n - 1);
    assert_eq!(Arc::strong_count(&first.clusters[&touched]), 1);
    let next = alg.snapshot_at(1);
    assert_eq!(shared_with(&filed, &next), n - 1);
    assert!(!Arc::ptr_eq(
        &next.clusters[&touched],
        &first.clusters[&touched]
    ));
    assert_eq!(next.clusters[&touched], first.clusters[&touched]);
    assert_eq!(shared_with(&next, &alg.live_clusters()), n);
}

/// The clusterer never keeps a copy alive by itself: once every snapshot
/// holding a cluster's copy is dropped, the copy is freed, and the next
/// snapshot makes a new one.
#[test]
fn dropped_snapshots_leave_no_copy_behind() {
    let mut alg = UMicro::new(UMicroConfig::new(4, 2).unwrap());
    for k in 0..4u32 {
        let p = UncertainPoint::new(vec![f64::from(k) * 100.0, 0.0], vec![0.1, 0.1], 1, None);
        alg.insert(&p);
    }
    let snap = alg.snapshot_at(1);
    let copies: Vec<Weak<Ecf>> = snap.clusters.values().map(Arc::downgrade).collect();
    let kept = alg.snapshot_at(1);
    assert_eq!(shared_with(&snap, &kept), 4);
    drop(snap);
    assert!(copies.iter().all(|w| w.strong_count() == 1));
    drop(kept);
    assert!(copies.iter().all(|w| w.upgrade().is_none()));
    let next = alg.snapshot_at(1);
    assert_eq!(next.len(), 4);
    assert!(next.clusters.values().all(|e| Arc::strong_count(e) == 1));
}
