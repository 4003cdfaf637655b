//! Overload-resilience integration suite: memory-governed snapshots under a
//! long run, quarantine accounting under producer/drainer races, and
//! backpressure conservation under multi-producer contention.
//!
//! Everything here runs without the `failpoints` feature — overload is
//! produced the honest way, by outrunning the consumers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use umicro::UMicroConfig;
use ustream_common::{UStreamError, UncertainPoint};
use ustream_engine::{BackpressurePolicy, EngineBuilder, SnapshotBudget, ValidationPolicy};

fn pt(x: f64, y: f64, t: u64) -> UncertainPoint {
    UncertainPoint::new(vec![x, y], vec![0.3, 0.3], t, None)
}

/// Tiny deterministic generator (splitmix64) so the stress shapes are
/// reproducible run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn coord(&mut self) -> f64 {
        (self.next() % 2_000) as f64 / 100.0 - 10.0
    }
}

#[test]
fn snapshot_budget_holds_through_a_million_records() {
    let budget = SnapshotBudget::by_snapshots(48);
    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .shards(2)
        .snapshot_every(64)
        .snapshot_budget(budget)
        .build()
        .unwrap();

    let mut rng = Rng(7);
    let batch = 1_000usize;
    let total = 1_000_000u64;
    let mut t = 0u64;
    let mut pushed = 0u64;
    while pushed < total {
        let points: Vec<UncertainPoint> = (0..batch)
            .map(|_| {
                t += 1;
                pt(rng.coord(), rng.coord(), t)
            })
            .collect();
        e.push_slice(&points).unwrap();
        pushed += batch as u64;
        if pushed.is_multiple_of(100_000) {
            e.flush();
            let stats = e.stats();
            assert!(
                stats.snapshots_retained <= 48,
                "budget breached at {pushed}: {} snapshots retained",
                stats.snapshots_retained
            );
            // Horizon queries keep answering while the budget evicts: one
            // snapshot cadence back is always resolvable (the store retains
            // far more than two snapshots, 64 ticks apart). Deeper horizons
            // may legitimately lose coverage to eviction — that loss is
            // what `horizon_error_bound` reports — so they are not
            // asserted here.
            assert!(e.horizon_clusters(64).is_ok());
        }
    }
    e.flush();

    let report = e.shutdown();
    assert_eq!(report.points_processed, total);
    assert!(report.snapshots_retained <= 48);
    assert!(
        report.snapshot_budget_evictions > 0,
        "a 1M-record run at cadence 64 must overflow a 48-snapshot budget"
    );
    // The engine reports the (possibly inflated) horizon-error bound the
    // eviction left in force; it must be a positive, finite factor.
    assert!(report.horizon_error_bound.is_finite());
    assert!(report.horizon_error_bound > 0.0);
    assert!(report.snapshot_bytes > 0);
}

#[test]
fn quarantine_counters_survive_concurrent_drain_under_full_ring() {
    let e = Arc::new(
        EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
            .shards(2)
            .validation(Some(ValidationPolicy::Quarantine))
            .quarantine_capacity(8) // tiny ring: constantly full
            .build()
            .unwrap(),
    );

    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 2_500;
    let done = Arc::new(AtomicBool::new(false));
    let drained_total = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let e = Arc::clone(&e);
                s.spawn(move || {
                    let mut rng = Rng(100 + p);
                    for i in 0..PER_PRODUCER {
                        let t = p * PER_PRODUCER + i + 1;
                        // Every third record arrives poisoned.
                        let x = if i % 3 == 0 { f64::NAN } else { rng.coord() };
                        e.push(pt(x, rng.coord(), t)).unwrap();
                    }
                })
            })
            .collect();
        // A drainer races the producers against the full ring.
        let e_drain = Arc::clone(&e);
        let done_flag = Arc::clone(&done);
        let drained = Arc::clone(&drained_total);
        let drainer = s.spawn(move || {
            while !done_flag.load(Ordering::Acquire) {
                let got = e_drain.drain_quarantine().len() as u64;
                drained.fetch_add(got, Ordering::Relaxed); // relaxed-ok: test-harness counter; thread::join supplies the final synchronisation
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        for h in producers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        drainer.join().unwrap();
    });

    e.flush();
    // Whatever the racing drainer missed comes out in the final drain.
    let final_drain = e.drain_quarantine().len() as u64;
    let drained = drained_total.load(Ordering::Relaxed) + final_drain; // relaxed-ok: test-harness read; join/assert ordering is established by the harness
    let report = e.shutdown();

    let faulty = PRODUCERS * PER_PRODUCER.div_ceil(3);
    let clean = PRODUCERS * PER_PRODUCER - faulty;
    assert_eq!(report.points_quarantined, faulty);
    assert_eq!(report.points_processed, clean);
    // The drift invariant: every quarantined point is either still counted
    // as ring-overflow or was handed to exactly one drain call.
    assert_eq!(
        report.points_quarantined,
        report.quarantine_dropped + drained,
        "counter drift: {} quarantined vs {} dropped + {} drained",
        report.points_quarantined,
        report.quarantine_dropped,
        drained
    );
}

#[test]
fn drop_newest_conserves_every_push_under_contention() {
    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .backpressure(BackpressurePolicy::DropNewest)
        .snapshot_every(100_000)
        .channel_capacity(2);
    let e = Arc::new(e.build().unwrap());

    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 2_500;
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let e = Arc::clone(&e);
            s.spawn(move || {
                let mut rng = Rng(200 + p);
                for i in 0..PER_PRODUCER {
                    let t = p * PER_PRODUCER + i + 1;
                    e.push(pt(rng.coord(), rng.coord(), t)).unwrap();
                }
            });
        }
    });

    e.flush();
    let report = e.shutdown();
    assert_eq!(
        report.points_processed + report.backpressure_dropped,
        PRODUCERS * PER_PRODUCER,
        "every push is either clustered or counted as dropped"
    );
    assert!(
        report.backpressure_dropped > 0,
        "8 producers against a 2-slot channel must shed"
    );
}

#[test]
fn error_policy_conserves_every_push_under_contention() {
    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .backpressure(BackpressurePolicy::Error)
        .snapshot_every(100_000)
        .channel_capacity(2);
    let e = Arc::new(e.build().unwrap());

    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 2_500;
    let rejected = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let e = Arc::clone(&e);
            let rejected = Arc::clone(&rejected);
            s.spawn(move || {
                let mut rng = Rng(300 + p);
                for i in 0..PER_PRODUCER {
                    let t = p * PER_PRODUCER + i + 1;
                    match e.push(pt(rng.coord(), rng.coord(), t)) {
                        Ok(()) => {}
                        Err(UStreamError::Backpressure) => {
                            rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test-harness counter; thread::join supplies the final synchronisation
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
    });

    e.flush();
    let report = e.shutdown();
    assert_eq!(
        report.points_processed + rejected.load(Ordering::Relaxed), // relaxed-ok: test-harness read; join/assert ordering is established by the harness
        PRODUCERS * PER_PRODUCER,
        "every push is either clustered or returned to the producer"
    );
}
