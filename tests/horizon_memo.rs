//! The engine's horizon memo is invisible: random interleavings of
//! `push`, `push_slice`, `flush` and the three horizon queries, with and
//! without a snapshot budget, answer exactly what a recomputation from the
//! stored snapshots answers, whether a query hits the memo or not.

use proptest::prelude::*;
use umicro::macrocluster::macro_cluster_ecfs;
use umicro::{compare_windows, Ecf, UMicroConfig};
use ustream_common::codec::Codec;
use ustream_common::UncertainPoint;
use ustream_engine::checkpoint::{self, SnapshotEntry};
use ustream_engine::{EngineBuilder, SnapshotBudget, StreamEngine};
use ustream_snapshot::ClusterSetSnapshot;

const HORIZONS: [u64; 4] = [1, 8, 30, 200];

#[derive(Debug, Clone)]
enum Op {
    Push(usize),
    Slice(usize),
    Flush,
    Horizon(u64),
    Macro(u64),
    Evolution(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..6, 0usize..40).prop_map(|(kind, n)| {
        let h = HORIZONS[n % HORIZONS.len()];
        match kind {
            0 => Op::Push(1 + n % 12),
            1 => Op::Slice(1 + n),
            2 => Op::Flush,
            3 => Op::Horizon(h),
            4 => Op::Macro(h),
            _ => Op::Evolution(h),
        }
    })
}

fn point(t: u64) -> UncertainPoint {
    let x = (t * 7 % 5) as f64 * 4.0;
    let y = (t * 3 % 4) as f64;
    UncertainPoint::new(vec![x, y], vec![0.2, 0.1 + (t % 3) as f64 * 0.1], t, None)
}

fn bits(snap: &ClusterSetSnapshot<Ecf>) -> Vec<(u64, Vec<u8>)> {
    snap.clusters
        .iter()
        .map(|(id, ecf)| {
            let mut out = Vec::new();
            ecf.encode(&mut out);
            (*id, out)
        })
        .collect()
}

/// The stored snapshots, read back through a checkpoint.
fn stored(engine: &StreamEngine, case: u64) -> Vec<SnapshotEntry> {
    let path = std::env::temp_dir()
        .join(format!("ustream-memo-{}-{case}.ckpt", std::process::id()))
        .to_string_lossy()
        .into_owned();
    engine.checkpoint(&path).expect("checkpoint written");
    let ckpt = checkpoint::read(&path).expect("checkpoint reads back");
    let _ = std::fs::remove_file(&path);
    ckpt.snapshots
}

/// The newest stored snapshot at or before `t`.
fn at_or_before(entries: &[SnapshotEntry], t: u64) -> Option<&SnapshotEntry> {
    entries.iter().rev().find(|e| e.time <= t)
}

/// The window of `h` ticks ending at the newest stored snapshot.
fn window(entries: &[SnapshotEntry], h: u64) -> Option<ClusterSetSnapshot<Ecf>> {
    let newest = entries.last()?;
    let base = at_or_before(entries, newest.time.saturating_sub(h))?;
    Some(newest.clusters.subtract_past(&base.clusters))
}

fn run(ops: &[Op], shards: usize, every: u64, budget: bool, case: u64) {
    let mut builder = EngineBuilder::new(UMicroConfig::new(12, 2).expect("valid config"))
        .shards(shards)
        .snapshot_every(every)
        .novelty_factor(None);
    if budget {
        builder = builder.snapshot_budget(SnapshotBudget::by_bytes(3_000));
    }
    let engine = builder.build().expect("engine starts");
    let mut tick = 0u64;
    let mut next = |n: usize| -> Vec<UncertainPoint> {
        (0..n)
            .map(|_| {
                tick += 1;
                point(tick)
            })
            .collect()
    };
    for op in ops {
        // Queries run on a quiescent engine, so the store they answer from
        // is the one the checkpoint reads back.
        if matches!(op, Op::Horizon(_) | Op::Macro(_) | Op::Evolution(_)) {
            engine.flush();
        }
        match *op {
            Op::Push(n) => {
                for p in next(n) {
                    engine.push(p).expect("engine accepts records");
                }
            }
            Op::Slice(n) => engine.push_slice(&next(n)).expect("engine accepts records"),
            Op::Flush => engine.flush(),
            Op::Horizon(h) => {
                let first = engine.horizon_clusters(h);
                let again = engine.horizon_clusters(h);
                let want = window(&stored(&engine, case), h);
                for got in [first, again] {
                    match (&got, &want) {
                        (Ok(got), Some(want)) => assert_eq!(bits(got), bits(want), "h {h}"),
                        (Err(_), None) => {}
                        _ => panic!("h {h}: engine {got:?}, recomputed {want:?}"),
                    }
                }
            }
            Op::Macro(h) => {
                let got = engine.horizon_macro_clusters(h, 3, 11);
                let want = window(&stored(&engine, case), h).map(|w| {
                    macro_cluster_ecfs(w.clusters.iter().map(|(id, e)| (*id, &**e)), 3, 11)
                });
                assert_eq!(
                    format!("{:?}", got.ok()),
                    format!("{want:?}"),
                    "macro h {h}"
                );
            }
            Op::Evolution(h) => {
                let got = engine.evolution(h, 0.5);
                let entries = stored(&engine, case);
                let want = window(&entries, h).and_then(|recent| {
                    let newest = entries.last()?.time;
                    let earlier = at_or_before(&entries, newest.saturating_sub(h))?;
                    let earlier = match at_or_before(&entries, earlier.time.saturating_sub(h)) {
                        Some(base) => earlier.clusters.subtract_past(&base.clusters),
                        None => earlier.clusters.clone(),
                    };
                    Some(compare_windows(&earlier, &recent, 0.5))
                });
                assert_eq!(
                    format!("{:?}", got.ok()),
                    format!("{want:?}"),
                    "evolution h {h}"
                );
            }
        }
    }
    engine.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoised_answers_equal_a_recomputation_from_the_stored_snapshots(
        ops in proptest::collection::vec(arb_op(), 1..28),
        shards in 1usize..4,
        every in 0usize..3,
        budget in 0u8..2,
        case in 0u64..u64::MAX,
    ) {
        run(&ops, shards, [1, 3, 8][every], budget == 1, case);
    }
}
