//! Fault-injection suite: drives the engine through injected worker
//! panics, corrupted checkpoints, poisoned producers and stalled channels
//! via the `failpoints` feature:
//!
//! ```text
//! cargo test --features failpoints --test fault_injection
//! ```
//!
//! The failpoint registry is process-global, so every test here grabs one
//! shared lock — the suite is effectively serial.

#![cfg(feature = "failpoints")]

use std::sync::Mutex;
use std::time::{Duration, Instant};
use umicro::{UMicro, UMicroConfig};
use ustream_common::codec::Codec;
use ustream_common::{UStreamError, UncertainPoint};
use ustream_engine::{
    checkpoint, failpoints, BackpressurePolicy, DynClusterer, EngineBuilder, HealthStatus,
    LoadPolicy, StreamEngine, ValidationPolicy, WatchdogConfig,
};

static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn pt(x: f64, y: f64, t: u64) -> UncertainPoint {
    UncertainPoint::new(vec![x, y], vec![0.3, 0.3], t, None)
}

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("ustream-fi-{tag}-{}.ckpt", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn injected_worker_panic_degrades_without_losing_merged_clusters() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();

    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .snapshot_every(8)
        .build()
        .unwrap();
    for t in 1..=64u64 {
        e.push(pt((t % 2) as f64 * 10.0, 0.0, t)).unwrap();
    }
    e.flush();
    let clusters_before = e.micro_clusters();
    assert!(!clusters_before.is_empty());
    assert_eq!(e.stats().health, HealthStatus::Healthy);

    // The next record the worker dequeues makes it panic; the record is
    // consumed (the documented at-most-one loss).
    assert_eq!(failpoints::arm(failpoints::SHARD_WORKER_PANIC, 1), 0);
    e.push(pt(1.0, 1.0, 65)).unwrap();
    e.flush();

    // Before the next record: the respawned worker holds exactly its slice
    // of the store's newest snapshot (the merge at record 64), bit for bit.
    let path = temp_path("respawn-seed");
    e.checkpoint(&path).unwrap();
    let ckpt = checkpoint::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let newest = &ckpt
        .snapshots
        .last()
        .expect("merged before the panic")
        .clusters;
    let bits = |ecf: &umicro::Ecf| {
        let mut out = Vec::new();
        ecf.encode(&mut out);
        out
    };
    let respawned = e.micro_clusters();
    assert_eq!(respawned.len(), newest.len());
    for c in &respawned {
        assert_eq!(
            bits(&c.ecf),
            bits(&newest.clusters[&c.id]),
            "cluster {}",
            c.id
        );
    }

    for t in 66..=128u64 {
        e.push(pt((t % 2) as f64 * 10.0, 0.0, t)).unwrap();
    }
    e.flush(); // barrier only replies once the respawned worker drained

    let report = e.stats();
    assert_eq!(report.health, HealthStatus::Degraded);
    assert_eq!(report.per_shard[0].restarts, 1);
    assert!(report.per_shard[0].alive, "worker must have respawned");
    assert!(
        report.per_shard[0]
            .last_panic
            .as_deref()
            .unwrap_or("")
            .contains("injected shard worker panic"),
        "panic payload lost: {:?}",
        report.per_shard[0].last_panic
    );
    // Exactly the in-flight record was lost...
    assert_eq!(report.points_processed, 127);
    // ...and the merged cluster history survived: the reseeded worker kept
    // clustering into the same id space and queries still resolve.
    let clusters_after = e.micro_clusters();
    assert!(!clusters_after.is_empty());
    let total: f64 = clusters_after
        .iter()
        .map(|c| ustream_common::AdditiveFeature::count(&c.ecf))
        .sum();
    assert!(total > 0.0);
    assert!(e.horizon_clusters(32).is_ok());

    failpoints::reset_all();
    e.shutdown();
}

#[test]
fn corrupted_checkpoint_fails_restore_cleanly() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    let path = temp_path("corrupt");

    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .snapshot_every(16)
        .build()
        .unwrap();
    for t in 1..=128u64 {
        e.push(pt((t % 3) as f64, (t % 5) as f64, t)).unwrap();
    }
    e.flush();

    // The failpoint flips one payload byte *after* the header checksum is
    // computed: the file is structurally plausible but corrupt.
    assert_eq!(failpoints::arm(failpoints::CHECKPOINT_CORRUPT, 1), 0);
    e.checkpoint(&path).unwrap();

    match StreamEngine::restore(&path) {
        Err(UStreamError::Checkpoint(msg)) => {
            assert!(
                msg.contains("checksum") || msg.contains("payload"),
                "unhelpful corruption error: {msg}"
            );
        }
        Err(other) => panic!("corruption must map to Checkpoint, got {other:?}"),
        Ok(_) => panic!("restore of a corrupt checkpoint must fail"),
    }

    // A clean re-checkpoint of the same engine restores fine.
    e.checkpoint(&path).unwrap();
    let r = StreamEngine::restore(&path).unwrap();
    assert_eq!(r.points_processed(), e.points_processed());

    failpoints::reset_all();
    e.shutdown();
    r.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Every restore validates the configuration a checkpoint carries, through
/// the same launch the builder uses: an invalid one is an `InvalidConfig`
/// error, never a panic or a silently clamped knob.
#[test]
fn restore_refuses_an_invalid_checkpointed_config() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    let path = temp_path("invalid-config");

    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .snapshot_every(16)
        .build()
        .unwrap();
    for t in 1..=64u64 {
        e.push(pt((t % 3) as f64, (t % 5) as f64, t)).unwrap();
    }
    e.checkpoint(&path).unwrap();
    e.shutdown();
    let good = checkpoint::read(&path).unwrap();

    let mut zero_cadence = good.clone();
    zero_cadence.config.checkpoint_every = Some(0);
    zero_cadence.config.checkpoint_path = Some(path.clone());
    let mut bad_ladder = good;
    bad_ladder.config.load_policy = Some(LoadPolicy {
        keep_per_mille: 0,
        ..LoadPolicy::default()
    });
    for (ck, needle) in [
        (zero_cadence, "checkpoint cadence"),
        (bad_ladder, "keep_per_mille"),
    ] {
        checkpoint::write_atomic(&path, &ck).unwrap();
        let factory = |_shard: usize| -> DynClusterer {
            Box::new(UMicro::new(UMicroConfig::new(8, 2).unwrap()))
        };
        for (name, restored) in [
            ("restore", StreamEngine::restore(&path)),
            ("restore_latest", StreamEngine::restore_latest(&path)),
            ("restore_with", StreamEngine::restore_with(&path, factory)),
        ] {
            match restored {
                Err(UStreamError::InvalidConfig(msg)) => {
                    assert!(
                        msg.contains(needle),
                        "{name}: `{msg}` should mention `{needle}`"
                    );
                }
                Err(other) => panic!("{name}: expected InvalidConfig, got {other:?}"),
                Ok(_) => panic!("{name}: restored an engine from an invalid config"),
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_nan_is_quarantined_with_visible_counter() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();

    let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
        .validation(Some(ValidationPolicy::Quarantine))
        .build()
        .unwrap();
    // The producer thinks it pushes a clean record; the failpoint poisons
    // its first coordinate before validation sees it.
    assert_eq!(failpoints::arm(failpoints::INJECT_NAN, 1), 0);
    e.push(pt(1.0, 2.0, 1)).unwrap();
    e.push(pt(1.0, 2.0, 2)).unwrap();
    e.flush();

    let report = e.stats();
    assert_eq!(report.points_quarantined, 1);
    assert_eq!(report.points_processed, 1);
    let held = e.drain_quarantine();
    assert_eq!(held.len(), 1);
    assert!(held[0].point.values()[0].is_nan());
    assert!(
        held[0].fault.contains("non-finite"),
        "fault lost: {}",
        held[0].fault
    );

    failpoints::reset_all();
    e.shutdown();
}

#[test]
fn stalled_worker_with_drop_newest_sheds_load_instead_of_blocking() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();

    let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
        .backpressure(BackpressurePolicy::DropNewest)
        .snapshot_every(1_000)
        .channel_capacity(2)
        .build()
        .unwrap();

    // Every record costs the worker an extra 50 ms: the 2-slot channel
    // fills immediately and DropNewest sheds the rest without blocking the
    // producer.
    assert_eq!(failpoints::arm(failpoints::CHANNEL_STALL, 1_000), 0);
    for t in 1..=40u64 {
        e.push(pt(0.0, 0.0, t)).unwrap();
    }
    let report = e.stats();
    assert!(
        report.backpressure_dropped > 0,
        "expected drops under a stalled worker: {report:?}"
    );

    failpoints::disarm(failpoints::CHANNEL_STALL);
    e.flush();
    let report = e.shutdown();
    assert_eq!(
        report.points_processed + report.backpressure_dropped,
        40,
        "every record is either processed or counted as dropped"
    );
    failpoints::reset_all();
}

/// Spins until `cond` holds or `deadline` elapses; returns whether it held.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn watchdog_detects_wedged_worker_and_rescue_drains_backlog() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();

    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .snapshot_every(1_000)
        .watchdog(WatchdogConfig {
            stall_deadline_ms: 100,
            poll_ms: 10,
            respawn: true,
        })
        .build()
        .unwrap();

    // The first record the worker dequeues costs it a 2 s sleep — far past
    // the 100 ms stall deadline — while 200 more records pile up behind it.
    assert_eq!(failpoints::arm(failpoints::WORKER_HANG, 2_000), 0);
    for t in 1..=201u64 {
        e.push(pt((t % 4) as f64, 0.0, t)).unwrap();
    }

    // The watchdog must flag the stall well within the hang window...
    assert!(
        wait_until(Duration::from_secs(1), || e.stats().stalls_detected >= 1),
        "watchdog never flagged the wedged worker: {:?}",
        e.stats()
    );
    assert_eq!(e.stats().health, HealthStatus::Degraded);

    // ...and the rescue consumer drains the backlog while the original
    // worker is still asleep (2 s hang vs 200 records of ordinary work).
    assert!(
        wait_until(Duration::from_millis(1_500), || e.points_processed() >= 200),
        "rescue consumer never drained the backlog: processed {}",
        e.points_processed()
    );

    // Once the wedged worker wakes and finishes its record, nothing is lost.
    assert!(
        wait_until(Duration::from_secs(3), || e.points_processed() == 201),
        "hung record lost: processed {}",
        e.points_processed()
    );
    let report = e.shutdown();
    assert_eq!(report.points_processed, 201);
    assert!(report.stalls_detected >= 1);
    assert!(report.per_shard[0].stalls >= 1);
    failpoints::reset_all();
}

#[test]
fn restore_falls_back_to_oldest_surviving_generation() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    let base = temp_path("generations");

    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .snapshot_every(16)
        .auto_checkpoint(32, &base)
        .checkpoint_generations(3)
        .build()
        .unwrap();
    for t in 1..=96u64 {
        e.push(pt((t % 3) as f64 * 5.0, (t % 5) as f64, t)).unwrap();
    }
    e.flush();
    let report = e.shutdown();
    assert_eq!(report.checkpoints_written, 3, "epochs 1..=3 must rotate");

    // Generations land in slots seq % 3: epoch 1 → .1, 2 → .2, 3 → .0.
    // Corrupt every generation except the *oldest* (epoch 1 in slot 1).
    for slot in [0u64, 2] {
        let path = format!("{base}.{slot}");
        let mut bytes = std::fs::read(&path).expect("generation file exists");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }

    // Restore walks the manifest newest-first, rejects both corrupt
    // generations on their checksums, and lands on epoch 1.
    let r = StreamEngine::restore(&base).unwrap();
    assert_eq!(r.points_processed(), 32, "must restore the epoch-1 state");

    // The stream continues from the restored state.
    for t in 97..=160u64 {
        r.push(pt((t % 3) as f64 * 5.0, (t % 5) as f64, t)).unwrap();
    }
    r.flush();
    assert_eq!(r.points_processed(), 32 + 64);
    assert!(r.horizon_clusters(16).is_ok());
    r.shutdown();

    for suffix in ["0", "1", "2", "manifest"] {
        let _ = std::fs::remove_file(format!("{base}.{suffix}"));
    }
    failpoints::reset_all();
}

#[test]
fn restore_falls_back_when_newest_generation_is_truncated_mid_header() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    let base = temp_path("generations-truncated");

    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .snapshot_every(16)
        .auto_checkpoint(32, &base)
        .checkpoint_generations(3)
        .build()
        .unwrap();
    for t in 1..=96u64 {
        e.push(pt((t % 3) as f64 * 5.0, (t % 5) as f64, t)).unwrap();
    }
    e.flush();
    let report = e.shutdown();
    assert_eq!(report.checkpoints_written, 3, "epochs 1..=3 must rotate");

    // Epoch 3 landed in slot 0 (seq % 3). A crash mid-write can leave the
    // newest slot cut off *inside the ASCII header* — not just a bad
    // payload checksum, but a file too short to even parse. Truncate it to
    // 7 bytes, mid-magic.
    let newest = format!("{base}.0");
    let bytes = std::fs::read(&newest).expect("newest generation exists");
    assert!(bytes.len() > 7);
    std::fs::write(&newest, &bytes[..7]).unwrap();

    // Restore must reject the truncated header and fall back to the prior
    // generation (epoch 2, slot 2, 64 points) — not error out, not reset.
    let r = StreamEngine::restore(&base).unwrap();
    assert_eq!(
        r.points_processed(),
        64,
        "must fall back to the prior generation's epoch-2 state"
    );

    // The stream continues from the fallback state.
    for t in 97..=128u64 {
        r.push(pt((t % 3) as f64 * 5.0, (t % 5) as f64, t)).unwrap();
    }
    r.flush();
    assert_eq!(r.points_processed(), 64 + 32);
    assert!(r.horizon_clusters(16).is_ok());
    r.shutdown();

    for suffix in ["0", "1", "2", "manifest"] {
        let _ = std::fs::remove_file(format!("{base}.{suffix}"));
    }
    failpoints::reset_all();
}

#[test]
fn restore_with_every_generation_corrupt_is_a_clean_error() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    let base = temp_path("generations-all-bad");

    let e = EngineBuilder::new(UMicroConfig::new(4, 2).unwrap())
        .auto_checkpoint(16, &base)
        .checkpoint_generations(2)
        .build()
        .unwrap();
    for t in 1..=32u64 {
        e.push(pt(1.0, 1.0, t)).unwrap();
    }
    e.flush();
    e.shutdown();

    for slot in [0u64, 1] {
        let path = format!("{base}.{slot}");
        if let Ok(mut bytes) = std::fs::read(&path) {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    assert!(
        StreamEngine::restore(&base).is_err(),
        "all-corrupt generations must surface an error, not a silent reset"
    );

    for suffix in ["0", "1", "manifest"] {
        let _ = std::fs::remove_file(format!("{base}.{suffix}"));
    }
    failpoints::reset_all();
}

/// Bounded soak: repeated stall → watchdog rescue → recovery rounds under
/// sustained load. CI runs this under a hard `timeout`; each round is
/// sized so the whole test stays in the low seconds.
#[test]
fn soak_repeated_stalls_recover_without_losing_records() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();

    let e = EngineBuilder::new(UMicroConfig::new(8, 2).unwrap())
        .snapshot_every(500)
        .watchdog(WatchdogConfig {
            stall_deadline_ms: 50,
            poll_ms: 5,
            respawn: true,
        })
        .build()
        .unwrap();

    let mut pushed = 0u64;
    for round in 0..3u64 {
        // Wedge one consumer for 400 ms, then keep the stream coming.
        // `arm` is additive since the re-arm fix, so assert the previous
        // round's hang budget was fully consumed instead of silently
        // relying on the old overwrite to mask a leak.
        assert_eq!(
            failpoints::arm(failpoints::WORKER_HANG, 400),
            0,
            "round {round}: prior hang budget leaked into this round"
        );
        for i in 0..300u64 {
            let t = round * 301 + i + 1;
            e.push(pt((t % 4) as f64, -((t % 3) as f64), t)).unwrap();
            pushed += 1;
        }
        assert!(
            wait_until(Duration::from_secs(2), || {
                e.stats().stalls_detected > round
            }),
            "round {round}: stall never detected"
        );
        // Between rounds the engine must fully catch up: the backlog is
        // drained by the rescue consumer even while the worker sleeps.
        assert!(
            wait_until(Duration::from_secs(3), || e.points_processed() == pushed),
            "round {round}: lost records — processed {} of {pushed}",
            e.points_processed()
        );
    }

    let report = e.shutdown();
    assert_eq!(report.points_processed, pushed);
    assert!(report.stalls_detected >= 3);
    assert!(report.last_checkpoint_error.is_none());
    failpoints::reset_all();
}

/// Record `t` of the cut-accounting streams: three centres, and ψ² of the
/// second dimension equal to `t · 1e-8`, so a window's EF2 sum names the
/// ticks it holds without moving any record's cluster.
fn ticked(t: u64) -> UncertainPoint {
    let x = ((t / 2) % 3) as f64 * 10.0;
    UncertainPoint::new(vec![x, 0.0], vec![0.3, (t as f64 * 1e-8).sqrt()], t, None)
}

/// The window `(b, c]` of ticks a horizon answer over a [`ticked`] stream
/// holds: `n` records whose ticks sum to `n·b + n(n+1)/2`.
fn window_of(answer: &ustream_snapshot::ClusterSetSnapshot<umicro::Ecf>) -> (u64, u64) {
    let n = answer.total_count();
    let sum: f64 = answer.clusters.values().map(|e| e.ef2()[1]).sum::<f64>() / 1e-8;
    let b = (sum - n * (n + 1.0) / 2.0) / n;
    assert!(
        (b - b.round()).abs() < 1e-3,
        "no tick window: n {n}, sum {sum}"
    );
    (b.round() as u64, b.round() as u64 + n as u64)
}

/// One shard wedged for 500 ms stalls neither horizon readers nor the
/// other shard: answers keep coming within 50 ms, and each holds exactly
/// the records routed between two cuts. Once the shard wakes, every cut
/// it held up is filed.
#[test]
fn a_wedged_shard_stalls_no_reader_and_every_cut_files() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    const EVERY: u64 = 16;
    const N: u64 = 1_600;
    let e = std::sync::Arc::new(
        EngineBuilder::new(UMicroConfig::new(64, 2).unwrap())
            .shards(2)
            .snapshot_every(EVERY)
            .novelty_factor(None)
            .build()
            .unwrap(),
    );
    for t in 1..=320 {
        e.push(ticked(t)).unwrap();
    }
    e.flush();

    // Record 321 goes to shard 0, the only shard with work: it takes the
    // hang before clustering it.
    assert_eq!(failpoints::arm(failpoints::WORKER_HANG, 500), 0);
    e.push(ticked(321)).unwrap();
    assert!(wait_until(Duration::from_secs(1), || {
        failpoints::remaining(failpoints::WORKER_HANG) == 0
    }));
    let reader = {
        let e = std::sync::Arc::clone(&e);
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut answers = Vec::new();
            while started.elapsed() < Duration::from_millis(700) {
                for h in [16, 64, 200] {
                    let asked = Instant::now();
                    let answer = e.horizon_clusters(h);
                    answers.push((asked.elapsed(), answer));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            answers
        })
    };
    for t in 322..=N {
        e.push(ticked(t)).unwrap();
    }
    let answers = reader.join().unwrap();
    e.flush();

    assert!(answers.len() > 30, "{} answers", answers.len());
    for (took, answer) in &answers {
        assert!(
            *took < Duration::from_millis(50),
            "a reader waited {took:?}"
        );
        let (b, c) = window_of(answer.as_ref().expect("history to answer from"));
        assert!(
            b.is_multiple_of(EVERY) && c.is_multiple_of(EVERY),
            "window ({b}, {c}]"
        );
        assert!(c <= N);
    }
    let report = e.stats();
    assert_eq!(report.clusters_evicted, 0);
    assert_eq!(
        report.merges,
        N / EVERY,
        "every cut files once the shard wakes"
    );
    let (_, newest) = window_of(&e.horizon_clusters(64).unwrap());
    assert_eq!(newest, N);
    failpoints::reset_all();
}

/// A panic that consumes a command carrying cuts leaves none of them
/// owed: the respawned shard deposits each from its rebuilt clusterer, and
/// every later cut still files.
#[test]
fn a_panic_on_a_command_with_cuts_still_lets_every_cut_file() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    const EVERY: u64 = 4;
    let e = EngineBuilder::new(UMicroConfig::new(64, 2).unwrap())
        .shards(2)
        .snapshot_every(EVERY)
        .novelty_factor(None)
        .build()
        .unwrap();
    for t in 1..=64 {
        e.push(ticked(t)).unwrap();
    }
    e.flush();

    // One slice of 16: each shard's chunk of 8 carries the four cuts at
    // 68, 72, 76 and 80, and the first chunk a worker takes panics.
    assert_eq!(failpoints::arm(failpoints::SHARD_WORKER_PANIC, 1), 0);
    let slice: Vec<UncertainPoint> = (65..=80).map(ticked).collect();
    e.push_slice(&slice).unwrap();
    e.flush();
    assert_eq!(failpoints::remaining(failpoints::SHARD_WORKER_PANIC), 0);
    for t in 81..=128 {
        e.push(ticked(t)).unwrap();
    }
    e.flush();

    let report = e.stats();
    assert_eq!(report.per_shard.iter().map(|s| s.restarts).sum::<u64>(), 1);
    assert!(report.per_shard.iter().all(|s| s.alive));
    assert_eq!(
        report.points_processed,
        128 - 8,
        "the panicked chunk is lost"
    );
    assert_eq!(report.merges, 128 / EVERY, "no cut is left owed");

    let path = temp_path("panic-cuts");
    e.checkpoint(&path).unwrap();
    let ckpt = checkpoint::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut last = 0.0;
    for entry in &ckpt.snapshots {
        let weight = entry.clusters.total_count();
        let lost = if entry.time > 64 { 8.0 } else { 0.0 };
        assert!(weight <= entry.time as f64 && weight >= entry.time as f64 - lost);
        assert!(weight >= last, "weights fall at {}", entry.time);
        last = weight;
    }
    e.shutdown();
    failpoints::reset_all();
}

/// An auto-checkpoint a worker writes while a cut is still pending (the
/// other shard is wedged) holds only the cuts filed before it: the
/// restored engine drops the pending cut, as documented, and files its own
/// cuts from there. The wedged engine files every cut once it wakes, and
/// the committed checkpoint fixture restores into a working engine.
#[test]
fn a_checkpoint_taken_while_a_cut_is_pending_drops_it() {
    let _guard = FAILPOINT_LOCK.lock().unwrap();
    failpoints::reset_all();
    const EVERY: u64 = 8;
    let base = temp_path("pending-cut");
    let e = EngineBuilder::new(UMicroConfig::new(64, 2).unwrap())
        .shards(2)
        .snapshot_every(EVERY)
        .novelty_factor(None)
        .auto_checkpoint(24, &base)
        .checkpoint_generations(2)
        .build()
        .unwrap();
    for t in 1..=16 {
        e.push(ticked(t)).unwrap();
    }
    e.flush();
    assert_eq!(e.stats().checkpoints_written, 0);

    // Shard 0 wedges on record 17; shard 1 clusters 18, 20, …, 40 and
    // writes the checkpoint at its 8th record, after depositing cuts 24
    // and 32 that shard 0 has not reached.
    assert_eq!(failpoints::arm(failpoints::WORKER_HANG, 400), 0);
    e.push(ticked(17)).unwrap();
    assert!(wait_until(Duration::from_secs(1), || {
        failpoints::remaining(failpoints::WORKER_HANG) == 0
    }));
    for t in 18..=40 {
        e.push(ticked(t)).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(1), || e.stats().checkpoints_written
            == 1),
        "no checkpoint during the wedge"
    );
    e.flush();
    let report = e.stats();
    assert_eq!(
        report.merges,
        40 / EVERY,
        "the wedged engine files every cut"
    );
    assert_eq!(report.checkpoints_written, 1);

    let ckpt = checkpoint::read_latest(&base).unwrap();
    assert_eq!(ckpt.points_processed, 24);
    let times: Vec<u64> = ckpt.snapshots.iter().map(|s| s.time).collect();
    assert_eq!(times, vec![8, 16], "only the cuts filed before the capture");

    let restored = StreamEngine::restore_latest(&base).unwrap();
    assert_eq!(restored.points_processed(), 24);
    for t in 41..=96 {
        restored.push(ticked(t)).unwrap();
    }
    restored.flush();
    // Routing resumes at record 24: cuts at 32, 40, …, 80.
    assert_eq!(restored.stats().merges, ckpt.merges + 7);
    assert!(restored.horizon_clusters(16).is_ok());
    restored.shutdown();
    e.shutdown();
    for slot in 0..2 {
        let _ = std::fs::remove_file(checkpoint::generation_path(&base, slot));
    }
    let _ = std::fs::remove_file(checkpoint::manifest_path(&base));

    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/engine/tests/fixtures/engine_checkpoint_v1.ckpt"
    );
    let old = StreamEngine::restore(fixture).unwrap();
    let merges = old.stats().merges;
    let processed = old.points_processed();
    let last_tick = old.stats().last_tick;
    let every = checkpoint::read(fixture).unwrap().config.snapshot_every;
    for t in 1..=2 * every {
        old.push(pt((t % 2) as f64, 0.0, last_tick + t)).unwrap();
    }
    old.flush();
    assert_eq!(old.points_processed(), processed + 2 * every);
    assert!(old.stats().merges >= merges + 2);
    old.shutdown();
    failpoints::reset_all();
}
