//! Overload governance: the degradation ladder and watchdog knobs.
//!
//! Under sustained channel pressure the engine climbs a *degradation
//! ladder* rather than blocking producers indefinitely or dying by OOM:
//!
//! 1. [`LoadStage::Normal`] — every admitted point is clustered, merges run
//!    on the configured cadence.
//! 2. [`LoadStage::WidenMerge`] — cross-shard merges and snapshots run
//!    `widen_factor`× less often, trading horizon-query granularity for
//!    ingest throughput. No data is lost.
//! 3. [`LoadStage::Sample`] — uniform deterministic admission: exactly
//!    `keep_per_mille` of every 1000 admission ordinals are kept. Because
//!    shedding is uniform, the ECF statistics stay unbiased up to the
//!    known scale factor `1000 / keep_per_mille`; the engine records how
//!    many points were sampled out so callers can rescale counts if they
//!    need absolute magnitudes.
//! 4. [`LoadStage::Shed`] — admission control proper: new points are
//!    counted and dropped. The clustering model stops advancing but the
//!    engine survives to report, drain, and checkpoint.
//!
//! Pressure is the mean channel fill fraction across shards
//! (`Σ backlog / (shards × channel_capacity)`). The ladder steps up one
//! stage after `trip_polls` consecutive polls at or above `high_watermark`
//! and back down after `clear_polls` consecutive polls at or below
//! `low_watermark` — asymmetric hysteresis so a bursty producer doesn't
//! make the engine oscillate. Every transition is timestamped into the
//! [`EngineReport`](crate::EngineReport). [`Ladder::step`] is that rule
//! and [`LoadPolicy::keeps`] the sampling rule; the serving front-end's
//! per-tenant ladders call the same two functions.

use serde::{Deserialize, Serialize};

/// One rung of the degradation ladder; ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub enum LoadStage {
    /// Full fidelity: everything admitted is clustered on cadence.
    #[default]
    Normal,
    /// Merges/snapshots run `widen_factor`× less often.
    WidenMerge,
    /// Uniform admission of `keep_per_mille` records in every 1000.
    Sample,
    /// New points are counted and dropped.
    Shed,
}

impl LoadStage {
    /// Compact encoding for an atomic stage cell (the engine's governor and
    /// the serving front-end's per-tenant admission state both store stages
    /// this way).
    pub fn as_u8(self) -> u8 {
        match self {
            LoadStage::Normal => 0,
            LoadStage::WidenMerge => 1,
            LoadStage::Sample => 2,
            LoadStage::Shed => 3,
        }
    }

    /// Inverse of [`Self::as_u8`]; unknown values clamp to `Shed`.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => LoadStage::Normal,
            1 => LoadStage::WidenMerge,
            2 => LoadStage::Sample,
            _ => LoadStage::Shed,
        }
    }

    /// The next rung up (saturates at `Shed`).
    pub fn escalate(self) -> Self {
        match self {
            LoadStage::Normal => LoadStage::WidenMerge,
            LoadStage::WidenMerge => LoadStage::Sample,
            _ => LoadStage::Shed,
        }
    }

    /// The next rung down (saturates at `Normal`).
    pub fn relax(self) -> Self {
        match self {
            LoadStage::Shed => LoadStage::Sample,
            LoadStage::Sample => LoadStage::WidenMerge,
            _ => LoadStage::Normal,
        }
    }
}

impl std::fmt::Display for LoadStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LoadStage::Normal => "normal",
            LoadStage::WidenMerge => "widen-merge",
            LoadStage::Sample => "sample",
            LoadStage::Shed => "shed",
        };
        f.write_str(s)
    }
}

/// Configuration of the degradation ladder. Installing a policy (via
/// [`EngineBuilder::load_policy`](crate::EngineBuilder::load_policy))
/// starts the governor thread that polls channel pressure and walks the
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPolicy {
    /// Mean channel fill fraction at or above which polls count towards
    /// escalation (default 0.8).
    pub high_watermark: f64,
    /// Mean channel fill fraction at or below which polls count towards
    /// relaxation (default 0.3).
    pub low_watermark: f64,
    /// Consecutive polls at or above `high_watermark` before stepping up
    /// (default 3).
    pub trip_polls: u32,
    /// Consecutive polls at or below `low_watermark` before stepping down
    /// (default 5 — slower down than up, by design).
    pub clear_polls: u32,
    /// Merge/snapshot cadence multiplier in [`LoadStage::WidenMerge`] and
    /// above (default 4).
    pub widen_factor: u64,
    /// Admission rate in [`LoadStage::Sample`], per mille (default 500 =
    /// keep half).
    pub keep_per_mille: u64,
}

impl Default for LoadPolicy {
    fn default() -> Self {
        Self {
            high_watermark: 0.8,
            low_watermark: 0.3,
            trip_polls: 3,
            clear_polls: 5,
            widen_factor: 4,
            keep_per_mille: 500,
        }
    }
}

impl LoadPolicy {
    /// The first invalid field, if any. Both tiers call this: the engine
    /// (whose pressure is a fill fraction, so it also caps
    /// `high_watermark` at 1) and the serving front-end (whose pressure is
    /// a rate over a quota, which may exceed 1).
    pub fn problem(&self) -> Option<&'static str> {
        if self.high_watermark <= 0.0 || self.high_watermark.is_nan() {
            return Some("high_watermark must be positive");
        }
        if !(self.low_watermark >= 0.0 && self.low_watermark < self.high_watermark) {
            return Some("low_watermark must be in [0, high_watermark)");
        }
        if self.trip_polls == 0 || self.clear_polls == 0 {
            return Some("trip_polls and clear_polls must be positive");
        }
        if self.widen_factor == 0 {
            return Some("widen_factor must be >= 1");
        }
        if !(1..=1000).contains(&self.keep_per_mille) {
            return Some("keep_per_mille must be in [1, 1000]");
        }
        None
    }

    /// The sampling rule of [`LoadStage::Sample`]: admission ordinal `seq`
    /// is kept iff `seq mod 1000 < keep_per_mille`, so every 1000
    /// consecutive ordinals admit exactly `keep_per_mille` of them, and
    /// the drop is unbiased with respect to the record's content.
    pub fn keeps(&self, seq: u64) -> bool {
        seq % 1_000 < self.keep_per_mille
    }

    /// The merge/snapshot cadence at `stage`: `every`, stretched
    /// `widen_factor`× at [`LoadStage::WidenMerge`] and above.
    pub fn cadence(&self, every: u64, stage: LoadStage) -> u64 {
        if stage >= LoadStage::WidenMerge {
            every.saturating_mul(self.widen_factor)
        } else {
            every
        }
    }
}

/// The ladder's hysteresis: consecutive polls at or above
/// `high_watermark` (`above`) and at or below `low_watermark` (`below`).
/// The engine's governor and each serving tenant hold one and feed it one
/// pressure reading per poll.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ladder {
    above: u32,
    below: u32,
}

impl Ladder {
    /// Counts one poll at `pressure` and returns the stage to move to, if
    /// any: one rung up after `trip_polls` polls at or above the high
    /// watermark, one rung down after `clear_polls` polls at or below the
    /// low watermark. A poll strictly between the watermarks resets both
    /// counts.
    pub fn step(
        &mut self,
        stage: LoadStage,
        pressure: f64,
        policy: &LoadPolicy,
    ) -> Option<LoadStage> {
        if pressure >= policy.high_watermark {
            self.above += 1;
            self.below = 0;
        } else if pressure <= policy.low_watermark {
            self.below += 1;
            self.above = 0;
        } else {
            *self = Self::default();
        }
        if self.above >= policy.trip_polls && stage != LoadStage::Shed {
            self.above = 0;
            Some(stage.escalate())
        } else if self.below >= policy.clear_polls && stage != LoadStage::Normal {
            self.below = 0;
            Some(stage.relax())
        } else {
            None
        }
    }
}

/// One timestamped walk of the degradation ladder, kept in order in
/// [`EngineReport::load_transitions`](crate::EngineReport::load_transitions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadTransition {
    /// Milliseconds since the engine started.
    pub at_ms: u64,
    /// Stage before the transition.
    pub from: LoadStage,
    /// Stage after the transition.
    pub to: LoadStage,
    /// Mean channel fill fraction that drove the transition.
    pub pressure: f64,
}

/// Watchdog configuration: how long a shard may sit on a non-empty backlog
/// without progress before it is declared stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// A shard with backlog whose processed counter does not move for this
    /// long is stalled (default 500 ms).
    pub stall_deadline_ms: u64,
    /// Governor poll interval (default 20 ms).
    pub poll_ms: u64,
    /// When true (default), a stalled shard gets a *rescue consumer* — an
    /// extra worker thread attached to the same channel — so the backlog
    /// drains even while the original worker is wedged.
    pub respawn: bool,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            stall_deadline_ms: 500,
            poll_ms: 20,
            respawn: true,
        }
    }
}

/// Result of [`StreamEngine::shutdown_drain`](crate::StreamEngine::shutdown_drain).
#[derive(Debug, Clone)]
pub struct DrainOutcome {
    /// Whether the flush + final merge + final checkpoint all completed
    /// within the caller's deadline.
    pub deadline_met: bool,
    /// Wall-clock milliseconds the drain took.
    pub drain_millis: u64,
    /// The engine's final report after the drain.
    pub report: crate::EngineReport,
}

impl DrainOutcome {
    /// The drain as a typed result: `Ok(report)` when the deadline was
    /// met, [`UStreamError::DeadlineExceeded`](ustream_common::UStreamError::DeadlineExceeded)
    /// carrying the actual drain time otherwise. Lets callers that treat a
    /// late drain as an error (the serving front-end, CI smoke checks)
    /// propagate it with `?` instead of inspecting the `deadline_met` flag,
    /// and keeps the failure distinguishable from generic backpressure.
    pub fn into_result(self) -> Result<crate::EngineReport, ustream_common::UStreamError> {
        if self.deadline_met {
            Ok(self.report)
        } else {
            Err(ustream_common::UStreamError::DeadlineExceeded {
                waited_ms: self.drain_millis,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_orders_and_saturates() {
        assert!(LoadStage::Normal < LoadStage::WidenMerge);
        assert!(LoadStage::WidenMerge < LoadStage::Sample);
        assert!(LoadStage::Sample < LoadStage::Shed);
        assert_eq!(LoadStage::Shed.escalate(), LoadStage::Shed);
        assert_eq!(LoadStage::Normal.relax(), LoadStage::Normal);
        assert_eq!(
            LoadStage::Normal.escalate().escalate().escalate(),
            LoadStage::Shed
        );
        assert_eq!(LoadStage::Shed.relax().relax().relax(), LoadStage::Normal);
    }

    #[test]
    fn stage_u8_round_trip() {
        for stage in [
            LoadStage::Normal,
            LoadStage::WidenMerge,
            LoadStage::Sample,
            LoadStage::Shed,
        ] {
            assert_eq!(LoadStage::from_u8(stage.as_u8()), stage);
        }
        assert_eq!(LoadStage::from_u8(250), LoadStage::Shed);
    }

    #[test]
    fn policy_serde_round_trip() {
        let p = LoadPolicy {
            keep_per_mille: 250,
            ..LoadPolicy::default()
        };
        assert_eq!(p.problem(), None);
        let back = LoadPolicy::from_value(&p.to_value()).unwrap();
        assert_eq!(back, p);
        let w = WatchdogConfig::default();
        let back = WatchdogConfig::from_value(&w.to_value()).unwrap();
        assert_eq!(back, w);
        let stage = LoadStage::Sample;
        assert_eq!(LoadStage::from_value(&stage.to_value()).unwrap(), stage);
    }

    #[test]
    fn invalid_policies_name_their_field() {
        let d = LoadPolicy::default();
        for (p, needle) in [
            (
                LoadPolicy {
                    keep_per_mille: 0,
                    ..d
                },
                "keep_per_mille",
            ),
            (
                LoadPolicy {
                    keep_per_mille: 1_001,
                    ..d
                },
                "keep_per_mille",
            ),
            (
                LoadPolicy {
                    high_watermark: 0.0,
                    ..d
                },
                "high_watermark",
            ),
            (
                LoadPolicy {
                    high_watermark: f64::NAN,
                    ..d
                },
                "high_watermark",
            ),
            (
                LoadPolicy {
                    low_watermark: -0.1,
                    ..d
                },
                "low_watermark",
            ),
            (
                LoadPolicy {
                    low_watermark: 0.8,
                    ..d
                },
                "low_watermark",
            ),
            (
                LoadPolicy {
                    low_watermark: f64::NAN,
                    ..d
                },
                "low_watermark",
            ),
            (LoadPolicy { trip_polls: 0, ..d }, "trip_polls"),
            (
                LoadPolicy {
                    clear_polls: 0,
                    ..d
                },
                "clear_polls",
            ),
            (
                LoadPolicy {
                    widen_factor: 0,
                    ..d
                },
                "widen_factor",
            ),
        ] {
            let msg = p.problem().unwrap_or_else(|| panic!("{p:?} accepted"));
            assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
        }
        // Serve's pressure is a rate over a quota and may exceed 1; only
        // the engine caps the high watermark at a full channel.
        let rate_policy = LoadPolicy {
            high_watermark: 1.5,
            ..d
        };
        assert_eq!(rate_policy.problem(), None);
    }

    /// The one hysteresis rule both tiers run, pinned at its boundaries.
    /// Each row feeds a pressure sequence from a start stage and lists
    /// the stage after every poll.
    #[test]
    fn ladder_steps_at_the_watermarks_inclusive() {
        let policy = LoadPolicy {
            high_watermark: 0.8,
            low_watermark: 0.0,
            trip_polls: 2,
            clear_polls: 3,
            ..LoadPolicy::default()
        };
        use LoadStage::{Normal as N, Sample as S, Shed as X, WidenMerge as W};
        let mid = 0.5;
        let rows: [(&str, LoadStage, &[f64], &[LoadStage]); 6] = [
            (
                "exactly high escalates after trip_polls",
                N,
                &[0.8, 0.8],
                &[N, W],
            ),
            (
                "exactly low (0) relaxes after clear_polls",
                X,
                &[0.0, 0.0, 0.0],
                &[X, X, S],
            ),
            (
                "a poll between resets the trip count",
                N,
                &[0.8, mid, 0.8, 0.8],
                &[N, N, N, W],
            ),
            (
                "a poll between resets the clear count",
                W,
                &[0.0, 0.0, mid, 0.0, 0.0, 0.0],
                &[W, W, W, W, W, N],
            ),
            ("saturates at Shed", S, &[1.0, 1.0, 1.0, 1.0], &[S, X, X, X]),
            ("saturates at Normal", N, &[0.0; 4], &[N, N, N, N]),
        ];
        for (name, start, pressures, expect) in rows {
            let mut ladder = Ladder::default();
            let mut stage = start;
            let mut got = Vec::new();
            for &p in pressures {
                if let Some(to) = ladder.step(stage, p, &policy) {
                    stage = to;
                }
                got.push(stage);
            }
            assert_eq!(got, expect, "{name}");
        }
    }

    #[test]
    fn keeps_admits_exactly_keep_of_every_thousand() {
        for keep in [1, 250, 500, 999, 1_000] {
            let policy = LoadPolicy {
                keep_per_mille: keep,
                ..LoadPolicy::default()
            };
            for window in [0u64, 1_000, 7_777] {
                let kept = (window..window + 1_000)
                    .filter(|&s| policy.keeps(s))
                    .count();
                assert_eq!(kept as u64, keep, "keep {keep} from ordinal {window}");
            }
        }
    }

    #[test]
    fn cadence_widens_from_widen_merge_up() {
        let p = LoadPolicy::default();
        assert_eq!(p.cadence(16, LoadStage::Normal), 16);
        for stage in [LoadStage::WidenMerge, LoadStage::Sample, LoadStage::Shed] {
            assert_eq!(p.cadence(16, stage), 16 * p.widen_factor);
        }
        assert_eq!(p.cadence(u64::MAX, LoadStage::Shed), u64::MAX);
    }
}
