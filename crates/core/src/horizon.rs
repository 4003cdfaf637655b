//! Horizon-specific clustering over the pyramidal time frame (§II-D).
//!
//! Snapshots of the micro-cluster set are filed into a
//! [`SnapshotStore`] at pyramidally spaced ticks. A user asking for the
//! clusters of the window `(t_c − h, t_c]` gets them by *subtraction*: the
//! closest stored snapshot at or before `t_c − h` is subtracted, id by id,
//! from the snapshot at `t_c` (clusters evicted inside the window are
//! discarded; clusters created inside the window are retained whole). The
//! pyramid geometry guarantees the effective horizon `h'` satisfies
//! `h ≤ h' ≤ (1 + 1/α^{l−1})·h` while within retention.

use crate::algorithm::UMicro;
use crate::ecf::Ecf;
use crate::macrocluster::{macro_cluster_ecfs, MacroClustering};
use ustream_common::{Result, Timestamp};
use ustream_snapshot::{
    BudgetReport, ClusterSetSnapshot, HorizonTracker, PyramidConfig, SnapshotBudget, SnapshotStore,
};

/// Records UMicro snapshots and answers horizon queries (a thin UMicro-
/// flavoured wrapper over the feature-generic
/// [`ustream_snapshot::HorizonTracker`]).
#[derive(Debug, Clone)]
pub struct HorizonAnalyzer {
    tracker: HorizonTracker<Ecf>,
}

impl HorizonAnalyzer {
    /// An analyzer with the given pyramid geometry.
    pub fn new(config: PyramidConfig) -> Self {
        Self {
            tracker: HorizonTracker::new(config),
        }
    }

    /// An analyzer with the default geometry (α = 2, l = 4).
    pub fn with_defaults() -> Self {
        Self::new(PyramidConfig::default())
    }

    /// The underlying snapshot store (for persistence or inspection).
    pub fn store(&self) -> &SnapshotStore<ClusterSetSnapshot<Ecf>> {
        self.tracker.store()
    }

    /// Installs a memory budget on the snapshot store; see
    /// [`SnapshotBudget`]. Horizon queries keep answering under a budget,
    /// with the error bound inflation reported by [`Self::budget_report`].
    pub fn set_budget(&mut self, budget: SnapshotBudget) {
        self.tracker.set_budget(budget);
    }

    /// Budget accounting of the snapshot store (evictions, retained bytes,
    /// effective horizon-error bound).
    pub fn budget_report(&self) -> BudgetReport {
        self.tracker.budget_report()
    }

    /// Records the current state of `alg` as the snapshot for tick `now`.
    ///
    /// Call once per tick (or per snapshot interval); out-of-order calls are
    /// rejected in debug builds by the store's monotonicity assertion.
    pub fn record(&mut self, now: Timestamp, alg: &mut UMicro) {
        self.tracker.record_snapshot(now, alg.snapshot());
    }

    /// Records a pre-built snapshot (the decayed variant synchronises its
    /// statistics first and hands the result here).
    pub fn record_snapshot(&mut self, now: Timestamp, snap: ClusterSetSnapshot<Ecf>) {
        self.tracker.record_snapshot(now, snap);
    }

    /// Tick of the most recent recorded snapshot.
    pub fn last_recorded(&self) -> Timestamp {
        self.tracker.last_recorded()
    }

    /// The micro-cluster statistics of the window `(now − h, now]`.
    ///
    /// `now` is resolved to the most recent snapshot at or before it. The
    /// horizon base is the most recent snapshot at or before `now − h`; per
    /// the paper, if the horizon reaches past the oldest retained snapshot,
    /// an error is returned. If the resolved base *is* the stream origin
    /// (nothing recorded before it), the caller should use
    /// [`Self::clusters_at`] instead — the whole history is the window.
    pub fn horizon_clusters(&self, now: Timestamp, h: u64) -> Result<ClusterSetSnapshot<Ecf>> {
        self.tracker.horizon_clusters(now, h)
    }

    /// The most recently recorded snapshot. Budgets never evict it.
    pub fn newest(&self) -> Option<&ClusterSetSnapshot<Ecf>> {
        self.tracker.newest()
    }

    /// The full micro-cluster snapshot at (or just before) `t`.
    pub fn clusters_at(&self, t: Timestamp) -> Option<&ClusterSetSnapshot<Ecf>> {
        self.tracker.clusters_at(t)
    }

    /// Macro-clusters of the horizon window: subtraction followed by
    /// weighted k-means over the window's micro-clusters.
    pub fn macro_cluster_horizon(
        &self,
        now: Timestamp,
        h: u64,
        k: usize,
        seed: u64,
    ) -> Result<MacroClustering> {
        let window = self.horizon_clusters(now, h)?;
        Ok(macro_cluster_ecfs(
            window.clusters.iter().map(|(id, e)| (*id, &**e)),
            k,
            seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UMicroConfig;
    use ustream_common::{AdditiveFeature, UncertainPoint};

    fn pt(x: f64, t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(vec![x], vec![0.2], t, None)
    }

    /// Streams `n` points into a fresh UMicro, one per tick starting at
    /// `start`, recording a snapshot every tick; x jumps from 0 to 100 at
    /// `switch`.
    fn run_stream(n: u64, switch: u64) -> (UMicro, HorizonAnalyzer) {
        let mut alg = UMicro::new(UMicroConfig::new(8, 1).unwrap());
        let mut hz = HorizonAnalyzer::new(PyramidConfig::new(2, 6).unwrap());
        for t in 1..=n {
            let x = if t <= switch { 0.0 } else { 100.0 };
            alg.insert(&pt(x, t));
            hz.record(t, &mut alg);
        }
        (alg, hz)
    }

    #[test]
    fn window_counts_match_window_length() {
        let (_, hz) = run_stream(200, 1000);
        // Window (200-h, 200]: exactly h points for horizons with exact
        // snapshots; pyramid may return a slightly older base, never newer.
        for h in [4u64, 8, 16, 32, 64] {
            let window = hz.horizon_clusters(200, h).unwrap();
            let count = window.total_count();
            assert!(
                count >= h as f64 - 1e-9,
                "horizon {h}: window count {count} too small"
            );
            let bound = 1.0 + hz.store().config().horizon_error_bound();
            assert!(
                count <= h as f64 * bound + 1e-9,
                "horizon {h}: window count {count} exceeds bound"
            );
        }
    }

    #[test]
    fn window_reflects_recent_regime_only() {
        // Stream switches from x=0 to x=100 at tick 160 of 192. A horizon
        // covering only the tail must see mass concentrated at 100.
        let (_, hz) = run_stream(192, 160);
        let window = hz.horizon_clusters(192, 32).unwrap();
        assert!(!window.is_empty());
        let total = window.total_count();
        let mass_right: f64 = window
            .clusters
            .values()
            .filter(|e| e.centroid()[0] > 50.0)
            .map(|e| e.count())
            .sum();
        assert!(
            mass_right / total > 0.9,
            "window should be dominated by the new regime: {mass_right}/{total}"
        );
    }

    #[test]
    fn long_horizon_errors_when_past_retention() {
        let (_, hz) = run_stream(100, 1000);
        // Horizon 1 tick longer than everything recorded, from a base
        // before tick 1.
        let res = hz.horizon_clusters(100, 100);
        assert!(res.is_err());
    }

    #[test]
    fn macro_cluster_horizon_produces_k_clusters() {
        let (_, hz) = run_stream(256, 128);
        let mac = hz.macro_cluster_horizon(256, 200, 2, 5).unwrap();
        assert_eq!(mac.k(), 2);
        // One macro centroid per regime.
        let mut lo = false;
        let mut hi = false;
        for c in &mac.centroids {
            if c[0] < 50.0 {
                lo = true;
            } else {
                hi = true;
            }
        }
        assert!(lo && hi, "centroids: {:?}", mac.centroids);
    }

    #[test]
    fn clusters_at_returns_nearest_snapshot() {
        let (_, hz) = run_stream(64, 1000);
        assert!(hz.clusters_at(64).is_some());
        assert!(hz.clusters_at(0).is_none());
        assert_eq!(hz.last_recorded(), 64);
    }

    #[test]
    fn record_snapshot_direct() {
        let mut hz = HorizonAnalyzer::with_defaults();
        let mut alg = UMicro::new(UMicroConfig::new(4, 1).unwrap());
        alg.insert(&pt(1.0, 1));
        hz.record_snapshot(1, alg.snapshot());
        assert_eq!(hz.clusters_at(1).unwrap().len(), 1);
    }
}
