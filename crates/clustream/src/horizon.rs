//! Horizon-specific clustering for the CluStream baseline — the original
//! VLDB'03 feature the UMicro paper inherits. Built on the feature-generic
//! [`HorizonTracker`]; the deterministic `CfVector` satisfies the same
//! additive/subtractive contract as the uncertain ECF.

use crate::feature::CfVector;
use crate::macrocluster::{macro_cluster_cfs, MacroClustering};
use crate::micro::CluStream;
use ustream_common::{Result, Timestamp};
use ustream_snapshot::{ClusterSetSnapshot, HorizonTracker, PyramidConfig, SnapshotStore};

/// Records CluStream snapshots and answers horizon queries.
#[derive(Debug, Clone)]
pub struct CluStreamHorizon {
    tracker: HorizonTracker<CfVector>,
}

impl CluStreamHorizon {
    /// Analyzer with the given pyramid geometry.
    pub fn new(config: PyramidConfig) -> Self {
        Self {
            tracker: HorizonTracker::new(config),
        }
    }

    /// Analyzer with the default geometry.
    pub fn with_defaults() -> Self {
        Self {
            tracker: HorizonTracker::with_defaults(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &SnapshotStore<ClusterSetSnapshot<CfVector>> {
        self.tracker.store()
    }

    /// Records the current state of `alg` for tick `now`.
    pub fn record(&mut self, now: Timestamp, alg: &CluStream) {
        self.tracker.record_snapshot(now, alg.snapshot());
    }

    /// Micro-cluster statistics of the window `(now − h, now]`.
    pub fn horizon_clusters(&self, now: Timestamp, h: u64) -> Result<ClusterSetSnapshot<CfVector>> {
        self.tracker.horizon_clusters(now, h)
    }

    /// Macro-clusters of the window.
    pub fn macro_cluster_horizon(
        &self,
        now: Timestamp,
        h: u64,
        k: usize,
        seed: u64,
    ) -> Result<MacroClustering> {
        let window = self.tracker.horizon_clusters(now, h)?;
        Ok(macro_cluster_cfs(
            window.clusters.iter().map(|(id, f)| (*id, &**f)),
            k,
            seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::CluStreamConfig;
    use ustream_common::{AdditiveFeature, UncertainPoint};

    #[test]
    fn clustream_horizon_reconstruction() {
        let mut alg = CluStream::new(CluStreamConfig::new(8, 1).unwrap());
        let mut hz = CluStreamHorizon::new(PyramidConfig::new(2, 6).unwrap());
        let total = 1_024u64;
        for t in 1..=total {
            let x = if t <= 768 { 0.0 } else { 40.0 };
            alg.insert(&UncertainPoint::certain(vec![x], t, None));
            hz.record(t, &alg);
        }
        // Recent window (exactly representable horizon) is the new regime.
        let window = hz.horizon_clusters(total, 256).unwrap();
        let recent_mass: f64 = window
            .clusters
            .values()
            .filter(|f| f.centroid()[0] > 20.0)
            .map(|f| f.n())
            .sum();
        assert!(
            recent_mass / window.total_count() > 0.95,
            "recent mass {recent_mass} of {}",
            window.total_count()
        );
        // Macro clustering over a long window sees both regimes.
        let mac = hz.macro_cluster_horizon(total, 512, 2, 3).unwrap();
        assert_eq!(mac.k(), 2);
    }

    #[test]
    fn horizon_unavailable_propagates() {
        let hz = CluStreamHorizon::with_defaults();
        assert!(hz.horizon_clusters(100, 10).is_err());
    }
}
