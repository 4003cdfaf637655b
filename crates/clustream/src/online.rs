//! [`OnlineClusterer`] conformance for the CluStream baseline.
//!
//! The trait lives in the `umicro` crate (the paper's primary algorithm);
//! implementing it here lets the sharded ingestion engine and the
//! evaluation harnesses drive CluStream through exactly the interface they
//! use for UMicro, which is how the paper's efficiency and quality
//! comparisons are set up.

use crate::feature::CfVector;
use crate::micro::CluStream;
use umicro::online::OnlineClusterer;
use umicro::{InsertOutcome, MacroClustering};
use ustream_common::{Timestamp, UncertainPoint};
use ustream_snapshot::ClusterSetSnapshot;

impl OnlineClusterer for CluStream {
    type Summary = CfVector;

    fn insert(&mut self, point: &UncertainPoint) -> InsertOutcome {
        let outcome = CluStream::insert(self, point);
        InsertOutcome {
            cluster_id: outcome.cluster_id,
            created: outcome.created,
            // Budget restoration by deletion or by merge both retire one
            // cluster id; either counts as an eviction for the engine's
            // bookkeeping.
            evicted: outcome
                .deleted
                .or(outcome.merged.map(|(_survivor, absorbed)| absorbed)),
        }
    }

    fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<InsertOutcome>) {
        let mut native = Vec::with_capacity(points.len());
        CluStream::insert_batch(self, points, &mut native);
        out.reserve(native.len());
        out.extend(native.into_iter().map(|o| InsertOutcome {
            cluster_id: o.cluster_id,
            created: o.created,
            evicted: o.deleted.or(o.merged.map(|(_survivor, absorbed)| absorbed)),
        }));
    }

    fn live_clusters(&self) -> ClusterSetSnapshot<Self::Summary> {
        CluStream::snapshot(self)
    }

    fn num_clusters(&self) -> usize {
        CluStream::micro_clusters(self).len()
    }

    fn points_processed(&self) -> u64 {
        CluStream::points_processed(self)
    }

    fn isolation(&self, point: &UncertainPoint) -> Option<f64> {
        // CluStream ignores error vectors, so its native geometry is plain
        // Euclidean distance to the nearest centroid.
        let best = self.nearest_sq_distance(point.values());
        best.is_finite().then(|| best.sqrt())
    }

    fn snapshot_at(&mut self, _now: Timestamp) -> ClusterSetSnapshot<Self::Summary> {
        // Deterministic CF statistics are time-invariant; `now` is accepted
        // for interface symmetry.
        CluStream::snapshot(self)
    }

    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        CluStream::macro_cluster(self, k, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::CluStreamConfig;

    fn pt(x: f64, y: f64, t: Timestamp) -> UncertainPoint {
        UncertainPoint::certain(vec![x, y], t, None)
    }

    #[test]
    fn trait_drives_clustream() {
        let mut alg = CluStream::new(CluStreamConfig::new(8, 2).unwrap());
        for t in 1..=80u64 {
            let x = if t % 2 == 0 { 0.0 } else { 12.0 };
            OnlineClusterer::insert(&mut alg, &pt(x, x, t));
        }
        assert_eq!(OnlineClusterer::points_processed(&alg), 80);
        assert!(alg.num_clusters() >= 2);
        let snap = OnlineClusterer::snapshot_at(&mut alg, 80);
        assert_eq!(snap.len(), alg.num_clusters());
        let mac = OnlineClusterer::macro_cluster(&mut alg, 2, 5);
        assert_eq!(mac.k(), 2);
    }

    #[test]
    fn isolation_uses_euclidean_geometry() {
        let mut alg = CluStream::new(CluStreamConfig::new(4, 2).unwrap());
        assert!(alg.isolation(&pt(0.0, 0.0, 1)).is_none());
        OnlineClusterer::insert(&mut alg, &pt(0.0, 0.0, 1));
        let d = alg.isolation(&pt(3.0, 4.0, 2)).unwrap();
        assert!((d - 5.0).abs() < 1e-9);
    }
}
