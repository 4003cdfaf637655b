//! The unified read-side query surface.
//!
//! [`OnlineClusterer`] is an *ingest* contract: absorb points, expose the
//! raw model. Readers — the serving front-end, CLI commands, the eval
//! harness — want a narrower, uniform view: "give me the clusters over a
//! horizon, a macro-clustering, your vitals, and (if you can) your portable
//! state". Before this trait existed each reader re-derived that view its
//! own way; [`ClusterQuery`] names it once so every read path calls the
//! same four methods regardless of what sits behind them (a bare
//! [`UMicro`](crate::UMicro), a decayed variant, a boxed dynamic clusterer,
//! a tenant in the serving front-end, or the whole sharded engine).
//!
//! The blanket impl covers every [`OnlineClusterer`]. Implementations with
//! a pyramidal snapshot store (the engine, serve tenants) override the
//! semantics by implementing the trait directly: there `horizon_clusters`
//! answers by subtractive approximation over stored snapshots (paper
//! §II-C), while the blanket impl — which has no time-indexed history —
//! answers every horizon with the live since-stream-start model.

use crate::macrocluster::MacroClustering;
use crate::online::OnlineClusterer;
use crate::state::ClustererState;
use serde::{Deserialize, Serialize};
use ustream_common::{AdditiveFeature, UStreamError};
use ustream_snapshot::ClusterSetSnapshot;

/// Read-side vitals every queryable clusterer can report cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct QueryStats {
    /// Points absorbed so far.
    pub points_processed: u64,
    /// Live micro-clusters in the model.
    pub num_clusters: usize,
    /// Estimated resident bytes of the model.
    pub approx_memory_bytes: usize,
}

/// The query surface shared by everything that can answer cluster reads.
///
/// Deliberately separate from the ingest-side [`OnlineClusterer`]: a reader
/// holding `&mut dyn ClusterQuery<Summary = Ecf>` can interrogate a model
/// but cannot feed it, and new read paths (wire protocols, dashboards,
/// eval suites) depend on this trait alone.
pub trait ClusterQuery {
    /// The additive per-cluster summary type of the underlying model.
    type Summary: AdditiveFeature + Send + 'static;

    /// The micro-cluster set covering the last `horizon` ticks.
    ///
    /// Implementations backed by a pyramidal store answer by snapshot
    /// subtraction; the blanket impl for plain clusterers has no history
    /// and returns the live model for every horizon (a since-stream-start
    /// view). Takes `&mut self` because decayed models synchronise lazy
    /// weights before answering.
    fn horizon_clusters(
        &mut self,
        horizon: u64,
    ) -> Result<ClusterSetSnapshot<Self::Summary>, UStreamError>;

    /// Offline macro-clustering of the current model into `k` higher-level
    /// clusters.
    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering;

    /// The model's read-side vitals.
    fn stats(&self) -> QueryStats;

    /// The complete portable state, when the implementation supports
    /// checkpoint/restore (`None` otherwise).
    fn export_state(&self) -> Option<ClustererState<Self::Summary>>;
}

impl<T: OnlineClusterer + ?Sized> ClusterQuery for T {
    type Summary = T::Summary;

    fn horizon_clusters(
        &mut self,
        _horizon: u64,
    ) -> Result<ClusterSetSnapshot<Self::Summary>, UStreamError> {
        Ok(OnlineClusterer::live_clusters(self))
    }

    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        OnlineClusterer::macro_cluster(self, k, seed)
    }

    fn stats(&self) -> QueryStats {
        QueryStats {
            points_processed: OnlineClusterer::points_processed(self),
            num_clusters: OnlineClusterer::num_clusters(self),
            approx_memory_bytes: OnlineClusterer::approx_memory_bytes(self),
        }
    }

    fn export_state(&self) -> Option<ClustererState<Self::Summary>> {
        OnlineClusterer::export_state(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::UMicro;
    use crate::config::UMicroConfig;
    use crate::decayed::DecayedUMicro;
    use crate::ecf::Ecf;
    use ustream_common::{Timestamp, UncertainPoint};

    fn pt(x: f64, y: f64, t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(vec![x, y], vec![0.2, 0.2], t, None)
    }

    fn drive(alg: &mut impl OnlineClusterer) {
        for t in 1..=60u64 {
            let x = if t % 2 == 0 { 0.0 } else { 9.0 };
            alg.insert(&pt(x, -x, t));
        }
    }

    #[test]
    fn blanket_impl_answers_reads_for_umicro() {
        let mut alg = UMicro::new(UMicroConfig::new(8, 2).unwrap());
        drive(&mut alg);
        let stats = ClusterQuery::stats(&alg);
        assert_eq!(stats.points_processed, 60);
        assert!(stats.num_clusters >= 2);
        assert!(stats.approx_memory_bytes > 0);
        let snap = ClusterQuery::horizon_clusters(&mut alg, 10).unwrap();
        assert_eq!(snap.len(), stats.num_clusters);
        let mac = ClusterQuery::macro_cluster(&mut alg, 2, 7);
        assert_eq!(mac.k(), 2);
        assert!(ClusterQuery::export_state(&alg).is_some());
    }

    #[test]
    fn blanket_impl_horizon_is_since_start_view() {
        // Plain clusterers have no time-indexed store: every horizon answers
        // with the full live model.
        let mut alg = UMicro::new(UMicroConfig::new(8, 2).unwrap());
        drive(&mut alg);
        let narrow = ClusterQuery::horizon_clusters(&mut alg, 1).unwrap();
        let wide = ClusterQuery::horizon_clusters(&mut alg, 1_000_000).unwrap();
        assert_eq!(narrow.total_count(), wide.total_count());
        assert_eq!(narrow.total_count() as u64, 60);
    }

    #[test]
    fn query_trait_is_object_safe_over_boxed_dyn() {
        let mut boxed: Box<dyn OnlineClusterer<Summary = Ecf>> = Box::new(
            DecayedUMicro::with_half_life(UMicroConfig::new(8, 2).unwrap(), 500.0),
        );
        drive(&mut boxed);
        let q: &mut dyn ClusterQuery<Summary = Ecf> = &mut boxed;
        assert_eq!(q.stats().points_processed, 60);
        assert!(!q.horizon_clusters(30).unwrap().is_empty());
        assert_eq!(q.macro_cluster(2, 11).k(), 2);
    }

    #[test]
    fn query_stats_serde_round_trip() {
        let s = QueryStats {
            points_processed: 42,
            num_clusters: 7,
            approx_memory_bytes: 4096,
        };
        let back = QueryStats::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
    }
}
