//! The public online-clustering abstraction behind the sharded engine.
//!
//! Every stream clusterer in this workspace — [`UMicro`], the decayed
//! variant [`DecayedUMicro`], and the deterministic `clustream::CluStream`
//! baseline — follows the same operational contract: absorb one point at a
//! time, expose additive micro-cluster summaries keyed by stable ids,
//! produce snapshots for the pyramidal time frame, and compress its
//! micro-clusters into user-facing macro-clusters on demand.
//! [`OnlineClusterer`] names that contract so the ingestion engine, shard
//! workers, and evaluation harnesses can be written once and driven by any
//! of the algorithms.
//!
//! The trait is object-safe: the engine's default worker type is
//! `Box<dyn OnlineClusterer<Summary = Ecf>>`, and a blanket impl forwards
//! through `Box` so boxed and unboxed clusterers are interchangeable.

use crate::algorithm::{InsertOutcome, UMicro};
use crate::decayed::DecayedUMicro;
use crate::macrocluster::MacroClustering;
use crate::state::ClustererState;
use ustream_common::{AdditiveFeature, Timestamp, UStreamError, UncertainPoint};
use ustream_snapshot::ClusterSetSnapshot;

/// A one-pass stream clusterer maintaining additive micro-cluster
/// summaries.
///
/// The contract mirrors the paper's Figure 1 loop: [`insert`] is the hot
/// path, everything else is a query. Implementations must keep cluster ids
/// stable across the run (never recycled) — the pyramidal store relies on
/// id identity for horizon subtraction, and the sharded engine namespaces
/// ids per shard under the same assumption.
///
/// [`insert`]: OnlineClusterer::insert
pub trait OnlineClusterer: Send {
    /// The additive per-cluster summary (ECF for UMicro, CF for CluStream).
    type Summary: AdditiveFeature + Send + 'static;

    /// Processes one stream point and reports where it went.
    fn insert(&mut self, point: &UncertainPoint) -> InsertOutcome;

    /// Processes a mini-batch of stream points in arrival order, appending
    /// one outcome per point to `out`.
    ///
    /// Semantically identical to calling [`insert`] in a loop — the default
    /// implementation does exactly that — but implementations amortise
    /// per-call setup (buffer reservation) over the block. The sharded
    /// engine routes `push_slice` chunks through this.
    ///
    /// [`insert`]: OnlineClusterer::insert
    fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<InsertOutcome>) {
        out.reserve(points.len());
        for p in points {
            out.push(self.insert(p));
        }
    }

    /// The live micro-clusters keyed by stable id, statistics as stored:
    /// unlike [`snapshot_at`], nothing is synchronised or captured first.
    /// Summaries unchanged since the last snapshot are shared with it, not
    /// copied.
    ///
    /// [`snapshot_at`]: OnlineClusterer::snapshot_at
    fn live_clusters(&self) -> ClusterSetSnapshot<Self::Summary>;

    /// Number of live micro-clusters.
    fn num_clusters(&self) -> usize;

    /// Points processed so far.
    fn points_processed(&self) -> u64;

    /// Distance from `point` to the nearest micro-cluster, in the
    /// algorithm's own geometry (error-corrected for UMicro, Euclidean for
    /// CluStream). `None` while no clusters exist — the caller cannot judge
    /// isolation against an empty model — and for a point that is no
    /// finite distance from any cluster (a NaN or ±∞ coordinate).
    ///
    /// This powers novelty detection: the engine compares the pre-insertion
    /// isolation of each arrival against a running baseline. UMicro and
    /// CluStream answer with one sweep of their cluster kernel.
    fn isolation(&self, point: &UncertainPoint) -> Option<f64>;

    /// Processes a mini-batch like [`insert_batch`], appending one
    /// `(outcome, isolation)` pair per point to `out`, where `isolation`
    /// is the point's [`isolation`] against the cluster set it met — the
    /// state just before its own insertion.
    ///
    /// The default calls [`isolation`] then [`insert`] per point, so any
    /// implementation (and any wrapper that overrides only those two)
    /// stays correct. UMicro overrides it to read the isolation out of
    /// the same kernel sweep that ranks the point. The sharded engine
    /// routes every record through this when novelty detection is on.
    ///
    /// [`insert_batch`]: OnlineClusterer::insert_batch
    /// [`isolation`]: OnlineClusterer::isolation
    /// [`insert`]: OnlineClusterer::insert
    fn insert_batch_scored(
        &mut self,
        points: &[UncertainPoint],
        out: &mut Vec<(InsertOutcome, Option<f64>)>,
    ) {
        out.reserve(points.len());
        for p in points {
            let isolation = self.isolation(p);
            out.push((self.insert(p), isolation));
        }
    }

    /// Snapshot of the current micro-cluster set with statistics brought
    /// current to tick `now`, keyed by stable id, for the pyramidal store.
    ///
    /// Takes `&mut self` because decayed implementations synchronise their
    /// lazily-maintained weights to `now` first; undecayed implementations
    /// ignore `now`.
    fn snapshot_at(&mut self, now: Timestamp) -> ClusterSetSnapshot<Self::Summary>;

    /// Offline macro-clustering of the live micro-clusters into `k`
    /// higher-level clusters (weighted k-means over summary centroids).
    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering;

    /// Exports the complete mutable state for checkpoint/restore, when the
    /// implementation supports it (`None` otherwise, the default).
    ///
    /// Unlike [`snapshot_at`], the exported state must be sufficient for
    /// [`import_state`] to continue the stream exactly where this instance
    /// left off — id allocator, counters and cached estimates included.
    ///
    /// [`snapshot_at`]: OnlineClusterer::snapshot_at
    /// [`import_state`]: OnlineClusterer::import_state
    fn export_state(&self) -> Option<ClustererState<Self::Summary>> {
        None
    }

    /// Replaces this instance's state with a previously exported one.
    /// Implementations that cannot restore report an error (the default) so
    /// engines can fall back to summary-level reseeding.
    fn import_state(&mut self, _state: &ClustererState<Self::Summary>) -> Result<(), UStreamError> {
        Err(UStreamError::InvalidConfig(
            "this clusterer does not support state restore".into(),
        ))
    }

    /// Estimated resident bytes of this clusterer's model, for resource
    /// governance and per-shard reporting. The default charges the inline
    /// struct plus one summary (and a nominal per-cluster overhead) per
    /// live micro-cluster; implementations with large auxiliary state
    /// (kernels, sketches) should override. Must be cheap — the engine
    /// calls it while holding the shard lock.
    fn approx_memory_bytes(&self) -> usize {
        const PER_CLUSTER_OVERHEAD: usize = 64;
        std::mem::size_of_val(self)
            + self.num_clusters() * (std::mem::size_of::<Self::Summary>() + PER_CLUSTER_OVERHEAD)
    }
}

impl OnlineClusterer for UMicro {
    type Summary = crate::ecf::Ecf;

    fn insert(&mut self, point: &UncertainPoint) -> InsertOutcome {
        UMicro::insert(self, point)
    }

    fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<InsertOutcome>) {
        UMicro::insert_batch(self, points, out)
    }

    fn insert_batch_scored(
        &mut self,
        points: &[UncertainPoint],
        out: &mut Vec<(InsertOutcome, Option<f64>)>,
    ) {
        UMicro::insert_batch_scored(self, points, out)
    }

    fn live_clusters(&self) -> ClusterSetSnapshot<Self::Summary> {
        UMicro::live_clusters(self)
    }

    fn num_clusters(&self) -> usize {
        UMicro::micro_clusters(self).len()
    }

    fn points_processed(&self) -> u64 {
        UMicro::points_processed(self)
    }

    fn isolation(&self, point: &UncertainPoint) -> Option<f64> {
        self.corrected_isolation(point)
    }

    fn snapshot_at(&mut self, now: Timestamp) -> ClusterSetSnapshot<Self::Summary> {
        UMicro::snapshot_at(self, now)
    }

    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        UMicro::macro_cluster(self, k, seed)
    }

    fn export_state(&self) -> Option<ClustererState<Self::Summary>> {
        Some(UMicro::export_state(self))
    }

    fn import_state(&mut self, state: &ClustererState<Self::Summary>) -> Result<(), UStreamError> {
        UMicro::import_state(self, state)
    }
}

impl OnlineClusterer for DecayedUMicro {
    type Summary = crate::ecf::Ecf;

    fn insert(&mut self, point: &UncertainPoint) -> InsertOutcome {
        DecayedUMicro::insert(self, point)
    }

    fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<InsertOutcome>) {
        DecayedUMicro::insert_batch(self, points, out)
    }

    fn insert_batch_scored(
        &mut self,
        points: &[UncertainPoint],
        out: &mut Vec<(InsertOutcome, Option<f64>)>,
    ) {
        DecayedUMicro::insert_batch_scored(self, points, out)
    }

    fn live_clusters(&self) -> ClusterSetSnapshot<Self::Summary> {
        DecayedUMicro::live_clusters(self)
    }

    fn num_clusters(&self) -> usize {
        DecayedUMicro::micro_clusters(self).len()
    }

    fn points_processed(&self) -> u64 {
        DecayedUMicro::points_processed(self)
    }

    fn isolation(&self, point: &UncertainPoint) -> Option<f64> {
        self.corrected_isolation(point)
    }

    fn snapshot_at(&mut self, now: Timestamp) -> ClusterSetSnapshot<Self::Summary> {
        DecayedUMicro::snapshot_at(self, now)
    }

    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        DecayedUMicro::macro_cluster(self, k, seed)
    }

    fn export_state(&self) -> Option<ClustererState<Self::Summary>> {
        Some(DecayedUMicro::export_state(self))
    }

    fn import_state(&mut self, state: &ClustererState<Self::Summary>) -> Result<(), UStreamError> {
        DecayedUMicro::import_state(self, state)
    }
}

impl<T: OnlineClusterer + ?Sized> OnlineClusterer for Box<T> {
    type Summary = T::Summary;

    fn insert(&mut self, point: &UncertainPoint) -> InsertOutcome {
        (**self).insert(point)
    }

    fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<InsertOutcome>) {
        (**self).insert_batch(points, out)
    }

    fn insert_batch_scored(
        &mut self,
        points: &[UncertainPoint],
        out: &mut Vec<(InsertOutcome, Option<f64>)>,
    ) {
        (**self).insert_batch_scored(points, out)
    }

    fn live_clusters(&self) -> ClusterSetSnapshot<Self::Summary> {
        (**self).live_clusters()
    }

    fn num_clusters(&self) -> usize {
        (**self).num_clusters()
    }

    fn points_processed(&self) -> u64 {
        (**self).points_processed()
    }

    fn isolation(&self, point: &UncertainPoint) -> Option<f64> {
        (**self).isolation(point)
    }

    fn snapshot_at(&mut self, now: Timestamp) -> ClusterSetSnapshot<Self::Summary> {
        (**self).snapshot_at(now)
    }

    fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        (**self).macro_cluster(k, seed)
    }

    fn export_state(&self) -> Option<ClustererState<Self::Summary>> {
        (**self).export_state()
    }

    fn import_state(&mut self, state: &ClustererState<Self::Summary>) -> Result<(), UStreamError> {
        (**self).import_state(state)
    }

    fn approx_memory_bytes(&self) -> usize {
        (**self).approx_memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UMicroConfig;
    use crate::ecf::Ecf;

    fn pt(x: f64, y: f64, t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(vec![x, y], vec![0.2, 0.2], t, None)
    }

    fn drive<A: OnlineClusterer>(alg: &mut A) {
        for t in 1..=60u64 {
            let x = if t % 2 == 0 { 0.0 } else { 9.0 };
            alg.insert(&pt(x, -x, t));
        }
    }

    #[test]
    fn trait_drives_umicro() {
        let mut alg = UMicro::new(UMicroConfig::new(8, 2).unwrap());
        drive(&mut alg);
        assert_eq!(OnlineClusterer::points_processed(&alg), 60);
        assert!(alg.num_clusters() >= 2);
        let clusters = OnlineClusterer::live_clusters(&alg);
        assert_eq!(clusters.len(), alg.num_clusters());
        let snap = OnlineClusterer::snapshot_at(&mut alg, 60);
        assert_eq!(snap.len(), alg.num_clusters());
        let mac = OnlineClusterer::macro_cluster(&mut alg, 2, 7);
        assert_eq!(mac.k(), 2);
    }

    #[test]
    fn trait_drives_decayed_umicro() {
        let mut alg = DecayedUMicro::with_half_life(UMicroConfig::new(8, 2).unwrap(), 500.0);
        drive(&mut alg);
        assert_eq!(OnlineClusterer::points_processed(&alg), 60);
        let snap = OnlineClusterer::snapshot_at(&mut alg, 60);
        assert!(!snap.is_empty());
    }

    #[test]
    fn insert_batch_matches_insert_loop() {
        let mut looped = UMicro::new(UMicroConfig::new(8, 2).unwrap());
        let mut batched = UMicro::new(UMicroConfig::new(8, 2).unwrap());
        let points: Vec<UncertainPoint> = (1..=60u64)
            .map(|t| {
                let x = if t % 2 == 0 { 0.0 } else { 9.0 };
                pt(x, -x, t)
            })
            .collect();
        let loop_out: Vec<_> = points.iter().map(|p| looped.insert(p)).collect();
        let mut batch_out = Vec::new();
        OnlineClusterer::insert_batch(&mut batched, &points, &mut batch_out);
        assert_eq!(loop_out, batch_out);
        assert_eq!(looped.num_clusters(), batched.num_clusters());
    }

    #[test]
    fn approx_memory_bytes_grows_with_model() {
        let mut alg = UMicro::new(UMicroConfig::new(8, 2).unwrap());
        let empty = alg.approx_memory_bytes();
        drive(&mut alg);
        assert!(alg.num_clusters() >= 2);
        assert!(alg.approx_memory_bytes() > empty);
    }

    #[test]
    fn isolation_is_none_on_empty_model_then_tracks_distance() {
        let mut alg = UMicro::new(UMicroConfig::new(4, 2).unwrap());
        assert!(alg.isolation(&pt(0.0, 0.0, 1)).is_none());
        alg.insert(&pt(0.0, 0.0, 1));
        let near = alg.isolation(&pt(0.1, 0.0, 2)).unwrap();
        let far = alg.isolation(&pt(50.0, 50.0, 2)).unwrap();
        assert!(far > near);
    }

    #[test]
    fn boxed_dyn_clusterer_works() {
        let mut alg: Box<dyn OnlineClusterer<Summary = Ecf>> =
            Box::new(UMicro::new(UMicroConfig::new(8, 2).unwrap()));
        drive(&mut alg);
        assert_eq!(alg.points_processed(), 60);
        assert!(alg.macro_cluster(2, 3).k() == 2);
        let snap = alg.snapshot_at(60);
        assert_eq!(snap.len(), alg.num_clusters());
    }
}
