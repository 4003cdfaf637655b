//! The UMicro online loop (Figure 1 of the paper).
//!
//! ```text
//! S = {}                                  // ≤ n_micro micro-clusters
//! repeat
//!     receive next stream point X
//!     M    = closest micro-cluster by expected similarity
//!     if X inside critical uncertainty boundary of M
//!         add X to the statistics of M
//!     else
//!         add new singleton micro-cluster {X} to S
//!         if |S| = n_micro + 1
//!             remove least-recently-updated micro-cluster
//! until stream ends
//! ```

use crate::boundary::{boundary_decision, BoundaryDecision};
use crate::config::{BoundaryMode, SimilarityMode, UMicroConfig};
use crate::distance::corrected_sq_distance;
use crate::ecf::Ecf;
use crate::kernel::ClusterKernel;
use crate::macrocluster::{macro_cluster_ecfs, MacroClustering};
use crate::similarity::GlobalVariance;
use crate::state::ClustererState;
use std::sync::{Arc, Weak};
use ustream_common::{AdditiveFeature, DecayableFeature, Timestamp, UStreamError, UncertainPoint};
use ustream_snapshot::ClusterSetSnapshot;

/// A live micro-cluster: a stable identity plus its ECF statistics.
///
/// Ids are unique across the whole run (never recycled), which is what lets
/// pyramidal snapshots match clusters across time for horizon subtraction.
#[derive(Debug, Clone)]
pub struct MicroCluster {
    /// Stable, run-unique identifier.
    pub id: u64,
    /// The error-based cluster feature vector.
    pub ecf: Ecf,
    /// `ecf` as the last snapshot captured it, for as long as a snapshot
    /// still holds it; `None` once `ecf` moved on. A weak reference, so
    /// the clusterer never keeps a copy alive that no snapshot holds.
    shared: Option<Weak<Ecf>>,
}

impl MicroCluster {
    /// A cluster no snapshot has captured yet.
    pub fn new(id: u64, ecf: Ecf) -> Self {
        Self {
            id,
            ecf,
            shared: None,
        }
    }

    /// A cluster whose statistics are `ecf`, sharing it until it changes.
    fn from_shared(id: u64, ecf: &Arc<Ecf>) -> Self {
        Self {
            id,
            ecf: Ecf::clone(ecf),
            shared: Some(Arc::downgrade(ecf)),
        }
    }

    /// The ECF for a snapshot: the copy the last snapshot captured when
    /// the cluster has not changed since and a snapshot still holds it,
    /// else one fresh copy that the next snapshot will share in turn.
    fn share(&mut self) -> Arc<Ecf> {
        self.current_shared().unwrap_or_else(|| {
            let fresh = Arc::new(self.ecf.clone());
            self.shared = Some(Arc::downgrade(&fresh));
            fresh
        })
    }

    /// The current ECF without capturing it: the shared copy while there
    /// is one, else a fresh copy that nothing else holds.
    fn current(&self) -> Arc<Ecf> {
        self.current_shared()
            .unwrap_or_else(|| Arc::new(self.ecf.clone()))
    }

    /// The last captured copy, if `ecf` is unchanged since and a
    /// snapshot still holds it.
    fn current_shared(&self) -> Option<Arc<Ecf>> {
        self.shared.as_ref().and_then(Weak::upgrade)
    }

    /// The ECF for writing. Every mutation goes through here, so no
    /// snapshot ever shares a value that moved on.
    pub(crate) fn ecf_mut(&mut self) -> &mut Ecf {
        self.shared = None;
        &mut self.ecf
    }
}

/// What happened to an inserted point — surfaced so evaluation layers can
/// attribute class labels to clusters without re-querying the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Id of the micro-cluster that received the point, or
    /// [`InsertOutcome::REJECTED_ID`] when the point was refused.
    pub cluster_id: u64,
    /// Whether the point seeded a brand-new micro-cluster.
    pub created: bool,
    /// Id of the micro-cluster evicted to make room, if any.
    pub evicted: Option<u64>,
}

impl InsertOutcome {
    /// Sentinel id reported when a point was rejected rather than
    /// clustered. Real ids are allocated sequentially from zero and can
    /// never reach this value within a run.
    pub const REJECTED_ID: u64 = u64::MAX;

    /// The outcome for a point refused before touching any statistics
    /// (non-finite coordinate or invalid error vector).
    pub fn rejected() -> Self {
        Self {
            cluster_id: Self::REJECTED_ID,
            created: false,
            evicted: None,
        }
    }

    /// Whether this outcome reports a rejected point.
    pub fn is_rejected(&self) -> bool {
        self.cluster_id == Self::REJECTED_ID && !self.created
    }
}

/// `√sq` when finite: the isolation of a point whose lowest corrected
/// squared distance is `sq` (`INFINITY` meaning no finite cluster).
fn isolation_from_sq(sq: f64) -> Option<f64> {
    sq.is_finite().then(|| sq.sqrt())
}

/// The UMicro algorithm (undecayed form; see
/// [`crate::DecayedUMicro`] for the §II-E time-decay variant).
#[derive(Debug, Clone)]
pub struct UMicro {
    config: UMicroConfig,
    clusters: Vec<MicroCluster>,
    next_id: u64,
    global: GlobalVariance,
    since_refresh: usize,
    inserted: u64,
    /// Exponential decay rate λ; 0 disables decay.
    lambda: f64,
    /// SoA mirror of `clusters`, row `i` for cluster `i` at all times:
    /// every mutation updates it in step, every bulk edit rebuilds it.
    kernel: ClusterKernel,
    /// Cached `1/(thresh·σ_j²)` similarity coefficients (∞ = skip), kept in
    /// lockstep with `global`.
    scratch_inv: Vec<f64>,
}

impl UMicro {
    /// Creates the algorithm with a validated configuration.
    pub fn new(config: UMicroConfig) -> Self {
        config
            .validate()
            // lint:allow(hot-panic): constructor contract — fails fast at setup, never on the stream path
            .expect("UMicroConfig must be validated before use");
        let dims = config.dims;
        Self {
            config,
            clusters: Vec::new(),
            next_id: 0,
            global: GlobalVariance::new(dims),
            since_refresh: 0,
            inserted: 0,
            lambda: 0.0,
            kernel: ClusterKernel::new(dims),
            scratch_inv: vec![f64::INFINITY; dims],
        }
    }

    /// Internal: same algorithm with exponential decay rate `lambda`.
    pub(crate) fn with_lambda(config: UMicroConfig, lambda: f64) -> Self {
        let mut alg = Self::new(config);
        alg.lambda = lambda;
        alg
    }

    /// The configuration in force.
    pub fn config(&self) -> &UMicroConfig {
        &self.config
    }

    /// Points processed so far.
    pub fn points_processed(&self) -> u64 {
        self.inserted
    }

    /// The live micro-clusters (at most `n_micro`).
    pub fn micro_clusters(&self) -> &[MicroCluster] {
        &self.clusters
    }

    /// The global per-dimension variance estimate currently in use by the
    /// dimension-counting similarity.
    pub fn global_variances(&self) -> &[f64] {
        self.global.variances()
    }

    /// The kernel mirroring the live cluster set: row `i` mirrors
    /// `micro_clusters()[i]`. Parity tests and diagnostics read cached
    /// invariants through this.
    pub fn kernel(&self) -> &ClusterKernel {
        &self.kernel
    }

    /// Processes one stream point and reports where it went.
    ///
    /// # Panics
    /// Debug builds assert the point's dimensionality matches the
    /// configuration.
    pub fn insert(&mut self, point: &UncertainPoint) -> InsertOutcome {
        self.insert_inner(point, false).0
    }

    /// Error-corrected distance from `point` to the nearest micro-cluster:
    /// `√ minᵢ Σⱼ max(0, (xⱼ−cᵢⱼ)² − ψⱼ² − EF2ᵢⱼ/Wᵢ²)`, the clean geometry
    /// novelty detection scores arrivals with — UMicro's
    /// [`crate::OnlineClusterer::isolation`]: one kernel sweep. `None`
    /// while no clusters exist, and for a point no cluster is a finite
    /// distance from (a NaN or ±∞ coordinate).
    pub(crate) fn corrected_isolation(&self, point: &UncertainPoint) -> Option<f64> {
        isolation_from_sq(self.min_corrected_sq(point))
    }

    /// The squared form of [`UMicro::corrected_isolation`] (`INFINITY`
    /// when empty).
    fn min_corrected_sq(&self, point: &UncertainPoint) -> f64 {
        self.kernel.min_corrected_sq(point.values(), point.errors())
    }

    /// The insertion loop. `scored` adds the point's pre-insertion
    /// isolation ([`UMicro::corrected_isolation`]): when the kernel ranks
    /// the point with its fused sweep, the isolation comes out of that
    /// same sweep; otherwise (bootstrap, expected-distance ranking,
    /// uninformative variances) it costs one extra sweep. The outcome is
    /// the same either way.
    fn insert_inner(
        &mut self,
        point: &UncertainPoint,
        scored: bool,
    ) -> (InsertOutcome, Option<f64>) {
        debug_assert_eq!(point.dims(), self.config.dims);
        debug_assert_eq!(self.kernel.len(), self.clusters.len());
        // Last line of defence against poison points: a NaN/∞ coordinate
        // absorbed into an ECF contaminates every derived statistic
        // (centroid, radii, global variances) irreversibly, and the distance
        // guards alone cannot stop a non-finite point from *seeding* a new
        // cluster. Engines validate earlier with richer policy; this keeps
        // direct users safe too.
        if !point.values_finite() || !point.errors_valid() {
            let isolation = if scored {
                self.corrected_isolation(point)
            } else {
                None
            };
            return (InsertOutcome::rejected(), isolation);
        }
        let now = point.timestamp();
        self.inserted += 1;
        self.maybe_refresh_variances();

        // Bootstrap (§II-A): "in the initial stages of the algorithm, the
        // current number of micro-clusters is less than n_micro. If this is
        // the case, then the new data point is added to the current set of
        // micro-clusters as a separate micro-cluster with a singleton point
        // in it." Filling the budget with spread-out singletons is what
        // keeps micro-clusters *micro*: afterwards every point lands on a
        // nearby seed instead of inflating one early cluster.
        if self.clusters.len() < self.config.n_micro {
            let isolation = if scored {
                self.corrected_isolation(point)
            } else {
                None
            };
            let id = self.create_cluster(point);
            let outcome = InsertOutcome {
                cluster_id: id,
                created: true,
                evicted: None,
            };
            return (outcome, isolation);
        }

        let (best, swept) = self.closest_cluster(point, scored);
        // Scored before any statistic moves: the cluster set the point met.
        let isolation = if scored {
            isolation_from_sq(swept.unwrap_or_else(|| self.min_corrected_sq(point)))
        } else {
            None
        };
        // Radius/distance pair per the configured boundary mode; the kernel
        // serves both radii and the expected distance from cached rows.
        let (radius, d2) = match self.config.boundary_mode {
            BoundaryMode::UncertainRadius => (
                self.kernel.uncertain_radius(best),
                self.expected_sq_distance_to(point, best),
            ),
            BoundaryMode::ErrorCorrected => (
                self.kernel.corrected_radius(best),
                corrected_sq_distance(point, &self.clusters[best].ecf),
            ),
        };

        // A lone degenerate cluster has no neighbour to borrow a boundary
        // from; under the corrected mode fall back to the uncertain-radius
        // geometry so that n_micro = 1 configurations can still absorb
        // noise-compatible points.
        let (radius, d2) = if radius <= self.config.degenerate_radius
            && self.clusters.len() == 1
            && self.config.boundary_mode == BoundaryMode::ErrorCorrected
        {
            (
                self.kernel.uncertain_radius(best),
                self.expected_sq_distance_to(point, best),
            )
        } else {
            (radius, d2)
        };

        // The fallback boundary for degenerate clusters needs the distance
        // to the nearest other centroid; compute it only when needed.
        let needs_fallback = radius <= self.config.degenerate_radius;
        let nearest_other_sq = if needs_fallback && self.clusters.len() > 1 {
            Some(self.nearest_other_centroid_sq(best))
        } else if needs_fallback {
            None
        } else {
            Some(0.0) // unused by boundary_decision when radius is healthy
        };

        let outcome = match boundary_decision(
            radius,
            d2,
            self.config.boundary_factor,
            self.config.degenerate_radius,
            nearest_other_sq,
        ) {
            BoundaryDecision::Absorb => {
                let cluster = &mut self.clusters[best];
                let ecf = cluster.ecf_mut();
                if self.lambda > 0.0 {
                    ecf.decay_to(now, self.lambda);
                }
                ecf.insert(point);
                let cluster_id = cluster.id;
                self.kernel.refresh(best, &self.clusters[best].ecf);
                InsertOutcome {
                    cluster_id,
                    created: false,
                    evicted: None,
                }
            }
            BoundaryDecision::NewCluster => {
                let id = self.create_cluster(point);
                let evicted = self.enforce_budget(id);
                InsertOutcome {
                    cluster_id: id,
                    created: true,
                    evicted,
                }
            }
        };
        (outcome, isolation)
    }

    /// Processes a mini-batch of stream points, appending one outcome per
    /// point to `out`.
    ///
    /// Equivalent to calling [`UMicro::insert`] in a loop, with the
    /// outcome buffer reserved up front — the shape
    /// [`crate::OnlineClusterer`] batch ingestion routes through.
    pub fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<InsertOutcome>) {
        out.reserve(points.len());
        for p in points {
            out.push(self.insert(p));
        }
    }

    /// [`UMicro::insert_batch`] that also reports each point's
    /// pre-insertion isolation ([`crate::OnlineClusterer::isolation`]):
    /// one `(outcome, isolation)` pair per point, appended to `out`. Where
    /// the kernel's fused sweep ranks a point, the isolation comes out of
    /// that same sweep.
    pub fn insert_batch_scored(
        &mut self,
        points: &[UncertainPoint],
        out: &mut Vec<(InsertOutcome, Option<f64>)>,
    ) {
        out.reserve(points.len());
        for p in points {
            out.push(self.insert_inner(p, true));
        }
    }

    /// Snapshot of the current micro-cluster set, keyed by stable id, for
    /// the pyramidal store.
    ///
    /// A cluster unchanged since the previous snapshot is shared with it,
    /// not copied, while that snapshot (or a later one sharing it) is
    /// still held, so a snapshot kept in a pyramid costs one pointer per
    /// cluster plus one copy per cluster that changed.
    pub fn snapshot(&mut self) -> ClusterSetSnapshot<Ecf> {
        ClusterSetSnapshot {
            clusters: self
                .clusters
                .iter_mut()
                .map(|c| (c.id, c.share()))
                .collect(),
        }
    }

    /// The live clusters keyed by id, without capturing them: a cluster
    /// unchanged since the last snapshot is shared with it while that is
    /// held, any other is copied into an allocation only the caller holds.
    /// Nothing in `self` changes.
    pub fn live_clusters(&self) -> ClusterSetSnapshot<Ecf> {
        ClusterSetSnapshot {
            clusters: self.clusters.iter().map(|c| (c.id, c.current())).collect(),
        }
    }

    /// Snapshot naming unified with [`crate::DecayedUMicro::snapshot_at`]:
    /// undecayed statistics are time-invariant, so `now` is accepted for
    /// interface symmetry and ignored.
    pub fn snapshot_at(&mut self, _now: Timestamp) -> ClusterSetSnapshot<Ecf> {
        self.snapshot()
    }

    /// Rebuilds an algorithm from a configuration and a previously captured
    /// snapshot — checkpoint/restore for long-running deployments. Cluster
    /// ids are preserved (so pyramidal stores from before the restart stay
    /// compatible) and fresh ids continue after the largest restored one.
    ///
    /// The restored instance refreshes its global variance estimate from
    /// the snapshot immediately, so the first post-restore insertions rank
    /// clusters the way a continuously-running instance would at its next
    /// refresh boundary. The restored clusters share their ECFs with
    /// `snapshot` until they change.
    pub fn restore(config: UMicroConfig, snapshot: &ClusterSetSnapshot<Ecf>) -> Self {
        let mut alg = Self::new(config);
        for (id, ecf) in &snapshot.clusters {
            debug_assert_eq!(ecf.dims(), alg.config.dims);
            alg.clusters.push(MicroCluster::from_shared(*id, ecf));
            alg.next_id = alg.next_id.max(id + 1);
        }
        alg.inserted = alg.clusters.iter().map(|c| c.ecf.point_count()).sum();
        alg.global.refresh(alg.clusters.iter().map(|c| &c.ecf));
        alg.refresh_inv_coefficients();
        alg.rebuild_kernel();
        alg
    }

    /// Offline macro-clustering of the live micro-clusters into `k`
    /// higher-level clusters (weighted k-means over ECF centroids).
    pub fn macro_cluster(&self, k: usize, seed: u64) -> MacroClustering {
        macro_cluster_ecfs(self.clusters.iter().map(|c| (c.id, &c.ecf)), k, seed)
    }

    /// Exports the complete mutable state for checkpointing — unlike
    /// [`UMicro::snapshot`] this includes the id allocator, the insertion
    /// counter, the variance-refresh phase and the cached global variances,
    /// so [`UMicro::import_state`] continues the stream exactly where this
    /// instance left off. Summaries unchanged since the last snapshot are
    /// shared with it.
    pub fn export_state(&self) -> ClustererState<Ecf> {
        ClustererState {
            ids: self.clusters.iter().map(|c| c.id).collect(),
            summaries: self.clusters.iter().map(MicroCluster::current).collect(),
            next_id: self.next_id,
            points_processed: self.inserted,
            since_refresh: self.since_refresh as u64,
            variances: self.global.variances().to_vec(),
            last_seen: 0,
        }
    }

    /// Replaces this instance's state with a previously exported one.
    ///
    /// The configuration is *not* part of the state — the caller constructs
    /// the instance with the intended configuration first. Fails without
    /// modifying `self` when the state is structurally invalid or its
    /// summaries disagree with the configured dimensionality. The imported
    /// clusters share the state's summaries until they change.
    pub fn import_state(&mut self, state: &ClustererState<Ecf>) -> Result<(), UStreamError> {
        state.validate().map_err(UStreamError::Checkpoint)?;
        for ecf in &state.summaries {
            if ecf.dims() != self.config.dims {
                return Err(UStreamError::DimensionMismatch {
                    expected: self.config.dims,
                    actual: ecf.dims(),
                });
            }
        }
        self.clusters = state
            .ids
            .iter()
            .zip(&state.summaries)
            .map(|(id, ecf)| MicroCluster::from_shared(*id, ecf))
            .collect();
        self.next_id = state.next_id;
        self.inserted = state.points_processed;
        self.since_refresh = state.since_refresh as usize;
        if state.variances.len() == self.config.dims {
            self.global.restore_variances(&state.variances);
        } else {
            // Older or partial states: rebuild from the summaries, same as
            // the snapshot-based `restore`.
            self.global.refresh(self.clusters.iter().map(|c| &c.ecf));
        }
        self.refresh_inv_coefficients();
        self.rebuild_kernel();
        Ok(())
    }

    // --- internals -------------------------------------------------------

    /// Keeps the clusters `keep` returns `true` for, letting it edit each
    /// one's statistics in place (the decayed wrapper's synchronisation),
    /// then rebuilds the kernel from the survivors.
    pub(crate) fn retain_clusters(&mut self, keep: impl FnMut(&mut MicroCluster) -> bool) {
        self.clusters.retain_mut(keep);
        self.rebuild_kernel();
    }

    /// Rebuilds the kernel mirror from the live cluster set.
    fn rebuild_kernel(&mut self) {
        self.kernel.rebuild(self.clusters.iter().map(|c| &c.ecf));
    }

    /// Expected squared distance to cluster `idx` (Lemma 2.2) from the
    /// cached kernel row.
    fn expected_sq_distance_to(&self, point: &UncertainPoint, idx: usize) -> f64 {
        self.kernel
            .expected_sq_distance(point.values(), point.errors(), idx)
    }

    fn create_cluster(&mut self, point: &UncertainPoint) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let ecf = Ecf::from_point(point);
        self.kernel.push(&ecf);
        self.clusters.push(MicroCluster::new(id, ecf));
        id
    }

    /// Evicts the least-recently-updated cluster if the budget is exceeded.
    /// The just-created cluster (`protect`) is never the victim — it is by
    /// definition the most recently updated, but floating ties at equal
    /// timestamps must not delete it.
    fn enforce_budget(&mut self, protect: u64) -> Option<u64> {
        if self.clusters.len() <= self.config.n_micro {
            return None;
        }
        let victim_idx = self
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.id != protect)
            .min_by_key(|(_, c)| (c.ecf.last_update(), c.id))
            .map(|(i, _)| i)?;
        let victim = self.clusters.swap_remove(victim_idx);
        // Mirror the swap-remove so row i keeps tracking cluster i.
        self.kernel.swap_remove(victim_idx);
        Some(victim.id)
    }

    /// Index of the closest cluster under the configured similarity. When
    /// `scored` and the ranking runs the kernel's fused sweep, the sweep
    /// also yields the lowest corrected squared distance (the second
    /// value); otherwise that is `None`.
    fn closest_cluster(&self, point: &UncertainPoint, scored: bool) -> (usize, Option<f64>) {
        debug_assert!(!self.clusters.is_empty());
        if matches!(self.config.similarity, SimilarityMode::ExpectedDistance)
            || !self.global.is_informative()
        {
            // Expected-distance mode, or early stream with no variance
            // estimate yet.
            return (self.closest_by_expected_distance(point), None);
        }
        let (values, errors, inv) = (point.values(), point.errors(), &self.scratch_inv);
        let swept = if scored {
            self.kernel
                .rank_fused_scored(values, errors, inv)
                .map(|(fused, corrected)| (fused, Some(corrected)))
        } else {
            self.kernel
                .rank_fused(values, errors, inv)
                .map(|f| (f, None))
        };
        let (fused, corrected) = swept
            // lint:allow(hot-panic): kernel mirrors self.clusters, checked non-empty above
            .expect("ranking requires a non-empty cluster set");
        // The point earned no credit anywhere (far from all clusters on
        // every informative dimension): fall back to expected-distance
        // ranking, whose argmin the fused sweep already carries — no second
        // pass over the rows.
        let best = if fused.sim <= 0.0 {
            fused.dist_idx
        } else {
            fused.sim_idx
        };
        (best, corrected)
    }

    fn closest_by_expected_distance(&self, point: &UncertainPoint) -> usize {
        self.kernel
            .nearest_expected(point.values(), point.errors())
            .map_or(0, |(best, _)| best)
    }

    fn nearest_other_centroid_sq(&self, idx: usize) -> f64 {
        self.kernel
            .nearest_other_centroid_sq(idx)
            .unwrap_or(f64::INFINITY)
    }

    fn maybe_refresh_variances(&mut self) {
        self.since_refresh += 1;
        if self.since_refresh >= self.config.variance_refresh_interval {
            self.since_refresh = 0;
            self.global.refresh(self.clusters.iter().map(|c| &c.ecf));
            self.refresh_inv_coefficients();
        }
    }

    /// Re-derives the cached `1/(thresh·σ_j²)` coefficients after a global
    /// variance refresh.
    fn refresh_inv_coefficients(&mut self) {
        if let SimilarityMode::DimensionCounting { thresh } = self.config.similarity {
            self.global
                .inverse_coefficients_into(thresh, &mut self.scratch_inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_common::ClassLabel;

    use ustream_common::Timestamp;

    fn pt(values: &[f64], errors: &[f64], t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec(), t, None)
    }

    fn config(n_micro: usize, dims: usize) -> UMicroConfig {
        UMicroConfig::new(n_micro, dims).unwrap()
    }

    #[test]
    fn first_point_seeds_cluster() {
        let mut alg = UMicro::new(config(4, 2));
        let out = alg.insert(&pt(&[1.0, 1.0], &[0.1, 0.1], 1));
        assert!(out.created);
        assert_eq!(out.evicted, None);
        assert_eq!(alg.micro_clusters().len(), 1);
        assert_eq!(alg.points_processed(), 1);
    }

    #[test]
    fn nearby_uncertain_points_absorb_once_budget_full() {
        let mut alg = UMicro::new(config(2, 2));
        // Bootstrap: two singleton seeds fill the budget.
        alg.insert(&pt(&[0.0, 0.0], &[0.5, 0.5], 1));
        alg.insert(&pt(&[20.0, 20.0], &[0.5, 0.5], 2));
        // A close noisy point now absorbs into the origin seed (its
        // uncertain radius √(2Σψ²) = 1 gives a 3σ boundary of 3).
        let out = alg.insert(&pt(&[0.3, -0.2], &[0.5, 0.5], 3));
        assert!(!out.created, "close noisy point should absorb");
        assert_eq!(alg.micro_clusters().len(), 2);
        assert_eq!(alg.micro_clusters()[0].ecf.point_count(), 2);
    }

    #[test]
    fn bootstrap_fills_budget_with_singletons() {
        let mut alg = UMicro::new(config(3, 1));
        // Identical points still seed separate clusters until the budget
        // fills (§II-A).
        for t in 1..=3u64 {
            let out = alg.insert(&pt(&[0.0], &[0.2], t));
            assert!(out.created);
            assert_eq!(out.evicted, None);
        }
        assert_eq!(alg.micro_clusters().len(), 3);
        // The next identical point absorbs instead.
        let out = alg.insert(&pt(&[0.0], &[0.2], 4));
        assert!(!out.created);
    }

    #[test]
    fn distant_point_creates_cluster() {
        let mut alg = UMicro::new(config(2, 2));
        alg.insert(&pt(&[0.0, 0.0], &[0.1, 0.1], 1));
        alg.insert(&pt(&[0.1, 0.1], &[0.1, 0.1], 2));
        // Budget full; a distant point must evict the least recently
        // updated seed rather than being absorbed.
        let out = alg.insert(&pt(&[50.0, 50.0], &[0.1, 0.1], 3));
        assert!(out.created);
        assert_eq!(out.evicted, Some(0));
        assert_eq!(alg.micro_clusters().len(), 2);
    }

    #[test]
    fn distant_point_creates_cluster_uncorrected_mode() {
        use crate::config::BoundaryMode;
        let mut alg = UMicro::new(config(2, 2).with_boundary_mode(BoundaryMode::UncertainRadius));
        alg.insert(&pt(&[0.0, 0.0], &[0.1, 0.1], 1));
        alg.insert(&pt(&[0.1, 0.1], &[0.1, 0.1], 2));
        let out = alg.insert(&pt(&[50.0, 50.0], &[0.1, 0.1], 3));
        assert!(out.created);
        assert_eq!(out.evicted, Some(0));
        assert_eq!(alg.micro_clusters().len(), 2);
    }

    #[test]
    fn budget_enforced_by_lru_eviction() {
        let mut alg = UMicro::new(config(2, 1));
        // Three mutually distant singletons with tiny errors.
        alg.insert(&pt(&[0.0], &[0.01], 1));
        alg.insert(&pt(&[100.0], &[0.01], 2));
        // 250 is farther from the nearest seed (150) than that seed's
        // borrowed boundary (100), so a new cluster is created.
        let out = alg.insert(&pt(&[250.0], &[0.01], 3));
        assert!(out.created);
        // The least recently updated cluster (t=1, centred at 0) is evicted.
        assert_eq!(out.evicted, Some(0));
        assert_eq!(alg.micro_clusters().len(), 2);
        let centroids: Vec<f64> = alg
            .micro_clusters()
            .iter()
            .map(|c| c.ecf.centroid()[0])
            .collect();
        assert!(centroids.contains(&100.0));
        assert!(centroids.contains(&250.0));
    }

    #[test]
    fn eviction_never_removes_the_new_cluster() {
        let mut alg = UMicro::new(config(1, 1));
        alg.insert(&pt(&[0.0], &[0.01], 5));
        // Same timestamp as existing cluster: tie must evict the *old* one.
        let out = alg.insert(&pt(&[100.0], &[0.01], 5));
        assert!(out.created);
        assert_eq!(out.evicted, Some(0));
        assert_eq!(alg.micro_clusters()[0].id, 1);
    }

    #[test]
    fn two_blobs_end_up_in_distinct_clusters() {
        let mut alg = UMicro::new(config(8, 2));
        let mut t = 0;
        for i in 0..40 {
            t += 1;
            let wiggle = (i % 5) as f64 * 0.05;
            alg.insert(&pt(&[wiggle, -wiggle], &[0.2, 0.2], t));
            t += 1;
            alg.insert(&pt(&[10.0 + wiggle, 10.0 - wiggle], &[0.2, 0.2], t));
        }
        // Both blobs must be represented and no cluster may straddle them.
        assert!(alg.micro_clusters().len() >= 2);
        for c in alg.micro_clusters() {
            let cen = c.ecf.centroid();
            let near_a = cen[0] < 5.0;
            let near_b = cen[0] > 5.0;
            assert!(near_a || near_b);
            if c.ecf.point_count() > 1 {
                // Multi-point clusters must sit tightly inside one blob.
                assert!(cen[0] < 2.0 || cen[0] > 8.0, "straddling centroid: {cen:?}");
            }
        }
    }

    #[test]
    fn ids_are_stable_and_unique() {
        let mut alg = UMicro::new(config(3, 1));
        let mut seen = std::collections::HashSet::new();
        for i in 0..20 {
            let out = alg.insert(&pt(&[(i * 37 % 11) as f64 * 50.0], &[0.01], i as Timestamp));
            if out.created {
                assert!(seen.insert(out.cluster_id), "id reuse: {}", out.cluster_id);
            }
        }
    }

    #[test]
    fn snapshot_matches_live_state() {
        let mut alg = UMicro::new(config(4, 1));
        alg.insert(&pt(&[0.0], &[0.1], 1));
        alg.insert(&pt(&[100.0], &[0.1], 2));
        let snap = alg.snapshot();
        assert_eq!(snap.len(), 2);
        for c in alg.micro_clusters() {
            let in_snap = &snap.clusters[&c.id];
            assert_eq!(in_snap.cf1(), c.ecf.cf1());
        }
    }

    #[test]
    fn macro_clustering_groups_micro_clusters() {
        let mut alg = UMicro::new(config(20, 2));
        let mut t = 0;
        for i in 0..60 {
            t += 1;
            let (cx, cy) = match i % 3 {
                0 => (0.0, 0.0),
                1 => (20.0, 0.0),
                _ => (0.0, 20.0),
            };
            let w = (i % 4) as f64 * 0.1;
            alg.insert(&pt(&[cx + w, cy - w], &[0.3, 0.3], t));
        }
        let mac = alg.macro_cluster(3, 9);
        assert_eq!(mac.centroids.len(), 3);
        // Each macro centroid should land near one of the three blobs.
        for c in &mac.centroids {
            let near = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)]
                .iter()
                .any(|(x, y)| (c[0] - x).abs() < 3.0 && (c[1] - y).abs() < 3.0);
            assert!(near, "macro centroid {c:?} near no blob");
        }
    }

    #[test]
    fn expected_distance_mode_also_works() {
        let mut alg = UMicro::new(config(2, 2).with_expected_distance());
        alg.insert(&pt(&[0.0, 0.0], &[0.3, 0.3], 1));
        alg.insert(&pt(&[0.2, 0.2], &[0.3, 0.3], 2));
        let out = alg.insert(&pt(&[30.0, 30.0], &[0.3, 0.3], 3));
        assert!(out.created);
        assert_eq!(alg.micro_clusters().len(), 2);
        // And a point near the surviving seeds absorbs.
        let out = alg.insert(&pt(&[0.1, 0.1], &[0.3, 0.3], 4));
        assert!(!out.created);
    }

    #[test]
    fn labels_do_not_affect_clustering() {
        let mut a = UMicro::new(config(4, 1));
        let mut b = UMicro::new(config(4, 1));
        for i in 0..30u64 {
            let x = (i % 3) as f64 * 40.0;
            let unl = pt(&[x], &[0.1], i);
            let lab = unl.clone().with_label(ClassLabel((i % 2) as u32));
            a.insert(&unl);
            b.insert(&lab);
        }
        assert_eq!(a.micro_clusters().len(), b.micro_clusters().len());
        for (ca, cb) in a.micro_clusters().iter().zip(b.micro_clusters()) {
            assert_eq!(ca.ecf.cf1(), cb.ecf.cf1());
        }
    }

    #[test]
    fn restore_round_trips_state() {
        let mut alg = UMicro::new(config(6, 2));
        for i in 0..100u64 {
            let x = (i % 3) as f64 * 30.0;
            alg.insert(&pt(&[x, -x], &[0.4, 0.4], i));
        }
        let snap = alg.snapshot();
        let restored = UMicro::restore(config(6, 2), &snap);
        assert_eq!(restored.micro_clusters().len(), alg.micro_clusters().len());
        assert_eq!(restored.points_processed(), 100);
        for (a, b) in alg.micro_clusters().iter().zip(restored.micro_clusters()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.ecf.cf1(), b.ecf.cf1());
        }
        // Fresh ids continue past the restored ones.
        let max_id = alg.micro_clusters().iter().map(|c| c.id).max().unwrap();
        let mut restored = restored;
        let out = restored.insert(&pt(&[999.0, 999.0], &[0.4, 0.4], 101));
        assert!(out.created);
        assert!(out.cluster_id > max_id, "id reuse after restore");
        // Global variances were rebuilt from the snapshot.
        assert!(restored.global_variances()[0] > 1.0);
    }

    #[test]
    fn restore_then_stream_matches_continuous_run() {
        // Split a stream at a variance-refresh boundary: restoring there
        // and continuing must equal the uninterrupted run exactly.
        let mut cfg = config(8, 1);
        cfg.variance_refresh_interval = 50;
        let points: Vec<UncertainPoint> = (0..200u64)
            .map(|i| pt(&[(i % 4) as f64 * 25.0], &[0.3], i))
            .collect();

        let mut continuous = UMicro::new(cfg.clone());
        for p in &points {
            continuous.insert(p);
        }

        let mut first_half = UMicro::new(cfg.clone());
        for p in &points[..100] {
            first_half.insert(p);
        }
        let mut resumed = UMicro::restore(cfg, &first_half.snapshot());
        for p in &points[100..] {
            resumed.insert(p);
        }
        assert_eq!(
            continuous.micro_clusters().len(),
            resumed.micro_clusters().len()
        );
        let mut a: Vec<_> = continuous.micro_clusters().iter().map(|c| c.id).collect();
        let mut b: Vec<_> = resumed.micro_clusters().iter().map(|c| c.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "cluster identity must survive restore");
    }

    #[test]
    fn nan_point_is_rejected_not_absorbed() {
        let mut alg = UMicro::new(config(4, 2));
        alg.insert(&pt(&[0.0, 0.0], &[0.1, 0.1], 1));
        alg.insert(&pt(&[5.0, 5.0], &[0.1, 0.1], 2));
        let before: Vec<_> = alg
            .micro_clusters()
            .iter()
            .map(|c| (c.id, c.ecf.cf1().to_vec()))
            .collect();
        let out = alg.insert(&pt(&[f64::NAN, 1.0], &[0.1, 0.1], 3));
        assert!(out.is_rejected());
        assert_eq!(out.cluster_id, InsertOutcome::REJECTED_ID);
        // No statistic moved and the counter did not advance.
        assert_eq!(alg.points_processed(), 2);
        let after: Vec<_> = alg
            .micro_clusters()
            .iter()
            .map(|c| (c.id, c.ecf.cf1().to_vec()))
            .collect();
        assert_eq!(before, after);
        // Infinity is rejected the same way.
        assert!(alg
            .insert(&pt(&[f64::INFINITY, 0.0], &[0.1, 0.1], 4))
            .is_rejected());
        // A sane point still clusters normally afterwards.
        assert!(!alg.insert(&pt(&[0.1, 0.1], &[0.1, 0.1], 5)).is_rejected());
    }

    #[test]
    fn export_import_state_continues_identically() {
        let mut cfg = config(8, 1);
        cfg.variance_refresh_interval = 37; // deliberately misaligned split
        let points: Vec<UncertainPoint> = (0..200u64)
            .map(|i| pt(&[(i % 4) as f64 * 25.0 + (i % 7) as f64 * 0.1], &[0.3], i))
            .collect();

        let mut continuous = UMicro::new(cfg.clone());
        for p in &points {
            continuous.insert(p);
        }

        let mut first_half = UMicro::new(cfg.clone());
        for p in &points[..101] {
            first_half.insert(p);
        }
        let state = first_half.export_state();
        let mut resumed = UMicro::new(cfg);
        resumed.import_state(&state).unwrap();
        for p in &points[101..] {
            resumed.insert(p);
        }
        // Bit-for-bit identical final state — the split point was NOT on a
        // variance-refresh boundary, which snapshot-based restore cannot
        // survive but full-state restore must.
        assert_eq!(
            continuous.micro_clusters().len(),
            resumed.micro_clusters().len()
        );
        for (a, b) in continuous
            .micro_clusters()
            .iter()
            .zip(resumed.micro_clusters())
        {
            assert_eq!(a.id, b.id);
            assert_eq!(a.ecf.cf1(), b.ecf.cf1());
            assert_eq!(a.ecf.cf2(), b.ecf.cf2());
            assert_eq!(a.ecf.ef2(), b.ecf.ef2());
        }
        assert_eq!(continuous.points_processed(), resumed.points_processed());
    }

    #[test]
    fn import_state_rejects_corrupt_states() {
        let mut alg = UMicro::new(config(4, 2));
        alg.insert(&pt(&[0.0, 0.0], &[0.1, 0.1], 1));
        let mut state = alg.export_state();
        state.summaries.pop();
        let mut target = UMicro::new(config(4, 2));
        assert!(target.import_state(&state).is_err());
        // Dimension mismatch is caught too.
        let state = alg.export_state();
        let mut wrong_dims = UMicro::new(config(4, 3));
        assert!(wrong_dims.import_state(&state).is_err());
    }

    #[test]
    fn variance_refresh_populates_globals() {
        let mut cfg = config(8, 2);
        cfg.variance_refresh_interval = 5;
        let mut alg = UMicro::new(cfg);
        for i in 0..20u64 {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            alg.insert(&pt(&[x, 0.5], &[0.1, 0.1], i));
        }
        let vars = alg.global_variances();
        assert!(vars[0] > 1.0, "dim 0 variance should be large: {vars:?}");
        assert!(vars[1] < vars[0]);
    }
}
