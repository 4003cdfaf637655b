//! The CluStream online micro-clustering phase (VLDB'03 §3).
//!
//! Maintenance per arriving point:
//!
//! 1. find the nearest micro-cluster centroid by Euclidean distance;
//! 2. absorb the point if it lies within the cluster's *maximal boundary* —
//!    a factor `t` of the RMS deviation of the cluster's points about the
//!    centroid (singletons use the distance to the nearest other cluster);
//! 3. otherwise create a singleton micro-cluster and restore the budget by
//!    **deleting** the cluster with the oldest relevance stamp if it is
//!    older than `δ` ticks, or else **merging** the two closest clusters.

use crate::feature::CfVector;
use crate::macrocluster::{macro_cluster_cfs, MacroClustering};
use serde::{Deserialize, Serialize};
use umicro::kernel::ClusterKernel;
use ustream_common::{AdditiveFeature, Result, Timestamp, UStreamError, UncertainPoint};
use ustream_snapshot::ClusterSetSnapshot;

/// CluStream configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CluStreamConfig {
    /// Micro-cluster budget.
    pub n_micro: usize,
    /// Stream dimensionality.
    pub dims: usize,
    /// Maximal-boundary factor `t` on the RMS deviation (VLDB'03 uses 2).
    pub boundary_factor: f64,
    /// Relevance-stamp sample size `m`.
    pub m: usize,
    /// Staleness threshold `δ` in ticks: a cluster may be deleted when its
    /// relevance stamp is older than `now − δ`.
    pub delta: u64,
}

impl CluStreamConfig {
    /// Validated constructor with the original paper's defaults
    /// (`t = 2`, `m = 100`, `δ = 512`).
    pub fn new(n_micro: usize, dims: usize) -> Result<Self> {
        let cfg = Self {
            n_micro,
            dims,
            boundary_factor: 2.0,
            m: 100,
            delta: 512,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks parameter domains.
    pub fn validate(&self) -> Result<()> {
        if self.n_micro == 0 {
            return Err(UStreamError::InvalidConfig("n_micro must be >= 1".into()));
        }
        if self.dims == 0 {
            return Err(UStreamError::InvalidConfig("dims must be >= 1".into()));
        }
        if !(self.boundary_factor.is_finite() && self.boundary_factor > 0.0) {
            return Err(UStreamError::InvalidConfig(format!(
                "boundary_factor must be positive, got {}",
                self.boundary_factor
            )));
        }
        if self.m == 0 {
            return Err(UStreamError::InvalidConfig("m must be >= 1".into()));
        }
        Ok(())
    }
}

/// A live deterministic micro-cluster.
#[derive(Debug, Clone)]
pub struct CluMicroCluster {
    /// Stable id; merged clusters keep the id of the larger participant and
    /// record the other in `merged_ids`.
    pub id: u64,
    /// Ids of clusters merged into this one (the VLDB'03 "idlist").
    pub merged_ids: Vec<u64>,
    /// The feature vector.
    pub cf: CfVector,
}

/// Outcome of a CluStream insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CluStreamInsert {
    /// Id of the micro-cluster that received the point.
    pub cluster_id: u64,
    /// Whether a new micro-cluster was created for the point.
    pub created: bool,
    /// Id of a deleted stale cluster, if deletion restored the budget.
    pub deleted: Option<u64>,
    /// Ids `(survivor, absorbed)` if a merge restored the budget.
    pub merged: Option<(u64, u64)>,
}

/// The CluStream online algorithm.
#[derive(Debug, Clone)]
pub struct CluStream {
    config: CluStreamConfig,
    clusters: Vec<CluMicroCluster>,
    next_id: u64,
    inserted: u64,
    /// SoA mirror of `clusters` (zero noise rows), row `i` for cluster `i`
    /// at all times, serving nearest-centroid ranking, closest-pair merges
    /// and cached RMS radii.
    kernel: ClusterKernel,
}

impl CluStream {
    /// Creates the algorithm with a validated configuration.
    pub fn new(config: CluStreamConfig) -> Self {
        config
            .validate()
            // lint:allow(hot-panic): constructor contract — fails fast at setup, never on the stream path
            .expect("CluStreamConfig must be validated before use");
        let dims = config.dims;
        Self {
            config,
            clusters: Vec::new(),
            next_id: 0,
            inserted: 0,
            kernel: ClusterKernel::new(dims),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CluStreamConfig {
        &self.config
    }

    /// Points processed so far.
    pub fn points_processed(&self) -> u64 {
        self.inserted
    }

    /// The live micro-clusters.
    pub fn micro_clusters(&self) -> &[CluMicroCluster] {
        &self.clusters
    }

    /// The kernel mirroring the live cluster set: row `i` mirrors
    /// `micro_clusters()[i]`.
    pub fn kernel(&self) -> &ClusterKernel {
        &self.kernel
    }

    /// Squared Euclidean distance from `values` to the nearest centroid:
    /// one kernel sweep (its rows carry zero noise, so the error-corrected
    /// sweep with zero errors is the plain distance). `INFINITY` when there
    /// are no clusters or no centroid is a finite distance away.
    pub(crate) fn nearest_sq_distance(&self, values: &[f64]) -> f64 {
        self.kernel.min_sq_euclidean(values)
    }

    /// Processes one stream point (error vector ignored).
    pub fn insert(&mut self, point: &UncertainPoint) -> CluStreamInsert {
        debug_assert_eq!(point.dims(), self.config.dims);
        debug_assert_eq!(self.kernel.len(), self.clusters.len());
        self.inserted += 1;
        let now = point.timestamp();

        // Bootstrap: fill the budget with singleton seeds (the VLDB'03
        // paper seeds its micro-clusters with an offline k-means over the
        // first InitNumber points; spreading singletons achieves the same
        // tiling online and keeps the comparison with UMicro symmetric).
        if self.clusters.len() < self.config.n_micro {
            let id = self.create_cluster(point);
            return CluStreamInsert {
                cluster_id: id,
                created: true,
                deleted: None,
                merged: None,
            };
        }

        // Nearest centroid by plain Euclidean distance from cached rows.
        let (best, d2) = self
            .kernel
            .nearest_deterministic(point.values())
            // lint:allow(hot-panic): insert() seeds a cluster before any nearest scan
            .expect("non-empty cluster list");

        // Maximal boundary: t × RMS deviation; singletons borrow the
        // distance to the nearest other cluster.
        let radius = self.kernel.uncertain_radius(best);
        let boundary = if self.clusters[best].cf.n() > 1.0 && radius > 1e-9 {
            self.config.boundary_factor * radius
        } else if self.clusters.len() > 1 {
            self.nearest_other_centroid_sq(best).sqrt()
        } else {
            // Lone degenerate cluster: no radius and no neighbour to borrow
            // a boundary from — split so the stream can bootstrap structure.
            0.0
        };

        if d2.sqrt() <= boundary {
            self.clusters[best].cf.insert(point);
            let cluster_id = self.clusters[best].id;
            self.kernel.refresh(best, &self.clusters[best].cf);
            return CluStreamInsert {
                cluster_id,
                created: false,
                deleted: None,
                merged: None,
            };
        }

        let id = self.create_cluster(point);
        let (deleted, merged) = self.restore_budget(now, id);
        CluStreamInsert {
            cluster_id: id,
            created: true,
            deleted,
            merged,
        }
    }

    /// Processes a mini-batch of stream points, appending one outcome per
    /// point to `out`.
    pub fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<CluStreamInsert>) {
        out.reserve(points.len());
        for p in points {
            out.push(self.insert(p));
        }
    }

    /// Offline initialisation, as in VLDB'03: "the initial micro-clusters
    /// are created using an offline process … a standard k-means algorithm
    /// on the first `InitNumber` points". Runs weighted k-means with
    /// `k = n_micro` over the buffered points and seeds one micro-cluster
    /// per non-empty k-means cluster.
    ///
    /// # Panics
    /// Panics if called after streaming has begun (micro-clusters exist).
    pub fn seed_with_kmeans(&mut self, init_points: &[UncertainPoint], seed: u64) {
        assert!(
            self.clusters.is_empty(),
            "seed_with_kmeans must run before any insertions"
        );
        if init_points.is_empty() {
            return;
        }
        let dpoints: Vec<ustream_common::DeterministicPoint> =
            init_points.iter().map(Into::into).collect();
        let res = ustream_kmeans::kmeans(
            &dpoints,
            &ustream_kmeans::KMeansConfig::new(self.config.n_micro, seed),
        );
        let mut features: Vec<Option<CfVector>> = vec![None; res.centroids.len()];
        for (p, &a) in init_points.iter().zip(&res.assignments) {
            features[a]
                .get_or_insert_with(|| CfVector::empty(self.config.dims))
                .insert(p);
        }
        for cf in features.into_iter().flatten() {
            let id = self.next_id;
            self.next_id += 1;
            self.clusters.push(CluMicroCluster {
                id,
                merged_ids: Vec::new(),
                cf,
            });
        }
        self.inserted += init_points.len() as u64;
        self.kernel.rebuild(self.clusters.iter().map(|c| &c.cf));
    }

    /// Snapshot keyed by stable id, for pyramidal storage.
    pub fn snapshot(&self) -> ClusterSetSnapshot<CfVector> {
        ClusterSetSnapshot::from_pairs(self.clusters.iter().map(|c| (c.id, c.cf.clone())))
    }

    /// Offline macro-clustering over the live micro-clusters.
    pub fn macro_cluster(&self, k: usize, seed: u64) -> MacroClustering {
        macro_cluster_cfs(self.clusters.iter().map(|c| (c.id, &c.cf)), k, seed)
    }

    // --- internals -------------------------------------------------------

    fn create_cluster(&mut self, point: &UncertainPoint) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let cf = CfVector::from_point(point);
        self.kernel.push(&cf);
        self.clusters.push(CluMicroCluster {
            id,
            merged_ids: Vec::new(),
            cf,
        });
        id
    }

    /// Deletes a stale cluster or merges the closest pair to return to the
    /// budget. The freshly created cluster (`protect`) is exempt from
    /// deletion (but may participate in a merge as the survivor).
    fn restore_budget(
        &mut self,
        now: Timestamp,
        protect: u64,
    ) -> (Option<u64>, Option<(u64, u64)>) {
        if self.clusters.len() <= self.config.n_micro {
            return (None, None);
        }

        // 1. Try deleting the cluster with the oldest relevance stamp.
        let threshold = now.saturating_sub(self.config.delta) as f64;
        let stale = self
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.id != protect)
            .map(|(i, c)| (i, c.cf.relevance_stamp(self.config.m)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((idx, stamp)) = stale {
            if stamp < threshold {
                let victim = self.clusters.swap_remove(idx);
                self.kernel.swap_remove(idx);
                return (Some(victim.id), None);
            }
        }

        // 2. Merge the two closest micro-clusters, from cached kernel rows
        // (no centroid allocations).
        let (i, j, _) = self
            .kernel
            .closest_pair()
            // lint:allow(hot-panic): only reached when clusters.len() exceeds the budget (>= 2)
            .expect("budget overflow implies at least two clusters");
        // Survivor = larger cluster; keeps its id and records the other's.
        let (survivor_idx, absorbed_idx) = if self.clusters[i].cf.n() >= self.clusters[j].cf.n() {
            (i, j)
        } else {
            (j, i)
        };
        let absorbed = self.clusters.swap_remove(absorbed_idx);
        self.kernel.swap_remove(absorbed_idx);
        // swap_remove may have moved the survivor.
        let survivor_idx = if survivor_idx == self.clusters.len() {
            absorbed_idx
        } else {
            survivor_idx
        };
        let survivor = &mut self.clusters[survivor_idx];
        survivor.cf.merge(&absorbed.cf);
        survivor.merged_ids.push(absorbed.id);
        survivor.merged_ids.extend(absorbed.merged_ids);
        let (survivor_id, absorbed_id) = (survivor.id, absorbed.id);
        self.kernel
            .refresh(survivor_idx, &self.clusters[survivor_idx].cf);
        (None, Some((survivor_id, absorbed_id)))
    }

    fn nearest_other_centroid_sq(&self, idx: usize) -> f64 {
        self.kernel
            .nearest_other_centroid_sq(idx)
            .unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(values: &[f64], t: Timestamp) -> UncertainPoint {
        UncertainPoint::certain(values.to_vec(), t, None)
    }

    fn config(n: usize, d: usize) -> CluStreamConfig {
        CluStreamConfig::new(n, d).unwrap()
    }

    #[test]
    fn validates_config() {
        assert!(CluStreamConfig::new(0, 2).is_err());
        assert!(CluStreamConfig::new(2, 0).is_err());
        let mut c = config(2, 2);
        c.boundary_factor = -1.0;
        assert!(c.validate().is_err());
        c.boundary_factor = 2.0;
        c.m = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn first_point_seeds() {
        let mut alg = CluStream::new(config(4, 2));
        let out = alg.insert(&pt(&[1.0, 1.0], 1));
        assert!(out.created);
        assert_eq!(alg.micro_clusters().len(), 1);
    }

    #[test]
    fn near_points_absorb_far_points_split() {
        let mut alg = CluStream::new(config(2, 1));
        // Bootstrap fills the budget with singleton seeds.
        assert!(alg.insert(&pt(&[0.0], 1)).created);
        assert!(alg.insert(&pt(&[0.5], 2)).created);
        // Singleton boundary is the distance to the nearest other cluster
        // (0.5), so 0.25 absorbs.
        let out = alg.insert(&pt(&[0.25], 3));
        assert!(!out.created);
        // A far point splits; with nothing stale, the closest pair merges
        // to restore the budget.
        let out = alg.insert(&pt(&[100.0], 4));
        assert!(out.created);
        assert!(out.merged.is_some());
        assert_eq!(alg.micro_clusters().len(), 2);
    }

    #[test]
    fn bootstrap_fills_budget_with_singletons() {
        let mut alg = CluStream::new(config(3, 1));
        for t in 1..=3u64 {
            assert!(alg.insert(&pt(&[0.0], t)).created);
        }
        assert_eq!(alg.micro_clusters().len(), 3);
    }

    #[test]
    fn stale_cluster_deleted_when_budget_exceeded() {
        let mut cfg = config(2, 1);
        cfg.delta = 10;
        let mut alg = CluStream::new(cfg);
        alg.insert(&pt(&[0.0], 1)); // cluster A, stale by t=100
        alg.insert(&pt(&[100.0], 99));
        // 250 is farther from B (150) than B's borrowed boundary (100), so a
        // third cluster is created and the budget must be restored.
        let out = alg.insert(&pt(&[250.0], 100));
        assert!(out.created);
        assert_eq!(out.deleted, Some(0), "stale cluster A should be deleted");
        assert_eq!(out.merged, None);
        assert_eq!(alg.micro_clusters().len(), 2);
    }

    #[test]
    fn closest_pair_merged_when_nothing_stale() {
        let mut cfg = config(2, 1);
        cfg.delta = 1_000_000; // nothing is ever stale.
        let mut alg = CluStream::new(cfg);
        alg.insert(&pt(&[0.0], 1));
        alg.insert(&pt(&[1.0], 2));
        // Budget exceeded; clusters at 0 and 1 are closest → merged.
        let out = alg.insert(&pt(&[500.0], 3));
        assert!(out.created);
        assert!(out.deleted.is_none());
        let (survivor, absorbed) = out.merged.expect("merge expected");
        assert!(survivor < 2 && absorbed < 2 && survivor != absorbed);
        assert_eq!(alg.micro_clusters().len(), 2);
        // The merged cluster recorded its absorbed id.
        let merged_cluster = alg
            .micro_clusters()
            .iter()
            .find(|c| c.id == survivor)
            .unwrap();
        assert_eq!(merged_cluster.merged_ids, vec![absorbed]);
        assert_eq!(merged_cluster.cf.n(), 2.0);
    }

    #[test]
    fn budget_never_exceeded() {
        let mut alg = CluStream::new(config(3, 1));
        for i in 0..200u64 {
            alg.insert(&pt(&[(i % 17) as f64 * 100.0], i));
            assert!(alg.micro_clusters().len() <= 3);
        }
    }

    #[test]
    fn two_blobs_separate() {
        let mut alg = CluStream::new(config(10, 2));
        for i in 0..100u64 {
            let (x, y) = if i % 2 == 0 { (0.0, 0.0) } else { (50.0, 50.0) };
            let w = (i % 7) as f64 * 0.1;
            alg.insert(&pt(&[x + w, y - w], i));
        }
        for c in alg.micro_clusters() {
            let cen = c.cf.centroid();
            assert!(
                cen[0] < 10.0 || cen[0] > 40.0,
                "cluster straddles blobs: {cen:?}"
            );
        }
    }

    #[test]
    fn snapshot_and_macro() {
        let mut alg = CluStream::new(config(10, 2));
        for i in 0..60u64 {
            let (x, y) = if i % 2 == 0 { (0.0, 0.0) } else { (30.0, 0.0) };
            alg.insert(&pt(&[x + (i % 5) as f64 * 0.1, y], i));
        }
        let snap = alg.snapshot();
        assert_eq!(snap.len(), alg.micro_clusters().len());
        let mac = alg.macro_cluster(2, 3);
        assert_eq!(mac.k(), 2);
    }

    #[test]
    fn kmeans_seeding_creates_clusters() {
        let mut alg = CluStream::new(config(4, 2));
        let init: Vec<UncertainPoint> = (0..40)
            .map(|i| {
                let (x, y) = match i % 4 {
                    0 => (0.0, 0.0),
                    1 => (10.0, 0.0),
                    2 => (0.0, 10.0),
                    _ => (10.0, 10.0),
                };
                let w = (i / 4) as f64 * 0.02;
                pt(&[x + w, y - w], i as u64)
            })
            .collect();
        alg.seed_with_kmeans(&init, 7);
        assert_eq!(alg.micro_clusters().len(), 4);
        assert_eq!(alg.points_processed(), 40);
        let total: f64 = alg.micro_clusters().iter().map(|c| c.cf.n()).sum();
        assert!((total - 40.0).abs() < 1e-9);
        // Streaming continues normally after seeding.
        let out = alg.insert(&pt(&[0.05, 0.05], 100));
        assert!(!out.created, "point near a seeded cluster should absorb");
    }

    #[test]
    fn kmeans_seeding_empty_is_noop() {
        let mut alg = CluStream::new(config(4, 2));
        alg.seed_with_kmeans(&[], 7);
        assert!(alg.micro_clusters().is_empty());
    }

    #[test]
    #[should_panic(expected = "before any insertions")]
    fn kmeans_seeding_after_stream_panics() {
        let mut alg = CluStream::new(config(4, 2));
        alg.insert(&pt(&[0.0, 0.0], 1));
        alg.seed_with_kmeans(&[pt(&[1.0, 1.0], 2)], 7);
    }

    #[test]
    fn processed_counter() {
        let mut alg = CluStream::new(config(4, 1));
        for i in 0..17u64 {
            alg.insert(&pt(&[i as f64], i));
        }
        assert_eq!(alg.points_processed(), 17);
    }
}
