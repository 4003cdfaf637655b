//! The time-decayed UMicro variant (§II-E, Definitions 2.2 and 2.3).
//!
//! Each point is weighted `w_t(X) = 2^{−λ (t_c − t(X))}`; the half-life of a
//! point is `1/λ`. Maintaining exact weights would require touching every
//! micro-cluster every tick, so the paper uses a *lazy* scheme: because all
//! points decay at the same multiplicative rate, a micro-cluster's
//! statistics are brought current with one multiply by
//! `2^{−λ (t_c − t_s)}` at the moment the cluster is next modified, where
//! `t_s` is its previous reference tick. A newly arriving point enters with
//! weight `2⁰ = 1` relative to "now".
//!
//! A subtlety the paper glosses: different clusters carry statistics
//! referenced to different ticks between touches. All *ratio* statistics
//! (centroid, per-dimension variance) are invariant under the uniform
//! scaling, so closest-cluster ranking is unaffected; only the `EF2/W²` and
//! `1/W` correction terms drift slightly until the next touch, which is the
//! "modestly accurate statistics" trade-off §II-E accepts. For comparisons
//! that need fully current statistics (snapshots, horizon analysis) use
//! [`DecayedUMicro::synchronize`].

use crate::algorithm::{InsertOutcome, MicroCluster, UMicro};
use crate::config::UMicroConfig;
use crate::ecf::Ecf;
use crate::macrocluster::MacroClustering;
use ustream_common::feature::lambda_for_half_life;
use ustream_common::{DecayableFeature, Timestamp, UncertainPoint};
use ustream_snapshot::ClusterSetSnapshot;

/// UMicro with exponential time decay.
#[derive(Debug, Clone)]
pub struct DecayedUMicro {
    inner: UMicro,
    lambda: f64,
    /// Clusters whose total decayed weight falls below this are dropped at
    /// synchronisation points — they no longer represent live behaviour.
    weight_floor: f64,
    last_seen: Timestamp,
}

impl DecayedUMicro {
    /// Creates the decayed algorithm from a half-life in ticks
    /// (Definition 2.2: half-life = `1/λ`).
    pub fn with_half_life(config: UMicroConfig, half_life: f64) -> Self {
        let lambda = lambda_for_half_life(half_life);
        Self {
            inner: UMicro::with_lambda(config, lambda),
            lambda,
            weight_floor: 1e-6,
            last_seen: 0,
        }
    }

    /// Creates the decayed algorithm from a raw decay rate `λ > 0`.
    pub fn with_lambda(config: UMicroConfig, lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        Self {
            inner: UMicro::with_lambda(config, lambda),
            lambda,
            weight_floor: 1e-6,
            last_seen: 0,
        }
    }

    /// The decay rate λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The half-life `1/λ` in ticks.
    pub fn half_life(&self) -> f64 {
        1.0 / self.lambda
    }

    /// The configuration in force.
    pub fn config(&self) -> &UMicroConfig {
        self.inner.config()
    }

    /// Points processed so far.
    pub fn points_processed(&self) -> u64 {
        self.inner.points_processed()
    }

    /// Live micro-clusters. Statistics may be referenced to each cluster's
    /// own last-touch tick; call [`Self::synchronize`] first when absolute
    /// weights across clusters must be comparable.
    pub fn micro_clusters(&self) -> &[MicroCluster] {
        self.inner.micro_clusters()
    }

    /// Inserts one stream point (lazy decay applied to the touched cluster).
    pub fn insert(&mut self, point: &UncertainPoint) -> InsertOutcome {
        if point.timestamp() > self.last_seen {
            self.last_seen = point.timestamp();
        }
        self.inner.insert(point)
    }

    /// Processes a mini-batch of stream points; see [`UMicro::insert_batch`].
    pub fn insert_batch(&mut self, points: &[UncertainPoint], out: &mut Vec<InsertOutcome>) {
        self.observe_ticks(points);
        self.inner.insert_batch(points, out);
    }

    /// Processes a mini-batch and reports each point's pre-insertion
    /// isolation beside its outcome; see [`UMicro::insert_batch_scored`].
    pub fn insert_batch_scored(
        &mut self,
        points: &[UncertainPoint],
        out: &mut Vec<(InsertOutcome, Option<f64>)>,
    ) {
        self.observe_ticks(points);
        self.inner.insert_batch_scored(points, out);
    }

    /// Error-corrected distance to the nearest micro-cluster, against the
    /// statistics as stored (each at its own reference tick — decay
    /// scales `EF2/W²` only until the next touch).
    pub(crate) fn corrected_isolation(&self, point: &UncertainPoint) -> Option<f64> {
        self.inner.corrected_isolation(point)
    }

    fn observe_ticks(&mut self, points: &[UncertainPoint]) {
        if let Some(last) = points.iter().map(|p| p.timestamp()).max() {
            if last > self.last_seen {
                self.last_seen = last;
            }
        }
    }

    /// The kernel mirroring the live cluster set; see [`UMicro::kernel`].
    /// (It mirrors the *statistics as stored* — lazily decayed clusters at
    /// their own reference ticks, exactly as [`Self::micro_clusters`]
    /// reports them.)
    pub fn kernel(&self) -> &crate::kernel::ClusterKernel {
        self.inner.kernel()
    }

    /// Brings every micro-cluster's statistics current to tick `now` and
    /// drops clusters whose decayed weight fell below the floor.
    pub fn synchronize(&mut self, now: Timestamp) {
        if now > self.last_seen {
            self.last_seen = now;
        }
        let lambda = self.lambda;
        let floor = self.weight_floor;
        self.inner.retain_clusters(|c: &mut MicroCluster| {
            // A cluster already current keeps sharing its last snapshot.
            if now > c.ecf.last_decay() {
                c.ecf_mut().decay_to(now, lambda);
            }
            c.ecf.weight() > floor
        });
    }

    /// Snapshot of the current state with all statistics synchronised to
    /// `now`, suitable for the pyramidal store.
    pub fn snapshot_at(&mut self, now: Timestamp) -> ClusterSetSnapshot<Ecf> {
        self.synchronize(now);
        self.inner.snapshot()
    }

    /// The live clusters with their statistics as stored, each at its own
    /// reference tick (no synchronisation), sharing every ECF the last
    /// snapshot captured and that has not changed since. Nothing in `self`
    /// changes.
    pub fn live_clusters(&self) -> ClusterSetSnapshot<Ecf> {
        self.inner.live_clusters()
    }

    /// Snapshot synchronised to the last observed tick — naming symmetry
    /// with [`UMicro::snapshot`]; prefer [`Self::snapshot_at`] when the
    /// caller knows the current clock.
    pub fn snapshot(&mut self) -> ClusterSetSnapshot<Ecf> {
        self.snapshot_at(self.last_seen)
    }

    /// Macro-clustering of the decayed micro-clusters (weights are the
    /// decayed `W(C)`, so recent behaviour dominates).
    pub fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        self.synchronize(self.last_seen);
        self.inner.macro_cluster(k, seed)
    }

    /// Exports the complete mutable state for checkpointing — raw lazily
    /// decayed statistics (each ECF keeps its own reference tick), *not*
    /// synchronised, so the restored instance resumes with bit-identical
    /// arithmetic. See [`UMicro::export_state`].
    pub fn export_state(&self) -> crate::state::ClustererState<Ecf> {
        let mut state = self.inner.export_state();
        state.last_seen = self.last_seen;
        state
    }

    /// Replaces this instance's state with a previously exported one; the
    /// decay rate comes from this instance's construction, not the state.
    /// See [`UMicro::import_state`].
    pub fn import_state(
        &mut self,
        state: &crate::state::ClustererState<Ecf>,
    ) -> Result<(), ustream_common::UStreamError> {
        self.inner.import_state(state)?;
        self.last_seen = state.last_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_common::AdditiveFeature;

    fn pt(values: &[f64], errors: &[f64], t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec(), t, None)
    }

    fn config(n: usize, d: usize) -> UMicroConfig {
        UMicroConfig::new(n, d).unwrap()
    }

    #[test]
    fn half_life_round_trip() {
        let alg = DecayedUMicro::with_half_life(config(4, 1), 200.0);
        assert!((alg.half_life() - 200.0).abs() < 1e-9);
        assert!((alg.lambda() - 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_non_positive_lambda() {
        let _ = DecayedUMicro::with_lambda(config(4, 1), 0.0);
    }

    #[test]
    fn weight_halves_after_half_life() {
        let mut alg = DecayedUMicro::with_half_life(config(4, 1), 100.0);
        alg.insert(&pt(&[0.0], &[0.2], 0));
        alg.synchronize(100);
        let w = alg.micro_clusters()[0].ecf.weight();
        assert!((w - 0.5).abs() < 1e-9, "weight after one half-life: {w}");
    }

    #[test]
    fn lazy_decay_applied_on_touch() {
        let mut alg = DecayedUMicro::with_half_life(config(1, 1), 100.0);
        alg.insert(&pt(&[0.0], &[0.3], 0));
        // 100 ticks later a nearby point arrives: the old contribution has
        // halved, the new point adds weight 1.
        alg.insert(&pt(&[0.1], &[0.3], 100));
        let c = &alg.micro_clusters()[0];
        assert_eq!(c.ecf.point_count(), 2);
        assert!((c.ecf.weight() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn centroid_tracks_recent_points_under_decay() {
        // Old mass at x=0, then the stream moves to x=6 (inside the 3σ
        // uncertainty boundary ≈ 7.5 for ψ = 2.5, so one cluster absorbs
        // both regimes): with a short half-life the centroid must end up far
        // closer to 6 than the unweighted mean 3.0 would be.
        let mut alg = DecayedUMicro::with_half_life(config(1, 1), 20.0);
        for t in 0..50u64 {
            alg.insert(&pt(&[0.0], &[2.5], t));
        }
        for t in 50..100u64 {
            alg.insert(&pt(&[6.0], &[2.5], t));
        }
        alg.synchronize(100);
        assert_eq!(alg.micro_clusters().len(), 1);
        let c = alg.micro_clusters()[0].ecf.centroid()[0];
        assert!(c > 5.0, "decayed centroid should chase recent data: {c}");
    }

    #[test]
    fn synchronize_drops_dead_clusters() {
        let mut alg = DecayedUMicro::with_half_life(config(4, 1), 10.0);
        alg.insert(&pt(&[0.0], &[0.1], 0));
        alg.insert(&pt(&[500.0], &[0.1], 1));
        assert_eq!(alg.micro_clusters().len(), 2);
        // 400 ticks = 40 half-lives: weights ~1e-12, below the floor.
        alg.synchronize(400);
        assert!(alg.micro_clusters().is_empty());
    }

    #[test]
    fn snapshot_at_synchronises() {
        let mut alg = DecayedUMicro::with_half_life(config(4, 1), 50.0);
        alg.insert(&pt(&[0.0], &[0.2], 0));
        alg.insert(&pt(&[300.0], &[0.2], 10));
        let snap = alg.snapshot_at(60);
        // Both clusters alive, weights current to tick 60.
        let weights: Vec<f64> = snap.clusters.values().map(|e| e.weight()).collect();
        assert_eq!(weights.len(), 2);
        for w in weights {
            assert!(w < 1.0 && w > 0.0);
        }
    }

    #[test]
    fn macro_cluster_over_decayed_state() {
        let mut alg = DecayedUMicro::with_half_life(config(8, 2), 100.0);
        let mut t = 0u64;
        for i in 0..40 {
            t += 1;
            let (x, y) = if i % 2 == 0 { (0.0, 0.0) } else { (15.0, 15.0) };
            alg.insert(&pt(&[x, y], &[0.3, 0.3], t));
        }
        let mac = alg.macro_cluster(2, 3);
        assert_eq!(mac.k(), 2);
    }
}
