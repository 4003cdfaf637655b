//! A feature-generic horizon tracker.
//!
//! [`HorizonTracker`] packages the recurring pattern on top of
//! [`SnapshotStore`]: record keyed cluster-set snapshots as the stream
//! advances, and answer "clusters of the window `(now − h, now]`" by keyed
//! subtraction. Both the deterministic CluStream feature vector and the
//! uncertain ECF run through the same tracker — the subtractive property is
//! all it needs. The [`SnapshotForm`] parameter picks how the pyramid holds
//! each snapshot between record and query; answers do not depend on it.

use crate::budget::{BudgetReport, SnapshotBudget};
use crate::form::SnapshotForm;
use crate::pyramid::PyramidConfig;
use crate::store::{ClusterSetSnapshot, SnapshotStore};
use std::marker::PhantomData;
use ustream_common::{AdditiveFeature, Result, Timestamp, UStreamError};

/// Records snapshots and answers horizon queries for any additive feature.
#[derive(Debug, Clone)]
pub struct HorizonTracker<F, S = ClusterSetSnapshot<F>> {
    store: SnapshotStore<S>,
    last_recorded: Timestamp,
    feature: PhantomData<fn() -> F>,
}

impl<F: AdditiveFeature, S: SnapshotForm<F>> HorizonTracker<F, S> {
    /// Tracker with the given pyramid geometry.
    pub fn new(config: PyramidConfig) -> Self {
        Self {
            store: SnapshotStore::new(config),
            last_recorded: 0,
            feature: PhantomData,
        }
    }

    /// Tracker with the default geometry (α = 2, l = 4).
    pub fn with_defaults() -> Self {
        Self::new(PyramidConfig::default())
    }

    /// The underlying snapshot store (persistence, inspection).
    pub fn store(&self) -> &SnapshotStore<S> {
        &self.store
    }

    /// Installs a memory budget on the underlying store, measured with
    /// [`ClusterSetSnapshot::approx_bytes`] whatever the stored form. See
    /// [`SnapshotBudget`].
    pub fn set_budget(&mut self, budget: SnapshotBudget) {
        self.store
            .set_budget(budget, <S as SnapshotForm<F>>::approx_bytes);
    }

    /// Budget accounting of the underlying store.
    pub fn budget_report(&self) -> BudgetReport {
        self.store.budget_report()
    }

    /// Records the cluster set active at tick `now`.
    pub fn record_snapshot(&mut self, now: Timestamp, snap: ClusterSetSnapshot<F>) {
        self.record_packed_with(now, S::pack(snap), drop);
    }

    /// Records a snapshot already in its stored form, so a caller can pack
    /// it before taking a lock, and hands the snapshots the store evicts to
    /// `evicted` (see [`SnapshotStore::record_with`]).
    pub fn record_packed_with(&mut self, now: Timestamp, packed: S, evicted: impl FnMut(S)) {
        self.store.record_with(now, packed, evicted);
        self.last_recorded = now;
    }

    /// Tick of the most recent recorded snapshot.
    pub fn last_recorded(&self) -> Timestamp {
        self.last_recorded
    }

    /// The cluster statistics of the window `(now − h, now]` via keyed
    /// subtraction (see [`ClusterSetSnapshot::subtract_past`]).
    pub fn horizon_clusters(&self, now: Timestamp, h: u64) -> Result<ClusterSetSnapshot<F>> {
        let current = self
            .store
            .find_at_or_before(now)
            .ok_or(UStreamError::HorizonUnavailable { requested: h })?;
        let base = self.store.horizon_base(current.time, h)?;
        let (current, base) = (current.data.unpack()?, base.data.unpack()?);
        Ok(current.subtract_past(&base))
    }
}

impl<F: AdditiveFeature> HorizonTracker<F> {
    /// The full snapshot at (or just before) `t`.
    pub fn clusters_at(&self, t: Timestamp) -> Option<&ClusterSetSnapshot<F>> {
        self.store.find_at_or_before(t).map(|s| &s.data)
    }

    /// The most recently recorded snapshot. Budgets never evict it.
    pub fn newest(&self) -> Option<&ClusterSetSnapshot<F>> {
        self.store.newest().map(|s| &s.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form::PackedSnapshot;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Toy {
        sum: f64,
        n: f64,
        t: Timestamp,
    }

    impl AdditiveFeature for Toy {
        fn dims(&self) -> usize {
            1
        }
        fn count(&self) -> f64 {
            self.n
        }
        fn last_update(&self) -> Timestamp {
            self.t
        }
        fn merge(&mut self, other: &Self) {
            self.sum += other.sum;
            self.n += other.n;
            self.t = self.t.max(other.t);
        }
        fn subtract(&mut self, other: &Self) {
            self.sum -= other.sum;
            self.n = (self.n - other.n).max(0.0);
        }
        fn centroid(&self) -> Vec<f64> {
            vec![self.sum / self.n.max(1e-12)]
        }
    }

    #[test]
    fn generic_tracker_round_trip() {
        let mut tracker: HorizonTracker<Toy> =
            HorizonTracker::new(PyramidConfig::new(2, 5).unwrap());
        // One cluster accumulating one unit per tick.
        for t in 1..=256u64 {
            tracker.record_snapshot(
                t,
                ClusterSetSnapshot::from_pairs([(
                    1u64,
                    Toy {
                        sum: t as f64,
                        n: t as f64,
                        t,
                    },
                )]),
            );
        }
        assert_eq!(tracker.last_recorded(), 256);
        let window = tracker.horizon_clusters(256, 64).unwrap();
        // The window holds exactly the last 64 units (256 and 192 are both
        // stored exactly).
        assert!((window.clusters[&1].n - 64.0).abs() < 1e-9);
        assert!(tracker.clusters_at(256).is_some());
        assert!(tracker.clusters_at(0).is_none());
    }

    ustream_common::codec_struct!(Toy {
        sum: f64,
        n: f64,
        t: Timestamp,
    });

    fn bits(snap: &ClusterSetSnapshot<Toy>) -> Vec<(u64, u64, u64, u64)> {
        snap.clusters
            .iter()
            .map(|(id, f)| (*id, f.sum.to_bits(), f.n.to_bits(), f.t))
            .collect()
    }

    /// A packed tracker answers bit for bit what the plain one answers, and
    /// a count and byte budget evicts the same snapshots from both.
    #[test]
    fn packed_form_answers_like_the_plain_form() {
        let budget = SnapshotBudget {
            max_bytes: Some(1_500),
            max_snapshots: Some(12),
        };
        let config = PyramidConfig::new(2, 3).unwrap();
        let mut plain: HorizonTracker<Toy> = HorizonTracker::new(config);
        let mut packed: HorizonTracker<Toy, PackedSnapshot<Toy>> = HorizonTracker::new(config);
        plain.set_budget(budget);
        packed.set_budget(budget);
        for t in 1..=300u64 {
            let snap = ClusterSetSnapshot::from_pairs((0..1 + t % 4).map(|id| {
                let toy = Toy {
                    sum: t as f64 * 0.1 + id as f64,
                    n: t as f64,
                    t,
                };
                (id, toy)
            }));
            plain.record_snapshot(t, snap.clone());
            packed.record_snapshot(t, snap);
            for h in [1, 7, 40, 250] {
                match (plain.horizon_clusters(t, h), packed.horizon_clusters(t, h)) {
                    (Ok(a), Ok(b)) => assert_eq!(bits(&a), bits(&b), "tick {t} horizon {h}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("tick {t} horizon {h}: {a:?} vs {b:?}"),
                }
            }
        }
        let report = plain.budget_report();
        assert!(report.evictions > 0, "the budget must have evicted");
        assert_eq!(report, packed.budget_report());
        assert_eq!(packed.last_recorded(), 300);
    }

    /// A tracker of shared pointers answers bit for bit what the plain one
    /// answers, evicts the same snapshots under a budget, and hands each
    /// evicted pointer to the `record_packed_with` sink.
    #[test]
    fn shared_form_answers_like_the_plain_form() {
        use std::sync::Arc;
        let budget = SnapshotBudget {
            max_bytes: Some(1_500),
            max_snapshots: Some(12),
        };
        let config = PyramidConfig::new(2, 3).unwrap();
        let mut plain: HorizonTracker<Toy> = HorizonTracker::new(config);
        let mut shared: HorizonTracker<Toy, Arc<ClusterSetSnapshot<Toy>>> =
            HorizonTracker::new(config);
        plain.set_budget(budget);
        shared.set_budget(budget);
        let mut evicted = 0;
        for t in 1..=300u64 {
            let snap = ClusterSetSnapshot::from_pairs((0..1 + t % 4).map(|id| {
                let toy = Toy {
                    sum: t as f64 * 0.1 + id as f64,
                    n: t as f64,
                    t,
                };
                (id, toy)
            }));
            plain.record_snapshot(t, snap.clone());
            shared.record_packed_with(t, Arc::new(snap), |_| evicted += 1);
            for h in [1, 7, 40, 250] {
                match (plain.horizon_clusters(t, h), shared.horizon_clusters(t, h)) {
                    (Ok(a), Ok(b)) => assert_eq!(bits(&a), bits(&b), "tick {t} horizon {h}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("tick {t} horizon {h}: {a:?} vs {b:?}"),
                }
            }
        }
        assert_eq!(plain.budget_report(), shared.budget_report());
        assert_eq!(evicted + shared.store().len(), 300);
    }

    #[test]
    fn unavailable_horizon_errors() {
        let tracker: HorizonTracker<Toy> = HorizonTracker::with_defaults();
        assert!(tracker.horizon_clusters(10, 5).is_err());
    }
}
