//! The snapshot store proper, plus keyed cluster-set subtraction.

use crate::budget::{effective_l, error_bound_for, BudgetReport, SnapshotBudget};
use crate::pyramid::{snapshot_order, PyramidConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;
use ustream_common::{AdditiveFeature, Result, Timestamp, UStreamError};

/// Default payload measure: free of charge, disables byte accounting.
fn zero_measure<S>(_: &S) -> usize {
    0
}

/// A snapshot stored in the pyramid, tagged with its capture tick and order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredSnapshot<S> {
    /// Clock tick at which the snapshot was taken.
    pub time: Timestamp,
    /// The pyramid order it was filed under.
    pub order: u32,
    /// The snapshot payload (typically a [`ClusterSetSnapshot`]).
    pub data: S,
}

/// A pyramidal time-frame store of snapshots.
///
/// `record` decides by itself whether tick `t` deserves a snapshot (it does
/// if the caller provides one — every tick qualifies for order 0), files it
/// at its highest qualifying order, and evicts the oldest snapshot of that
/// order beyond the `α^l + 1` retention cap.
#[derive(Debug, Clone)]
pub struct SnapshotStore<S> {
    config: PyramidConfig,
    /// `orders[i]` holds snapshots of order `i`, oldest first.
    orders: Vec<VecDeque<StoredSnapshot<S>>>,
    taken: u64,
    /// Optional memory ceiling; see [`SnapshotBudget`].
    budget: Option<SnapshotBudget>,
    /// Estimates payload bytes of one snapshot (for the byte budget).
    measure: fn(&S) -> usize,
    /// Running estimate of retained payload bytes under `measure`.
    total_bytes: u64,
    /// Snapshots evicted by the budget, beyond pyramid retention.
    budget_evictions: u64,
    /// Smallest ring length left behind by a budget eviction, i.e. the
    /// worst per-order retention the budget has forced so far.
    worst_trimmed_len: Option<usize>,
}

impl<S: Clone> SnapshotStore<S> {
    /// Creates an empty store with the given geometry.
    pub fn new(config: PyramidConfig) -> Self {
        Self {
            config,
            orders: Vec::new(),
            taken: 0,
            budget: None,
            measure: zero_measure::<S>,
            total_bytes: 0,
            budget_evictions: 0,
            worst_trimmed_len: None,
        }
    }

    /// Installs (or replaces) a memory budget.
    ///
    /// `measure` estimates the payload bytes of one snapshot; it is applied
    /// to snapshots already retained so the byte accounting starts correct.
    /// Enforcement happens on this call and on every later [`record`].
    ///
    /// [`record`]: SnapshotStore::record
    pub fn set_budget(&mut self, budget: SnapshotBudget, measure: fn(&S) -> usize) {
        self.measure = measure;
        self.total_bytes = self
            .orders
            .iter()
            .flat_map(|r| r.iter())
            .map(|s| measure(&s.data) as u64)
            .sum();
        self.budget = Some(budget);
        self.enforce_budget(&mut drop);
    }

    /// The installed budget, if any.
    pub fn budget(&self) -> Option<&SnapshotBudget> {
        self.budget.as_ref()
    }

    /// Estimated payload bytes currently retained (0 until a budget with a
    /// byte measure is installed).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Snapshots evicted by the budget, beyond normal pyramid retention.
    pub fn budget_evictions(&self) -> u64 {
        self.budget_evictions
    }

    /// The horizon-error bound actually in force: the configured
    /// `1/α^{l−1}` until a budget eviction trims a ring below the pyramid
    /// capacity, the inflated `1/α^{l_eff−1}` afterwards.
    pub fn effective_error_bound(&self) -> f64 {
        match self.worst_trimmed_len {
            None => self.config.horizon_error_bound(),
            Some(len) => {
                let l_eff = effective_l(self.config.alpha, len);
                error_bound_for(self.config.alpha, l_eff.min(self.config.l))
                    .max(self.config.horizon_error_bound())
            }
        }
    }

    /// Budget accounting in one view (see [`BudgetReport`]).
    pub fn budget_report(&self) -> BudgetReport {
        let configured = self.config.horizon_error_bound();
        let effective = self.effective_error_bound();
        BudgetReport {
            evictions: self.budget_evictions,
            retained_bytes: self.total_bytes,
            retained: self.len(),
            effective_error_bound: effective,
            error_inflation: effective / configured,
        }
    }

    fn over_budget(&self) -> bool {
        self.budget
            .as_ref()
            .is_some_and(|b| b.exceeded_by(self.len(), self.total_bytes))
    }

    /// Evicts until the budget holds. Victims come from the fullest ring
    /// (ties toward the lowest order) so orders degrade evenly; rings are
    /// not emptied while any ring still holds > 1 snapshot, and only when
    /// every ring is down to its last snapshot does the globally oldest
    /// one go. The ceiling is a hard limit with one exception: the newest
    /// snapshot always stays, because it is the current cluster set that
    /// every query starts from and a respawned engine shard is seeded with.
    /// Every victim below is older than it while two or more remain.
    /// Victims go to `evicted`.
    fn enforce_budget(&mut self, evicted: &mut impl FnMut(S)) {
        while self.over_budget() && self.len() > 1 {
            let mut victim: Option<usize> = None;
            for (i, ring) in self.orders.iter().enumerate() {
                if ring.len() > 1 && victim.is_none_or(|v| ring.len() > self.orders[v].len()) {
                    victim = Some(i);
                }
            }
            let victim = victim.or_else(|| {
                self.orders
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.is_empty())
                    .min_by_key(|(_, r)| r.front().map(|s| s.time))
                    .map(|(i, _)| i)
            });
            let Some(idx) = victim else {
                return; // store empty; nothing left to evict
            };
            if let Some(old) = self.orders[idx].pop_front() {
                self.total_bytes = self
                    .total_bytes
                    .saturating_sub((self.measure)(&old.data) as u64);
                evicted(old.data);
                self.budget_evictions += 1;
                let left = self.orders[idx].len();
                if self.worst_trimmed_len.is_none_or(|w| left < w) {
                    self.worst_trimmed_len = Some(left);
                }
            }
        }
    }

    /// Store geometry.
    pub fn config(&self) -> &PyramidConfig {
        &self.config
    }

    /// Total snapshots currently retained.
    pub fn len(&self) -> usize {
        self.orders.iter().map(VecDeque::len).sum()
    }

    /// Whether no snapshots are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of snapshots ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.taken
    }

    /// Records the snapshot taken at tick `t`.
    ///
    /// Callers normally invoke this once per tick (or once per batch of
    /// ticks); the store files the snapshot at order `max{i : α^i | t}` and
    /// enforces per-order retention.
    pub fn record(&mut self, t: Timestamp, data: S) {
        self.record_with(t, data, drop);
    }

    /// [`Self::record`], handing every snapshot it evicts (retention or
    /// budget) to `evicted` instead of dropping it, so a caller that
    /// records under a lock can free them after releasing it.
    pub fn record_with(&mut self, t: Timestamp, data: S, mut evicted: impl FnMut(S)) {
        let bytes = (self.measure)(&data) as u64;
        let order = snapshot_order(t, self.config.alpha);
        let order_idx = order as usize;
        if self.orders.len() <= order_idx {
            self.orders.resize_with(order_idx + 1, VecDeque::new);
        }
        let measure = self.measure;
        let mut freed = 0u64;
        let ring = &mut self.orders[order_idx];
        // Monotone capture times within an order; replace on duplicate tick.
        if let Some(last) = ring.back() {
            debug_assert!(last.time <= t, "snapshots must be recorded in order");
            if last.time == t {
                if let Some(old) = ring.pop_back() {
                    freed += measure(&old.data) as u64;
                    evicted(old.data);
                }
            }
        }
        ring.push_back(StoredSnapshot {
            time: t,
            order,
            data,
        });
        let cap = self.config.per_order_capacity();
        while ring.len() > cap {
            if let Some(old) = ring.pop_front() {
                freed += measure(&old.data) as u64;
                evicted(old.data);
            }
        }
        self.total_bytes = (self.total_bytes + bytes).saturating_sub(freed);
        self.taken += 1;
        self.enforce_budget(&mut evicted);
    }

    /// The most recent stored snapshot with `time ≤ t`, across all orders.
    ///
    /// This is the lookup the horizon query needs: asking for horizon `h` at
    /// current time `t_c` resolves to `find_at_or_before(t_c − h)`, and the
    /// pyramid geometry guarantees the returned snapshot is at most a factor
    /// `1/α^{l−1}` older than requested (while the target tick is still
    /// within retention).
    pub fn find_at_or_before(&self, t: Timestamp) -> Option<&StoredSnapshot<S>> {
        let mut best: Option<&StoredSnapshot<S>> = None;
        for ring in &self.orders {
            // Rings are sorted by time; binary-search the last element ≤ t.
            let (lo, hi) = ring.as_slices();
            for slice in [lo, hi] {
                let idx = slice.partition_point(|s| s.time <= t);
                if idx > 0 {
                    let cand = &slice[idx - 1];
                    if best.is_none_or(|b| cand.time > b.time) {
                        best = Some(cand);
                    }
                }
            }
        }
        best
    }

    /// The oldest snapshot still retained.
    pub fn oldest(&self) -> Option<&StoredSnapshot<S>> {
        self.orders
            .iter()
            .filter_map(|r| r.front())
            .min_by_key(|s| s.time)
    }

    /// The most recent snapshot retained.
    pub fn newest(&self) -> Option<&StoredSnapshot<S>> {
        self.orders
            .iter()
            .filter_map(|r| r.back())
            .max_by_key(|s| s.time)
    }

    /// All retained snapshots ordered by capture time.
    pub fn iter_chronological(&self) -> impl Iterator<Item = &StoredSnapshot<S>> {
        let mut all: Vec<&StoredSnapshot<S>> = self.orders.iter().flat_map(|r| r.iter()).collect();
        all.sort_by_key(|s| s.time);
        all.into_iter()
    }

    /// Resolves a horizon query: returns the stored snapshot to subtract for
    /// horizon `h` at current time `now`, or an error when the horizon
    /// reaches past the retained history.
    pub fn horizon_base(&self, now: Timestamp, h: u64) -> Result<&StoredSnapshot<S>> {
        let target = now.saturating_sub(h);
        self.find_at_or_before(target)
            .ok_or(UStreamError::HorizonUnavailable { requested: h })
    }
}

/// A snapshot of a complete micro-cluster set: feature vectors keyed by
/// stable cluster id.
///
/// The id keying is what makes the paper's subtraction semantics precise:
/// "the statistics for each micro-cluster in `S(t_c − h')` is subtracted from
/// the statistics of the *corresponding* micro-clusters in `S(t_c)`.
/// Micro-clusters which are removed ... are discarded, and micro-clusters
/// which are created in the period are retained in their current form."
///
/// Features are shared, not owned: by Property 2.1 a cluster no insert
/// touched since the last capture holds the same value, so consecutive
/// snapshots, the live clusterer and the pyramid point at one allocation
/// for it. Nothing writes through a shared feature: a clusterer writes its
/// own copy and the next snapshot takes a fresh one, so a filed snapshot
/// never changes. `Arc<F>` serializes and encodes as `F`, so every on-disk
/// and wire layout is that of an owned map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSetSnapshot<F> {
    /// Feature vectors keyed by cluster id.
    pub clusters: BTreeMap<u64, Arc<F>>,
}

impl<F> Default for ClusterSetSnapshot<F> {
    fn default() -> Self {
        Self {
            clusters: BTreeMap::new(),
        }
    }
}

impl<F: AdditiveFeature> ClusterSetSnapshot<F> {
    /// Builds a snapshot from `(id, feature)` pairs, each in its own
    /// allocation.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, F)>) -> Self {
        Self {
            clusters: pairs.into_iter().map(|(id, f)| (id, Arc::new(f))).collect(),
        }
    }

    /// Number of micro-clusters captured.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the snapshot holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Horizon reconstruction: statistics of the window `(t_past, t_now]`.
    ///
    /// For each cluster id in `self` (the current snapshot): if the id also
    /// exists in `past`, its past statistics are subtracted; otherwise the
    /// cluster was created inside the window and is kept as-is. Ids that
    /// exist only in `past` were evicted during the window and are
    /// discarded. Clusters that end up empty (no points in the window) are
    /// dropped. A cluster created in the window is shared with `self`, not
    /// copied; one that is the same allocation in both snapshots saw no
    /// insert in the window, so it is empty and skipped unread.
    pub fn subtract_past(&self, past: &ClusterSetSnapshot<F>) -> ClusterSetSnapshot<F> {
        // Both maps are in id order: pair each current cluster with its
        // past self in one merge pass.
        let mut past_iter = past.clusters.iter().peekable();
        let pairs: Vec<_> = self
            .clusters
            .iter()
            .map(|(id, current)| {
                while past_iter.next_if(|(p, _)| *p < id).is_some() {}
                let old = past_iter.next_if(|(p, _)| *p == id).map(|(_, f)| f);
                (*id, current, old)
            })
            .collect();
        // The features sit in allocations made at different ticks, so
        // most reads miss the cache, and a miss on the feature must land
        // before the one on its heap data can start. Loading them in two
        // tight passes first keeps many misses in flight at once, where
        // the subtraction loop would wait for them one pair at a time.
        for (_, current, old) in &pairs {
            std::hint::black_box(current.count());
            std::hint::black_box(old.map(|f| f.count()));
        }
        for (_, current, old) in &pairs {
            if let Some(old) = old.filter(|old| !Arc::ptr_eq(current, old)) {
                current.prefetch();
                old.prefetch();
            }
        }
        let clusters = pairs
            .iter()
            .filter_map(|(id, current, old)| {
                let f = match old {
                    Some(old) if Arc::ptr_eq(current, old) => return None,
                    Some(old) => {
                        let mut f = F::clone(current);
                        f.subtract(old);
                        Arc::new(f)
                    }
                    None => Arc::clone(current),
                };
                (!f.is_empty()).then_some((*id, f))
            })
            // Already in id order: the map is built in one pass.
            .collect();
        ClusterSetSnapshot { clusters }
    }

    /// Total point count (or weight) across all captured clusters.
    pub fn total_count(&self) -> f64 {
        self.clusters.values().map(|f| f.count()).sum()
    }

    /// Estimated resident bytes of this snapshot, suitable as the measure
    /// for [`SnapshotStore::set_budget`].
    ///
    /// Counts the inline feature struct, the map-entry overhead, and the
    /// per-dimension heap vectors an additive feature typically carries
    /// (an ECF holds CF1, EF2, and W — three `f64` per dimension). An
    /// estimate, not an allocator audit: it is monotone in cluster count
    /// and dimensionality, which is all budget enforcement needs.
    ///
    /// Each cluster is charged as if the snapshot owned its feature, even
    /// when it shares the allocation with a neighbouring snapshot: the
    /// measure of a snapshot must not depend on what else the pyramid
    /// holds, or a budget would evict different snapshots as sharing
    /// changes.
    pub fn approx_bytes(&self) -> usize {
        const MAP_NODE_OVERHEAD: usize = 48;
        let per_entry = std::mem::size_of::<u64>() + std::mem::size_of::<F>() + MAP_NODE_OVERHEAD;
        let heap: usize = self.clusters.values().map(|f| f.dims() * 3 * 8).sum();
        std::mem::size_of::<Self>() + self.clusters.len() * per_entry + heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_common::Timestamp as Ts;

    /// Minimal additive feature for store tests: a 1-d sum + count.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Toy {
        sum: f64,
        n: f64,
        t: Ts,
    }

    impl Toy {
        fn new(sum: f64, n: f64, t: Ts) -> Self {
            Self { sum, n, t }
        }
    }

    impl AdditiveFeature for Toy {
        fn dims(&self) -> usize {
            1
        }
        fn count(&self) -> f64 {
            self.n
        }
        fn last_update(&self) -> Ts {
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

    fn store_with(ticks: impl IntoIterator<Item = Ts>) -> SnapshotStore<Ts> {
        let mut s = SnapshotStore::new(PyramidConfig::new(2, 2).unwrap());
        for t in ticks {
            s.record(t, t);
        }
        s
    }

    #[test]
    fn files_by_highest_order() {
        let s = store_with(1..=8);
        // order 0: odd ticks; order 1: 2,6; order 2: 4; order 3: 8.
        assert_eq!(
            s.orders[0].iter().map(|x| x.time).collect::<Vec<_>>(),
            vec![1, 3, 5, 7]
        );
        assert_eq!(
            s.orders[1].iter().map(|x| x.time).collect::<Vec<_>>(),
            vec![2, 6]
        );
        assert_eq!(
            s.orders[2].iter().map(|x| x.time).collect::<Vec<_>>(),
            vec![4]
        );
        assert_eq!(
            s.orders[3].iter().map(|x| x.time).collect::<Vec<_>>(),
            vec![8]
        );
    }

    #[test]
    fn retention_cap_per_order() {
        // alpha=2, l=2 → 5 snapshots per order.
        let s = store_with(1..=100);
        for ring in &s.orders {
            assert!(ring.len() <= 5, "ring too long: {}", ring.len());
        }
        // Order 0 keeps the 5 most recent odd ticks.
        assert_eq!(
            s.orders[0].iter().map(|x| x.time).collect::<Vec<_>>(),
            vec![91, 93, 95, 97, 99]
        );
    }

    /// Every snapshot that leaves the store — retention, a duplicate tick
    /// or the budget — goes to the `record_with` sink, once.
    #[test]
    fn record_with_hands_back_every_evicted_snapshot() {
        let mut s = SnapshotStore::new(PyramidConfig::new(2, 2).unwrap());
        s.set_budget(SnapshotBudget::by_snapshots(9), |_| 1);
        let mut evicted = Vec::new();
        for t in (1..=120).chain([120]) {
            s.record_with(t, t, |old| evicted.push(old));
        }
        assert!(s.budget_evictions() > 0);
        assert_eq!(evicted.len() + s.len(), 121);
        let kept: Vec<Ts> = s.iter_chronological().map(|x| x.data).collect();
        assert!(evicted.iter().all(|t| *t == 120 || !kept.contains(t)));
    }

    #[test]
    fn find_at_or_before_exact_and_between() {
        let s = store_with(1..=32);
        assert_eq!(s.find_at_or_before(32).unwrap().time, 32);
        assert_eq!(s.find_at_or_before(31).unwrap().time, 31);
        // Tick 17 was evicted from order 0 (only 23..31 odd retained);
        // the best ≤ 18 is 18? 18 = 2·9 → order 1. Order-1 ring holds
        // last 5 of {2,6,10,14,18,22,26,30} = {14,18,22,26,30}.
        assert_eq!(s.find_at_or_before(18).unwrap().time, 18);
        assert_eq!(s.find_at_or_before(17).unwrap().time, 16);
    }

    #[test]
    fn find_before_start_returns_none() {
        let s = store_with(5..=10);
        assert!(s.find_at_or_before(4).is_none());
    }

    #[test]
    fn oldest_and_newest() {
        let s = store_with(1..=64);
        assert_eq!(s.newest().unwrap().time, 64);
        // Oldest retained is the order-⌈max⌉ snapshot: 64 is order 6, but
        // earlier high-order snapshots (16, 32, 48) persist in their rings.
        let oldest = s.oldest().unwrap().time;
        assert!(oldest <= 16, "oldest retained: {oldest}");
    }

    #[test]
    fn chronological_iteration_sorted() {
        let s = store_with(1..=40);
        let times: Vec<Ts> = s.iter_chronological().map(|x| x.time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert!(!times.is_empty());
    }

    #[test]
    fn horizon_guarantee_holds_within_retention() {
        // alpha=2, l=4 → 17 per order; error bound 1/8.
        let cfg = PyramidConfig::new(2, 4).unwrap();
        let mut s = SnapshotStore::new(cfg);
        let now: Ts = 1000;
        for t in 1..=now {
            s.record(t, t);
        }
        let bound = cfg.horizon_error_bound();
        // Horizons within the well-covered range.
        for h in [1u64, 2, 5, 10, 17, 33, 100, 250, 500, 900] {
            let base = s.horizon_base(now, h).unwrap();
            let h_eff = now - base.time;
            assert!(h_eff >= h, "h_eff {h_eff} < h {h}");
            let rel = (h_eff - h) as f64 / h as f64;
            assert!(
                rel <= bound + 1e-9,
                "horizon {h}: effective {h_eff}, rel error {rel} > bound {bound}"
            );
        }
    }

    #[test]
    fn horizon_unavailable_error() {
        let s = store_with(990..=1000);
        let err = s.horizon_base(1000, 500).unwrap_err();
        assert!(matches!(
            err,
            UStreamError::HorizonUnavailable { requested: 500 }
        ));
    }

    #[test]
    fn duplicate_tick_replaces() {
        let mut s = SnapshotStore::new(PyramidConfig::new(2, 2).unwrap());
        s.record(3, 30);
        s.record(3, 31);
        assert_eq!(s.len(), 1);
        assert_eq!(s.find_at_or_before(3).unwrap().data, 31);
    }

    #[test]
    fn cluster_set_subtraction_semantics() {
        // Past: clusters 1, 2. Current: clusters 1 (grown), 3 (new).
        let past = ClusterSetSnapshot::from_pairs([
            (1, Toy::new(10.0, 5.0, 100)),
            (2, Toy::new(4.0, 2.0, 90)),
        ]);
        let current = ClusterSetSnapshot::from_pairs([
            (1, Toy::new(30.0, 9.0, 200)),
            (3, Toy::new(7.0, 3.0, 150)),
        ]);
        let window = current.subtract_past(&past);
        // Cluster 1: in-window contribution only.
        assert_eq!(window.clusters[&1].sum, 20.0);
        assert_eq!(window.clusters[&1].n, 4.0);
        // Cluster 2 (evicted in window): discarded.
        assert!(!window.clusters.contains_key(&2));
        // Cluster 3 (created in window): retained as-is.
        assert_eq!(window.clusters[&3].sum, 7.0);
        assert_eq!(window.total_count(), 7.0);
    }

    #[test]
    fn subtraction_drops_empty_clusters() {
        let past = ClusterSetSnapshot::from_pairs([(1, Toy::new(10.0, 5.0, 100))]);
        let current = ClusterSetSnapshot::from_pairs([(1, Toy::new(10.0, 5.0, 100))]);
        let window = current.subtract_past(&past);
        assert!(window.is_empty());
    }

    #[test]
    fn snapshot_budget_caps_count() {
        let mut s = SnapshotStore::new(PyramidConfig::new(2, 4).unwrap());
        s.set_budget(SnapshotBudget::by_snapshots(20), |_| 0);
        for t in 1..=10_000u64 {
            s.record(t, t);
            assert!(s.len() <= 20, "budget exceeded at t={t}: {}", s.len());
        }
        assert!(s.budget_evictions() > 0);
        // Queries keep working: the newest snapshot is always reachable.
        assert_eq!(s.find_at_or_before(10_000).unwrap().time, 10_000);
        assert!(s.horizon_base(10_000, 4).is_ok());
    }

    #[test]
    fn snapshot_budget_caps_bytes() {
        let mut s = SnapshotStore::new(PyramidConfig::new(2, 4).unwrap());
        // Every payload "costs" 100 bytes; ceiling 1 kB → ≤ 10 snapshots.
        s.set_budget(SnapshotBudget::by_bytes(1000), |_| 100);
        for t in 1..=5_000u64 {
            s.record(t, t);
            assert!(
                s.total_bytes() <= 1000,
                "byte budget exceeded at t={t}: {}",
                s.total_bytes()
            );
        }
        assert!(s.len() <= 10);
    }

    #[test]
    fn budget_eviction_reports_error_inflation() {
        let cfg = PyramidConfig::new(2, 4).unwrap(); // bound 1/8, cap 17/order
        let mut s = SnapshotStore::new(cfg);
        for t in 1..=4096u64 {
            s.record(t, t);
        }
        let unconstrained = s.budget_report();
        assert_eq!(unconstrained.evictions, 0);
        assert!((unconstrained.error_inflation - 1.0).abs() < 1e-12);
        assert!((unconstrained.effective_error_bound - cfg.horizon_error_bound()).abs() < 1e-12);

        // Now squeeze hard: trimming rings below α^l + 1 must inflate the
        // reported bound (l_eff < l ⇒ bound > 1/8).
        s.set_budget(SnapshotBudget::by_snapshots(24), |_| 0);
        let squeezed = s.budget_report();
        assert!(squeezed.retained <= 24);
        assert!(squeezed.evictions > 0);
        assert!(squeezed.effective_error_bound > cfg.horizon_error_bound());
        assert!(squeezed.error_inflation > 1.0);
    }

    #[test]
    fn budget_never_exceeded_even_at_one_per_ring() {
        // Budget below the number of nonempty rings forces the global-oldest
        // fallback; the ceiling must still hold and queries still answer.
        let mut s = SnapshotStore::new(PyramidConfig::new(2, 3).unwrap());
        s.set_budget(SnapshotBudget::by_snapshots(3), |_| 0);
        for t in 1..=1024u64 {
            s.record(t, t);
            assert!(s.len() <= 3, "t={t}: {}", s.len());
        }
        assert!(s.find_at_or_before(1024).is_some());
    }

    #[test]
    fn budgets_never_evict_the_newest_snapshot() {
        // Every payload alone is over the byte ceiling, and the count
        // ceiling is one: the newest snapshot must still be there after
        // every record, and be the only one left.
        for budget in [
            SnapshotBudget::by_bytes(50),
            SnapshotBudget::by_snapshots(1),
        ] {
            let mut s = SnapshotStore::new(PyramidConfig::new(2, 3).unwrap());
            s.set_budget(budget, |_| 100);
            for t in 1..=300u64 {
                s.record(t, t);
                assert_eq!(s.newest().map(|n| n.data), Some(t), "{budget:?} t={t}");
                assert_eq!(s.len(), 1);
            }
            assert_eq!(s.budget_evictions(), 299);
        }
    }

    #[test]
    fn set_budget_accounts_existing_payloads() {
        let mut s = SnapshotStore::new(PyramidConfig::new(2, 2).unwrap());
        for t in 1..=8u64 {
            s.record(t, t);
        }
        assert_eq!(s.total_bytes(), 0); // no measure installed yet
        s.set_budget(SnapshotBudget::by_bytes(u64::MAX), |_| 10);
        assert_eq!(s.total_bytes(), s.len() as u64 * 10);
    }

    #[test]
    fn approx_bytes_scales_with_clusters_and_dims() {
        let one = ClusterSetSnapshot::from_pairs([(1, Toy::new(1.0, 1.0, 1))]);
        let two = ClusterSetSnapshot::from_pairs([
            (1, Toy::new(1.0, 1.0, 1)),
            (2, Toy::new(2.0, 1.0, 1)),
        ]);
        assert!(two.approx_bytes() > one.approx_bytes());
        assert!(one.approx_bytes() > 0);
    }
}
