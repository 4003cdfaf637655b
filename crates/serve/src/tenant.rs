//! Per-tenant state: one clusterer, one pyramidal snapshot store, and one
//! admission ladder.
//!
//! Each tenant is an isolated clustering universe — its own
//! [`OnlineClusterer`] (UMicro or the decayed variant, per its spec), its
//! own pyramidal snapshot store with an optional [`SnapshotBudget`], and its
//! own rung on the engine's degradation ladder ([`LoadStage`]). The server's
//! governor polls each tenant's ingest rate against the per-tenant quota
//! and walks the ladder with the engine's own hysteresis step
//! ([`Ladder::step`]) and sampling rule ([`LoadPolicy::keeps`]), so one hot
//! tenant degrades *itself* (widen → sample → shed) while every other
//! tenant keeps full fidelity.

use crate::protocol::{TenantSpec, WireCluster, WirePoint, WireTenantStats};
use serde::{Deserialize, Serialize};
use umicro::{ClustererState, DecayedUMicro, Ecf, OnlineClusterer, UMicro, UMicroConfig};
use ustream_common::{AdditiveFeature, Result, Timestamp, UStreamError};
use ustream_engine::{Ladder, LoadPolicy, LoadStage};
use ustream_kmeans::MacroClustering;
use ustream_snapshot::{
    ClusterSetSnapshot, HorizonTracker, PackedSnapshot, PyramidConfig, SnapshotBudget, SnapshotForm,
};

/// Per-tenant admission control: an ingest-rate quota plus the engine's
/// ladder hysteresis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Sustained points/second a tenant may ingest at full fidelity.
    /// Pressure is `observed rate / quota`; the ladder watermarks apply to
    /// that fraction.
    pub quota_points_per_sec: u64,
    /// Watermarks, hysteresis counts, widen factor and sampling rate —
    /// the same knobs as the engine's channel-pressure governor.
    pub ladder: LoadPolicy,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            quota_points_per_sec: 1_000_000,
            ladder: LoadPolicy::default(),
        }
    }
}

impl AdmissionPolicy {
    /// First invalid-field description, if any. The ladder is checked by
    /// [`LoadPolicy::problem`]; pressure here is a rate over the quota, so
    /// unlike the engine's fill fraction `high_watermark` may exceed 1.
    pub fn problem(&self) -> Option<String> {
        if self.quota_points_per_sec == 0 {
            return Some("admission quota_points_per_sec must be positive".into());
        }
        self.ladder.problem().map(|msg| format!("admission {msg}"))
    }
}

/// Outcome of one ingest batch, in admission-accounting terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Records absorbed into the model.
    pub accepted: u64,
    /// Records dropped by `Sample`-stage admission.
    pub sampled_out: u64,
    /// Records dropped by `Shed`-stage admission.
    pub shed: u64,
    /// Records rejected by validation.
    pub rejected: u64,
    /// The stage that admitted (or dropped) the batch.
    pub stage: LoadStage,
}

/// One tenant's complete serving state.
pub struct Tenant {
    spec: TenantSpec,
    clusterer: Box<dyn OnlineClusterer<Summary = Ecf>>,
    /// The tenant's pyramid. A server holds one per tenant, so snapshots
    /// are kept packed in their binary layout.
    horizon: HorizonTracker<Ecf, PackedSnapshot<Ecf>>,
    /// Admission-ladder rung; walked by the governor, read at ingest.
    stage: LoadStage,
    /// Consecutive governor polls at or beyond the watermarks.
    ladder: Ladder,
    /// Admission counters.
    accepted: u64,
    sampled_out: u64,
    shed: u64,
    rejected: u64,
    /// Total records seen at the previous governor poll (rate baseline).
    offered_at_poll: u64,
    /// Admission-sampling sequence number (deterministic keep/drop).
    seq: u64,
    /// Latest stream tick observed.
    last_tick: Timestamp,
    /// Tick of the last recorded pyramid snapshot.
    last_snapshot: Timestamp,
}

/// Builds the spec's clusterer (decayed iff a half-life is given).
fn build_clusterer(spec: &TenantSpec) -> Result<Box<dyn OnlineClusterer<Summary = Ecf>>> {
    let config = UMicroConfig::new(spec.n_micro, spec.dims)?;
    Ok(match spec.decay_half_life {
        Some(hl) => {
            if !hl.is_finite() || hl <= 0.0 {
                return Err(UStreamError::InvalidConfig(
                    "decay_half_life must be positive and finite".into(),
                ));
            }
            Box::new(DecayedUMicro::with_half_life(config, hl))
        }
        None => Box::new(UMicro::new(config)),
    })
}

fn build_horizon(spec: &TenantSpec) -> Result<HorizonTracker<Ecf, PackedSnapshot<Ecf>>> {
    let mut horizon = HorizonTracker::new(PyramidConfig::new(spec.alpha, spec.l)?);
    if spec.max_snapshots.is_some() || spec.max_snapshot_bytes.is_some() {
        horizon.set_budget(SnapshotBudget {
            max_snapshots: spec.max_snapshots,
            max_bytes: spec.max_snapshot_bytes,
        });
    }
    Ok(horizon)
}

impl Tenant {
    /// Creates a tenant from its spec; fails (typed, never panics) on an
    /// invalid spec so a bad `CreateTenant` request cannot kill a worker.
    pub fn new(spec: TenantSpec) -> Result<Self> {
        if spec.snapshot_every == 0 {
            return Err(UStreamError::InvalidConfig(
                "snapshot_every must be positive".into(),
            ));
        }
        let clusterer = build_clusterer(&spec)?;
        let horizon = build_horizon(&spec)?;
        Ok(Self {
            spec,
            clusterer,
            horizon,
            stage: LoadStage::Normal,
            ladder: Ladder::default(),
            accepted: 0,
            sampled_out: 0,
            shed: 0,
            rejected: 0,
            offered_at_poll: 0,
            seq: 0,
            last_tick: 0,
            last_snapshot: 0,
        })
    }

    /// The tenant's configured spec.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Current admission-ladder stage.
    pub fn stage(&self) -> LoadStage {
        self.stage
    }

    /// Forces the admission stage (tests and operator tooling).
    pub fn force_stage(&mut self, stage: LoadStage) {
        self.stage = stage;
        self.ladder = Ladder::default();
    }

    /// Ingests one batch under the current admission stage.
    ///
    /// `Shed` drops the whole batch; `Sample` keeps `keep_per_mille` of
    /// every 1000 admission ordinals ([`LoadPolicy::keeps`]); `WidenMerge`
    /// stretches the snapshot cadence by `widen_factor`. Validation failures (NaN
    /// values, bad ψ, wrong dimensionality) are counted per record and
    /// never abort the rest of the batch.
    pub fn ingest(&mut self, points: Vec<WirePoint>, policy: &AdmissionPolicy) -> IngestOutcome {
        let mut out = IngestOutcome {
            stage: self.stage,
            ..IngestOutcome::default()
        };
        if self.stage == LoadStage::Shed {
            out.shed = points.len() as u64;
            self.shed += out.shed;
            self.seq += points.len() as u64;
            return out;
        }
        let cadence = policy.ladder.cadence(self.spec.snapshot_every, self.stage);
        for wp in points {
            self.seq += 1;
            if self.stage == LoadStage::Sample && !policy.ladder.keeps(self.seq) {
                out.sampled_out += 1;
                continue;
            }
            if wp.values.len() != self.spec.dims {
                out.rejected += 1;
                continue;
            }
            let point = match wp.into_point() {
                Ok(p) => p,
                Err(_) => {
                    out.rejected += 1;
                    continue;
                }
            };
            let t = point.timestamp();
            self.clusterer.insert(&point);
            out.accepted += 1;
            self.last_tick = self.last_tick.max(t);
            if self.last_tick >= self.last_snapshot + cadence {
                self.record_snapshot();
            }
        }
        self.accepted += out.accepted;
        self.sampled_out += out.sampled_out;
        self.rejected += out.rejected;
        out
    }

    /// Files the current cluster set into the pyramid at `last_tick`.
    fn record_snapshot(&mut self) {
        let t = self.last_tick;
        // The store requires monotone capture times; a replayed or
        // out-of-order batch must not trip its debug assertion.
        if t > self.horizon.last_recorded() {
            let snap = self.clusterer.snapshot_at(t);
            self.horizon.record_snapshot(t, snap);
            self.last_snapshot = t;
        }
    }

    /// Flushes a final snapshot (drain path) so horizon queries can see
    /// everything ingested.
    pub fn flush_snapshot(&mut self) {
        self.record_snapshot();
    }

    /// Micro-clusters of the trailing window `(last_tick − h, last_tick]`.
    pub fn horizon_clusters(&mut self, h: u64) -> Result<(Vec<WireCluster>, f64)> {
        // Make the newest data visible to the query before subtracting.
        self.record_snapshot();
        let window = self.horizon.horizon_clusters(self.last_tick, h)?;
        Ok(wire_clusters(&window))
    }

    /// On-demand macro-clustering of the live micro-clusters, answered
    /// through the unified [`umicro::ClusterQuery`] read surface.
    pub fn macro_cluster(&mut self, k: usize, seed: u64) -> MacroClustering {
        umicro::ClusterQuery::macro_cluster(&mut self.clusterer, k, seed)
    }

    /// Per-tenant statistics in wire form.
    pub fn stats(&self) -> WireTenantStats {
        let q = umicro::ClusterQuery::stats(&self.clusterer);
        WireTenantStats {
            points_processed: q.points_processed,
            num_clusters: q.num_clusters,
            approx_memory_bytes: q.approx_memory_bytes as u64,
            stage: self.stage.as_u8(),
            accepted: self.accepted,
            sampled_out: self.sampled_out,
            shed: self.shed,
            rejected: self.rejected,
            snapshots_retained: self.horizon.store().len(),
            last_tick: self.last_tick,
        }
    }

    /// Total records offered to admission so far (kept or not).
    fn offered(&self) -> u64 {
        self.accepted + self.sampled_out + self.shed + self.rejected
    }

    /// One governor poll: measures the ingest rate since the previous poll
    /// against the quota and feeds it to the tenant's [`Ladder`].
    /// Returns `Some((from, to, pressure))` when the stage changed.
    pub fn governor_poll(
        &mut self,
        elapsed_secs: f64,
        policy: &AdmissionPolicy,
    ) -> Option<(LoadStage, LoadStage, f64)> {
        let offered = self.offered();
        let delta = offered.saturating_sub(self.offered_at_poll);
        self.offered_at_poll = offered;
        if elapsed_secs <= 0.0 {
            return None;
        }
        let rate = delta as f64 / elapsed_secs;
        let pressure = rate / policy.quota_points_per_sec as f64;
        let from = self.stage;
        self.stage = self.ladder.step(from, pressure, &policy.ladder)?;
        Some((from, self.stage, pressure))
    }

    /// Exports the complete tenant state for the atomic map checkpoint.
    pub fn export(&self, name: &str) -> Result<TenantCheckpoint> {
        let state = umicro::ClusterQuery::export_state(&self.clusterer).ok_or_else(|| {
            UStreamError::Checkpoint(format!("tenant {name}: clusterer cannot export state"))
        })?;
        let snapshots = self
            .horizon
            .store()
            .iter_chronological()
            .map(|s| {
                Ok(TenantSnapshot {
                    time: s.time,
                    clusters: s.data.unpack()?.into_owned(),
                })
            })
            .collect::<Result<_>>()?;
        Ok(TenantCheckpoint {
            name: name.to_string(),
            spec: self.spec.clone(),
            stage: self.stage.as_u8(),
            accepted: self.accepted,
            sampled_out: self.sampled_out,
            shed: self.shed,
            rejected: self.rejected,
            seq: self.seq,
            last_tick: self.last_tick,
            last_snapshot: self.last_snapshot,
            state,
            snapshots,
        })
    }

    /// Rebuilds a tenant from its checkpoint, continuing exactly where the
    /// exported one left off (model state, counters, pyramid contents and
    /// admission stage included).
    pub fn restore(ckpt: &TenantCheckpoint) -> Result<Self> {
        let mut tenant = Tenant::new(ckpt.spec.clone())?;
        tenant.clusterer.import_state(&ckpt.state)?;
        for s in &ckpt.snapshots {
            tenant.horizon.record_snapshot(s.time, s.clusters.clone());
        }
        tenant.stage = LoadStage::from_u8(ckpt.stage);
        tenant.accepted = ckpt.accepted;
        tenant.sampled_out = ckpt.sampled_out;
        tenant.shed = ckpt.shed;
        tenant.rejected = ckpt.rejected;
        tenant.offered_at_poll = tenant.offered();
        tenant.seq = ckpt.seq;
        tenant.last_tick = ckpt.last_tick;
        tenant.last_snapshot = ckpt.last_snapshot;
        Ok(tenant)
    }
}

/// Converts a cluster-set snapshot into wire clusters plus total weight.
fn wire_clusters(snap: &ClusterSetSnapshot<Ecf>) -> (Vec<WireCluster>, f64) {
    let clusters: Vec<WireCluster> = snap
        .clusters
        .iter()
        .map(|(id, e)| WireCluster {
            id: *id,
            centroid: e.centroid(),
            weight: e.count(),
        })
        .collect();
    let total = snap.total_count();
    (clusters, total)
}

/// One retained pyramid snapshot in checkpoint form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Capture tick.
    pub time: Timestamp,
    /// The cluster set at that tick.
    pub clusters: ClusterSetSnapshot<Ecf>,
}

/// The complete persisted state of one tenant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantCheckpoint {
    /// Tenant name.
    pub name: String,
    /// Clustering spec the tenant was created with.
    pub spec: TenantSpec,
    /// Admission stage at checkpoint time (`LoadStage::as_u8`).
    pub stage: u8,
    /// Records absorbed into the model.
    pub accepted: u64,
    /// Records dropped by `Sample`-stage admission.
    pub sampled_out: u64,
    /// Records dropped by `Shed`-stage admission.
    pub shed: u64,
    /// Records rejected by validation.
    pub rejected: u64,
    /// Admission-sampling sequence number.
    pub seq: u64,
    /// Latest stream tick observed.
    pub last_tick: Timestamp,
    /// Tick of the last recorded snapshot.
    pub last_snapshot: Timestamp,
    /// The clusterer's full mutable state.
    pub state: ClustererState<Ecf>,
    /// Retained pyramid snapshots, chronological.
    pub snapshots: Vec<TenantSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(x: f64, y: f64, t: u64) -> WirePoint {
        WirePoint {
            values: vec![x, y],
            errors: vec![0.2, 0.2],
            timestamp: t,
        }
    }

    fn spec() -> TenantSpec {
        TenantSpec {
            snapshot_every: 8,
            ..TenantSpec::new(8, 2)
        }
    }

    fn stream(tenant: &mut Tenant, policy: &AdmissionPolicy, n: u64) -> IngestOutcome {
        let points: Vec<WirePoint> = (1..=n)
            .map(|t| {
                let x = if t % 2 == 0 { 0.0 } else { 9.0 };
                wp(x, -x, t)
            })
            .collect();
        tenant.ingest(points, policy)
    }

    #[test]
    fn ingest_clusters_and_answers_queries() {
        let mut t = Tenant::new(spec()).unwrap();
        let policy = AdmissionPolicy::default();
        let out = stream(&mut t, &policy, 200);
        assert_eq!(out.accepted, 200);
        assert_eq!(out.stage, LoadStage::Normal);
        let stats = t.stats();
        assert_eq!(stats.points_processed, 200);
        assert!(stats.num_clusters >= 2);
        assert!(stats.snapshots_retained > 0);
        assert_eq!(stats.last_tick, 200);
        let mac = t.macro_cluster(2, 7);
        assert_eq!(mac.k(), 2);
        let (clusters, total) = t.horizon_clusters(32).unwrap();
        assert!(!clusters.is_empty());
        assert!(total >= 32.0 - 1e-9);
    }

    #[test]
    fn malformed_records_are_counted_not_fatal() {
        let mut t = Tenant::new(spec()).unwrap();
        let policy = AdmissionPolicy::default();
        let batch = vec![
            wp(1.0, 1.0, 1),
            WirePoint {
                values: vec![f64::NAN, 0.0],
                errors: vec![0.1, 0.1],
                timestamp: 2,
            },
            WirePoint {
                values: vec![1.0],
                errors: vec![0.1],
                timestamp: 3,
            }, // wrong dims
            WirePoint {
                values: vec![1.0, 1.0],
                errors: vec![-1.0, 0.1],
                timestamp: 4,
            }, // bad psi
            wp(2.0, 2.0, 5),
        ];
        let out = t.ingest(batch, &policy);
        assert_eq!(out.accepted, 2);
        assert_eq!(out.rejected, 3);
    }

    #[test]
    fn shed_stage_drops_everything_sample_stage_keeps_exactly_half() {
        let policy = AdmissionPolicy::default(); // keep_per_mille = 500
        let mut t = Tenant::new(spec()).unwrap();
        t.force_stage(LoadStage::Shed);
        let out = stream(&mut t, &policy, 100);
        assert_eq!(out.shed, 100);
        assert_eq!(out.accepted, 0);

        let mut t = Tenant::new(spec()).unwrap();
        t.force_stage(LoadStage::Sample);
        let out = stream(&mut t, &policy, 1000);
        // The engine's sampling rule: 500 of every 1000 ordinals.
        assert_eq!(out.accepted, 500);
        assert_eq!(out.sampled_out, 500);
    }

    #[test]
    fn governor_escalates_hot_tenant_and_relaxes_idle_one() {
        let policy = AdmissionPolicy {
            quota_points_per_sec: 1000,
            ladder: LoadPolicy::default(), // trip 3, clear 5
        };
        let mut t = Tenant::new(spec()).unwrap();
        // Three polls at 10× quota escalate Normal → WidenMerge.
        for poll in 0..3 {
            stream(&mut t, &policy, 100); // fresh timestamps don't matter for rate
            let changed = t.governor_poll(0.01, &policy);
            if poll < 2 {
                assert!(changed.is_none(), "escalated too early at poll {poll}");
            } else {
                let (from, to, pressure) = changed.expect("third hot poll escalates");
                assert_eq!(from, LoadStage::Normal);
                assert_eq!(to, LoadStage::WidenMerge);
                assert!(pressure > 1.0);
            }
        }
        // Five idle polls relax back to Normal.
        for _ in 0..4 {
            assert!(t.governor_poll(0.01, &policy).is_none());
        }
        let (from, to, _) = t
            .governor_poll(0.01, &policy)
            .expect("fifth idle poll relaxes");
        assert_eq!(from, LoadStage::WidenMerge);
        assert_eq!(to, LoadStage::Normal);
    }

    /// `low_watermark: 0` is a valid policy, and an idle tenant's
    /// pressure is exactly 0: the inclusive boundary must relax it.
    #[test]
    fn zero_low_watermark_relaxes_an_idle_tenant() {
        let policy = AdmissionPolicy {
            quota_points_per_sec: 1000,
            ladder: LoadPolicy {
                low_watermark: 0.0,
                ..LoadPolicy::default()
            },
        };
        assert_eq!(policy.problem(), None);
        let mut t = Tenant::new(spec()).unwrap();
        t.force_stage(LoadStage::Shed);
        for _ in 1..policy.ladder.clear_polls {
            assert!(t.governor_poll(0.01, &policy).is_none());
        }
        let (from, to, pressure) = t
            .governor_poll(0.01, &policy)
            .expect("clear_polls idle polls relax");
        assert_eq!(
            (from, to, pressure),
            (LoadStage::Shed, LoadStage::Sample, 0.0)
        );
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let mut t = Tenant::new(spec()).unwrap();
        let policy = AdmissionPolicy::default();
        stream(&mut t, &policy, 300);
        t.force_stage(LoadStage::Sample);
        let ckpt = t.export("acme").unwrap();
        let mut back = Tenant::restore(&ckpt).unwrap();

        assert_eq!(back.stage(), LoadStage::Sample);
        assert_eq!(back.stats(), t.stats());
        // Horizon queries reproduce bit-for-bit: same pyramid contents.
        let (a, wa) = t.horizon_clusters(64).unwrap();
        let (b, wb) = back.horizon_clusters(64).unwrap();
        assert_eq!(a, b);
        assert_eq!(wa.to_bits(), wb.to_bits());
        // And the restored model continues the stream identically.
        let out_a = stream(&mut t, &policy, 50);
        let out_b = stream(&mut back, &policy, 50);
        assert_eq!(out_a, out_b);
        assert_eq!(back.stats(), t.stats());
    }

    /// The packed pyramid answers exactly what the unpacked
    /// `HorizonAnalyzer` answers for the same snapshots — eviction under a
    /// count and a byte budget included.
    #[test]
    fn packed_pyramid_matches_the_unpacked_analyzer() {
        let budget = SnapshotBudget {
            max_snapshots: Some(12),
            max_bytes: Some(12_000),
        };
        let s = TenantSpec {
            // Only the horizon queries below file snapshots, so each one
            // can be mirrored into the reference at the same tick.
            snapshot_every: u64::MAX / 2,
            max_snapshots: budget.max_snapshots,
            max_snapshot_bytes: budget.max_bytes,
            ..TenantSpec::new(8, 2)
        };
        let mut t = Tenant::new(s).unwrap();
        let mut reference = umicro::HorizonAnalyzer::new(PyramidConfig::new(2, 6).unwrap());
        reference.set_budget(budget);
        let policy = AdmissionPolicy::default();
        for round in 0..120u64 {
            let points = (1..=7)
                .map(|i| {
                    let tick = round * 7 + i;
                    let x = (tick % 5) as f64 * 3.0 + (tick % 3) as f64 * 0.1;
                    wp(x, -x, tick)
                })
                .collect();
            t.ingest(points, &policy);
            let now = t.last_tick;
            reference.record_snapshot(now, t.clusterer.snapshot_at(now));
            for h in [7, 30, 200] {
                let packed = t.horizon_clusters(h);
                let unpacked = reference
                    .horizon_clusters(now, h)
                    .map(|w| wire_clusters(&w));
                match (packed, unpacked) {
                    (Ok((a, wa)), Ok((b, wb))) => {
                        assert_eq!(a, b, "round {round} horizon {h}");
                        assert_eq!(wa.to_bits(), wb.to_bits());
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("round {round} horizon {h}: {a:?} vs {b:?}"),
                }
            }
        }
        let (packed, unpacked) = (t.horizon.budget_report(), reference.budget_report());
        assert!(packed.evictions > 0, "the budget must have evicted");
        assert_eq!(packed.evictions, unpacked.evictions);
        assert_eq!(packed.retained, unpacked.retained);
        assert_eq!(packed.retained_bytes, unpacked.retained_bytes);
    }

    #[test]
    fn decayed_spec_builds_and_rejects_bad_half_life() {
        let mut s = spec();
        s.decay_half_life = Some(500.0);
        let mut t = Tenant::new(s).unwrap();
        let policy = AdmissionPolicy::default();
        assert_eq!(stream(&mut t, &policy, 64).accepted, 64);

        for hl in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bad = spec();
            bad.decay_half_life = Some(hl);
            assert!(Tenant::new(bad).is_err(), "half-life {hl} accepted");
        }
        let mut bad = spec();
        bad.snapshot_every = 0;
        assert!(Tenant::new(bad).is_err());
        let mut bad = spec();
        bad.n_micro = 0;
        assert!(Tenant::new(bad).is_err());
    }

    #[test]
    fn admission_policy_validation() {
        assert!(AdmissionPolicy::default().problem().is_none());
        let p = AdmissionPolicy {
            quota_points_per_sec: 0,
            ..AdmissionPolicy::default()
        };
        assert!(p.problem().is_some());
        let mut p = AdmissionPolicy::default();
        p.ladder.keep_per_mille = 0;
        assert!(p.problem().is_some());
        let mut p = AdmissionPolicy::default();
        p.ladder.low_watermark = f64::NAN;
        let msg = p.problem().expect("NaN low_watermark rejected");
        assert!(msg.contains("low_watermark"), "{msg}");
    }
}
