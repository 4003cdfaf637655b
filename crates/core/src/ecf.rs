//! The error-based cluster feature vector `ECF` (Definition 2.1 / 2.3).
//!
//! For a set of `d`-dimensional uncertain points the ECF is the `(3d + 2)`
//! tuple `(CF2x, EF2x, CF1x, t, n)`:
//!
//! * `CF2x_j = Σ_i w_i · x_{ij}²` — (weighted) second moment of the values,
//! * `EF2x_j = Σ_i w_i · ψ_j(X_i)²` — (weighted) error second moment,
//! * `CF1x_j = Σ_i w_i · x_{ij}` — (weighted) first moment,
//! * `t` — tick of the last update,
//! * `n` / `W` — point count / total decayed weight.
//!
//! All non-temporal components are additive (Property 2.1) and subtractive,
//! and scale uniformly under exponential decay, which makes the lazy decay
//! of §II-E a single multiply per touch.

use serde::{Deserialize, Serialize};
use ustream_common::codec::{put_count, put_f64s, Codec, CodecError, Reader};
use ustream_common::{AdditiveFeature, DecayableFeature, Timestamp, UncertainPoint};

/// An error-based micro-cluster summary.
///
/// `weight` equals `count` while no decay is applied; under decay it is the
/// total decayed weight `W(C)` of Definition 2.3, referenced to
/// [`Ecf::last_decay`] (the tick the statistics were last brought current).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecf {
    cf2: Vec<f64>,
    ef2: Vec<f64>,
    cf1: Vec<f64>,
    last_update: Timestamp,
    last_decay: Timestamp,
    weight: f64,
    count: u64,
}

impl Ecf {
    /// An empty summary over `d` dimensions.
    pub fn empty(d: usize) -> Self {
        Self {
            cf2: vec![0.0; d],
            ef2: vec![0.0; d],
            cf1: vec![0.0; d],
            last_update: 0,
            last_decay: 0,
            weight: 0.0,
            count: 0,
        }
    }

    /// A singleton summary for one point with unit weight.
    pub fn from_point(p: &UncertainPoint) -> Self {
        let mut e = Self::empty(p.dims());
        e.insert(p);
        e
    }

    /// Absorbs a point with unit weight (the undecayed algorithm).
    pub fn insert(&mut self, p: &UncertainPoint) {
        self.insert_weighted(p, 1.0);
    }

    /// Absorbs a point with an explicit weight (decayed algorithm: the
    /// newly arrived point has weight `2⁰ = 1` relative to "now", but tests
    /// and replay tooling use other weights).
    pub fn insert_weighted(&mut self, p: &UncertainPoint, w: f64) {
        debug_assert_eq!(p.dims(), self.dims(), "point/ECF dimension mismatch");
        debug_assert!(w > 0.0);
        let (values, errors) = (p.values(), p.errors());
        for j in 0..self.cf1.len() {
            let x = values[j];
            let e = errors[j];
            self.cf2[j] += w * x * x;
            self.ef2[j] += w * e * e;
            self.cf1[j] += w * x;
        }
        self.weight += w;
        self.count += 1;
        if p.timestamp() > self.last_update {
            self.last_update = p.timestamp();
        }
        if p.timestamp() > self.last_decay {
            self.last_decay = p.timestamp();
        }
        self.debug_invariants();
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.cf1.len()
    }

    /// Debug-build audit of the ECF invariants every consumer relies on:
    /// a non-negative weight, finite sums, and non-negative second moments
    /// (`CF2x_j ≥ 0`, `EF2x_j ≥ 0` — both are sums of squares). Checked at
    /// every mutation boundary (insert / merge / subtract) so a violation
    /// is caught where it is introduced, not where it later surfaces as a
    /// NaN radius or a negative variance.
    #[inline]
    fn debug_invariants(&self) {
        debug_assert!(
            self.weight >= 0.0 && self.weight.is_finite(),
            "ECF weight must be finite and non-negative, got {}",
            self.weight
        );
        #[cfg(debug_assertions)]
        for j in 0..self.cf1.len() {
            debug_assert!(
                self.cf1[j].is_finite(),
                "ECF CF1[{j}] must be finite, got {}",
                self.cf1[j]
            );
            debug_assert!(
                self.cf2[j].is_finite() && self.cf2[j] >= 0.0,
                "ECF CF2[{j}] must be finite and non-negative, got {}",
                self.cf2[j]
            );
            debug_assert!(
                self.ef2[j].is_finite() && self.ef2[j] >= 0.0,
                "ECF EF2[{j}] must be finite and non-negative, got {}",
                self.ef2[j]
            );
        }
    }

    /// Whether the weight and every moment are finite. A finite input can
    /// still overflow a moment — a coordinate near 1e200 squares to `+∞` in
    /// CF2 — and the JSON on-disk formats cannot store a non-finite value.
    pub fn is_finite(&self) -> bool {
        self.weight.is_finite()
            && self
                .cf1
                .iter()
                .chain(&self.cf2)
                .chain(&self.ef2)
                .all(|x| x.is_finite())
    }

    /// Raw number of points ever absorbed (not decayed).
    #[inline]
    pub fn point_count(&self) -> u64 {
        self.count
    }

    /// Total (decayed) weight `W(C)`.
    #[inline]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// `CF1x` — weighted first moment per dimension.
    #[inline]
    pub fn cf1(&self) -> &[f64] {
        &self.cf1
    }

    /// `CF2x` — weighted second moment per dimension.
    #[inline]
    pub fn cf2(&self) -> &[f64] {
        &self.cf2
    }

    /// `EF2x` — weighted error second moment per dimension.
    #[inline]
    pub fn ef2(&self) -> &[f64] {
        &self.ef2
    }

    /// Tick at which decay was last applied (reference point of `weight`).
    #[inline]
    pub fn last_decay(&self) -> Timestamp {
        self.last_decay
    }

    /// Writes the centroid `CF1/W` into `out` without allocating. An empty
    /// summary writes zeros, matching [`Ecf::centroid_dim`].
    pub fn centroid_into(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dims());
        if self.weight <= 0.0 {
            out.fill(0.0);
            return;
        }
        let inv_w = 1.0 / self.weight;
        for (o, &c) in out.iter_mut().zip(&self.cf1) {
            *o = c * inv_w;
        }
    }

    /// Writes the per-dimension centroid-noise term `EF2_j/W²` (the error
    /// variance the centroid inherits, Lemma 2.1) into `out` without
    /// allocating. An empty summary writes zeros.
    pub fn noise_into(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dims());
        if self.weight <= 0.0 {
            out.fill(0.0);
            return;
        }
        let inv_w2 = 1.0 / (self.weight * self.weight);
        for (o, &e) in out.iter_mut().zip(&self.ef2) {
            *o = e * inv_w2;
        }
    }

    /// Centroid coordinate along dimension `j`: `CF1_j / W`.
    #[inline]
    pub fn centroid_dim(&self, j: usize) -> f64 {
        if self.weight > 0.0 {
            self.cf1[j] / self.weight
        } else {
            0.0
        }
    }

    /// Per-dimension *data* variance of the cluster:
    /// `CF2_j/W − (CF1_j/W)²`, clamped at zero.
    pub fn variance_dim(&self, j: usize) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        let mean = self.cf1[j] / self.weight;
        (self.cf2[j] / self.weight - mean * mean).max(0.0)
    }

    /// Expected squared norm of the (random) centroid, Lemma 2.1:
    /// `E[‖Z‖²] = Σ_j CF1_j²/W² + Σ_j EF2_j/W²`.
    pub fn expected_centroid_sq_norm(&self) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        let w2 = self.weight * self.weight;
        let mut acc = 0.0;
        for j in 0..self.dims() {
            acc += self.cf1[j] * self.cf1[j] / w2 + self.ef2[j] / w2;
        }
        acc
    }

    /// Expected sum over the cluster's own points of their squared expected
    /// deviation from the centroid (derived by summing Lemma 2.2 over the
    /// cluster members):
    ///
    /// `Σ_j CF2_j − Σ_j CF1_j²/W + (1 + 1/W) Σ_j EF2_j`
    ///
    /// Clamped at zero against floating-point cancellation.
    pub fn expected_deviation_ssq(&self) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for j in 0..self.dims() {
            acc += self.cf2[j] - self.cf1[j] * self.cf1[j] / self.weight
                + (1.0 + 1.0 / self.weight) * self.ef2[j];
        }
        acc.max(0.0)
    }

    /// The *uncertain radius* (Eq. 6): the RMS expected deviation of the
    /// cluster's points about its centroid,
    /// `U = sqrt(expected_deviation_ssq / W)`.
    pub fn uncertain_radius(&self) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        (self.expected_deviation_ssq() / self.weight).sqrt()
    }

    /// Error-corrected per-point deviation SSQ: the *observed* spread minus
    /// the known error contribution,
    /// `Σ_j max{0, CF2_j − CF1_j²/W − (1 − 1/W)·EF2_j}`.
    ///
    /// Observed values are `clean + noise`, so their scatter about the
    /// sample mean over-estimates the clean scatter — by
    /// `(1 − 1/W)·Σ_i ψ_i²` in expectation (the `1/W` term is the noise the
    /// sample mean itself absorbs; for small clusters subtracting the full
    /// `EF2` would systematically crush the radius). Subtracting the
    /// correct share gives an approximately unbiased estimate of the clean
    /// geometry — the de-noising that only an uncertainty-aware summary can
    /// perform, in the spirit of the density transforms of Aggarwal
    /// (ICDE 2007), the paper's reference \[1\].
    pub fn corrected_deviation_ssq(&self) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        let noise_share = 1.0 - 1.0 / self.weight.max(1.0);
        let mut acc = 0.0;
        for j in 0..self.dims() {
            let observed = self.cf2[j] - self.cf1[j] * self.cf1[j] / self.weight;
            acc += (observed - noise_share * self.ef2[j]).max(0.0);
        }
        acc
    }

    /// Error-corrected RMS radius: `sqrt(corrected_deviation_ssq / W)` — an
    /// estimate of the cluster's *clean* spread, free of the noise floor
    /// that inflates [`Ecf::uncertain_radius`] on heavily uncertain data.
    pub fn corrected_radius(&self) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        (self.corrected_deviation_ssq() / self.weight).sqrt()
    }

    /// Touch the temporal component without changing statistics.
    pub fn touch(&mut self, t: Timestamp) {
        if t > self.last_update {
            self.last_update = t;
        }
    }
}

impl AdditiveFeature for Ecf {
    fn dims(&self) -> usize {
        self.cf1.len()
    }

    fn count(&self) -> f64 {
        self.weight
    }

    fn last_update(&self) -> Timestamp {
        self.last_update
    }

    fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.dims(), other.dims());
        for j in 0..self.cf1.len() {
            self.cf2[j] += other.cf2[j];
            self.ef2[j] += other.ef2[j];
            self.cf1[j] += other.cf1[j];
        }
        self.weight += other.weight;
        self.count += other.count;
        self.last_update = self.last_update.max(other.last_update);
        self.last_decay = self.last_decay.max(other.last_decay);
        self.debug_invariants();
    }

    fn subtract(&mut self, other: &Self) {
        debug_assert_eq!(self.dims(), other.dims());
        for j in 0..self.cf1.len() {
            // Second moments are non-negative by construction; clamp the
            // tiny negative residues left by floating-point cancellation.
            self.cf2[j] = (self.cf2[j] - other.cf2[j]).max(0.0);
            self.ef2[j] = (self.ef2[j] - other.ef2[j]).max(0.0);
            self.cf1[j] -= other.cf1[j];
        }
        self.weight = (self.weight - other.weight).max(0.0);
        self.count = self.count.saturating_sub(other.count);
        self.debug_invariants();
    }

    fn prefetch(&self) {
        // One f64 per 64-byte line, plus the last one for a vector that
        // does not start on a line boundary.
        let d = self.cf1.len();
        for j in (0..d).step_by(8).chain(d.checked_sub(1)) {
            std::hint::black_box((self.cf2[j], self.ef2[j], self.cf1[j]));
        }
    }

    fn centroid(&self) -> Vec<f64> {
        (0..self.dims()).map(|j| self.centroid_dim(j)).collect()
    }
}

impl DecayableFeature for Ecf {
    fn scale(&mut self, factor: f64) {
        debug_assert!((0.0..=1.0).contains(&factor));
        for j in 0..self.cf1.len() {
            self.cf2[j] *= factor;
            self.ef2[j] *= factor;
            self.cf1[j] *= factor;
        }
        self.weight *= factor;
    }

    fn decay_to(&mut self, now: Timestamp, lambda: f64) {
        if now <= self.last_decay || lambda <= 0.0 {
            return;
        }
        // lint:allow(lossy-cast): tick deltas are far below 2^53, exact in f64
        let dt = (now - self.last_decay) as f64;
        self.scale(ustream_common::feature::decay_factor(lambda, dt));
        self.last_decay = now;
    }
}

/// Wire layout: `u32` d once, then the d-long CF2, EF2 and CF1 bit
/// vectors, `last_update`, `last_decay`, the weight bits and the count.
/// Writing d once makes the three vectors equal in length by construction.
impl Codec for Ecf {
    const MIN_BYTES: usize = 4 + 4 * 8;

    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.dims());
        put_f64s(out, &self.cf2);
        put_f64s(out, &self.ef2);
        put_f64s(out, &self.cf1);
        self.last_update.encode(out);
        self.last_decay.encode(out);
        self.weight.encode(out);
        self.count.encode(out);
    }

    fn encoded_len(&self) -> usize {
        4 + 3 * 8 * self.dims() + 4 * 8
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let d = r.count(3 * 8)?;
        Ok(Self {
            cf2: r.f64s(d)?,
            ef2: r.f64s(d)?,
            cf1: r.f64s(d)?,
            last_update: Timestamp::decode(r)?,
            last_decay: Timestamp::decode(r)?,
            weight: f64::decode(r)?,
            count: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(values: &[f64], errors: &[f64], t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec(), t, None)
    }

    #[test]
    fn singleton_statistics() {
        let e = Ecf::from_point(&pt(&[2.0, -3.0], &[0.5, 1.0], 7));
        assert_eq!(e.dims(), 2);
        assert_eq!(e.point_count(), 1);
        assert_eq!(e.weight(), 1.0);
        assert_eq!(e.cf1(), &[2.0, -3.0]);
        assert_eq!(e.cf2(), &[4.0, 9.0]);
        assert_eq!(e.ef2(), &[0.25, 1.0]);
        assert_eq!(e.last_update(), 7);
    }

    #[test]
    fn centroid_is_mean() {
        let mut e = Ecf::empty(2);
        e.insert(&pt(&[0.0, 0.0], &[0.1, 0.1], 1));
        e.insert(&pt(&[4.0, 2.0], &[0.1, 0.1], 2));
        assert_eq!(e.centroid(), vec![2.0, 1.0]);
        assert_eq!(e.centroid_dim(0), 2.0);
    }

    #[test]
    fn additive_property() {
        // Property 2.1: ECF(C1 ∪ C2) = ECF(C1) + ECF(C2) componentwise,
        // temporal component = max.
        let p1 = pt(&[1.0, 2.0], &[0.2, 0.3], 5);
        let p2 = pt(&[3.0, -1.0], &[0.1, 0.4], 9);
        let p3 = pt(&[0.5, 0.5], &[0.0, 0.0], 2);

        let mut whole = Ecf::empty(2);
        for p in [&p1, &p2, &p3] {
            whole.insert(p);
        }
        let mut a = Ecf::from_point(&p1);
        let mut b = Ecf::from_point(&p2);
        b.insert(&p3);
        a.merge(&b);

        for j in 0..2 {
            assert!((a.cf1()[j] - whole.cf1()[j]).abs() < 1e-12);
            assert!((a.cf2()[j] - whole.cf2()[j]).abs() < 1e-12);
            assert!((a.ef2()[j] - whole.ef2()[j]).abs() < 1e-12);
        }
        assert_eq!(a.weight(), 3.0);
        assert_eq!(a.point_count(), 3);
        assert_eq!(a.last_update(), 9);
    }

    #[test]
    fn subtractive_property_round_trip() {
        let pts: Vec<UncertainPoint> = (0..10)
            .map(|i| {
                pt(
                    &[i as f64, (i * i) as f64],
                    &[0.1 * i as f64, 0.2],
                    i as u64,
                )
            })
            .collect();
        let mut all = Ecf::empty(2);
        let mut prefix = Ecf::empty(2);
        for (i, p) in pts.iter().enumerate() {
            all.insert(p);
            if i < 4 {
                prefix.insert(p);
            }
        }
        let mut suffix = all.clone();
        suffix.subtract(&prefix);

        let mut direct = Ecf::empty(2);
        for p in &pts[4..] {
            direct.insert(p);
        }
        for j in 0..2 {
            assert!((suffix.cf1()[j] - direct.cf1()[j]).abs() < 1e-9);
            assert!((suffix.cf2()[j] - direct.cf2()[j]).abs() < 1e-9);
            assert!((suffix.ef2()[j] - direct.ef2()[j]).abs() < 1e-9);
        }
        assert_eq!(suffix.weight(), 6.0);
        assert_eq!(suffix.point_count(), 6);
    }

    #[test]
    fn subtract_to_empty() {
        let p = pt(&[1.0], &[0.5], 3);
        let mut e = Ecf::from_point(&p);
        let copy = e.clone();
        e.subtract(&copy);
        assert!(AdditiveFeature::is_empty(&e));
        assert_eq!(e.point_count(), 0);
    }

    #[test]
    fn lemma_2_1_matches_definition() {
        // E[||Z||^2] = Σ CF1_j²/n² + Σ EF2_j/n².
        let mut e = Ecf::empty(2);
        e.insert(&pt(&[1.0, 2.0], &[0.5, 0.0], 1));
        e.insert(&pt(&[3.0, 4.0], &[0.5, 1.0], 2));
        // CF1 = [4, 6]; EF2 = [0.5, 1.0]; n = 2.
        let want = (16.0 + 36.0) / 4.0 + (0.5 + 1.0) / 4.0;
        assert!((e.expected_centroid_sq_norm() - want).abs() < 1e-12);
    }

    #[test]
    fn zero_error_centroid_norm_is_plain_norm() {
        let mut e = Ecf::empty(2);
        e.insert(&pt(&[3.0, 0.0], &[0.0, 0.0], 1));
        e.insert(&pt(&[5.0, 0.0], &[0.0, 0.0], 2));
        // centroid (4, 0): ||Z||² = 16 exactly when no error.
        assert!((e.expected_centroid_sq_norm() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn deviation_ssq_zero_error_matches_classical_ssq() {
        // With ψ = 0, expected_deviation_ssq must equal Σ (x - mean)².
        let xs = [1.0f64, 2.0, 3.0, 10.0];
        let mut e = Ecf::empty(1);
        for (i, &x) in xs.iter().enumerate() {
            e.insert(&pt(&[x], &[0.0], i as u64));
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let classical: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
        assert!((e.expected_deviation_ssq() - classical).abs() < 1e-9);
    }

    #[test]
    fn deviation_ssq_grows_with_error() {
        let mut clean = Ecf::empty(1);
        let mut noisy = Ecf::empty(1);
        for i in 0..5 {
            clean.insert(&pt(&[i as f64], &[0.0], i as u64));
            noisy.insert(&pt(&[i as f64], &[2.0], i as u64));
        }
        assert!(noisy.expected_deviation_ssq() > clean.expected_deviation_ssq());
        assert!(noisy.uncertain_radius() > clean.uncertain_radius());
    }

    #[test]
    fn singleton_uncertain_radius_reflects_error() {
        // n = 1: SSQ_u = 2 Σ ψ² so radius = sqrt(2)·ψ in 1-d.
        let e = Ecf::from_point(&pt(&[5.0], &[3.0], 1));
        assert!((e.uncertain_radius() - (2.0f64 * 9.0).sqrt()).abs() < 1e-9);
        // Deterministic singleton: zero radius.
        let det = Ecf::from_point(&pt(&[5.0], &[0.0], 1));
        assert_eq!(det.uncertain_radius(), 0.0);
    }

    #[test]
    fn variance_per_dimension() {
        let mut e = Ecf::empty(2);
        e.insert(&pt(&[0.0, 5.0], &[0.0, 0.0], 1));
        e.insert(&pt(&[2.0, 5.0], &[0.0, 0.0], 2));
        assert!((e.variance_dim(0) - 1.0).abs() < 1e-12);
        assert_eq!(e.variance_dim(1), 0.0);
    }

    #[test]
    fn scale_preserves_centroid_and_radius_shape() {
        let mut e = Ecf::empty(2);
        e.insert(&pt(&[1.0, 4.0], &[0.3, 0.1], 1));
        e.insert(&pt(&[3.0, 0.0], &[0.3, 0.1], 2));
        let c_before = e.centroid();
        let var_before = e.variance_dim(0);
        e.scale(0.25);
        // Uniform scaling cancels in every ratio statistic.
        let c_after = e.centroid();
        for j in 0..2 {
            assert!((c_before[j] - c_after[j]).abs() < 1e-12);
        }
        assert!((e.variance_dim(0) - var_before).abs() < 1e-12);
        assert!((e.weight() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lazy_decay_matches_half_life() {
        let mut e = Ecf::from_point(&pt(&[4.0], &[0.2], 0));
        e.decay_to(100, 0.01); // half-life 100 ticks.
        assert!((e.weight() - 0.5).abs() < 1e-12);
        assert_eq!(e.last_decay(), 100);
        // Decaying again to the same tick is a no-op.
        let w = e.weight();
        e.decay_to(100, 0.01);
        assert_eq!(e.weight(), w);
    }

    #[test]
    fn lazy_decay_composes() {
        let p = pt(&[4.0], &[0.2], 0);
        let mut one_step = Ecf::from_point(&p);
        one_step.decay_to(70, 0.02);
        let mut two_steps = Ecf::from_point(&p);
        two_steps.decay_to(30, 0.02);
        two_steps.decay_to(70, 0.02);
        assert!((one_step.weight() - two_steps.weight()).abs() < 1e-12);
        assert!((one_step.cf2()[0] - two_steps.cf2()[0]).abs() < 1e-12);
    }

    #[test]
    fn empty_accessors_are_safe() {
        let e = Ecf::empty(3);
        assert_eq!(e.centroid(), vec![0.0, 0.0, 0.0]);
        assert_eq!(e.uncertain_radius(), 0.0);
        assert_eq!(e.expected_centroid_sq_norm(), 0.0);
        assert_eq!(e.variance_dim(1), 0.0);
        assert!(AdditiveFeature::is_empty(&e));
    }

    #[test]
    fn centroid_into_matches_allocating_accessor() {
        let mut e = Ecf::empty(2);
        e.insert(&pt(&[0.0, 0.0], &[0.5, 0.0], 1));
        e.insert(&pt(&[4.0, 2.0], &[0.5, 1.0], 2));
        let mut c = [f64::NAN; 2];
        e.centroid_into(&mut c);
        assert_eq!(c.to_vec(), e.centroid());
        let mut n = [f64::NAN; 2];
        e.noise_into(&mut n);
        // EF2 = [0.5, 1.0]; W = 2 → EF2/W² = [0.125, 0.25].
        assert!((n[0] - 0.125).abs() < 1e-12);
        assert!((n[1] - 0.25).abs() < 1e-12);

        let empty = Ecf::empty(2);
        empty.centroid_into(&mut c);
        empty.noise_into(&mut n);
        assert_eq!(c, [0.0, 0.0]);
        assert_eq!(n, [0.0, 0.0]);
    }

    #[test]
    fn touch_moves_temporal_component_forward_only() {
        let mut e = Ecf::from_point(&pt(&[1.0], &[0.1], 10));
        e.touch(5);
        assert_eq!(e.last_update(), 10);
        e.touch(20);
        assert_eq!(e.last_update(), 20);
    }

    #[test]
    fn binary_layout_round_trips_bit_for_bit() {
        let e = Ecf {
            cf2: vec![f64::NAN, -0.0],
            ef2: vec![f64::INFINITY, f64::MIN_POSITIVE / 8.0],
            cf1: vec![f64::NEG_INFINITY, 1.25],
            last_update: 9,
            last_decay: u64::MAX,
            weight: -0.0,
            count: 3,
        };
        let mut bytes = Vec::new();
        e.encode(&mut bytes);
        assert_eq!(bytes.len(), 4 + 3 * 2 * 8 + 4 * 8, "d is written once");
        assert_eq!(e.encoded_len(), bytes.len());
        let back: Ecf = ustream_common::codec::decode_exact(&bytes).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.cf2), bits(&e.cf2));
        assert_eq!(bits(&back.ef2), bits(&e.ef2));
        assert_eq!(bits(&back.cf1), bits(&e.cf1));
        assert_eq!(back.weight.to_bits(), e.weight.to_bits());
        assert_eq!(
            (back.last_update, back.last_decay, back.count),
            (9, u64::MAX, 3)
        );
    }
}
