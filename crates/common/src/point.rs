//! Uncertain and deterministic data points.
//!
//! The paper's input model: the `i`-th stream element is the pair
//! `(X_i, ψ(X_i))` where `ψ_j(X_i)` is the *standard deviation* of the error
//! on the `j`-th dimension of `X_i`. Errors have zero mean and are
//! independent across records and dimensions.

use crate::codec::{put_count, put_f64s, Codec, CodecError, Reader};
use crate::label::ClassLabel;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};

/// A `d`-dimensional uncertain record: an instantiation plus a per-dimension
/// error standard-deviation vector `ψ`.
///
/// This is the unit of work for [`umicro`](https://crates.io) style
/// algorithms. Deterministic algorithms (CluStream) simply ignore
/// [`UncertainPoint::errors`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UncertainPoint {
    /// The observed (instantiated) attribute values `x_1 … x_d`.
    values: Box<[f64]>,
    /// The error standard deviations `ψ_1(X) … ψ_d(X)`; all non-negative.
    errors: Box<[f64]>,
    /// Arrival tick on the stream clock.
    timestamp: Timestamp,
    /// Ground-truth class, when known — used only for evaluation.
    label: Option<ClassLabel>,
}

impl UncertainPoint {
    /// Builds a point from value and error vectors.
    ///
    /// # Panics
    /// Panics if the two vectors differ in length or any error is negative
    /// or non-finite; both indicate generator bugs rather than recoverable
    /// conditions.
    pub fn new(
        values: Vec<f64>,
        errors: Vec<f64>,
        timestamp: Timestamp,
        label: Option<ClassLabel>,
    ) -> Self {
        assert_eq!(
            values.len(),
            errors.len(),
            "value/error vectors must have equal dimensionality"
        );
        assert!(
            errors.iter().all(|e| e.is_finite() && *e >= 0.0),
            "error standard deviations must be finite and non-negative"
        );
        Self {
            values: values.into_boxed_slice(),
            errors: errors.into_boxed_slice(),
            timestamp,
            label,
        }
    }

    /// A point with zero uncertainty on every dimension (`ψ = 0`).
    pub fn certain(values: Vec<f64>, timestamp: Timestamp, label: Option<ClassLabel>) -> Self {
        let errors = vec![0.0; values.len()];
        Self::new(values, errors, timestamp, label)
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// The instantiated attribute values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The error standard-deviation vector `ψ(X)`.
    #[inline]
    pub fn errors(&self) -> &[f64] {
        &self.errors
    }

    /// Arrival tick.
    #[inline]
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Ground-truth class, if known.
    #[inline]
    pub fn label(&self) -> Option<ClassLabel> {
        self.label
    }

    /// Re-stamps the point with a new arrival tick (used when replaying a
    /// recorded dataset as a stream).
    pub fn with_timestamp(mut self, t: Timestamp) -> Self {
        self.timestamp = t;
        self
    }

    /// Attaches (or replaces) a ground-truth label.
    pub fn with_label(mut self, label: ClassLabel) -> Self {
        self.label = Some(label);
        self
    }

    /// `true` when every instantiated coordinate is finite.
    ///
    /// [`UncertainPoint::new`] does *not* enforce this (a NaN reading is a
    /// data-quality problem, not a programming error), so ingestion layers
    /// that must keep non-finite values out of additive statistics check
    /// here.
    #[inline]
    pub fn values_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// `true` when every error standard deviation is finite and
    /// non-negative.
    ///
    /// [`UncertainPoint::new`] asserts this, but deserialised points bypass
    /// the constructor, so defensive layers re-check.
    #[inline]
    pub fn errors_valid(&self) -> bool {
        self.errors.iter().all(|e| e.is_finite() && *e >= 0.0)
    }

    /// Sum over dimensions of squared error std-devs, `Σ_j ψ_j(X)²` — the
    /// point's contribution to a cluster's `EF2` vector.
    pub fn error_energy(&self) -> f64 {
        self.errors.iter().map(|e| e * e).sum()
    }

    /// Squared Euclidean distance between the *instantiations* of two points
    /// (errors ignored). Deterministic baselines use this.
    pub fn sq_distance_to(&self, other: &UncertainPoint) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }
}

/// Layout: `u32` d, then d value bits, d error bits, the `u64` tick and
/// the optional `u32` label. Like a deserialised point, a decoded one
/// skips the constructor's ψ checks, so defensive layers re-check.
impl Codec for UncertainPoint {
    const MIN_BYTES: usize = 4 + 8 + 1;

    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.dims());
        put_f64s(out, &self.values);
        put_f64s(out, &self.errors);
        self.timestamp.encode(out);
        self.label.map(|l| l.0).encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let d = r.count(16)?;
        Ok(Self {
            values: r.f64s(d)?.into_boxed_slice(),
            errors: r.f64s(d)?.into_boxed_slice(),
            timestamp: Timestamp::decode(r)?,
            label: Option::<u32>::decode(r)?.map(ClassLabel),
        })
    }
}

/// A plain deterministic point — values only. Used by substrates (k-means)
/// that do not care about uncertainty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeterministicPoint {
    /// Attribute values.
    pub values: Vec<f64>,
    /// Multiplicity/weight of the point (1.0 for raw records; k-means
    /// substrates cluster *weighted* representatives).
    pub weight: f64,
}

impl DeterministicPoint {
    /// A unit-weight point.
    pub fn new(values: Vec<f64>) -> Self {
        Self {
            values,
            weight: 1.0,
        }
    }

    /// A weighted point (e.g. a micro-cluster centroid carrying its count).
    pub fn weighted(values: Vec<f64>, weight: f64) -> Self {
        debug_assert!(weight.is_finite() && weight >= 0.0);
        Self { values, weight }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Squared Euclidean distance to a coordinate slice.
    #[inline]
    pub fn sq_distance_to(&self, other: &[f64]) -> f64 {
        sq_euclidean(&self.values, other)
    }
}

impl From<&UncertainPoint> for DeterministicPoint {
    fn from(p: &UncertainPoint) -> Self {
        DeterministicPoint::new(p.values().to_vec())
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// The single hottest primitive in the workspace; kept free-standing so every
/// crate shares one implementation the compiler can vectorise.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = UncertainPoint::new(vec![1.0, 2.0], vec![0.1, 0.2], 5, Some(ClassLabel(3)));
        assert_eq!(p.dims(), 2);
        assert_eq!(p.values(), &[1.0, 2.0]);
        assert_eq!(p.errors(), &[0.1, 0.2]);
        assert_eq!(p.timestamp(), 5);
        assert_eq!(p.label(), Some(ClassLabel(3)));
    }

    #[test]
    fn certain_point_has_zero_errors() {
        let p = UncertainPoint::certain(vec![1.0, 2.0, 3.0], 0, None);
        // lint:allow(float-eq): zeros are assigned verbatim by certain(), never computed
        assert!(p.errors().iter().all(|e| *e == 0.0));
        assert_eq!(p.error_energy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn mismatched_errors_panic() {
        let _ = UncertainPoint::new(vec![1.0, 2.0], vec![0.1], 0, None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_error_panics() {
        let _ = UncertainPoint::new(vec![1.0], vec![-0.5], 0, None);
    }

    #[test]
    fn error_energy_is_sum_of_squares() {
        let p = UncertainPoint::new(vec![0.0, 0.0], vec![3.0, 4.0], 0, None);
        assert!((p.error_energy() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn sq_distance_between_points() {
        let a = UncertainPoint::certain(vec![0.0, 0.0], 0, None);
        let b = UncertainPoint::certain(vec![3.0, 4.0], 0, None);
        assert!((a.sq_distance_to(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn with_timestamp_and_label() {
        let p = UncertainPoint::certain(vec![1.0], 0, None)
            .with_timestamp(9)
            .with_label(ClassLabel(1));
        assert_eq!(p.timestamp(), 9);
        assert_eq!(p.label(), Some(ClassLabel(1)));
    }

    #[test]
    fn deterministic_from_uncertain_drops_errors() {
        let p = UncertainPoint::new(vec![1.0, 2.0], vec![0.5, 0.5], 0, None);
        let d = DeterministicPoint::from(&p);
        assert_eq!(d.values, vec![1.0, 2.0]);
        assert_eq!(d.weight, 1.0);
    }

    #[test]
    fn sq_euclidean_basic() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[1.0, 1.0]), 2.0);
        assert_eq!(sq_euclidean(&[], &[]), 0.0);
    }

    #[test]
    fn weighted_point() {
        let d = DeterministicPoint::weighted(vec![1.0], 12.5);
        assert_eq!(d.weight, 12.5);
        assert_eq!(d.dims(), 1);
        assert_eq!(d.sq_distance_to(&[4.0]), 9.0);
    }

    #[test]
    fn binary_layout_round_trips_bit_for_bit() {
        let p = UncertainPoint {
            values: vec![f64::NAN, -0.0, f64::INFINITY].into_boxed_slice(),
            errors: vec![f64::MIN_POSITIVE / 2.0, f64::NEG_INFINITY, 0.5].into_boxed_slice(),
            timestamp: u64::MAX,
            label: Some(ClassLabel(7)),
        };
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        assert_eq!(bytes.len(), 4 + 2 * 3 * 8 + 8 + 1 + 4);
        let back: UncertainPoint = crate::codec::decode_exact(&bytes).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.values()), bits(p.values()));
        assert_eq!(bits(back.errors()), bits(p.errors()));
        assert_eq!((back.timestamp(), back.label()), (p.timestamp(), p.label()));
        // A dimension count the payload cannot hold fails before allocating.
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            crate::codec::decode_exact::<UncertainPoint>(&bytes),
            Err(CodecError::Length { .. })
        ));
    }
}
