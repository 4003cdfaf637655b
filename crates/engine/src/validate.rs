//! Input validation and poison-point quarantine.
//!
//! A stream engine that runs for days will eventually see malformed input:
//! sensors emit NaN on failure, error models divide by zero, upstream
//! producers replay out of order. A single NaN coordinate is *poison* — the
//! ECF sums absorb it and every centroid, variance and distance downstream
//! becomes NaN, silently destroying the whole cluster set. The core layer
//! guards its distance kernels (NaN never wins a nearest scan), but the
//! engine's first line of defence is to keep poison out of the shard
//! channels entirely.
//!
//! Producers choose a [`ValidationPolicy`]: fail fast ([`Reject`]), repair
//! in place ([`Clamp`]), or divert into a bounded [`Quarantine`] buffer for
//! offline inspection ([`Quarantine`]). Dimension mismatches are never
//! repairable — they are rejected under every policy, because no clamp can
//! invent coordinates.
//!
//! [`Reject`]: ValidationPolicy::Reject
//! [`Clamp`]: ValidationPolicy::Clamp
//! [`Quarantine`]: ValidationPolicy::Quarantine

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use ustream_common::{Timestamp, UncertainPoint};

/// What the engine does with a point that fails validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ValidationPolicy {
    /// Return the fault to the producer as an error. The point is counted
    /// but not enqueued. This is the default: a malformed point usually
    /// means a broken producer, and failing loudly beats clustering noise.
    #[default]
    Reject,
    /// Repair the point and ingest it: non-finite coordinates become `0`,
    /// out-of-range magnitudes saturate at `±f64::MAX`, invalid error
    /// entries become `0` (treat as deterministic), and non-monotone
    /// timestamps are lifted to the engine clock. Dimension mismatches are
    /// still rejected.
    Clamp,
    /// Silently divert the point into a bounded quarantine buffer the
    /// operator can drain and inspect; ingestion continues. When the buffer
    /// is full the oldest quarantined point is dropped (and counted).
    Quarantine,
}

/// What the engine does when every shard channel is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Block the producer until the shard drains — lossless, the default.
    #[default]
    Block,
    /// Drop the newly arriving point and count it. Keeps producers
    /// real-time at the cost of bounded data loss under overload.
    DropNewest,
    /// Return [`UStreamError::Backpressure`] to the producer immediately.
    ///
    /// [`UStreamError::Backpressure`]: ustream_common::UStreamError::Backpressure
    Error,
}

/// A specific reason a point failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PointFault {
    /// The point's dimensionality differs from the engine's.
    DimensionMismatch {
        /// Engine dimensionality.
        expected: usize,
        /// The point's dimensionality.
        actual: usize,
    },
    /// A coordinate is NaN or infinite.
    NonFiniteValue {
        /// Offending dimension index.
        dim: usize,
    },
    /// An error standard deviation is NaN, infinite or negative.
    InvalidError {
        /// Offending dimension index.
        dim: usize,
    },
    /// The timestamp runs backwards past the engine clock (only checked
    /// when [`monotone timestamps`](crate::EngineConfig::monotone_timestamps)
    /// are enforced).
    NonMonotoneTimestamp {
        /// The point's timestamp.
        timestamp: Timestamp,
        /// The engine clock it fell behind.
        clock: Timestamp,
    },
}

impl fmt::Display for PointFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "point has {actual} dimensions, engine expects {expected}"
                )
            }
            Self::NonFiniteValue { dim } => {
                write!(f, "non-finite coordinate in dimension {dim}")
            }
            Self::InvalidError { dim } => {
                write!(
                    f,
                    "error standard deviation in dimension {dim} is negative or non-finite"
                )
            }
            Self::NonMonotoneTimestamp { timestamp, clock } => {
                write!(
                    f,
                    "timestamp {timestamp} runs behind the engine clock {clock}"
                )
            }
        }
    }
}

impl PointFault {
    /// Whether [`ValidationPolicy::Clamp`] can repair this fault.
    pub fn clampable(&self) -> bool {
        !matches!(self, Self::DimensionMismatch { .. })
    }
}

/// Checks one point against the engine's expectations.
///
/// `clock` is the monotonicity floor: `Some(t)` rejects timestamps `< t`
/// (pass `None` when out-of-order input is acceptable).
pub fn check_point(
    point: &UncertainPoint,
    dims: usize,
    clock: Option<Timestamp>,
) -> Result<(), PointFault> {
    if point.dims() != dims {
        return Err(PointFault::DimensionMismatch {
            expected: dims,
            actual: point.dims(),
        });
    }
    if let Some(dim) = point.values().iter().position(|v| !v.is_finite()) {
        return Err(PointFault::NonFiniteValue { dim });
    }
    if let Some(dim) = point
        .errors()
        .iter()
        .position(|e| !e.is_finite() || *e < 0.0)
    {
        return Err(PointFault::InvalidError { dim });
    }
    if let Some(clock) = clock {
        if point.timestamp() < clock {
            return Err(PointFault::NonMonotoneTimestamp {
                timestamp: point.timestamp(),
                clock,
            });
        }
    }
    Ok(())
}

/// Repairs a clampable fault (see [`ValidationPolicy::Clamp`]).
///
/// The caller must have established via [`PointFault::clampable`] that the
/// dimensionality is right; this function fixes everything else.
pub fn clamp_point(point: &UncertainPoint, clock: Option<Timestamp>) -> UncertainPoint {
    let values: Vec<f64> = point
        .values()
        .iter()
        .map(|v| {
            if v.is_nan() {
                0.0
            } else if *v == f64::INFINITY {
                f64::MAX
            } else if *v == f64::NEG_INFINITY {
                f64::MIN
            } else {
                *v
            }
        })
        .collect();
    let errors: Vec<f64> = point
        .errors()
        .iter()
        .map(|e| if e.is_finite() && *e >= 0.0 { *e } else { 0.0 })
        .collect();
    let timestamp = match clock {
        Some(clock) if point.timestamp() < clock => clock,
        _ => point.timestamp(),
    };
    UncertainPoint::new(values, errors, timestamp, point.label())
}

/// A point diverted into quarantine, with the reason it failed.
#[derive(Debug, Clone)]
pub struct QuarantinedPoint {
    /// The offending point, unmodified.
    pub point: UncertainPoint,
    /// Human-readable fault description.
    pub fault: String,
}

/// Bounded ring of quarantined points.
#[derive(Debug)]
pub struct Quarantine {
    buf: VecDeque<QuarantinedPoint>,
    capacity: usize,
    admitted: u64,
    dropped: u64,
}

impl Quarantine {
    /// Creates an empty quarantine holding at most `capacity` points.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::new(),
            capacity,
            admitted: 0,
            dropped: 0,
        }
    }

    /// Admits a faulty point, evicting the oldest if the buffer is full.
    pub fn admit(&mut self, point: UncertainPoint, fault: &PointFault) {
        self.admitted += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(QuarantinedPoint {
            point,
            fault: fault.to_string(),
        });
    }

    /// Points currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total points ever quarantined (including since-dropped ones).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Quarantined points evicted because the buffer overflowed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the held points for inspection, oldest first.
    pub fn drain(&mut self) -> Vec<QuarantinedPoint> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize, Value};

    fn pt(values: Vec<f64>, errors: Vec<f64>, t: Timestamp) -> UncertainPoint {
        UncertainPoint::new(values, errors, t, None)
    }

    /// Builds a point whose error vector bypasses the constructor assert,
    /// as a deserialised wire point would.
    fn raw_pt(values: Vec<f64>, errors: Vec<f64>, t: Timestamp) -> UncertainPoint {
        let template = pt(vec![0.0; values.len()], vec![0.0; errors.len()], t);
        let mut v = template.to_value();
        if let Value::Obj(fields) = &mut v {
            for (name, val) in fields.iter_mut() {
                if name == "values" {
                    *val = Value::Arr(values.iter().copied().map(Value::Float).collect());
                } else if name == "errors" {
                    *val = Value::Arr(errors.iter().copied().map(Value::Float).collect());
                }
            }
        }
        UncertainPoint::from_value(&v).expect("rebuild point")
    }

    #[test]
    fn clean_point_passes() {
        assert!(check_point(&pt(vec![1.0, 2.0], vec![0.1, 0.2], 5), 2, Some(3)).is_ok());
    }

    #[test]
    fn dimension_mismatch_detected_and_not_clampable() {
        let fault = check_point(&pt(vec![1.0], vec![0.1], 1), 2, None).unwrap_err();
        assert!(matches!(
            fault,
            PointFault::DimensionMismatch {
                expected: 2,
                actual: 1
            }
        ));
        assert!(!fault.clampable());
    }

    #[test]
    fn nan_and_infinite_values_detected() {
        let fault = check_point(&pt(vec![0.0, f64::NAN], vec![0.1, 0.1], 1), 2, None).unwrap_err();
        assert_eq!(fault, PointFault::NonFiniteValue { dim: 1 });
        let fault =
            check_point(&pt(vec![f64::INFINITY, 0.0], vec![0.1, 0.1], 1), 2, None).unwrap_err();
        assert_eq!(fault, PointFault::NonFiniteValue { dim: 0 });
    }

    #[test]
    fn bad_errors_detected() {
        let fault = check_point(&raw_pt(vec![0.0], vec![-1.0], 1), 1, None).unwrap_err();
        assert_eq!(fault, PointFault::InvalidError { dim: 0 });
        let fault = check_point(&raw_pt(vec![0.0], vec![f64::NAN], 1), 1, None).unwrap_err();
        assert_eq!(fault, PointFault::InvalidError { dim: 0 });
    }

    #[test]
    fn monotone_clock_enforced_only_when_asked() {
        let p = pt(vec![0.0], vec![0.1], 5);
        assert!(check_point(&p, 1, None).is_ok());
        assert!(check_point(&p, 1, Some(5)).is_ok());
        let fault = check_point(&p, 1, Some(9)).unwrap_err();
        assert!(matches!(
            fault,
            PointFault::NonMonotoneTimestamp {
                timestamp: 5,
                clock: 9
            }
        ));
    }

    #[test]
    fn clamp_repairs_everything_checkable() {
        let p = raw_pt(
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.5],
            vec![-0.5, f64::NAN, f64::INFINITY, 0.25],
            2,
        );
        let fixed = clamp_point(&p, Some(7));
        assert_eq!(fixed.values(), &[0.0, f64::MAX, f64::MIN, 3.5]);
        assert_eq!(fixed.errors(), &[0.0, 0.0, 0.0, 0.25]);
        assert_eq!(fixed.timestamp(), 7);
        assert!(check_point(&fixed, 4, Some(7)).is_ok());
    }

    #[test]
    fn quarantine_bounds_and_counts() {
        let mut q = Quarantine::new(2);
        let fault = PointFault::NonFiniteValue { dim: 0 };
        for t in 0..5u64 {
            q.admit(pt(vec![t as f64], vec![0.1], t), &fault);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.admitted(), 5);
        assert_eq!(q.dropped(), 3);
        let held = q.drain();
        assert_eq!(held.len(), 2);
        // Oldest-first drain of the two most recent admissions.
        assert_eq!(held[0].point.timestamp(), 3);
        assert_eq!(held[1].point.timestamp(), 4);
        assert!(held[0].fault.contains("non-finite"));
        assert!(q.is_empty());
    }

    #[test]
    fn zero_capacity_quarantine_drops_everything() {
        let mut q = Quarantine::new(0);
        q.admit(
            pt(vec![0.0], vec![0.1], 1),
            &PointFault::NonFiniteValue { dim: 0 },
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.admitted(), 1);
    }

    #[test]
    fn policies_serde_round_trip() {
        for p in [
            ValidationPolicy::Reject,
            ValidationPolicy::Clamp,
            ValidationPolicy::Quarantine,
        ] {
            let v = p.to_value();
            assert_eq!(ValidationPolicy::from_value(&v).unwrap(), p);
        }
        for b in [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropNewest,
            BackpressurePolicy::Error,
        ] {
            let v = b.to_value();
            assert_eq!(BackpressurePolicy::from_value(&v).unwrap(), b);
        }
    }
}
