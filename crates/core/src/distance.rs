//! Expected-distance computation (Lemmas 2.1 and 2.2 of the paper).
//!
//! The centroid `Z` of an uncertain cluster is itself a random variable, so
//! "distance from point to cluster" must be taken in expectation:
//!
//! ```text
//! v = E[‖X − Z‖²] = E[‖X‖²] + E[‖Z‖²] − 2·E[X]·E[Z]
//!   = Σ_j x_j² + Σ_j ψ_j(X)²                 (point second moment + error)
//!   + Σ_j CF1_j²/W² + Σ_j EF2_j/W²            (Lemma 2.1)
//!   − 2 Σ_j x_j · CF1_j / W                   (cross term)
//! ```
//!
//! Everything is computable in `O(d)` from the point and the ECF — the same
//! asymptotic cost as a deterministic distance, which the paper stresses is
//! essential because distance evaluation dominates the stream loop.

use crate::ecf::Ecf;
use ustream_common::UncertainPoint;

/// Maps a possibly-poisoned squared distance to a rankable value.
///
/// `f64::max(NaN, 0.0)` evaluates to `0.0`, so the cancellation clamps in
/// this module would silently turn a NaN-bearing point into the *nearest*
/// candidate at distance zero. NaN therefore maps to `+∞` (a non-finite
/// input can never win a nearest scan or be absorbed); genuine negative
/// cancellation residue still clamps to zero.
#[inline]
pub(crate) fn sanitize_sq(d: f64) -> f64 {
    if d.is_nan() {
        f64::INFINITY
    } else {
        d.max(0.0)
    }
}

/// Expected squared distance between an uncertain point and the centroid of
/// an uncertain cluster (Lemma 2.2). Clamped at zero: the exact expression
/// is non-negative, but floating-point cancellation can leave `−1e-16`.
/// NaN inputs rank at `+∞` (see `sanitize_sq`).
pub fn expected_sq_distance(point: &UncertainPoint, ecf: &Ecf) -> f64 {
    debug_assert_eq!(point.dims(), ecf.dims());
    let w = ecf.weight();
    if w <= 0.0 {
        // Empty cluster: fall back to the point's own second moment; callers
        // never rank empty clusters, this is a defensive value.
        return point.values().iter().map(|x| x * x).sum::<f64>() + point.error_energy();
    }
    let (values, errors) = (point.values(), point.errors());
    let (cf1, ef2) = (ecf.cf1(), ecf.ef2());
    let w2 = w * w;
    let mut acc = 0.0;
    for j in 0..values.len() {
        let x = values[j];
        let psi = errors[j];
        acc += cf1[j] * cf1[j] / w2 + ef2[j] / w2 + psi * psi + x * x - 2.0 * x * cf1[j] / w;
    }
    sanitize_sq(acc)
}

/// The dimension-`j` component of the expected squared distance:
/// `E[(X_j − Z_j)²] = (x_j − c_j)² + ψ_j² + EF2_j/W²` where `c_j` is the
/// centroid coordinate. Summing over `j` reproduces
/// [`expected_sq_distance`]; the per-dimension form feeds the
/// dimension-counting similarity.
#[inline]
pub fn expected_sq_distance_dim(point: &UncertainPoint, ecf: &Ecf, j: usize) -> f64 {
    let w = ecf.weight();
    if w <= 0.0 {
        let x = point.values()[j];
        let psi = point.errors()[j];
        return x * x + psi * psi;
    }
    let x = point.values()[j];
    let psi = point.errors()[j];
    let c = ecf.cf1()[j] / w;
    let diff = x - c;
    sanitize_sq(diff * diff + psi * psi + ecf.ef2()[j] / (w * w))
}

/// Writes every dimension component of the expected squared distance into
/// `out` in one pass: `out[j] = E[(X_j − Z_j)²]`.
///
/// Equivalent to calling [`expected_sq_distance_dim`] for each `j`, but the
/// weight load, the `w <= 0` branch and the `1/w`, `1/w²` divisions are
/// hoisted out of the per-dimension loop — this is the form the
/// dimension-counting similarity consumes.
pub fn expected_sq_distance_dims(point: &UncertainPoint, ecf: &Ecf, out: &mut [f64]) {
    debug_assert_eq!(point.dims(), ecf.dims());
    debug_assert_eq!(out.len(), ecf.dims());
    let (values, errors) = (point.values(), point.errors());
    let w = ecf.weight();
    if w <= 0.0 {
        for j in 0..out.len() {
            let x = values[j];
            let psi = errors[j];
            out[j] = x * x + psi * psi;
        }
        return;
    }
    let (cf1, ef2) = (ecf.cf1(), ecf.ef2());
    let inv_w = 1.0 / w;
    let inv_w2 = inv_w * inv_w;
    for j in 0..out.len() {
        let diff = values[j] - cf1[j] * inv_w;
        let psi = errors[j];
        out[j] = sanitize_sq(diff * diff + psi * psi + ef2[j] * inv_w2);
    }
}

/// Error-corrected squared distance between a point's *clean* position and
/// the cluster centroid: per dimension,
/// `max{0, (x_j − c_j)² − ψ_j² − EF2_j/W²}`.
///
/// The realised `(x_j − c_j)²` over-estimates the clean squared distance by
/// the point's error variance plus the centroid's error variance, both of
/// which are known; subtracting them de-noises the geometry. Used by the
/// error-corrected uncertainty boundary.
pub fn corrected_sq_distance(point: &UncertainPoint, ecf: &Ecf) -> f64 {
    debug_assert_eq!(point.dims(), ecf.dims());
    let w = ecf.weight();
    if w <= 0.0 {
        return point.values().iter().map(|x| x * x).sum();
    }
    let (values, errors) = (point.values(), point.errors());
    let (cf1, ef2) = (ecf.cf1(), ecf.ef2());
    let w2 = w * w;
    let mut acc = 0.0;
    for j in 0..values.len() {
        let diff = values[j] - cf1[j] / w;
        let psi = errors[j];
        let c = diff * diff - psi * psi - ef2[j] / w2;
        if c.is_nan() || c == f64::NEG_INFINITY {
            // A non-finite coordinate or error makes the correction
            // undefined for this dimension; rank the point infinitely far
            // instead of letting the clamp below read the poisoned
            // dimension as distance zero.
            return f64::INFINITY;
        }
        acc += c.max(0.0);
    }
    acc
}

/// Expected squared distance between the centroids of two uncertain
/// clusters, used by merge heuristics and macro-clustering diagnostics:
/// `E[‖Z_a − Z_b‖²] = ‖c_a − c_b‖² + Σ_j EF2a_j/Wa² + Σ_j EF2b_j/Wb²`
/// (cross terms vanish by independence).
pub fn expected_centroid_sq_distance(a: &Ecf, b: &Ecf) -> f64 {
    debug_assert_eq!(a.dims(), b.dims());
    let (wa, wb) = (a.weight(), b.weight());
    if wa <= 0.0 || wb <= 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for j in 0..a.dims() {
        let ca = a.cf1()[j] / wa;
        let cb = b.cf1()[j] / wb;
        let diff = ca - cb;
        acc += diff * diff + a.ef2()[j] / (wa * wa) + b.ef2()[j] / (wb * wb);
    }
    sanitize_sq(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_common::UncertainPoint;

    fn pt(values: &[f64], errors: &[f64]) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec(), 0, None)
    }

    #[test]
    fn reduces_to_plain_distance_when_certain() {
        // ψ = 0 everywhere → expected distance = squared Euclidean distance
        // to the deterministic centroid.
        let mut ecf = Ecf::empty(2);
        ecf.insert(&pt(&[0.0, 0.0], &[0.0, 0.0]));
        ecf.insert(&pt(&[2.0, 2.0], &[0.0, 0.0]));
        // centroid (1, 1).
        let x = pt(&[4.0, 5.0], &[0.0, 0.0]);
        let want = (4.0f64 - 1.0).powi(2) + (5.0f64 - 1.0).powi(2);
        assert!((expected_sq_distance(&x, &ecf) - want).abs() < 1e-12);
    }

    #[test]
    fn per_dimension_components_sum_to_total() {
        let mut ecf = Ecf::empty(3);
        ecf.insert(&pt(&[1.0, -2.0, 0.5], &[0.3, 0.1, 0.0]));
        ecf.insert(&pt(&[2.0, 1.0, -0.5], &[0.2, 0.4, 0.1]));
        let x = pt(&[0.0, 3.0, 1.0], &[0.5, 0.0, 0.2]);
        let total = expected_sq_distance(&x, &ecf);
        let summed: f64 = (0..3).map(|j| expected_sq_distance_dim(&x, &ecf, j)).sum();
        assert!(
            (total - summed).abs() < 1e-10,
            "total={total} summed={summed}"
        );
    }

    #[test]
    fn one_pass_components_match_per_dim_calls() {
        let mut ecf = Ecf::empty(3);
        ecf.insert(&pt(&[1.0, -2.0, 0.5], &[0.3, 0.1, 0.0]));
        ecf.insert(&pt(&[2.0, 1.0, -0.5], &[0.2, 0.4, 0.1]));
        let x = pt(&[0.0, 3.0, 1.0], &[0.5, 0.0, 0.2]);
        let mut out = [0.0; 3];
        expected_sq_distance_dims(&x, &ecf, &mut out);
        for (j, &got) in out.iter().enumerate() {
            let want = expected_sq_distance_dim(&x, &ecf, j);
            assert!((got - want).abs() < 1e-12, "dim {j}: {got} vs {want}");
        }
        // Empty-cluster defensive path agrees too.
        let empty = Ecf::empty(3);
        expected_sq_distance_dims(&x, &empty, &mut out);
        for (j, &got) in out.iter().enumerate() {
            let want = expected_sq_distance_dim(&x, &empty, j);
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn point_error_inflates_distance() {
        let mut ecf = Ecf::empty(1);
        ecf.insert(&pt(&[0.0], &[0.0]));
        ecf.insert(&pt(&[2.0], &[0.0]));
        let clean = pt(&[1.0], &[0.0]);
        let noisy = pt(&[1.0], &[3.0]);
        let d_clean = expected_sq_distance(&clean, &ecf);
        let d_noisy = expected_sq_distance(&noisy, &ecf);
        // Same instantiation at the centroid: clean distance is 0, noisy
        // distance is exactly ψ² = 9.
        assert!(d_clean.abs() < 1e-12);
        assert!((d_noisy - 9.0).abs() < 1e-12);
    }

    #[test]
    fn cluster_error_inflates_distance() {
        let mut clean = Ecf::empty(1);
        clean.insert(&pt(&[0.0], &[0.0]));
        clean.insert(&pt(&[2.0], &[0.0]));
        let mut noisy = Ecf::empty(1);
        noisy.insert(&pt(&[0.0], &[2.0]));
        noisy.insert(&pt(&[2.0], &[2.0]));
        let x = pt(&[1.0], &[0.0]);
        // EF2/W² = 8/4 = 2.
        assert!(
            (expected_sq_distance(&x, &noisy) - expected_sq_distance(&x, &clean) - 2.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn monte_carlo_validates_lemma_2_2() {
        // Simulate the generative model: cluster points y_i + N(0, ψ_i),
        // point x + N(0, ψ_x); compare the analytic expectation against the
        // empirical mean of ‖X − Z‖².
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rand_distr::{Distribution, Normal};

        let member_values = [[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]];
        let member_errors = [[0.5, 0.2], [0.3, 0.6], [0.4, 0.4]];
        let x_values = [3.0, 2.0];
        let x_errors = [0.7, 0.3];

        let mut ecf = Ecf::empty(2);
        for (v, e) in member_values.iter().zip(&member_errors) {
            ecf.insert(&pt(v, e));
        }
        let x = pt(&x_values, &x_errors);
        let analytic = expected_sq_distance(&x, &ecf);

        let mut rng = StdRng::seed_from_u64(42);
        let trials = 200_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            // Instantiate the true (latent) point: X = x + e_x.
            let mut x_sample = [0.0; 2];
            for j in 0..2 {
                let n = Normal::new(0.0, x_errors[j]).unwrap();
                x_sample[j] = x_values[j] + n.sample(&mut rng);
            }
            // Instantiate the centroid: mean of latent member points.
            let mut z = [0.0; 2];
            for (v, e) in member_values.iter().zip(&member_errors) {
                for j in 0..2 {
                    let n = Normal::new(0.0, e[j]).unwrap();
                    z[j] += (v[j] + n.sample(&mut rng)) / member_values.len() as f64;
                }
            }
            acc += (0..2)
                .map(|j| (x_sample[j] - z[j]) * (x_sample[j] - z[j]))
                .sum::<f64>();
        }
        let empirical = acc / trials as f64;
        let rel = (analytic - empirical).abs() / empirical;
        assert!(
            rel < 0.02,
            "Lemma 2.2 mismatch: analytic={analytic}, empirical={empirical}, rel={rel}"
        );
    }

    #[test]
    fn centroid_distance_symmetric_and_zero_for_self() {
        let mut a = Ecf::empty(2);
        a.insert(&pt(&[0.0, 0.0], &[0.1, 0.1]));
        a.insert(&pt(&[1.0, 1.0], &[0.1, 0.1]));
        let mut b = Ecf::empty(2);
        b.insert(&pt(&[5.0, 5.0], &[0.2, 0.2]));
        let dab = expected_centroid_sq_distance(&a, &b);
        let dba = expected_centroid_sq_distance(&b, &a);
        assert!((dab - dba).abs() < 1e-12);
        assert!(dab > 0.0);
    }

    #[test]
    fn nan_coordinate_never_ranks_at_zero() {
        // Regression: `f64::max(NaN, 0.0) == 0.0`, so before the sanitize
        // guard a NaN-bearing point scored distance 0 against every cluster
        // and won every nearest scan.
        let mut ecf = Ecf::empty(2);
        ecf.insert(&pt(&[0.0, 0.0], &[0.1, 0.1]));
        ecf.insert(&pt(&[1.0, 1.0], &[0.1, 0.1]));
        let poison = pt(&[f64::NAN, 0.5], &[0.1, 0.1]);
        assert_eq!(expected_sq_distance(&poison, &ecf), f64::INFINITY);
        assert_eq!(corrected_sq_distance(&poison, &ecf), f64::INFINITY);
        let mut out = [0.0; 2];
        expected_sq_distance_dims(&poison, &ecf, &mut out);
        assert_eq!(out[0], f64::INFINITY);
        assert!(out[1].is_finite());
        assert_eq!(expected_sq_distance_dim(&poison, &ecf, 0), f64::INFINITY);
    }

    #[test]
    fn infinite_error_never_ranks_at_zero() {
        // ψ = +∞ makes the corrected per-dimension term −∞, which the old
        // clamp read as zero. `UncertainPoint::new` rejects non-finite ψ,
        // but serde bypasses the constructor — emulate that path.
        use serde::{Deserialize, Serialize};
        let mut ecf = Ecf::empty(1);
        ecf.insert(&pt(&[0.0], &[0.1]));
        ecf.insert(&pt(&[1.0], &[0.1]));
        let sane = corrected_sq_distance(&pt(&[100.0], &[0.0]), &ecf);
        assert!(sane.is_finite() && sane > 0.0);
        let mut v = pt(&[100.0], &[0.0]).to_value();
        if let serde::Value::Obj(fields) = &mut v {
            for (name, val) in fields.iter_mut() {
                if name == "errors" {
                    *val = serde::Value::Arr(vec![serde::Value::Float(f64::INFINITY)]);
                }
            }
        }
        let poison = UncertainPoint::from_value(&v).expect("bypass construction");
        assert!(!poison.errors_valid());
        assert_eq!(
            corrected_sq_distance(&poison, &ecf),
            f64::INFINITY,
            "infinite ψ must rank infinitely far, not at zero"
        );
    }

    #[test]
    fn empty_cluster_defensive_distance() {
        let ecf = Ecf::empty(2);
        let x = pt(&[3.0, 4.0], &[1.0, 0.0]);
        // ‖x‖² + Σψ² = 25 + 1.
        assert!((expected_sq_distance(&x, &ecf) - 26.0).abs() < 1e-12);
        assert_eq!(expected_centroid_sq_distance(&ecf, &ecf), 0.0);
    }
}
