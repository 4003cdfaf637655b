//! The dimension-counting similarity function (§II-B, last paragraph).
//!
//! Raw expected distances carry all the noise of the uncertain dimensions.
//! The paper's remedy: compute, per dimension, a bounded similarity credit
//! `max{0, 1 − E[(X_j − Z_j)²] / (thresh · σ_j²)}`, where `σ_j²` is the
//! variance of the data along dimension `j` estimated from the *global*
//! cluster feature vector (the sum of all micro-cluster ECFs). Dimensions
//! whose expected deviation exceeds `thresh · σ_j²` — which is exactly what
//! happens on heavily uncertain dimensions — contribute nothing, so the
//! comparison concentrates on informative dimensions.

use crate::ecf::Ecf;
use ustream_common::UncertainPoint;

/// Tracks the global per-dimension variances `σ_j²` from the aggregate of
/// all live micro-clusters.
///
/// Recomputation is `O(k·d)`; the algorithm refreshes it every
/// `variance_refresh_interval` insertions rather than per point.
#[derive(Debug, Clone)]
pub struct GlobalVariance {
    variances: Vec<f64>,
    /// Floor applied when a dimension has (numerically) zero variance so
    /// the similarity ratio stays finite.
    floor: f64,
}

impl GlobalVariance {
    /// Starts with all-zero variances (similarity falls back to expected
    /// distance until the first refresh).
    pub fn new(dims: usize) -> Self {
        Self {
            variances: vec![0.0; dims],
            floor: 1e-12,
        }
    }

    /// Recomputes from the live micro-cluster summaries: the per-dimension
    /// variance of the union is derived from the summed feature vector,
    /// exactly as the paper prescribes ("the cluster feature statistics of
    /// all micro-clusters are added to create one global cluster feature
    /// vector").
    pub fn refresh<'a>(&mut self, clusters: impl Iterator<Item = &'a Ecf>) {
        let mut cf1 = vec![0.0; self.variances.len()];
        let mut cf2 = vec![0.0; self.variances.len()];
        let mut w = 0.0;
        for ecf in clusters {
            debug_assert_eq!(ecf.dims(), self.variances.len());
            for j in 0..cf1.len() {
                cf1[j] += ecf.cf1()[j];
                cf2[j] += ecf.cf2()[j];
            }
            w += ecf.weight();
        }
        if w <= 0.0 {
            for v in &mut self.variances {
                *v = 0.0;
            }
            return;
        }
        for j in 0..cf1.len() {
            let mean = cf1[j] / w;
            self.variances[j] = (cf2[j] / w - mean * mean).max(0.0);
        }
    }

    /// Overwrites the tracked variances with previously exported values —
    /// the checkpoint/restore path. Negative or non-finite entries clamp to
    /// zero (uninformative) so a corrupted checkpoint cannot poison the
    /// similarity ranking.
    pub fn restore_variances(&mut self, variances: &[f64]) {
        debug_assert_eq!(variances.len(), self.variances.len());
        for (dst, &src) in self.variances.iter_mut().zip(variances) {
            *dst = if src.is_finite() && src > 0.0 {
                src
            } else {
                0.0
            };
        }
    }

    /// Whether any dimension has accumulated usable variance.
    pub fn is_informative(&self) -> bool {
        self.variances.iter().any(|v| *v > self.floor)
    }

    /// The tracked variances.
    pub fn variances(&self) -> &[f64] {
        &self.variances
    }

    /// The zero-variance floor below which a dimension is considered
    /// uninformative and skipped.
    #[inline]
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Writes the inverse similarity coefficients `1/(thresh · σ_j²)` into
    /// `out`, using `f64::INFINITY` as the sentinel for dimensions at or
    /// below the variance floor. The kernel's dimension-counting ranking
    /// consumes this: an infinite coefficient forces the per-dimension
    /// credit to clamp to zero, reproducing
    /// [`dimension_counting_similarity`]'s skip.
    pub fn inverse_coefficients_into(&self, thresh: f64, out: &mut [f64]) {
        debug_assert!(thresh > 0.0);
        debug_assert_eq!(out.len(), self.variances.len());
        for (o, &sigma2) in out.iter_mut().zip(&self.variances) {
            *o = if sigma2 <= self.floor {
                f64::INFINITY
            } else {
                1.0 / (thresh * sigma2)
            };
        }
    }
}

/// Dimension-counting similarity of `point` to `ecf`:
/// `Σ_j max{0, 1 − E[(X_j − Z_j)²]/(thresh · σ_j²)}`.
///
/// Dimensions with non-positive global variance are skipped (they carry no
/// information for comparison). The result lies in `[0, d]`; larger means
/// more similar.
pub fn dimension_counting_similarity(
    point: &UncertainPoint,
    ecf: &Ecf,
    global: &GlobalVariance,
    thresh: f64,
) -> f64 {
    debug_assert!(thresh > 0.0);
    debug_assert_eq!(point.dims(), ecf.dims());
    let vars = global.variances();
    let floor = global.floor;
    let (values, errors) = (point.values(), point.errors());
    let w = ecf.weight();
    // Hoist the weight load, the `w <= 0` branch and the reciprocals out of
    // the per-dimension loop; the body is then pure multiply-adds.
    let (inv_w, inv_w2) = if w > 0.0 {
        let inv_w = 1.0 / w;
        (inv_w, inv_w * inv_w)
    } else {
        (0.0, 0.0)
    };
    let (cf1, ef2) = (ecf.cf1(), ecf.ef2());
    let inv_thresh = 1.0 / thresh;
    let mut sim = 0.0;
    for (j, &sigma2) in vars.iter().enumerate() {
        if sigma2 <= floor {
            continue;
        }
        let diff = values[j] - cf1[j] * inv_w;
        let psi = errors[j];
        let vj = (diff * diff + psi * psi + ef2[j] * inv_w2).max(0.0);
        let credit = 1.0 - vj * inv_thresh / sigma2;
        if credit > 0.0 {
            sim += credit;
        }
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(values: &[f64], errors: &[f64]) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec(), 0, None)
    }

    fn cluster(points: &[(&[f64], &[f64])]) -> Ecf {
        let mut e = Ecf::empty(points[0].0.len());
        for (v, err) in points {
            e.insert(&pt(v, err));
        }
        e
    }

    #[test]
    fn refresh_computes_union_variance() {
        // Two clusters summarising {0, 2} and {10, 12} in 1-d.
        let a = cluster(&[(&[0.0], &[0.0]), (&[2.0], &[0.0])]);
        let b = cluster(&[(&[10.0], &[0.0]), (&[12.0], &[0.0])]);
        let mut g = GlobalVariance::new(1);
        g.refresh([&a, &b].into_iter());
        // Union {0,2,10,12}: mean 6, variance (36+16+16+36)/4 = 26.
        assert!((g.variances()[0] - 26.0).abs() < 1e-9);
        assert!(g.is_informative());
    }

    #[test]
    fn refresh_with_no_clusters_resets() {
        let mut g = GlobalVariance::new(2);
        g.refresh(std::iter::empty());
        assert!(!g.is_informative());
        assert_eq!(g.variances(), &[0.0, 0.0]);
    }

    #[test]
    fn close_point_scores_higher() {
        let a = cluster(&[(&[0.0, 0.0], &[0.1, 0.1]), (&[1.0, 1.0], &[0.1, 0.1])]);
        let b = cluster(&[(&[10.0, 10.0], &[0.1, 0.1]), (&[11.0, 11.0], &[0.1, 0.1])]);
        let mut g = GlobalVariance::new(2);
        g.refresh([&a, &b].into_iter());
        let x = pt(&[0.5, 0.5], &[0.1, 0.1]);
        let sa = dimension_counting_similarity(&x, &a, &g, 2.0);
        let sb = dimension_counting_similarity(&x, &b, &g, 2.0);
        assert!(sa > sb, "sa={sa} sb={sb}");
        assert!(sa <= 2.0 + 1e-12); // bounded by d.
    }

    #[test]
    fn noisy_dimension_is_pruned() {
        // Dimension 0 is informative, dimension 1 is swamped by error.
        let a = cluster(&[(&[0.0, 0.0], &[0.05, 5.0]), (&[1.0, 1.0], &[0.05, 5.0])]);
        let b = cluster(&[(&[10.0, 0.5], &[0.05, 5.0]), (&[11.0, 0.7], &[0.05, 5.0])]);
        let mut g = GlobalVariance::new(2);
        g.refresh([&a, &b].into_iter());

        // A point near cluster a in dim 0, with huge dim-1 uncertainty.
        let x = pt(&[0.4, 0.9], &[0.05, 5.0]);
        let sa = dimension_counting_similarity(&x, &a, &g, 1.0);
        // The dim-1 credit must be zero for both clusters: ψ² = 25 alone
        // exceeds thresh·σ₁² because σ₁² is dominated by the data spread
        // (values stayed in [0, 1]), so only dim 0 separates them.
        let sb = dimension_counting_similarity(&x, &b, &g, 1.0);
        assert!(sa > sb);
        assert!(sa <= 1.0 + 1e-12, "noisy dim contributed: sa={sa}");
    }

    #[test]
    fn zero_variance_dimensions_skipped() {
        // A constant dimension contributes nothing and divides by nothing.
        let a = cluster(&[(&[0.0, 7.0], &[0.0, 0.0]), (&[1.0, 7.0], &[0.0, 0.0])]);
        let mut g = GlobalVariance::new(2);
        g.refresh([&a].into_iter());
        assert_eq!(g.variances()[1], 0.0);
        let x = pt(&[0.5, 7.0], &[0.0, 0.0]);
        let s = dimension_counting_similarity(&x, &a, &g, 2.0);
        assert!(s.is_finite());
        assert!(s > 0.0);
    }

    #[test]
    fn similarity_never_negative() {
        let a = cluster(&[(&[0.0], &[0.1]), (&[1.0], &[0.1])]);
        let mut g = GlobalVariance::new(1);
        g.refresh([&a].into_iter());
        let far = pt(&[1000.0], &[0.1]);
        assert_eq!(dimension_counting_similarity(&far, &a, &g, 2.0), 0.0);
    }
}
