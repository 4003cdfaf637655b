//! Struct-of-arrays distance kernel over the live micro-cluster set.
//!
//! The paper's Lemma 2.2 keeps expected-distance evaluation `O(d)`, but the
//! naive implementation re-derives per-cluster constants from the ECF on
//! every point: `CF1_j/W` (a division per dimension), `EF2_j/W²` (another),
//! and `Σ_j CF1_j²/W² + Σ_j EF2_j/W²` (Lemma 2.1) — all of which change only
//! when *that cluster* changes. [`ClusterKernel`] caches them in packed
//! row-major matrices so the per-point work collapses to fused multiply-adds
//! over contiguous memory:
//!
//! ```text
//! E[‖X − Z_i‖²] = (Σ_j x_j² + ψ_j²)  +  self_moment_i  −  2 · x · c_i
//!                 └── once per point ──┘  └───── cached per cluster ─────┘
//! ```
//!
//! so ranking a point against all `k` clusters costs one dot product per
//! cluster — no divisions, no branches, and memory the autovectorizer can
//! stream. The same layout serves the deterministic CluStream distance
//! (`noise ≡ 0`) and the dimension-counting similarity (the cached
//! `EF2_j/W²` row replaces the per-dimension division).
//!
//! ## Invariant maintenance
//!
//! The kernel mirrors an owner's cluster list index-for-index at all times.
//! Owners call [`ClusterKernel::push`] / [`ClusterKernel::refresh`] /
//! [`ClusterKernel::swap_remove`] at every mutation (insert, merge, retire),
//! and [`ClusterKernel::rebuild`] on the spot after every bulk edit
//! (restore, state import, decay synchronisation, k-means seeding), so no
//! ranking, radius or isolation query can ever read a stale row.

use crate::distance::sanitize_sq;
use crate::ecf::Ecf;

/// Explicit SIMD backends (portable lanes, AVX2, AVX-512, NEON) behind
/// one runtime-dispatch point; every ranking sweep and dot product in
/// this module routes through it. See the module docs for the backend
/// matrix and the canonical reduction contract that keeps all backends
/// bitwise identical.
pub mod simd;

/// A summary that can publish a kernel row: its centroid, its per-dimension
/// centroid-noise term (`EF2_j/W²`; zero for deterministic summaries) and
/// its two boundary radii.
pub trait KernelRow {
    /// Writes the centroid and noise rows. Both slices have length `d`.
    fn write_row(&self, centroid: &mut [f64], noise: &mut [f64]);

    /// `(uncertain_radius, corrected_radius)` — deterministic summaries
    /// return the same (RMS) radius for both.
    fn radii(&self) -> (f64, f64);
}

impl KernelRow for Ecf {
    fn write_row(&self, centroid: &mut [f64], noise: &mut [f64]) {
        self.centroid_into(centroid);
        self.noise_into(noise);
    }

    fn radii(&self) -> (f64, f64) {
        (self.uncertain_radius(), self.corrected_radius())
    }
}

/// Dot product on the runtime-dispatched SIMD backend. Every backend —
/// the canonical scalar path included — uses the same four-lane
/// reduction with tail elements folded into their `j % 4` lane, so the
/// result is bitwise identical whichever backend is live.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    simd::dot(a, b)
}

/// The point-side constant of the expected distance:
/// `E[‖X‖²] = Σ_j x_j² + ψ_j²`. Computed once per point, reused against
/// every cluster.
#[inline]
pub fn point_moment(values: &[f64], errors: &[f64]) -> f64 {
    dot(values, values) + dot(errors, errors)
}

/// Cache-friendly mirror of a live micro-cluster set (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ClusterKernel {
    dims: usize,
    len: usize,
    /// Row-major `len × dims` centroid matrix.
    centroids: Vec<f64>,
    /// Row-major `len × dims` centroid-noise matrix (`EF2_j/W²`).
    noise: Vec<f64>,
    /// Per-cluster `E[‖Z_i‖²] = ‖c_i‖² + Σ_j noise_ij` (Lemma 2.1).
    self_moment: Vec<f64>,
    /// Cached uncertainty-boundary radii (Eq. 6).
    uncertain_radius: Vec<f64>,
    /// Cached error-corrected radii.
    corrected_radius: Vec<f64>,
    /// `dims` zeros: the error vector of a deterministic point and the
    /// (unused) similarity coefficients of a corrected-distance sweep.
    zeros: Vec<f64>,
}

impl ClusterKernel {
    /// An empty kernel over `d` dimensions.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            zeros: vec![0.0; dims],
            ..Self::default()
        }
    }

    /// Dimensionality of the rows.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of mirrored clusters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no clusters are mirrored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cached centroid of cluster `i`.
    #[inline]
    pub fn centroid_row(&self, i: usize) -> &[f64] {
        &self.centroids[i * self.dims..(i + 1) * self.dims]
    }

    /// The cached `EF2_j/W²` row of cluster `i`.
    #[inline]
    pub fn noise_row(&self, i: usize) -> &[f64] {
        &self.noise[i * self.dims..(i + 1) * self.dims]
    }

    /// Cached `E[‖Z_i‖²]` of cluster `i`.
    #[inline]
    pub fn self_moment(&self, i: usize) -> f64 {
        self.self_moment[i]
    }

    /// Cached uncertain radius of cluster `i`.
    #[inline]
    pub fn uncertain_radius(&self, i: usize) -> f64 {
        self.uncertain_radius[i]
    }

    /// Cached corrected radius of cluster `i`.
    #[inline]
    pub fn corrected_radius(&self, i: usize) -> f64 {
        self.corrected_radius[i]
    }

    /// Appends a row mirroring a newly created cluster.
    pub fn push<R: KernelRow>(&mut self, row: &R) {
        let d = self.dims;
        self.centroids.resize((self.len + 1) * d, 0.0);
        self.noise.resize((self.len + 1) * d, 0.0);
        self.self_moment.push(0.0);
        self.uncertain_radius.push(0.0);
        self.corrected_radius.push(0.0);
        self.len += 1;
        self.write(self.len - 1, row);
    }

    /// Re-derives row `i` after its cluster's statistics changed.
    pub fn refresh<R: KernelRow>(&mut self, i: usize, row: &R) {
        self.write(i, row);
    }

    /// Removes row `i` by swapping in the last row — mirrors
    /// `Vec::swap_remove` on the owner's cluster list.
    pub fn swap_remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let d = self.dims;
        let last = self.len - 1;
        if i != last {
            for j in 0..d {
                self.centroids[i * d + j] = self.centroids[last * d + j];
                self.noise[i * d + j] = self.noise[last * d + j];
            }
        }
        self.centroids.truncate(last * d);
        self.noise.truncate(last * d);
        self.self_moment.swap_remove(i);
        self.uncertain_radius.swap_remove(i);
        self.corrected_radius.swap_remove(i);
        self.len = last;
    }

    /// Rebuilds every row from scratch — the path after bulk mutations
    /// (restore, state import, decay synchronisation, k-means seeding).
    pub fn rebuild<'a, R: KernelRow + 'a>(&mut self, rows: impl Iterator<Item = &'a R>) {
        self.len = 0;
        self.centroids.clear();
        self.noise.clear();
        self.self_moment.clear();
        self.uncertain_radius.clear();
        self.corrected_radius.clear();
        for row in rows {
            self.push(row);
        }
    }

    fn write<R: KernelRow>(&mut self, i: usize, row: &R) {
        let d = self.dims;
        let centroid = &mut self.centroids[i * d..(i + 1) * d];
        let noise = &mut self.noise[i * d..(i + 1) * d];
        row.write_row(centroid, noise);
        self.self_moment[i] = dot(centroid, centroid) + noise.iter().sum::<f64>();
        let (u, c) = row.radii();
        self.uncertain_radius[i] = u;
        self.corrected_radius[i] = c;
    }

    /// Index and expected squared distance (Lemma 2.2) of the cluster
    /// nearest to an uncertain point. Ties keep the lowest index, matching
    /// the scalar ranking loop. `None` when empty.
    pub fn nearest_expected(&self, values: &[f64], errors: &[f64]) -> Option<(usize, f64)> {
        let (best, score) = self.nearest_by_score(values)?;
        Some((best, sanitize_sq(point_moment(values, errors) + score)))
    }

    /// Index and squared Euclidean distance of the centroid nearest to a
    /// deterministic point (`noise ≡ 0` rows). `None` when empty.
    pub fn nearest_deterministic(&self, values: &[f64]) -> Option<(usize, f64)> {
        let (best, score) = self.nearest_by_score(values)?;
        Some((best, sanitize_sq(dot(values, values) + score)))
    }

    /// Shared ranking core: minimises `self_moment_i − 2·x·c_i`, the only
    /// cluster-dependent part of both distances, on the dispatched SIMD
    /// backend.
    fn nearest_by_score(&self, values: &[f64]) -> Option<(usize, f64)> {
        debug_assert_eq!(values.len(), self.dims);
        if self.len == 0 {
            return None;
        }
        Some(simd::rank_min_score(
            &self.centroids,
            &self.self_moment,
            self.dims,
            values,
        ))
    }

    /// Expected squared distance from a point to cluster `i` (Lemma 2.2),
    /// from cached invariants alone.
    pub fn expected_sq_distance(&self, values: &[f64], errors: &[f64], i: usize) -> f64 {
        let pm = point_moment(values, errors);
        sanitize_sq(pm + self.self_moment[i] - 2.0 * dot(values, self.centroid_row(i)))
    }

    /// Index and dimension-counting similarity of the best cluster.
    ///
    /// `inv_coeff[j]` must hold `1/(thresh · σ_j²)` for informative
    /// dimensions and `f64::INFINITY` for dimensions to skip: an infinite
    /// coefficient drives the credit to `−∞` (or `NaN` when the deviation is
    /// exactly zero), and `f64::max(0.0)` maps both to a zero contribution —
    /// exactly [`crate::similarity::dimension_counting_similarity`]'s
    /// "skip this dimension". Ties keep the lowest index. `None` when empty.
    pub fn best_by_dimension_counting(
        &self,
        values: &[f64],
        errors: &[f64],
        inv_coeff: &[f64],
    ) -> Option<(usize, f64)> {
        let best = self.rank_fused(values, errors, inv_coeff)?;
        Some((best.sim_idx, best.sim))
    }

    /// Fused ranking sweep: one pass over the centroid and noise
    /// matrices yields *both* the expected-distance argmin (exact
    /// `E[‖X − Zᵢ‖²]`, a byproduct of the per-dimension similarity
    /// terms — see [`simd::rank_fused`]) and the dimension-counting
    /// argmax, so each cluster row is touched once per point. The
    /// `inv_coeff` sentinel convention matches
    /// [`ClusterKernel::best_by_dimension_counting`]. `None` when empty.
    pub fn rank_fused(
        &self,
        values: &[f64],
        errors: &[f64],
        inv_coeff: &[f64],
    ) -> Option<simd::FusedBest> {
        debug_assert_eq!(values.len(), self.dims);
        debug_assert_eq!(inv_coeff.len(), self.dims);
        if self.len == 0 {
            return None;
        }
        Some(simd::rank_fused(
            &self.centroids,
            &self.noise,
            self.dims,
            values,
            errors,
            inv_coeff,
        ))
    }

    /// [`ClusterKernel::rank_fused`] plus, from the same pass, the lowest
    /// error-corrected squared distance over the rows (see
    /// [`simd::rank_fused_scored`]). `None` when empty.
    pub fn rank_fused_scored(
        &self,
        values: &[f64],
        errors: &[f64],
        inv_coeff: &[f64],
    ) -> Option<(simd::FusedBest, f64)> {
        debug_assert_eq!(values.len(), self.dims);
        debug_assert_eq!(inv_coeff.len(), self.dims);
        if self.len == 0 {
            return None;
        }
        Some(simd::rank_fused_scored(
            &self.centroids,
            &self.noise,
            self.dims,
            values,
            errors,
            inv_coeff,
        ))
    }

    /// Lowest error-corrected squared distance from an uncertain point to
    /// any row, `Σⱼ max(0, (xⱼ−cⱼ)² − ψⱼ² − EF2ⱼ/W²)` — one scored sweep
    /// (see [`simd::rank_fused_scored`]). `INFINITY` when the kernel is
    /// empty or no row is finite (a non-finite point poisons every row).
    pub fn min_corrected_sq(&self, values: &[f64], errors: &[f64]) -> f64 {
        debug_assert_eq!(values.len(), self.dims);
        let (_, corrected) = simd::rank_fused_scored(
            &self.centroids,
            &self.noise,
            self.dims,
            values,
            errors,
            &self.zeros,
        );
        corrected
    }

    /// Squared Euclidean distance from a deterministic point to the
    /// nearest centroid of `noise ≡ 0` rows: with zero errors and zero
    /// noise the corrected sweep is exactly `Σⱼ (xⱼ−cⱼ)²`, so this is
    /// [`ClusterKernel::min_corrected_sq`] in difference form.
    /// `INFINITY` when empty.
    pub fn min_sq_euclidean(&self, values: &[f64]) -> f64 {
        self.min_corrected_sq(values, &self.zeros)
    }

    /// Squared Euclidean distance from cluster `i`'s centroid to the nearest
    /// *other* cached centroid — the degenerate-boundary fallback, computed
    /// without allocating. `None` when no other cluster exists.
    pub fn nearest_other_centroid_sq(&self, i: usize) -> Option<f64> {
        if self.len < 2 {
            return None;
        }
        let d = self.dims;
        let me = &self.centroids[i * d..(i + 1) * d];
        let mut best = f64::INFINITY;
        for other in 0..self.len {
            if other == i {
                continue;
            }
            let c = &self.centroids[other * d..(other + 1) * d];
            let mut acc = 0.0;
            for j in 0..d {
                let diff = me[j] - c[j];
                acc += diff * diff;
            }
            if acc < best {
                best = acc;
            }
        }
        Some(best)
    }

    /// The pair of clusters with the closest centroids, and their squared
    /// centroid distance — the CluStream merge heuristic, allocation-free.
    /// `None` when fewer than two clusters exist.
    pub fn closest_pair(&self) -> Option<(usize, usize, f64)> {
        if self.len < 2 {
            return None;
        }
        let d = self.dims;
        let mut best = (0usize, 1usize);
        let mut best_d = f64::INFINITY;
        for i in 0..self.len {
            let a = &self.centroids[i * d..(i + 1) * d];
            for j in (i + 1)..self.len {
                let b = &self.centroids[j * d..(j + 1) * d];
                let mut acc = 0.0;
                for k in 0..d {
                    let diff = a[k] - b[k];
                    acc += diff * diff;
                }
                if acc < best_d {
                    best_d = acc;
                    best = (i, j);
                }
            }
        }
        Some((best.0, best.1, best_d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::expected_sq_distance;
    use ustream_common::UncertainPoint;

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
    fn dot_matches_naive() {
        let a: Vec<f64> = (0..11).map(|i| i as f64 * 0.5 - 2.0).collect();
        let b: Vec<f64> = (0..11).map(|i| (i * i) as f64 * 0.1).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-9);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn kernel_distance_matches_scalar() {
        let a = cluster(&[
            (&[0.0, 1.0, 2.0], &[0.4, 0.1, 0.0]),
            (&[1.0, -1.0, 0.5], &[0.2, 0.3, 0.6]),
        ]);
        let b = cluster(&[(&[10.0, 10.0, 10.0], &[1.0, 1.0, 1.0])]);
        let mut k = ClusterKernel::new(3);
        k.push(&a);
        k.push(&b);

        let x = pt(&[0.5, 0.5, 0.5], &[0.3, 0.0, 0.2]);
        for (i, ecf) in [&a, &b].into_iter().enumerate() {
            let scalar = expected_sq_distance(&x, ecf);
            let kernel = k.expected_sq_distance(x.values(), x.errors(), i);
            assert!(
                (scalar - kernel).abs() <= 1e-9 * scalar.max(1.0),
                "cluster {i}: scalar={scalar} kernel={kernel}"
            );
        }
        let (idx, d2) = k.nearest_expected(x.values(), x.errors()).unwrap();
        assert_eq!(idx, 0);
        assert!((d2 - expected_sq_distance(&x, &a)).abs() < 1e-9);
    }

    #[test]
    fn refresh_and_swap_remove_mirror_owner() {
        let mut a = cluster(&[(&[0.0], &[0.1])]);
        let b = cluster(&[(&[5.0], &[0.2])]);
        let c = cluster(&[(&[9.0], &[0.0])]);
        let mut k = ClusterKernel::new(1);
        k.push(&a);
        k.push(&b);
        k.push(&c);

        a.insert(&pt(&[2.0], &[0.1]));
        k.refresh(0, &a);
        assert!((k.centroid_row(0)[0] - 1.0).abs() < 1e-12);

        // swap_remove(0) moves the last row (c) into slot 0.
        k.swap_remove(0);
        assert_eq!(k.len(), 2);
        assert!((k.centroid_row(0)[0] - 9.0).abs() < 1e-12);
        assert!((k.centroid_row(1)[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rebuild_resets_rows() {
        let rows = [
            cluster(&[(&[1.0, 2.0], &[0.1, 0.1])]),
            cluster(&[(&[3.0, 4.0], &[0.0, 0.5])]),
        ];
        let mut k = ClusterKernel::new(2);
        k.push(&rows[0]);
        k.rebuild(rows.iter());
        assert_eq!(k.len(), 2);
        assert!((k.centroid_row(1)[0] - 3.0).abs() < 1e-12);
        assert!((k.uncertain_radius(0) - rows[0].uncertain_radius()).abs() < 1e-12);
        assert!((k.corrected_radius(1) - rows[1].corrected_radius()).abs() < 1e-12);
    }

    #[test]
    fn dimension_counting_skips_infinite_coefficients() {
        let a = cluster(&[(&[0.0, 7.0], &[0.0, 0.0]), (&[1.0, 7.0], &[0.0, 0.0])]);
        let mut k = ClusterKernel::new(2);
        k.push(&a);
        // Dimension 1 has zero global variance → skip sentinel. A point
        // sitting exactly on the centroid coordinate exercises the 0 · ∞
        // NaN clamp.
        let inv = [1.0 / 2.0, f64::INFINITY];
        let (idx, sim) = k
            .best_by_dimension_counting(&[0.5, 7.0], &[0.0, 0.0], &inv)
            .unwrap();
        assert_eq!(idx, 0);
        assert!(sim.is_finite());
        assert!(sim > 0.0 && sim <= 1.0 + 1e-12, "sim={sim}");
    }

    #[test]
    fn nearest_other_and_closest_pair() {
        let rows = [
            cluster(&[(&[0.0], &[0.0])]),
            cluster(&[(&[10.0], &[0.0])]),
            cluster(&[(&[11.0], &[0.0])]),
        ];
        let mut k = ClusterKernel::new(1);
        for r in &rows {
            k.push(r);
        }
        assert!((k.nearest_other_centroid_sq(0).unwrap() - 100.0).abs() < 1e-12);
        assert!((k.nearest_other_centroid_sq(1).unwrap() - 1.0).abs() < 1e-12);
        let (i, j, d2) = k.closest_pair().unwrap();
        assert_eq!((i, j), (1, 2));
        assert!((d2 - 1.0).abs() < 1e-12);

        let lone = ClusterKernel::new(1);
        assert!(lone.closest_pair().is_none());
        let mut one = ClusterKernel::new(1);
        one.push(&rows[0]);
        assert!(one.nearest_other_centroid_sq(0).is_none());
    }

    #[test]
    fn nan_point_never_wins_nearest_scan() {
        // Regression: the `.max(0.0)` clamps in the nearest scans turned a
        // NaN point moment into distance zero, so a poisoned point was
        // reported as sitting exactly on the nearest centroid.
        let a = cluster(&[(&[0.0, 0.0], &[0.1, 0.1]), (&[1.0, 1.0], &[0.1, 0.1])]);
        let mut k = ClusterKernel::new(2);
        k.push(&a);
        let (_, d2) = k.nearest_expected(&[f64::NAN, 0.5], &[0.1, 0.1]).unwrap();
        assert_eq!(d2, f64::INFINITY);
        let (_, d2) = k.nearest_deterministic(&[f64::NAN, 0.5]).unwrap();
        assert_eq!(d2, f64::INFINITY);
        assert_eq!(
            k.expected_sq_distance(&[f64::NAN, 0.5], &[0.1, 0.1], 0),
            f64::INFINITY
        );
        // NaN in the error vector poisons the point moment the same way.
        let (_, d2) = k.nearest_expected(&[0.5, 0.5], &[f64::NAN, 0.1]).unwrap();
        assert_eq!(d2, f64::INFINITY);
    }

    #[test]
    fn empty_kernel_is_defensive() {
        let k = ClusterKernel::new(3);
        assert!(k.is_empty());
        assert!(k.nearest_expected(&[0.0; 3], &[0.0; 3]).is_none());
        assert!(k.nearest_deterministic(&[0.0; 3]).is_none());
        assert!(k
            .best_by_dimension_counting(&[0.0; 3], &[0.0; 3], &[1.0; 3])
            .is_none());
    }
}
