//! Additive cluster-feature traits.
//!
//! Both the deterministic CluStream feature vector and the paper's
//! error-based `ECF` satisfy the *additive property* (Property 2.1): all
//! non-temporal components of `ECF(C₁ ∪ C₂)` are the component-wise sum of
//! `ECF(C₁)` and `ECF(C₂)`, and the temporal component is the max. The
//! *subtractive* corollary powers horizon queries over the pyramidal time
//! frame. These traits let the snapshot store and macro-clustering layers be
//! generic over the concrete feature type.

use crate::time::Timestamp;

/// A cluster summary that can be merged with, and subtracted from, another
/// summary of the same dimensionality.
pub trait AdditiveFeature: Clone {
    /// Dimensionality `d` of the summarised space.
    fn dims(&self) -> usize;

    /// Number of points (or total weight, for decayed variants) summarised.
    fn count(&self) -> f64;

    /// Tick of the most recent update (the temporal component `t(C)`).
    fn last_update(&self) -> Timestamp;

    /// Component-wise `self += other`; temporal component becomes the max.
    ///
    /// Implementations must `debug_assert!` equal dimensionality.
    fn merge(&mut self, other: &Self);

    /// Component-wise `self -= other` (the subtractive property used for
    /// horizon reconstruction). The temporal component of `self` is kept.
    ///
    /// Subtraction can leave tiny negative residues from floating-point
    /// cancellation; implementations clamp second-moment entries at zero.
    fn subtract(&mut self, other: &Self);

    /// Reads one word of every cache line the summary keeps outside its
    /// own struct, so that a caller about to read many scattered summaries
    /// can have their cache misses in flight together. The default reads
    /// nothing beyond the struct; implementations with heap vectors
    /// override it.
    fn prefetch(&self) {
        std::hint::black_box(self.count());
    }

    /// Whether the summary describes no points (count ≈ 0). Empty summaries
    /// are dropped during horizon reconstruction.
    fn is_empty(&self) -> bool {
        self.count() <= 1e-9
    }

    /// Centroid of the summarised points.
    fn centroid(&self) -> Vec<f64>;
}

/// A feature vector supporting exponential time decay (Definition 2.3 of the
/// paper): all statistics scale by `2^{−λ·Δt}` when `Δt` ticks elapse.
pub trait DecayableFeature: AdditiveFeature {
    /// Multiplies every decayable statistic by `factor ∈ (0, 1]`.
    fn scale(&mut self, factor: f64);

    /// Lazy decay: scales the statistics by `2^{−λ (now − last_touch)}`
    /// where `last_touch` is the tick at which the statistics were last
    /// brought current, and records `now` as the new reference point.
    fn decay_to(&mut self, now: Timestamp, lambda: f64);
}

/// Half-life helper (Definition 2.2): the half-life of a point is `1/λ`, so
/// a desired half-life `h` gives decay rate `λ = 1/h`.
#[inline]
pub fn lambda_for_half_life(half_life: f64) -> f64 {
    assert!(
        half_life.is_finite() && half_life > 0.0,
        "half-life must be positive"
    );
    1.0 / half_life
}

/// The decay factor `2^{−λ Δt}`.
#[inline]
pub fn decay_factor(lambda: f64, elapsed: f64) -> f64 {
    debug_assert!(lambda >= 0.0 && elapsed >= 0.0);
    (-lambda * elapsed).exp2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_life_relation() {
        // After exactly one half-life the weight must halve.
        let lambda = lambda_for_half_life(100.0);
        let f = decay_factor(lambda, 100.0);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_means_no_decay() {
        assert_eq!(decay_factor(0.01, 0.0), 1.0);
    }

    #[test]
    fn decay_compounds_multiplicatively() {
        let lambda = 0.003;
        let whole = decay_factor(lambda, 70.0);
        let split = decay_factor(lambda, 30.0) * decay_factor(lambda, 40.0);
        assert!((whole - split).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_half_life_panics() {
        let _ = lambda_for_half_life(0.0);
    }
}
