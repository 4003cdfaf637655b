//! Explicit SIMD backends for the [`ClusterKernel`](super::ClusterKernel)
//! hot path, behind one safe runtime-dispatch point.
//!
//! # Backend matrix
//!
//! | Backend    | Compiled on        | Selected when                         |
//! |------------|--------------------|---------------------------------------|
//! | `Scalar`   | everywhere         | forced, or unavailable fallback       |
//! | `Portable` | everywhere         | no wider unit detected                |
//! | `Avx2`     | `x86_64`           | `is_x86_feature_detected!("avx2")`    |
//! | `Avx512`   | `x86_64`           | `avx512f` (+`avx2` for odd rows)      |
//! | `Neon`     | `aarch64`          | always (NEON is baseline on aarch64)  |
//!
//! # The canonical reduction contract
//!
//! Every backend — scalar included — computes dot products,
//! dimension-counting credits and error-corrected distances with the
//! *same* floating-point operation sequence, so results are **bitwise
//! identical** across backends:
//!
//! * four independent accumulator lanes; chunk element `j` feeds lane
//!   `j % 4` as `lane += a[j] * b[j]` (separate mul then add — never FMA,
//!   which would change rounding);
//! * tail elements (length not divisible by 4) feed the same
//!   `j % 4` lane they would have occupied in a full chunk;
//! * the final reduction is `(l0 + l1) + (l2 + l3)`.
//!
//! AVX2 maps the four lanes onto one `__m256d`. AVX-512 processes *two
//! cluster rows per `__m512d`* (row `i` in lanes 0–3, row `i+1` in lanes
//! 4–7) so each row still reduces over exactly four canonical lanes.
//! NEON uses two `float64x2_t` halves. The portable backend uses plain
//! `[f64; 4]` arithmetic the autovectorizer can widen.
//!
//! Similarity credits clamp with `max(credit, 0.0)` where a NaN credit
//! (skipped dimension: `0 · ∞`) must clamp to `0`. `f64::max`,
//! `_mm256_max_pd`/`_mm512_max_pd` (NaN in the first operand returns the
//! second) and NEON `vmaxnmq_f64` (IEEE maxNum) all agree on that.
//! The corrected term `t = (x−c)² − ψ² − e` clamps the same way and then
//! adds `t · 0` (`±0` when `t` is finite, NaN otherwise), so a NaN or ±∞
//! term leaves its row's corrected sum NaN, and a NaN row never wins.
//!
//! # Dispatch
//!
//! [`active`](crate::kernel::simd::active) resolves the backend once
//! (env override [`BACKEND_ENV`](crate::kernel::simd::BACKEND_ENV), else
//! CPU feature detection) and caches it in an atomic;
//! [`force`](crate::kernel::simd::force) overrides it process-wide (tests
//! and the kernel speedup bench). The `_with` variants take an explicit
//! backend and never touch the global — parity tests use those. Calling
//! a `_with` function with a backend that is not compiled in or whose
//! CPU features are absent falls back to the scalar path rather than
//! executing unsupported instructions, so every entry point stays safe.
//!
//! This is the single workspace module sanctioned to contain `unsafe`
//! (the workspace otherwise denies `unsafe_code`); every `unsafe` site
//! carries a `// SAFETY:` justification, enforced by the `safety-comment`
//! ustream-lint rule.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable consulted on first dispatch: `scalar`,
/// `portable`, `avx2`, `avx512`, `neon`, or `auto` (detect). Unknown
/// values and unavailable backends degrade to `scalar`, never to UB.
pub const BACKEND_ENV: &str = "USTREAM_KERNEL_BACKEND";

/// A kernel compute backend. All backends produce bitwise-identical
/// results (see the module docs for the canonical reduction contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Canonical four-accumulator scalar Rust; the always-correct
    /// fallback and the parity reference for every other backend.
    Scalar = 1,
    /// Portable `[f64; 4]` lane arithmetic in safe Rust; relies on the
    /// autovectorizer but fixes the reduction order explicitly.
    Portable = 2,
    /// `std::arch` AVX2 intrinsics, 4 × f64 per register.
    Avx2 = 3,
    /// `std::arch` AVX-512F intrinsics, two cluster rows per register
    /// (each row keeps its own four canonical lanes).
    Avx512 = 4,
    /// `std::arch` NEON intrinsics (aarch64), 2 × 2 × f64 per row sweep.
    Neon = 5,
}

#[cfg(target_arch = "x86_64")]
const COMPILED: &[Backend] = &[
    Backend::Scalar,
    Backend::Portable,
    Backend::Avx2,
    Backend::Avx512,
];
#[cfg(target_arch = "aarch64")]
const COMPILED: &[Backend] = &[Backend::Scalar, Backend::Portable, Backend::Neon];
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const COMPILED: &[Backend] = &[Backend::Scalar, Backend::Portable];

impl Backend {
    /// Stable lower-case name, also accepted by [`Backend::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Portable => "portable",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Parses a backend name (case-insensitive). Returns `None` for
    /// unknown names, including `auto` — callers decide what detection
    /// means in their context.
    pub fn parse(s: &str) -> Option<Backend> {
        let s = s.trim();
        [
            Backend::Scalar,
            Backend::Portable,
            Backend::Avx2,
            Backend::Avx512,
            Backend::Neon,
        ]
        .into_iter()
        .find(|b| s.eq_ignore_ascii_case(b.name()))
    }

    /// Whether this backend is both compiled into the binary and
    /// supported by the running CPU.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar | Backend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                // The odd-row helper and `dot` use AVX2 registers, so
                // the 512-bit backend requires both feature bits.
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true,
            #[cfg(not(all(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
        }
    }

    /// All backends compiled into this binary (availability still
    /// depends on the running CPU — see [`Backend::available`]).
    pub fn compiled() -> &'static [Backend] {
        COMPILED
    }

    fn from_u8(v: u8) -> Backend {
        match v {
            2 => Backend::Portable,
            3 => Backend::Avx2,
            4 => Backend::Avx512,
            5 => Backend::Neon,
            _ => Backend::Scalar,
        }
    }
}

/// Best rows found by the fused expected-distance + dimension-counting
/// sweep ([`rank_fused`]): both rankings from one pass over the
/// centroid and error-moment matrices.
#[derive(Clone, Copy, Debug)]
pub struct FusedBest {
    /// Row with the lowest exact expected squared distance (lowest
    /// index wins ties; NaN scores never win).
    pub dist_idx: usize,
    /// Exact expected squared distance `E[‖X − Zᵢ‖²]` of `dist_idx`:
    /// `Σⱼ (xⱼ−cⱼ)² + ψⱼ(x)² + eᵢⱼ` — the per-dimension `v` terms the
    /// similarity credit already computes, summed (Lemma 2.2).
    /// `INFINITY` when the kernel is empty or every score is NaN.
    pub dist_score: f64,
    /// Row with the highest dimension-counting similarity credit
    /// (lowest index wins ties; NaN credits never win).
    pub sim_idx: usize,
    /// Similarity credit of `sim_idx` (`NEG_INFINITY` when empty).
    pub sim: f64,
}

impl FusedBest {
    fn empty() -> FusedBest {
        FusedBest {
            dist_idx: 0,
            dist_score: f64::INFINITY,
            sim_idx: 0,
            sim: f64::NEG_INFINITY,
        }
    }
}

/// Running result of a fused sweep: the rankings, plus the lowest
/// error-corrected squared distance when the sweep is scored
/// (`INFINITY` otherwise, or when no row is finite).
struct Sweep {
    best: FusedBest,
    corrected: f64,
}

impl Sweep {
    fn new() -> Sweep {
        Sweep {
            best: FusedBest::empty(),
            corrected: f64::INFINITY,
        }
    }

    /// Folds row `i`'s reductions into the running bests; `corr`, the
    /// raw corrected lane sum, only when `SCORE`. NaN there marks a
    /// non-finite term, and a NaN never compares below the running
    /// minimum.
    #[inline(always)]
    fn offer<const SCORE: bool>(&mut self, i: usize, dist: f64, sim: f64, corr: f64) {
        if dist < self.best.dist_score {
            self.best.dist_idx = i;
            self.best.dist_score = dist;
        }
        if sim > self.best.sim {
            self.best.sim_idx = i;
            self.best.sim = sim;
        }
        if SCORE && corr < self.corrected {
            self.corrected = corr;
        }
    }
}

/// One dimension's contribution to the corrected lane: the clamped term
/// `max(t, 0)` plus `t · 0`, which is `±0` for a finite `t` (leaving the
/// non-negative clamp unchanged) and NaN for NaN or ±∞ — so a poisoned
/// term turns its lane (and so its row sum) into NaN instead of clamping
/// to zero. The SIMD backends issue the same max, mul and add in the same
/// order.
#[inline(always)]
fn corrected_term(t: f64) -> f64 {
    t.max(0.0) + t * 0.0
}

/// One element of the fused sweep, in the canonical operation order
/// every backend's vector body reproduces: with `ff = (x−c)²` and
/// `pe = ψ²`, the deviation moment `v = (ff + pe) + e` (summing to the
/// exact expected squared distance, Lemma 2.2), its clamped
/// dimension-counting credit `max(1 − v·inv, 0)`, and — when `SCORE` —
/// the corrected term of `t = (ff − pe) − e` (zero otherwise). Every
/// backend's tail elements go through here.
#[inline(always)]
fn fused_elem<const SCORE: bool>(x: f64, c: f64, err: f64, e: f64, inv: f64) -> (f64, f64, f64) {
    let f = x - c;
    let ff = f * f;
    let pe = err * err;
    let v = (ff + pe) + e;
    let corr = if SCORE {
        corrected_term((ff - pe) - e)
    } else {
        0.0
    };
    (v, (1.0 - v * inv).max(0.0), corr)
}

/// The canonical lane reduction `(l0 + l1) + (l2 + l3)`.
#[inline(always)]
fn reduce4(l: [f64; 4]) -> f64 {
    let [l0, l1, l2, l3] = l;
    (l0 + l1) + (l2 + l3)
}

// == Dispatch ===========================================================

/// The resolved backend, cached process-wide. `0` means "not yet
/// resolved"; any other value is a `Backend` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Returns the live backend, resolving it on first call from
/// [`BACKEND_ENV`] and CPU feature detection and caching the result.
pub fn active() -> Backend {
    let v = ACTIVE.load(Ordering::Acquire);
    if v != 0 {
        return Backend::from_u8(v);
    }
    let b = resolve();
    ACTIVE.store(b as u8, Ordering::Release);
    b
}

/// Overrides the cached dispatch decision process-wide and returns what
/// is now live. `Some(backend)` forces that backend (an unavailable one
/// degrades to `Scalar`); `None` re-resolves from the environment and
/// CPU detection. Used by tests and the kernel speedup bench.
pub fn force(choice: Option<Backend>) -> Backend {
    let b = match choice {
        Some(b) if b.available() => b,
        Some(_) => Backend::Scalar,
        None => resolve(),
    };
    ACTIVE.store(b as u8, Ordering::Release);
    b
}

fn resolve() -> Backend {
    if let Ok(raw) = std::env::var(BACKEND_ENV) {
        let raw = raw.trim();
        if !raw.is_empty() && !raw.eq_ignore_ascii_case("auto") {
            match Backend::parse(raw) {
                Some(b) if b.available() => return b,
                // Unknown or unavailable requests degrade to the
                // always-correct path instead of guessing.
                Some(_) | None => return Backend::Scalar,
            }
        }
    }
    detect()
}

/// Feature-detects the widest available backend for this machine,
/// ignoring the environment override and the cached decision.
#[cfg(target_arch = "x86_64")]
pub fn detect() -> Backend {
    if Backend::Avx512.available() {
        Backend::Avx512
    } else if Backend::Avx2.available() {
        Backend::Avx2
    } else {
        Backend::Portable
    }
}

/// Feature-detects the widest available backend for this machine,
/// ignoring the environment override and the cached decision.
#[cfg(target_arch = "aarch64")]
pub fn detect() -> Backend {
    Backend::Neon
}

/// Feature-detects the widest available backend for this machine,
/// ignoring the environment override and the cached decision.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn detect() -> Backend {
    Backend::Portable
}

// == Public entry points ================================================

/// Dot product `⟨a, b⟩` on the [`active`] backend.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_with(active(), a, b)
}

/// Dot product on an explicit backend. All backends are bitwise
/// identical; an uncompiled/unavailable backend runs the scalar path.
pub fn dot_with(backend: Backend, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    match backend {
        Backend::Portable => portable::dot(a, b),
        #[cfg(target_arch = "x86_64")]
        // AVX-512 reuses the AVX2 dot: a single vector pair has only
        // four canonical lanes, so a 512-bit register cannot help.
        Backend::Avx2 | Backend::Avx512 if backend.available() => {
            // SAFETY: the guard above confirmed the CPU supports the
            // feature set `dot_avx2` is compiled with.
            unsafe { x86::dot_avx2(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: NEON is baseline on aarch64, and this arm only
            // compiles for aarch64 targets.
            unsafe { neon::dot_neon(a, b) }
        }
        _ => scalar::dot(a, b),
    }
}

/// Expected-distance ranking sweep on the [`active`] backend: returns
/// `(row, score)` minimizing `self_moment[i] − 2·⟨x, cᵢ⟩` (strictly
/// decreasing scan, so the lowest index wins ties and NaN scores never
/// win). An empty kernel returns `(0, INFINITY)`.
pub fn rank_min_score(
    centroids: &[f64],
    self_moment: &[f64],
    dims: usize,
    x: &[f64],
) -> (usize, f64) {
    rank_min_score_with(active(), centroids, self_moment, dims, x)
}

/// [`rank_min_score`] on an explicit backend.
pub fn rank_min_score_with(
    backend: Backend,
    centroids: &[f64],
    self_moment: &[f64],
    dims: usize,
    x: &[f64],
) -> (usize, f64) {
    assert_eq!(x.len(), dims, "point dimensionality mismatch");
    assert_eq!(
        centroids.len(),
        self_moment.len() * dims,
        "centroid matrix shape mismatch"
    );
    match backend {
        Backend::Portable => portable::rank_min(centroids, self_moment, dims, x),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: the guard above confirmed AVX2 support.
            unsafe { x86::rank_min_avx2(centroids, self_moment, dims, x) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if backend.available() => {
            // SAFETY: the guard above confirmed AVX-512F + AVX2 support.
            unsafe { x86::rank_min_avx512(centroids, self_moment, dims, x) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: NEON is baseline on aarch64, and this arm only
            // compiles for aarch64 targets.
            unsafe { neon::rank_min_neon(centroids, self_moment, dims, x) }
        }
        _ => scalar::rank_min(centroids, self_moment, dims, x),
    }
}

/// Fused ranking sweep on the [`active`] backend: one pass over the
/// centroid and per-dimension error matrices yields both the
/// expected-distance argmin and the dimension-counting argmax (see
/// [`FusedBest`]). The distance ranking is a byproduct of the
/// similarity sweep: the per-dimension term `v = (x−c)² + ψ² + e`
/// that feeds the credit clamp sums to the exact expected squared
/// distance, so ranking costs one extra add per lane — no separate
/// dot product. `noise` is the kernel's per-row `EF2/W²` matrix,
/// `errs` the point's per-dimension errors, `inv` the cached
/// `1/(thresh·σ²)` coefficients (`INFINITY` marks skipped dimensions —
/// their credit clamps to zero).
pub fn rank_fused(
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
    inv: &[f64],
) -> FusedBest {
    rank_fused_with(active(), centroids, noise, dims, x, errs, inv)
}

/// [`rank_fused`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
pub fn rank_fused_with(
    backend: Backend,
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
    inv: &[f64],
) -> FusedBest {
    sweep::<false>(backend, centroids, noise, dims, x, errs, inv).best
}

/// [`rank_fused`] with a third output from the same pass: the lowest
/// error-corrected squared distance over the rows,
/// `minᵢ Σⱼ max(0, (xⱼ−cᵢⱼ)² − ψⱼ² − eᵢⱼ)` — the clean-geometry
/// distance novelty detection scores isolation with. The corrected term
/// reuses the two squares the sweep already forms, costing a few lane
/// ops per element; a row with a NaN or ±∞ term ranks at `+∞` and never
/// wins. The second value is `INFINITY` when the matrices are empty or
/// no row is finite. The rankings are bitwise those of [`rank_fused`].
pub fn rank_fused_scored(
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
    inv: &[f64],
) -> (FusedBest, f64) {
    rank_fused_scored_with(active(), centroids, noise, dims, x, errs, inv)
}

/// [`rank_fused_scored`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
pub fn rank_fused_scored_with(
    backend: Backend,
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
    inv: &[f64],
) -> (FusedBest, f64) {
    let s = sweep::<true>(backend, centroids, noise, dims, x, errs, inv);
    (s.best, s.corrected)
}

/// Shape checks and backend dispatch shared by both fused entry points;
/// `SCORE` compiles the corrected lane in or out of every backend.
#[allow(clippy::too_many_arguments)]
fn sweep<const SCORE: bool>(
    backend: Backend,
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
    inv: &[f64],
) -> Sweep {
    assert_eq!(x.len(), dims, "point dimensionality mismatch");
    assert_eq!(errs.len(), dims, "error vector dimensionality mismatch");
    assert_eq!(
        inv.len(),
        dims,
        "coefficient vector dimensionality mismatch"
    );
    assert_eq!(noise.len(), centroids.len(), "noise matrix shape mismatch");
    if dims == 0 {
        return Sweep::new();
    }
    assert_eq!(centroids.len() % dims, 0, "centroid matrix shape mismatch");
    let rows = centroids.len() / dims;
    match backend {
        Backend::Portable => {
            portable::rank_fused::<SCORE>(centroids, noise, rows, dims, x, errs, inv)
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: the guard above confirmed AVX2 support.
            unsafe { x86::rank_fused_avx2::<SCORE>(centroids, noise, rows, dims, x, errs, inv) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if backend.available() => {
            // SAFETY: the guard above confirmed AVX-512F + AVX2 support.
            unsafe { x86::rank_fused_avx512::<SCORE>(centroids, noise, rows, dims, x, errs, inv) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: NEON is baseline on aarch64, and this arm only
            // compiles for aarch64 targets.
            unsafe { neon::rank_fused_neon::<SCORE>(centroids, noise, rows, dims, x, errs, inv) }
        }
        _ => scalar::rank_fused::<SCORE>(centroids, noise, rows, dims, x, errs, inv),
    }
}

// == Scalar backend (the parity reference) ==============================

mod scalar {
    use super::{fused_elem, Sweep};

    /// Canonical four-lane dot product; every other backend must match
    /// this bitwise.
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        let d = a.len();
        let chunks = d / 4;
        let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..chunks {
            let j = 4 * i;
            l0 += a[j] * b[j];
            l1 += a[j + 1] * b[j + 1];
            l2 += a[j + 2] * b[j + 2];
            l3 += a[j + 3] * b[j + 3];
        }
        // Tail elements land in the lane they would occupy in a full
        // chunk (j % 4 ∈ {0, 1, 2} — a tail is at most 3 long).
        for j in 4 * chunks..d {
            let t = a[j] * b[j];
            match j % 4 {
                0 => l0 += t,
                1 => l1 += t,
                _ => l2 += t,
            }
        }
        (l0 + l1) + (l2 + l3)
    }

    pub(super) fn rank_min(centroids: &[f64], sm: &[f64], dims: usize, x: &[f64]) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, m) in sm.iter().enumerate() {
            let row = &centroids[i * dims..i * dims + dims];
            let score = *m - 2.0 * dot(x, row);
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        (best, best_score)
    }

    /// Canonical fused row sweep: the per-dimension deviation moment
    /// `vⱼ = (xⱼ−cⱼ)² + ψⱼ² + eⱼ` feeds BOTH rankings — `Σⱼ vⱼ` *is* the
    /// exact expected squared distance (Lemma 2.2), and the clamped
    /// `1 − vⱼ/(t·σⱼ²)` is the dimension-counting credit — so the second
    /// ranking costs one extra add per lane, not a second dot product.
    /// When `SCORE`, the same squares also give the corrected term (see
    /// [`fused_elem`]). Returns `(distance, credit, corrected)`; inlined
    /// so an unscored sweep drops the corrected lanes entirely.
    #[inline(always)]
    pub(super) fn row_fused<const SCORE: bool>(
        c: &[f64],
        e: &[f64],
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> (f64, f64, f64) {
        let d = x.len();
        let chunks = d / 4;
        let (mut d0, mut d1, mut d2, mut d3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut c0, mut c1, mut c2, mut c3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..chunks {
            let j = 4 * i;
            let (v0, k0, t0) = fused_elem::<SCORE>(x[j], c[j], errs[j], e[j], inv[j]);
            let (v1, k1, t1) =
                fused_elem::<SCORE>(x[j + 1], c[j + 1], errs[j + 1], e[j + 1], inv[j + 1]);
            let (v2, k2, t2) =
                fused_elem::<SCORE>(x[j + 2], c[j + 2], errs[j + 2], e[j + 2], inv[j + 2]);
            let (v3, k3, t3) =
                fused_elem::<SCORE>(x[j + 3], c[j + 3], errs[j + 3], e[j + 3], inv[j + 3]);
            d0 += v0;
            d1 += v1;
            d2 += v2;
            d3 += v3;
            s0 += k0;
            s1 += k1;
            s2 += k2;
            s3 += k3;
            if SCORE {
                c0 += t0;
                c1 += t1;
                c2 += t2;
                c3 += t3;
            }
        }
        // Tail elements land in the lane they would occupy in a full
        // chunk (j % 4 ∈ {0, 1, 2} — a tail is at most 3 long).
        for j in 4 * chunks..d {
            let (v, credit, corr) = fused_elem::<SCORE>(x[j], c[j], errs[j], e[j], inv[j]);
            match j % 4 {
                0 => {
                    d0 += v;
                    s0 += credit;
                    c0 += corr;
                }
                1 => {
                    d1 += v;
                    s1 += credit;
                    c1 += corr;
                }
                _ => {
                    d2 += v;
                    s2 += credit;
                    c2 += corr;
                }
            }
        }
        (
            (d0 + d1) + (d2 + d3),
            (s0 + s1) + (s2 + s3),
            (c0 + c1) + (c2 + c3),
        )
    }

    pub(super) fn rank_fused<const SCORE: bool>(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> Sweep {
        let mut out = Sweep::new();
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim, corr) = row_fused::<SCORE>(row, erow, x, errs, inv);
            out.offer::<SCORE>(i, dist, sim, corr);
        }
        out
    }
}

// == Portable lane backend ==============================================

mod portable {
    use super::{fused_elem, reduce4, Sweep};

    #[inline(always)]
    fn load(s: &[f64], j: usize) -> [f64; 4] {
        [s[j], s[j + 1], s[j + 2], s[j + 3]]
    }

    #[inline(always)]
    fn add(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        let [a0, a1, a2, a3] = a;
        let [b0, b1, b2, b3] = b;
        [a0 + b0, a1 + b1, a2 + b2, a3 + b3]
    }

    #[inline(always)]
    fn sub(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        let [a0, a1, a2, a3] = a;
        let [b0, b1, b2, b3] = b;
        [a0 - b0, a1 - b1, a2 - b2, a3 - b3]
    }

    #[inline(always)]
    fn mul(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        let [a0, a1, a2, a3] = a;
        let [b0, b1, b2, b3] = b;
        [a0 * b0, a1 * b1, a2 * b2, a3 * b3]
    }

    /// Per-lane `max(x, 0.0)`; NaN clamps to 0 like `f64::max`.
    #[inline(always)]
    fn relu(a: [f64; 4]) -> [f64; 4] {
        let [a0, a1, a2, a3] = a;
        [a0.max(0.0), a1.max(0.0), a2.max(0.0), a3.max(0.0)]
    }

    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        let d = a.len();
        let chunks = d / 4;
        let mut acc = [0.0f64; 4];
        for i in 0..chunks {
            let j = 4 * i;
            acc = add(acc, mul(load(a, j), load(b, j)));
        }
        for j in 4 * chunks..d {
            acc[j % 4] += a[j] * b[j];
        }
        reduce4(acc)
    }

    pub(super) fn rank_min(centroids: &[f64], sm: &[f64], dims: usize, x: &[f64]) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, m) in sm.iter().enumerate() {
            let row = &centroids[i * dims..i * dims + dims];
            let score = *m - 2.0 * dot(x, row);
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        (best, best_score)
    }

    fn row_fused<const SCORE: bool>(
        c: &[f64],
        e: &[f64],
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> (f64, f64, f64) {
        let d = x.len();
        let chunks = d / 4;
        let mut dacc = [0.0f64; 4];
        let mut sacc = [0.0f64; 4];
        let mut cacc = [0.0f64; 4];
        let ones = [1.0f64; 4];
        let zeros = [0.0f64; 4];
        for i in 0..chunks {
            let j = 4 * i;
            let vx = load(x, j);
            let vc = load(c, j);
            let diff = sub(vx, vc);
            let verr = load(errs, j);
            let ve = load(e, j);
            let ff = mul(diff, diff);
            let pe = mul(verr, verr);
            let vj = add(add(ff, pe), ve);
            dacc = add(dacc, vj);
            sacc = add(sacc, relu(sub(ones, mul(vj, load(inv, j)))));
            if SCORE {
                let t = sub(sub(ff, pe), ve);
                cacc = add(cacc, add(relu(t), mul(t, zeros)));
            }
        }
        for j in 4 * chunks..d {
            let (v, credit, corr) = fused_elem::<SCORE>(x[j], c[j], errs[j], e[j], inv[j]);
            dacc[j % 4] += v;
            sacc[j % 4] += credit;
            if SCORE {
                cacc[j % 4] += corr;
            }
        }
        (reduce4(dacc), reduce4(sacc), reduce4(cacc))
    }

    pub(super) fn rank_fused<const SCORE: bool>(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> Sweep {
        let mut out = Sweep::new();
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim, corr) = row_fused::<SCORE>(row, erow, x, errs, inv);
            out.offer::<SCORE>(i, dist, sim, corr);
        }
        out
    }
}

// == AVX2 / AVX-512 backends ============================================

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m512d, _mm256_add_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm512_add_pd, _mm512_broadcast_f64x4,
        _mm512_castpd256_pd512, _mm512_insertf64x4, _mm512_max_pd, _mm512_mul_pd, _mm512_set1_pd,
        _mm512_setzero_pd, _mm512_storeu_pd, _mm512_sub_pd,
    };

    use super::{fused_elem, reduce4, Sweep};

    // SAFETY: every function in this module is `unsafe fn` gated on
    // `#[target_feature]`; the dispatch arms in the parent module only
    // call them after `is_x86_feature_detected!` confirms support.

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        let d = a.len();
        let chunks = d / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = 4 * i;
            // In-bounds: j + 3 < 4 * chunks <= d.
            let va = _mm256_loadu_pd(a.as_ptr().add(j));
            let vb = _mm256_loadu_pd(b.as_ptr().add(j));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        }
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), acc);
        for j in 4 * chunks..d {
            l[j % 4] += a[j] * b[j];
        }
        let [l0, l1, l2, l3] = l;
        (l0 + l1) + (l2 + l3)
    }

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank_min_avx2(
        centroids: &[f64],
        sm: &[f64],
        dims: usize,
        x: &[f64],
    ) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, m) in sm.iter().enumerate() {
            let row = &centroids[i * dims..i * dims + dims];
            let score = *m - 2.0 * dot_avx2(x, row);
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        (best, best_score)
    }

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    unsafe fn row_fused_avx2<const SCORE: bool>(
        c: &[f64],
        e: &[f64],
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> (f64, f64, f64) {
        let d = x.len();
        let chunks = d / 4;
        let mut dacc = _mm256_setzero_pd();
        let mut sacc = _mm256_setzero_pd();
        let mut cacc = _mm256_setzero_pd();
        let ones = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = 4 * i;
            // In-bounds: j + 3 < 4 * chunks <= d for all five slices
            // (the dispatcher asserted matching lengths).
            let vx = _mm256_loadu_pd(x.as_ptr().add(j));
            let vc = _mm256_loadu_pd(c.as_ptr().add(j));
            let verr = _mm256_loadu_pd(errs.as_ptr().add(j));
            let ve = _mm256_loadu_pd(e.as_ptr().add(j));
            let vinv = _mm256_loadu_pd(inv.as_ptr().add(j));
            let diff = _mm256_sub_pd(vx, vc);
            let ff = _mm256_mul_pd(diff, diff);
            let pe = _mm256_mul_pd(verr, verr);
            let vj = _mm256_add_pd(_mm256_add_pd(ff, pe), ve);
            dacc = _mm256_add_pd(dacc, vj);
            // max_pd(NaN, 0) = 0, matching `f64::max` on skipped dims.
            let credit = _mm256_max_pd(_mm256_sub_pd(ones, _mm256_mul_pd(vj, vinv)), zero);
            sacc = _mm256_add_pd(sacc, credit);
            if SCORE {
                let t = _mm256_sub_pd(_mm256_sub_pd(ff, pe), ve);
                let corr = _mm256_add_pd(_mm256_max_pd(t, zero), _mm256_mul_pd(t, zero));
                cacc = _mm256_add_pd(cacc, corr);
            }
        }
        let mut dl = [0.0f64; 4];
        let mut sl = [0.0f64; 4];
        let mut cl = [0.0f64; 4];
        _mm256_storeu_pd(dl.as_mut_ptr(), dacc);
        _mm256_storeu_pd(sl.as_mut_ptr(), sacc);
        _mm256_storeu_pd(cl.as_mut_ptr(), cacc);
        for j in 4 * chunks..d {
            let (v, credit, corr) = fused_elem::<SCORE>(x[j], c[j], errs[j], e[j], inv[j]);
            dl[j % 4] += v;
            sl[j % 4] += credit;
            if SCORE {
                cl[j % 4] += corr;
            }
        }
        (reduce4(dl), reduce4(sl), reduce4(cl))
    }

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank_fused_avx2<const SCORE: bool>(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> Sweep {
        let mut out = Sweep::new();
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim, corr) = row_fused_avx2::<SCORE>(row, erow, x, errs, inv);
            out.offer::<SCORE>(i, dist, sim, corr);
        }
        out
    }

    /// Packs two 256-bit row chunks into one zmm: row A in lanes 0–3,
    /// row B in lanes 4–7. Pure bit moves — no rounding.
    // SAFETY: caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    unsafe fn pair(lo: std::arch::x86_64::__m256d, hi: std::arch::x86_64::__m256d) -> __m512d {
        _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo), hi)
    }

    // SAFETY: caller must ensure AVX-512F and AVX2 are available.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn rank_min_avx512(
        centroids: &[f64],
        sm: &[f64],
        dims: usize,
        x: &[f64],
    ) -> (usize, f64) {
        let len = sm.len();
        let chunks = dims / 4;
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        let mut i = 0usize;
        while i + 1 < len {
            let ra = &centroids[i * dims..i * dims + dims];
            let rb = &centroids[(i + 1) * dims..(i + 1) * dims + dims];
            let mut acc = _mm512_setzero_pd();
            for k in 0..chunks {
                let j = 4 * k;
                // In-bounds: j + 3 < 4 * chunks <= dims.
                let vx = _mm512_broadcast_f64x4(_mm256_loadu_pd(x.as_ptr().add(j)));
                let vc = pair(
                    _mm256_loadu_pd(ra.as_ptr().add(j)),
                    _mm256_loadu_pd(rb.as_ptr().add(j)),
                );
                acc = _mm512_add_pd(acc, _mm512_mul_pd(vx, vc));
            }
            let mut l = [0.0f64; 8];
            _mm512_storeu_pd(l.as_mut_ptr(), acc);
            for j in 4 * chunks..dims {
                l[j % 4] += x[j] * ra[j];
                l[4 + j % 4] += x[j] * rb[j];
            }
            let [a0, a1, a2, a3, b0, b1, b2, b3] = l;
            let sa = sm[i] - 2.0 * ((a0 + a1) + (a2 + a3));
            if sa < best_score {
                best = i;
                best_score = sa;
            }
            let sb = sm[i + 1] - 2.0 * ((b0 + b1) + (b2 + b3));
            if sb < best_score {
                best = i + 1;
                best_score = sb;
            }
            i += 2;
        }
        if i < len {
            let row = &centroids[i * dims..i * dims + dims];
            let s = sm[i] - 2.0 * dot_avx2(x, row);
            if s < best_score {
                best = i;
                best_score = s;
            }
        }
        (best, best_score)
    }

    // SAFETY: caller must ensure AVX-512F and AVX2 are available.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn rank_fused_avx512<const SCORE: bool>(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> Sweep {
        let len = rows;
        let chunks = dims / 4;
        let mut out = Sweep::new();
        let ones = _mm512_set1_pd(1.0);
        let zero = _mm512_setzero_pd();
        let mut i = 0usize;
        while i + 1 < len {
            let ca = &centroids[i * dims..i * dims + dims];
            let cb = &centroids[(i + 1) * dims..(i + 1) * dims + dims];
            let ea = &noise[i * dims..i * dims + dims];
            let eb = &noise[(i + 1) * dims..(i + 1) * dims + dims];
            let mut dacc = _mm512_setzero_pd();
            let mut sacc = _mm512_setzero_pd();
            let mut cacc = _mm512_setzero_pd();
            for k in 0..chunks {
                let j = 4 * k;
                // In-bounds: j + 3 < 4 * chunks <= dims everywhere.
                let vx = _mm512_broadcast_f64x4(_mm256_loadu_pd(x.as_ptr().add(j)));
                let verr = _mm512_broadcast_f64x4(_mm256_loadu_pd(errs.as_ptr().add(j)));
                let vinv = _mm512_broadcast_f64x4(_mm256_loadu_pd(inv.as_ptr().add(j)));
                let vc = pair(
                    _mm256_loadu_pd(ca.as_ptr().add(j)),
                    _mm256_loadu_pd(cb.as_ptr().add(j)),
                );
                let ve = pair(
                    _mm256_loadu_pd(ea.as_ptr().add(j)),
                    _mm256_loadu_pd(eb.as_ptr().add(j)),
                );
                let diff = _mm512_sub_pd(vx, vc);
                let ff = _mm512_mul_pd(diff, diff);
                let pe = _mm512_mul_pd(verr, verr);
                let vj = _mm512_add_pd(_mm512_add_pd(ff, pe), ve);
                dacc = _mm512_add_pd(dacc, vj);
                let credit = _mm512_max_pd(_mm512_sub_pd(ones, _mm512_mul_pd(vj, vinv)), zero);
                sacc = _mm512_add_pd(sacc, credit);
                if SCORE {
                    let t = _mm512_sub_pd(_mm512_sub_pd(ff, pe), ve);
                    let corr = _mm512_add_pd(_mm512_max_pd(t, zero), _mm512_mul_pd(t, zero));
                    cacc = _mm512_add_pd(cacc, corr);
                }
            }
            // Lanes 0–3 are row `i`, lanes 4–7 row `i + 1`.
            let mut dl = [[0.0f64; 4]; 2];
            let mut sl = [[0.0f64; 4]; 2];
            let mut cl = [[0.0f64; 4]; 2];
            _mm512_storeu_pd(dl.as_mut_ptr().cast::<f64>(), dacc);
            _mm512_storeu_pd(sl.as_mut_ptr().cast::<f64>(), sacc);
            _mm512_storeu_pd(cl.as_mut_ptr().cast::<f64>(), cacc);
            for j in 4 * chunks..dims {
                for (r, (cr, er)) in [(ca, ea), (cb, eb)].into_iter().enumerate() {
                    let (v, credit, corr) =
                        fused_elem::<SCORE>(x[j], cr[j], errs[j], er[j], inv[j]);
                    dl[r][j % 4] += v;
                    sl[r][j % 4] += credit;
                    if SCORE {
                        cl[r][j % 4] += corr;
                    }
                }
            }
            for (r, ((d, s), c)) in dl.into_iter().zip(sl).zip(cl).enumerate() {
                out.offer::<SCORE>(i + r, reduce4(d), reduce4(s), reduce4(c));
            }
            i += 2;
        }
        if i < len {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim, corr) = row_fused_avx2::<SCORE>(row, erow, x, errs, inv);
            out.offer::<SCORE>(i, dist, sim, corr);
        }
        out
    }
}

// == NEON backend (aarch64) =============================================

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{
        vaddq_f64, vdupq_n_f64, vld1q_f64, vmaxnmq_f64, vmulq_f64, vst1q_f64, vsubq_f64,
    };

    use super::{fused_elem, reduce4, Sweep};

    // SAFETY: NEON is mandatory on aarch64; the dispatch arms calling
    // into this module only compile for aarch64 targets.

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_neon(a: &[f64], b: &[f64]) -> f64 {
        let d = a.len();
        let chunks = d / 4;
        let mut lo = vdupq_n_f64(0.0);
        let mut hi = vdupq_n_f64(0.0);
        for i in 0..chunks {
            let j = 4 * i;
            // In-bounds: j + 3 < 4 * chunks <= d.
            lo = vaddq_f64(
                lo,
                vmulq_f64(vld1q_f64(a.as_ptr().add(j)), vld1q_f64(b.as_ptr().add(j))),
            );
            hi = vaddq_f64(
                hi,
                vmulq_f64(
                    vld1q_f64(a.as_ptr().add(j + 2)),
                    vld1q_f64(b.as_ptr().add(j + 2)),
                ),
            );
        }
        let mut l = [0.0f64; 4];
        vst1q_f64(l.as_mut_ptr(), lo);
        vst1q_f64(l.as_mut_ptr().add(2), hi);
        for j in 4 * chunks..d {
            l[j % 4] += a[j] * b[j];
        }
        let [l0, l1, l2, l3] = l;
        (l0 + l1) + (l2 + l3)
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn rank_min_neon(
        centroids: &[f64],
        sm: &[f64],
        dims: usize,
        x: &[f64],
    ) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, m) in sm.iter().enumerate() {
            let row = &centroids[i * dims..i * dims + dims];
            let score = *m - 2.0 * dot_neon(x, row);
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        (best, best_score)
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    unsafe fn row_fused_neon<const SCORE: bool>(
        c: &[f64],
        e: &[f64],
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> (f64, f64, f64) {
        let d = x.len();
        let chunks = d / 4;
        let zero = vdupq_n_f64(0.0);
        let ones = vdupq_n_f64(1.0);
        let mut dlo = zero;
        let mut dhi = zero;
        let mut slo = zero;
        let mut shi = zero;
        let mut clo = zero;
        let mut chi = zero;
        for i in 0..chunks {
            let j = 4 * i;
            for half in 0..2 {
                let o = j + 2 * half;
                // In-bounds: o + 1 < 4 * chunks <= d for all slices.
                let vx = vld1q_f64(x.as_ptr().add(o));
                let vc = vld1q_f64(c.as_ptr().add(o));
                let verr = vld1q_f64(errs.as_ptr().add(o));
                let ve = vld1q_f64(e.as_ptr().add(o));
                let vinv = vld1q_f64(inv.as_ptr().add(o));
                let diff = vsubq_f64(vx, vc);
                let ff = vmulq_f64(diff, diff);
                let pe = vmulq_f64(verr, verr);
                let vj = vaddq_f64(vaddq_f64(ff, pe), ve);
                // vmaxnmq (IEEE maxNum) clamps NaN credits to 0 like
                // `f64::max`; vmaxq would propagate the NaN instead.
                let credit = vmaxnmq_f64(vsubq_f64(ones, vmulq_f64(vj, vinv)), zero);
                let corr = if SCORE {
                    let t = vsubq_f64(vsubq_f64(ff, pe), ve);
                    vaddq_f64(vmaxnmq_f64(t, zero), vmulq_f64(t, zero))
                } else {
                    zero
                };
                if half == 0 {
                    dlo = vaddq_f64(dlo, vj);
                    slo = vaddq_f64(slo, credit);
                    clo = vaddq_f64(clo, corr);
                } else {
                    dhi = vaddq_f64(dhi, vj);
                    shi = vaddq_f64(shi, credit);
                    chi = vaddq_f64(chi, corr);
                }
            }
        }
        let mut dl = [0.0f64; 4];
        let mut sl = [0.0f64; 4];
        let mut cl = [0.0f64; 4];
        vst1q_f64(dl.as_mut_ptr(), dlo);
        vst1q_f64(dl.as_mut_ptr().add(2), dhi);
        vst1q_f64(sl.as_mut_ptr(), slo);
        vst1q_f64(sl.as_mut_ptr().add(2), shi);
        vst1q_f64(cl.as_mut_ptr(), clo);
        vst1q_f64(cl.as_mut_ptr().add(2), chi);
        for j in 4 * chunks..d {
            let (v, credit, corr) = fused_elem::<SCORE>(x[j], c[j], errs[j], e[j], inv[j]);
            dl[j % 4] += v;
            sl[j % 4] += credit;
            if SCORE {
                cl[j % 4] += corr;
            }
        }
        (reduce4(dl), reduce4(sl), reduce4(cl))
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn rank_fused_neon<const SCORE: bool>(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> Sweep {
        let mut out = Sweep::new();
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim, corr) = row_fused_neon::<SCORE>(row, erow, x, errs, inv);
            out.offer::<SCORE>(i, dist, sim, corr);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64-derived doubles in [-1, 1); the core
    /// crate has no rand dependency and parity tests must be seedable.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn vec_of(n: usize, state: &mut u64) -> Vec<f64> {
        (0..n).map(|_| splitmix(state) * 3.0).collect()
    }

    fn usable() -> Vec<Backend> {
        Backend::compiled()
            .iter()
            .copied()
            .filter(|b| b.available())
            .collect()
    }

    #[test]
    fn parse_and_name_round_trip() {
        for b in Backend::compiled() {
            assert_eq!(Backend::parse(b.name()), Some(*b));
            assert_eq!(Backend::parse(&b.name().to_uppercase()), Some(*b));
        }
        assert_eq!(Backend::parse("auto"), None);
        assert_eq!(Backend::parse("sse9"), None);
    }

    #[test]
    fn scalar_and_portable_always_available() {
        assert!(Backend::Scalar.available());
        assert!(Backend::Portable.available());
        assert!(detect().available());
    }

    #[test]
    fn dot_bitwise_parity_across_backends_and_lengths() {
        let mut st = 0x5eed_u64;
        for len in 0..=19 {
            let a = vec_of(len, &mut st);
            let b = vec_of(len, &mut st);
            let want = dot_with(Backend::Scalar, &a, &b);
            for be in usable() {
                let got = dot_with(be, &a, &b);
                assert_eq!(got.to_bits(), want.to_bits(), "dot parity {be:?} len {len}");
            }
        }
    }

    #[test]
    fn rank_min_bitwise_parity_across_backends() {
        let mut st = 0xfeed_u64;
        for dims in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
            for rows in [0usize, 1, 2, 3, 5, 8, 33] {
                let centroids = vec_of(rows * dims, &mut st);
                let sm = vec_of(rows, &mut st);
                let x = vec_of(dims, &mut st);
                let (wi, ws) = rank_min_score_with(Backend::Scalar, &centroids, &sm, dims, &x);
                for be in usable() {
                    let (gi, gs) = rank_min_score_with(be, &centroids, &sm, dims, &x);
                    assert_eq!(
                        (gi, gs.to_bits()),
                        (wi, ws.to_bits()),
                        "{be:?} d{dims} r{rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_fused_bitwise_parity_across_backends() {
        let mut st = 0xabcd_u64;
        // Every tail length 0–3 many times over, and odd row counts for
        // the AVX-512 pairing's leftover row.
        for dims in 1usize..=37 {
            for rows in [0usize, 1, 2, 3, 7, 25] {
                let centroids = vec_of(rows * dims, &mut st);
                let noise: Vec<f64> = vec_of(rows * dims, &mut st)
                    .iter()
                    .map(|v| v.abs())
                    .collect();
                let x = vec_of(dims, &mut st);
                let errs: Vec<f64> = vec_of(dims, &mut st).iter().map(|v| v.abs()).collect();
                // Mix of finite coefficients and the ∞ skip sentinel.
                let inv: Vec<f64> = (0..dims)
                    .map(|j| {
                        if j % 3 == 2 {
                            f64::INFINITY
                        } else {
                            splitmix(&mut st).abs() * 4.0
                        }
                    })
                    .collect();
                let bits = |b: FusedBest| {
                    (
                        b.dist_idx,
                        b.dist_score.to_bits(),
                        b.sim_idx,
                        b.sim.to_bits(),
                    )
                };
                let want = bits(rank_fused_with(
                    Backend::Scalar,
                    &centroids,
                    &noise,
                    dims,
                    &x,
                    &errs,
                    &inv,
                ));
                let (_, want_corr) = rank_fused_scored_with(
                    Backend::Scalar,
                    &centroids,
                    &noise,
                    dims,
                    &x,
                    &errs,
                    &inv,
                );
                for be in usable() {
                    let g = rank_fused_with(be, &centroids, &noise, dims, &x, &errs, &inv);
                    assert_eq!(bits(g), want, "{be:?} d{dims} r{rows}");
                    // Scoring adds the third output and leaves the
                    // rankings bit for bit as they were.
                    let (gs, corr) =
                        rank_fused_scored_with(be, &centroids, &noise, dims, &x, &errs, &inv);
                    assert_eq!(bits(gs), want, "{be:?} d{dims} r{rows} scored");
                    assert_eq!(
                        corr.to_bits(),
                        want_corr.to_bits(),
                        "{be:?} d{dims} r{rows} corr"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_scores_never_win_on_any_backend() {
        let dims = 5usize;
        let mut st = 0x11_u64;
        let mut centroids = vec_of(3 * dims, &mut st);
        centroids[dims] = f64::NAN; // poison row 1
        let sm = vec![1.0, f64::NAN, 0.5];
        let x = vec_of(dims, &mut st);
        for be in usable() {
            let (i, s) = rank_min_score_with(be, &centroids, &sm, dims, &x);
            assert_ne!(i, 1, "{be:?} picked the NaN row");
            assert!(s.is_finite(), "{be:?} returned a non-finite winner");
        }
        // All-NaN: nothing wins, the sentinel result is (0, INFINITY).
        let sm_nan = vec![f64::NAN; 3];
        for be in usable() {
            let (i, s) = rank_min_score_with(be, &centroids, &sm_nan, dims, &x);
            assert_eq!((i, s), (0, f64::INFINITY), "{be:?} all-NaN sentinel");
        }

        // Corrected terms: x = 0 and ψ = 1 everywhere, so a centroid at
        // the origin scores Σ max(0, −1 − e) = 0 — poisoned rows would
        // beat the honest row 0 (99 per dimension) if their NaN or ±∞
        // term clamped to zero like an ordinary negative one. Five rows
        // leave AVX-512 an odd row to take through the AVX2 helper.
        let mut centroids = vec![0.0; 5 * dims];
        let mut noise = vec![0.0; 5 * dims];
        centroids[..dims].fill(10.0);
        noise[dims] = f64::NAN; // row 1: NaN term
        noise[2 * dims + 3] = f64::INFINITY; // row 2: −∞ term
        centroids[3 * dims + 4] = 1e200; // row 3: (x − c)² overflows to +∞
        centroids[4 * dims + 1] = f64::NAN; // row 4: NaN term again
        let x = vec![0.0; dims];
        let errs = vec![1.0; dims];
        let inv = vec![1.0; dims];
        for be in usable() {
            let (_, corr) = rank_fused_scored_with(be, &centroids, &noise, dims, &x, &errs, &inv);
            assert_eq!(corr, 99.0 * dims as f64, "{be:?} poisoned row won");
        }
        // A poisoned point poisons every row: nothing is finite.
        let clean_noise = vec![0.0; 5 * dims];
        for (xj, ej) in [(f64::NAN, 1.0), (f64::INFINITY, 1.0), (0.0, f64::INFINITY)] {
            let mut x = vec![0.0; dims];
            let mut errs = vec![1.0; dims];
            x[2] = xj;
            errs[2] = ej;
            for be in usable() {
                let (_, corr) =
                    rank_fused_scored_with(be, &centroids, &clean_noise, dims, &x, &errs, &inv);
                assert_eq!(corr, f64::INFINITY, "{be:?} x={xj} ψ={ej}");
            }
        }
    }

    #[test]
    fn fused_sweep_skips_infinite_coefficients() {
        // inv = ∞ on every dim ⇒ every credit clamps to 0 on every row.
        let dims = 6usize;
        let mut st = 0x77_u64;
        let centroids = vec_of(4 * dims, &mut st);
        let noise = vec![0.1; 4 * dims];
        let x = vec_of(dims, &mut st);
        let errs = vec![0.2; dims];
        let inv = vec![f64::INFINITY; dims];
        for be in usable() {
            let g = rank_fused_with(be, &centroids, &noise, dims, &x, &errs, &inv);
            assert_eq!(
                g.sim.to_bits(),
                0.0f64.to_bits(),
                "{be:?} credit not clamped"
            );
        }
    }

    #[test]
    fn forced_unavailable_backend_degrades_to_scalar() {
        let before = active();
        let got = force(Some(Backend::Neon));
        #[cfg(not(target_arch = "aarch64"))]
        assert_eq!(got, Backend::Scalar);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(got, Backend::Neon);
        // Restore the detected backend for other tests in this binary.
        force(Some(before));
        assert_eq!(active(), before);
    }
}
