//! Property-based parity tests for the SoA distance kernel: the packed
//! kernel must rank the same nearest cluster and report the same distances
//! as the scalar Lemma functions (`expected_sq_distance`,
//! `dimension_counting_similarity`), within 1e-9 relative, across random
//! streams for UMicro, DecayedUMicro and CluStream — including after
//! budget-driven merges and retirements and after decay synchronisation
//! rebuilds the kernel. Novelty isolation read off the kernel sweep must
//! match the scalar `corrected_sq_distance` reference within 1e-12, also
//! straight after every bulk rebuild (restore, state import, decay
//! synchronisation, k-means seeding).

use clustream::{CluStream, CluStreamConfig};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use umicro::distance::{corrected_sq_distance, expected_sq_distance};
use umicro::kernel::simd::{self, Backend};
use umicro::similarity::{dimension_counting_similarity, GlobalVariance};
use umicro::{
    ClusterKernel, DecayedUMicro, Ecf, MicroCluster, OnlineClusterer, UMicro, UMicroConfig,
};
use ustream_common::UncertainPoint;

const DIMS: usize = 3;
const REL_TOL: f64 = 1e-9;

/// Every backend this binary can exercise on the host CPU (always at
/// least Scalar and Portable).
fn compiled_available() -> Vec<Backend> {
    Backend::compiled()
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect()
}

/// Awkward dimensionalities around every backend's lane width: 1, 3,
/// 4 ± 1, 8 ± 1, and a long tail.
const AWKWARD_DIMS: [usize; 8] = [1, 3, 4, 5, 7, 8, 9, 17];

fn arb_awkward_dims() -> impl Strategy<Value = usize> {
    (0usize..AWKWARD_DIMS.len()).prop_map(|i| AWKWARD_DIMS[i])
}

fn arb_point() -> impl Strategy<Value = UncertainPoint> {
    (
        pvec(-100.0..100.0f64, DIMS),
        pvec(0.0..10.0f64, DIMS),
        1u64..1000,
    )
        .prop_map(|(values, errors, t)| UncertainPoint::new(values, errors, t, None))
}

fn arb_points(min: usize, max: usize) -> impl Strategy<Value = Vec<UncertainPoint>> {
    pvec(arb_point(), min..max)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// splitmix64 → uniform f64 in `[0, 1)`: deterministic matrix data from a
/// proptest-drawn seed without deep tuple-strategy nesting.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn fill(state: &mut u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| lo + (hi - lo) * unit(state)).collect()
}

/// Relative tolerance between kernel and scalar isolation.
const ISO_REL_TOL: f64 = 1e-12;

/// A seeded stream at `dims`: three well-separated blobs (so points both
/// absorb and seed), errors in `[0, 3)`, and every few records poisoned
/// with a NaN or ±∞ coordinate (`UncertainPoint` refuses non-finite
/// errors at construction).
fn seeded_stream(dims: usize, len: usize, seed: u64) -> Vec<UncertainPoint> {
    let mut s = seed;
    (0..len)
        .map(|i| {
            let centre = (i % 3) as f64 * 40.0 - 40.0;
            let mut values: Vec<f64> = fill(&mut s, dims, centre - 3.0, centre + 3.0);
            let errors = fill(&mut s, dims, 0.0, 3.0);
            match i % 13 {
                5 => values[0] = f64::NAN,
                8 => values[dims - 1] = f64::NEG_INFINITY,
                11 => values[dims / 2] = f64::INFINITY,
                _ => {}
            }
            UncertainPoint::new(values, errors, i as u64 + 1, None)
        })
        .collect()
}

/// `√ min` of per-cluster squared distances, `None` when none is finite.
fn sqrt_min(sq: impl Iterator<Item = f64>) -> Option<f64> {
    let best = sq.fold(f64::INFINITY, f64::min);
    best.is_finite().then(|| best.sqrt())
}

/// The scalar isolation reference: `√ minᵢ corrected_sq_distance`, `None`
/// when no cluster is a finite distance away.
fn reference_isolation<'a>(
    point: &UncertainPoint,
    clusters: impl IntoIterator<Item = &'a Ecf>,
) -> Option<f64> {
    sqrt_min(
        clusters
            .into_iter()
            .map(|ecf| corrected_sq_distance(point, ecf)),
    )
}

/// Dimension-counting threshold of the parity configurations.
const THRESH: f64 = 2.0;

/// The kernel's dimension-counting winner must be the scalar argmax of
/// [`dimension_counting_similarity`] over `clusters`, with the coefficients
/// derived from `variances` through the public [`GlobalVariance`] API.
fn check_dimension_counting(
    kernel: &ClusterKernel,
    clusters: &[MicroCluster],
    variances: &[f64],
    probes: &[UncertainPoint],
) {
    prop_assert_eq!(kernel.len(), clusters.len());
    let mut global = GlobalVariance::new(variances.len());
    global.restore_variances(variances);
    let mut inv = vec![0.0; variances.len()];
    global.inverse_coefficients_into(THRESH, &mut inv);
    for probe in probes {
        let scalar: Vec<f64> = clusters
            .iter()
            .map(|c| dimension_counting_similarity(probe, &c.ecf, &global, THRESH))
            .collect();
        let Some((idx, sim)) =
            kernel.best_by_dimension_counting(probe.values(), probe.errors(), &inv)
        else {
            prop_assert!(clusters.is_empty());
            continue;
        };
        let max_scalar = scalar.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            close(sim, max_scalar),
            "similarity: kernel {sim} vs scalar max {max_scalar}"
        );
        prop_assert!(
            close(scalar[idx], max_scalar),
            "kernel picked cluster {idx} at scalar {} but max is {max_scalar}",
            scalar[idx]
        );
    }
}

fn assert_isolation_close(got: Option<f64>, want: Option<f64>, what: &str) {
    match (got, want) {
        (None, None) => {}
        (Some(a), Some(b)) => assert!(
            (a - b).abs() <= ISO_REL_TOL * a.abs().max(b.abs()),
            "{what}: kernel {a} vs scalar {b}"
        ),
        _ => panic!("{what}: kernel {got:?} vs scalar {want:?}"),
    }
}

/// Feeds `stream` to `scored` through `insert_batch_scored` in `chunk`-
/// sized batches and to `looped` through `isolation` + `insert` per
/// point; both isolations must match the scalar reference taken over
/// `looped`'s clusters before each insert, and the outcomes must agree.
fn check_scored_isolation<A: OnlineClusterer<Summary = Ecf>>(
    mut scored: A,
    mut looped: A,
    stream: &[UncertainPoint],
    chunk: usize,
) {
    let mut got = Vec::new();
    for part in stream.chunks(chunk) {
        scored.insert_batch_scored(part, &mut got);
    }
    assert_eq!(got.len(), stream.len());
    for (i, (p, (scored_out, scored_iso))) in stream.iter().zip(&got).enumerate() {
        let want = reference_isolation(p, looped.live_clusters().clusters.values().map(|e| &**e));
        assert_isolation_close(looped.isolation(p), want, &format!("isolation #{i}"));
        assert_isolation_close(*scored_iso, want, &format!("scored isolation #{i}"));
        let out = looped.insert(p);
        assert_eq!(*scored_out, out, "outcome #{i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// UMicro: after a random stream through a tight budget (forcing
    /// retirements), every kernel distance and the kernel-ranked nearest
    /// cluster agree with the scalar Lemma 2.2 evaluation.
    #[test]
    fn umicro_kernel_matches_scalar(
        stream in arb_points(4, 40),
        probes in arb_points(1, 6),
    ) {
        let mut alg = UMicro::new(UMicroConfig::new(4, DIMS).unwrap());
        for p in &stream {
            alg.insert(p);
        }
        let kernel = alg.kernel();
        let clusters = alg.micro_clusters();
        prop_assert_eq!(kernel.len(), clusters.len());
        for probe in &probes {
            let scalar: Vec<f64> = clusters
                .iter()
                .map(|c| expected_sq_distance(probe, &c.ecf))
                .collect();
            for (i, &s) in scalar.iter().enumerate() {
                let k = kernel.expected_sq_distance(probe.values(), probe.errors(), i);
                prop_assert!(close(k, s), "cluster {i}: kernel {k} vs scalar {s}");
            }
            let (idx, kd) = kernel
                .nearest_expected(probe.values(), probe.errors())
                .expect("non-empty cluster set");
            let min_scalar = scalar.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(close(kd, min_scalar),
                "nearest distance: kernel {kd} vs scalar min {min_scalar}");
            prop_assert!(close(scalar[idx], min_scalar),
                "kernel picked cluster {idx} at scalar {} but min is {min_scalar}",
                scalar[idx]);
        }
    }

    /// Dimension-counting ranking: the kernel's fused sweep picks the
    /// scalar argmax of the §II-B similarity on UMicro, and on
    /// DecayedUMicro after a mid-stream `synchronize` rebuilt its kernel.
    #[test]
    fn dimension_counting_matches_scalar(
        head in arb_points(4, 30),
        tail in arb_points(0, 20),
        probes in arb_points(1, 6),
    ) {
        let mut cfg = UMicroConfig::new(4, DIMS).unwrap().with_dimension_counting(THRESH);
        cfg.variance_refresh_interval = 6;
        let mut alg = UMicro::new(cfg.clone());
        for p in head.iter().chain(&tail) {
            alg.insert(p);
        }
        check_dimension_counting(alg.kernel(), alg.micro_clusters(), alg.global_variances(), &probes);

        let mut decayed = DecayedUMicro::with_half_life(cfg, 300.0);
        for p in &head {
            decayed.insert(p);
        }
        let mid = head.iter().map(|p| p.timestamp()).max().unwrap_or(0) + 50;
        decayed.synchronize(mid);
        for p in &tail {
            decayed.insert(p);
        }
        let variances = decayed.export_state().variances;
        check_dimension_counting(decayed.kernel(), decayed.micro_clusters(), &variances, &probes);
    }

    /// Batched insertion must follow the exact same trajectory as the
    /// per-point loop.
    #[test]
    fn umicro_batch_matches_loop(stream in arb_points(4, 40)) {
        let mut looped = UMicro::new(UMicroConfig::new(4, DIMS).unwrap());
        let mut batched = UMicro::new(UMicroConfig::new(4, DIMS).unwrap());
        let loop_out: Vec<_> = stream.iter().map(|p| looped.insert(p)).collect();
        let mut batch_out = Vec::new();
        batched.insert_batch(&stream, &mut batch_out);
        prop_assert_eq!(loop_out, batch_out);
        prop_assert_eq!(looped.micro_clusters().len(), batched.micro_clusters().len());
    }

    /// DecayedUMicro: a mid-stream `synchronize` rescales every cluster and
    /// rebuilds the kernel; the kernel must still match the scalar
    /// distances over the decayed statistics.
    #[test]
    fn decayed_kernel_matches_scalar_after_synchronize(
        head in arb_points(3, 20),
        tail in arb_points(3, 20),
        probes in arb_points(1, 5),
    ) {
        let mut alg = DecayedUMicro::with_half_life(UMicroConfig::new(4, DIMS).unwrap(), 300.0);
        for p in &head {
            alg.insert(p);
        }
        let mid = head.iter().map(|p| p.timestamp()).max().unwrap_or(0) + 50;
        alg.synchronize(mid);
        for p in &tail {
            alg.insert(p);
        }
        let kernel = alg.kernel();
        let clusters = alg.micro_clusters();
        prop_assert_eq!(kernel.len(), clusters.len());
        for probe in &probes {
            for (i, c) in clusters.iter().enumerate() {
                let s = expected_sq_distance(probe, &c.ecf);
                let k = kernel.expected_sq_distance(probe.values(), probe.errors(), i);
                prop_assert!(close(k, s), "cluster {i}: kernel {k} vs scalar {s}");
            }
            if let Some((idx, kd)) = kernel.nearest_expected(probe.values(), probe.errors()) {
                let scalar: Vec<f64> = clusters
                    .iter()
                    .map(|c| expected_sq_distance(probe, &c.ecf))
                    .collect();
                let min_scalar = scalar.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!(close(kd, min_scalar));
                prop_assert!(close(scalar[idx], min_scalar));
            }
        }
    }

    /// CluStream: the deterministic geometry (zero noise rows) must agree
    /// with the scalar centroid distance after budget-driven merges and
    /// deletions.
    #[test]
    fn clustream_kernel_matches_scalar(
        stream in arb_points(6, 50),
        probes in arb_points(1, 6),
    ) {
        let mut alg = CluStream::new(CluStreamConfig::new(4, DIMS).unwrap());
        for p in &stream {
            alg.insert(p);
        }
        let kernel = alg.kernel();
        let clusters = alg.micro_clusters();
        prop_assert_eq!(kernel.len(), clusters.len());
        for probe in &probes {
            let scalar: Vec<f64> = clusters
                .iter()
                .map(|c| c.cf.sq_distance_to(probe.values()))
                .collect();
            for (i, &s) in scalar.iter().enumerate() {
                // Deterministic rows publish zero noise, so the expected
                // distance with zero probe error is the plain Euclidean one.
                let k = kernel.expected_sq_distance(probe.values(), &[0.0; DIMS], i);
                prop_assert!(close(k, s), "cluster {i}: kernel {k} vs scalar {s}");
            }
            let (idx, kd) = kernel
                .nearest_deterministic(probe.values())
                .expect("non-empty cluster set");
            let min_scalar = scalar.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(close(kd, min_scalar),
                "nearest distance: kernel {kd} vs scalar min {min_scalar}");
            prop_assert!(close(scalar[idx], min_scalar));
        }
    }

    /// Every compiled-and-available SIMD backend produces the *bitwise*
    /// identical dot product as the canonical scalar reduction on lengths
    /// straddling every lane width (tails of 1–3 elements included).
    #[test]
    fn dot_bitwise_identical_across_backends(n in 1usize..20, seed in 0u64..u64::MAX) {
        let mut s = seed;
        let a = fill(&mut s, n, -1e6, 1e6);
        let b = fill(&mut s, n, -1e6, 1e6);
        let want = simd::dot_with(Backend::Scalar, &a, &b).to_bits();
        for backend in compiled_available() {
            let got = simd::dot_with(backend, &a, &b).to_bits();
            prop_assert_eq!(got, want, "backend {}", backend.name());
        }
    }

    /// Every backend agrees bitwise with scalar on both halves of the
    /// fused sweep — winner indices AND winner scores — over awkward
    /// dimensionalities, with every third similarity coefficient forced
    /// infinite (the dead-dimension sentinel the sweep must skip).
    #[test]
    fn rank_bitwise_identical_across_backends(
        dims in arb_awkward_dims(),
        rows in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let centroids = fill(&mut s, dims * rows, -100.0, 100.0);
        let noise = fill(&mut s, dims * rows, 0.0, 10.0);
        let sm = fill(&mut s, rows, -50.0, 5000.0);
        let x = fill(&mut s, dims, -100.0, 100.0);
        let errs = fill(&mut s, dims, 0.1, 10.0);
        let inv: Vec<f64> = fill(&mut s, dims, 0.5, 50.0).iter().enumerate()
            .map(|(j, &v)| if j % 3 == 2 { f64::INFINITY } else { v })
            .collect();
        let want_min = simd::rank_min_score_with(Backend::Scalar, &centroids, &sm, dims, &x);
        let want_fused =
            simd::rank_fused_with(Backend::Scalar, &centroids, &noise, dims, &x, &errs, &inv);
        let (_, want_corrected) = simd::rank_fused_scored_with(
            Backend::Scalar, &centroids, &noise, dims, &x, &errs, &inv);
        for backend in compiled_available() {
            let got = simd::rank_min_score_with(backend, &centroids, &sm, dims, &x);
            prop_assert_eq!(got.0, want_min.0, "rank_min idx on {}", backend.name());
            prop_assert_eq!(got.1.to_bits(), want_min.1.to_bits(),
                "rank_min score on {}", backend.name());
            let gf =
                simd::rank_fused_with(backend, &centroids, &noise, dims, &x, &errs, &inv);
            prop_assert_eq!(gf.dist_idx, want_fused.dist_idx, "dist idx on {}", backend.name());
            prop_assert_eq!(gf.dist_score.to_bits(), want_fused.dist_score.to_bits(),
                "dist score on {}", backend.name());
            prop_assert_eq!(gf.sim_idx, want_fused.sim_idx, "sim idx on {}", backend.name());
            prop_assert_eq!(gf.sim.to_bits(), want_fused.sim.to_bits(),
                "sim on {}", backend.name());
            let (gs, corrected) =
                simd::rank_fused_scored_with(backend, &centroids, &noise, dims, &x, &errs, &inv);
            prop_assert_eq!((gs.dist_idx, gs.sim_idx), (gf.dist_idx, gf.sim_idx),
                "scored rankings on {}", backend.name());
            prop_assert_eq!(corrected.to_bits(), want_corrected.to_bits(),
                "corrected on {}", backend.name());
        }
    }

    /// NaN-poisoned centroid rows must never win the ranking, and every
    /// backend must agree bitwise on what does win despite the poison.
    #[test]
    fn nan_rows_never_win_and_backends_agree(
        dims in arb_awkward_dims(),
        rows in 2usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let mut centroids = fill(&mut s, dims * rows, -100.0, 100.0);
        let noise = fill(&mut s, dims * rows, 0.0, 10.0);
        let sm = fill(&mut s, rows, -50.0, 5000.0);
        let x = fill(&mut s, dims, -100.0, 100.0);
        let errs = fill(&mut s, dims, 0.1, 10.0);
        let inv = fill(&mut s, dims, 0.5, 50.0);
        let poison = (seed as usize) % rows;
        for v in &mut centroids[poison * dims..(poison + 1) * dims] {
            *v = f64::NAN;
        }
        let want = simd::rank_min_score_with(Backend::Scalar, &centroids, &sm, dims, &x);
        // rows >= 2, so some finite row exists and the NaN row cannot win.
        prop_assert!(rows < 2 || want.0 != poison || want.1.is_finite());
        let want_fused =
            simd::rank_fused_with(Backend::Scalar, &centroids, &noise, dims, &x, &errs, &inv);
        let (_, want_corrected) = simd::rank_fused_scored_with(
            Backend::Scalar, &centroids, &noise, dims, &x, &errs, &inv);
        for backend in compiled_available() {
            let got = simd::rank_min_score_with(backend, &centroids, &sm, dims, &x);
            prop_assert_eq!(got.0, want.0, "rank_min idx on {}", backend.name());
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(),
                "rank_min score on {}", backend.name());
            let gf =
                simd::rank_fused_with(backend, &centroids, &noise, dims, &x, &errs, &inv);
            prop_assert_eq!(gf.dist_idx, want_fused.dist_idx, "dist idx on {}", backend.name());
            prop_assert_eq!(gf.sim_idx, want_fused.sim_idx, "sim idx on {}", backend.name());
            let (_, corrected) =
                simd::rank_fused_scored_with(backend, &centroids, &noise, dims, &x, &errs, &inv);
            prop_assert_eq!(corrected.to_bits(), want_corrected.to_bits(),
                "corrected on {}", backend.name());
        }
        // The poisoned row's corrected distance is NaN, so the minimum is
        // the best finite row's.
        let finite_best = (0..rows)
            .filter(|&i| i != poison)
            .map(|i| {
                let one = |v: &[f64]| v[i * dims..(i + 1) * dims].to_vec();
                simd::rank_fused_scored_with(Backend::Scalar, &one(&centroids), &one(&noise),
                    dims, &x, &errs, &inv).1
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(want_corrected.to_bits(), finite_best.to_bits());
    }

    /// `isolation` and the scored batch insert agree with the scalar
    /// reference (min over clusters of `corrected_sq_distance`, then
    /// square-rooted) on UMicro and DecayedUMicro, in both similarity
    /// modes, during bootstrap and after, poisoned records included — and
    /// the scored outcomes equal a plain insert loop's.
    #[test]
    fn isolation_matches_scalar_reference(
        dims in arb_awkward_dims(),
        len in 8usize..48,
        chunk in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let stream = seeded_stream(dims, len, seed);
        for expected_distance in [false, true] {
            let mut cfg = UMicroConfig::new(5, dims).unwrap();
            // Early refreshes: the dimension-counting sweep takes over
            // from the uninformative-variance fallback mid-stream.
            cfg.variance_refresh_interval = 6;
            if expected_distance {
                cfg = cfg.with_expected_distance();
            }
            check_scored_isolation(UMicro::new(cfg.clone()), UMicro::new(cfg.clone()), &stream, chunk);
            check_scored_isolation(
                DecayedUMicro::with_half_life(cfg.clone(), 40.0),
                DecayedUMicro::with_half_life(cfg, 40.0),
                &stream,
                chunk,
            );
        }
    }

    /// Every bulk edit rebuilds the kernel on the spot: `isolation` straight
    /// after `restore`, `import_state`, `synchronize` and `seed_with_kmeans`
    /// (no insert in between) matches the scalar reference over the new
    /// cluster set, and the kernel mirrors that set row for row.
    #[test]
    fn isolation_fresh_after_bulk_rebuilds(
        dims in arb_awkward_dims(),
        len in 8usize..48,
        drift in 0u64..1500,
        seed in 0u64..u64::MAX,
    ) {
        let stream = seeded_stream(dims, len, seed);
        let probes = seeded_stream(dims, 13, seed ^ 0x5eed);
        let cfg = UMicroConfig::new(5, dims).unwrap();
        let mut source = UMicro::new(cfg.clone());
        for p in &stream {
            source.insert(p);
        }
        let restored = UMicro::restore(cfg.clone(), &source.snapshot());
        let mut imported = UMicro::new(cfg.clone());
        imported.import_state(&source.export_state()).unwrap();
        let mut decayed = DecayedUMicro::with_half_life(cfg, 40.0);
        for p in &stream {
            decayed.insert(p);
        }
        decayed.synchronize(len as u64 + drift);
        let finite: Vec<UncertainPoint> =
            stream.iter().filter(|p| p.values_finite()).cloned().collect();
        let mut seeded = CluStream::new(CluStreamConfig::new(5, dims).unwrap());
        seeded.seed_with_kmeans(&finite, seed);

        prop_assert_eq!(restored.kernel().len(), restored.micro_clusters().len());
        prop_assert_eq!(imported.kernel().len(), imported.micro_clusters().len());
        prop_assert_eq!(decayed.kernel().len(), decayed.micro_clusters().len());
        prop_assert_eq!(seeded.kernel().len(), seeded.micro_clusters().len());
        for (i, p) in probes.iter().enumerate() {
            for (what, alg) in [("restore", &restored), ("import_state", &imported)] {
                let want = reference_isolation(p, alg.micro_clusters().iter().map(|c| &c.ecf));
                assert_isolation_close(alg.isolation(p), want, &format!("{what} #{i}"));
            }
            let want = reference_isolation(p, decayed.micro_clusters().iter().map(|c| &c.ecf));
            assert_isolation_close(decayed.isolation(p), want, &format!("synchronize #{i}"));
            let want = sqrt_min(seeded.micro_clusters().iter().map(|c| c.cf.sq_distance_to(p.values())));
            assert_isolation_close(seeded.isolation(p), want, &format!("seed_with_kmeans #{i}"));
        }
    }

    /// CluStream batched insertion follows the per-point trajectory exactly.
    #[test]
    fn clustream_batch_matches_loop(stream in arb_points(6, 50)) {
        let mut looped = CluStream::new(CluStreamConfig::new(4, DIMS).unwrap());
        let mut batched = CluStream::new(CluStreamConfig::new(4, DIMS).unwrap());
        let loop_out: Vec<_> = stream.iter().map(|p| looped.insert(p)).collect();
        let mut batch_out = Vec::new();
        batched.insert_batch(&stream, &mut batch_out);
        prop_assert_eq!(loop_out, batch_out);
        prop_assert_eq!(looped.micro_clusters().len(), batched.micro_clusters().len());
    }
}
