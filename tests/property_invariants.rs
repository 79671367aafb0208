//! Property-style tests on the core data structures and invariants of the
//! reproduction.
//!
//! These were originally written against `proptest`; the offline build
//! environment cannot fetch it, so the same properties are exercised with a
//! deterministic ChaCha-driven case generator (fixed seed per test, many
//! cases per property). Failures therefore always reproduce exactly.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use streaming_kmeans::clustering::cost::kmeans_cost;
use streaming_kmeans::clustering::kmeanspp::kmeanspp;
use streaming_kmeans::clustering::{Centers, PointBlock, PointSet};
use streaming_kmeans::coreset::construct::{CoresetBuilder, CoresetMethod};
use streaming_kmeans::coreset::Span;
use streaming_kmeans::prelude::*;
use streaming_kmeans::stream::numeric::{ceil_log, major, minor, nonzero_digits, prefixsum};

const CASES: usize = 64;

/// Generates a small weighted point set in 1–4 dimensions (unit weights).
fn random_point_set(rng: &mut ChaCha8Rng) -> PointSet {
    let dim = rng.gen_range(1..=4usize);
    let n = rng.gen_range(1..=120usize);
    let mut set = PointSet::new(dim);
    let mut row = vec![0.0f64; dim];
    for _ in 0..n {
        for x in row.iter_mut() {
            *x = rng.gen_range(-1_000.0..1_000.0f64);
        }
        set.push(&row, 1.0);
    }
    set
}

// --- numeric: base-r decompositions -------------------------------------

#[test]
fn major_plus_minor_reconstructs_n() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    for _ in 0..CASES {
        let n = rng.gen_range(0..1_000_000u64);
        let r = rng.gen_range(2..10u64);
        assert_eq!(major(n, r) + minor(n, r), n, "n={n} r={r}");
    }
}

#[test]
fn minor_is_a_single_base_r_digit() {
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    for _ in 0..CASES {
        let n = rng.gen_range(1..1_000_000u64);
        let r = rng.gen_range(2..10u64);
        let m = minor(n, r);
        assert!(m > 0, "n={n} r={r}");
        // minor must be of the form beta * r^alpha with 0 < beta < r.
        let mut value = m;
        while value.is_multiple_of(r) {
            value /= r;
        }
        assert!(value < r, "n={n} r={r} m={m}");
        assert!(value > 0, "n={n} r={r} m={m}");
    }
}

#[test]
fn prefixsum_is_decreasing_and_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(103);
    for _ in 0..CASES {
        let n = rng.gen_range(1..1_000_000u64);
        let r = rng.gen_range(2..10u64);
        let ps = prefixsum(n, r);
        assert_eq!(
            ps.len() as u32,
            nonzero_digits(n, r).saturating_sub(1),
            "n={n} r={r}"
        );
        for w in ps.windows(2) {
            assert!(w[0] > w[1], "n={n} r={r} ps={ps:?}");
        }
        for v in &ps {
            assert!(*v < n, "n={n} r={r} ps={ps:?}");
            assert!(*v > 0, "n={n} r={r} ps={ps:?}");
        }
        if !ps.is_empty() {
            assert_eq!(ps[0], major(n, r), "n={n} r={r}");
        }
    }
}

#[test]
fn fact_2_prefixsum_recurrence() {
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    for _ in 0..CASES {
        let n = rng.gen_range(1..100_000u64);
        let r = rng.gen_range(2..8u64);
        // prefixsum(N+1, r) ⊆ prefixsum(N, r) ∪ {N}
        let mut allowed = prefixsum(n, r);
        allowed.push(n);
        for v in prefixsum(n + 1, r) {
            assert!(allowed.contains(&v), "n={n} r={r} v={v}");
        }
    }
}

#[test]
fn ceil_log_bounds_power() {
    let mut rng = ChaCha8Rng::seed_from_u64(105);
    for _ in 0..CASES {
        let n = rng.gen_range(1..1_000_000u64);
        let r = rng.gen_range(2..10u64);
        let e = ceil_log(n, r);
        // r^e >= n and r^(e-1) < n (for n > 1).
        let pow = r.checked_pow(e).unwrap_or(u64::MAX);
        assert!(pow >= n, "n={n} r={r} e={e}");
        if n > 1 && e > 0 {
            let lower = r.checked_pow(e - 1).unwrap_or(u64::MAX);
            assert!(lower < n, "n={n} r={r} e={e}");
        }
    }
}

// --- clustering substrate ------------------------------------------------

#[test]
fn kmeans_cost_is_zero_iff_centers_cover_points() {
    let mut rng = ChaCha8Rng::seed_from_u64(106);
    for _ in 0..CASES {
        let points = random_point_set(&mut rng);
        // Centers equal to every distinct point => cost 0.
        let rows: Vec<Vec<f64>> = points.iter().map(|(p, _)| p.to_vec()).collect();
        let centers = Centers::from_rows(points.dim(), &rows).unwrap();
        let cost = kmeans_cost(&points, &centers).unwrap();
        assert!(cost.abs() < 1e-9, "cost={cost}");
    }
}

#[test]
fn kmeanspp_returns_requested_centers_and_finite_cost() {
    let mut rng = ChaCha8Rng::seed_from_u64(107);
    for _ in 0..CASES {
        let points = random_point_set(&mut rng);
        let k = rng.gen_range(1..8usize);
        let seed = rng.gen_range(0..1_000u64);
        let mut seeding_rng = ChaCha8Rng::seed_from_u64(seed);
        let centers = kmeanspp(&points, k, &mut seeding_rng).unwrap();
        assert_eq!(centers.len(), k.min(points.len()));
        assert_eq!(centers.dim(), points.dim());
        let cost = kmeans_cost(&points, &centers).unwrap();
        assert!(cost.is_finite());
        assert!(cost >= 0.0);
    }
}

#[test]
fn adding_a_center_never_increases_cost() {
    let mut rng = ChaCha8Rng::seed_from_u64(108);
    for _ in 0..CASES {
        let points = random_point_set(&mut rng);
        let seed = rng.gen_range(0..1_000u64);
        let mut seeding_rng = ChaCha8Rng::seed_from_u64(seed);
        let two = kmeanspp(&points, 2, &mut seeding_rng).unwrap();
        if two.len() == 2 {
            let one = Centers::from_rows(points.dim(), &[two.center(0).to_vec()]).unwrap();
            let cost_one = kmeans_cost(&points, &one).unwrap();
            let cost_two = kmeans_cost(&points, &two).unwrap();
            assert!(cost_two <= cost_one + 1e-9, "{cost_two} > {cost_one}");
        }
    }
}

// --- fused kernels vs the legacy per-point path --------------------------

/// Generates a point set with random (positive, finite) weights in 1–9
/// dimensions, exercising every tail length of the 4-lane dot kernel.
fn random_weighted_point_set(rng: &mut ChaCha8Rng) -> PointSet {
    let dim = rng.gen_range(1..=9usize);
    let n = rng.gen_range(1..=100usize);
    let mut set = PointSet::new(dim);
    let mut row = vec![0.0f64; dim];
    for _ in 0..n {
        for x in row.iter_mut() {
            *x = rng.gen_range(-1_000.0..1_000.0f64);
        }
        set.push(&row, rng.gen_range(0.0..10.0f64));
    }
    set
}

/// Error budget for comparing the fused expansion `‖x‖² − 2x·c + ‖c‖²`
/// against the legacy `Σ (x_j − c_j)²`: 1e-9 relative to the magnitudes
/// involved (the fused form's rounding error scales with the norms, the
/// legacy form's with the distance itself).
fn fused_tolerance(legacy: f64, x_norm: f64, c_norm: f64) -> f64 {
    1e-9 * (1.0 + legacy.abs() + x_norm + c_norm)
}

#[test]
fn fused_kernel_matches_legacy_per_point_path() {
    use streaming_kmeans::clustering::distance::{sq_dist_block, squared_distance, squared_norm};
    let mut rng = ChaCha8Rng::seed_from_u64(301);
    for _ in 0..CASES {
        let points = random_weighted_point_set(&mut rng);
        let block = PointBlock::from_point_set(&points);
        // Pit every pair (i, j) of a small prefix against each other.
        let limit = points.len().min(12);
        for i in 0..limit {
            for j in 0..limit {
                let (x, c) = (points.point(i), points.point(j));
                let legacy = squared_distance(x, c);
                let fused = sq_dist_block(x, block.norm(i), c, block.norm(j));
                assert!(
                    (legacy - fused).abs() <= fused_tolerance(legacy, block.norm(i), block.norm(j)),
                    "dim={} i={i} j={j}: legacy={legacy} fused={fused}",
                    points.dim()
                );
            }
        }
        // The cached norms themselves must match a direct evaluation.
        for i in 0..points.len() {
            let direct = squared_norm(points.point(i));
            assert!((block.norm(i) - direct).abs() <= 1e-12 * (1.0 + direct));
        }
    }
}

#[test]
fn fused_nearest_search_matches_legacy_distances() {
    use streaming_kmeans::clustering::distance::{
        nearest_block_row, nearest_center, squared_norm, squared_norms,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(302);
    for _ in 0..CASES {
        let points = random_weighted_point_set(&mut rng);
        let k = rng.gen_range(1..=6usize).min(points.len());
        let rows: Vec<Vec<f64>> = (0..k).map(|i| points.point(i).to_vec()).collect();
        let centers = Centers::from_rows(points.dim(), &rows).unwrap();
        let center_norms = squared_norms(centers.coords(), centers.dim());
        for (p, _) in points.iter() {
            let legacy = nearest_center(p, &centers).unwrap();
            let fused = nearest_block_row(
                p,
                squared_norm(p),
                centers.coords(),
                &center_norms,
                centers.dim(),
            )
            .unwrap();
            // Indices may differ on exact ties; the attained distances must
            // agree to within the fused error budget.
            let scale = squared_norm(p) + center_norms[legacy.0] + center_norms[fused.0];
            assert!(
                (legacy.1 - fused.1).abs() <= 1e-9 * (1.0 + legacy.1 + scale),
                "legacy={:?} fused={fused:?}",
                legacy
            );
        }
    }
}

#[test]
fn block_cost_path_matches_legacy_cost_loop() {
    use streaming_kmeans::clustering::cost::kmeans_cost_block;
    use streaming_kmeans::clustering::distance::squared_distance;
    let mut rng = ChaCha8Rng::seed_from_u64(303);
    for _ in 0..CASES {
        let points = random_weighted_point_set(&mut rng);
        let block = PointBlock::from_point_set(&points);
        let k = rng.gen_range(1..=5usize).min(points.len());
        let rows: Vec<Vec<f64>> = (0..k).map(|i| points.point(i).to_vec()).collect();
        let centers = Centers::from_rows(points.dim(), &rows).unwrap();
        // Hand-rolled legacy cost: Σ w(x) · min_c Σ_j (x_j − c_j)².
        let mut legacy = 0.0;
        let mut scale = 0.0;
        for (i, (p, w)) in points.iter().enumerate() {
            let d2 = centers
                .iter()
                .map(|c| squared_distance(p, c))
                .fold(f64::INFINITY, f64::min);
            legacy += w * d2;
            scale += w * block.norm(i);
        }
        let via_set = kmeans_cost(&points, &centers).unwrap();
        let via_block = kmeans_cost_block(&block, &centers).unwrap();
        let tol = 1e-9 * (1.0 + legacy + scale);
        assert!(
            (legacy - via_set).abs() <= tol,
            "legacy={legacy} fused={via_set}"
        );
        assert!(
            (legacy - via_block).abs() <= tol,
            "legacy={legacy} fused-block={via_block}"
        );
    }
}

#[test]
fn point_block_round_trips_preserve_points_and_weights() {
    let mut rng = ChaCha8Rng::seed_from_u64(304);
    for _ in 0..CASES {
        let points = random_weighted_point_set(&mut rng);
        let block = PointBlock::from_point_set(&points);
        assert_eq!(block.len(), points.len());
        assert_eq!(block.dim(), points.dim());
        let back = block.clone().into_point_set();
        assert_eq!(back, points);
        let copied = block.to_point_set();
        assert_eq!(copied, points);
        assert!((block.total_weight() - points.total_weight()).abs() < 1e-9);
    }
}

/// Generates a weighted block for the seeding-with-assignment pin: 1–19
/// dimensions, 2–401 points at one coordinate scale between 1e-6 and 1e8,
/// weights drawn from {0, 1e-300, fractional, integer}, and about 30% of
/// rows duplicating an earlier row.
fn random_seeding_block(rng: &mut ChaCha8Rng) -> PointBlock {
    let dim = rng.gen_range(1..=19usize);
    let n = rng.gen_range(2..=401usize);
    let scale = 10f64.powi(rng.gen_range(-6..=8i32));
    let mut block = PointBlock::with_capacity(dim, n);
    let mut row = vec![0.0f64; dim];
    for i in 0..n {
        if i > 0 && rng.gen_bool(0.3) {
            row.copy_from_slice(block.point(rng.gen_range(0..i)));
        } else {
            for x in row.iter_mut() {
                *x = rng.gen_range(-1.0..1.0f64) * scale;
            }
        }
        let weight = match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => 1e-300,
            2 => rng.gen_range(0.0..10.0f64),
            _ => f64::from(rng.gen_range(1..=5u32)),
        };
        block.push(&row, weight);
    }
    block
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Coreset construction seeds and assigns in one pass; it must give bit for
/// bit what k-means++ seeding followed by a separate nearest-center pass
/// gives, and leave the RNG at the same position.
#[test]
fn fused_seeding_with_assignment_matches_the_two_pass_path() {
    use streaming_kmeans::clustering::cost::assign_block;
    use streaming_kmeans::clustering::kmeanspp::{kmeanspp_assign_block, kmeanspp_block};
    let mut rng = ChaCha8Rng::seed_from_u64(305);
    for case in 0..300 {
        let block = random_seeding_block(&mut rng);
        let k = rng.gen_range(1..=block.len());
        let seed = rng.gen::<u64>();

        let mut two_pass_rng = ChaCha8Rng::seed_from_u64(seed);
        let seeded = kmeanspp_block(&block, k, &mut two_pass_rng).unwrap();
        let assigned = assign_block(&block, &seeded).unwrap();
        let mut fused_rng = ChaCha8Rng::seed_from_u64(seed);
        let (centers, assignment) = kmeanspp_assign_block(&block, k, &mut fused_rng).unwrap();

        let at = format!("case {case}: n={} d={} k={k}", block.len(), block.dim());
        assert_eq!(bits(centers.coords()), bits(seeded.coords()), "{at}");
        let weights = |c: &Centers| (0..c.len()).map(|j| c.weight(j)).collect::<Vec<_>>();
        assert_eq!(bits(&weights(&centers)), bits(&weights(&seeded)), "{at}");
        assert_eq!(assignment.labels, assigned.labels, "{at}");
        assert_eq!(
            bits(&assignment.cluster_weights),
            bits(&assigned.cluster_weights),
            "{at}"
        );
        assert_eq!(assignment.cost.to_bits(), assigned.cost.to_bits(), "{at}");
        assert_eq!(fused_rng.next_u64(), two_pass_rng.next_u64(), "{at}");
    }
}

// --- coresets ------------------------------------------------------------

#[test]
fn coreset_preserves_total_weight_and_caps_size() {
    let mut rng = ChaCha8Rng::seed_from_u64(109);
    for case in 0..CASES {
        let points = random_point_set(&mut rng);
        let seed = rng.gen_range(0..1_000u64);
        let method = if case % 2 == 0 {
            CoresetMethod::KMeansPP
        } else {
            CoresetMethod::SensitivitySampling
        };
        let size = 30usize;
        let builder = CoresetBuilder::new(3).with_size(size).with_method(method);
        let mut build_rng = ChaCha8Rng::seed_from_u64(seed);
        let coreset = builder
            .build(&points, Span::single(1), 1, &mut build_rng)
            .unwrap();
        assert!(coreset.len() <= size);
        assert!(coreset.len() <= points.len());
        let diff = (coreset.total_weight() - points.total_weight()).abs();
        assert!(diff < 1e-6 * (1.0 + points.total_weight()));
        assert_eq!(coreset.points().dim(), points.dim());
    }
}

// --- streaming algorithms ------------------------------------------------

#[test]
fn streaming_clusterers_accept_any_stream_and_answer_queries() {
    let mut rng = ChaCha8Rng::seed_from_u64(110);
    for _ in 0..CASES {
        let n = rng.gen_range(30..200usize);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-100.0..100.0f64)).collect())
            .collect();
        let seed = rng.gen_range(0..500u64);
        let config = StreamConfig::new(3)
            .with_bucket_size(15)
            .with_kmeans_runs(1)
            .with_lloyd_iterations(1);
        let mut cc = CachedCoresetTree::new(config, seed).unwrap();
        let mut ct = CoresetTreeClusterer::new(config, seed).unwrap();
        let mut online = OnlineCC::new(config, 1.5, seed).unwrap();
        for row in &rows {
            cc.update(row).unwrap();
            ct.update(row).unwrap();
            online.update(row).unwrap();
        }
        let points_seen = cc.points_seen();
        for (name, centers) in [
            ("CC", cc.query().unwrap()),
            ("CT", ct.query().unwrap()),
            ("OnlineCC", online.query().unwrap()),
        ] {
            assert!(centers.len() <= 3, "{name} returned too many centers");
            assert!(!centers.is_empty(), "{name} returned no centers");
            assert_eq!(centers.dim(), 3);
            // All centers lie within the (slightly padded) data bounding box.
            for c in centers.iter() {
                for &x in c {
                    assert!((-101.0..=101.0).contains(&x), "{name} center escaped: {x}");
                }
            }
        }
        assert_eq!(points_seen, rows.len() as u64);
    }
}

#[test]
fn coreset_tree_weight_equals_points_seen() {
    let mut rng = ChaCha8Rng::seed_from_u64(111);
    for _ in 0..CASES {
        let n_points = rng.gen_range(1..400usize);
        let bucket = rng.gen_range(5..40usize);
        let seed = rng.gen_range(0..500u64);
        let config = StreamConfig::new(2)
            .with_bucket_size(bucket.max(2))
            .with_kmeans_runs(1)
            .with_lloyd_iterations(1);
        let mut ct = CoresetTreeClusterer::new(config, seed).unwrap();
        let mut point_rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..n_points {
            ct.update(&[point_rng.gen::<f64>(), point_rng.gen::<f64>()])
                .unwrap();
        }
        // Weight stored in the tree + points still in the partial buffer
        // must equal the number of points fed in (mass conservation through
        // arbitrary merge patterns).
        let tree_weight = ct.tree().stored_weight();
        let buffered = (n_points % ct.config().bucket_size) as f64;
        assert!(
            (tree_weight + buffered - n_points as f64).abs() < 1e-6,
            "n={n_points} bucket={bucket} tree={tree_weight} buffered={buffered}"
        );
        assert!(ct.tree().digit_invariant_holds());
    }
}

// --- robustness: non-finite input and batch-update equivalence -----------

/// Injecting NaN/±∞ points anywhere in a stream must (a) be rejected with
/// an error and (b) leave the clusterer in exactly the state of a clean run
/// over only the valid points — no poisoned norms, no advanced RNG, no
/// phantom `points_seen`.
#[test]
fn non_finite_points_are_rejected_without_poisoning_state() {
    let mut rng = ChaCha8Rng::seed_from_u64(131);
    for _ in 0..CASES {
        let dim = rng.gen_range(1..=4usize);
        let n = rng.gen_range(30..200usize);
        let seed = rng.gen_range(0..500u64);
        let config = StreamConfig::new(2)
            .with_bucket_size(rng.gen_range(5..30usize).max(2))
            .with_kmeans_runs(1)
            .with_lloyd_iterations(1);

        let mut poisoned = CachedCoresetTree::new(config, seed).unwrap();
        let mut clean = CachedCoresetTree::new(config, seed).unwrap();
        let mut row = vec![0.0f64; dim];
        for _ in 0..n {
            for x in row.iter_mut() {
                *x = rng.gen_range(-100.0..100.0f64);
            }
            poisoned.update(&row).unwrap();
            clean.update(&row).unwrap();
            if rng.gen_bool(0.2) {
                // A corrupted copy of the point, fed only to `poisoned`.
                let mut bad = row.clone();
                let coord = rng.gen_range(0..dim);
                bad[coord] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                assert!(
                    poisoned.update(&bad).is_err(),
                    "non-finite point must be rejected (dim={dim})"
                );
            }
        }
        assert_eq!(poisoned.points_seen(), clean.points_seen());
        let a = poisoned.query().unwrap();
        let b = clean.query().unwrap();
        assert_eq!(
            a, b,
            "rejected points must leave no trace (dim={dim}, n={n})"
        );
        for c in a.iter() {
            assert!(c.iter().all(|x| x.is_finite()));
        }
    }
}

/// Feeding a stream through `update_batch` in random chunk sizes yields the
/// same internal state as the per-point loop: identical `points_seen` and
/// bit-identical query answers, across all overriding algorithms.
#[test]
fn update_batch_equals_per_point_updates() {
    let mut rng = ChaCha8Rng::seed_from_u64(137);
    for _ in 0..16 {
        let n = rng.gen_range(50..250usize);
        let seed = rng.gen_range(0..500u64);
        let config = StreamConfig::new(2)
            .with_bucket_size(rng.gen_range(4..25usize).max(2))
            .with_kmeans_runs(1)
            .with_lloyd_iterations(1);
        let rows: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();

        let check = |single: &mut dyn StreamingClusterer,
                     batched: &mut dyn StreamingClusterer,
                     chunk_rng: &mut ChaCha8Rng| {
            for r in &refs {
                single.update(r).unwrap();
            }
            let mut rest: &[&[f64]] = &refs;
            while !rest.is_empty() {
                let take = chunk_rng.gen_range(1..=rest.len());
                batched.update_batch(&rest[..take]).unwrap();
                rest = &rest[take..];
            }
            assert_eq!(single.points_seen(), batched.points_seen());
            assert_eq!(
                single.query().unwrap(),
                batched.query().unwrap(),
                "batched ingestion diverged ({})",
                single.name()
            );
        };
        check(
            &mut CoresetTreeClusterer::new(config, seed).unwrap(),
            &mut CoresetTreeClusterer::new(config, seed).unwrap(),
            &mut rng,
        );
        check(
            &mut CachedCoresetTree::new(config, seed).unwrap(),
            &mut CachedCoresetTree::new(config, seed).unwrap(),
            &mut rng,
        );
        check(
            &mut RecursiveCachedTree::new(config, 2, seed).unwrap(),
            &mut RecursiveCachedTree::new(config, 2, seed).unwrap(),
            &mut rng,
        );
    }
}
