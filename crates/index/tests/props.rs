//! Property-based tests: index queries always agree with brute force.

use proptest::prelude::*;
use rms_geom::{top_k as brute_top_k, Point, Utility};
use rms_index::{ConeTree, KdTree};
use std::collections::BTreeSet;

fn arb_points(d: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(0.0f64..=1.0, d), n).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, c)| Point::new_unchecked(i as u64, c))
            .collect()
    })
}

fn arb_utility(d: usize) -> impl Strategy<Value = Utility> {
    prop::collection::vec(0.01f64..=1.0, d).prop_map(|w| Utility::new(w).unwrap())
}

/// `above_threshold` as a set of (id, score bits): its order is
/// unspecified.
fn above_threshold_set(tree: &KdTree, u: &Utility, tau: f64) -> BTreeSet<(u64, u64)> {
    tree.above_threshold(u, tau)
        .iter()
        .map(|r| (r.id, r.score.to_bits()))
        .collect()
}

fn brute_above(pts: &[Point], u: &Utility, tau: f64) -> BTreeSet<(u64, u64)> {
    pts.iter()
        .map(|p| (p.id(), u.score(p)))
        .filter(|&(_, s)| s >= tau)
        .map(|(id, s)| (id, s.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn kdtree_topk_equals_bruteforce(
        pts in arb_points(3, 1..120),
        u in arb_utility(3),
        k in 1usize..12,
    ) {
        let tree = KdTree::build(3, pts.clone()).unwrap();
        prop_assert_eq!(tree.top_k(&u, k), brute_top_k(&pts, &u, k));
    }

    #[test]
    fn kdtree_threshold_equals_filter(
        pts in arb_points(4, 1..80),
        u in arb_utility(4),
        tau in 0.0f64..2.0,
    ) {
        let tree = KdTree::build(4, pts.clone()).unwrap();
        prop_assert_eq!(above_threshold_set(&tree, &u, tau), brute_above(&pts, &u, tau));
    }

    #[test]
    fn kdtree_survives_edit_scripts(
        pts in arb_points(3, 1..60),
        script in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, any::<bool>()), 0..60),
        u in arb_utility(3),
    ) {
        let mut all = pts.clone();
        let mut tree = KdTree::build(3, pts).unwrap();
        let mut next = 10_000u64;
        for (x, y, z, insert) in script {
            if insert || all.is_empty() {
                let p = Point::new_unchecked(next, vec![x, y, z]);
                next += 1;
                all.push(p.clone());
                tree.insert(p).unwrap();
            } else {
                let idx = (x * all.len() as f64) as usize % all.len();
                let id = all.swap_remove(idx).id();
                tree.delete(id).unwrap();
            }
        }
        prop_assert_eq!(tree.len(), all.len());
        prop_assert_eq!(tree.top_k(&u, 8), brute_top_k(&all, &u, 8));
    }

    /// The query paths the engine drives stay exact across edit scripts
    /// that exercise the flat leaf blocks: deferred deletes compact
    /// packed coordinate rows in place and leave the boxes stale, the
    /// single `maybe_rebuild` decision repacks everything, and
    /// `above_threshold` (the requery walk, which per-op deletions run on
    /// stale trees between rebuilds), `top_k_many` and
    /// `top_k_approx_many` must agree with brute force throughout.
    #[test]
    fn kdtree_bulk_queries_survive_edit_scripts(
        pts in arb_points(3, 1..60),
        script in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, any::<bool>()), 0..80),
        us in prop::collection::vec(arb_utility(3), 1..6),
        k in 1usize..10,
        tau in 0.0f64..1.5,
    ) {
        let mut all = pts.clone();
        let mut tree = KdTree::build(3, pts).unwrap();
        let mut next = 10_000u64;
        for (x, y, z, insert) in script {
            if insert || all.is_empty() {
                let p = Point::new_unchecked(next, vec![x, y, z]);
                next += 1;
                all.push(p.clone());
                tree.insert(p).unwrap();
            } else {
                let idx = (x * all.len() as f64) as usize % all.len();
                let id = all.swap_remove(idx).id();
                tree.delete_deferred(id).unwrap();
            }
        }
        for u in &us {
            prop_assert_eq!(above_threshold_set(&tree, u, tau), brute_above(&all, u, tau));
        }
        tree.maybe_rebuild();
        prop_assert_eq!(tree.len(), all.len());
        let many = tree.top_k_many(us.iter(), k);
        for (u, got) in us.iter().zip(many) {
            prop_assert_eq!(got, brute_top_k(&all, u, k));
        }
        let eps = 0.1;
        for (u, (phi, omega)) in us.iter().zip(tree.top_k_approx_many(us.iter(), k, eps)) {
            if let Some(omega_k) = omega {
                let tau = (1.0 - eps) * omega_k;
                let want: usize = all.iter().filter(|p| u.score(p) >= tau).count();
                prop_assert_eq!(phi.len(), want);
            } else {
                prop_assert_eq!(phi.len(), all.len());
            }
        }
    }

    #[test]
    fn conetree_affected_equals_scan(
        dirs in prop::collection::vec(prop::collection::vec(0.05f64..=1.0, 3), 1..100),
        taus in prop::collection::vec(0.0f64..=1.6, 100),
        probe in prop::collection::vec(0.0f64..=1.0, 3),
    ) {
        let us: Vec<Utility> = dirs.into_iter().map(|w| Utility::new(w).unwrap()).collect();
        let n = us.len();
        let mut tree = ConeTree::build(us);
        for (i, tau) in taus.into_iter().take(n).enumerate() {
            tree.set_threshold(i, tau);
        }
        let p = Point::new_unchecked(0, probe);
        prop_assert_eq!(tree.affected_by(&p), tree.affected_by_scan(&p));
    }

    /// The batch probe over the packed leaf blocks after a bulk
    /// `set_thresholds` sweep agrees with brute-force scans: the union of
    /// the affected utilities, and per utility exactly the tuples that
    /// reach it.
    #[test]
    fn conetree_batch_affected_equals_scan_after_bulk_thresholds(
        dirs in prop::collection::vec(prop::collection::vec(0.05f64..=1.0, 3), 1..80),
        taus in prop::collection::vec(0.0f64..=1.6, 80),
        probes in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 3), 0..6),
    ) {
        let us: Vec<Utility> = dirs.into_iter().map(|w| Utility::new(w).unwrap()).collect();
        let n = us.len();
        let mut tree = ConeTree::build(us);
        tree.set_thresholds(taus.into_iter().take(n).enumerate());
        let pts: Vec<Point> = probes
            .into_iter()
            .enumerate()
            .map(|(i, c)| Point::new_unchecked(i as u64, c))
            .collect();
        let mut want: Vec<usize> = pts.iter().flat_map(|p| tree.affected_by_scan(p)).collect();
        want.sort_unstable();
        want.dedup();
        let many = tree.affected_hits_many(pts.iter());
        prop_assert_eq!(many.iter().map(|(m, _)| *m).collect::<Vec<_>>(), want);
        for (m, hits) in many {
            let from_scans: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| tree.affected_by_scan(p).contains(&m))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(hits, from_scans);
        }
    }
}
