//! Property-based tests: index queries always agree with brute force.
//!
//! Every property draws its dimensionality `d` from `1..=9`: both indexes
//! store rows lane-blocked, and the block stride depends on `d`.
//! Coordinates and weights are drawn nine wide and cut to `d`.

use proptest::prelude::*;
use rms_geom::{top_k as brute_top_k, Point, Utility};
use rms_index::{ConeTree, KdTree};
use std::collections::BTreeSet;

/// Largest dimensionality drawn.
const MAX_D: usize = 9;

fn arb_dim() -> impl Strategy<Value = usize> {
    1usize..=MAX_D
}

fn arb_rows(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..=1.0, MAX_D), n)
}

fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..=1.0, MAX_D)
}

/// Edit-script steps: a tuple's coordinates and whether to insert it (a
/// deletion picks its victim from the first coordinate).
fn arb_script(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(Vec<f64>, bool)>> {
    prop::collection::vec(
        (prop::collection::vec(0.0f64..=1.0, MAX_D), any::<bool>()),
        n,
    )
}

/// Points `0, 1, …` with each row cut to `d` coordinates.
fn points(rows: &[Vec<f64>], d: usize) -> Vec<Point> {
    rows.iter()
        .enumerate()
        .map(|(i, c)| Point::new_unchecked(i as u64, c[..d].to_vec()))
        .collect()
}

fn utility(w: &[f64], d: usize) -> Utility {
    Utility::new(w[..d].to_vec()).unwrap()
}

/// Runs an edit script against the tree and the model `all`: inserts get
/// fresh ids from 10 000 on, deletions go through `delete` (with its
/// per-call rebuild decision) or `delete_deferred`.
fn run_script(
    tree: &mut KdTree,
    all: &mut Vec<Point>,
    script: Vec<(Vec<f64>, bool)>,
    d: usize,
    deferred: bool,
) {
    let mut next = 10_000u64;
    for (c, insert) in script {
        if insert || all.is_empty() {
            let p = Point::new_unchecked(next, c[..d].to_vec());
            next += 1;
            all.push(p.clone());
            tree.insert(p).unwrap();
        } else {
            let idx = (c[0] * all.len() as f64) as usize % all.len();
            let id = all.swap_remove(idx).id();
            if deferred {
                tree.delete_deferred(id).unwrap();
            } else {
                tree.delete(id).unwrap();
            }
        }
    }
}

/// Points as (id, coordinate bits), sorted by id: `KdTree::points` has
/// no specified order.
fn point_bits(pts: &[Point]) -> Vec<(u64, Vec<u64>)> {
    let mut out: Vec<(u64, Vec<u64>)> = pts
        .iter()
        .map(|p| (p.id(), p.coords().iter().map(|c| c.to_bits()).collect()))
        .collect();
    out.sort_unstable();
    out
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
        d in arb_dim(),
        rows in arb_rows(1..120),
        w in arb_weights(),
        k in 1usize..12,
    ) {
        let pts = points(&rows, d);
        let u = utility(&w, d);
        let tree = KdTree::build(d, pts.clone()).unwrap();
        prop_assert_eq!(tree.top_k(&u, k), brute_top_k(&pts, &u, k));
    }

    #[test]
    fn kdtree_threshold_equals_filter(
        d in arb_dim(),
        rows in arb_rows(1..80),
        w in arb_weights(),
        tau in 0.0f64..3.0,
    ) {
        let pts = points(&rows, d);
        let u = utility(&w, d);
        let tree = KdTree::build(d, pts.clone()).unwrap();
        prop_assert_eq!(above_threshold_set(&tree, &u, tau), brute_above(&pts, &u, tau));
    }

    #[test]
    fn kdtree_survives_edit_scripts(
        d in arb_dim(),
        rows in arb_rows(1..60),
        script in arb_script(0..60),
        w in arb_weights(),
    ) {
        let mut all = points(&rows, d);
        let mut tree = KdTree::build(d, all.clone()).unwrap();
        run_script(&mut tree, &mut all, script, d, false);
        prop_assert_eq!(tree.len(), all.len());
        prop_assert_eq!(point_bits(&tree.points()), point_bits(&all));
        let u = utility(&w, d);
        prop_assert_eq!(tree.top_k(&u, 8), brute_top_k(&all, &u, 8));
    }

    /// The query paths the engine drives stay exact across edit scripts
    /// that exercise the lane-blocked leaves: deferred deletes swap-remove
    /// rows across lane-block boundaries and leave the boxes stale, the
    /// single `maybe_rebuild` decision repacks everything, and
    /// `above_threshold` (the requery walk, which per-op deletions run on
    /// stale trees between rebuilds), `top_k_many` and
    /// `top_k_approx_many` must agree with brute force throughout.
    #[test]
    fn kdtree_bulk_queries_survive_edit_scripts(
        d in arb_dim(),
        rows in arb_rows(1..60),
        script in arb_script(0..80),
        ws in prop::collection::vec(arb_weights(), 1..6),
        k in 1usize..10,
        tau in 0.0f64..2.0,
    ) {
        let mut all = points(&rows, d);
        let mut tree = KdTree::build(d, all.clone()).unwrap();
        run_script(&mut tree, &mut all, script, d, true);
        prop_assert_eq!(point_bits(&tree.points()), point_bits(&all));
        let us: Vec<Utility> = ws.iter().map(|w| utility(w, d)).collect();
        for u in &us {
            prop_assert_eq!(above_threshold_set(&tree, u, tau), brute_above(&all, u, tau));
        }
        tree.maybe_rebuild();
        prop_assert_eq!(tree.len(), all.len());
        prop_assert_eq!(point_bits(&tree.points()), point_bits(&all));
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
        d in arb_dim(),
        dirs in prop::collection::vec(arb_weights(), 1..100),
        taus in prop::collection::vec(0.0f64..=1.6, 100),
        probe in prop::collection::vec(0.0f64..=1.0, MAX_D),
    ) {
        let us: Vec<Utility> = dirs.iter().map(|w| utility(w, d)).collect();
        let n = us.len();
        let mut tree = ConeTree::build(us);
        for (i, tau) in taus.into_iter().take(n).enumerate() {
            tree.set_threshold(i, tau);
        }
        let p = Point::new_unchecked(0, probe[..d].to_vec());
        prop_assert_eq!(tree.affected_by(&p), tree.affected_by_scan(&p));
    }

    /// The batch probe after a bulk `set_thresholds` write agrees with
    /// brute-force scans: the union of the affected utilities, and per
    /// utility exactly the tuples that reach it.
    #[test]
    fn conetree_batch_affected_equals_scan_after_bulk_thresholds(
        d in arb_dim(),
        dirs in prop::collection::vec(arb_weights(), 1..80),
        taus in prop::collection::vec(0.0f64..=1.6, 80),
        probes in arb_rows(0..6),
    ) {
        let us: Vec<Utility> = dirs.iter().map(|w| utility(w, d)).collect();
        let n = us.len();
        let mut tree = ConeTree::build(us);
        tree.set_thresholds(taus.into_iter().take(n).enumerate());
        let pts = points(&probes, d);
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
