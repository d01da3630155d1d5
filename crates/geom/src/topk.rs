//! Brute-force top-k scoring over a set of points.
//!
//! These are the *reference* implementations of `Φ_k(u, P)`,
//! `Φ_{k,ε}(u, P)`, `ω_k(u, P)` (Section II-A). The index crate provides
//! faster equivalents; every index test compares against these.

use crate::point::{Point, PointId};
use crate::utility::Utility;

/// A point together with its score under some utility vector.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPoint {
    /// Tuple identifier.
    pub id: PointId,
    /// Score `⟨u, p⟩`.
    pub score: f64,
}

/// Orders by descending score, breaking ties by ascending id (the
/// workspace-wide consistent tie-breaking rule).
#[inline]
pub fn rank_cmp(a: &RankedPoint, b: &RankedPoint) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("scores are finite")
        .then_with(|| a.id.cmp(&b.id))
}

/// The top-k tuples `Φ_k(u, P)` in descending score order.
///
/// Returns fewer than `k` entries when `|P| < k`.
pub fn top_k(points: &[Point], u: &Utility, k: usize) -> Vec<RankedPoint> {
    let mut ranked: Vec<RankedPoint> = points
        .iter()
        .map(|p| RankedPoint {
            id: p.id(),
            score: u.score(p),
        })
        .collect();
    let k = k.min(ranked.len());
    if k == 0 {
        return Vec::new();
    }
    ranked.select_nth_unstable_by(k - 1, rank_cmp);
    ranked.truncate(k);
    ranked.sort_unstable_by(rank_cmp);
    ranked
}

/// The top-1 tuple `ϕ(u, P)` and its score `ω(u, P)`, or `None` on empty
/// input.
pub fn top1(points: &[Point], u: &Utility) -> Option<RankedPoint> {
    points
        .iter()
        .map(|p| RankedPoint {
            id: p.id(),
            score: u.score(p),
        })
        .min_by(rank_cmp)
}

/// The k-th largest score `ω_k(u, P)`; `None` when `|P| < k` or `k == 0`.
pub fn kth_score(points: &[Point], u: &Utility, k: usize) -> Option<f64> {
    if k == 0 || points.len() < k {
        return None;
    }
    Some(top_k(points, u, k)[k - 1].score)
}

/// The ε-approximate top-k set `Φ_{k,ε}(u, P) = {p : ⟨u,p⟩ ≥ (1−ε)·ω_k}`,
/// in descending score order.
///
/// Every member of the exact top-k is always included (their scores are
/// `≥ ω_k ≥ (1−ε)·ω_k`). When `|P| ≤ k` all points qualify.
pub fn top_k_approx(points: &[Point], u: &Utility, k: usize, eps: f64) -> Vec<RankedPoint> {
    debug_assert!((0.0..1.0).contains(&eps));
    let Some(omega_k) = kth_score(points, u, k.min(points.len().max(1))) else {
        return top_k(points, u, points.len());
    };
    let threshold = (1.0 - eps) * omega_k;
    let mut out: Vec<RankedPoint> = points
        .iter()
        .filter_map(|p| {
            let score = u.score(p);
            (score >= threshold).then_some(RankedPoint { id: p.id(), score })
        })
        .collect();
    out.sort_unstable_by(rank_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 8-tuple example database of Fig. 1.
    fn fig1() -> Vec<Point> {
        let rows = [
            (1, 0.2, 1.0),
            (2, 0.6, 0.8),
            (3, 0.7, 0.5),
            (4, 1.0, 0.1),
            (5, 0.4, 0.3),
            (6, 0.2, 0.7),
            (7, 0.3, 0.9),
            (8, 0.6, 0.6),
        ];
        rows.iter()
            .map(|&(id, x, y)| Point::new_unchecked(id, vec![x, y]))
            .collect()
    }

    #[test]
    fn paper_example_top2() {
        let db = fig1();
        // Example 1: Φ2(u1, P) = {p1, p2} for u1 = (0.42, 0.91).
        let u1 = Utility::new(vec![0.42, 0.91]).unwrap();
        let ids: Vec<_> = top_k(&db, &u1, 2).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2]);
        // Φ2(u2, P) = {p2, p4} for u2 = (0.91, 0.42).
        let u2 = Utility::new(vec![0.91, 0.42]).unwrap();
        let ids: Vec<_> = top_k(&db, &u2, 2).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 2]);
    }

    #[test]
    fn top1_and_kth_score_agree_with_topk() {
        let db = fig1();
        let u = Utility::new(vec![0.5, 0.5]).unwrap();
        let t = top_k(&db, &u, 3);
        assert_eq!(top1(&db, &u).unwrap(), t[0]);
        assert_eq!(kth_score(&db, &u, 3).unwrap(), t[2].score);
    }

    #[test]
    fn boundary_conditions() {
        let db = fig1();
        let u = Utility::new(vec![1.0, 1.0]).unwrap();
        assert!(top_k(&db, &u, 0).is_empty());
        assert_eq!(top_k(&db, &u, 100).len(), db.len());
        assert!(top1(&[], &u).is_none());
        assert!(kth_score(&db, &u, 0).is_none());
        assert!(kth_score(&db, &u, 9).is_none());
        assert_eq!(top_k_approx(&[], &u, 2, 0.1).len(), 0);
    }

    #[test]
    fn approx_contains_exact_topk() {
        let db = fig1();
        for eps in [0.0, 0.05, 0.3] {
            for kk in 1..=4usize {
                let u = Utility::new(vec![0.7, 0.3]).unwrap();
                let exact: Vec<_> = top_k(&db, &u, kk).iter().map(|r| r.id).collect();
                let approx: Vec<_> = top_k_approx(&db, &u, kk, eps)
                    .iter()
                    .map(|r| r.id)
                    .collect();
                for id in &exact {
                    assert!(approx.contains(id), "eps={eps} k={kk}");
                }
                assert!(approx.len() >= exact.len());
            }
        }
    }

    #[test]
    fn approx_threshold_is_respected() {
        let db = fig1();
        let u = Utility::new(vec![0.42, 0.91]).unwrap();
        let k = 2;
        let eps = 0.1;
        let omega_k = kth_score(&db, &u, k).unwrap();
        for r in top_k_approx(&db, &u, k, eps) {
            assert!(r.score >= (1.0 - eps) * omega_k - 1e-12);
        }
    }

    #[test]
    fn ties_break_by_id() {
        let db = vec![
            Point::new_unchecked(5, vec![0.5, 0.5]),
            Point::new_unchecked(2, vec![0.5, 0.5]),
            Point::new_unchecked(9, vec![0.5, 0.5]),
        ];
        let u = Utility::new(vec![1.0, 1.0]).unwrap();
        let ids: Vec<_> = top_k(&db, &u, 3).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(top1(&db, &u).unwrap().id, 2);
    }
}
