//! Monte-Carlo estimation of the maximum k-regret ratio.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rms_geom::{Point, Utility};

/// A reusable test set of utility vectors for estimating `mrr_k`.
///
/// The paper draws 500 K vectors once per experiment and reports the
/// maximum regret found. Reusing one estimator across all algorithms in a
/// comparison guarantees they face the same test directions.
#[derive(Debug, Clone)]
pub struct RegretEstimator {
    utilities: Vec<Utility>,
}

impl RegretEstimator {
    /// Samples `count` utility vectors of dimension `d` from the given
    /// seed. The standard basis is always included so coordinate-extreme
    /// regret is never missed.
    pub fn new(d: usize, count: usize, seed: u64) -> Self {
        assert!(count >= d, "need at least d test vectors");
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            utilities: rms_geom::with_basis_prefix(&mut rng, d, count),
        }
    }

    /// Number of test vectors.
    pub fn len(&self) -> usize {
        self.utilities.len()
    }

    /// Whether the pool is empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.utilities.is_empty()
    }

    /// Estimates `mrr_k(Q)` over the database `points`.
    ///
    /// For each test vector `u` the k-regret ratio is
    /// `max(0, 1 − ω(u, Q) / ω_k(u, P))`; the estimate is the maximum over
    /// the pool. Returns 0 for an empty database and 1 for an empty `Q`
    /// on a nonempty database.
    pub fn mrr(&self, points: &[Point], q: &[Point], k: usize) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        if q.is_empty() {
            return 1.0;
        }
        let k = k.max(1);
        let mut worst = 0.0f64;
        for u in &self.utilities {
            let rr = regret_ratio(points, q, u, k);
            if rr > worst {
                worst = rr;
            }
        }
        worst
    }
}

/// The k-regret ratio of `q` over `points` for a single utility vector.
fn regret_ratio(points: &[Point], q: &[Point], u: &Utility, k: usize) -> f64 {
    // ω_k(u, P): kth largest score (or smallest when |P| < k).
    let omega_k = kth_largest_score(points, u, k);
    if omega_k <= 0.0 {
        return 0.0;
    }
    let best_q = q
        .iter()
        .map(|p| u.score(p))
        .fold(f64::NEG_INFINITY, f64::max);
    (1.0 - best_q / omega_k).max(0.0)
}

/// kth largest score without materialising a full sort: a small binary
/// min-heap of the k best.
fn kth_largest_score(points: &[Point], u: &Utility, k: usize) -> f64 {
    let k = k.min(points.len());
    let mut heap = std::collections::BinaryHeap::with_capacity(k + 1);
    for p in points {
        let s = u.score(p);
        heap.push(std::cmp::Reverse(OrdF64(s)));
        if heap.len() > k {
            heap.pop();
        }
    }
    heap.pop()
        .map(|std::cmp::Reverse(OrdF64(s))| s)
        .unwrap_or(0.0)
}

/// Total order wrapper for finite scores.
#[derive(PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite scores")
    }
}

/// One-shot convenience wrapper around [`RegretEstimator::mrr`] with a
/// fresh test set.
pub fn max_regret_ratio(
    points: &[Point],
    q: &[Point],
    k: usize,
    test_vectors: usize,
    seed: u64,
) -> f64 {
    let d = match points.first() {
        Some(p) => p.dim(),
        None => return 0.0,
    };
    RegretEstimator::new(d, test_vectors.max(d), seed).mrr(points, q, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Vec<Point> {
        [
            (1, 0.2, 1.0),
            (2, 0.6, 0.8),
            (3, 0.7, 0.5),
            (4, 1.0, 0.1),
            (5, 0.4, 0.3),
            (6, 0.2, 0.7),
            (7, 0.3, 0.9),
            (8, 0.6, 0.6),
        ]
        .iter()
        .map(|&(id, x, y)| Point::new_unchecked(id, vec![x, y]))
        .collect()
    }

    #[test]
    fn paper_example_mrr2_of_q1() {
        // Example 1: mrr_2(Q1 = {p3, p4}) ≈ 0.444 attained at u = (0, 1):
        // ω_2(u, P) = 0.9 (p7), ω(u, Q1) = 0.5 ⇒ 1 − 0.5/0.9 ≈ 0.444.
        let db = fig1();
        let q1 = vec![db[2].clone(), db[3].clone()];
        let est = RegretEstimator::new(2, 20_000, 7);
        let mrr = est.mrr(&db, &q1, 2);
        assert!((mrr - 0.444).abs() < 0.01, "mrr {mrr}");
    }

    #[test]
    fn paper_example_zero_regret() {
        // Example 1: Q2 = {p1, p2, p4} is a (2, 0)-regret set.
        let db = fig1();
        let q2 = vec![db[0].clone(), db[1].clone(), db[3].clone()];
        let est = RegretEstimator::new(2, 20_000, 7);
        assert!(est.mrr(&db, &q2, 2) < 1e-9);
    }

    #[test]
    fn paper_example_rms22_optimum() {
        // Example 2: Q* = {p1, p4} for RMS(2,2) with mrr_2 ≈ 0.05.
        let db = fig1();
        let q = vec![db[0].clone(), db[3].clone()];
        let est = RegretEstimator::new(2, 50_000, 7);
        let mrr = est.mrr(&db, &q, 2);
        assert!((mrr - 0.05).abs() < 0.015, "mrr {mrr}");
    }

    #[test]
    fn mrr_decreases_with_k() {
        let db = fig1();
        let q = vec![db[3].clone()];
        let est = RegretEstimator::new(2, 5_000, 3);
        let m1 = est.mrr(&db, &q, 1);
        let m3 = est.mrr(&db, &q, 3);
        assert!(m3 <= m1 + 1e-12);
    }

    #[test]
    fn edge_cases() {
        let est = RegretEstimator::new(2, 100, 1);
        let db = fig1();
        assert_eq!(est.mrr(&[], &db, 1), 0.0);
        assert_eq!(est.mrr(&db, &[], 1), 1.0);
        // Q = P gives zero regret for any k.
        assert!(est.mrr(&db, &db, 1) < 1e-12);
    }

    #[test]
    fn estimator_is_deterministic() {
        let db = fig1();
        let q = vec![db[1].clone()];
        let a = RegretEstimator::new(2, 1000, 5).mrr(&db, &q, 1);
        let b = RegretEstimator::new(2, 1000, 5).mrr(&db, &q, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn one_shot_wrapper() {
        let db = fig1();
        let q = vec![db[0].clone(), db[3].clone()];
        let v = max_regret_ratio(&db, &q, 1, 2000, 11);
        assert!((0.0..=1.0).contains(&v));
        assert_eq!(max_regret_ratio(&[], &q, 1, 100, 0), 0.0);
    }

    #[test]
    fn more_vectors_never_lower_the_estimate() {
        // A superset pool can only find worse (or equal) regret.
        let db = fig1();
        let q = vec![db[2].clone()];
        let small = RegretEstimator::new(2, 500, 9).mrr(&db, &q, 1);
        let big = RegretEstimator::new(2, 5_000, 9).mrr(&db, &q, 1);
        // Different seeds of sample_utilities share the basis prefix; the
        // larger pool is not a strict superset, so allow tiny slack.
        assert!(big >= small - 0.02);
    }
}
