//! Greedy-family baselines: GREEDY, GEOGREEDY, GREEDY*.

use crate::StaticRms;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rms_geom::Point;
use rms_lp::regret::{is_happy_point, max_regret_lp};

/// GREEDY for 1-RMS (Nanongkai et al., PVLDB 2010).
///
/// Starts from the tuple that is best for the "diagonal" utility and
/// repeatedly adds the *witness* tuple whose worst-case regret against the
/// current result is largest, computed exactly with one LP per candidate
/// per round. Terminates early when the maximum regret reaches zero.
#[derive(Debug, Clone, Default)]
pub struct Greedy;

impl Greedy {
    /// Shared greedy loop: restricted to `candidates` as both witnesses
    /// and additions.
    fn run(candidates: &[Point], r: usize) -> Vec<Point> {
        if candidates.is_empty() || r == 0 {
            return Vec::new();
        }
        // Seed with the best tuple for the all-ones direction (any fixed
        // direction works; the diagonal is the conventional choice).
        let seed = candidates
            .iter()
            .max_by(|a, b| {
                let sa: f64 = a.coords().iter().sum();
                let sb: f64 = b.coords().iter().sum();
                sa.partial_cmp(&sb)
                    .expect("finite")
                    .then_with(|| b.id().cmp(&a.id()))
            })
            .expect("nonempty");
        let mut q = vec![seed.clone()];
        while q.len() < r {
            let mut best: Option<(usize, f64)> = None;
            for (i, p) in candidates.iter().enumerate() {
                if q.iter().any(|s| s.id() == p.id()) {
                    continue;
                }
                let rr = max_regret_lp(p, &q);
                if best.is_none_or(|(_, b)| rr > b) {
                    best = Some((i, rr));
                }
            }
            match best {
                Some((i, rr)) if rr > 1e-9 => q.push(candidates[i].clone()),
                _ => break, // zero regret or no candidates left
            }
        }
        q
    }
}

impl StaticRms for Greedy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn supports_k(&self, k: usize) -> bool {
        k == 1
    }

    fn compute(&self, skyline: &[Point], _full: &[Point], _k: usize, r: usize) -> Vec<Point> {
        Self::run(skyline, r)
    }
}

/// GEOGREEDY for 1-RMS (Peng & Wong, ICDE 2014).
///
/// Identical greedy loop, but candidates are pruned to the *happy points*
/// — tuples that are top-1 for at least one utility vector, i.e. vertices
/// of the upper convex hull. Only happy points can ever be the max-regret
/// witness or reduce regret when added, so the pruning is lossless while
/// shrinking the per-round LP count. The original uses an explicit convex
/// hull; we decide the same predicate with one LP per tuple
/// (`rms_lp::regret::is_happy_point`), which needs no hull code and also
/// reproduces the original's poor scaling in `d` (the pruning step
/// itself becomes the bottleneck, cf. Fig. 8).
#[derive(Debug, Clone, Default)]
pub struct GeoGreedy;

impl StaticRms for GeoGreedy {
    fn name(&self) -> &'static str {
        "GeoGreedy"
    }

    fn supports_k(&self, k: usize) -> bool {
        k == 1
    }

    fn compute(&self, skyline: &[Point], _full: &[Point], _k: usize, r: usize) -> Vec<Point> {
        let happy: Vec<Point> = skyline
            .iter()
            .filter(|p| is_happy_point(p, skyline))
            .cloned()
            .collect();
        Greedy::run(&happy, r)
    }
}

/// GREEDY* for k-RMS (Chester et al., PVLDB 2014).
///
/// The exact k-regret greedy is intractable, so Chester et al. randomize:
/// sample a pool of utility vectors, and at each round add the top-1 tuple
/// of the sampled vector whose current k-regret ratio is worst. We follow
/// that scheme with a deterministic seed; the pool size trades accuracy
/// for the LP-free evaluation that makes `k > 1` feasible at all.
#[derive(Debug, Clone)]
pub struct GreedyStar {
    /// Number of sampled utility vectors.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GreedyStar {
    fn default() -> Self {
        Self {
            samples: 2000,
            seed: 0xC4E57E12,
        }
    }
}

impl StaticRms for GreedyStar {
    fn name(&self) -> &'static str {
        "Greedy*"
    }

    fn supports_k(&self, _k: usize) -> bool {
        true
    }

    fn compute(&self, _skyline: &[Point], full: &[Point], k: usize, r: usize) -> Vec<Point> {
        if full.is_empty() || r == 0 {
            return Vec::new();
        }
        let d = full[0].dim();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let utils = rms_geom::with_basis_prefix(&mut rng, d, self.samples.max(d));

        // Precompute ω_k(u, P) and the top-1 tuple per sampled utility.
        let mut omega_k = Vec::with_capacity(utils.len());
        let mut top1_idx = Vec::with_capacity(utils.len());
        for u in &utils {
            let ranked = rms_geom::top_k(full, u, k);
            omega_k.push(ranked.last().map_or(0.0, |r| r.score));
            let t1 = rms_geom::top1(full, u).expect("nonempty");
            top1_idx.push(full.iter().position(|p| p.id() == t1.id).expect("live"));
        }

        // best_q[u] = ω(u, Q), updated incrementally as Q grows.
        let mut best_q = vec![f64::NEG_INFINITY; utils.len()];
        let mut q: Vec<Point> = Vec::with_capacity(r);
        let mut in_q = std::collections::HashSet::new();
        while q.len() < r {
            // Worst sampled utility under the current Q.
            let mut worst: Option<(usize, f64)> = None;
            for (i, u) in utils.iter().enumerate() {
                let _ = u;
                let rr = if omega_k[i] <= 0.0 {
                    0.0
                } else {
                    (1.0 - best_q[i] / omega_k[i]).max(0.0)
                };
                if worst.is_none_or(|(_, w)| rr > w) {
                    worst = Some((i, rr));
                }
            }
            let Some((wi, rr)) = worst else { break };
            if rr <= 1e-12 {
                break;
            }
            let cand = &full[top1_idx[wi]];
            if !in_q.insert(cand.id()) {
                // The worst utility's top-1 is already chosen (its regret
                // is 0 by construction then) — numerical corner; stop.
                break;
            }
            q.push(cand.clone());
            for (i, u) in utils.iter().enumerate() {
                let s = u.score(cand);
                if s > best_q[i] {
                    best_q[i] = s;
                }
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_eval::RegretEstimator;
    use rms_skyline::skyline;

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

    fn random_db(seed: u64, n: usize, d: usize) -> Vec<Point> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
            .collect()
    }

    #[test]
    fn greedy_zero_regret_with_enough_budget() {
        let db = fig1();
        let sky = skyline(&db);
        // The upper hull has 3 vertices (p1, p2, p4): r = 3 suffices for
        // zero 1-regret.
        let q = Greedy.compute(&sky, &db, 1, 3);
        let est = RegretEstimator::new(2, 10_000, 3);
        assert!(est.mrr(&db, &q, 1) < 1e-6);
    }

    #[test]
    fn greedy_result_shrinks_regret_monotonically() {
        let db = random_db(5, 200, 3);
        let sky = skyline(&db);
        let est = RegretEstimator::new(3, 5_000, 1);
        let mut prev = 1.0;
        for r in [3, 6, 12] {
            let q = Greedy.compute(&sky, &db, 1, r);
            assert!(q.len() <= r);
            let mrr = est.mrr(&db, &q, 1);
            assert!(mrr <= prev + 1e-9, "r={r}: {mrr} > {prev}");
            prev = mrr;
        }
    }

    #[test]
    fn geogreedy_matches_greedy_quality() {
        let db = random_db(7, 150, 3);
        let sky = skyline(&db);
        let est = RegretEstimator::new(3, 5_000, 2);
        let qg = Greedy.compute(&sky, &db, 1, 8);
        let qgeo = GeoGreedy.compute(&sky, &db, 1, 8);
        let mg = est.mrr(&db, &qg, 1);
        let mgeo = est.mrr(&db, &qgeo, 1);
        // Happy-point pruning is lossless for 1-RMS greedy.
        assert!((mg - mgeo).abs() < 0.02, "Greedy {mg} vs GeoGreedy {mgeo}");
    }

    #[test]
    fn geogreedy_prunes_non_vertices() {
        let db = fig1();
        let sky = skyline(&db);
        let q = GeoGreedy.compute(&sky, &db, 1, 5);
        // Only 3 hull vertices exist; the result cannot exceed them.
        assert!(q.len() <= 3);
        for p in &q {
            assert!([1u64, 2, 4].contains(&p.id()), "non-vertex {}", p.id());
        }
    }

    #[test]
    fn greedy_star_handles_k_above_one() {
        let db = random_db(9, 200, 3);
        let sky = skyline(&db);
        let est = RegretEstimator::new(3, 5_000, 4);
        let algo = GreedyStar {
            samples: 500,
            seed: 1,
        };
        for k in [1, 2, 4] {
            let q = algo.compute(&sky, &db, k, 10);
            assert!(q.len() <= 10, "k={k}");
            let mrr = est.mrr(&db, &q, k);
            assert!(mrr < 0.25, "k={k}: mrr {mrr}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(Greedy.compute(&[], &[], 1, 5).is_empty());
        assert!(GeoGreedy.compute(&[], &[], 1, 5).is_empty());
        assert!(GreedyStar::default().compute(&[], &[], 2, 5).is_empty());
        let one = vec![Point::new_unchecked(0, vec![0.5, 0.5])];
        assert_eq!(Greedy.compute(&one, &one, 1, 3).len(), 1);
        assert!(Greedy.compute(&one, &one, 1, 0).is_empty());
    }

    #[test]
    fn supports_k_flags() {
        assert!(Greedy.supports_k(1) && !Greedy.supports_k(2));
        assert!(GeoGreedy.supports_k(1) && !GeoGreedy.supports_k(3));
        assert!(GreedyStar::default().supports_k(5));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Greedy.name(),
            GeoGreedy.name(),
            GreedyStar::default().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
