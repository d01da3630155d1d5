//! ε-kernel-based baselines: EPS-KERNEL and SPHERE.

use crate::StaticRms;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rms_geom::{with_basis_prefix, Point, Utility};

/// Per-direction extreme-tuple collection: for each direction, take the
/// top-k tuples; the union (deduplicated) is a coreset approximating all
/// directional extrema — the practical ε-kernel construction of Agarwal
/// et al. (the direction count plays the role of `1/δ^{(d−1)/2}`).
fn directional_coreset(full: &[Point], dirs: &[Utility], k: usize) -> Vec<Point> {
    let mut picked: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for u in dirs {
        for rp in rms_geom::top_k(full, u, k) {
            picked.insert(rp.id);
        }
    }
    full.iter()
        .filter(|p| picked.contains(&p.id()))
        .cloned()
        .collect()
}

/// ε-KERNEL (Agarwal et al. [2]; used for k-RMS in [3], [10], [19]).
///
/// The min-size formulation returns the smallest coreset whose maximum
/// k-regret is at most ε; following Section IV-A we adapt it to the
/// size-budget formulation by binary searching the direction count (a
/// monotone proxy for 1/ε) so the coreset size is as large as possible
/// without exceeding `r`.
#[derive(Debug, Clone)]
pub struct EpsKernel {
    /// Maximum number of sampled directions tried by the binary search.
    pub max_directions: usize,
    /// RNG seed for direction sampling.
    pub seed: u64,
}

impl Default for EpsKernel {
    fn default() -> Self {
        Self {
            max_directions: 4096,
            seed: 0xE9,
        }
    }
}

impl StaticRms for EpsKernel {
    fn name(&self) -> &'static str {
        "eps-Kernel"
    }

    fn supports_k(&self, _k: usize) -> bool {
        true
    }

    fn compute(&self, skyline: &[Point], full: &[Point], k: usize, r: usize) -> Vec<Point> {
        // For k = 1 the kernel can be built on the skyline; k > 1 needs
        // the full database (the paper notes this cost in Fig. 7).
        let base = if k == 1 { skyline } else { full };
        if base.is_empty() || r == 0 {
            return Vec::new();
        }
        let d = base[0].dim();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pool = with_basis_prefix(&mut rng, d, self.max_directions.max(d));
        // Binary search the largest direction count whose coreset fits r.
        let (mut lo, mut hi) = (1usize, pool.len());
        let mut best: Vec<Point> = directional_coreset(base, &pool[..d.min(pool.len())], k)
            .into_iter()
            .take(r)
            .collect();
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let coreset = directional_coreset(base, &pool[..mid], k);
            if coreset.len() <= r {
                best = coreset;
                lo = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
        best
    }
}

/// SPHERE (Xie et al., SIGMOD 2018): "a combination of ε-kernel and
/// GREEDY" for 1-RMS with a restriction-free bound.
///
/// Construction: the `d` basis-direction extremes are always kept; the
/// remaining budget is filled with the extreme tuples of `r − d`
/// well-spread directions (farthest-point sampling on the direction pool
/// stands in for the original's structured sphere partition — both
/// spread the directions evenly over the sphere), then deduplicated and
/// topped up greedily on the worst uncovered sampled direction.
#[derive(Debug, Clone)]
pub struct Sphere {
    /// Size of the direction pool.
    pub pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Sphere {
    fn default() -> Self {
        Self {
            pool: 2000,
            seed: 0x5B,
        }
    }
}

impl StaticRms for Sphere {
    fn name(&self) -> &'static str {
        "Sphere"
    }

    fn supports_k(&self, k: usize) -> bool {
        k == 1
    }

    fn compute(&self, skyline: &[Point], _full: &[Point], _k: usize, r: usize) -> Vec<Point> {
        if skyline.is_empty() || r == 0 {
            return Vec::new();
        }
        let d = skyline[0].dim();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pool = with_basis_prefix(&mut rng, d, self.pool.max(d));

        let mut chosen: Vec<Point> = Vec::with_capacity(r);
        let mut chosen_ids = std::collections::HashSet::new();
        let add = |p: &Point, chosen: &mut Vec<Point>, ids: &mut std::collections::HashSet<u64>| {
            if chosen.len() < r && ids.insert(p.id()) {
                chosen.push(p.clone());
            }
        };

        // 1. Basis extremes.
        for u in pool.iter().take(d) {
            if let Some(t) = rms_geom::top1(skyline, u) {
                let p = skyline.iter().find(|p| p.id() == t.id).expect("live");
                add(p, &mut chosen, &mut chosen_ids);
            }
        }

        // 2. Farthest-point-sampled directions fill the budget.
        let mut picked_dirs: Vec<usize> = vec![0];
        while chosen.len() < r && picked_dirs.len() < pool.len() {
            // Farthest direction from everything picked so far.
            let next = (0..pool.len())
                .filter(|i| !picked_dirs.contains(i))
                .max_by(|&a, &b| {
                    let da = picked_dirs
                        .iter()
                        .map(|&p| pool[a].distance(&pool[p]))
                        .fold(f64::INFINITY, f64::min);
                    let db = picked_dirs
                        .iter()
                        .map(|&p| pool[b].distance(&pool[p]))
                        .fold(f64::INFINITY, f64::min);
                    da.partial_cmp(&db).expect("finite")
                });
            let Some(next) = next else { break };
            picked_dirs.push(next);
            if let Some(t) = rms_geom::top1(skyline, &pool[next]) {
                let p = skyline.iter().find(|p| p.id() == t.id).expect("live");
                add(p, &mut chosen, &mut chosen_ids);
            }
        }

        // 3. Greedy top-up on the worst sampled direction (the GREEDY
        // ingredient of SPHERE).
        while chosen.len() < r {
            let mut worst: Option<(&Utility, f64)> = None;
            for u in &pool {
                let omega = rms_geom::top1(skyline, u).map_or(0.0, |t| t.score);
                let best_q = chosen
                    .iter()
                    .map(|p| u.score(p))
                    .fold(f64::NEG_INFINITY, f64::max);
                let rr = if omega <= 0.0 {
                    0.0
                } else {
                    (1.0 - best_q / omega).max(0.0)
                };
                if worst.is_none_or(|(_, w)| rr > w) {
                    worst = Some((u, rr));
                }
            }
            match worst {
                Some((u, rr)) if rr > 1e-12 => {
                    let t = rms_geom::top1(skyline, u).expect("nonempty");
                    let p = skyline.iter().find(|p| p.id() == t.id).expect("live");
                    if chosen_ids.insert(p.id()) {
                        chosen.push(p.clone());
                    } else {
                        break; // already chosen ⇒ regret is stale-zero
                    }
                }
                _ => break,
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_eval::RegretEstimator;
    use rms_skyline::skyline;

    fn random_db(seed: u64, n: usize, d: usize) -> Vec<Point> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
            .collect()
    }

    #[test]
    fn kernel_fits_budget_and_has_quality() {
        let db = random_db(1, 300, 4);
        let sky = skyline(&db);
        let est = RegretEstimator::new(4, 5_000, 3);
        for r in [8, 16, 32] {
            let q = EpsKernel::default().compute(&sky, &db, 1, r);
            assert!(q.len() <= r, "r={r}, got {}", q.len());
            let mrr = est.mrr(&db, &q, 1);
            assert!(mrr < 0.4, "r={r}: mrr {mrr}");
        }
    }

    #[test]
    fn kernel_supports_k() {
        let db = random_db(2, 200, 3);
        let sky = skyline(&db);
        let q = EpsKernel::default().compute(&sky, &db, 3, 12);
        assert!(q.len() <= 12);
        let est = RegretEstimator::new(3, 5_000, 3);
        assert!(est.mrr(&db, &q, 3) < 0.3);
    }

    #[test]
    fn kernel_larger_budget_not_worse() {
        let db = random_db(3, 250, 3);
        let sky = skyline(&db);
        let est = RegretEstimator::new(3, 5_000, 3);
        let small = est.mrr(&db, &EpsKernel::default().compute(&sky, &db, 1, 5), 1);
        let large = est.mrr(&db, &EpsKernel::default().compute(&sky, &db, 1, 30), 1);
        assert!(large <= small + 0.02, "{large} > {small}");
    }

    #[test]
    fn sphere_includes_basis_extremes() {
        let db = random_db(4, 200, 3);
        let sky = skyline(&db);
        let q = Sphere::default().compute(&sky, &db, 1, 10);
        assert!(q.len() <= 10);
        // Each basis direction's best tuple must be in Q.
        for i in 0..3 {
            let u = Utility::basis(3, i);
            let best = rms_geom::top1(&sky, &u).unwrap();
            assert!(
                q.iter().any(|p| p.id() == best.id),
                "basis extreme {i} missing"
            );
        }
    }

    #[test]
    fn sphere_quality_close_to_greedy() {
        let db = random_db(5, 200, 3);
        let sky = skyline(&db);
        let est = RegretEstimator::new(3, 5_000, 6);
        let qs = Sphere::default().compute(&sky, &db, 1, 12);
        let mrr = est.mrr(&db, &qs, 1);
        assert!(mrr < 0.12, "Sphere mrr {mrr}");
    }

    #[test]
    fn empty_and_edge() {
        assert!(EpsKernel::default().compute(&[], &[], 1, 5).is_empty());
        assert!(Sphere::default().compute(&[], &[], 1, 5).is_empty());
        let one = vec![Point::new_unchecked(0, vec![0.4, 0.6])];
        assert_eq!(Sphere::default().compute(&one, &one, 1, 4).len(), 1);
        assert_eq!(EpsKernel::default().compute(&one, &one, 1, 4).len(), 1);
    }
}
