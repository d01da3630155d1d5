//! The utility index UI: every utility's threshold test, scanned in lane
//! blocks.
//!
//! FD-RMS maintains the ε-approximate top-k of `M` fixed utility vectors.
//! When a tuple `p` is inserted, the vectors whose result changes are
//! exactly those with `⟨u, p⟩ ≥ τ_u`, where `τ_u = (1 − ε)·ω_k(u, P)` is
//! the per-vector admission threshold. The paper finds them with a cone
//! tree (Ram & Gray, KDD 2012), which prunes clusters of vectors by a
//! maximum-inner-product bound; the algorithm only needs the exact set.
//! At the dimensionalities FD-RMS runs at the bound prunes little, so this
//! index scans all `M` weight vectors instead, eight utilities per packed
//! multiply-add: the weights live in one lane-blocked
//! [`RowBlock`](crate::kernels::RowBlock) and the thresholds in a flat
//! array padded to whole blocks.
//!
//! The type keeps the name [`ConeTree`]: it is the paper's utility index
//! UI, and the engine and the benchmark address it by that name.

use crate::kernels::{sweep, RowBlock, LANES};
use rms_geom::{Point, Utility};

/// The utility index: a fixed pool of utility vectors with per-vector
/// thresholds, answering which vectors a tuple reaches.
#[derive(Debug, Clone)]
pub struct ConeTree {
    utilities: Vec<Utility>,
    /// The utility weights, lane-blocked. Padding lanes hold weight `0`.
    weights: RowBlock,
    /// Per-utility thresholds, padded to whole lane blocks with `+∞`, so
    /// a padding lane (score `0`) never reports, even when every real
    /// threshold is `0`.
    thresholds: Vec<f64>,
}

impl ConeTree {
    /// Builds the index over `utilities` with all thresholds set to
    /// `+∞` (no vector reports as affected until its threshold is set).
    ///
    /// Panics when `utilities` is empty or dimensionalities disagree.
    pub fn build(utilities: Vec<Utility>) -> Self {
        assert!(!utilities.is_empty(), "cone tree needs at least one vector");
        let d = utilities[0].dim();
        assert!(
            utilities.iter().all(|u| u.dim() == d),
            "mixed dimensionality"
        );
        let mut weights = RowBlock::new(d);
        for u in &utilities {
            weights.push(u.weights());
        }
        Self {
            thresholds: vec![f64::INFINITY; utilities.len().div_ceil(LANES) * LANES],
            utilities,
            weights,
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.utilities.len()
    }

    /// `true` when the pool is empty (cannot happen post-build).
    pub fn is_empty(&self) -> bool {
        self.utilities.is_empty()
    }

    /// The utility vector at `idx`.
    pub fn utility(&self, idx: usize) -> &Utility {
        &self.utilities[idx]
    }

    /// Panics unless `idx` names one of the `M` vectors: the threshold
    /// array runs on into the padding lanes.
    #[inline]
    fn check(&self, idx: usize) {
        assert!(
            idx < self.len(),
            "utility {idx} out of range (M = {})",
            self.len()
        );
    }

    /// The current threshold of vector `idx`.
    pub fn threshold(&self, idx: usize) -> f64 {
        self.check(idx);
        self.thresholds[idx]
    }

    /// Sets the threshold of vector `idx`. Panics when `idx ≥ M`.
    pub fn set_threshold(&mut self, idx: usize, tau: f64) {
        self.check(idx);
        self.thresholds[idx] = tau;
    }

    /// Sets many thresholds at once. Used by the batch update engine,
    /// which rewrites the thresholds of every affected utility once per
    /// batch. Panics when an index is `≥ M`.
    pub fn set_thresholds(&mut self, updates: impl IntoIterator<Item = (usize, f64)>) {
        for (idx, tau) in updates {
            self.set_threshold(idx, tau);
        }
    }

    /// Returns every vector index `i` with `⟨u_i, p⟩ ≥ τ_i`, ascending —
    /// the vectors whose ε-approximate top-k result admits the newly
    /// inserted tuple.
    pub fn affected_by(&self, p: &Point) -> Vec<usize> {
        let mut out = Vec::new();
        let blocks = self
            .weights
            .blocks()
            .zip(self.thresholds.chunks_exact(LANES));
        for (b, (block, taus)) in blocks.enumerate() {
            let scores = sweep(block, p.coords());
            for (l, (&s, &tau)) in scores.iter().zip(taus).enumerate() {
                if s >= tau {
                    out.push(b * LANES + l);
                }
            }
        }
        out
    }

    /// Per-utility hit lists for a batch of tuples: for every utility some
    /// tuple reaches, the indices (into the input order) of the tuples
    /// with `⟨u_m, p⟩ ≥ τ_m`, keyed by ascending utility index. Each lane
    /// block is scored against every tuple in turn, so the hits come out
    /// grouped and ordered without a map.
    pub fn affected_hits_many<'a, I>(&self, points: I) -> Vec<(usize, Vec<usize>)>
    where
        I: IntoIterator<Item = &'a Point>,
    {
        let points: Vec<&Point> = points.into_iter().collect();
        let mut out = Vec::new();
        let mut lane_hits: [Vec<usize>; LANES] = Default::default();
        let blocks = self
            .weights
            .blocks()
            .zip(self.thresholds.chunks_exact(LANES));
        for (b, (block, taus)) in blocks.enumerate() {
            for (pi, p) in points.iter().enumerate() {
                let scores = sweep(block, p.coords());
                for ((hits, &s), &tau) in lane_hits.iter_mut().zip(&scores).zip(taus) {
                    if s >= tau {
                        hits.push(pi);
                    }
                }
            }
            for (l, hits) in lane_hits.iter_mut().enumerate() {
                if !hits.is_empty() {
                    out.push((b * LANES + l, std::mem::take(hits)));
                }
            }
        }
        out
    }

    /// Brute-force reference for [`ConeTree::affected_by`], scoring each
    /// utility with [`Utility::score`]; public for tests.
    pub fn affected_by_scan(&self, p: &Point) -> Vec<usize> {
        (0..self.utilities.len())
            .filter(|&i| self.utilities[i].score(p) >= self.thresholds[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rms_geom::sample_utilities;

    fn tree_with_thresholds(seed: u64, d: usize, m: usize) -> (ConeTree, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let us = sample_utilities(&mut rng, d, m);
        let mut tree = ConeTree::build(us);
        for i in 0..m {
            let tau: f64 = rng.gen_range(0.3..1.2);
            tree.set_threshold(i, tau);
        }
        (tree, rng)
    }

    #[test]
    fn affected_matches_scan() {
        let (tree, mut rng) = tree_with_thresholds(1, 4, 300);
        for _ in 0..50 {
            let p = Point::new_unchecked(0, (0..4).map(|_| rng.gen()).collect());
            assert_eq!(tree.affected_by(&p), tree.affected_by_scan(&p));
        }
    }

    #[test]
    fn affected_after_threshold_updates() {
        let (mut tree, mut rng) = tree_with_thresholds(2, 3, 200);
        for step in 0..200 {
            let i = rng.gen_range(0..tree.len());
            let tau = rng.gen_range(0.1..1.5);
            tree.set_threshold(i, tau);
            assert_eq!(tree.threshold(i), tau);
            if step % 10 == 0 {
                let p = Point::new_unchecked(0, (0..3).map(|_| rng.gen()).collect());
                assert_eq!(tree.affected_by(&p), tree.affected_by_scan(&p));
            }
        }
    }

    #[test]
    fn batch_affected_matches_union_of_singles() {
        let (tree, mut rng) = tree_with_thresholds(11, 4, 300);
        for batch_size in [1usize, 2, 7, 20] {
            let pts: Vec<Point> = (0..batch_size)
                .map(|i| Point::new_unchecked(i as u64, (0..4).map(|_| rng.gen()).collect()))
                .collect();
            let mut want: Vec<usize> = pts.iter().flat_map(|p| tree.affected_by(p)).collect();
            want.sort_unstable();
            want.dedup();
            // The affected utilities are the union of the singles, and
            // each one's hits are exactly the tuples that reach it.
            let many = tree.affected_hits_many(pts.iter());
            assert_eq!(
                many.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
                want,
                "size {batch_size}"
            );
            for (m, hit_idxs) in many {
                let from_singles: Vec<usize> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| tree.affected_by(p).contains(&m))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(hit_idxs, from_singles, "utility {m}");
            }
        }
        assert!(tree.affected_hits_many(std::iter::empty()).is_empty());
    }

    #[test]
    fn bulk_thresholds_match_incremental() {
        let (mut bulk, mut rng) = tree_with_thresholds(12, 3, 200);
        let mut incr = bulk.clone();
        let updates: Vec<(usize, f64)> = (0..80)
            .map(|_| (rng.gen_range(0..200), rng.gen_range(0.1..1.4)))
            .collect();
        for &(i, tau) in &updates {
            incr.set_threshold(i, tau);
        }
        bulk.set_thresholds(updates.iter().copied());
        for _ in 0..30 {
            let p = Point::new_unchecked(0, (0..3).map(|_| rng.gen()).collect());
            assert_eq!(bulk.affected_by(&p), incr.affected_by(&p));
            assert_eq!(bulk.affected_by(&p), bulk.affected_by_scan(&p));
        }
        // Empty update set is a no-op.
        let before: Vec<f64> = (0..bulk.len()).map(|i| bulk.threshold(i)).collect();
        bulk.set_thresholds(std::iter::empty());
        let after: Vec<f64> = (0..bulk.len()).map(|i| bulk.threshold(i)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn infinite_thresholds_report_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        let us = sample_utilities(&mut rng, 3, 64);
        let tree = ConeTree::build(us);
        let p = Point::new_unchecked(0, vec![1.0, 1.0, 1.0]);
        assert!(tree.affected_by(&p).is_empty());
    }

    #[test]
    fn zero_thresholds_report_everything() {
        let mut rng = StdRng::seed_from_u64(4);
        let us = sample_utilities(&mut rng, 3, 64);
        let mut tree = ConeTree::build(us);
        for i in 0..tree.len() {
            tree.set_threshold(i, 0.0);
        }
        let p = Point::new_unchecked(0, vec![0.5, 0.5, 0.5]);
        assert_eq!(tree.affected_by(&p).len(), 64);
    }

    #[test]
    fn padding_lanes_never_report() {
        // 61 utilities leave three padding lanes in the last block; with
        // every threshold at 0 each real utility reports and no padding
        // lane does, not even against the all-zero tuple.
        let mut rng = StdRng::seed_from_u64(6);
        let mut tree = ConeTree::build(sample_utilities(&mut rng, 5, 61));
        tree.set_thresholds((0..61).map(|i| (i, 0.0)));
        let all: Vec<usize> = (0..61).collect();
        for p in [
            Point::new_unchecked(0, vec![0.5; 5]),
            Point::new_unchecked(1, vec![0.0; 5]),
        ] {
            assert_eq!(tree.affected_by(&p), all);
            let many = tree.affected_hits_many([&p]);
            assert_eq!(many.iter().map(|(m, _)| *m).collect::<Vec<_>>(), all);
        }
    }

    #[test]
    fn lane_blocks_mirror_pool() {
        // The blocked layout invariants: row `i` of the weight block is
        // utility `i`'s weights, the threshold array holds threshold `i`
        // at `i` and is padded to whole blocks with +∞, and there is one
        // threshold chunk per weight block.
        let (tree, _) = tree_with_thresholds(21, 5, 61);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for idx in 0..tree.len() {
            assert_eq!(
                bits(&tree.weights.row(idx)),
                bits(tree.utility(idx).weights()),
                "utility {idx}"
            );
            assert_eq!(tree.thresholds[idx], tree.threshold(idx));
        }
        assert_eq!(tree.thresholds.len(), 64);
        assert!(tree.thresholds[61..].iter().all(|&t| t == f64::INFINITY));
        assert_eq!(tree.weights.blocks().len(), tree.thresholds.len() / LANES);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_threshold_past_m_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tree = ConeTree::build(sample_utilities(&mut rng, 5, 61));
        tree.set_threshold(61, 0.0);
    }

    #[test]
    fn single_vector_tree() {
        let u = Utility::new(vec![0.6, 0.8]).unwrap();
        let mut tree = ConeTree::build(vec![u]);
        tree.set_threshold(0, 0.5);
        let hit = Point::new_unchecked(0, vec![1.0, 1.0]);
        let miss = Point::new_unchecked(1, vec![0.1, 0.1]);
        assert_eq!(tree.affected_by(&hit), vec![0]);
        assert!(tree.affected_by(&miss).is_empty());
    }

    #[test]
    fn identical_vectors_all_report() {
        let us: Vec<Utility> = (0..100)
            .map(|_| Utility::new(vec![1.0, 1.0]).unwrap())
            .collect();
        let mut tree = ConeTree::build(us);
        for i in 0..100 {
            tree.set_threshold(i, 0.1);
        }
        let p = Point::new_unchecked(0, vec![0.5, 0.5]);
        assert_eq!(tree.affected_by(&p).len(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn empty_pool_panics() {
        let _ = ConeTree::build(Vec::new());
    }

    mod scan_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The blocked scan reports exactly the brute-force affected
            /// set for arbitrary threshold assignments, at every
            /// dimensionality and pool size (so every padding width).
            #[test]
            fn affected_by_matches_scan_for_any_thresholds(
                seed in 0u64..1_000,
                d in 1usize..=9,
                taus in prop::collection::vec(0.0f64..=1.4, 1..70),
                coords in prop::collection::vec(0.0f64..=1.0, 9),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let us = sample_utilities(&mut rng, d, taus.len());
                let mut tree = ConeTree::build(us);
                for (i, tau) in taus.iter().enumerate() {
                    tree.set_threshold(i, *tau);
                }
                let p = Point::new_unchecked(0, coords[..d].to_vec());
                prop_assert_eq!(tree.affected_by(&p), tree.affected_by_scan(&p));
            }
        }
    }
}
