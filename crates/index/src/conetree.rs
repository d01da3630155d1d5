//! The utility index UI: a cone tree over sampled utility vectors.
//!
//! FD-RMS maintains the ε-approximate top-k of `M` fixed utility vectors.
//! When a tuple `p` is inserted, the vectors whose result changes are
//! exactly those with `⟨u, p⟩ ≥ τ_u`, where `τ_u = (1 − ε)·ω_k(u, P)` is
//! the per-vector admission threshold. Scanning all `M` vectors per
//! insertion is the brute-force alternative (see the `ablation_dualtree`
//! bench); the cone tree prunes whole clusters of vectors using the
//! maximum-inner-product bound of Ram & Gray (KDD 2012):
//!
//! ```text
//! max_{u ∈ cone(c, φ)} ⟨u, p⟩ ≤ ‖p‖ · cos(max(0, θ(c, p) − φ))
//! ```
//!
//! where `c` is the cone's unit centre and `φ` its half-angle. A subtree
//! can be skipped when this bound is below the *minimum* threshold stored
//! in the subtree.
//!
//! The tree is stored as parallel flat arrays (struct-of-arrays): cone
//! centres pack into one `f64` array at `node·dim`, scalar node fields
//! into their own `Vec`s, and leaf membership into a single member-order
//! block whose utility weights and thresholds are duplicated contiguously
//! (`packed_weights` / `packed_thresholds`) so a leaf scan is one
//! straight-line sweep with no per-member indirection. Parents always
//! precede their children in node order, which is what lets
//! [`ConeTree::set_thresholds`] repair every subtree minimum in a single
//! reverse pass.

use crate::kernels::dot;
use rms_geom::{Point, Utility};

/// Leaf capacity of the cone tree.
const LEAF_CAPACITY: usize = 16;

/// Node-index sentinel: marks a leaf (in `left`/`right`) or the root (in
/// `parent`).
const NO_NODE: u32 = u32::MAX;

/// A cone tree over a fixed pool of utility vectors with per-vector
/// thresholds.
#[derive(Debug, Clone)]
pub struct ConeTree {
    utilities: Vec<Utility>,
    thresholds: Vec<f64>,
    dim: usize,
    /// Leaf node holding each utility.
    leaf_of: Vec<usize>,
    /// Packed member slot of each utility (index into `members` /
    /// `packed_weights` / `packed_thresholds`).
    slot_of: Vec<usize>,
    // Per-node arrays, indexed by node id. Parents precede children.
    /// Unit-norm cone centres, packed at `node·dim .. (node+1)·dim`.
    centers: Vec<f64>,
    /// cos of each cone's half-angle (cosine is cheaper than the angle).
    cos_half: Vec<f64>,
    /// Minimum threshold over each subtree's vectors.
    min_threshold: Vec<f64>,
    /// Child indices; `left == NO_NODE` marks a leaf.
    left: Vec<u32>,
    right: Vec<u32>,
    /// Parent index; `NO_NODE` at the root.
    parent: Vec<u32>,
    /// Leaf member range `member_start[n] .. member_start[n] + member_len[n]`
    /// into the packed member block (empty for internal nodes).
    member_start: Vec<u32>,
    member_len: Vec<u32>,
    // Leaf payload in member order: utility indices plus their weights and
    // thresholds duplicated contiguously for the scan kernel.
    members: Vec<u32>,
    packed_weights: Vec<f64>,
    packed_thresholds: Vec<f64>,
    root: usize,
}

impl ConeTree {
    /// Builds the tree over `utilities` with all thresholds set to
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
        let m = utilities.len();
        let mut tree = Self {
            thresholds: vec![f64::INFINITY; m],
            dim: d,
            leaf_of: vec![usize::MAX; m],
            slot_of: vec![usize::MAX; m],
            utilities,
            centers: Vec::new(),
            cos_half: Vec::new(),
            min_threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            parent: Vec::new(),
            member_start: Vec::new(),
            member_len: Vec::new(),
            members: Vec::with_capacity(m),
            packed_weights: Vec::with_capacity(m * d),
            packed_thresholds: Vec::with_capacity(m),
            root: 0,
        };
        let all: Vec<usize> = (0..m).collect();
        tree.root = tree.build_rec(all, NO_NODE);
        tree
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

    /// The current threshold of vector `idx`.
    pub fn threshold(&self, idx: usize) -> f64 {
        self.thresholds[idx]
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.left.len()
    }

    #[inline]
    fn is_leaf(&self, n: usize) -> bool {
        self.left[n] == NO_NODE
    }

    #[inline]
    fn center_of(&self, n: usize) -> &[f64] {
        &self.centers[n * self.dim..(n + 1) * self.dim]
    }

    #[inline]
    fn member_range(&self, n: usize) -> std::ops::Range<usize> {
        let start = self.member_start[n] as usize;
        start..start + self.member_len[n] as usize
    }

    /// Minimum packed threshold over a leaf's member block.
    #[inline]
    fn leaf_min(&self, n: usize) -> f64 {
        self.packed_thresholds[self.member_range(n)]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Appends a node with empty children/members and returns its index.
    fn push_node(&mut self, center: &[f64], cos_half: f64, parent: u32) -> usize {
        let idx = self.num_nodes();
        self.centers.extend_from_slice(center);
        self.cos_half.push(cos_half);
        self.min_threshold.push(f64::INFINITY);
        self.left.push(NO_NODE);
        self.right.push(NO_NODE);
        self.parent.push(parent);
        self.member_start.push(self.members.len() as u32);
        self.member_len.push(0);
        idx
    }

    /// Appends a leaf owning `mem`, packing each member's weights and
    /// threshold into the contiguous leaf block.
    fn push_leaf(&mut self, mem: &[usize], center: &[f64], cos_half: f64, parent: u32) -> usize {
        let idx = self.push_node(center, cos_half, parent);
        self.member_len[idx] = mem.len() as u32;
        for &m in mem {
            let slot = self.members.len();
            self.members.push(m as u32);
            self.slot_of[m] = slot;
            self.leaf_of[m] = idx;
            self.packed_weights
                .extend_from_slice(self.utilities[m].weights());
            self.packed_thresholds.push(self.thresholds[m]);
        }
        idx
    }

    fn build_rec(&mut self, members: Vec<usize>, parent: u32) -> usize {
        let (center, cos_half_angle) = self.cone_of(&members);
        if members.len() <= LEAF_CAPACITY {
            return self.push_leaf(&members, &center, cos_half_angle, parent);
        }
        // Two-pivot angular split (Ram & Gray): pick the vector farthest
        // from an arbitrary seed, then the vector farthest from it; assign
        // members to the closer pivot by cosine.
        let seed = members[0];
        let a = *members
            .iter()
            .max_by(|&&x, &&y| {
                let cx = self.utilities[seed].cosine(&self.utilities[x]);
                let cy = self.utilities[seed].cosine(&self.utilities[y]);
                cy.partial_cmp(&cx).expect("finite") // farthest = min cosine
            })
            .expect("nonempty");
        let b = *members
            .iter()
            .max_by(|&&x, &&y| {
                let cx = self.utilities[a].cosine(&self.utilities[x]);
                let cy = self.utilities[a].cosine(&self.utilities[y]);
                cy.partial_cmp(&cx).expect("finite")
            })
            .expect("nonempty");
        let mut left_members = Vec::new();
        let mut right_members = Vec::new();
        for &m in &members {
            let ca = self.utilities[a].cosine(&self.utilities[m]);
            let cb = self.utilities[b].cosine(&self.utilities[m]);
            if ca >= cb {
                left_members.push(m);
            } else {
                right_members.push(m);
            }
        }
        // Degenerate split (all vectors identical): force a half split so
        // recursion terminates.
        if left_members.is_empty() || right_members.is_empty() {
            let mut all = members;
            let mid = all.len() / 2;
            right_members = all.split_off(mid);
            left_members = all;
        }
        // Push the internal node before recursing so parents always carry
        // smaller indices than their children; children get patched in.
        let placeholder = self.push_node(&center, cos_half_angle, parent);
        let l = self.build_rec(left_members, placeholder as u32);
        let r = self.build_rec(right_members, placeholder as u32);
        self.left[placeholder] = l as u32;
        self.right[placeholder] = r as u32;
        placeholder
    }

    /// Computes the unit centre (normalised mean) and cos of the
    /// half-angle covering `members`.
    fn cone_of(&self, members: &[usize]) -> (Vec<f64>, f64) {
        let d = self.dim;
        let mut center = vec![0.0f64; d];
        for &m in members {
            for (c, w) in center.iter_mut().zip(self.utilities[m].weights()) {
                *c += w;
            }
        }
        let norm = center.iter().map(|c| c * c).sum::<f64>().sqrt();
        if norm > f64::EPSILON {
            for c in &mut center {
                *c /= norm;
            }
        } else if !center.is_empty() {
            center[0] = 1.0;
        }
        let mut cos_half = 1.0f64;
        for &m in members {
            let cos = dot(&center, self.utilities[m].weights()).clamp(-1.0, 1.0);
            cos_half = cos_half.min(cos);
        }
        (center, cos_half)
    }

    /// Sets the threshold of vector `idx` and repairs the subtree minima
    /// along the path to the root.
    pub fn set_threshold(&mut self, idx: usize, tau: f64) {
        self.thresholds[idx] = tau;
        self.packed_thresholds[self.slot_of[idx]] = tau;
        let mut node = self.leaf_of[idx];
        loop {
            self.min_threshold[node] = if self.is_leaf(node) {
                self.leaf_min(node)
            } else {
                self.min_threshold[self.left[node] as usize]
                    .min(self.min_threshold[self.right[node] as usize])
            };
            if self.parent[node] == NO_NODE {
                break;
            }
            node = self.parent[node] as usize;
        }
    }

    /// Sets many thresholds at once and repairs every subtree minimum in a
    /// single bottom-up sweep (`O(M)` instead of one root path per
    /// update). Used by the batch update engine, which rewrites the
    /// thresholds of every affected utility once per batch.
    pub fn set_thresholds(&mut self, updates: impl IntoIterator<Item = (usize, f64)>) {
        let mut any = false;
        for (idx, tau) in updates {
            self.thresholds[idx] = tau;
            self.packed_thresholds[self.slot_of[idx]] = tau;
            any = true;
        }
        if !any {
            return;
        }
        // Children always carry larger node indices than their parent
        // (internal nodes are pushed as placeholders before recursing), so
        // one reverse pass recomputes every minimum bottom-up.
        for n in (0..self.num_nodes()).rev() {
            self.min_threshold[n] = if self.is_leaf(n) {
                self.leaf_min(n)
            } else {
                self.min_threshold[self.left[n] as usize]
                    .min(self.min_threshold[self.right[n] as usize])
            };
        }
    }

    /// Upper bound of `⟨u, p⟩` over a cone with the given centre and cos
    /// half-angle.
    ///
    /// Evaluates `cos(θ − φ)` through the angle-difference identity
    /// `cosθ·cosφ + sinθ·sinφ` with `sin x = √(1 − cos²x)` (both angles
    /// lie in `[0, π]`, where sine is nonnegative), so the hot path costs
    /// two `sqrt`s instead of an `acos` + `cos` pair. The `θ ≤ φ` branch
    /// becomes the equivalent cosine comparison `cosθ ≥ cosφ` (cosine is
    /// decreasing on `[0, π]`).
    fn cone_bound(center: &[f64], cos_half: f64, p: &Point, p_norm: f64) -> f64 {
        if p_norm <= f64::EPSILON {
            return 0.0;
        }
        let cos_cp = (dot(center, p.coords()) / p_norm).clamp(-1.0, 1.0);
        let cos_half = cos_half.clamp(-1.0, 1.0);
        if cos_cp >= cos_half {
            p_norm
        } else {
            let sin_cp = (1.0 - cos_cp * cos_cp).max(0.0).sqrt();
            let sin_half = (1.0 - cos_half * cos_half).max(0.0).sqrt();
            p_norm * (cos_cp * cos_half + sin_cp * sin_half)
        }
    }

    /// The cone bound of node `n` against `p`.
    #[inline]
    fn node_bound(&self, n: usize, p: &Point, p_norm: f64) -> f64 {
        Self::cone_bound(self.center_of(n), self.cos_half[n], p, p_norm)
    }

    /// Scans a leaf's packed member block, appending every member whose
    /// exact score reaches its threshold.
    #[inline]
    fn scan_leaf(&self, n: usize, p: &Point, out: &mut Vec<usize>) {
        let coords = p.coords();
        for slot in self.member_range(n) {
            let w = &self.packed_weights[slot * self.dim..(slot + 1) * self.dim];
            if dot(w, coords) >= self.packed_thresholds[slot] {
                out.push(self.members[slot] as usize);
            }
        }
    }

    /// Returns every vector index `i` with `⟨u_i, p⟩ ≥ τ_i` — the vectors
    /// whose ε-approximate top-k result admits the newly inserted tuple.
    /// Exact scores are checked at the leaves; internal cones are pruned
    /// by the inner-product bound against the subtree's minimum threshold.
    pub fn affected_by(&self, p: &Point) -> Vec<usize> {
        let mut out = Vec::new();
        let p_norm = p.norm();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if self.node_bound(n, p, p_norm) < self.min_threshold[n] {
                continue;
            }
            if self.is_leaf(n) {
                self.scan_leaf(n, p, &mut out);
            } else {
                stack.push(self.left[n] as usize);
                stack.push(self.right[n] as usize);
            }
        }
        out.sort_unstable();
        out
    }

    /// Per-utility hit lists for a batch of tuples, via one *individually
    /// pruned* traversal per tuple (sharing the traversal stack): for
    /// every utility some tuple reaches, the indices (into the input
    /// order) of the tuples with `⟨u_m, p⟩ ≥ τ_m`, keyed by ascending
    /// utility index.
    ///
    /// One traversal per tuple rather than one joint traversal: a joint
    /// traversal can only prune a cone that *no* tuple reaches, so
    /// diverse batches degrade it towards a full scan, while per-tuple
    /// traversals keep the threshold pruning intact.
    pub fn affected_hits_many<'a, I>(&self, points: I) -> Vec<(usize, Vec<usize>)>
    where
        I: IntoIterator<Item = &'a Point>,
    {
        let mut hits: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut stack = Vec::new();
        for (pi, p) in points.into_iter().enumerate() {
            let p_norm = p.norm();
            stack.clear();
            stack.push(self.root);
            while let Some(n) = stack.pop() {
                if self.node_bound(n, p, p_norm) < self.min_threshold[n] {
                    continue;
                }
                if !self.is_leaf(n) {
                    stack.push(self.left[n] as usize);
                    stack.push(self.right[n] as usize);
                    continue;
                }
                let coords = p.coords();
                for slot in self.member_range(n) {
                    let w = &self.packed_weights[slot * self.dim..(slot + 1) * self.dim];
                    if dot(w, coords) >= self.packed_thresholds[slot] {
                        hits.entry(self.members[slot] as usize)
                            .or_default()
                            .push(pi);
                    }
                }
            }
        }
        hits.into_iter().collect()
    }

    /// Brute-force reference for [`ConeTree::affected_by`]; public for the
    /// ablation bench and tests.
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
            tree.set_threshold(i, rng.gen_range(0.1..1.5));
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
    fn cone_bound_is_sound() {
        // For every node the bound must dominate every member's score
        // (leaf member ranges are empty for internal nodes).
        let mut rng = StdRng::seed_from_u64(5);
        let us = sample_utilities(&mut rng, 5, 128);
        let tree = ConeTree::build(us.clone());
        for _ in 0..20 {
            let p = Point::new_unchecked(0, (0..5).map(|_| rng.gen()).collect());
            let p_norm = p.norm();
            for n in 0..tree.num_nodes() {
                let bound = tree.node_bound(n, &p, p_norm);
                for slot in tree.member_range(n) {
                    let m = tree.members[slot] as usize;
                    assert!(
                        us[m].score(&p) <= bound + 1e-9,
                        "member {m} exceeds its cone bound"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_leaf_blocks_mirror_pool() {
        // The flat layout invariants: every utility appears in exactly one
        // leaf slot, its packed weights/threshold mirror the pool, and
        // parents precede children.
        let (tree, _) = tree_with_thresholds(21, 4, 300);
        assert_eq!(tree.members.len(), tree.len());
        for idx in 0..tree.len() {
            let slot = tree.slot_of[idx];
            assert_eq!(tree.members[slot] as usize, idx);
            assert!(tree.member_range(tree.leaf_of[idx]).contains(&slot));
            assert_eq!(
                &tree.packed_weights[slot * tree.dim..(slot + 1) * tree.dim],
                tree.utility(idx).weights()
            );
            assert_eq!(tree.packed_thresholds[slot], tree.threshold(idx));
        }
        for n in 0..tree.num_nodes() {
            if !tree.is_leaf(n) {
                assert!(tree.left[n] as usize > n && tree.right[n] as usize > n);
            }
        }
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
    fn identical_vectors_split_terminates() {
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

    mod bound_props {
        use super::*;
        use proptest::prelude::*;

        /// The pre-optimisation `acos`-based bound, kept as the reference
        /// the `sqrt` identity in [`ConeTree::cone_bound`] must reproduce.
        fn acos_bound(center: &[f64], cos_half: f64, p: &Point, p_norm: f64) -> f64 {
            if p_norm <= f64::EPSILON {
                return 0.0;
            }
            let cos_cp = center
                .iter()
                .zip(p.coords())
                .map(|(c, x)| c * x)
                .sum::<f64>()
                / p_norm;
            let cos_cp = cos_cp.clamp(-1.0, 1.0);
            let theta = cos_cp.acos();
            let phi = cos_half.clamp(-1.0, 1.0).acos();
            if theta <= phi {
                p_norm
            } else {
                p_norm * (theta - phi).cos()
            }
        }

        fn unit_vector(d: usize) -> impl Strategy<Value = Vec<f64>> {
            prop::collection::vec(0.01f64..=1.0, d).prop_map(|mut v| {
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                for x in &mut v {
                    *x /= norm;
                }
                v
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The sqrt identity agrees with the acos formula to fp noise,
            /// and — the property the index actually relies on — every
            /// prune/descend decision against a threshold is identical.
            #[test]
            fn sqrt_identity_prunes_like_acos(
                center in unit_vector(4),
                cos_half in -1.0f64..=1.0,
                coords in prop::collection::vec(0.0f64..=1.0, 4),
                tau in 0.0f64..=1.5,
            ) {
                let p = Point::new_unchecked(0, coords);
                let p_norm = p.norm();
                let fast = ConeTree::cone_bound(&center, cos_half, &p, p_norm);
                let slow = acos_bound(&center, cos_half, &p, p_norm);
                prop_assert!((fast - slow).abs() <= 1e-9, "fast {fast} vs acos {slow}");
                prop_assert_eq!(fast >= tau, slow >= tau, "pruning decision diverged at τ={}", tau);
            }

            /// End to end: with the sqrt bound in place, the pruned
            /// traversal still reports exactly the brute-force affected
            /// set for arbitrary threshold assignments.
            #[test]
            fn affected_by_matches_scan_under_sqrt_bound(
                seed in 0u64..1_000,
                taus in prop::collection::vec(0.0f64..=1.4, 64),
                coords in prop::collection::vec(0.0f64..=1.0, 3),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let us = sample_utilities(&mut rng, 3, taus.len());
                let mut tree = ConeTree::build(us);
                for (i, tau) in taus.iter().enumerate() {
                    tree.set_threshold(i, *tau);
                }
                let p = Point::new_unchecked(0, coords);
                prop_assert_eq!(tree.affected_by(&p), tree.affected_by_scan(&p));
            }
        }
    }
}
