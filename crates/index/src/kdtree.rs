//! The tuple index TI: a dynamic k-d tree with branch-and-bound top-k.
//!
//! The tree is stored flat: nodes live in one contiguous `Vec` addressed
//! by index, per-node bounding corners are packed into a single `f64`
//! array, and every leaf owns a lane-blocked coordinate block
//! ([`RowBlock`]) scored eight rows per packed multiply-add. No per-node
//! heap indirection survives on the query path.

use crate::kernels::{dot, RowBlock};
use rms_geom::{rank_cmp, Point, PointId, RankedPoint, Utility};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Maximum number of points in a leaf before it splits.
const LEAF_CAPACITY: usize = 24;

/// Fraction of stale (deleted or box-loosening) operations that triggers a
/// full rebuild. Swept by the `ablation_kd_rebuild` bench.
const DEFAULT_REBUILD_FRACTION: f64 = 0.5;

/// Child-index sentinel marking a node as a leaf.
const NO_CHILD: u32 = u32::MAX;

/// Errors from dynamic k-d tree updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdTreeError {
    /// Insertion of an id that is already present.
    DuplicateId(PointId),
    /// Deletion of an id that is not present.
    UnknownId(PointId),
    /// Point dimensionality differs from the tree's.
    DimensionMismatch {
        /// The tree's dimensionality.
        expected: usize,
        /// The point's dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for KdTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KdTreeError::DuplicateId(id) => write!(f, "point {id} already indexed"),
            KdTreeError::UnknownId(id) => write!(f, "point {id} not indexed"),
            KdTreeError::DimensionMismatch { expected, got } => {
                write!(f, "expected dimension {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for KdTreeError {}

/// Flat node record. Internal nodes use `split_dim`/`split_val` and the
/// two child indices; a leaf is marked by `left == NO_CHILD` and owns its
/// point ids plus a lane-blocked coordinate block (point `i` of the leaf
/// is row `i` of `coords`). The per-node upper corner `hi` lives in the
/// tree-level `bounds` array at `node·dim`, so bound evaluation never
/// touches the node record at all.
#[derive(Debug, Clone)]
struct Node {
    split_dim: u32,
    split_val: f64,
    left: u32,
    right: u32,
    ids: Vec<PointId>,
    coords: RowBlock,
}

impl Node {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == NO_CHILD
    }
}

/// A dynamic k-d tree over database tuples supporting branch-and-bound
/// top-k and threshold queries for nonnegative linear scoring.
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    nodes: Vec<Node>,
    /// Componentwise max over each node's subtree (upper-bound corner),
    /// packed at `node·dim .. (node+1)·dim`.
    bounds: Vec<f64>,
    root: usize,
    len: usize,
    /// Leaf index per point id (for O(depth)-free deletion).
    leaf_of: HashMap<PointId, usize>,
    /// Operations since the last build that may have loosened boxes.
    stale_ops: usize,
    rebuild_fraction: f64,
}

/// Max-heap ordering for (score, id): larger score first, then smaller id.
#[inline]
fn better(a_score: f64, a_id: PointId, b_score: f64, b_id: PointId) -> bool {
    match a_score.partial_cmp(&b_score).expect("finite scores") {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a_id < b_id,
    }
}

impl KdTree {
    /// Bulk-loads a tree from `points`. `dim` must be positive and all
    /// points must match it.
    pub fn build(dim: usize, points: Vec<Point>) -> Result<Self, KdTreeError> {
        Self::build_with_rebuild_fraction(dim, points, DEFAULT_REBUILD_FRACTION)
    }

    /// [`KdTree::build`] with an explicit lazy-rebuild threshold: the tree
    /// rebuilds itself once `stale_ops > rebuild_fraction × len`.
    pub fn build_with_rebuild_fraction(
        dim: usize,
        points: Vec<Point>,
        rebuild_fraction: f64,
    ) -> Result<Self, KdTreeError> {
        assert!(dim > 0, "dimension must be positive");
        assert!(rebuild_fraction > 0.0, "rebuild fraction must be positive");
        let mut tree = Self {
            dim,
            nodes: Vec::new(),
            bounds: Vec::new(),
            root: 0,
            len: 0,
            leaf_of: HashMap::new(),
            stale_ops: 0,
            rebuild_fraction,
        };
        for p in &points {
            if p.dim() != dim {
                return Err(KdTreeError::DimensionMismatch {
                    expected: dim,
                    got: p.dim(),
                });
            }
        }
        {
            let mut ids: Vec<PointId> = points.iter().map(|p| p.id()).collect();
            ids.sort_unstable();
            for w in ids.windows(2) {
                if w[0] == w[1] {
                    return Err(KdTreeError::DuplicateId(w[0]));
                }
            }
        }
        tree.rebuild_from(points);
        Ok(tree)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tree's dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether `id` is indexed.
    pub fn contains(&self, id: PointId) -> bool {
        self.leaf_of.contains_key(&id)
    }

    /// All indexed points (unspecified order). Used for rebuilds and tests.
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.len);
        for node in &self.nodes {
            if node.is_leaf() {
                for (i, &id) in node.ids.iter().enumerate() {
                    out.push(Point::new_unchecked(id, node.coords.row(i)));
                }
            }
        }
        out
    }

    fn rebuild_from(&mut self, points: Vec<Point>) {
        self.nodes.clear();
        self.bounds.clear();
        self.leaf_of.clear();
        self.len = points.len();
        self.stale_ops = 0;
        let mut pts = points;
        self.root = self.build_rec(&mut pts, 0);
    }

    fn build_rec(&mut self, points: &mut Vec<Point>, depth: usize) -> usize {
        let hi = self.compute_hi(points);
        if points.len() <= LEAF_CAPACITY {
            return self.push_leaf(points, &hi);
        }
        // Split on the widest dimension (more robust than depth cycling on
        // skewed data); median split.
        let split_dim = self.widest_dim(points).unwrap_or(depth % self.dim);
        let mid = points.len() / 2;
        points.select_nth_unstable_by(mid, |a, b| {
            a.coord(split_dim)
                .partial_cmp(&b.coord(split_dim))
                .expect("finite")
                .then_with(|| a.id().cmp(&b.id()))
        });
        let split_val = points[mid].coord(split_dim);
        let mut right: Vec<Point> = points.split_off(mid);
        // Degenerate guard: all coordinates equal on split_dim — fall back
        // to an arbitrary half split, which the code above already did.
        let left_idx = self.build_rec(points, depth + 1);
        let right_idx = self.build_rec(&mut right, depth + 1);
        let idx = self.nodes.len();
        self.bounds.extend_from_slice(&hi);
        self.nodes.push(Node {
            split_dim: split_dim as u32,
            split_val,
            left: left_idx as u32,
            right: right_idx as u32,
            ids: Vec::new(),
            coords: RowBlock::new(self.dim),
        });
        idx
    }

    /// Appends a leaf node owning `points` as a packed block, registers
    /// its members in `leaf_of`, and returns its index.
    fn push_leaf(&mut self, points: &[Point], hi: &[f64]) -> usize {
        let idx = self.nodes.len();
        self.bounds.extend_from_slice(hi);
        let mut ids = Vec::with_capacity(points.len());
        let mut coords = RowBlock::new(self.dim);
        for p in points {
            ids.push(p.id());
            coords.push(p.coords());
            self.leaf_of.insert(p.id(), idx);
        }
        self.nodes.push(Node {
            split_dim: 0,
            split_val: 0.0,
            left: NO_CHILD,
            right: NO_CHILD,
            ids,
            coords,
        });
        idx
    }

    fn compute_hi(&self, points: &[Point]) -> Vec<f64> {
        let mut hi = vec![0.0f64; self.dim];
        for p in points {
            for (h, &c) in hi.iter_mut().zip(p.coords()) {
                if c > *h {
                    *h = c;
                }
            }
        }
        hi
    }

    fn widest_dim(&self, points: &[Point]) -> Option<usize> {
        if points.is_empty() {
            return None;
        }
        let mut lo = vec![f64::INFINITY; self.dim];
        let mut hi = vec![f64::NEG_INFINITY; self.dim];
        for p in points {
            for i in 0..self.dim {
                lo[i] = lo[i].min(p.coord(i));
                hi[i] = hi[i].max(p.coord(i));
            }
        }
        (0..self.dim).max_by(|&a, &b| {
            (hi[a] - lo[a])
                .partial_cmp(&(hi[b] - lo[b]))
                .expect("finite")
        })
    }

    /// Inserts a point, expanding bounding boxes along the descent path.
    pub fn insert(&mut self, p: Point) -> Result<(), KdTreeError> {
        if p.dim() != self.dim {
            return Err(KdTreeError::DimensionMismatch {
                expected: self.dim,
                got: p.dim(),
            });
        }
        if self.leaf_of.contains_key(&p.id()) {
            return Err(KdTreeError::DuplicateId(p.id()));
        }
        if self.nodes.is_empty() {
            self.rebuild_from(vec![p]);
            return Ok(());
        }
        let dim = self.dim;
        let mut idx = self.root;
        loop {
            // Expand this node's hi row to cover p.
            let row = &mut self.bounds[idx * dim..(idx + 1) * dim];
            for (h, &c) in row.iter_mut().zip(p.coords()) {
                if c > *h {
                    *h = c;
                }
            }
            let node = &mut self.nodes[idx];
            if node.is_leaf() {
                node.ids.push(p.id());
                node.coords.push(p.coords());
                let grew_past = node.ids.len() > 2 * LEAF_CAPACITY;
                self.leaf_of.insert(p.id(), idx);
                self.len += 1;
                if grew_past {
                    self.split_leaf(idx);
                }
                return Ok(());
            }
            idx = if p.coord(node.split_dim as usize) < node.split_val {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Splits an over-full leaf in place (the leaf node is rewritten into
    /// an internal node pointing at two fresh leaves; its bounds row stays
    /// valid because it already covered every member).
    fn split_leaf(&mut self, idx: usize) {
        let (ids, coords) = {
            let node = &mut self.nodes[idx];
            debug_assert!(node.is_leaf(), "split_leaf on internal node");
            (
                std::mem::take(&mut node.ids),
                std::mem::replace(&mut node.coords, RowBlock::new(self.dim)),
            )
        };
        let mut pts: Vec<Point> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Point::new_unchecked(id, coords.row(i)))
            .collect();
        let split_dim = self.widest_dim(&pts).unwrap_or(0);
        let mid = pts.len() / 2;
        pts.select_nth_unstable_by(mid, |a, b| {
            a.coord(split_dim)
                .partial_cmp(&b.coord(split_dim))
                .expect("finite")
                .then_with(|| a.id().cmp(&b.id()))
        });
        let split_val = pts[mid].coord(split_dim);
        let right: Vec<Point> = pts.split_off(mid);
        let left = pts;

        let left_hi = self.compute_hi(&left);
        let right_hi = self.compute_hi(&right);
        let left_idx = self.push_leaf(&left, &left_hi);
        let right_idx = self.push_leaf(&right, &right_hi);
        let node = &mut self.nodes[idx];
        node.split_dim = split_dim as u32;
        node.split_val = split_val;
        node.left = left_idx as u32;
        node.right = right_idx as u32;
    }

    /// Deletes a point by id. Bounding boxes are left conservative; once
    /// `stale_ops` exceeds the rebuild fraction of the current size, the
    /// tree rebuilds itself.
    pub fn delete(&mut self, id: PointId) -> Result<(), KdTreeError> {
        self.delete_deferred(id)?;
        self.maybe_rebuild();
        Ok(())
    }

    /// [`KdTree::delete`] without the per-call rebuild decision. Bulk
    /// callers (the batch update engine) apply every mutation of a batch
    /// through this and then take **one** [`KdTree::maybe_rebuild`]
    /// decision — a batch of `B` deletions pays at most one rebuild where
    /// the per-op discipline could pay several, and the single rebuild
    /// sees the post-batch database (inserts included), so it packs
    /// tighter boxes.
    pub fn delete_deferred(&mut self, id: PointId) -> Result<(), KdTreeError> {
        let Some(leaf_idx) = self.leaf_of.remove(&id) else {
            return Err(KdTreeError::UnknownId(id));
        };
        let node = &mut self.nodes[leaf_idx];
        debug_assert!(node.is_leaf(), "leaf_of points at an internal node");
        let pos = node
            .ids
            .iter()
            .position(|&x| x == id)
            .expect("leaf_of is consistent");
        node.ids.swap_remove(pos);
        node.coords.swap_remove(pos);
        self.len -= 1;
        self.stale_ops += 1;
        Ok(())
    }

    /// Takes the lazy-rebuild decision once: rebuilds (and returns `true`)
    /// when the stale operations accumulated by deletions exceed
    /// `rebuild_fraction × len`. Companion of [`KdTree::delete_deferred`].
    pub fn maybe_rebuild(&mut self) -> bool {
        if (self.stale_ops as f64) > self.rebuild_fraction * (self.len.max(1) as f64) {
            let pts = self.points();
            self.rebuild_from(pts);
            true
        } else {
            false
        }
    }

    /// Stale (box-loosening) operations accumulated since the last
    /// rebuild; exposed for rebuild-scheduling diagnostics.
    pub fn stale_ops(&self) -> usize {
        self.stale_ops
    }

    /// Upper bound of `⟨u, q⟩` over the subtree at `node` (valid because
    /// `u ≥ 0`, so the box's upper corner maximises the inner product).
    #[inline]
    fn node_bound(&self, node: usize, u: &Utility) -> f64 {
        dot(
            &self.bounds[node * self.dim..(node + 1) * self.dim],
            u.weights(),
        )
    }

    /// Exact top-k query via best-first branch-and-bound. Results are in
    /// descending score order with the workspace tie-breaking (id
    /// ascending).
    pub fn top_k(&self, u: &Utility, k: usize) -> Vec<RankedPoint> {
        let mut frontier = std::collections::BinaryHeap::new();
        let mut scores = Vec::new();
        let mut best = Vec::with_capacity(k + 1);
        self.top_k_into(u, k, &mut frontier, &mut scores, &mut best);
        best
    }

    /// Exact top-k for a whole batch of utilities, amortising the
    /// branch-and-bound frontier allocation across queries. Results are
    /// in input order. Bulk counterpart of [`KdTree::top_k`]; callers
    /// that also need the ε-band membership use
    /// [`KdTree::top_k_approx_many`] instead.
    pub fn top_k_many<'a, I>(&self, utilities: I, k: usize) -> Vec<Vec<RankedPoint>>
    where
        I: IntoIterator<Item = &'a Utility>,
    {
        let mut frontier = std::collections::BinaryHeap::new();
        let mut scores = Vec::new();
        let mut out = Vec::new();
        for u in utilities {
            let mut best = Vec::with_capacity(k + 1);
            self.top_k_into(u, k, &mut frontier, &mut scores, &mut best);
            out.push(best);
        }
        out
    }

    /// [`KdTree::top_k`] writing into caller-provided buffers so repeated
    /// queries (the bulk paths) skip per-query allocation. `scores` is
    /// scratch for the per-leaf scoring kernel.
    fn top_k_into(
        &self,
        u: &Utility,
        k: usize,
        frontier: &mut std::collections::BinaryHeap<HeapEntry>,
        scores: &mut Vec<f64>,
        best: &mut Vec<RankedPoint>,
    ) {
        frontier.clear();
        best.clear();
        if k == 0 || self.len == 0 {
            return;
        }
        frontier.push(HeapEntry {
            bound: self.node_bound(self.root, u),
            node: self.root,
        });
        while let Some(HeapEntry { bound, node }) = frontier.pop() {
            if best.len() == k {
                let kth = &best[k - 1];
                // Even a tie cannot improve: equal score only displaces on
                // smaller id, which the bound cannot attest. Allow ties
                // through to preserve exact id-based ranking.
                if bound < kth.score {
                    break;
                }
            }
            let n = &self.nodes[node];
            if !n.is_leaf() {
                frontier.push(HeapEntry {
                    bound: self.node_bound(n.left as usize, u),
                    node: n.left as usize,
                });
                frontier.push(HeapEntry {
                    bound: self.node_bound(n.right as usize, u),
                    node: n.right as usize,
                });
                continue;
            }
            // Score the whole leaf block in one kernel sweep, then run
            // selection over the scalar results.
            n.coords.scores_into(u.weights(), scores);
            for (&id, &score) in n.ids.iter().zip(scores.iter()) {
                let candidate_better = best.len() < k || {
                    let kth = &best[k - 1];
                    better(score, id, kth.score, kth.id)
                };
                if candidate_better {
                    let rp = RankedPoint { id, score };
                    let pos = best
                        .binary_search_by(|probe| {
                            if better(probe.score, probe.id, rp.score, rp.id) {
                                Ordering::Less
                            } else {
                                Ordering::Greater
                            }
                        })
                        .unwrap_err();
                    best.insert(pos, rp);
                    if best.len() > k {
                        best.pop();
                    }
                }
            }
        }
    }

    /// All points with score `≥ threshold`, in unspecified order. Callers
    /// that need ranked output sort what they keep with
    /// [`rms_geom::rank_cmp`].
    pub fn above_threshold(&self, u: &Utility, threshold: f64) -> Vec<RankedPoint> {
        let mut stack = Vec::new();
        let mut scores = Vec::new();
        let mut out = Vec::new();
        self.above_threshold_into(u, threshold, &mut stack, &mut scores, &mut out);
        out
    }

    /// [`KdTree::above_threshold`] writing into caller-provided buffers so
    /// repeated queries (the bulk paths) skip per-query allocation.
    fn above_threshold_into(
        &self,
        u: &Utility,
        threshold: f64,
        stack: &mut Vec<usize>,
        scores: &mut Vec<f64>,
        out: &mut Vec<RankedPoint>,
    ) {
        stack.clear();
        out.clear();
        if self.len == 0 {
            return;
        }
        stack.push(self.root);
        while let Some(node) = stack.pop() {
            if self.node_bound(node, u) < threshold {
                continue;
            }
            let n = &self.nodes[node];
            if !n.is_leaf() {
                stack.push(n.left as usize);
                stack.push(n.right as usize);
                continue;
            }
            n.coords.scores_into(u.weights(), scores);
            for (&id, &score) in n.ids.iter().zip(scores.iter()) {
                if score >= threshold {
                    out.push(RankedPoint { id, score });
                }
            }
        }
    }

    /// The ε-approximate top-k `Φ_{k,ε}(u, P)`: all points with score at
    /// least `(1 − ε)·ω_k(u, P)`, descending. Also returns `ω_k` (the
    /// exact kth score) as the second component, or `None` when fewer than
    /// `k` points exist (then every point is returned).
    pub fn top_k_approx(&self, u: &Utility, k: usize, eps: f64) -> (Vec<RankedPoint>, Option<f64>) {
        let mut many = self.top_k_approx_many(std::iter::once(u), k, eps);
        many.pop().expect("one query in, one result out")
    }

    /// [`KdTree::top_k_approx`] for a whole batch of utilities, reusing
    /// traversal buffers across queries. Results are in input order, each
    /// band sorted descending: its exact top-k (the `Φ` prefix), the
    /// threshold, and the full ε-band membership in one shot, as an
    /// engine build needs them for every utility.
    pub fn top_k_approx_many<'a, I>(
        &self,
        utilities: I,
        k: usize,
        eps: f64,
    ) -> Vec<(Vec<RankedPoint>, Option<f64>)>
    where
        I: IntoIterator<Item = &'a Utility>,
    {
        let mut frontier = std::collections::BinaryHeap::new();
        let mut stack = Vec::new();
        let mut scores = Vec::new();
        let mut exact = Vec::with_capacity(k + 1);
        let mut out = Vec::new();
        for u in utilities {
            self.top_k_into(u, k, &mut frontier, &mut scores, &mut exact);
            if exact.len() < k {
                out.push((exact.clone(), None));
                continue;
            }
            let omega_k = exact[k - 1].score;
            let mut phi = Vec::new();
            self.above_threshold_into(u, (1.0 - eps) * omega_k, &mut stack, &mut scores, &mut phi);
            phi.sort_unstable_by(rank_cmp);
            out.push((phi, Some(omega_k)));
        }
        out
    }
}

/// Frontier entry ordered by bound (max-heap).
struct HeapEntry {
    bound: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .expect("finite bounds")
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rms_geom::{sample_utilities, top_k as brute_top_k, top_k_approx as brute_approx};

    fn random_points(rng: &mut StdRng, n: usize, d: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let c: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
                Point::new_unchecked(i as u64, c)
            })
            .collect()
    }

    #[test]
    fn topk_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = random_points(&mut rng, 500, 4);
        let tree = KdTree::build(4, pts.clone()).unwrap();
        for u in sample_utilities(&mut rng, 4, 30) {
            for k in [1, 3, 10] {
                let got = tree.top_k(&u, k);
                let want = brute_top_k(&pts, &u, k);
                assert_eq!(got, want, "k={k}");
            }
        }
    }

    #[test]
    fn threshold_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = random_points(&mut rng, 300, 3);
        let tree = KdTree::build(3, pts.clone()).unwrap();
        for u in sample_utilities(&mut rng, 3, 10) {
            let tau = 0.8;
            let mut got: Vec<_> = tree.above_threshold(&u, tau);
            got.sort_unstable_by(rank_cmp);
            let mut want: Vec<_> = pts
                .iter()
                .map(|p| RankedPoint {
                    id: p.id(),
                    score: u.score(p),
                })
                .filter(|r| r.score >= tau)
                .collect();
            want.sort_unstable_by(|a, b| {
                b.score.partial_cmp(&a.score).unwrap().then(a.id.cmp(&b.id))
            });
            assert_eq!(got, want);
        }
    }

    #[test]
    fn approx_topk_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = random_points(&mut rng, 400, 5);
        let tree = KdTree::build(5, pts.clone()).unwrap();
        for u in sample_utilities(&mut rng, 5, 10) {
            for (k, eps) in [(1, 0.05), (5, 0.01), (10, 0.2)] {
                let (got, omega) = tree.top_k_approx(&u, k, eps);
                let want = brute_approx(&pts, &u, k, eps);
                assert_eq!(got, want, "k={k} eps={eps}");
                assert!(omega.is_some());
            }
        }
    }

    #[test]
    fn bulk_queries_match_single_queries() {
        let mut rng = StdRng::seed_from_u64(13);
        let pts = random_points(&mut rng, 400, 4);
        let tree = KdTree::build(4, pts).unwrap();
        let us = sample_utilities(&mut rng, 4, 50);
        for k in [1, 4, 9] {
            let many = tree.top_k_many(us.iter(), k);
            assert_eq!(many.len(), us.len());
            for (u, got) in us.iter().zip(&many) {
                assert_eq!(*got, tree.top_k(u, k), "k={k}");
            }
            let approx_many = tree.top_k_approx_many(us.iter(), k, 0.05);
            for (u, got) in us.iter().zip(&approx_many) {
                let want = tree.top_k_approx(u, k, 0.05);
                assert_eq!(got.0, want.0, "k={k}");
                assert_eq!(got.1, want.1, "k={k}");
            }
        }
        // Empty input and k beyond the database size.
        assert!(tree.top_k_many(std::iter::empty(), 3).is_empty());
        let big = tree.top_k_approx_many(us.iter().take(2), 1_000, 0.1);
        for (phi, omega) in big {
            assert_eq!(phi.len(), 400);
            assert!(omega.is_none());
        }
    }

    #[test]
    fn inserts_keep_queries_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        let initial = random_points(&mut rng, 100, 3);
        let mut all = initial.clone();
        let mut tree = KdTree::build(3, initial).unwrap();
        for i in 0..300 {
            let p = Point::new_unchecked(1_000 + i, (0..3).map(|_| rng.gen()).collect());
            all.push(p.clone());
            tree.insert(p).unwrap();
        }
        assert_eq!(tree.len(), 400);
        for u in sample_utilities(&mut rng, 3, 10) {
            assert_eq!(tree.top_k(&u, 7), brute_top_k(&all, &u, 7));
        }
    }

    #[test]
    fn deletes_keep_queries_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts = random_points(&mut rng, 400, 4);
        let mut all = pts.clone();
        let mut tree = KdTree::build(4, pts).unwrap();
        // Delete 300 random points (triggers at least one rebuild).
        for _ in 0..300 {
            let i = rng.gen_range(0..all.len());
            let id = all.swap_remove(i).id();
            tree.delete(id).unwrap();
        }
        assert_eq!(tree.len(), 100);
        for u in sample_utilities(&mut rng, 4, 10) {
            assert_eq!(tree.top_k(&u, 5), brute_top_k(&all, &u, 5));
        }
    }

    #[test]
    fn mixed_workload_consistency() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut tree = KdTree::build(3, Vec::new()).unwrap();
        let mut all: Vec<Point> = Vec::new();
        let mut next = 0u64;
        for _ in 0..1500 {
            if all.is_empty() || rng.gen_bool(0.6) {
                let p = Point::new_unchecked(next, (0..3).map(|_| rng.gen()).collect());
                next += 1;
                all.push(p.clone());
                tree.insert(p).unwrap();
            } else {
                let i = rng.gen_range(0..all.len());
                let id = all.swap_remove(i).id();
                tree.delete(id).unwrap();
            }
        }
        assert_eq!(tree.len(), all.len());
        let u = Utility::new(vec![0.3, 0.5, 0.2]).unwrap();
        assert_eq!(tree.top_k(&u, 10), brute_top_k(&all, &u, 10));
    }

    #[test]
    fn deferred_deletes_rebuild_once_per_batch() {
        let mut rng = StdRng::seed_from_u64(17);
        let pts = random_points(&mut rng, 300, 3);
        let mut all = pts.clone();
        let mut tree = KdTree::build(3, pts).unwrap();
        // Delete two-thirds of the database deferred: with per-op
        // scheduling this would rebuild several times; deferred, stale
        // ops just accumulate and queries stay exact throughout.
        for _ in 0..200 {
            let i = rng.gen_range(0..all.len());
            let id = all.swap_remove(i).id();
            tree.delete_deferred(id).unwrap();
        }
        assert_eq!(tree.stale_ops(), 200);
        let u = Utility::new(vec![0.4, 0.3, 0.3]).unwrap();
        assert_eq!(tree.top_k(&u, 8), brute_top_k(&all, &u, 8));
        // One decision for the whole batch; it fires (200 > 0.5 × 100)
        // and resets the stale counter.
        assert!(tree.maybe_rebuild());
        assert_eq!(tree.stale_ops(), 0);
        assert!(!tree.maybe_rebuild());
        assert_eq!(tree.top_k(&u, 8), brute_top_k(&all, &u, 8));
        assert_eq!(
            tree.delete_deferred(999_999),
            Err(KdTreeError::UnknownId(999_999))
        );
    }

    /// Every leaf's lane-blocked coordinates stay row-aligned with its ids
    /// through inserts that split leaves, deletes and deferred deletes,
    /// and score bit-identically to `Utility::score`.
    #[test]
    fn leaf_blocks_stay_aligned_with_ids() {
        let mut rng = StdRng::seed_from_u64(31);
        let d = 5;
        let u = sample_utilities(&mut rng, d, 1).pop().unwrap();
        let mut all = random_points(&mut rng, 100, d);
        let mut tree = KdTree::build(d, all.clone()).unwrap();
        let check = |tree: &KdTree, all: &[Point]| {
            let model: HashMap<PointId, &Point> = all.iter().map(|p| (p.id(), p)).collect();
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut scores = Vec::new();
            let mut rows = 0;
            for node in tree.nodes.iter().filter(|n| n.is_leaf()) {
                node.coords.scores_into(u.weights(), &mut scores);
                assert_eq!(scores.len(), node.ids.len());
                for (i, (id, s)) in node.ids.iter().zip(&scores).enumerate() {
                    let p = model[id];
                    assert_eq!(bits(&node.coords.row(i)), bits(p.coords()), "id {id}");
                    assert_eq!(s.to_bits(), u.score(p).to_bits(), "id {id}");
                }
                rows += node.ids.len();
            }
            assert_eq!(rows, all.len());
        };
        check(&tree, &all);
        for i in 0..300 {
            let p = Point::new_unchecked(1_000 + i, (0..d).map(|_| rng.gen()).collect());
            all.push(p.clone());
            tree.insert(p).unwrap();
        }
        check(&tree, &all);
        for step in 0..250 {
            let id = all.swap_remove(rng.gen_range(0..all.len())).id();
            if step % 2 == 0 {
                tree.delete(id).unwrap();
            } else {
                tree.delete_deferred(id).unwrap();
            }
        }
        check(&tree, &all);
        tree.maybe_rebuild();
        check(&tree, &all);
    }

    #[test]
    fn error_paths() {
        let mut tree = KdTree::build(2, vec![Point::new_unchecked(0, vec![0.1, 0.2])]).unwrap();
        assert_eq!(
            tree.insert(Point::new_unchecked(0, vec![0.5, 0.5])),
            Err(KdTreeError::DuplicateId(0))
        );
        assert_eq!(tree.delete(7), Err(KdTreeError::UnknownId(7)));
        assert_eq!(
            tree.insert(Point::new_unchecked(1, vec![0.5])),
            Err(KdTreeError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        let dup = KdTree::build(
            2,
            vec![
                Point::new_unchecked(3, vec![0.0, 0.0]),
                Point::new_unchecked(3, vec![0.0, 0.1]),
            ],
        );
        assert_eq!(dup.err(), Some(KdTreeError::DuplicateId(3)));
    }

    #[test]
    fn empty_tree_queries() {
        let tree = KdTree::build(3, Vec::new()).unwrap();
        let u = Utility::new(vec![1.0, 1.0, 1.0]).unwrap();
        assert!(tree.top_k(&u, 5).is_empty());
        assert!(tree.above_threshold(&u, 0.0).is_empty());
        let (approx, omega) = tree.top_k_approx(&u, 3, 0.1);
        assert!(approx.is_empty());
        assert!(omega.is_none());
    }

    #[test]
    fn duplicate_coordinates_tie_break() {
        let pts = vec![
            Point::new_unchecked(9, vec![0.5, 0.5]),
            Point::new_unchecked(1, vec![0.5, 0.5]),
            Point::new_unchecked(5, vec![0.5, 0.5]),
        ];
        let tree = KdTree::build(2, pts).unwrap();
        let u = Utility::new(vec![1.0, 1.0]).unwrap();
        let ids: Vec<PointId> = tree.top_k(&u, 2).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 5]);
    }

    #[test]
    fn fewer_than_k_points() {
        let pts = vec![
            Point::new_unchecked(0, vec![0.1, 0.9]),
            Point::new_unchecked(1, vec![0.9, 0.1]),
        ];
        let tree = KdTree::build(2, pts).unwrap();
        let u = Utility::new(vec![1.0, 0.0]).unwrap();
        assert_eq!(tree.top_k(&u, 10).len(), 2);
        let (approx, omega) = tree.top_k_approx(&u, 5, 0.1);
        assert_eq!(approx.len(), 2);
        assert!(omega.is_none());
    }
}
