//! The FD-RMS maintenance algorithm (Algorithms 2–4 of the paper).

use crate::builder::{FdRmsBuilder, FdRmsError};
use crate::engine::BatchTables;
use crate::tuples::Tuples;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rms_geom::{rank_cmp, with_basis_prefix, Point, PointId, RankedPoint, Utility};
use rms_index::{ConeTree, KdTree};
use rms_setcover::{DynamicSetCover, ElemId, LevelBase};
use std::collections::{BTreeSet, HashMap};

/// Per-utility top-k maintenance state.
///
/// `exact` holds the exact top-k ranking (descending score, id-ascending
/// tie-break), `tau = (1 − ε)·ω_k` is the admission threshold of the
/// ε-approximate result `Φ_{k,ε}`; while fewer than `k` tuples exist the
/// threshold is 0 and `Φ` is the whole database.
#[derive(Debug, Clone, Default)]
pub(crate) struct TopKState {
    pub(crate) exact: Vec<RankedPoint>,
    pub(crate) tau: f64,
}

impl TopKState {
    fn recompute_tau(&mut self, k: usize, eps: f64) {
        self.tau = threshold(&self.exact, k, eps);
    }
}

/// The admission threshold `τ = (1 − ε)·ω_k` of an exact top-k list; 0
/// while it holds fewer than `k` tuples.
pub(crate) fn threshold(exact: &[RankedPoint], k: usize, eps: f64) -> f64 {
    if exact.len() < k {
        0.0
    } else {
        (1.0 - eps) * exact[k - 1].score
    }
}

/// Descending-score, ascending-id ordering used by the exact top-k lists.
#[inline]
pub(crate) fn rank_before(a_score: f64, a_id: PointId, b: &RankedPoint) -> bool {
    match a_score.partial_cmp(&b.score).expect("finite scores") {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a_id < b.id,
    }
}

/// The `k` best of `cands` in rank order, in a list allocated at length
/// `k`: a [`TopKState`] keeps it for the engine's lifetime.
pub(crate) fn top_k_of<'a>(
    cands: impl IntoIterator<Item = &'a RankedPoint>,
    k: usize,
) -> Vec<RankedPoint> {
    let mut best: Vec<RankedPoint> = Vec::with_capacity(k);
    merge_top_k(&mut best, cands, k);
    best
}

/// Merges `cands` into `best`, a rank-ordered list of at most `k`, in
/// place: `best` ends as the `k` best of both.
pub(crate) fn merge_top_k<'a>(
    best: &mut Vec<RankedPoint>,
    cands: impl IntoIterator<Item = &'a RankedPoint>,
    k: usize,
) {
    for rp in cands {
        if best.len() == k {
            if !rank_before(rp.score, rp.id, &best[k - 1]) {
                continue;
            }
            best.pop();
        }
        let pos = best.partition_point(|e| rank_before(e.score, e.id, rp));
        best.insert(pos, rp.clone());
    }
}

/// A utility's post-requery state (see [`requery`]).
pub(crate) struct Requery {
    /// The new exact top-k.
    pub(crate) exact: Vec<RankedPoint>,
    /// The new threshold `τ′`.
    pub(crate) tau: f64,
    /// Tuples scoring in `[τ′, τ)` that are not yet members of `Φ`, in
    /// rank order: the admissions a fallen threshold brings.
    pub(crate) entrants: Vec<RankedPoint>,
}

/// Brings a utility back to an exact top-k after it lost a member of
/// one, answering from its ε-band instead of a fresh index query.
///
/// `band` holds the utility's candidates at their current scores: every
/// live tuple scoring at least the old threshold `tau_old` must be among
/// them (Φ's surviving members, plus on the batched path the written
/// tuples that reached `tau_old`). Every other tuple scores below
/// `tau_old`, so when `k` candidates still clear it their best `k` are
/// the exact top-k. Otherwise (fewer than `k` survive) the kd-tree
/// answers the top-k. Only when `τ` fell is the tree walked, once, for
/// the non-members in `[τ′, tau_old)`; `is_member` tells which tuples `Φ`
/// already holds.
pub(crate) fn requery(
    kd: &KdTree,
    u: &Utility,
    k: usize,
    eps: f64,
    tau_old: f64,
    band: &[RankedPoint],
    is_member: impl Fn(PointId) -> bool,
) -> Requery {
    let mut exact = top_k_of(band, k);
    if exact.len() < k || exact[k - 1].score < tau_old {
        exact = kd.top_k(u, k);
    }
    let tau = threshold(&exact, k, eps);
    let mut entrants = Vec::new();
    if tau < tau_old {
        entrants = kd.above_threshold(u, tau);
        entrants.retain(|rp| rp.score < tau_old && !is_member(rp.id));
        entrants.sort_unstable_by(rank_cmp);
    }
    Requery {
        exact,
        tau,
        entrants,
    }
}

/// Fully dynamic k-RMS maintenance (see the crate docs for the scheme).
///
/// Single-tuple mutations ([`FdRms::insert`], [`FdRms::delete`],
/// [`FdRms::update`]) are routed through the batch update engine in
/// [`crate::engine`] as one-operation batches; multi-operation batches go
/// through [`FdRms::apply_batch`], which recomputes each affected utility
/// once, on the calling thread over working tables kept from batch to
/// batch, and defers set-cover stabilisation to one pass per batch.
///
/// The engine keeps one copy of each live tuple beside the kd-tree's: a
/// table whose rows are the set-cover slots the tuples' sets hold. Every
/// rescore of a utility's `Φ` members (the eviction scan of a rising
/// threshold, the ε-band of a requery) walks the utility's set row and
/// reads each member's id and attributes from that table.
#[derive(Debug)]
pub struct FdRms {
    pub(crate) d: usize,
    pub(crate) k: usize,
    pub(crate) r: usize,
    pub(crate) eps: f64,
    /// Upper bound `M` on the universe size.
    pub(crate) cap_m: usize,
    /// Current number of utility vectors in the set-cover universe.
    pub(crate) m: usize,
    pub(crate) utilities: Vec<Utility>,
    pub(crate) topk: Vec<TopKState>,
    pub(crate) kd: KdTree,
    pub(crate) cone: ConeTree,
    pub(crate) cover: DynamicSetCover,
    /// The live tuples, one row per set-cover slot.
    pub(crate) tuples: Tuples,
    /// Universe indices `< m` that were dropped as uncoverable (only
    /// possible while the database is empty); re-admitted on insertion.
    pub(crate) pending: BTreeSet<ElemId>,
    /// Operation counter (diagnostics).
    pub(crate) ops: u64,
    /// Per-structure instrumentation.
    pub(crate) stats: UpdateStats,
    /// [`FdRms::apply_batch`]'s working tables, reused across batches.
    pub(crate) batch: BatchTables,
}

/// Cumulative instrumentation counters, exported for observability and
/// read by the benchmark's per-layer figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Multi-operation batches applied through the engine's batched path
    /// (single-operation batches are routed to the classic per-op path
    /// and do not count).
    pub batches: u64,
    /// Total utility vectors whose top-k result changed (`Σ u(Δ_t)` in the
    /// paper's complexity analysis).
    pub affected_utilities: u64,
    /// Total tuples evicted from some `Φ_{k,ε}` because a threshold rose.
    pub evictions: u64,
    /// Total tuples admitted into some `Φ_{k,ε}` because a threshold fell.
    pub admissions: u64,
    /// Utilities that lost an exact top-k member, so their top-k was
    /// requeried: from the surviving `Φ` members, or from the tuple
    /// index when fewer than `k` survive. Counted per utility whichever
    /// answers.
    pub topk_requeries: u64,
    /// Times UPDATE-M grew the universe.
    pub m_grow_steps: u64,
    /// Times UPDATE-M shrank the universe.
    pub m_shrink_steps: u64,
}

impl FdRms {
    /// Starts building an FD-RMS instance over `d`-dimensional tuples.
    pub fn builder(d: usize) -> FdRmsBuilder {
        FdRmsBuilder::new(d)
    }

    // ------------------------------------------------------------------
    // Algorithm 2: INITIALIZATION
    // ------------------------------------------------------------------

    pub(crate) fn initialize(
        cfg: &FdRmsBuilder,
        mut initial: Vec<Point>,
    ) -> Result<Self, FdRmsError> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let utilities = with_basis_prefix(&mut rng, cfg.d, cfg.max_utilities);
        let mut memberships: HashMap<PointId, Vec<ElemId>> =
            initial.iter().map(|p| (p.id(), Vec::new())).collect();
        let kd = KdTree::build(cfg.d, initial.clone()).map_err(|e| match e {
            rms_index::KdTreeError::DuplicateId(id) => FdRmsError::DuplicateId(id),
            rms_index::KdTreeError::DimensionMismatch { expected, got } => {
                FdRmsError::DimensionMismatch { expected, got }
            }
            rms_index::KdTreeError::UnknownId(id) => FdRmsError::UnknownId(id),
        })?;
        let cone = ConeTree::build(utilities.clone());
        let mut fd = Self {
            d: cfg.d,
            k: cfg.k,
            r: cfg.r,
            eps: cfg.epsilon,
            cap_m: cfg.max_utilities,
            m: cfg.r,
            utilities,
            topk: vec![TopKState::default(); cfg.max_utilities],
            kd,
            cone,
            // The paper's level base b = 2 (footnote 2).
            cover: DynamicSetCover::new(LevelBase::TWO),
            tuples: Tuples::new(cfg.d),
            pending: BTreeSet::new(),
            ops: 0,
            stats: UpdateStats::default(),
            batch: BatchTables::default(),
        };

        // Compute Φ_{k,ε}(u_i, P0) for every i ∈ [1, M] and build the full
        // membership (tuple → utilities it approximates).
        for i in 0..fd.cap_m {
            let (phi, _omega) = fd.kd.top_k_approx(&fd.utilities[i], fd.k, fd.eps);
            let exact_len = fd.k.min(phi.len());
            fd.topk[i].exact = phi[..exact_len].to_vec();
            fd.topk[i].recompute_tau(fd.k, fd.eps);
            fd.cone.set_threshold(i, fd.topk[i].tau);
            for rp in &phi {
                memberships
                    .get_mut(&rp.id)
                    .expect("Φ members are live tuples")
                    .push(i as ElemId);
            }
        }
        // Sets enter in id order: the cover's rows keep call order, so
        // the maintained solution then depends only on the input. Each
        // tuple's row goes to the slot its set was handed.
        let mut memberships: Vec<(PointId, Vec<ElemId>)> = memberships.into_iter().collect();
        memberships.sort_unstable_by_key(|(pid, _)| *pid);
        initial.sort_unstable_by_key(Point::id);
        for (p, (pid, members)) in initial.iter().zip(memberships) {
            debug_assert_eq!(p.id(), pid);
            fd.cover
                .insert_set(pid, members)
                .expect("fresh tuple ids are unique");
            let slot = fd.cover.slot(pid).expect("set just inserted");
            fd.tuples.write(slot, p);
        }

        // Binary search m ∈ [r, M] so that the greedy cover has size r
        // (Lines 3–14). |C| grows with m; we keep the largest probe whose
        // cover size does not exceed r.
        if fd.kd.is_empty() {
            fd.m = cfg.r;
            fd.cover.reset_universe(std::iter::empty());
            fd.pending = (0..cfg.r as ElemId).collect();
            return Ok(fd);
        }
        let (mut lo, mut hi) = (cfg.r, cfg.max_utilities);
        let mut best_m = cfg.r;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            fd.cover.reset_universe(0..mid as ElemId);
            fd.cover.greedy().expect("every utility has a top-1 tuple");
            let size = fd.cover.solution_size();
            if size < fd.r {
                best_m = mid;
                lo = mid + 1;
            } else if size > fd.r {
                hi = mid - 1;
            } else {
                best_m = mid;
                break;
            }
        }
        if fd.cover.universe_size() != best_m {
            fd.cover.reset_universe(0..best_m as ElemId);
            fd.cover.greedy().expect("every utility has a top-1 tuple");
        }
        fd.m = best_m;
        Ok(fd)
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// The current k-RMS result `Q_t` (tuples whose sets form the cover),
    /// sorted by id.
    pub fn result(&self) -> Vec<Point> {
        let mut out: Vec<Point> = self
            .cover
            .solution()
            .map(|pid| self.tuple(pid).expect("solution sets are live tuples"))
            .collect();
        out.sort_unstable_by_key(Point::id);
        out
    }

    /// Live tuple `id`, read from its table row.
    pub(crate) fn tuple(&self, id: PointId) -> Option<Point> {
        self.cover.slot(id).map(|s| self.tuples.point(s))
    }

    /// Ids of the current result.
    pub fn result_ids(&self) -> Vec<PointId> {
        let mut out: Vec<PointId> = self.cover.solution().collect();
        out.sort_unstable();
        out
    }

    /// Number of live tuples `n_t`.
    pub fn len(&self) -> usize {
        self.kd.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.kd.is_empty()
    }

    /// The configured dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The rank depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The result size budget `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// The top-k approximation factor ε.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// The current universe size `m` (number of utility vectors the cover
    /// is defined over).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The upper bound `M` on `m`.
    pub fn max_utilities(&self) -> usize {
        self.cap_m
    }

    /// Whether tuple `id` is live.
    pub fn contains(&self, id: PointId) -> bool {
        self.cover.has_set(id)
    }

    /// A copy of the live database, sorted by id. Snapshot-extraction
    /// hook for the serving layer (regret estimation needs the full point
    /// set); `O(n)` — call per published snapshot, not per operation.
    pub fn live_points(&self) -> Vec<Point> {
        let mut out: Vec<Point> = self
            .tuples
            .live_slots()
            .map(|s| self.tuples.point(s))
            .collect();
        out.sort_unstable_by_key(Point::id);
        out
    }

    /// Number of operations applied since construction.
    pub fn operations(&self) -> u64 {
        self.ops
    }

    /// Cumulative STABILIZE element moves.
    pub fn stabilize_moves(&self) -> u64 {
        self.cover.stabilize_moves()
    }

    /// Cumulative instrumentation counters.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Replaces the attributes of a live tuple: the paper models an
    /// update as a deletion followed by an insertion (Section II-B), and
    /// so does this method. The tuple keeps its id. When the new
    /// attributes equal the stored tuple's, the call short-circuits to a
    /// no-op instead of paying the delete+insert cycle.
    pub fn update(&mut self, p: Point) -> Result<(), FdRmsError> {
        self.apply_batch(vec![crate::engine::Op::Update(p)])
            .map(|_| ())
    }

    /// The classic single-tuple update path (delete + insert), with the
    /// equal-attributes short-circuit. Returns `false` when the update was
    /// a no-op.
    pub(crate) fn update_one(&mut self, p: &Point) -> Result<bool, FdRmsError> {
        // Dimension before id-existence, the uniform precedence across
        // every verb and both the single-op and batched paths.
        if p.dim() != self.d {
            return Err(FdRmsError::DimensionMismatch {
                expected: self.d,
                got: p.dim(),
            });
        }
        let Some(slot) = self.cover.slot(p.id()) else {
            return Err(FdRmsError::UnknownId(p.id()));
        };
        if self.tuples.coords(slot) == p.coords() {
            return Ok(false);
        }
        self.delete_one(p.id()).expect("checked live above");
        self.insert_one(p).expect("id just freed");
        Ok(true)
    }

    /// Solves the **min-size** variant referenced in the related work
    /// (\[3\], \[19\]): the smallest subset whose maximum k-regret ratio is at
    /// most ε (with respect to the full sampled net of `M` utility
    /// vectors, not just the tuned prefix `m`). Runs greedy set cover on
    /// a clone of the maintained system, so the dynamic state is
    /// untouched. Cost is one greedy pass — `O(r'·n)` — so call it on
    /// demand, not per update.
    pub fn min_size_result(&self) -> Vec<Point> {
        if self.kd.is_empty() {
            return Vec::new();
        }
        let mut cover = self.cover.clone();
        cover.reset_universe(0..self.cap_m as ElemId);
        cover.greedy().expect("every utility has a top-1 tuple");
        let mut out: Vec<Point> = cover
            .solution()
            .map(|pid| self.tuple(pid).expect("solution sets are live tuples"))
            .collect();
        out.sort_unstable_by_key(Point::id);
        out
    }

    // ------------------------------------------------------------------
    // Algorithm 3: UPDATE — insertion
    // ------------------------------------------------------------------

    /// Applies `Δ_t = 〈p, +〉` and re-balances the result to size `r`.
    pub fn insert(&mut self, p: Point) -> Result<(), FdRmsError> {
        self.apply_batch(vec![crate::engine::Op::Insert(p)])
            .map(|_| ())
    }

    /// The classic single-insert path (Algorithm 3, insertion).
    pub(crate) fn insert_one(&mut self, p: &Point) -> Result<(), FdRmsError> {
        if p.dim() != self.d {
            return Err(FdRmsError::DimensionMismatch {
                expected: self.d,
                got: p.dim(),
            });
        }
        if self.cover.has_set(p.id()) {
            return Err(FdRmsError::DuplicateId(p.id()));
        }
        self.ops += 1;
        let pid = p.id();
        self.kd.insert(p.clone()).expect("id vetted above");

        // Utilities whose ε-approximate top-k admits p (one blocked scan
        // of every threshold; thresholds are 0 while fewer than k tuples
        // exist, so those utilities always appear).
        let affected = self.cone.affected_by(p);
        self.stats.affected_utilities += affected.len() as u64;

        // p joins Φ_{k,ε}(u_i) for every affected i: register S(p) first
        // so evicted utilities can be reassigned into it, then write p's
        // row at the slot S(p) was handed.
        self.cover
            .insert_set(pid, affected.iter().map(|&i| i as ElemId))
            .expect("id vetted above");
        let slot = self.cover.slot(pid).expect("set just inserted");
        self.tuples.write(slot, p);

        let mut evicted: Vec<PointId> = Vec::new();
        for &i in &affected {
            let score = self.utilities[i].score(p);
            let k = self.k;
            let st = &mut self.topk[i];
            // Does p enter the exact top-k?
            let enters =
                st.exact.len() < k || rank_before(score, pid, &st.exact[st.exact.len() - 1]);
            if enters {
                let pos = st.exact.partition_point(|e| {
                    rank_before(e.score, e.id, &RankedPoint { id: pid, score })
                });
                st.exact.insert(pos, RankedPoint { id: pid, score });
                st.exact.truncate(k);
                let old_tau = st.tau;
                st.recompute_tau(k, self.eps);
                let new_tau = st.tau;
                if new_tau > old_tau {
                    // ω_k increased: evict Φ members that fell below the
                    // new threshold (the "series of deletions" of the
                    // insertion path, Lines 5–8 of Algorithm 3), rescored
                    // from the table along the utility's set row. The
                    // evictions follow row order as the row stood.
                    let (u, tuples) = (&self.utilities[i], &self.tuples);
                    evicted.clear();
                    evicted.extend(
                        self.cover
                            .slots_containing(i as ElemId)
                            .iter()
                            .filter(|&&q| q != slot && u.score_coords(tuples.coords(q)) < new_tau)
                            .map(|&q| tuples.id(q)),
                    );
                    for &q_id in &evicted {
                        self.stats.evictions += 1;
                        let kept = self
                            .cover
                            .remove_from_set(i as ElemId, q_id)
                            .expect("member sets exist");
                        debug_assert!(
                            kept || i >= self.m,
                            "universe element lost its last set during insert"
                        );
                    }
                    self.cone.set_threshold(i, new_tau);
                }
            }
        }

        // Re-admit any pending universe elements now that coverage exists.
        self.readmit_pending();

        if self.cover.solution_size() != self.r {
            self.update_m();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Algorithm 3: UPDATE — deletion
    // ------------------------------------------------------------------

    /// Applies `Δ_t = 〈p, −〉` and re-balances the result to size `r`.
    pub fn delete(&mut self, pid: PointId) -> Result<(), FdRmsError> {
        self.apply_batch(vec![crate::engine::Op::Delete(pid)])
            .map(|_| ())
    }

    /// The classic single-delete path (Algorithm 3, deletion).
    pub(crate) fn delete_one(&mut self, pid: PointId) -> Result<(), FdRmsError> {
        let Some(slot) = self.cover.slot(pid) else {
            return Err(FdRmsError::UnknownId(pid));
        };
        self.ops += 1;
        self.kd.delete(pid).expect("cover and kd agree");
        self.tuples.kill(slot);

        // Utilities whose Φ contained p — exactly the members of S(p).
        let affected: Vec<usize> = self
            .cover
            .members(pid)
            .map(|m| m.iter().map(|&u| u as usize).collect())
            .unwrap_or_default();
        self.stats.affected_utilities += affected.len() as u64;

        let mut band: Vec<RankedPoint> = Vec::new();
        for &i in &affected {
            let st = &self.topk[i];
            if !st.exact.iter().any(|e| e.id == pid) {
                // p sat only in the ε-band: Φ loses p (handled by the set
                // removal below); thresholds are unchanged.
                continue;
            }
            // ω_k may drop: recompute the exact top-k from Φ's survivors,
            // rescored from the table (S(p) is still registered, so skip
            // p's slot), and admit the tuples that now clear the lower
            // threshold (the "series of insertions" of the deletion path,
            // Lines 9–12).
            self.stats.topk_requeries += 1;
            let u = &self.utilities[i];
            let elem = i as ElemId;
            band.clear();
            band.extend(
                self.cover
                    .slots_containing(elem)
                    .iter()
                    .filter(|&&q| q != slot)
                    .map(|&q| RankedPoint {
                        id: self.tuples.id(q),
                        score: u.score_coords(self.tuples.coords(q)),
                    }),
            );
            let Requery {
                exact,
                tau,
                entrants,
            } = requery(&self.kd, u, self.k, self.eps, st.tau, &band, |q| {
                self.cover.set_contains(q, elem)
            });
            for rp in entrants {
                self.stats.admissions += 1;
                self.cover
                    .add_to_set(elem, rp.id)
                    .expect("entrant tuples are live");
            }
            self.cone.set_threshold(i, tau);
            self.topk[i] = TopKState { exact, tau };
        }

        // Remove S(p); covered utilities are reassigned to the sets that
        // now contain them. Drops only happen when the database emptied.
        let dropped = self
            .cover
            .remove_set(pid)
            .expect("set registered at insert");
        for u in dropped {
            debug_assert!(self.kd.is_empty(), "drop with nonempty database");
            self.pending.insert(u);
        }
        if self.kd.is_empty() {
            for i in 0..self.cap_m {
                self.topk[i] = TopKState::default();
                self.cone.set_threshold(i, 0.0);
            }
            return Ok(());
        }

        if self.cover.solution_size() != self.r {
            self.update_m();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Algorithm 4: UPDATE-M
    // ------------------------------------------------------------------

    /// Grows or shrinks the universe one utility vector at a time until
    /// the cover size returns to `r` (or the bounds `r ≤ m ≤ M` bind).
    pub(crate) fn update_m(&mut self) {
        if self.kd.is_empty() {
            return;
        }
        if self.cover.solution_size() < self.r {
            while self.m < self.cap_m && self.cover.solution_size() < self.r {
                let u = self.m as ElemId;
                self.m += 1;
                self.stats.m_grow_steps += 1;
                self.admit(u);
            }
        } else if self.cover.solution_size() > self.r {
            while self.cover.solution_size() > self.r && self.m > self.r {
                self.m -= 1;
                self.stats.m_shrink_steps += 1;
                let u = self.m as ElemId;
                if self.pending.remove(&u) {
                    continue;
                }
                self.cover
                    .remove_element(u)
                    .expect("universe elements ≤ m are admitted or pending");
            }
        }
    }

    /// Adds utility index `u` to the set-cover universe (its memberships
    /// are maintained for all `M` vectors, so admission is just an element
    /// insertion).
    fn admit(&mut self, u: ElemId) {
        match self.cover.insert_element(u) {
            Ok(()) => {}
            Err(rms_setcover::CoverError::UncoverableElement(_)) => {
                // Database must be empty for a top-k result to be empty;
                // remember the element for later.
                self.pending.insert(u);
            }
            Err(e) => unreachable!("admit({u}): {e}"),
        }
    }

    /// Re-admits pending universe elements whose coverage returned.
    pub(crate) fn readmit_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let m = self.m as ElemId;
        let candidates: Vec<ElemId> = self.pending.range(..m).copied().collect();
        for u in candidates {
            if self.cover.sets_containing(u).len() > 0 {
                self.pending.remove(&u);
                self.admit(u);
            }
        }
    }

    // ------------------------------------------------------------------
    // Verification
    // ------------------------------------------------------------------

    /// Exhaustive internal-consistency check for tests: the tuple table
    /// matches the kd-tree, top-k states match brute-force recomputation,
    /// memberships match Φ, the cover is stable, and the universe is
    /// `{0..m} \ pending`.
    ///
    /// The reference database is the kd-tree's copy, not the table: a
    /// stale row would mislead the engine and a check that read it alike.
    pub fn check_invariants(&self) -> Result<(), String> {
        let all: Vec<Point> = self.kd.points();
        // Exactly one cover set per live tuple, whose slot's row holds
        // the tuple bit for bit; no other set and no other live row.
        for p in &all {
            let Some(slot) = self.cover.slot(p.id()) else {
                return Err(format!("live tuple {} has no cover set", p.id()));
            };
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let row_ok = self.tuples.is_live(slot)
                && self.tuples.id(slot) == p.id()
                && bits(self.tuples.coords(slot)) == bits(p.coords());
            if !row_ok {
                return Err(format!(
                    "live tuple {}: row {slot} disagrees with the kd-tree",
                    p.id()
                ));
            }
        }
        if self.cover.num_sets() != all.len() {
            return Err(format!(
                "{} cover sets for {} live tuples",
                self.cover.num_sets(),
                all.len()
            ));
        }
        let rows = self.tuples.live_slots().count();
        if rows != all.len() {
            return Err(format!("{rows} live rows for {} live tuples", all.len()));
        }
        for i in 0..self.cap_m {
            let u = &self.utilities[i];
            let want_exact = rms_geom::top_k(&all, u, self.k);
            if self.topk[i].exact != want_exact {
                return Err(format!("utility {i}: exact top-k out of date"));
            }
            let want_tau = if want_exact.len() < self.k {
                0.0
            } else {
                (1.0 - self.eps) * want_exact[self.k - 1].score
            };
            if (self.topk[i].tau - want_tau).abs() > 1e-9 {
                return Err(format!(
                    "utility {i}: tau {} != {want_tau}",
                    self.topk[i].tau
                ));
            }
            // Membership = Φ_{k,ε}.
            let want_phi: std::collections::HashSet<PointId> =
                rms_geom::top_k_approx(&all, u, self.k, self.eps)
                    .into_iter()
                    .map(|rp| rp.id)
                    .collect();
            for p in &all {
                let has = self.cover.set_contains(p.id(), i as ElemId);
                let want = want_phi.contains(&p.id());
                if has != want {
                    return Err(format!(
                        "utility {i}, tuple {}: membership {has}, want {want}",
                        p.id()
                    ));
                }
            }
        }
        // Universe book-keeping.
        let want_universe = self.m - self.pending.range(..self.m as ElemId).count();
        if self.cover.universe_size() != want_universe {
            return Err(format!(
                "universe size {} != m − pending = {want_universe}",
                self.cover.universe_size()
            ));
        }
        if !all.is_empty() && !self.pending.is_empty() {
            return Err("pending elements with nonempty database".into());
        }
        self.cover.check_invariants()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::Rng;

    fn fig1_points() -> Vec<Point> {
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

    fn random_points(seed: u64, n: usize, d: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
            .collect()
    }

    #[test]
    fn example3_shape_on_fig1() {
        // The paper's Example 3 runs RMS(1, 3) on the Fig. 1 data with
        // m up to 9 and gets Q0 = {p1, p2, p4}. Our sampled utilities
        // differ, but the result must be 3 skyline tuples with near-zero
        // 1-regret.
        let fd = FdRms::builder(2)
            .k(1)
            .r(3)
            .epsilon(0.002)
            .max_utilities(64)
            .seed(1)
            .build(fig1_points())
            .unwrap();
        let q = fd.result();
        assert!(q.len() <= 3);
        fd.check_invariants().unwrap();
        let mrr = rms_eval::max_regret_ratio(&fig1_points(), &q, 1, 10_000, 9);
        assert!(mrr < 0.1, "mrr {mrr}");
    }

    #[test]
    fn initialization_respects_r() {
        let pts = random_points(3, 300, 3);
        for r in [3, 5, 10] {
            let fd = FdRms::builder(3)
                .r(r)
                .max_utilities(512)
                .build(pts.clone())
                .unwrap();
            assert!(fd.result().len() <= r, "r={r}");
            fd.check_invariants().unwrap();
        }
    }

    #[test]
    fn insert_maintains_invariants() {
        let pts = random_points(5, 120, 3);
        let mut fd = FdRms::builder(3)
            .r(5)
            .max_utilities(256)
            .build(pts)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..40 {
            let p = Point::new_unchecked(1000 + i, (0..3).map(|_| rng.gen()).collect());
            fd.insert(p).unwrap();
            if i % 10 == 0 {
                fd.check_invariants().unwrap();
            }
        }
        fd.check_invariants().unwrap();
        assert_eq!(fd.len(), 160);
        assert!(fd.result().len() <= 5);
    }

    #[test]
    fn delete_maintains_invariants() {
        let pts = random_points(7, 150, 3);
        let mut fd = FdRms::builder(3)
            .r(5)
            .max_utilities(256)
            .build(pts.clone())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut live: Vec<PointId> = pts.iter().map(|p| p.id()).collect();
        for i in 0..60 {
            let idx = rng.gen_range(0..live.len());
            let id = live.swap_remove(idx);
            fd.delete(id).unwrap();
            if i % 15 == 0 {
                fd.check_invariants().unwrap();
            }
        }
        fd.check_invariants().unwrap();
        assert_eq!(fd.len(), 90);
    }

    #[test]
    fn mixed_workload_quality_tracks_recompute() {
        // After many updates, the maintained result must stay close (in
        // mrr) to a from-scratch rebuild with identical parameters.
        let pts = random_points(11, 200, 3);
        let mut fd = FdRms::builder(3)
            .r(8)
            .epsilon(0.05)
            .max_utilities(512)
            .seed(3)
            .build(pts.clone())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut live = pts;
        let mut next_id = 10_000u64;
        for _ in 0..120 {
            if live.len() < 20 || rng.gen_bool(0.55) {
                let p = Point::new_unchecked(next_id, (0..3).map(|_| rng.gen()).collect());
                next_id += 1;
                live.push(p.clone());
                fd.insert(p).unwrap();
            } else {
                let idx = rng.gen_range(0..live.len());
                let id = live.swap_remove(idx).id();
                fd.delete(id).unwrap();
            }
        }
        fd.check_invariants().unwrap();
        let maintained = fd.result();
        let rebuilt = FdRms::builder(3)
            .r(8)
            .epsilon(0.05)
            .max_utilities(512)
            .seed(3)
            .build(live.clone())
            .unwrap()
            .result();
        let est = rms_eval::RegretEstimator::new(3, 20_000, 5);
        let mrr_maint = est.mrr(&live, &maintained, 1);
        let mrr_rebuild = est.mrr(&live, &rebuilt, 1);
        assert!(
            mrr_maint <= mrr_rebuild + 0.1,
            "maintained {mrr_maint} vs rebuilt {mrr_rebuild}"
        );
    }

    #[test]
    fn drain_to_empty_and_refill() {
        let pts = random_points(21, 30, 2);
        let mut fd = FdRms::builder(2)
            .r(3)
            .max_utilities(64)
            .build(pts.clone())
            .unwrap();
        for p in &pts {
            fd.delete(p.id()).unwrap();
        }
        assert!(fd.is_empty());
        assert!(fd.result().is_empty());
        fd.check_invariants().unwrap();
        // Refill.
        for p in &pts {
            fd.insert(p.clone()).unwrap();
        }
        fd.check_invariants().unwrap();
        assert_eq!(fd.len(), 30);
        assert!(!fd.result().is_empty());
        assert!(fd.result().len() <= 3);
    }

    #[test]
    fn update_errors() {
        let pts = random_points(31, 20, 2);
        let mut fd = FdRms::builder(2)
            .r(3)
            .max_utilities(64)
            .build(pts.clone())
            .unwrap();
        assert_eq!(
            fd.insert(pts[0].clone()),
            Err(FdRmsError::DuplicateId(pts[0].id()))
        );
        assert_eq!(fd.delete(999), Err(FdRmsError::UnknownId(999)));
        assert_eq!(
            fd.insert(Point::new_unchecked(500, vec![0.1, 0.2, 0.3])),
            Err(FdRmsError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(fd.operations(), 0);
    }

    #[test]
    fn k_greater_than_one() {
        let pts = random_points(41, 150, 3);
        let mut fd = FdRms::builder(3)
            .k(3)
            .r(6)
            .epsilon(0.05)
            .max_utilities(256)
            .build(pts)
            .unwrap();
        fd.check_invariants().unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..30 {
            let p = Point::new_unchecked(5000 + i, (0..3).map(|_| rng.gen()).collect());
            fd.insert(p).unwrap();
        }
        for id in 0..30u64 {
            fd.delete(id).unwrap();
        }
        fd.check_invariants().unwrap();
        assert!(fd.result().len() <= 6);
    }

    #[test]
    fn update_replaces_attributes_in_place() {
        let pts = random_points(61, 80, 2);
        let mut fd = FdRms::builder(2).r(3).max_utilities(64).build(pts).unwrap();
        // Update tuple 0 to dominate everything: it must enter the result.
        fd.update(Point::new_unchecked(0, vec![1.0, 1.0])).unwrap();
        fd.check_invariants().unwrap();
        assert!(fd.result_ids().contains(&0));
        assert_eq!(fd.len(), 80);
        // Unknown id and wrong dimension are rejected.
        assert_eq!(
            fd.update(Point::new_unchecked(9999, vec![0.5, 0.5])),
            Err(FdRmsError::UnknownId(9999))
        );
        assert_eq!(
            fd.update(Point::new_unchecked(0, vec![0.5])),
            Err(FdRmsError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn stats_accumulate() {
        let pts = random_points(71, 100, 3);
        let mut fd = FdRms::builder(3)
            .r(4)
            .max_utilities(128)
            .build(pts)
            .unwrap();
        assert_eq!(fd.stats(), UpdateStats::default());
        let mut rng = StdRng::seed_from_u64(72);
        for i in 0..20 {
            fd.insert(Point::new_unchecked(
                1000 + i,
                (0..3).map(|_| rng.gen()).collect(),
            ))
            .unwrap();
            fd.delete(i).unwrap();
        }
        let s = fd.stats();
        assert!(s.affected_utilities > 0);
        assert!(s.topk_requeries > 0);
    }

    #[test]
    fn min_size_result_has_eps_quality() {
        let pts = random_points(81, 150, 3);
        let eps = 0.08;
        let fd = FdRms::builder(3)
            .r(3)
            .epsilon(eps)
            .max_utilities(256)
            .build(pts.clone())
            .unwrap();
        let q = fd.min_size_result();
        assert!(!q.is_empty());
        // Quality over the sampled net: by construction the set covers all
        // M utilities within eps; the Monte-Carlo estimate over *fresh*
        // directions should be near eps (allow net-resolution slack).
        let mrr = rms_eval::max_regret_ratio(&pts, &q, 1, 5_000, 9);
        assert!(mrr < eps + 0.1, "min-size mrr {mrr}");
        // The maintained (size-capped) state is untouched.
        fd.check_invariants().unwrap();
        assert!(fd.result().len() <= 3);
    }

    #[test]
    fn result_is_subset_of_live_points() {
        let pts = random_points(51, 100, 2);
        let mut fd = FdRms::builder(2)
            .r(4)
            .max_utilities(128)
            .build(pts)
            .unwrap();
        for id in 0..50u64 {
            fd.delete(id).unwrap();
            for p in fd.result() {
                assert!(fd.contains(p.id()));
            }
        }
    }

    #[test]
    fn empty_initialization() {
        let mut fd = FdRms::builder(2)
            .r(2)
            .max_utilities(32)
            .build(Vec::new())
            .unwrap();
        assert!(fd.is_empty());
        assert!(fd.result().is_empty());
        fd.insert(Point::new_unchecked(0, vec![0.5, 0.5])).unwrap();
        fd.insert(Point::new_unchecked(1, vec![0.9, 0.1])).unwrap();
        fd.check_invariants().unwrap();
        assert_eq!(fd.result().len().min(2), fd.result().len());
        assert!(!fd.result().is_empty());
    }

    #[test]
    fn check_invariants_requires_one_cover_set_per_tuple() {
        let build = || {
            FdRms::builder(2)
                .r(4)
                .max_utilities(64)
                .build(random_points(61, 40, 2))
                .unwrap()
        };
        // A set for an id that is no live tuple.
        let mut fd = build();
        fd.check_invariants().unwrap();
        fd.cover.insert_set(10_000, []).unwrap();
        let err = fd.check_invariants().unwrap_err();
        assert!(err.contains("41 cover sets for 40 live tuples"), "{err}");
        // A live tuple whose set was swapped for a stray one. The tuple is
        // in no Φ, so only the per-tuple check can notice.
        let mut fd = build();
        let id = fd
            .live_points()
            .iter()
            .map(Point::id)
            .find(|&id| fd.cover.members(id).is_some_and(|m| m.is_empty()))
            .expect("a dominated tuple");
        fd.cover.remove_set(id).unwrap();
        fd.cover.insert_set(10_000, []).unwrap();
        let err = fd.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("live tuple {id} has no cover set")),
            "{err}"
        );
    }

    #[test]
    fn check_invariants_compares_rows_with_the_kd_tree() {
        let build = || {
            FdRms::builder(2)
                .r(4)
                .max_utilities(64)
                .build(random_points(62, 40, 2))
                .unwrap()
        };
        let slot = |fd: &FdRms, id| fd.cover.slot(id).unwrap();
        // A row whose attributes drifted from the kd-tree's copy, by the
        // last bit of one coordinate.
        let mut fd = build();
        let mut coords = fd.tuple(7).unwrap().coords().to_vec();
        coords[1] = f64::from_bits(coords[1].to_bits() + 1);
        fd.tuples
            .write(slot(&fd, 7), &Point::new_unchecked(7, coords));
        let err = fd.check_invariants().unwrap_err();
        assert!(err.contains("live tuple 7: row"), "{err}");
        // A live tuple's row marked dead.
        let mut fd = build();
        fd.tuples.kill(slot(&fd, 9));
        let err = fd.check_invariants().unwrap_err();
        assert!(err.contains("live tuple 9: row"), "{err}");
        // A live row at a slot no set holds (the 40 sets hold 0..40).
        let mut fd = build();
        let p = fd.tuple(3).unwrap();
        fd.tuples.write(40, &p.with_id(10_000));
        let err = fd.check_invariants().unwrap_err();
        assert!(err.contains("41 live rows for 40 live tuples"), "{err}");
    }

    // ------------------------------------------------------------------
    // Deletion requeries answered from the ε-band
    // ------------------------------------------------------------------

    /// Tuples on the x-axis: every utility with a positive first weight
    /// ranks them by `x`, and utility 0 (the first basis vector) scores
    /// each one exactly its `x`.
    fn on_axis(xs: &[(PointId, f64)]) -> Vec<Point> {
        xs.iter()
            .map(|&(id, x)| Point::new_unchecked(id, vec![x, 0.0]))
            .collect()
    }

    fn axis_engine(xs: &[(PointId, f64)]) -> FdRms {
        FdRms::builder(2)
            .k(2)
            .r(2)
            .epsilon(0.1)
            .max_utilities(16)
            .seed(3)
            .build(on_axis(xs))
            .unwrap()
    }

    /// Utility 0's `Φ`, ascending ids.
    fn phi0(fd: &FdRms) -> Vec<PointId> {
        let mut ids: Vec<PointId> = fd.cover.sets_containing(0).collect();
        ids.sort_unstable();
        ids
    }

    fn exact0(fd: &FdRms) -> Vec<PointId> {
        fd.topk[0].exact.iter().map(|e| e.id).collect()
    }

    /// Memberships gained and lost by the tuples live in both engines.
    pub(crate) fn membership_diff(before: &FdRms, after: &FdRms) -> (u64, u64) {
        let (mut gained, mut lost) = (0, 0);
        for id in before.live_points().iter().map(Point::id) {
            if !after.contains(id) {
                continue;
            }
            let b: BTreeSet<ElemId> = before.cover.members(id).unwrap().iter().copied().collect();
            let a: BTreeSet<ElemId> = after.cover.members(id).unwrap().iter().copied().collect();
            gained += a.difference(&b).count() as u64;
            lost += b.difference(&a).count() as u64;
        }
        (gained, lost)
    }

    /// Applies `ops` once per call and once as one batch (padded with a
    /// no-op update of `pad`, so a single op also takes the batched path),
    /// each from a fresh engine, checking the invariants after every call
    /// and that the batch reports exactly the memberships it changed.
    /// Returns the per-op and the batched engine.
    fn both_paths(xs: &[(PointId, f64)], ops: &[crate::engine::Op], pad: PointId) -> [FdRms; 2] {
        use crate::engine::Op;
        let mut seq = axis_engine(xs);
        for op in ops {
            seq.apply_batch(vec![op.clone()]).unwrap();
            seq.check_invariants()
                .unwrap_or_else(|e| panic!("per-op after {op:?}: {e}"));
        }
        let mut bat = axis_engine(xs);
        let noop = Op::Update(bat.tuple(pad).unwrap());
        let mut batch = ops.to_vec();
        batch.push(noop);
        let report = bat.apply_batch(batch).unwrap();
        assert_eq!(report.noop_updates, 1);
        assert!(report.requeried_utilities > 0, "{report:?}");
        bat.check_invariants()
            .unwrap_or_else(|e| panic!("batched: {e}"));
        assert_eq!(
            (report.membership_additions, report.membership_removals),
            membership_diff(&axis_engine(xs), &bat)
        );
        [seq, bat]
    }

    #[test]
    fn band_requery_with_exactly_k_survivors() {
        use crate::engine::Op;
        // k = 2, ε = 0.1: ω_2 = 0.9, τ = 0.81, Φ = {1, 2, 3}.
        let xs = [(1, 1.0), (2, 0.9), (3, 0.85), (4, 0.78), (5, 0.5), (6, 0.3)];
        let fd = axis_engine(&xs);
        assert_eq!(phi0(&fd), vec![1, 2, 3]);
        assert_eq!(exact0(&fd), vec![1, 2]);
        // Deleting 1 leaves exactly k members: they are the new top-k,
        // τ falls to 0.765 and the walk admits 4 (0.78).
        for fd in both_paths(&xs, &[Op::Delete(1)], 5) {
            assert_eq!(exact0(&fd), vec![2, 3]);
            assert_eq!(phi0(&fd), vec![2, 3, 4]);
        }
    }

    #[test]
    fn band_requery_falls_back_below_k_survivors() {
        use crate::engine::Op;
        // τ = 0.855, Φ = {1, 2}: deleting 1 leaves one member, so the
        // index answers the top-k; τ falls to 0.72, admitting 3 and 4.
        let xs = [(1, 1.0), (2, 0.95), (3, 0.8), (4, 0.75), (5, 0.5)];
        let fd = axis_engine(&xs);
        assert_eq!(phi0(&fd), vec![1, 2]);
        for fd in both_paths(&xs, &[Op::Delete(1)], 5) {
            assert_eq!(exact0(&fd), vec![2, 3]);
            assert_eq!(phi0(&fd), vec![2, 3, 4]);
        }
        // Batched, an updated member still sits in the band but no longer
        // clears τ: two candidates, one above it, so the index answers.
        let ops = [Op::Update(Point::new_unchecked(1, vec![0.2, 0.0]))];
        for fd in both_paths(&xs, &ops, 5) {
            assert_eq!(exact0(&fd), vec![2, 3]);
            assert_eq!(phi0(&fd), vec![2, 3, 4]);
        }
        // Down to one tuple: fewer than k exist, τ = 0.
        let ops = [Op::Delete(1), Op::Delete(2), Op::Delete(3), Op::Delete(4)];
        for fd in both_paths(&xs, &ops, 5) {
            assert_eq!(exact0(&fd), vec![5]);
            assert_eq!(fd.topk[0].tau, 0.0);
            assert_eq!(phi0(&fd), vec![5]);
        }
    }

    #[test]
    fn band_requery_tie_at_omega_k_admits_nothing() {
        use crate::engine::Op;
        // 3 duplicates the k-th tuple 2 with a larger id: deleting 1 makes
        // it the new k-th at the same score, so τ stays 0.81 and no
        // tuple is admitted anywhere.
        let mut xs = vec![(1, 1.0), (2, 0.9), (3, 0.9), (4, 0.85), (5, 0.8), (6, 0.5)];
        let fd = axis_engine(&xs);
        assert_eq!(exact0(&fd), vec![1, 2]);
        assert_eq!(phi0(&fd), vec![1, 2, 3, 4]);
        let tau = fd.topk[0].tau;
        for fd in both_paths(&xs, &[Op::Delete(1)], 6) {
            assert_eq!(exact0(&fd), vec![2, 3]);
            assert_eq!(fd.topk[0].tau, tau);
            assert_eq!(phi0(&fd), vec![2, 3, 4]);
            assert_eq!(fd.stats().admissions, 0);
        }
        // The same with the second basis vector, which ties every tuple
        // at 0: deleting its exact top-k leaves τ = 0 unchanged.
        xs.truncate(3);
        for fd in both_paths(&xs, &[Op::Delete(1)], 3) {
            assert_eq!(
                fd.topk[1].exact.iter().map(|e| e.id).collect::<Vec<_>>(),
                [2, 3]
            );
            assert_eq!(fd.stats().admissions, 0);
        }
    }

    #[test]
    fn band_requery_updated_member_drops_while_insert_enters() {
        use crate::engine::Op;
        let moved = |id, x| Op::Update(Point::new_unchecked(id, vec![x, 0.0]));
        let fresh = |id, x| Op::Insert(Point::new_unchecked(id, vec![x, 0.0]));
        // τ = 0.81, Φ = {1, 2, 3}.
        let xs = [(1, 1.0), (2, 0.9), (3, 0.85), (4, 0.7), (5, 0.5), (6, 0.8)];
        let fd = axis_engine(&xs);
        assert_eq!(phi0(&fd), vec![1, 2, 3]);
        // The k-th tuple drops to 0.3 while 10 enters at 0.95: τ rises
        // to 0.855 and evicts 3 as well; 11 reaches the old τ but not
        // the new one, so it stays out.
        let ops = [moved(2, 0.3), fresh(10, 0.95), fresh(11, 0.83)];
        for fd in both_paths(&xs, &ops, 5) {
            assert_eq!(exact0(&fd), vec![1, 10]);
            assert_eq!(phi0(&fd), vec![1, 10]);
        }
        // The top tuple drops to 0.2 while 10 enters at 0.88 and takes
        // the k-th place: τ falls to 0.792, so 6 (0.8) enters from below,
        // and 3 stays a member after dropping below the old τ.
        let ops = [moved(1, 0.2), fresh(10, 0.88), moved(3, 0.795)];
        for fd in both_paths(&xs, &ops, 5) {
            assert_eq!(exact0(&fd), vec![2, 10]);
            assert_eq!(phi0(&fd), vec![2, 3, 6, 10]);
        }
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
