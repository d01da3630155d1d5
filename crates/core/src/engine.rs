//! The batch update engine: amortised, sharded maintenance for streams
//! of tuple operations.
//!
//! The paper's maintenance loop (Algorithms 3–4) re-balances after
//! *every* operation: each insert/delete recomputes the affected top-k
//! results, mutates the set system one membership at a time, and runs
//! `STABILIZE` + `UPDATE-M` before the next operation may proceed. For a
//! batch of `B` operations this pays `B` stabilisation passes and — when
//! operations overlap in the utilities they touch — recomputes the same
//! top-k results up to `B` times.
//!
//! [`FdRms::apply_batch`] instead applies a whole batch in five phases:
//!
//! 1. **Validate & normalise** — the operation stream is checked against
//!    the live database (errors reject the batch *before* any mutation)
//!    and folded to its net effect: a tuple inserted and deleted within
//!    the batch touches nothing, an update whose attributes equal the
//!    stored tuple's is dropped.
//! 2. **Tuple index** — all kd-tree mutations are applied up front, so
//!    every later query sees the post-batch database.
//! 3. **Sharded recompute** — the affected utilities (the deleted and
//!    updated tuples' memberships ∪ the cone-tree hits of the written
//!    tuples) are partitioned into shards; `std::thread::scope` workers
//!    bring each utility to its post-batch state **once**, no matter how
//!    many operations touched it. A utility that lost an exact top-k
//!    member pays one *requery*, answered from its ε-band — the
//!    sequential path pays one per deletion. The pre-batch `Φ` members
//!    that survived, rescored at their post-batch attributes, plus the
//!    cone hits hold every tuple that clears the old `τ`: when `k` of
//!    them still clear it, their best `k` are the new exact top-k, and
//!    otherwise the kd-tree's [`top_k`](rms_index::KdTree::top_k)
//!    answers. The kd-tree is walked once, and only when `τ` fell, for
//!    the entrants in `[τ′, τ)`.
//!    Every other affected utility updates *incrementally*, exactly like
//!    the sequential insertion path but batched: merge the cone hits into
//!    the stored top-k, recompute `τ`, scan for evictions only when `τ`
//!    rose. Workers emit membership *deltas*, not full `Φ` sets.
//! 4. **Cover transaction** — the deltas feed the set cover inside a
//!    [`begin_batch`](rms_setcover::DynamicSetCover::begin_batch)
//!    / [`commit`](rms_setcover::DynamicSetCover::commit) transaction:
//!    additions are applied before removals (so no utility transiently
//!    loses coverage) and `STABILIZE` runs once at commit, followed by
//!    one bulk threshold write on the utility index
//!    ([`ConeTree::set_thresholds`](rms_index::ConeTree::set_thresholds)).
//! 5. **Rebalance** — `UPDATE-M` (Algorithm 4) runs once to steer the
//!    solution back to size `r`.
//!
//! Batching is not a throughput win on the benchmark's `maintain`
//! workload (`perfbench`: anticorrelated `d = 6`, `n₀ = 3 000`, `k = 3`,
//! `r = 50`, `ε = 0.1`, `M = 2 048`, one recompute thread, 2-core host):
//! `apply_batch` over batches of 100 ops ran at a median of about 22k
//! ops/s (`core.batch_ops_per_s`, three traced runs) against a median of
//! about 39k ops/s for per-op calls (`ops_per_s`, twelve seeds).
//!
//! Because the per-utility states are canonical — fully determined by the
//! final database — the batched path reaches exactly the state that
//! [`FdRms::check_invariants`] certifies for the sequential path: same
//! top-k results, same thresholds, same set system, and a stable cover of
//! the same universe. The *solution* (which stable cover you get) may
//! differ from the sequential path's, as stable covers are not unique;
//! both carry the same `O(log m)` quality guarantee (Theorem 1).
//!
//! Single-operation batches are routed to the classic per-op path, so
//! [`FdRms::insert`], [`FdRms::delete`], and [`FdRms::update`] behave
//! exactly as before this engine existed.

use crate::algorithm::{requery, threshold, top_k_of, FdRms, Requery, TopKState};
use crate::builder::FdRmsError;
use rms_geom::{rank_cmp, Point, PointId, RankedPoint, Utility};
use rms_index::KdTree;
use rms_setcover::ElemId;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Minimum number of affected utilities a shard worker should own;
/// batches touching fewer than two shards' worth run inline.
const MIN_UTILITIES_PER_SHARD: usize = 16;

/// A single database operation in a batch (Section II-B's `Δ_t`, plus the
/// update composite the paper models as delete-then-insert).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `Δ_t = 〈p, +〉`: insert a fresh tuple.
    Insert(Point),
    /// `Δ_t = 〈p, −〉`: delete a live tuple by id.
    Delete(PointId),
    /// Replace the attributes of a live tuple (the id is kept). Updates
    /// whose attributes equal the stored tuple's are no-ops.
    Update(Point),
}

impl Op {
    /// The tuple id this operation targets.
    pub fn id(&self) -> PointId {
        match self {
            Op::Insert(p) | Op::Update(p) => p.id(),
            Op::Delete(id) => *id,
        }
    }
}

/// Per-batch instrumentation returned by [`FdRms::apply_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchReport {
    /// Operations in the submitted batch.
    pub ops: usize,
    /// Net tuples inserted (live at batch end, absent before).
    pub inserted: usize,
    /// Net tuples deleted (live before, absent at batch end).
    pub deleted: usize,
    /// Net tuples whose attributes changed.
    pub updated: usize,
    /// Updates dropped because their attributes matched the stored tuple.
    pub noop_updates: usize,
    /// Distinct utility vectors whose top-k state was recomputed.
    pub affected_utilities: usize,
    /// Affected utilities that lost an exact top-k member, so their
    /// top-k was requeried (from the ε-band, or from the tuple index when
    /// fewer than `k` band tuples still clear the old threshold); the
    /// rest updated incrementally.
    pub requeried_utilities: usize,
    /// Shard workers used for the recompute (0 when nothing was
    /// recomputed, 1 when the batch ran inline).
    pub shards: usize,
    /// Memberships added to surviving sets (`Φ` admissions).
    pub membership_additions: u64,
    /// Memberships removed from surviving sets (`Φ` evictions).
    pub membership_removals: u64,
    /// Element moves the deferred `STABILIZE` pass performed at commit.
    pub stabilize_moves: u64,
    /// Universe size `m` after the batch.
    pub m: usize,
    /// Solution size `|Q|` after the batch.
    pub result_size: usize,
}

/// Cumulative roll-up of [`BatchReport`]s, for callers that apply many
/// batches and publish aggregate figures (the serving layer's snapshot
/// stats). [`BatchRollup::absorb`] folds one report in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchRollup {
    /// Batches absorbed.
    pub batches: u64,
    /// Total operations across absorbed batches.
    pub ops: u64,
    /// Net tuples inserted.
    pub inserted: u64,
    /// Net tuples deleted.
    pub deleted: u64,
    /// Net tuples updated.
    pub updated: u64,
    /// Updates dropped as attribute no-ops.
    pub noop_updates: u64,
    /// Total utility recomputations.
    pub affected_utilities: u64,
    /// Total utilities that lost an exact top-k member (requeries).
    pub requeried_utilities: u64,
    /// Total `Φ` admissions into surviving sets.
    pub membership_additions: u64,
    /// Total `Φ` evictions from surviving sets.
    pub membership_removals: u64,
    /// Total deferred-STABILIZE element moves.
    pub stabilize_moves: u64,
    /// Largest single batch absorbed (operation count).
    pub max_batch_ops: usize,
}

impl BatchRollup {
    /// Folds one batch's report into the aggregate.
    pub fn absorb(&mut self, r: &BatchReport) {
        self.batches += 1;
        self.ops += r.ops as u64;
        self.inserted += r.inserted as u64;
        self.deleted += r.deleted as u64;
        self.updated += r.updated as u64;
        self.noop_updates += r.noop_updates as u64;
        self.affected_utilities += r.affected_utilities as u64;
        self.requeried_utilities += r.requeried_utilities as u64;
        self.membership_additions += r.membership_additions;
        self.membership_removals += r.membership_removals;
        self.stabilize_moves += r.stabilize_moves;
        self.max_batch_ops = self.max_batch_ops.max(r.ops);
    }

    /// Folds another roll-up into this one (counters sum, high-water
    /// marks take the max) — the sharded serving layer aggregates one
    /// roll-up per shard into the published aggregate snapshot.
    pub fn merge(&mut self, other: &BatchRollup) {
        self.batches += other.batches;
        self.ops += other.ops;
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.updated += other.updated;
        self.noop_updates += other.noop_updates;
        self.affected_utilities += other.affected_utilities;
        self.requeried_utilities += other.requeried_utilities;
        self.membership_additions += other.membership_additions;
        self.membership_removals += other.membership_removals;
        self.stabilize_moves += other.stabilize_moves;
        self.max_batch_ops = self.max_batch_ops.max(other.max_batch_ops);
    }
}

/// One affected utility's recomputed state, produced by a shard worker:
/// the new top-k/τ plus the membership *deltas* against the pre-batch
/// set system (materialising the full `Φ` would cost `O(|Φ|)` per
/// utility where the sequential path pays `O(1)` per op in the common
/// no-threshold-change case).
struct UtilityRec {
    /// Index into the utility pool.
    idx: usize,
    /// New exact top-k against the post-batch database.
    exact: Vec<RankedPoint>,
    /// New admission threshold `τ = (1 − ε)·ω_k` (0 while `n < k`).
    tau: f64,
    /// Tuples entering `Φ` (tuples that are not yet members).
    adds: Vec<PointId>,
    /// Live tuples leaving `Φ` (current members scoring below the new
    /// τ); never contains deleted tuples — their set removal already
    /// drops every membership.
    removals: Vec<PointId>,
}

/// Shared read-only state for the shard workers (everything they need is
/// immutable during the recompute phase, so `std::thread::scope` workers
/// borrow it freely).
struct RecomputeCtx<'a> {
    kd: &'a KdTree,
    utilities: &'a [Utility],
    topk: &'a [TopKState],
    points: &'a std::collections::HashMap<PointId, Point>,
    cover: &'a rms_setcover::DynamicSetCover,
    /// Utilities that lost an exact top-k member (deleted, or updated
    /// away from its old score): their top-k is requeried from the ε-band
    /// survivors; all other affected utilities update incrementally from
    /// their stored top-k plus the cone hits.
    requery: &'a HashSet<usize>,
    /// Per-utility lists of written tuples whose score reaches the
    /// pre-batch threshold (from `ConeTree::affected_hits_many`).
    hits: &'a std::collections::HashMap<usize, Vec<PointId>>,
    /// Per-utility lists of updated member tuples (their new attributes
    /// may have dropped them below an unchanged threshold).
    moved: &'a std::collections::HashMap<usize, Vec<PointId>>,
    k: usize,
    eps: f64,
}

/// Recomputes one shard of affected utilities against the (post-batch)
/// database: requery utilities (an exact top-k member was deleted or
/// updated away) via [`requeried`], once per *batch* where the sequential
/// path pays once per deletion touching the utility, and every other one
/// via [`incremental`].
fn recompute_shard(ctx: &RecomputeCtx<'_>, idxs: &[usize]) -> Vec<UtilityRec> {
    let mut band = Vec::new();
    idxs.iter()
        .map(|&idx| {
            if ctx.requery.contains(&idx) {
                requeried(ctx, idx, &mut band)
            } else {
                incremental(ctx, idx)
            }
        })
        .collect()
}

/// The written tuples reaching utility `idx`'s pre-batch threshold.
fn hits_of<'a>(ctx: &RecomputeCtx<'a>, idx: usize) -> &'a [PointId] {
    ctx.hits.get(&idx).map_or(&[], Vec::as_slice)
}

/// A requery utility, answered from its ε-band (see [`requery`]): the
/// pre-batch `Φ` members that survived, rescored at their post-batch
/// attributes, plus the cone hits that were not members hold every tuple
/// clearing the old τ. The kd-tree is asked for the top-k only when fewer
/// than `k` of them still clear it, and walked only for the entrants when
/// τ fell. `band` is scratch reused across the shard.
fn requeried(ctx: &RecomputeCtx<'_>, idx: usize, band: &mut Vec<RankedPoint>) -> UtilityRec {
    let u = &ctx.utilities[idx];
    let elem = idx as ElemId;
    // Surviving members first (a deleted tuple has left `points`), then
    // the hits `Φ` does not hold yet.
    band.clear();
    band.extend(ctx.cover.sets_containing(elem).filter_map(|pid| {
        ctx.points.get(&pid).map(|p| RankedPoint {
            id: pid,
            score: u.score(p),
        })
    }));
    let members = band.len();
    band.extend(
        hits_of(ctx, idx)
            .iter()
            .filter(|&&pid| !ctx.cover.set_contains(pid, elem))
            .map(|pid| RankedPoint {
                id: *pid,
                score: u.score(&ctx.points[pid]),
            }),
    );
    let Requery {
        exact,
        tau,
        entrants,
    } = requery(ctx.kd, u, ctx.k, ctx.eps, ctx.topk[idx].tau, band, |pid| {
        ctx.cover.set_contains(pid, elem)
    });
    // Admissions in rank order: the new hits clearing τ′ (all at or above
    // the old τ), then the entrants below it.
    let mut hit_adds: Vec<&RankedPoint> = band[members..]
        .iter()
        .filter(|rp| rp.score >= tau)
        .collect();
    hit_adds.sort_unstable_by(|a, b| rank_cmp(a, b));
    let adds = hit_adds
        .into_iter()
        .chain(&entrants)
        .map(|rp| rp.id)
        .collect();
    // Evictions: the surviving members below τ′.
    let mut removals: Vec<PointId> = band[..members]
        .iter()
        .filter(|rp| rp.score < tau)
        .map(|rp| rp.id)
        .collect();
    removals.sort_unstable();
    UtilityRec {
        idx,
        exact,
        tau,
        adds,
        removals,
    }
}

/// An incremental utility, mirroring the sequential insertion path,
/// batched: merge the cone hits into the stored exact top-k, recompute
/// τ, and scan the membership for evictions *only when τ rose* — plus a
/// rescore of just the updated members, whose new attributes may fall
/// below an unchanged τ.
fn incremental(ctx: &RecomputeCtx<'_>, idx: usize) -> UtilityRec {
    let u = &ctx.utilities[idx];
    let elem = idx as ElemId;
    let st = &ctx.topk[idx];
    let tau_old = st.tau;
    // Merge the hits into the stored exact top-k. Hits are written tuples
    // clearing the old threshold — the only possible new entrants (a
    // threshold can only rise here, and any tuple entering the exact
    // top-k must clear the old τ). Updated tuples in the old exact top-k
    // are requery class, so the stored entries are all live with
    // unchanged attributes.
    let mut scored_hits: Vec<RankedPoint> = hits_of(ctx, idx)
        .iter()
        .map(|pid| RankedPoint {
            id: *pid,
            score: u.score(&ctx.points[pid]),
        })
        .collect();
    scored_hits.sort_unstable_by(rank_cmp);
    let exact = top_k_of(st.exact.iter().chain(&scored_hits), ctx.k);
    let tau = threshold(&exact, ctx.k, ctx.eps);
    debug_assert!(tau >= tau_old - 1e-12, "incremental τ fell");

    // Admissions: hits clearing the new threshold that are not yet
    // members (a hit below the risen τ sat only in the old band).
    let adds: Vec<PointId> = scored_hits
        .iter()
        .take_while(|rp| rp.score >= tau)
        .map(|rp| rp.id)
        .filter(|&pid| !ctx.cover.set_contains(pid, elem))
        .collect();

    // Evictions: when τ rose, any member may have fallen below it;
    // otherwise only updated members can have dropped out.
    let mut removals: Vec<PointId> = Vec::new();
    if tau > tau_old {
        for pid in ctx.cover.sets_containing(elem) {
            if let Some(p) = ctx.points.get(&pid) {
                if u.score(p) < tau {
                    removals.push(pid);
                }
            }
        }
        removals.sort_unstable();
    } else if let Some(moved) = ctx.moved.get(&idx) {
        for &pid in moved {
            if let Some(p) = ctx.points.get(&pid) {
                if u.score(p) < tau {
                    removals.push(pid);
                }
            }
        }
    }
    UtilityRec {
        idx,
        exact,
        tau,
        adds,
        removals,
    }
}

impl FdRms {
    /// Applies a batch of operations atomically-on-error and re-balances
    /// the result once at the end.
    ///
    /// Operations apply in order, so `[Insert(p), Delete(p.id())]` is
    /// valid and nets out to nothing. If any operation is invalid against
    /// the state the preceding operations produce (duplicate insert,
    /// unknown delete/update, wrong dimensionality), the error is
    /// returned and **no** mutation is applied.
    ///
    /// A batch of one routes to the classic per-operation path; larger
    /// batches take the sharded, deferred-stabilisation path described in
    /// the [module docs](crate::engine).
    ///
    /// ```
    /// use fdrms::{FdRms, Op};
    /// use rms_geom::Point;
    ///
    /// let points: Vec<Point> = (0..100)
    ///     .map(|i| Point::new(i, vec![(i as f64) / 100.0, 1.0 - (i as f64) / 100.0]).unwrap())
    ///     .collect();
    /// let mut fd = FdRms::builder(2).r(4).max_utilities(128).build(points).unwrap();
    /// let report = fd
    ///     .apply_batch(vec![
    ///         Op::Insert(Point::new(500, vec![0.9, 0.9]).unwrap()),
    ///         Op::Delete(0),
    ///         Op::Update(Point::new(1, vec![0.5, 0.6]).unwrap()),
    ///     ])
    ///     .unwrap();
    /// assert_eq!((report.inserted, report.deleted, report.updated), (1, 1, 1));
    /// assert!(fd.result().len() <= 4);
    /// ```
    pub fn apply_batch(&mut self, ops: Vec<Op>) -> Result<BatchReport, FdRmsError> {
        if ops.len() == 1 {
            let op = ops.into_iter().next().expect("length checked");
            return self.apply_single(op);
        }
        self.apply_batch_inner(&ops)
    }

    /// [`FdRms::apply_batch`] over borrowed operations, for callers that
    /// must retain the batch (the serving layer keeps it to replay
    /// atomically rejected batches per-op). The batched path never
    /// needed ownership — validation clones each written tuple into the
    /// overlay anyway — so this costs nothing extra; only the single-op
    /// routing clones its one operation.
    pub fn apply_batch_slice(&mut self, ops: &[Op]) -> Result<BatchReport, FdRmsError> {
        if ops.len() == 1 {
            return self.apply_single(ops[0].clone());
        }
        self.apply_batch_inner(ops)
    }

    fn apply_batch_inner(&mut self, ops: &[Op]) -> Result<BatchReport, FdRmsError> {
        let mut report = BatchReport {
            ops: ops.len(),
            ..BatchReport::default()
        };

        // ------------------------------------------------------------
        // Phase 1: validate against the rolling overlay; no mutation
        // happens until the whole batch has passed.
        // ------------------------------------------------------------
        let mut overlay: BTreeMap<PointId, Option<Point>> = BTreeMap::new();
        let mut op_count = 0u64;
        for op in ops {
            let live = |id: &PointId, overlay: &BTreeMap<PointId, Option<Point>>| {
                overlay
                    .get(id)
                    .map_or_else(|| self.points.contains_key(id), Option::is_some)
            };
            match op {
                Op::Insert(p) => {
                    if p.dim() != self.d {
                        return Err(FdRmsError::DimensionMismatch {
                            expected: self.d,
                            got: p.dim(),
                        });
                    }
                    if live(&p.id(), &overlay) {
                        return Err(FdRmsError::DuplicateId(p.id()));
                    }
                    overlay.insert(p.id(), Some(p.clone()));
                    op_count += 1;
                }
                Op::Delete(id) => {
                    if !live(id, &overlay) {
                        return Err(FdRmsError::UnknownId(*id));
                    }
                    overlay.insert(*id, None);
                    op_count += 1;
                }
                Op::Update(p) => {
                    // Dimension before id-existence, matching `Op::Insert`:
                    // the error a malformed op yields must not depend on
                    // the verb.
                    if p.dim() != self.d {
                        return Err(FdRmsError::DimensionMismatch {
                            expected: self.d,
                            got: p.dim(),
                        });
                    }
                    let stored = match overlay.get(&p.id()) {
                        Some(o) => o.as_ref(),
                        None => self.points.get(&p.id()),
                    };
                    let Some(stored) = stored else {
                        return Err(FdRmsError::UnknownId(p.id()));
                    };
                    if stored.coords() == p.coords() {
                        report.noop_updates += 1;
                    } else {
                        overlay.insert(p.id(), Some(p.clone()));
                        // An update is a delete + an insert (Section II-B).
                        op_count += 2;
                    }
                }
            }
        }

        // Net effect versus the pre-batch database. `overlay` is a
        // BTreeMap, so all downstream iteration is id-ordered and the
        // batch is deterministic regardless of thread count.
        let mut net_insert: Vec<Point> = Vec::new();
        let mut net_update: Vec<Point> = Vec::new();
        let mut net_delete: Vec<PointId> = Vec::new();
        for (id, fin) in &overlay {
            match (fin, self.points.get(id)) {
                (Some(p), None) => net_insert.push(p.clone()),
                (Some(p), Some(old)) => {
                    if old.coords() != p.coords() {
                        net_update.push(p.clone());
                    }
                }
                (None, Some(_)) => net_delete.push(*id),
                // Inserted and deleted within the batch: transient, no
                // effect on the final state.
                (None, None) => {}
            }
        }
        self.ops += op_count;
        self.stats.batches += 1;
        report.inserted = net_insert.len();
        report.updated = net_update.len();
        report.deleted = net_delete.len();
        if net_insert.is_empty() && net_update.is_empty() && net_delete.is_empty() {
            report.m = self.m;
            report.result_size = self.cover.solution_size();
            return Ok(report);
        }

        // ------------------------------------------------------------
        // Phase 2: affected utilities, then all tuple-index mutations.
        //
        // A utility's state can only change if (a) it loses a pre-batch
        // `Φ` member — then it appears in that tuple's membership list —
        // or (b) it admits a written tuple — then the tuple's score
        // reaches its pre-batch threshold and the batched cone probe
        // reports it (a threshold can only have risen if some written
        // tuple already cleared the pre-batch value). The union is a
        // sound over-approximation; over-reported utilities recompute to
        // their unchanged state.
        // ------------------------------------------------------------
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        let dead_or_moved: HashSet<PointId> = net_delete
            .iter()
            .copied()
            .chain(net_update.iter().map(Point::id))
            .collect();
        for id in &net_delete {
            if let Some(members) = self.cover.members(*id) {
                affected.extend(members.iter().map(|&u| u as usize));
            }
        }
        // Updated members additionally feed per-utility "moved" lists:
        // their new attributes may fall below an unchanged threshold, so
        // the incremental path must rescore exactly them. (`net_update`
        // iterates in id order — the lists are deterministic.)
        let mut moved_members: std::collections::HashMap<usize, Vec<PointId>> =
            std::collections::HashMap::new();
        for p in &net_update {
            if let Some(members) = self.cover.members(p.id()) {
                for &u in members {
                    affected.insert(u as usize);
                    moved_members.entry(u as usize).or_default().push(p.id());
                }
            }
        }
        // Cone-tree probes for all written tuples (individually pruned,
        // shared traversal buffers), keeping the per-utility hit lists
        // for the incremental update path. Hit indices are relative to
        // the `net_insert ++ net_update` order.
        let written: Vec<&Point> = net_insert.iter().chain(net_update.iter()).collect();
        let mut hit_lists: std::collections::HashMap<usize, Vec<PointId>> =
            std::collections::HashMap::new();
        for (idx, hits) in self.cone.affected_hits_many(written.iter().copied()) {
            affected.insert(idx);
            hit_lists.insert(idx, hits.into_iter().map(|i| written[i].id()).collect());
        }
        // Utilities that lost an exact top-k member requery their
        // top-k; everything else updates incrementally.
        let requery: HashSet<usize> = affected
            .iter()
            .copied()
            .filter(|&i| {
                self.topk[i]
                    .exact
                    .iter()
                    .any(|e| dead_or_moved.contains(&e.id))
            })
            .collect();

        // All mutations go through the deferred-delete path so the lazy
        // rebuild is decided once per batch — after the inserts, so a
        // triggered rebuild packs the post-batch database.
        for id in &net_delete {
            self.kd.delete_deferred(*id).expect("validated live");
            self.points.remove(id);
        }
        for p in &net_update {
            self.kd.delete_deferred(p.id()).expect("validated live");
            self.kd.insert(p.clone()).expect("id just freed");
            self.points.insert(p.id(), p.clone());
        }
        for p in &net_insert {
            self.kd.insert(p.clone()).expect("validated fresh");
            self.points.insert(p.id(), p.clone());
        }
        self.kd.maybe_rebuild();

        // ------------------------------------------------------------
        // Phase 3: recompute every affected utility once, sharded.
        // ------------------------------------------------------------
        let idxs: Vec<usize> = affected.iter().copied().collect();
        report.affected_utilities = idxs.len();
        report.requeried_utilities = requery.len();
        self.stats.affected_utilities += idxs.len() as u64;
        let recs: Vec<UtilityRec> = if self.points.is_empty() {
            Vec::new()
        } else {
            self.stats.topk_requeries += requery.len() as u64;
            let ctx = RecomputeCtx {
                kd: &self.kd,
                utilities: &self.utilities,
                topk: &self.topk,
                points: &self.points,
                cover: &self.cover,
                requery: &requery,
                hits: &hit_lists,
                moved: &moved_members,
                k: self.k,
                eps: self.eps,
            };
            let shards = self
                .batch_threads
                .max(1)
                .min(idxs.len().div_ceil(MIN_UTILITIES_PER_SHARD))
                .max(1);
            report.shards = shards;
            if shards == 1 {
                recompute_shard(&ctx, &idxs)
            } else {
                let ctx = &ctx;
                let chunk = idxs.len().div_ceil(shards);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = idxs
                        .chunks(chunk)
                        .map(|c| scope.spawn(move || recompute_shard(ctx, c)))
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("shard worker panicked"))
                        .collect()
                })
            }
        };

        // ------------------------------------------------------------
        // Phase 4: one set-cover transaction over the membership deltas.
        // ------------------------------------------------------------
        let new_ids: HashSet<PointId> = net_insert.iter().map(Point::id).collect();
        self.cover.begin_batch();
        // (a) Register the new tuples' sets, with their full post-batch
        // memberships, before any removal: utilities never transiently
        // lose their last covering set.
        let mut new_memberships: BTreeMap<PointId, Vec<ElemId>> =
            net_insert.iter().map(|p| (p.id(), Vec::new())).collect();
        for r in &recs {
            for pid in &r.adds {
                if new_ids.contains(pid) {
                    new_memberships
                        .get_mut(pid)
                        .expect("Φ members are live tuples")
                        .push(r.idx as ElemId);
                }
            }
        }
        for p in &net_insert {
            self.cover
                .insert_set(p.id(), new_memberships.remove(&p.id()).unwrap_or_default())
                .expect("validated fresh ids");
        }
        // (b) Admissions into surviving sets, then (c) evictions.
        for r in &recs {
            let u = r.idx as ElemId;
            for pid in &r.adds {
                if !new_ids.contains(pid) {
                    self.cover
                        .add_to_set(u, *pid)
                        .expect("surviving sets exist");
                    report.membership_additions += 1;
                }
            }
            for pid in &r.removals {
                let kept = self
                    .cover
                    .remove_from_set(u, *pid)
                    .expect("surviving sets exist");
                debug_assert!(
                    kept || r.idx >= self.m,
                    "universe element lost its last set mid-batch"
                );
                report.membership_removals += 1;
            }
        }
        // (d) Retire the deleted tuples' sets; orphaned elements are
        // reassigned, and drops only happen when the database emptied.
        for id in &net_delete {
            let dropped = self
                .cover
                .remove_set(*id)
                .expect("set registered at insert");
            for u in dropped {
                debug_assert!(self.points.is_empty(), "drop with nonempty database");
                self.pending.insert(u);
            }
        }
        // (e) Commit: one STABILIZE pass over the accumulated worklist.
        report.stabilize_moves = self.cover.commit();
        self.stats.evictions += report.membership_removals;
        self.stats.admissions += report.membership_additions;

        // New top-k states and one bulk threshold write on the utility
        // index.
        let taus: Vec<(usize, f64)> = recs.iter().map(|r| (r.idx, r.tau)).collect();
        for r in recs {
            self.topk[r.idx] = TopKState {
                exact: r.exact,
                tau: r.tau,
            };
        }
        self.cone.set_thresholds(taus);

        // ------------------------------------------------------------
        // Phase 5: rebalance once.
        // ------------------------------------------------------------
        if self.points.is_empty() {
            for i in 0..self.cap_m {
                self.topk[i] = TopKState::default();
            }
            self.cone.set_thresholds((0..self.cap_m).map(|i| (i, 0.0)));
        } else {
            self.readmit_pending();
            if self.cover.solution_size() != self.r {
                self.update_m();
            }
        }
        report.m = self.m;
        report.result_size = self.cover.solution_size();
        Ok(report)
    }

    /// Routes a one-operation batch to the classic per-op maintenance
    /// path (Algorithm 3), derived report included.
    fn apply_single(&mut self, op: Op) -> Result<BatchReport, FdRmsError> {
        let before_stats = self.stats;
        let before_moves = self.cover.stabilize_moves();
        let mut report = BatchReport {
            ops: 1,
            ..BatchReport::default()
        };
        match op {
            Op::Insert(p) => {
                self.insert_one(&p)?;
                report.inserted = 1;
            }
            Op::Delete(id) => {
                self.delete_one(id)?;
                report.deleted = 1;
            }
            Op::Update(p) => {
                if self.update_one(&p)? {
                    report.updated = 1;
                } else {
                    report.noop_updates = 1;
                }
            }
        }
        report.shards = 1;
        report.affected_utilities =
            (self.stats.affected_utilities - before_stats.affected_utilities) as usize;
        report.requeried_utilities =
            (self.stats.topk_requeries - before_stats.topk_requeries) as usize;
        report.membership_additions = self.stats.admissions - before_stats.admissions;
        report.membership_removals = self.stats.evictions - before_stats.evictions;
        report.stabilize_moves = self.cover.stabilize_moves() - before_moves;
        report.m = self.m;
        report.result_size = self.cover.solution_size();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(seed: u64, n: usize, d: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
            .collect()
    }

    fn builder(d: usize) -> crate::FdRmsBuilder {
        FdRms::builder(d).r(4).max_utilities(128).seed(5)
    }

    /// Random op stream over a live-id tracker: inserts of fresh ids,
    /// deletes and updates of live ids.
    fn random_ops(
        rng: &mut StdRng,
        live: &mut Vec<PointId>,
        next: &mut PointId,
        n: usize,
        d: usize,
    ) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let coords: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
            match rng.gen_range(0..4) {
                0 | 1 => {
                    ops.push(Op::Insert(Point::new_unchecked(*next, coords)));
                    live.push(*next);
                    *next += 1;
                }
                2 if !live.is_empty() => {
                    let idx = rng.gen_range(0..live.len());
                    ops.push(Op::Delete(live.swap_remove(idx)));
                }
                _ if !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    ops.push(Op::Update(Point::new_unchecked(id, coords)));
                }
                _ => {
                    ops.push(Op::Insert(Point::new_unchecked(*next, coords)));
                    live.push(*next);
                    *next += 1;
                }
            }
        }
        ops
    }

    #[test]
    fn batch_reaches_canonical_state() {
        let pts = random_points(1, 120, 3);
        let mut fd = builder(3).build(pts.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut live: Vec<PointId> = pts.iter().map(|p| p.id()).collect();
        let mut next = 10_000u64;
        for round in 0..6 {
            let ops = random_ops(&mut rng, &mut live, &mut next, 50, 3);
            let report = fd.apply_batch(ops).unwrap();
            assert!(report.result_size <= 4);
            fd.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(fd.len(), live.len(), "round {round}");
        }
    }

    #[test]
    fn batch_matches_sequential_database_and_invariants() {
        let pts = random_points(3, 80, 3);
        let mut seq = builder(3).build(pts.clone()).unwrap();
        let mut bat = builder(3).build(pts.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut live: Vec<PointId> = pts.iter().map(|p| p.id()).collect();
        let mut next = 10_000u64;
        let ops = random_ops(&mut rng, &mut live, &mut next, 120, 3);
        for op in &ops {
            match op.clone() {
                Op::Insert(p) => seq.insert(p).unwrap(),
                Op::Delete(id) => seq.delete(id).unwrap(),
                Op::Update(p) => seq.update(p).unwrap(),
            }
        }
        bat.apply_batch(ops).unwrap();
        seq.check_invariants().unwrap();
        bat.check_invariants().unwrap();
        assert_eq!(seq.len(), bat.len());
        assert_eq!(seq.result().len(), bat.result().len());
    }

    #[test]
    fn thread_counts_agree() {
        let pts = random_points(5, 100, 3);
        let mut one = builder(3).batch_threads(1).build(pts.clone()).unwrap();
        let mut many = builder(3).batch_threads(8).build(pts.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut live: Vec<PointId> = pts.iter().map(|p| p.id()).collect();
        let mut next = 50_000u64;
        let ops = random_ops(&mut rng, &mut live, &mut next, 150, 3);
        let r1 = one.apply_batch(ops.clone()).unwrap();
        let r2 = many.apply_batch(ops).unwrap();
        one.check_invariants().unwrap();
        many.check_invariants().unwrap();
        assert_eq!(one.result_ids(), many.result_ids());
        assert_eq!(r1.affected_utilities, r2.affected_utilities);
        assert_eq!(r1.membership_additions, r2.membership_additions);
        assert_eq!(r1.membership_removals, r2.membership_removals);
        assert!(r2.shards >= r1.shards);
    }

    #[test]
    fn failed_batch_mutates_nothing() {
        let pts = random_points(7, 40, 2);
        let mut fd = builder(2).build(pts).unwrap();
        let before_ids = fd.result_ids();
        let before_ops = fd.operations();
        // Fails on the last op: id 9999 is not live.
        let err = fd
            .apply_batch(vec![
                Op::Insert(Point::new_unchecked(1_000, vec![0.7, 0.7])),
                Op::Delete(0),
                Op::Delete(9_999),
            ])
            .unwrap_err();
        assert_eq!(err, FdRmsError::UnknownId(9_999));
        assert_eq!(fd.result_ids(), before_ids);
        assert_eq!(fd.operations(), before_ops);
        assert_eq!(fd.len(), 40);
        fd.check_invariants().unwrap();

        // In-batch duplicate insert and dimension errors are also atomic.
        let err = fd
            .apply_batch(vec![
                Op::Insert(Point::new_unchecked(2_000, vec![0.1, 0.2])),
                Op::Insert(Point::new_unchecked(2_000, vec![0.3, 0.4])),
            ])
            .unwrap_err();
        assert_eq!(err, FdRmsError::DuplicateId(2_000));
        let err = fd
            .apply_batch(vec![
                Op::Delete(1),
                Op::Update(Point::new_unchecked(2, vec![0.1])),
            ])
            .unwrap_err();
        assert_eq!(
            err,
            FdRmsError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(fd.len(), 40);
        fd.check_invariants().unwrap();
    }

    #[test]
    fn validation_precedence_is_uniform_across_verbs() {
        // A mixed bad op — wrong dimension AND unknown/duplicate id —
        // must yield the same error class regardless of verb: dimension
        // is checked first, on the batched and the single-op path alike.
        let pts = random_points(15, 30, 2);
        let mut fd = builder(2).build(pts).unwrap();
        let dim_err = FdRmsError::DimensionMismatch {
            expected: 2,
            got: 3,
        };
        // Unknown id + wrong dimension.
        let bad_unknown = Point::new_unchecked(9_999, vec![0.1, 0.2, 0.3]);
        // Live id (update) / duplicate id (insert) + wrong dimension.
        let bad_live = Point::new_unchecked(0, vec![0.1, 0.2, 0.3]);
        for op in [
            Op::Insert(bad_unknown.clone()),
            Op::Insert(bad_live.clone()),
            Op::Update(bad_unknown),
            Op::Update(bad_live),
        ] {
            // Batched path (a companion op forces the multi-op route).
            assert_eq!(
                fd.apply_batch(vec![Op::Delete(1), op.clone()]).unwrap_err(),
                dim_err,
                "batched {op:?}"
            );
            // Single-op path.
            assert_eq!(
                fd.apply_batch(vec![op.clone()]).unwrap_err(),
                dim_err,
                "single {op:?}"
            );
        }
        assert_eq!(fd.len(), 30, "failed validation must not mutate");
        fd.check_invariants().unwrap();
    }

    #[test]
    fn transient_tuples_are_normalised_away() {
        let pts = random_points(9, 50, 2);
        let mut fd = builder(2).build(pts).unwrap();
        let report = fd
            .apply_batch(vec![
                Op::Insert(Point::new_unchecked(100, vec![0.99, 0.99])),
                Op::Update(Point::new_unchecked(100, vec![0.98, 0.97])),
                Op::Delete(100),
                Op::Insert(Point::new_unchecked(101, vec![0.5, 0.5])),
            ])
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.deleted, 0);
        assert_eq!(report.updated, 0);
        assert!(fd.contains(101));
        assert!(!fd.contains(100));
        fd.check_invariants().unwrap();
    }

    #[test]
    fn in_batch_delete_then_reinsert_is_an_update() {
        let pts = random_points(10, 50, 2);
        let mut fd = builder(2).build(pts).unwrap();
        let report = fd
            .apply_batch(vec![
                Op::Delete(3),
                Op::Insert(Point::new_unchecked(3, vec![1.0, 1.0])),
                Op::Insert(Point::new_unchecked(777, vec![0.2, 0.9])),
            ])
            .unwrap();
        assert_eq!(report.updated, 1);
        assert_eq!(report.inserted, 1);
        assert_eq!(report.deleted, 0);
        fd.check_invariants().unwrap();
        assert!(fd.result_ids().contains(&3), "dominating update must win");
    }

    #[test]
    fn noop_updates_short_circuit() {
        let pts = random_points(11, 30, 2);
        let mut fd = builder(2).build(pts.clone()).unwrap();
        let requeries_before = fd.stats().topk_requeries;
        // Batched no-op updates.
        let report = fd
            .apply_batch(vec![Op::Update(pts[0].clone()), Op::Update(pts[1].clone())])
            .unwrap();
        assert_eq!(report.noop_updates, 2);
        assert_eq!(report.affected_utilities, 0);
        // Single-op routed no-op update.
        fd.update(pts[2].clone()).unwrap();
        assert_eq!(fd.stats().topk_requeries, requeries_before);
        assert_eq!(fd.operations(), 0, "no-ops do not count as operations");
        fd.check_invariants().unwrap();
    }

    #[test]
    fn batch_drains_to_empty_and_refills() {
        let pts = random_points(13, 25, 2);
        let mut fd = builder(2).build(pts.clone()).unwrap();
        let drain: Vec<Op> = pts.iter().map(|p| Op::Delete(p.id())).collect();
        let report = fd.apply_batch(drain).unwrap();
        assert_eq!(report.deleted, 25);
        assert!(fd.is_empty());
        assert!(fd.result().is_empty());
        fd.check_invariants().unwrap();
        let refill: Vec<Op> = pts.iter().map(|p| Op::Insert(p.clone())).collect();
        fd.apply_batch(refill).unwrap();
        fd.check_invariants().unwrap();
        assert_eq!(fd.len(), 25);
        assert!(!fd.result().is_empty());
    }

    #[test]
    fn batch_into_empty_instance() {
        let mut fd = builder(2).build(Vec::new()).unwrap();
        let ops: Vec<Op> = (0..30)
            .map(|i| {
                Op::Insert(Point::new_unchecked(
                    i,
                    vec![(i as f64) / 30.0, 1.0 - (i as f64) / 30.0],
                ))
            })
            .collect();
        let report = fd.apply_batch(ops).unwrap();
        assert_eq!(report.inserted, 30);
        fd.check_invariants().unwrap();
        assert!(!fd.result().is_empty());
        assert!(fd.result().len() <= 4);
    }

    #[test]
    fn empty_batch_is_noop() {
        let pts = random_points(15, 20, 2);
        let mut fd = builder(2).build(pts).unwrap();
        let before = fd.result_ids();
        let report = fd.apply_batch(Vec::new()).unwrap();
        assert_eq!(report.ops, 0);
        assert_eq!(fd.result_ids(), before);
        fd.check_invariants().unwrap();
    }

    #[test]
    fn report_counters_are_consistent() {
        let pts = random_points(17, 90, 3);
        let mut fd = builder(3).build(pts).unwrap();
        let mut rng = StdRng::seed_from_u64(18);
        let ops: Vec<Op> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    Op::Insert(Point::new_unchecked(
                        1_000 + i,
                        (0..3).map(|_| rng.gen()).collect(),
                    ))
                } else {
                    Op::Delete(i / 2)
                }
            })
            .collect();
        let report = fd.apply_batch(ops).unwrap();
        assert_eq!(report.ops, 40);
        assert_eq!(report.inserted, 20);
        assert_eq!(report.deleted, 20);
        assert!(report.affected_utilities > 0);
        assert!(report.shards >= 1);
        assert_eq!(report.result_size, fd.result().len());
        assert_eq!(report.m, fd.m());
        assert_eq!(fd.stats().batches, 1);
        assert_eq!(fd.operations(), 40);
    }

    #[test]
    fn op_accessors() {
        let p = Point::new_unchecked(7, vec![0.1, 0.2]);
        assert_eq!(Op::Insert(p.clone()).id(), 7);
        assert_eq!(Op::Update(p).id(), 7);
        assert_eq!(Op::Delete(9).id(), 9);
    }
}
