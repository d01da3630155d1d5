//! The batch update engine: amortised maintenance for streams of tuple
//! operations.
//!
//! The paper's maintenance loop (Algorithms 3–4) re-balances after
//! *every* operation: each insert/delete recomputes the affected top-k
//! results, mutates the set system one membership at a time, and runs
//! `STABILIZE` + `UPDATE-M` before the next operation may proceed. For a
//! batch of `B` operations this pays `B` stabilisation passes and — when
//! operations overlap in the utilities they touch — recomputes the same
//! top-k results up to `B` times.
//!
//! [`FdRms::apply_batch`] instead applies a whole batch in five phases.
//! It is the engine's only maintenance path: [`FdRms::insert`],
//! [`FdRms::delete`] and [`FdRms::update`] are batches of one.
//!
//! 1. **Validate & normalise** — the operation stream is checked against
//!    the live database (errors reject the batch *before* any mutation)
//!    and folded to its net effect: a tuple inserted and deleted within
//!    the batch touches nothing, an update whose attributes equal the
//!    stored tuple's is dropped. The operations are grouped by id, in
//!    batch order within an id, so validation builds no map and copies no
//!    tuple.
//! 2. **Tuple index** — all kd-tree mutations are applied up front, so
//!    every later query sees the post-batch database. The engine's tuple
//!    table follows: an updated tuple's row takes its new attributes, and
//!    a deleted tuple's row is marked dead while its set stays in the
//!    cover until phase 4.
//! 3. **Recompute** — the affected utilities are the deleted and updated
//!    tuples' memberships ∪ the utilities the written tuples reach, found
//!    by [`ConeTree::hits_into`](rms_index::ConeTree::hits_into), one
//!    scan of every threshold per written tuple. A utility that only lost
//!    a member below its exact top-k keeps its top-k and `τ`; every other
//!    one is brought to its post-batch state **once**, in ascending order
//!    on the calling thread, no matter how many operations touched it. A
//!    utility that lost an exact top-k member pays one *requery*,
//!    answered from its ε-band, however many of those members the batch
//!    deleted. The pre-batch `Φ` members that survived, rescored at their
//!    post-batch attributes, plus the cone hits hold every tuple that
//!    clears the old `τ`: when `k` of them still clear it, their best `k`
//!    are the new exact top-k, and otherwise the kd-tree's
//!    [`top_k`](rms_index::KdTree::top_k) answers. The kd-tree is walked
//!    once, and only when `τ` fell, for the entrants in `[τ′, τ)`.
//!    Every other recomputed utility updates *incrementally*: merge the
//!    cone hits into the stored top-k in place, recompute `τ`, scan for
//!    evictions only when `τ` rose, else rescore just the updated
//!    members. Every rescore of `Φ` walks the utility's set row
//!    ([`slots_containing`](rms_setcover::DynamicSetCover::slots_containing))
//!    and reads each member from the tuple table row of its slot,
//!    skipping dead rows; it looks up no id. Each new top-k and `τ` is
//!    written back as it is computed, the utility index's threshold
//!    included; the recompute emits membership *deltas*, not full `Φ`
//!    sets.
//! 4. **Cover transaction** — the deltas feed the set cover inside a
//!    [`begin_batch`](rms_setcover::DynamicSetCover::begin_batch)
//!    / [`commit`](rms_setcover::DynamicSetCover::commit) transaction:
//!    additions are applied before removals (so no utility transiently
//!    loses coverage) and `STABILIZE` runs once at commit. A new tuple's
//!    row is written when its set is handed a slot, before the deleted
//!    tuples' sets free theirs.
//! 5. **Rebalance** — `UPDATE-M` (Algorithm 4) runs once to steer the
//!    solution back to size `r`.
//!
//! Every phase works in tables the engine owns and reuses from call to
//! call: the operations' id order, the net effect's slots, one row per
//! utility (its affected and requery flags, and where its runs sit in the
//! flat lists), the utilities to recompute in one list sorted once, and
//! flat lists of cone hits, updated members and membership deltas. They
//! build no map, and apart from what a requery returns, a call allocates
//! nothing per affected utility.
//!
//! The identical answers of two engines fed the same stream rest on row
//! order: `Φ` is rescored in the order of the utility's set row, which
//! the cover keeps in call order up to swap-removals, and evictions are
//! issued in id order.
//!
//! Because the per-utility states are canonical — fully determined by the
//! final database — every call ends in the state that
//! [`FdRms::check_invariants`] certifies, whatever the batch size: the
//! same top-k results, thresholds and set system as the paper's per-op
//! loop reaches, and a stable cover of the same universe. The *solution*
//! (which stable cover you get) may differ between batch sizes and from
//! the paper's loop, as stable covers are not unique; all carry the same
//! `O(log m)` quality guarantee (Theorem 1). In particular a one-operation
//! update re-balances once, where the paper's loop, which models it as a
//! deletion then an insertion, re-balances after each. On the benchmark's
//! `maintain` data (seed 11), one-op calls held the same solution as the
//! per-op code this path replaced after only 168–591 of each part's
//! 3 000 calls, at equal quality (`perfbench`'s traced `quality.mrr` on
//! seeds 301–303: 0.121, 0.123 and 0.117 before, 0.122, 0.123 and 0.119
//! after).
//! [`UpdateStats::batches`](crate::UpdateStats::batches) counts every
//! call that passed validation, one-op calls included.

use crate::algorithm::{merge_top_k, requery, threshold, FdRms, Requery, TopKState};
use crate::builder::FdRmsError;
use rms_geom::{rank_cmp, Point, PointId, RankedPoint};
use rms_setcover::{ElemId, Slot};
use std::ops::Range;

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

/// Per-call instrumentation returned by [`FdRms::apply_batch`]: the
/// engine's one report, whatever the batch size.
///
/// `affected_utilities`, `requeried_utilities`, `membership_additions`
/// and `membership_removals` are the batch's share of [`FdRms::stats`]:
/// they move its `affected_utilities`, `topk_requeries`, `admissions` and
/// `evictions` by exactly as much.
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
    /// Distinct utility vectors the batch could affect: the deleted and
    /// updated tuples' memberships, plus the utilities a written tuple
    /// reaches. One that only lost a member below its exact top-k keeps
    /// its top-k and threshold without a recompute.
    pub affected_utilities: usize,
    /// Affected utilities that lost an exact top-k member, so their
    /// top-k was requeried (from the ε-band, or from the tuple index when
    /// fewer than `k` band tuples still clear the old threshold); the
    /// rest updated incrementally.
    pub requeried_utilities: usize,
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

/// The engine's working tables (phases 1–4). [`FdRms`] owns them and
/// reuses them across calls; between calls every row is default and every
/// list empty.
#[derive(Debug, Default)]
pub(crate) struct BatchTables {
    /// One row per utility.
    rows: Vec<Row>,
    /// The affected utilities; once phase 2 ends, only those to
    /// recompute, ascending.
    touched: Vec<usize>,
    /// `(utility, written index)` per cone hit, sorted: one run per
    /// utility, indices ascending within it.
    hits: Vec<(usize, usize)>,
    /// `(utility, written index)` per updated member, sorted: one run per
    /// utility, ids ascending within it.
    moved: Vec<(usize, usize)>,
    /// Scored candidates of the utility being recomputed.
    band: Vec<RankedPoint>,
    deltas: Deltas,
    /// `(id, op index)` per operation, sorted (phase 1).
    order: Vec<(PointId, usize)>,
    /// The slot of each updated tuple, in `written[inserts..]` order.
    updated: Vec<Slot>,
    /// The deleted tuples and their slots, ascending ids.
    deleted: Vec<(PointId, Slot)>,
}

/// One utility's row in [`BatchTables`].
#[derive(Debug, Clone, Default)]
struct Row {
    /// Listed in `touched`.
    affected: bool,
    /// Lost an exact top-k member, so its top-k is requeried.
    requery: bool,
    /// Its run in `hits`.
    hits: Range<usize>,
    /// Its run in `moved`.
    moved: Range<usize>,
}

/// The membership deltas of one call, utility by utility in ascending
/// order: the cover transaction replays them as they stand. Deltas, not
/// full `Φ` sets: materialising `Φ` would cost `O(|Φ|)` per utility where
/// an incremental utility pays `O(1)` while τ holds.
#[derive(Debug, Default)]
struct Deltas {
    /// Admissions into surviving sets, each utility's in rank order.
    adds: Vec<PointId>,
    /// Evictions of live members, each utility's in ascending id order;
    /// never a deleted tuple — its set removal drops every membership.
    removals: Vec<PointId>,
    /// `(utility, end of its run in adds, end of its run in removals)`
    /// per utility with a delta.
    ends: Vec<(ElemId, usize, usize)>,
    /// `(index among the call's inserts, utility)` per admission of a new
    /// tuple: the memberships its set is registered with.
    fresh: Vec<(usize, ElemId)>,
}

impl BatchTables {
    /// Lists utility `u` as affected (once) and returns its row.
    fn touch(&mut self, u: usize) -> &mut Row {
        let row = &mut self.rows[u];
        if !row.affected {
            row.affected = true;
            self.touched.push(u);
        }
        row
    }

    /// Returns the tables to their between-calls state, keeping every
    /// allocation.
    fn reset(&mut self) {
        for &u in &self.touched {
            self.rows[u] = Row::default();
        }
        self.touched.clear();
        self.hits.clear();
        self.moved.clear();
        self.order.clear();
        self.updated.clear();
        self.deleted.clear();
        let d = &mut self.deltas;
        d.adds.clear();
        d.removals.clear();
        d.ends.clear();
        d.fresh.clear();
    }
}

impl Deltas {
    /// Books the admission of `pid` into utility `elem`'s `Φ` unless
    /// `is_member` says `Φ` holds it: into the membership of its new set
    /// when `pid` is one of the call's `inserted` tuples (ascending ids),
    /// else as an addition. A new tuple is no member of anything, so it
    /// is booked without asking.
    fn admit(
        &mut self,
        elem: ElemId,
        pid: PointId,
        inserted: &[&Point],
        is_member: impl FnOnce() -> bool,
    ) {
        match inserted.binary_search_by_key(&pid, |p| p.id()) {
            Ok(j) => self.fresh.push((j, elem)),
            Err(_) if !is_member() => self.adds.push(pid),
            Err(_) => {}
        }
    }
}

impl FdRms {
    /// Applies a batch of operations atomically-on-error and re-balances
    /// the result once at the end.
    ///
    /// Operations apply in order, so `[Insert(p), Delete(p.id())]` is
    /// valid and nets out to nothing. If any operation is invalid against
    /// the state the preceding operations produce (duplicate insert,
    /// unknown delete/update, wrong dimensionality), the first such
    /// operation's error is returned and **no** mutation is applied.
    ///
    /// Every call takes the five phases of the [module docs](crate::engine),
    /// whatever its length: [`FdRms::insert`], [`FdRms::delete`] and
    /// [`FdRms::update`] are one-operation batches.
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
    // Callers hand over the batch they built; the engine reads it in
    // place, as `apply_batch_slice` does, and drops it.
    #[allow(clippy::needless_pass_by_value)]
    pub fn apply_batch(&mut self, ops: Vec<Op>) -> Result<BatchReport, FdRmsError> {
        self.apply_batch_slice(&ops)
    }

    /// [`FdRms::apply_batch`] over borrowed operations, for callers that
    /// must retain the batch (the serving layer keeps it to replay a
    /// rejected batch op by op). Validation reads the operations in place,
    /// so the only copy of a tuple either entry point makes is the one the
    /// kd-tree stores.
    pub fn apply_batch_slice(&mut self, ops: &[Op]) -> Result<BatchReport, FdRmsError> {
        let mut t = std::mem::take(&mut self.batch);
        let res = self.apply(ops, &mut t);
        t.reset();
        self.batch = t;
        res
    }

    /// The five phases, over tables that `apply_batch_slice` resets
    /// however the call ends.
    fn apply(&mut self, ops: &[Op], t: &mut BatchTables) -> Result<BatchReport, FdRmsError> {
        // An empty batch is no batch: it books nothing.
        if ops.is_empty() {
            return Ok(BatchReport {
                m: self.m,
                result_size: self.cover.solution_size(),
                ..BatchReport::default()
            });
        }
        let mut report = BatchReport {
            ops: ops.len(),
            ..BatchReport::default()
        };

        // ------------------------------------------------------------
        // Phase 1: validate and fold to the net effect; no mutation
        // happens until the whole batch has passed.
        // ------------------------------------------------------------
        let written = self.net_effect(ops, t, &mut report)?;
        if written.is_empty() && t.deleted.is_empty() {
            report.m = self.m;
            report.result_size = self.cover.solution_size();
            return Ok(report);
        }
        let (inserted, moved) = written.split_at(report.inserted);

        // ------------------------------------------------------------
        // Phase 2: affected utilities, then all tuple-index mutations.
        //
        // A utility's state can only change if (a) it loses a pre-batch
        // `Φ` member — then it appears in that tuple's membership list —
        // or (b) it admits a written tuple — then the tuple's score
        // reaches its pre-batch threshold and the cone scan reports it
        // (a threshold can only have risen if some written tuple already
        // cleared the pre-batch value). The union is a sound
        // over-approximation; over-reported utilities recompute to their
        // unchanged state.
        // ------------------------------------------------------------
        t.rows.resize(self.cap_m, Row::default());
        // The deleted tuples, then the updated ones with their index among
        // the written tuples. The deleted list is held apart so the loop
        // can touch the tables.
        let deleted = std::mem::take(&mut t.deleted);
        let gone = deleted.iter().map(|&(id, _)| (id, None)).chain(
            (report.inserted..)
                .zip(moved)
                .map(|(w, p)| (p.id(), Some(w))),
        );
        for (id, moved) in gone {
            for &u in self.cover.members(id).into_iter().flatten() {
                let u = u as usize;
                // An updated member's new attributes may fall below an
                // unchanged threshold: the incremental path rescores it.
                if let Some(w) = moved {
                    t.moved.push((u, w));
                }
                // A utility whose exact top-k held the tuple lost that
                // member (`p ∈ exact(u)` implies `u ∈ S(p)`): it requeries
                // its top-k, everything else updates incrementally.
                let row = t.touch(u);
                if !row.requery && self.topk[u].exact.iter().any(|e| e.id == id) {
                    row.requery = true;
                    report.requeried_utilities += 1;
                }
            }
        }
        t.deleted = deleted;
        // The utilities a written tuple reaches, each with its hits.
        self.cone.hits_into(&written, &mut t.hits);
        let mut start = 0;
        while let Some(&(u, _)) = t.hits.get(start) {
            let run = t.hits[start..].iter().take_while(|&&(m, _)| m == u).count();
            t.touch(u).hits = start..start + run;
            start += run;
        }
        t.moved.sort_unstable();
        let mut start = 0;
        for run in t.moved.chunk_by(|a, b| a.0 == b.0) {
            t.rows[run[0].0].moved = start..start + run.len();
            start += run.len();
        }
        // Every affected utility counts, but one that only lost a member
        // below its exact top-k keeps its top-k and τ (`Φ` loses that
        // member with its set in phase 4(d)): its row is reset here, and
        // phases 3 and 4 walk the others in ascending order.
        report.affected_utilities = t.touched.len();
        let rows = &mut t.rows;
        t.touched.retain(|&u| {
            let row = &mut rows[u];
            let idle = !row.requery && row.hits.is_empty() && row.moved.is_empty();
            if idle {
                *row = Row::default();
            }
            !idle
        });
        t.touched.sort_unstable();

        // All mutations go through the deferred-delete path so the lazy
        // rebuild is decided once per batch — after the inserts, so a
        // triggered rebuild packs the post-batch database. The tuple
        // table follows for the tuples that hold a slot: a deleted tuple's
        // row is marked dead, so phase 3 skips it while its set lingers
        // until phase 4(d), and an updated tuple's row takes its new
        // attributes. Inserted tuples get their rows in phase 4(a), when
        // their sets are handed slots.
        for &(id, slot) in &t.deleted {
            self.kd.delete_deferred(id).expect("validated live");
            self.tuples.kill(slot);
        }
        for (&p, &slot) in moved.iter().zip(&t.updated) {
            self.kd.delete_deferred(p.id()).expect("validated live");
            self.kd.insert(p.clone()).expect("id just freed");
            self.tuples.write(slot, p);
        }
        for &p in inserted {
            self.kd.insert(p.clone()).expect("validated fresh");
        }
        self.kd.maybe_rebuild();

        // ------------------------------------------------------------
        // Phase 3: recompute each utility left in `touched` once, in
        // ascending order, writing its new top-k and threshold in place.
        // ------------------------------------------------------------
        // Held apart so the recompute can borrow the tables mutably.
        let touched = std::mem::take(&mut t.touched);
        self.stats.affected_utilities += report.affected_utilities as u64;
        self.stats.topk_requeries += report.requeried_utilities as u64;
        if !self.kd.is_empty() {
            for &u in &touched {
                let old = std::mem::take(&mut self.topk[u]);
                let new = if t.rows[u].requery {
                    self.requeried(u, old.tau, &written, inserted, t)
                } else {
                    self.incremental(u, old, &written, inserted, t)
                };
                self.cone.set_threshold(u, new.tau);
                self.topk[u] = new;
                let d = &mut t.deltas;
                let ends = (d.adds.len(), d.removals.len());
                if ends != d.ends.last().map_or((0, 0), |&(_, a, r)| (a, r)) {
                    d.ends.push((u as ElemId, ends.0, ends.1));
                }
            }
        }

        // ------------------------------------------------------------
        // Phase 4: one set-cover transaction over the membership deltas.
        // ------------------------------------------------------------
        let d = &mut t.deltas;
        self.cover.begin_batch();
        // (a) Register the new tuples' sets, with their full post-batch
        // memberships, before any removal: utilities never transiently
        // lose their last covering set. Each new tuple's row goes to the
        // slot its set is handed, never one this batch frees in (d).
        d.fresh.sort_unstable();
        let mut fresh = &d.fresh[..];
        for (j, &p) in inserted.iter().enumerate() {
            let (members, rest) = fresh.split_at(fresh.partition_point(|&(i, _)| i == j));
            self.cover
                .insert_set(p.id(), members.iter().map(|&(_, u)| u))
                .expect("validated fresh ids");
            let slot = self.cover.slot(p.id()).expect("set just inserted");
            self.tuples.write(slot, p);
            fresh = rest;
        }
        // (b) Admissions into surviving sets, then (c) evictions, utility
        // by utility.
        let (mut a, mut r) = (0, 0);
        for &(elem, a_end, r_end) in &d.ends {
            for &pid in &d.adds[a..a_end] {
                self.cover
                    .add_to_set(elem, pid)
                    .expect("surviving sets exist");
            }
            for &pid in &d.removals[r..r_end] {
                let kept = self
                    .cover
                    .remove_from_set(elem, pid)
                    .expect("surviving sets exist");
                debug_assert!(
                    kept || elem as usize >= self.m,
                    "universe element lost its last set mid-batch"
                );
            }
            (a, r) = (a_end, r_end);
        }
        report.membership_additions = d.adds.len() as u64;
        report.membership_removals = d.removals.len() as u64;
        // (d) Retire the deleted tuples' sets; orphaned elements are
        // reassigned, and drops only happen when the database emptied.
        for &(id, _) in &t.deleted {
            let dropped = self.cover.remove_set(id).expect("set registered at insert");
            for u in dropped {
                debug_assert!(self.kd.is_empty(), "drop with nonempty database");
                self.pending.insert(u);
            }
        }
        // (e) Commit: one STABILIZE pass over the accumulated worklist.
        report.stabilize_moves = self.cover.commit();
        self.stats.evictions += report.membership_removals;
        self.stats.admissions += report.membership_additions;
        t.touched = touched;

        // ------------------------------------------------------------
        // Phase 5: rebalance once.
        // ------------------------------------------------------------
        if self.kd.is_empty() {
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

    /// Phase 1: checks `ops` against the database as they apply in order
    /// and folds them to their net effect: the written tuples it returns
    /// (the inserts, then the updates, each in id order), and the updated
    /// and deleted tuples' slots in `t`. It fills the report's net counts
    /// and no-op updates, and books the operations and the batch. The ops
    /// are grouped by id, each id's in op order: an op's validity depends
    /// only on its own id's earlier ops, so the error returned, the first
    /// invalid op of the batch, is the first of the ids' first invalid
    /// ops.
    fn net_effect<'a>(
        &mut self,
        ops: &'a [Op],
        t: &mut BatchTables,
        report: &mut BatchReport,
    ) -> Result<Vec<&'a Point>, FdRmsError> {
        t.order.extend(ops.iter().map(Op::id).zip(0..));
        t.order.sort_unstable();
        let mut first_err: Option<(usize, FdRmsError)> = None;
        let mut op_count = 0u64;
        let mut written = Vec::new();
        let mut updates: Vec<&Point> = Vec::new();
        for run in t.order.chunk_by(|a, b| a.0 == b.0) {
            let id = run[0].0;
            let slot = self.cover.slot(id);
            let stored = slot.map(|s| self.tuples.coords(s));
            // The id's attributes after each op (`None`: not live), and
            // the tuple of the op that wrote them.
            let (mut now, mut last): (Option<&[f64]>, Option<&Point>) = (stored, None);
            for &(_, i) in run {
                let err = match &ops[i] {
                    // Dimension before id-existence: the error a malformed
                    // op yields must not depend on the verb.
                    Op::Insert(p) | Op::Update(p) if p.dim() != self.d => {
                        Some(FdRmsError::DimensionMismatch {
                            expected: self.d,
                            got: p.dim(),
                        })
                    }
                    Op::Insert(_) if now.is_some() => Some(FdRmsError::DuplicateId(id)),
                    Op::Delete(_) | Op::Update(_) if now.is_none() => {
                        Some(FdRmsError::UnknownId(id))
                    }
                    Op::Update(p) if now == Some(p.coords()) => {
                        report.noop_updates += 1;
                        None
                    }
                    Op::Insert(p) => {
                        op_count += 1;
                        (now, last) = (Some(p.coords()), Some(p));
                        None
                    }
                    Op::Update(p) => {
                        // An update is a delete + an insert (Section II-B).
                        op_count += 2;
                        (now, last) = (Some(p.coords()), Some(p));
                        None
                    }
                    Op::Delete(_) => {
                        op_count += 1;
                        now = None;
                        None
                    }
                };
                if let Some(e) = err {
                    if first_err.as_ref().is_none_or(|&(j, _)| i < j) {
                        first_err = Some((i, e));
                    }
                    break;
                }
            }
            match (now, slot) {
                (Some(_), None) => written.push(last.expect("an insert made it live")),
                (Some(c), Some(s)) if Some(c) != stored => {
                    updates.push(last.expect("an op wrote it"));
                    t.updated.push(s);
                }
                (None, Some(s)) => t.deleted.push((id, s)),
                // Unchanged, or inserted and deleted within the batch:
                // transient, no effect on the final state.
                _ => {}
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        report.inserted = written.len();
        report.updated = updates.len();
        report.deleted = t.deleted.len();
        written.extend(updates);
        self.ops += op_count;
        self.stats.batches += 1;
        Ok(written)
    }

    /// A requery utility, answered from its ε-band (see [`requery`]): the
    /// pre-batch `Φ` members that survived, rescored from the tuple table
    /// at their post-batch attributes, plus the cone hits that were not
    /// members hold every tuple clearing the old τ. The kd-tree is asked
    /// for the top-k only when fewer than `k` of them still clear it, and
    /// walked only for the entrants when τ fell.
    fn requeried(
        &self,
        u: usize,
        tau_old: f64,
        written: &[&Point],
        inserted: &[&Point],
        t: &mut BatchTables,
    ) -> TopKState {
        let w = &self.utilities[u];
        let elem = u as ElemId;
        // Surviving members first, in row order (a deleted tuple's row is
        // dead), then the hits `Φ` does not hold yet: every inserted one,
        // and the updated ones outside it.
        let tuples = &self.tuples;
        t.band.clear();
        t.band.extend(
            self.cover
                .slots_containing(elem)
                .iter()
                .filter(|&&s| tuples.is_live(s))
                .map(|&s| RankedPoint {
                    id: tuples.id(s),
                    score: w.score_coords(tuples.coords(s)),
                }),
        );
        let members = t.band.len();
        t.band.extend(
            t.hits[t.rows[u].hits.clone()]
                .iter()
                .map(|&(_, i)| (i, written[i]))
                .filter(|&(i, p)| i < inserted.len() || !self.cover.set_contains(p.id(), elem))
                .map(|(_, p)| RankedPoint {
                    id: p.id(),
                    score: w.score(p),
                }),
        );
        let Requery {
            exact,
            tau,
            entrants,
        } = requery(&self.kd, w, self.k, self.eps, tau_old, &t.band, |pid| {
            self.cover.set_contains(pid, elem)
        });
        // Admissions in rank order: the new hits clearing τ′ (all at or
        // above the old τ), then the entrants below it.
        let new_hits = &mut t.band[members..];
        new_hits.sort_unstable_by(rank_cmp);
        for rp in new_hits
            .iter()
            .take_while(|rp| rp.score >= tau)
            .chain(&entrants)
        {
            t.deltas.admit(elem, rp.id, inserted, || false);
        }
        // Evictions: the surviving members below τ′.
        let removals = &mut t.deltas.removals;
        let start = removals.len();
        removals.extend(
            t.band[..members]
                .iter()
                .filter(|rp| rp.score < tau)
                .map(|rp| rp.id),
        );
        removals[start..].sort_unstable();
        TopKState { exact, tau }
    }

    /// An incremental utility: merge the cone hits into the stored exact
    /// top-k `st`, recompute τ, and scan the membership for evictions
    /// *only when τ rose* — plus a rescore of just the updated members,
    /// whose new attributes may fall below an unchanged τ.
    fn incremental(
        &self,
        u: usize,
        mut st: TopKState,
        written: &[&Point],
        inserted: &[&Point],
        t: &mut BatchTables,
    ) -> TopKState {
        let w = &self.utilities[u];
        let elem = u as ElemId;
        let tau_old = st.tau;
        // Merge the hits into the stored exact top-k, in place. Hits are
        // written tuples clearing the old threshold — the only possible
        // new entrants (a threshold can only rise here, and any tuple
        // entering the exact top-k must clear the old τ). Updated tuples
        // in the old exact top-k are requery class, so the stored entries
        // are all live with unchanged attributes.
        t.band.clear();
        t.band.extend(
            t.hits[t.rows[u].hits.clone()]
                .iter()
                .map(|&(_, i)| RankedPoint {
                    id: written[i].id(),
                    score: w.score(written[i]),
                }),
        );
        t.band.sort_unstable_by(rank_cmp);
        merge_top_k(&mut st.exact, &t.band, self.k);
        st.tau = threshold(&st.exact, self.k, self.eps);
        debug_assert!(st.tau >= tau_old - 1e-12, "incremental τ fell");

        // Admissions: hits clearing the new threshold that are not yet
        // members (a hit below the risen τ sat only in the old band).
        for rp in t.band.iter().take_while(|rp| rp.score >= st.tau) {
            t.deltas.admit(elem, rp.id, inserted, || {
                self.cover.set_contains(rp.id, elem)
            });
        }

        // Evictions: when τ rose, any live member may have fallen below
        // it (rescored from the tuple table); otherwise only updated
        // members can have dropped out.
        let removals = &mut t.deltas.removals;
        if st.tau > tau_old {
            let start = removals.len();
            let tuples = &self.tuples;
            removals.extend(
                self.cover
                    .slots_containing(elem)
                    .iter()
                    .filter(|&&s| tuples.is_live(s) && w.score_coords(tuples.coords(s)) < st.tau)
                    .map(|&s| tuples.id(s)),
            );
            removals[start..].sort_unstable();
        } else {
            for &(_, i) in &t.moved[t.rows[u].moved.clone()] {
                if w.score(written[i]) < st.tau {
                    removals.push(written[i].id());
                }
            }
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::tests::membership_diff;
    use crate::UpdateStats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

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
        // is checked first, alone or behind a valid op.
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
            // Behind a valid op.
            assert_eq!(
                fd.apply_batch(vec![Op::Delete(1), op.clone()]).unwrap_err(),
                dim_err,
                "batched {op:?}"
            );
            // Alone.
            assert_eq!(
                fd.apply_batch(vec![op.clone()]).unwrap_err(),
                dim_err,
                "single {op:?}"
            );
        }
        assert_eq!(fd.len(), 30, "failed validation must not mutate");
        fd.check_invariants().unwrap();
    }

    /// Validation groups the ops by id, yet reports the batch's first
    /// invalid op whichever id sorts first, judges each op against what
    /// its id's earlier ops left, and mutates nothing on failure.
    #[test]
    fn validation_reports_the_first_invalid_op() {
        let pts = random_points(16, 30, 2);
        let mut fd = builder(2).build(pts.clone()).unwrap();
        let at = |id, x| Point::new_unchecked(id, vec![x, 0.5]);
        let failing = [
            // Op 1 deletes 25 twice; op 2's duplicate 2 sorts first.
            (
                vec![
                    Op::Delete(25),
                    Op::Delete(25),
                    Op::Insert(at(2, 0.1)),
                    Op::Update(at(9_999, 0.2)),
                ],
                FdRmsError::UnknownId(25),
            ),
            // 100 lives only between its insert and its delete.
            (
                vec![
                    Op::Insert(at(100, 0.3)),
                    Op::Update(at(100, 0.4)),
                    Op::Delete(100),
                    Op::Update(at(100, 0.5)),
                ],
                FdRmsError::UnknownId(100),
            ),
            // A deleted id may come back, but only once.
            (
                vec![
                    Op::Delete(3),
                    Op::Insert(at(3, 0.6)),
                    Op::Insert(at(3, 0.7)),
                ],
                FdRmsError::DuplicateId(3),
            ),
        ];
        for (ops, want) in failing {
            assert_eq!(fd.apply_batch(ops).unwrap_err(), want);
        }
        assert_eq!((fd.len(), fd.operations()), (30, 0));
        assert_eq!(fd.stats(), UpdateStats::default());
        // The fold judges an update against its id's earlier ops too.
        let report = fd
            .apply_batch(vec![
                Op::Insert(at(100, 0.3)),
                Op::Update(at(100, 0.3)),
                Op::Update(pts[5].clone()),
                Op::Delete(6),
                Op::Insert(at(6, 0.8)),
            ])
            .unwrap();
        assert_eq!(report.noop_updates, 2);
        let net = (report.inserted, report.updated, report.deleted);
        assert_eq!(net, (1, 1, 0));
        assert_eq!(fd.operations(), 3);
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
        // A one-op no-op update.
        fd.update(pts[2].clone()).unwrap();
        assert_eq!(fd.stats().topk_requeries, requeries_before);
        assert_eq!(fd.operations(), 0, "no-ops do not count as operations");
        fd.check_invariants().unwrap();
    }

    #[test]
    fn batch_drains_to_empty_and_refills() {
        let pts = random_points(13, 25, 2);
        let mut fd = builder(2).build(pts.clone()).unwrap();
        let before = fd.stats();
        let drain: Vec<Op> = pts.iter().map(|p| Op::Delete(p.id())).collect();
        let report = fd.apply_batch(drain).unwrap();
        assert_eq!(report.deleted, 25);
        // Every utility lost its whole top-k, and the stats book the
        // requeries.
        let after = fd.stats();
        assert_eq!(report.requeried_utilities, fd.max_utilities());
        assert_eq!(
            report.affected_utilities as u64,
            after.affected_utilities - before.affected_utilities
        );
        assert_eq!(
            report.requeried_utilities as u64,
            after.topk_requeries - before.topk_requeries
        );
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
        let (before, stats, ops) = (fd.result_ids(), fd.stats(), fd.operations());
        let report = fd.apply_batch(Vec::new()).unwrap();
        assert_eq!(report.ops, 0);
        assert_eq!((report.m, report.result_size), (fd.m(), before.len()));
        let report = fd.apply_batch_slice(&[]).unwrap();
        assert_eq!(report.ops, 0);
        assert_eq!(fd.result_ids(), before);
        // Nothing is booked: an empty batch is no batch.
        assert_eq!(fd.stats(), stats);
        assert_eq!(fd.operations(), ops);
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
        assert_eq!(report.result_size, fd.result().len());
        assert_eq!(report.m, fd.m());
        assert_eq!(fd.stats().batches, 1);
        assert_eq!(fd.operations(), 40);
    }

    /// `BatchReport`'s counters against brute force after every call, on
    /// `tests/determinism.rs`'s data (anticorrelated, d = 6, n = 600,
    /// `StdRng` 2021), in two regimes: ε = 0.1 saturates the universe
    /// (m = M), ε = 0.001 keeps m < M so UPDATE-M runs. One script runs
    /// at two batch sizes: one-op calls (the report of `insert`, `delete`
    /// and `update`) and batches of 25. `before` trails `fd` by one call,
    /// so it holds the pre-call state.
    #[test]
    fn report_counters_match_brute_force() {
        for (batch, eps, r) in [(1, 0.1, 50), (1, 0.001, 20), (25, 0.1, 50), (25, 0.001, 20)] {
            let mut rng = StdRng::seed_from_u64(2021);
            let points = rms_data::anticorrelated(&mut rng, 600, 6);
            let cfg = rms_data::MixedConfig {
                ops: 300,
                ..rms_data::MixedConfig::default()
            };
            let wl = rms_data::mixed_workload(&mut rng, points, cfg);
            let build = || {
                FdRms::builder(6)
                    .k(3)
                    .r(r)
                    .epsilon(eps)
                    .max_utilities(256)
                    .seed(7)
                    .build(wl.initial.clone())
                    .unwrap()
            };
            let (mut before, mut fd) = (build(), build());
            for (b, ops) in wl.batches(batch).enumerate() {
                let ops: Vec<Op> = ops
                    .iter()
                    .map(|op| match op {
                        rms_data::Operation::Insert(p) => Op::Insert(p.clone()),
                        rms_data::Operation::Delete(id) => Op::Delete(*id),
                        rms_data::Operation::Update(p) => Op::Update(p.clone()),
                    })
                    .collect();
                let stats = fd.stats();
                let report = fd.apply_batch(ops.clone()).unwrap();
                let at = format!("eps {eps}, {batch}-op call {b}");
                fd.check_invariants()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(
                    (report.membership_additions, report.membership_removals),
                    membership_diff(&before, &fd),
                    "{at}"
                );
                // Tuples deleted or given new attributes, and the tuples
                // written at new attributes.
                let kept = |p: &Point, other: &FdRms| {
                    other
                        .tuple(p.id())
                        .is_some_and(|q| q.coords() == p.coords())
                };
                let gone: Vec<PointId> = before
                    .live_points()
                    .iter()
                    .filter(|p| !kept(p, &fd))
                    .map(Point::id)
                    .collect();
                let live = fd.live_points();
                let written: Vec<&Point> = live.iter().filter(|p| !kept(p, &before)).collect();
                let requery = (0..fd.cap_m)
                    .filter(|&u| before.topk[u].exact.iter().any(|e| gone.contains(&e.id)))
                    .count();
                assert_eq!(report.requeried_utilities, requery, "{at}");
                // The affected class: the gone tuples' pre-batch
                // memberships, plus the utilities a written tuple reaches
                // at their pre-batch threshold.
                let reached = (0..fd.cap_m).filter(|&u| {
                    let (w, tau) = (&before.utilities[u], before.cone.threshold(u));
                    written.iter().any(|p| w.score(p) >= tau)
                });
                let affected: BTreeSet<usize> = gone
                    .iter()
                    .flat_map(|&id| before.cover.members(id).unwrap())
                    .map(|&u| u as usize)
                    .chain(reached)
                    .collect();
                assert_eq!(report.affected_utilities, affected.len(), "{at}");
                let phi = |e: &FdRms, u: usize| -> BTreeSet<PointId> {
                    e.cover.sets_containing(u as ElemId).collect()
                };
                for u in (0..fd.cap_m).filter(|u| !affected.contains(u)) {
                    assert_eq!(fd.topk[u].exact, before.topk[u].exact, "{at}: utility {u}");
                    assert_eq!(fd.topk[u].tau, before.topk[u].tau, "{at}: utility {u}");
                    assert_eq!(phi(&fd, u), phi(&before, u), "{at}: utility {u}");
                }
                // The stats book exactly what the report does.
                let s = fd.stats();
                assert_eq!(
                    (
                        s.affected_utilities - stats.affected_utilities,
                        s.topk_requeries - stats.topk_requeries,
                        s.admissions - stats.admissions,
                        s.evictions - stats.evictions,
                    ),
                    (
                        report.affected_utilities as u64,
                        report.requeried_utilities as u64,
                        report.membership_additions,
                        report.membership_removals,
                    ),
                    "{at}"
                );
                assert_eq!(
                    fd.m() < fd.max_utilities(),
                    eps < 0.01,
                    "{at}: m = {}",
                    fd.m()
                );
                before.apply_batch(ops).unwrap();
            }
            let s = fd.stats();
            assert_eq!(
                s.m_grow_steps + s.m_shrink_steps > 0,
                eps < 0.01,
                "eps {eps}, {batch}-op calls"
            );
        }
    }

    /// The tuple table follows the cover's slots at every batch size,
    /// checked against the kd-tree after every call: a one-op update keeps
    /// its slot; a batch hands its new tuples fresh slots in phase 4(a)
    /// before its deleted tuples free theirs in 4(d); the next batch's
    /// inserts take those, last freed first.
    #[test]
    fn table_rows_follow_slot_reuse() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut fd = builder(3).build(random_points(19, 60, 3)).unwrap();
        // Tuple `id` at fresh random attributes.
        let mut at = |id| Point::new_unchecked(id, (0..3).map(|_| rng.gen()).collect());
        let check = |fd: &FdRms, what: &str| {
            fd.check_invariants()
                .unwrap_or_else(|e| panic!("after {what}: {e}"));
        };
        check(&fd, "build");
        let slot = |fd: &FdRms, id: PointId| fd.cover.slot(id);

        // One-op calls: an update keeps its slot and rewrites its row.
        for id in [3, 17, 42] {
            let held = slot(&fd, id);
            fd.update(at(id)).unwrap();
            check(&fd, "a one-op update");
            assert_eq!(slot(&fd, id), held);
        }
        // A delete, then an insert of a fresh id into the freed slot.
        let held = slot(&fd, 5);
        fd.delete(5).unwrap();
        check(&fd, "a one-op delete");
        assert_eq!(slot(&fd, 5), None);
        fd.insert(at(500)).unwrap();
        check(&fd, "a one-op insert");
        assert_eq!(slot(&fd, 500), held);

        // One batch deletes, inserts and updates. It deletes three tuples
        // that head some utility's top-k, so those utilities rescore
        // their bands while the deleted sets still stand. No slot is free
        // before it, so its inserts take new slots 60..63, not the ones
        // its deletes free.
        let mut heads: Vec<PointId> = fd.topk.iter().map(|st| st.exact[0].id).collect();
        heads.sort_unstable();
        heads.dedup();
        heads.retain(|&id| id != 10);
        let gone = [heads[0], heads[1], heads[2]];
        let freed: Vec<_> = gone.map(|id| slot(&fd, id).unwrap()).to_vec();
        let updated = slot(&fd, 10);
        let ops = vec![
            Op::Delete(gone[0]),
            Op::Insert(at(600)),
            Op::Update(at(10)),
            Op::Delete(gone[1]),
            Op::Insert(at(601)),
            Op::Delete(gone[2]),
            Op::Insert(at(602)),
        ];
        let report = fd.apply_batch(ops).unwrap();
        check(&fd, "a mixed batch");
        assert_eq!((report.inserted, report.deleted, report.updated), (3, 3, 1));
        let fresh: BTreeSet<_> = [600, 601, 602].map(|id| slot(&fd, id).unwrap()).into();
        assert_eq!(fresh, (60..63).collect());
        assert_eq!(slot(&fd, 10), updated);
        assert!(gone.iter().all(|&id| slot(&fd, id).is_none()));

        // The next batch's inserts reuse the freed slots: 4(d) freed them
        // in id order, and the most recently freed goes first. The batch
        // also updates a tuple that took its slot in the last one.
        let ops = vec![
            Op::Insert(at(700)),
            Op::Update(at(600)),
            Op::Insert(at(701)),
            Op::Insert(at(702)),
        ];
        fd.apply_batch(ops).unwrap();
        check(&fd, "a batch of inserts");
        let reused: Vec<_> = [702, 701, 700].map(|id| slot(&fd, id).unwrap()).to_vec();
        assert_eq!(reused, freed);
        assert_eq!(fd.len(), 63);
    }

    #[test]
    fn op_accessors() {
        let p = Point::new_unchecked(7, vec![0.1, 0.2]);
        assert_eq!(Op::Insert(p.clone()).id(), 7);
        assert_eq!(Op::Update(p).id(), 7);
        assert_eq!(Op::Delete(9).id(), 9);
    }
}
