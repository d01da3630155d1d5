//! The dynamic set-cover structure (Algorithm 1 of the paper).
//!
//! # Layout
//!
//! Every table is a plain `Vec` indexed by a dense integer, so the
//! maintenance loops (the counter updates of a level change, `relevel`,
//! `try_assign`, `STABILIZE`, `greedy`) hash nothing:
//!
//! - element ids index the element table directly: per element, the sets
//!   containing it, universe membership and `φ`;
//! - each set gets a `u32` *slot* from the one map keyed by client
//!   [`SetId`]s, looked up once per public call; freed slots are reused
//!   last-in first-out. Member rows, cover rows, levels, the per-level
//!   counters and the worklist guard are slot-indexed.
//!
//! A membership `u ∈ S` is stored twice, in `S`'s member row and in `u`'s
//! set row, and each copy records the position of the other, so removing
//! it is two `swap_remove`s; a per-set bitmap answers membership tests. A
//! cover row entry likewise records its position in the element table.
//! Rows are appended in call order and only ever swap-removed, so their
//! order, and with it the stable cover that STABILIZE and orphan
//! reassignment reach, depends only on the sequence of calls.

use crate::level::LevelBase;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Identifier of a universe element. In FD-RMS, elements are utility
/// vectors, indexed `0..m`. Element ids index dense tables, so the
/// structure's memory grows with the largest id in use.
pub type ElemId = u32;

/// Identifier of a set in the collection `S`. In FD-RMS, sets are tuples:
/// `S(p)` is identified by the tuple id of `p`.
pub type SetId = u64;

/// Dense index of a live set (see the module docs).
type Slot = u32;

/// "No set" / "no level": `φ(u)` of an unassigned element and the level of
/// a set outside the solution.
const NONE: u32 = u32::MAX;

/// Errors raised by [`DynamicSetCover`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverError {
    /// Inserting a set id that already exists.
    DuplicateSet(SetId),
    /// Operating on a set id that does not exist.
    UnknownSet(SetId),
    /// Inserting an element already in the universe.
    DuplicateElement(ElemId),
    /// Removing an element that is not in the universe.
    UnknownElement(ElemId),
    /// An element must be covered but no set in the system contains it.
    UncoverableElement(ElemId),
}

impl std::fmt::Display for CoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverError::DuplicateSet(s) => write!(f, "set {s} already exists"),
            CoverError::UnknownSet(s) => write!(f, "set {s} does not exist"),
            CoverError::DuplicateElement(u) => write!(f, "element {u} already in universe"),
            CoverError::UnknownElement(u) => write!(f, "element {u} not in universe"),
            CoverError::UncoverableElement(u) => {
                write!(f, "element {u} is contained in no set")
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// One slot's rows.
#[derive(Debug, Clone)]
struct SetRows {
    /// The client id of the set in this slot (stale while the slot is free).
    id: SetId,
    /// Whether the slot holds a set; free slots are on the free list.
    live: bool,
    /// The set's member elements.
    elems: Vec<ElemId>,
    /// `back[i]` is this slot's position in the set row of `elems[i]`.
    back: Vec<u32>,
    /// Membership bitmap over element ids: bit `u` is set iff `u ∈ S`.
    bits: Vec<u64>,
    /// The cover set `cov(S)`; empty outside the solution.
    cov: Vec<ElemId>,
    /// The set's level while in the solution `C`, [`NONE`] outside.
    level: u32,
}

impl Default for SetRows {
    fn default() -> Self {
        Self {
            id: 0,
            live: false,
            elems: Vec::new(),
            back: Vec::new(),
            bits: Vec::new(),
            cov: Vec::new(),
            level: NONE,
        }
    }
}

/// One element's rows.
#[derive(Debug, Clone)]
struct ElemRows {
    /// Slots of the sets containing the element.
    sets: Vec<Slot>,
    /// `back[i]` is the element's position in the member row of `sets[i]`.
    back: Vec<u32>,
    /// Whether the element is in the universe `U`.
    in_universe: bool,
    /// `φ(u)`, [`NONE`] while unassigned.
    phi: Slot,
    /// The element's position in `cov(φ(u))`.
    cov_pos: u32,
}

impl Default for ElemRows {
    fn default() -> Self {
        Self {
            sets: Vec::new(),
            back: Vec::new(),
            in_universe: false,
            phi: NONE,
            cov_pos: 0,
        }
    }
}

/// The intersection counters `|S ∩ A_j|` for every slot (solution member
/// or not) and level, one row of `levels` entries per slot, and the
/// condition-(2) worklist they feed.
#[derive(Debug, Clone, Default)]
struct Counters {
    /// Row stride: one more than the highest level a cover set can reach.
    levels: usize,
    /// `cnt[s * levels + j] = |S ∩ A_j|` for the set in slot `s`.
    cnt: Vec<u32>,
    /// `queued[s * levels + j]`: whether `(s, j)` is on `dirty`.
    queued: Vec<bool>,
    /// `threshold[j] = ⌈b^{j+1}⌉`, the condition-(2) bound of level `j`.
    threshold: Vec<usize>,
    /// `(slot, level)` pairs whose counter reached its threshold.
    dirty: VecDeque<(Slot, u32)>,
}

impl Counters {
    fn at(&self, s: Slot, j: u32) -> usize {
        s as usize * self.levels + j as usize
    }

    fn violated(&self, s: Slot, j: u32) -> bool {
        self.cnt[self.at(s, j)] as usize >= self.threshold[j as usize]
    }

    fn inc(&mut self, s: Slot, j: u32) {
        let at = self.at(s, j);
        self.cnt[at] += 1;
        if self.cnt[at] as usize >= self.threshold[j as usize] && !self.queued[at] {
            self.queued[at] = true;
            self.dirty.push_back((s, j));
        }
    }

    fn dec(&mut self, s: Slot, j: u32) {
        let at = self.at(s, j);
        debug_assert!(self.cnt[at] > 0, "cnt underflow for slot {s} level {j}");
        self.cnt[at] -= 1;
    }

    /// Moves one element's contribution from level `old` to level `new`
    /// (`None` = unassigned) in every set of its set row `sets`.
    fn shift(&mut self, sets: &[Slot], old: Option<u32>, new: Option<u32>) {
        if old == new {
            return;
        }
        for &t in sets {
            if let Some(j) = old {
                self.dec(t, j);
            }
            if let Some(j) = new {
                self.inc(t, j);
            }
        }
    }

    fn pop(&mut self) -> Option<(Slot, u32)> {
        let (s, j) = self.dirty.pop_front()?;
        let at = self.at(s, j);
        self.queued[at] = false;
        Some((s, j))
    }

    /// Appends a zeroed row for a new slot.
    fn add_slot(&mut self) {
        self.cnt.resize(self.cnt.len() + self.levels, 0);
        self.queued.resize(self.queued.len() + self.levels, false);
    }

    /// Zeroes slot `s`'s counters. Its worklist entries stay queued: they
    /// fail revalidation while the counters are zero.
    fn clear_slot(&mut self, s: Slot) {
        let at = self.at(s, 0);
        self.cnt[at..at + self.levels].fill(0);
    }

    fn clear(&mut self) {
        self.cnt.fill(0);
        self.queued.fill(false);
        self.dirty.clear();
    }

    /// Widens every row to at least `levels` entries.
    fn ensure_levels(&mut self, base: LevelBase, levels: usize) {
        if levels <= self.levels {
            return;
        }
        let slots = self.cnt.len().checked_div(self.levels).unwrap_or(0);
        let (mut cnt, mut queued) = (vec![0; slots * levels], vec![false; slots * levels]);
        for s in 0..slots {
            let (from, to) = (s * self.levels, s * levels);
            cnt[to..to + self.levels].copy_from_slice(&self.cnt[from..from + self.levels]);
            queued[to..to + self.levels].copy_from_slice(&self.queued[from..from + self.levels]);
        }
        self.cnt = cnt;
        self.queued = queued;
        self.levels = levels;
        self.threshold = (0..levels as u32).map(|j| base.threshold(j)).collect();
    }
}

/// A dynamic set-cover instance together with a maintained stable solution.
///
/// The structure holds the set system `Σ = (U, S)` (memberships may include
/// elements outside the current universe — they simply do not need
/// covering) and a solution `C` with assignment `φ`, kept stable in the
/// sense of Definition 2 after every mutation.
#[derive(Debug, Clone)]
pub struct DynamicSetCover {
    base: LevelBase,
    /// Client set id → slot: the only map keyed by [`SetId`].
    slot_of: HashMap<SetId, Slot>,
    /// Slot-indexed rows.
    sets: Vec<SetRows>,
    /// Free slots, reused last-in first-out.
    free: Vec<Slot>,
    /// Element-indexed rows, grown to the largest element id seen.
    elems: Vec<ElemRows>,
    /// `|U|`.
    universe_len: usize,
    /// `|C|`.
    solution_len: usize,
    counters: Counters,
    /// Cumulative number of stabilisation element moves (reported by
    /// [`DynamicSetCover::stabilize_moves`]).
    stabilize_moves: u64,
    /// When `true` (between [`DynamicSetCover::begin_batch`] and
    /// [`DynamicSetCover::commit`]), mutations accumulate violation
    /// candidates on the worklist instead of stabilising immediately.
    batching: bool,
    /// Reusable buffers of `stabilize` and `greedy`, kept across calls.
    scratch: Scratch,
}

/// Reusable scratch buffers. Each is owned by exactly one routine (taken
/// with `mem::take`, cleared, and put back).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `stabilize`: the grabbed `S ∩ A_j`.
    grabbed: Vec<ElemId>,
    /// `stabilize`: former owners of grabbed elements.
    losers: Vec<Slot>,
    /// `greedy`: per element id, whether it is still uncovered.
    uncovered: Vec<bool>,
}

impl Default for DynamicSetCover {
    fn default() -> Self {
        Self::new(LevelBase::TWO)
    }
}

impl DynamicSetCover {
    /// Creates an empty instance with the given level base.
    pub fn new(base: LevelBase) -> Self {
        let mut counters = Counters::default();
        counters.ensure_levels(base, 1);
        Self {
            base,
            slot_of: HashMap::new(),
            sets: Vec::new(),
            free: Vec::new(),
            elems: Vec::new(),
            universe_len: 0,
            solution_len: 0,
            counters,
            stabilize_moves: 0,
            batching: false,
            scratch: Scratch::default(),
        }
    }

    // ------------------------------------------------------------------
    // Deferred-stabilisation transactions
    // ------------------------------------------------------------------

    /// Starts a batch: subsequent mutations keep all membership, universe,
    /// assignment, and counter bookkeeping exact, but defer `STABILIZE`
    /// until [`DynamicSetCover::commit`]. Between the two calls the
    /// solution is a valid cover (every universe element stays assigned to
    /// a set containing it) but may violate the stability condition (2),
    /// so [`DynamicSetCover::check_invariants`] can fail mid-batch.
    ///
    /// Idempotent; batches do not nest.
    pub fn begin_batch(&mut self) {
        self.batching = true;
    }

    /// Ends the batch and runs `STABILIZE` once over every violation
    /// candidate the batched mutations accumulated. Returns the number of
    /// element moves this stabilisation pass performed. A no-op (returning
    /// 0) when no batch is open and the worklist is empty.
    pub fn commit(&mut self) -> u64 {
        self.batching = false;
        let before = self.stabilize_moves;
        self.stabilize();
        self.stabilize_moves - before
    }

    /// Whether a deferred-stabilisation batch is currently open.
    pub fn is_batching(&self) -> bool {
        self.batching
    }

    /// Runs `STABILIZE` unless a batch is open (mutation entry points call
    /// this so batched mutations only enqueue violation candidates).
    fn maybe_stabilize(&mut self) {
        if !self.batching {
            self.stabilize();
        }
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// Number of sets in the solution `|C|`.
    pub fn solution_size(&self) -> usize {
        self.solution_len
    }

    /// The solution `C` as set ids (unspecified order).
    pub fn solution(&self) -> impl Iterator<Item = SetId> + '_ {
        self.sets
            .iter()
            .filter(|row| row.level != NONE)
            .map(|row| row.id)
    }

    /// Whether `s` is part of the solution.
    pub fn in_solution(&self, s: SetId) -> bool {
        self.slot_of
            .get(&s)
            .is_some_and(|&t| self.sets[t as usize].level != NONE)
    }

    /// The set `φ(u)` covering element `u`, if assigned.
    pub fn assignment(&self, u: ElemId) -> Option<SetId> {
        let phi = self.elems.get(u as usize)?.phi;
        (phi != NONE).then(|| self.sets[phi as usize].id)
    }

    /// Size of the universe `m = |U|`.
    pub fn universe_size(&self) -> usize {
        self.universe_len
    }

    /// Number of sets in the system `|S|`.
    pub fn num_sets(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the set `s` exists in the system.
    pub fn has_set(&self, s: SetId) -> bool {
        self.slot_of.contains_key(&s)
    }

    /// Whether element `u` is in the universe.
    pub fn has_element(&self, u: ElemId) -> bool {
        self.elems.get(u as usize).is_some_and(|e| e.in_universe)
    }

    /// Membership of a set, if it exists (unspecified order).
    pub fn members(&self, s: SetId) -> Option<&[ElemId]> {
        let &t = self.slot_of.get(&s)?;
        Some(&self.sets[t as usize].elems)
    }

    /// All sets containing element `u` (its membership in the transposed
    /// system — in FD-RMS terms, the tuples whose `Φ_{k,ε}` contains `u`),
    /// in unspecified order.
    pub fn sets_containing(&self, u: ElemId) -> impl ExactSizeIterator<Item = SetId> + '_ {
        let row = self.elems.get(u as usize).map_or(&[][..], |e| &e.sets);
        row.iter().map(|&t| self.sets[t as usize].id)
    }

    /// Whether set `s` contains element `u`.
    pub fn set_contains(&self, s: SetId, u: ElemId) -> bool {
        self.slot_of.get(&s).is_some_and(|&t| self.contains(t, u))
    }

    /// Total element moves performed by `STABILIZE` so far.
    pub fn stabilize_moves(&self) -> u64 {
        self.stabilize_moves
    }

    // ------------------------------------------------------------------
    // Membership and universe operations (the σ of Algorithm 1)
    // ------------------------------------------------------------------

    /// Adds a fresh set with the given members. Members need not be in the
    /// universe. The solution is unaffected (an empty-cov set never enters
    /// `C` spontaneously), but condition (2) may now be violated by the new
    /// set, so stabilisation runs.
    pub fn insert_set(
        &mut self,
        s: SetId,
        members: impl IntoIterator<Item = ElemId>,
    ) -> Result<(), CoverError> {
        if self.slot_of.contains_key(&s) {
            return Err(CoverError::DuplicateSet(s));
        }
        let t = self.alloc_slot(s);
        let members = members.into_iter();
        let row = &mut self.sets[t as usize];
        row.elems.reserve_exact(members.size_hint().0);
        row.back.reserve_exact(members.size_hint().0);
        for u in members {
            if self.link(t, u) {
                if let Some(level) = self.assigned_level(u) {
                    self.counters.inc(t, level);
                }
            }
        }
        self.maybe_stabilize();
        Ok(())
    }

    /// Removes a set from the system. Elements it covered are reassigned
    /// to other sets containing them (σ = (u, S, −) for each, per the
    /// deletion path of Algorithm 3). Elements contained in no remaining
    /// set are dropped from the universe and returned.
    pub fn remove_set(&mut self, s: SetId) -> Result<Vec<ElemId>, CoverError> {
        let t = self.slot_of.remove(&s).ok_or(CoverError::UnknownSet(s))?;
        for i in 0..self.sets[t as usize].elems.len() {
            let row = &self.sets[t as usize];
            self.unlink_elem_entry(row.elems[i], row.back[i]);
        }
        // Free the slot, dropping its rows rather than clearing them: a
        // reused slot that kept them would grow to the largest rows it
        // ever held. Then detach the solution bookkeeping for s.
        let SetRows {
            level: j,
            cov: orphans,
            ..
        } = std::mem::take(&mut self.sets[t as usize]);
        self.counters.clear_slot(t);
        self.free.push(t);
        if j != NONE {
            self.solution_len -= 1;
            for &u in &orphans {
                self.elems[u as usize].phi = NONE;
                self.counters
                    .shift(&self.elems[u as usize].sets, Some(j), None);
            }
        }

        let mut dropped = Vec::new();
        for u in orphans {
            if self.try_assign(u).is_err() {
                self.elems[u as usize].in_universe = false;
                self.universe_len -= 1;
                dropped.push(u);
            }
        }
        self.maybe_stabilize();
        Ok(dropped)
    }

    /// σ = (u, S, +): adds element `u` to set `s`.
    pub fn add_to_set(&mut self, u: ElemId, s: SetId) -> Result<(), CoverError> {
        let t = self.slot(s)?;
        if !self.link(t, u) {
            return Ok(()); // already a member — no-op
        }
        if let Some(level) = self.assigned_level(u) {
            self.counters.inc(t, level);
        }
        self.maybe_stabilize();
        Ok(())
    }

    /// σ = (u, S, −): removes element `u` from set `s`. If `u` was
    /// assigned to `s`, it is reassigned to another set containing it
    /// (Lines 2–5 of Algorithm 1); if no such set exists, `u` is dropped
    /// from the universe and `Ok(false)` is returned. `Ok(true)` means `u`
    /// remains covered (or was not in the universe at all).
    pub fn remove_from_set(&mut self, u: ElemId, s: SetId) -> Result<bool, CoverError> {
        let t = self.slot(s)?;
        if !self.contains(t, u) {
            return Ok(true); // was not a member — no-op
        }
        self.unlink(t, u);
        if let Some(level) = self.assigned_level(u) {
            self.counters.dec(t, level);
            if self.elems[u as usize].phi == t {
                self.unassign(u);
                if self.try_assign(u).is_err() {
                    self.elems[u as usize].in_universe = false;
                    self.universe_len -= 1;
                    self.maybe_stabilize();
                    return Ok(false);
                }
            }
        }
        self.maybe_stabilize();
        Ok(true)
    }

    /// σ = (u, U, +): adds element `u` to the universe and assigns it.
    ///
    /// Fails with [`CoverError::UncoverableElement`] if no set contains
    /// `u`; callers add memberships first (as FD-RMS does in Algorithm 4).
    pub fn insert_element(&mut self, u: ElemId) -> Result<(), CoverError> {
        let Some(e) = self.elems.get_mut(u as usize) else {
            return Err(CoverError::UncoverableElement(u));
        };
        if e.in_universe {
            return Err(CoverError::DuplicateElement(u));
        }
        if e.sets.is_empty() {
            return Err(CoverError::UncoverableElement(u));
        }
        e.in_universe = true;
        self.universe_len += 1;
        // Memberships of u now count towards cnt: u enters level(φ(u))
        // inside try_assign.
        self.try_assign(u).expect("membership checked above");
        self.maybe_stabilize();
        Ok(())
    }

    /// σ = (u, U, −): removes element `u` from the universe.
    pub fn remove_element(&mut self, u: ElemId) -> Result<(), CoverError> {
        let Some(e) = self.elems.get_mut(u as usize).filter(|e| e.in_universe) else {
            return Err(CoverError::UnknownElement(u));
        };
        e.in_universe = false;
        self.universe_len -= 1;
        if e.phi != NONE {
            self.unassign(u);
        }
        self.maybe_stabilize();
        Ok(())
    }

    /// Replaces the universe wholesale, discarding the current solution.
    ///
    /// Used by the FD-RMS initialisation (Algorithm 2), which binary
    /// searches the sample size `m` and reruns [`DynamicSetCover::greedy`]
    /// on `U = {u_1, …, u_m}` at each probe — incremental element
    /// insertion would waste stabilisation work that greedy immediately
    /// throws away. Call [`DynamicSetCover::greedy`] afterwards to obtain
    /// a solution; until then the structure has no cover.
    pub fn reset_universe(&mut self, elems: impl IntoIterator<Item = ElemId>) {
        self.clear_solution();
        for e in &mut self.elems {
            e.in_universe = false;
        }
        self.universe_len = 0;
        for u in elems {
            self.ensure_elem(u);
            let e = &mut self.elems[u as usize];
            if !e.in_universe {
                e.in_universe = true;
                self.universe_len += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // GREEDY initialisation (Lines 13–19 of Algorithm 1)
    // ------------------------------------------------------------------

    /// Discards the current solution and recomputes one with the classic
    /// greedy algorithm, assigning every chosen set to its level. Ties on
    /// the number of newly covered elements go to the smallest set id. By
    /// Lemma 1 the result is stable.
    pub fn greedy(&mut self) -> Result<(), CoverError> {
        self.clear_solution();
        let mut uncovered = std::mem::take(&mut self.scratch.uncovered);
        uncovered.clear();
        uncovered.extend(self.elems.iter().map(|e| e.in_universe));
        let result = self.greedy_picks(&mut uncovered);
        self.scratch.uncovered = uncovered;
        result?;

        // Rebuild the intersection counters from scratch.
        let levels = self.counters.levels;
        for e in &self.elems {
            if e.phi != NONE {
                let j = self.sets[e.phi as usize].level as usize;
                for &t in &e.sets {
                    self.counters.cnt[t as usize * levels + j] += 1;
                }
            }
        }
        // Lemma 1: the greedy solution is stable; verify cheaply in debug.
        debug_assert!(
            self.find_violation().is_none(),
            "greedy produced unstable C"
        );
        Ok(())
    }

    /// The pick loop of [`DynamicSetCover::greedy`]: a lazy-decrement
    /// max-heap over `(|S ∩ I|, Reverse(id))`. Counts only ever shrink, so
    /// a popped entry matching its recomputed count is globally maximal.
    fn greedy_picks(&mut self, uncovered: &mut [bool]) -> Result<(), CoverError> {
        let mut left = self.universe_len;
        let mut heap: BinaryHeap<(usize, Reverse<SetId>, Slot)> = self
            .sets
            .iter()
            .enumerate()
            .filter(|(_, row)| row.live)
            .map(|(t, row)| {
                let c = row.elems.iter().filter(|&&u| uncovered[u as usize]).count();
                (c, Reverse(row.id), t as Slot)
            })
            .collect();
        while left > 0 {
            let Some((c, id, t)) = heap.pop().filter(|&(c, ..)| c > 0) else {
                let u = uncovered.iter().position(|&x| x).expect("nonempty");
                return Err(CoverError::UncoverableElement(u as ElemId));
            };
            let row = &mut self.sets[t as usize];
            let mut fresh = std::mem::take(&mut row.cov);
            fresh.extend(row.elems.iter().filter(|&&u| uncovered[u as usize]));
            if fresh.len() < c {
                // Stale entry: reinsert with the true count.
                heap.push((fresh.len(), id, t));
                fresh.clear();
                row.cov = fresh;
                continue;
            }
            row.level = self.base.level_for(fresh.len());
            for (i, &u) in fresh.iter().enumerate() {
                uncovered[u as usize] = false;
                let e = &mut self.elems[u as usize];
                e.phi = t;
                e.cov_pos = i as u32;
            }
            left -= fresh.len();
            row.cov = fresh;
            self.solution_len += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The slot of set `s`.
    fn slot(&self, s: SetId) -> Result<Slot, CoverError> {
        self.slot_of
            .get(&s)
            .copied()
            .ok_or(CoverError::UnknownSet(s))
    }

    /// Gives set `s` a slot, reusing the most recently freed one.
    fn alloc_slot(&mut self, s: SetId) -> Slot {
        let t = self.free.pop().unwrap_or_else(|| {
            self.sets.push(SetRows::default());
            self.counters.add_slot();
            (self.sets.len() - 1) as Slot
        });
        let row = &mut self.sets[t as usize];
        row.id = s;
        row.live = true;
        self.slot_of.insert(s, t);
        t
    }

    /// Grows the element table to hold `u`, widening the counter rows
    /// when the table admits larger cover sets.
    fn ensure_elem(&mut self, u: ElemId) {
        let len = u as usize + 1;
        if len > self.elems.len() {
            self.elems.resize_with(len, ElemRows::default);
            let levels = self.base.level_for(len) as usize + 1;
            self.counters.ensure_levels(self.base, levels);
        }
    }

    /// Whether the set in slot `t` contains `u`.
    fn contains(&self, t: Slot, u: ElemId) -> bool {
        self.sets[t as usize]
            .bits
            .get(u as usize / 64)
            .is_some_and(|w| w >> (u % 64) & 1 == 1)
    }

    /// Records `u ∈ S` in both rows; `false` if it already was a member.
    fn link(&mut self, t: Slot, u: ElemId) -> bool {
        self.ensure_elem(u);
        let row = &mut self.sets[t as usize];
        let (w, bit) = (u as usize / 64, 1u64 << (u % 64));
        if row.bits.len() <= w {
            row.bits.resize(w + 1, 0);
        }
        if row.bits[w] & bit != 0 {
            return false;
        }
        row.bits[w] |= bit;
        let e = &mut self.elems[u as usize];
        row.back.push(e.sets.len() as u32);
        e.back.push(row.elems.len() as u32);
        row.elems.push(u);
        e.sets.push(t);
        true
    }

    /// Removes the member `u` from both rows of slot `t`. The position is
    /// found by scanning the shorter of the two rows.
    fn unlink(&mut self, t: Slot, u: ElemId) {
        let (row, e) = (&self.sets[t as usize], &self.elems[u as usize]);
        let i = if row.elems.len() <= e.sets.len() {
            row.elems.iter().position(|&v| v == u)
        } else {
            let j = e.sets.iter().position(|&x| x == t);
            j.map(|j| e.back[j] as usize)
        }
        .expect("the membership bit has a row entry");
        let row = &mut self.sets[t as usize];
        row.bits[u as usize / 64] &= !(1u64 << (u % 64));
        row.elems.swap_remove(i);
        let j = row.back.swap_remove(i);
        if let (Some(&v), Some(&k)) = (row.elems.get(i), row.back.get(i)) {
            self.elems[v as usize].back[k as usize] = i as u32;
        }
        self.unlink_elem_entry(u, j);
    }

    /// Removes entry `j` of `u`'s set row, repairing the back pointer of
    /// the entry swapped into its place.
    fn unlink_elem_entry(&mut self, u: ElemId, j: u32) {
        let e = &mut self.elems[u as usize];
        e.sets.swap_remove(j as usize);
        e.back.swap_remove(j as usize);
        if let (Some(&t), Some(&i)) = (e.sets.get(j as usize), e.back.get(j as usize)) {
            self.sets[t as usize].back[i as usize] = j;
        }
    }

    /// Adds `u` to `cov(t)` and sets `φ(u) = t`.
    fn cover_push(&mut self, t: Slot, u: ElemId) {
        let cov = &mut self.sets[t as usize].cov;
        let e = &mut self.elems[u as usize];
        e.phi = t;
        e.cov_pos = cov.len() as u32;
        cov.push(u);
    }

    /// Removes `u` from `cov(φ(u))` and unassigns it; returns the former
    /// owner.
    fn cover_take(&mut self, u: ElemId) -> Slot {
        let e = &mut self.elems[u as usize];
        let (t, at) = (e.phi, e.cov_pos as usize);
        e.phi = NONE;
        let cov = &mut self.sets[t as usize].cov;
        cov.swap_remove(at);
        if let Some(&v) = cov.get(at) {
            self.elems[v as usize].cov_pos = at as u32;
        }
        t
    }

    /// Discards the solution, its counters and the worklist.
    fn clear_solution(&mut self) {
        for row in &mut self.sets {
            row.cov.clear();
            row.level = NONE;
        }
        for e in &mut self.elems {
            e.phi = NONE;
        }
        self.solution_len = 0;
        self.counters.clear();
    }

    /// The level of the set currently covering `u`, if `u` is assigned.
    fn assigned_level(&self, u: ElemId) -> Option<u32> {
        let t = self.elems[u as usize].phi;
        (t != NONE).then(|| self.sets[t as usize].level)
    }

    /// Assigns `u` to a set containing it, preferring solution members
    /// (Line 4 of Algorithm 1 reassigns to "S+ ∈ S s.t. u ∈ S+"; choosing
    /// an existing solution member keeps `|C|` from growing needlessly,
    /// and among those the largest cover set is the most stable home, ties
    /// to the smallest id). Without one, the smallest-id set joins `C`.
    fn try_assign(&mut self, u: ElemId) -> Result<(), CoverError> {
        let e = &self.elems[u as usize];
        debug_assert_eq!(e.phi, NONE, "try_assign of an assigned element");
        let sets = &self.sets;
        let target = e
            .sets
            .iter()
            .copied()
            .filter(|&t| sets[t as usize].level != NONE)
            .max_by_key(|&t| {
                let row = &sets[t as usize];
                (row.cov.len(), Reverse(row.id))
            })
            .or_else(|| e.sets.iter().copied().min_by_key(|&t| sets[t as usize].id))
            .ok_or(CoverError::UncoverableElement(u))?;

        self.cover_push(target, u);
        let row = &mut self.sets[target as usize];
        if row.level == NONE {
            row.level = self.base.level_for(1);
            self.solution_len += 1;
        }
        let level = row.level;
        self.counters
            .shift(&self.elems[u as usize].sets, None, Some(level));
        self.relevel(target);
        Ok(())
    }

    /// Whether `u` is assigned at level `j` to a set other than slot `s`:
    /// an element STABILIZE moves into `s` when `(s, j)` is violated.
    fn movable(&self, u: ElemId, s: Slot, j: u32) -> bool {
        let owner = self.elems[u as usize].phi;
        owner != NONE && owner != s && self.sets[owner as usize].level == j
    }

    /// Removes `u` from its cover set (keeping it in the universe) and
    /// relevels the former owner.
    fn unassign(&mut self, u: ElemId) {
        let t = self.cover_take(u);
        let j = self.sets[t as usize].level;
        self.counters
            .shift(&self.elems[u as usize].sets, Some(j), None);
        self.relevel(t);
    }

    /// RELEVEL (Lines 20–27 of Algorithm 1): moves the set in slot `t` to
    /// the level matching `|cov|`, or removes it from `C` when its cover
    /// set is empty. Level moves update the assigned level of every
    /// covered element.
    fn relevel(&mut self, t: Slot) {
        let row = &mut self.sets[t as usize];
        if row.level == NONE {
            return;
        }
        if row.cov.is_empty() {
            row.level = NONE;
            self.solution_len -= 1;
            return;
        }
        let (j, j_new) = (row.level, self.base.level_for(row.cov.len()));
        if j_new == j {
            return;
        }
        row.level = j_new;
        for &u in &self.sets[t as usize].cov {
            self.counters
                .shift(&self.elems[u as usize].sets, Some(j), Some(j_new));
        }
    }

    /// STABILIZE (Lines 28–32 of Algorithm 1): while some set intersects a
    /// level's assigned elements in at least `b^{j+1}` elements, that set
    /// grabs the whole intersection into its own cover set, releveling all
    /// touched sets.
    fn stabilize(&mut self) {
        // Lemma 2: every move strictly raises an element's level, so the
        // loop terminates after O(m log m) moves. The generous cap turns a
        // bookkeeping bug into a loud failure rather than a hang.
        let cap = 64 * (self.universe_len as u64 + 2) * 64 + 4096;
        let mut guard = 0u64;
        // Reused scratch across the whole drain (and across transactions).
        let mut grabbed = std::mem::take(&mut self.scratch.grabbed);
        let mut losers = std::mem::take(&mut self.scratch.losers);
        while let Some((s, j)) = self.counters.pop() {
            guard += 1;
            assert!(guard < cap, "STABILIZE failed to converge — invariant bug");
            // Revalidate: the entry may be stale (a freed slot's counters
            // are zero).
            if !self.counters.violated(s, j) {
                continue;
            }
            // Grab S ∩ A_j. Elements already assigned to s (possible when s
            // itself sits at level j) stay put.
            grabbed.clear();
            grabbed.extend(
                self.sets[s as usize]
                    .elems
                    .iter()
                    .copied()
                    .filter(|&u| self.movable(u, s, j)),
            );
            if grabbed.is_empty() {
                continue;
            }
            // Ensure s is in the solution. Provisional level j, corrected by
            // relevel below, keeps the grabbed elements' level transition
            // accurate.
            let row = &mut self.sets[s as usize];
            if row.level == NONE {
                row.level = j;
                self.solution_len += 1;
            }
            let s_level = row.level;
            losers.clear();
            for &u in &grabbed {
                losers.push(self.cover_take(u));
                self.cover_push(s, u);
                self.counters
                    .shift(&self.elems[u as usize].sets, Some(j), Some(s_level));
                self.stabilize_moves += 1;
            }
            losers.sort_unstable();
            losers.dedup();
            self.relevel(s);
            for &t in &losers {
                self.relevel(t);
            }
        }
        self.scratch.grabbed = grabbed;
        self.scratch.losers = losers;
    }

    // ------------------------------------------------------------------
    // Verification (tests, debug)
    // ------------------------------------------------------------------

    /// Scans for a condition-(2) violation; `None` means stable.
    fn find_violation(&self) -> Option<(SetId, u32)> {
        for (s, row) in self.sets.iter().enumerate().filter(|(_, r)| r.live) {
            let s = s as Slot;
            for j in 0..self.counters.levels as u32 {
                // Elements already covered by s itself at j do not count:
                // grabbing them changes nothing (see `stabilize`).
                if self.counters.violated(s, j) && row.elems.iter().any(|&u| self.movable(u, s, j))
                {
                    return Some((row.id, j));
                }
            }
        }
        None
    }

    /// Exhaustively checks every invariant. Intended for tests; runs in
    /// time proportional to the whole structure.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_slots()?;
        self.check_rows()?;
        // 1. Cover rows partition the universe, agree with φ, and hold
        //    members only; condition (1): levels match cover sizes.
        let mut covered = 0;
        let mut solution = 0;
        for (t, row) in self.sets.iter().enumerate() {
            let s = row.id;
            if row.level == NONE {
                if !row.cov.is_empty() {
                    return Err(format!("set {s} outside C has a cover row"));
                }
                continue;
            }
            if !row.live {
                return Err(format!("free slot {t} is in the solution"));
            }
            if row.cov.is_empty() {
                return Err(format!("solution set {s} has empty cover"));
            }
            let want = self.base.level_for(row.cov.len());
            if want != row.level {
                return Err(format!(
                    "set {s}: |cov| = {} ⇒ level {want}, stored {}",
                    row.cov.len(),
                    row.level
                ));
            }
            solution += 1;
            for (i, &u) in row.cov.iter().enumerate() {
                let Some(e) = self.elems.get(u as usize).filter(|e| e.in_universe) else {
                    return Err(format!("cov({s}) holds non-universe element {u}"));
                };
                if !self.contains(t as Slot, u) {
                    return Err(format!("cov({s}) holds non-member {u}"));
                }
                // One (φ, position) pair per element: no element is
                // covered twice.
                if e.phi != t as Slot || e.cov_pos as usize != i {
                    return Err(format!("φ({u}) disagrees with cov({s})"));
                }
                covered += 1;
            }
        }
        let in_universe = self.elems.iter().filter(|e| e.in_universe).count();
        if in_universe != self.universe_len || covered != self.universe_len {
            return Err(format!(
                "covered {covered} of {in_universe} universe elements (|U| recorded as {})",
                self.universe_len
            ));
        }
        if solution != self.solution_len {
            return Err(format!(
                "|C| = {solution}, recorded as {}",
                self.solution_len
            ));
        }
        // 2. Counters match a recomputation, and the worklist guard
        //    mirrors the worklist.
        let levels = self.counters.levels;
        let mut want_cnt = vec![0u32; self.counters.cnt.len()];
        for e in &self.elems {
            if e.phi != NONE {
                let j = self.sets[e.phi as usize].level as usize;
                for &t in &e.sets {
                    want_cnt[t as usize * levels + j] += 1;
                }
            }
        }
        if want_cnt != self.counters.cnt {
            return Err("intersection counters out of sync".to_string());
        }
        let mut want_queued = vec![false; self.counters.queued.len()];
        for &(t, j) in &self.counters.dirty {
            if std::mem::replace(&mut want_queued[self.counters.at(t, j)], true) {
                return Err(format!("worklist holds (slot {t}, level {j}) twice"));
            }
        }
        if want_queued != self.counters.queued {
            return Err("worklist guard out of sync with the worklist".to_string());
        }
        // 3. Condition (2): no actionable violation remains.
        if let Some((s, j)) = self.find_violation() {
            return Err(format!("unstable: set {s} vs level {j}"));
        }
        Ok(())
    }

    /// The slot table: the id → slot map and the slot → id map agree, and
    /// every slot is either live or on the free list, exactly once, with a
    /// free slot holding no row memory.
    fn check_slots(&self) -> Result<(), String> {
        for (&s, &t) in &self.slot_of {
            if !self
                .sets
                .get(t as usize)
                .is_some_and(|row| row.live && row.id == s)
            {
                return Err(format!("set {s} maps to slot {t}, which does not hold it"));
            }
        }
        let mut on_free = vec![false; self.sets.len()];
        for &t in &self.free {
            let Some(row) = self.sets.get(t as usize) else {
                return Err(format!("free list holds missing slot {t}"));
            };
            if row.live {
                return Err(format!(
                    "live slot {t} (set {}) is on the free list",
                    row.id
                ));
            }
            if std::mem::replace(&mut on_free[t as usize], true) {
                return Err(format!("slot {t} is on the free list twice"));
            }
            // Capacity, not length: a freed slot gives its memory back.
            let held = row.elems.capacity()
                + row.back.capacity()
                + row.bits.capacity()
                + row.cov.capacity();
            if held > 0 {
                return Err(format!("free slot {t} keeps row memory"));
            }
        }
        let live = self.sets.iter().filter(|row| row.live).count();
        if live != self.slot_of.len() || live + self.free.len() != self.sets.len() {
            return Err(format!(
                "{live} live and {} free of {} slots, {} ids mapped",
                self.free.len(),
                self.sets.len(),
                self.slot_of.len()
            ));
        }
        Ok(())
    }

    /// Per-element rows mirror per-set rows: every membership appears once
    /// in each, the back pointers join the two copies, and the bitmaps
    /// hold exactly the member rows.
    fn check_rows(&self) -> Result<(), String> {
        for (t, row) in self.sets.iter().enumerate() {
            let s = row.id;
            if row.elems.len() != row.back.len() {
                return Err(format!("member row of set {s} has a ragged back row"));
            }
            for (i, (&u, &j)) in row.elems.iter().zip(&row.back).enumerate() {
                let mirrored = self.elems.get(u as usize).is_some_and(|e| {
                    e.sets.get(j as usize) == Some(&(t as Slot))
                        && e.back.get(j as usize) == Some(&(i as u32))
                });
                if !mirrored || !self.contains(t as Slot, u) {
                    return Err(format!("membership ({u}, {s}) is not mirrored"));
                }
            }
            let bits: u32 = row.bits.iter().map(|w| w.count_ones()).sum();
            if bits as usize != row.elems.len() {
                return Err(format!(
                    "set {s}: {bits} membership bits for {} members",
                    row.elems.len()
                ));
            }
        }
        for (u, e) in self.elems.iter().enumerate() {
            if e.sets.len() != e.back.len() {
                return Err(format!("set row of element {u} has a ragged back row"));
            }
            for (j, (&t, &i)) in e.sets.iter().zip(&e.back).enumerate() {
                let mirrored = self.sets.get(t as usize).is_some_and(|row| {
                    row.live
                        && row.elems.get(i as usize) == Some(&(u as ElemId))
                        && row.back.get(i as usize) == Some(&(j as u32))
                });
                if !mirrored {
                    return Err(format!("set row of element {u} holds stale slot {t}"));
                }
            }
            if e.phi != NONE && !e.in_universe {
                return Err(format!("element {u} outside U is assigned"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a cover instance over elements `0..m` from (set, members).
    fn build(m: u32, sets: &[(SetId, &[ElemId])]) -> DynamicSetCover {
        let mut c = DynamicSetCover::default();
        for &(s, members) in sets {
            c.insert_set(s, members.iter().copied()).unwrap();
        }
        for u in 0..m {
            c.insert_element(u).unwrap();
        }
        c
    }

    #[test]
    fn greedy_covers_and_is_stable() {
        let mut c = build(
            6,
            &[(1, &[0, 1, 2, 3]), (2, &[3, 4]), (3, &[4, 5]), (4, &[5])],
        );
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        // Optimal is {1, 3}: greedy picks set 1 (4 fresh), then set 3.
        assert_eq!(c.solution_size(), 2);
        assert!(c.in_solution(1) && c.in_solution(3));
    }

    #[test]
    fn incremental_inserts_keep_cover() {
        let mut c = DynamicSetCover::default();
        c.insert_set(10, [0, 1]).unwrap();
        c.insert_element(0).unwrap();
        c.insert_element(1).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert_eq!(c.assignment(0), Some(10));
        assert_eq!(c.assignment(1), Some(10));
    }

    #[test]
    fn uncoverable_element_rejected() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        assert_eq!(
            c.insert_element(99),
            Err(CoverError::UncoverableElement(99))
        );
    }

    #[test]
    fn duplicate_errors() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        assert_eq!(c.insert_set(1, [1]), Err(CoverError::DuplicateSet(1)));
        c.insert_element(0).unwrap();
        assert_eq!(c.insert_element(0), Err(CoverError::DuplicateElement(0)));
        assert_eq!(c.remove_element(5), Err(CoverError::UnknownElement(5)));
        assert_eq!(c.remove_set(9), Err(CoverError::UnknownSet(9)));
        assert_eq!(c.add_to_set(0, 9), Err(CoverError::UnknownSet(9)));
    }

    #[test]
    fn remove_from_set_reassigns() {
        let mut c = build(2, &[(1, &[0, 1]), (2, &[0])]);
        c.greedy().unwrap();
        assert_eq!(c.assignment(0), Some(1));
        // Remove 0 from set 1: must be reassigned to set 2.
        assert!(c.remove_from_set(0, 1).unwrap());
        assert_eq!(c.assignment(0), Some(2));
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_from_set_drops_uncoverable() {
        let mut c = build(2, &[(1, &[0, 1])]);
        c.greedy().unwrap();
        assert!(!c.remove_from_set(0, 1).unwrap());
        assert!(!c.has_element(0));
        assert!(c.has_element(1));
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_set_reassigns_cover() {
        let mut c = build(3, &[(1, &[0, 1, 2]), (2, &[0, 1]), (3, &[2])]);
        c.greedy().unwrap();
        assert!(c.in_solution(1));
        let dropped = c.remove_set(1).unwrap();
        assert!(dropped.is_empty());
        c.check_invariants().unwrap();
        assert!(!c.has_set(1));
        assert_eq!(c.universe_size(), 3);
    }

    #[test]
    fn remove_set_drops_exclusive_elements() {
        let mut c = build(2, &[(1, &[0, 1]), (2, &[1])]);
        c.greedy().unwrap();
        let dropped = c.remove_set(1).unwrap();
        assert_eq!(dropped, vec![0]);
        assert!(!c.has_element(0));
        assert_eq!(c.assignment(1), Some(2));
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_element_shrinks_cover() {
        let mut c = build(3, &[(1, &[0, 1, 2])]);
        c.greedy().unwrap();
        c.remove_element(0).unwrap();
        c.remove_element(1).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 1);
        assert_eq!(c.solution_size(), 1);
        c.remove_element(2).unwrap();
        assert_eq!(c.solution_size(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn stabilize_consolidates_scattered_assignments() {
        // Elements 0..8 initially covered by 8 singleton sets; then a new
        // set containing all of them arrives. Condition (2) forces the big
        // set to grab everything: |S ∩ A_0| = 8 ≥ 2.
        let mut c = DynamicSetCover::default();
        for u in 0..8u32 {
            c.insert_set(u as SetId + 1, [u]).unwrap();
        }
        for u in 0..8 {
            c.insert_element(u).unwrap();
        }
        assert_eq!(c.solution_size(), 8);
        c.insert_set(100, 0..8).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert!(c.in_solution(100));
        assert!(c.stabilize_moves() >= 8);
    }

    #[test]
    fn add_to_set_can_trigger_stabilize() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        c.insert_set(2, [1]).unwrap();
        c.insert_set(3, []).unwrap();
        c.insert_element(0).unwrap();
        c.insert_element(1).unwrap();
        assert_eq!(c.solution_size(), 2);
        // Growing set 3 to contain both level-0 elements violates (2).
        c.add_to_set(0, 3).unwrap();
        c.add_to_set(1, 3).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert!(c.in_solution(3));
    }

    #[test]
    fn solution_quality_is_logarithmic() {
        // Universe 0..n covered by: one full set + n singletons. A stable
        // solution must use O(log n) sets — in fact the full set only.
        let n: u32 = 64;
        let mut c = DynamicSetCover::default();
        c.insert_set(1000, 0..n).unwrap();
        for u in 0..n {
            c.insert_set(u as SetId, [u]).unwrap();
        }
        for u in 0..n {
            c.insert_element(u).unwrap();
        }
        c.check_invariants().unwrap();
        // Theorem 1: |C| ≤ (2 + 2·log2 m)·OPT with OPT = 1 here.
        let bound = 2.0 + 2.0 * (n as f64).log2();
        assert!(
            (c.solution_size() as f64) <= bound,
            "|C| = {} exceeds stable bound {bound}",
            c.solution_size()
        );
    }

    #[test]
    fn greedy_matches_paper_example_fig3b() {
        // Fig. 3b: U = {u1..u6}, solution {S(p1), S(p2), S(p4)} with
        // cov(S(p1)) = {u2, u5}, cov(S(p4)) = {u1, u4, u6}, cov(S(p2)) =
        // {u3}. Memberships (1-RMS, ε = 0.002 on the example data):
        // S(p1) ⊇ {u2, u5} (top for near-y directions), S(p2) ∋ u3,
        // S(p4) ⊇ {u1, u4, u6}. We reproduce the set system shape.
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [1, 4]).unwrap(); // S(p1): u2, u5
        c.insert_set(2, [2]).unwrap(); // S(p2): u3
        c.insert_set(4, [0, 3, 5]).unwrap(); // S(p4): u1, u4, u6
        for u in 0..6 {
            c.insert_element(u).unwrap();
        }
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 3);
        assert!(c.in_solution(1) && c.in_solution(2) && c.in_solution(4));
    }

    #[test]
    fn level_base_is_configurable() {
        let mut c = DynamicSetCover::new(LevelBase::new(4.0));
        c.insert_set(1, 0..16).unwrap();
        for u in 0..16 {
            c.insert_element(u).unwrap();
        }
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
    }

    #[test]
    fn greedy_on_empty_universe() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0, 1]).unwrap();
        c.greedy().unwrap();
        assert_eq!(c.solution_size(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn greedy_uncoverable() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        c.insert_element(0).unwrap();
        // Force an uncovered element artificially: remove set then greedy.
        let dropped = c.remove_set(1).unwrap();
        assert_eq!(dropped, vec![0]);
        c.greedy().unwrap(); // empty universe now — fine
        assert_eq!(c.solution_size(), 0);
    }

    #[test]
    fn membership_accessors() {
        let c = build(3, &[(1, &[0, 1]), (2, &[1, 2])]);
        assert!(c.set_contains(1, 0));
        assert!(!c.set_contains(1, 2));
        assert!(!c.set_contains(42, 0));
        let of1: Vec<SetId> = {
            let mut v: Vec<SetId> = c.sets_containing(1).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(of1, vec![1, 2]);
        assert_eq!(c.sets_containing(99).len(), 0);
    }

    #[test]
    fn rows_keep_call_order() {
        let mut c = DynamicSetCover::default();
        c.insert_set(7, [5, 3, 9, 1]).unwrap();
        c.insert_set(2, [3]).unwrap();
        c.insert_set(4, [3, 5]).unwrap();
        assert_eq!(c.members(7).unwrap(), &[5, 3, 9, 1]);
        assert_eq!(c.sets_containing(3).collect::<Vec<_>>(), vec![7, 2, 4]);
        // A removal moves the last entry of each row into the hole.
        c.remove_from_set(3, 7).unwrap();
        assert_eq!(c.members(7).unwrap(), &[5, 1, 9]);
        assert_eq!(c.sets_containing(3).collect::<Vec<_>>(), vec![4, 2]);
        // Repeated members are recorded once.
        c.insert_set(8, [2, 2, 6, 2]).unwrap();
        assert_eq!(c.members(8).unwrap(), &[2, 6]);
        c.check_invariants().unwrap();
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut c = build(4, &[(10, &[0, 1]), (20, &[1, 2]), (30, &[2, 3])]);
        c.remove_set(10).unwrap();
        c.remove_set(30).unwrap();
        // Slots follow insertion order: 10 held slot 0, 30 slot 2.
        c.insert_set(40, [3]).unwrap();
        assert_eq!(c.slot_of[&40], 2);
        c.insert_set(50, [0]).unwrap();
        assert_eq!(c.slot_of[&50], 0);
        c.insert_set(60, [1]).unwrap();
        assert_eq!(c.slot_of[&60], 3);
        assert_eq!(c.sets.len(), 4);
        c.insert_element(3).unwrap();
        assert_eq!(c.assignment(3), Some(40));
        c.check_invariants().unwrap();
    }

    #[test]
    fn freed_slot_drops_its_rows() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, 0..1000).unwrap();
        c.reset_universe(0..1000);
        c.greedy().unwrap();
        assert_eq!(c.remove_set(1).unwrap().len(), 1000);
        let row = &c.sets[0];
        assert!(!row.live && row.level == NONE);
        let held =
            row.elems.capacity() + row.back.capacity() + row.bits.capacity() + row.cov.capacity();
        assert_eq!(held, 0);
        // The next set takes the slot and sizes it for its own rows only.
        c.insert_set(2, [5]).unwrap();
        assert_eq!(c.slot_of[&2], 0);
        assert_eq!(c.sets[0].bits.len(), 1);
        assert_eq!(c.universe_size(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn set_ids_span_the_whole_u64_range() {
        let mut c = DynamicSetCover::default();
        for s in [u64::MAX, 0, 1 << 63, u64::MAX - 1] {
            c.insert_set(s, [0, 1]).unwrap();
        }
        c.reset_universe(0..2);
        c.greedy().unwrap();
        // Identical sets: greedy's tie goes to the smallest id.
        assert_eq!(c.solution().collect::<Vec<_>>(), vec![0]);
        // Orphans go to the smallest remaining id, and then stay together.
        c.remove_set(0).unwrap();
        assert_eq!(c.assignment(0), Some(1 << 63));
        assert_eq!(c.assignment(1), Some(1 << 63));
        c.remove_set(1 << 63).unwrap();
        assert_eq!(c.assignment(0), Some(u64::MAX - 1));
        // A removed id can come back.
        c.insert_set(0, [1]).unwrap();
        assert!(c.has_set(0) && c.has_set(u64::MAX) && !c.has_set(1 << 63));
        assert_eq!(c.num_sets(), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn sparse_element_ids_grow_the_tables() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0, 63]).unwrap();
        c.insert_element(0).unwrap();
        c.insert_element(63).unwrap();
        let levels = c.counters.levels;
        // A far larger id grows the element table and widens the counter
        // rows of every existing slot.
        c.insert_set(2, [63, 64, 70_000]).unwrap();
        c.insert_set(3, [64, 70_000]).unwrap();
        assert!(c.counters.levels > levels);
        c.insert_element(70_000).unwrap();
        c.insert_element(64).unwrap();
        c.check_invariants().unwrap();
        assert!(c.set_contains(2, 64) && !c.set_contains(1, 64) && !c.set_contains(3, 63));
        assert_eq!(c.sets_containing(70_000).len(), 2);
        // Ids in the gap have rows but are in no set and not in U.
        assert!(!c.has_element(69_999));
        assert_eq!(c.assignment(69_999), None);
        assert_eq!(c.sets_containing(69_999).len(), 0);
        assert_eq!(
            c.insert_element(69_999),
            Err(CoverError::UncoverableElement(69_999))
        );
        // Ids past the table are rejected without growing it.
        let len = c.elems.len();
        assert_eq!(
            c.insert_element(u32::MAX - 1),
            Err(CoverError::UncoverableElement(u32::MAX - 1))
        );
        assert_eq!(
            c.remove_element(70_001),
            Err(CoverError::UnknownElement(70_001))
        );
        assert_eq!(c.elems.len(), len);
        c.check_invariants().unwrap();
    }

    #[test]
    fn long_rows_unlink_from_either_side() {
        // Removing a membership scans the shorter of its two rows: the
        // element's set row when the member row is long, the member row
        // when the element is in many sets.
        let mut c = DynamicSetCover::default();
        c.insert_set(0, 0..900).unwrap();
        for s in 1..=600u32 {
            c.insert_set(s as SetId, [0, 900 + s]).unwrap();
        }
        c.reset_universe(0..900);
        c.greedy().unwrap();
        for u in (0..900).step_by(7) {
            // Only element 0 has another set to move to.
            assert_eq!(c.remove_from_set(u, 0).unwrap(), u == 0);
        }
        for s in (1..=600).step_by(5) {
            assert!(c.remove_from_set(0, s).unwrap());
        }
        c.check_invariants().unwrap();
        let mut members = c.members(0).unwrap().to_vec();
        members.sort_unstable();
        assert_eq!(members, (0..900).filter(|u| u % 7 != 0).collect::<Vec<_>>());
        let mut holders: Vec<SetId> = c.sets_containing(0).collect();
        holders.sort_unstable();
        assert_eq!(
            holders,
            (1..=600).filter(|s| s % 5 != 1).collect::<Vec<_>>()
        );
        assert_eq!(c.assignment(0), Some(2));
    }

    #[test]
    fn identical_call_sequences_give_identical_covers() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        fn apply(c: &mut DynamicSetCover, kind: u32, s: SetId, u: ElemId, m: &[ElemId]) -> String {
            match kind {
                0 if c.has_set(s) => format!("{:?}", c.remove_set(s)),
                0 => format!("{:?}", c.insert_set(s, m.iter().copied())),
                1 => format!("{:?}", c.add_to_set(u, s)),
                2 => format!("{:?}", c.remove_from_set(u, s)),
                3 if c.has_element(u) => format!("{:?}", c.remove_element(u)),
                3 => format!("{:?}", c.insert_element(u)),
                _ => format!("{:?}", c.greedy()),
            }
        }
        let mut rng = StdRng::seed_from_u64(11);
        let ids: Vec<SetId> = (0..24).map(|_| rng.gen()).collect();
        let (mut a, mut b) = (DynamicSetCover::default(), DynamicSetCover::default());
        for step in 0..600 {
            let kind = [0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4][rng.gen_range(0..11usize)];
            let s = ids[rng.gen_range(0..ids.len())];
            let u = rng.gen_range(0..60u32) * 5;
            let m: Vec<ElemId> = (0..60u32)
                .filter(|_| rng.gen_bool(0.3))
                .map(|v| v * 5)
                .collect();
            let (ra, rb) = (apply(&mut a, kind, s, u, &m), apply(&mut b, kind, s, u, &m));
            assert_eq!(ra, rb, "step {step}: outcomes diverged");
            assert_eq!(
                a.solution().collect::<Vec<_>>(),
                b.solution().collect::<Vec<_>>(),
                "step {step}: solutions diverged"
            );
            for u in 0..300 {
                assert_eq!(a.assignment(u), b.assignment(u), "step {step}: φ({u})");
            }
        }
        a.check_invariants().unwrap();
    }

    /// A consistent instance with one freed slot (slot 2), for the
    /// corruption tests.
    fn sample() -> DynamicSetCover {
        let mut c = build(4, &[(10, &[0, 1]), (20, &[1, 2, 3]), (30, &[3])]);
        c.remove_set(30).unwrap();
        c.check_invariants().unwrap();
        c
    }

    #[test]
    fn check_invariants_catches_slot_table_damage() {
        let mut c = sample();
        c.free.push(0);
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("on the free list"), "{err}");
        // An id mapped to a slot that holds another set.
        let mut c = sample();
        c.slot_of.insert(10, 1);
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("does not hold it"), "{err}");
        // A leaked slot: unmapped but neither freed nor emptied.
        let mut c = sample();
        c.slot_of.remove(&20);
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("ids mapped"), "{err}");
        // A freed slot that kept row memory.
        let mut c = sample();
        c.sets[2].elems.reserve(4);
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("keeps row memory"), "{err}");
    }

    #[test]
    fn check_invariants_catches_unmirrored_rows() {
        // A membership dropped from the element's row only.
        let mut c = sample();
        c.elems[1].sets.pop();
        c.elems[1].back.pop();
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("not mirrored"), "{err}");
        // An element row still naming a freed slot.
        let mut c = sample();
        c.elems[0].sets.push(2);
        c.elems[0].back.push(0);
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("stale slot 2"), "{err}");
        // A membership bit with no row entry.
        let mut c = sample();
        c.sets[0].bits[0] |= 1 << 5;
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("membership bits"), "{err}");
    }

    #[test]
    fn reset_universe_supports_binary_search() {
        let mut c = build(6, &[(1, &[0, 1, 2, 3]), (2, &[2, 3, 4, 5]), (3, &[4, 5])]);
        // Probe a smaller universe, then a larger one, as Algorithm 2 does.
        c.reset_universe(0..3);
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 3);
        assert_eq!(c.solution_size(), 1);
        c.reset_universe(0..6);
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 6);
        assert_eq!(c.solution_size(), 2);
    }

    #[test]
    fn batched_mutations_stabilize_once_at_commit() {
        // Same scenario as `stabilize_consolidates_scattered_assignments`,
        // but inside a batch: the violation must persist until commit.
        let mut c = DynamicSetCover::default();
        for u in 0..8u32 {
            c.insert_set(u as SetId + 1, [u]).unwrap();
        }
        for u in 0..8 {
            c.insert_element(u).unwrap();
        }
        assert_eq!(c.solution_size(), 8);
        c.begin_batch();
        assert!(c.is_batching());
        c.insert_set(100, 0..8).unwrap();
        // Deferred: the scattered singletons still form the solution.
        assert_eq!(c.solution_size(), 8);
        let moves = c.commit();
        assert!(!c.is_batching());
        assert!(moves >= 8, "commit reported {moves} moves");
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert!(c.in_solution(100));
    }

    #[test]
    fn batch_keeps_cover_valid_mid_flight() {
        // Coverage bookkeeping (φ, universe drops, reassignment) stays
        // exact inside a batch; only condition (2) is deferred.
        let mut c = build(3, &[(1, &[0, 1, 2]), (2, &[0, 1])]);
        c.greedy().unwrap();
        c.begin_batch();
        let dropped = c.remove_set(1).unwrap();
        assert_eq!(dropped, vec![2]); // element 2 had no other set
        assert_eq!(c.assignment(0), Some(2));
        assert_eq!(c.assignment(1), Some(2));
        c.commit();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 2);
    }

    #[test]
    fn commit_without_batch_is_noop() {
        let mut c = build(2, &[(1, &[0, 1])]);
        assert_eq!(c.commit(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn batched_and_sequential_randomized_streams_both_stabilize() {
        // The same mutation stream applied per-op and batched must both
        // end stable with identical set systems and universes (the
        // *solution* may differ — stable covers are not unique).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut seq = DynamicSetCover::default();
        let mut bat = DynamicSetCover::default();
        for s in 0..20u64 {
            let members: Vec<ElemId> = (0..40u32).filter(|_| rng.gen_bool(0.25)).collect();
            seq.insert_set(s, members.iter().copied()).unwrap();
            bat.insert_set(s, members).unwrap();
        }
        for u in 0..40u32 {
            let a = seq.insert_element(u).is_ok();
            let b = bat.insert_element(u).is_ok();
            assert_eq!(a, b);
        }
        let muts: Vec<(u32, u64, bool)> = (0..200)
            .map(|_| {
                (
                    rng.gen_range(0..40u32),
                    rng.gen_range(0..20u64),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        bat.begin_batch();
        for &(u, s, add) in &muts {
            if add {
                seq.add_to_set(u, s).unwrap();
                bat.add_to_set(u, s).unwrap();
            } else {
                seq.remove_from_set(u, s).unwrap();
                bat.remove_from_set(u, s).unwrap();
            }
        }
        bat.commit();
        seq.check_invariants().unwrap();
        bat.check_invariants().unwrap();
        assert_eq!(seq.num_sets(), bat.num_sets());
        assert_eq!(seq.universe_size(), bat.universe_size());
        for s in 0..20u64 {
            let mut a: Vec<ElemId> = seq.members(s).unwrap().to_vec();
            let mut b: Vec<ElemId> = bat.members(s).unwrap().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "set {s} memberships diverged");
        }
    }

    #[test]
    fn randomized_operations_maintain_invariants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut c = DynamicSetCover::default();
        let num_sets: SetId = 30;
        let num_elems: ElemId = 60;
        for s in 0..num_sets {
            let members: Vec<ElemId> = (0..num_elems).filter(|_| rng.gen_bool(0.2)).collect();
            c.insert_set(s, members).unwrap();
        }
        let mut live_elems: Vec<ElemId> = Vec::new();
        for u in 0..num_elems {
            if c.insert_element(u).is_ok() {
                live_elems.push(u);
            }
        }
        c.greedy().unwrap();
        c.check_invariants().unwrap();

        for step in 0..400 {
            match rng.gen_range(0..4) {
                0 => {
                    // add membership
                    let u = rng.gen_range(0..num_elems);
                    let s = rng.gen_range(0..num_sets);
                    if c.has_set(s) {
                        c.add_to_set(u, s).unwrap();
                    }
                }
                1 => {
                    // remove membership
                    let u = rng.gen_range(0..num_elems);
                    let s = rng.gen_range(0..num_sets);
                    if c.has_set(s) {
                        let kept = c.remove_from_set(u, s).unwrap();
                        if !kept {
                            live_elems.retain(|&x| x != u);
                        }
                    }
                }
                2 => {
                    // toggle element
                    let u = rng.gen_range(0..num_elems);
                    if c.has_element(u) {
                        c.remove_element(u).unwrap();
                        live_elems.retain(|&x| x != u);
                    } else if c.insert_element(u).is_ok() {
                        live_elems.push(u);
                    }
                }
                _ => {
                    // re-add a set with random members
                    let s = rng.gen_range(0..num_sets);
                    if c.has_set(s) {
                        let dropped = c.remove_set(s).unwrap();
                        for d in dropped {
                            live_elems.retain(|&x| x != d);
                        }
                    } else {
                        let members: Vec<ElemId> =
                            (0..num_elems).filter(|_| rng.gen_bool(0.2)).collect();
                        c.insert_set(s, members).unwrap();
                    }
                }
            }
            if step % 20 == 0 {
                c.check_invariants()
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        c.check_invariants().unwrap();
    }
}
