//! Dynamic set cover with **stable** solutions — the algorithmic core of
//! FD-RMS (Section III-A of the paper).
//!
//! A set-cover solution `C ⊆ S` with an assignment `φ : U → C` is *stable*
//! (Definition 2) when
//!
//! 1. every `S ∈ C` sits in the level `L_j` matching its cover-set size:
//!    `b^j ≤ |cov(S)| < b^{j+1}` (the paper uses base `b = 2`; footnote 2
//!    allows any constant `> 1`, which this crate exposes), and
//! 2. no set in the system intersects the level-`j` assigned elements in
//!    `b^{j+1}` or more elements: `|S ∩ A_j| < b^{j+1}` for all `S ∈ S`.
//!
//! Theorem 1 shows any stable solution is an `O(log m)`-approximation.
//! [`DynamicSetCover`] maintains stability under the four update
//! operations `σ` of Algorithm 1 — element added to / removed from a set,
//! element added to / removed from the universe — plus whole-set insertion
//! and removal, which FD-RMS needs when tuples enter or leave the
//! database.
//!
//! Violation detection is O(1) amortised: the structure maintains the
//! intersection counters `|S ∩ A_j|` for every set and level incrementally
//! and pushes candidates onto a worklist whenever a counter crosses its
//! threshold; `STABILIZE` drains the worklist exactly as Lines 28–32 of
//! Algorithm 1. All of that bookkeeping lives in dense tables indexed by
//! element id and by a per-set slot, so the maintenance loops hash nothing
//! and the solution depends only on the sequence of calls. Slots are
//! public handles ([`Slot`], [`DynamicSetCover::slot`],
//! [`DynamicSetCover::slots_containing`]): a client can key tables of its
//! own by them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod level;

pub use cover::{CoverError, DynamicSetCover, ElemId, SetId, Slot};
pub use level::LevelBase;
