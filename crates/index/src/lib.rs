//! The two indexes FD-RMS uses to maintain many (approximate) top-k
//! results over a dynamic database (Section III-C of the paper).
//!
//! * [`KdTree`] — the **tuple index TI**: a bulk-loaded k-d tree over the
//!   database supporting exact top-k queries and score-threshold queries
//!   under nonnegative linear utilities via branch-and-bound (the upper
//!   bound of a box for `u ≥ 0` is `⟨u, hi⟩`). Insertions descend and
//!   expand bounding boxes exactly; deletions leave conservative boxes and
//!   trigger a full rebuild once enough staleness accumulates (the paper
//!   uses "standard top-down methods" for construction plus
//!   branch-and-bound search; lazy rebuilding is our documented
//!   equivalent for the update path — see the `ablation_kd_rebuild`
//!   bench).
//! * [`ConeTree`] — the **utility index UI**: on a tuple insertion it
//!   reports exactly the utilities whose threshold the new tuple reaches,
//!   `{i : ⟨u_i, p⟩ ≥ τ_i}`. The paper uses a cone tree (Ram & Gray, KDD
//!   2012) for this; at FD-RMS's dimensionalities its bound prunes little,
//!   so this index scans all `M` utilities and keeps the paper's name.
//!
//! Both score rows eight at a time: kd-tree leaves and the utility
//! weights are stored lane-blocked (coordinate `j` of row `i` at
//! `(i/8·d + j)·8 + i%8`), so one sweep multiplies a column of eight rows
//! by one weight in packed `mulpd`/`addpd`. Every score is bit-identical
//! to [`Utility::score`](rms_geom::Utility::score).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conetree;
mod kdtree;
mod kernels;

pub use conetree::ConeTree;
pub use kdtree::{KdTree, KdTreeError};
