//! Linear programming substrate.
//!
//! The greedy k-RMS baselines (GREEDY [22], GEOGREEDY [23], GREEDY* [11])
//! need exact maximum-regret-ratio computations, which reduce to small
//! dense linear programs over the utility space (d + 1 variables,
//! |Q| + 1 constraints). No LP crate is available offline, so this crate
//! implements a classic **two-phase dense simplex** with Bland's pivoting
//! rule (guaranteeing termination), plus the k-RMS-specific LP
//! formulations on top of it:
//!
//! * [`regret::max_regret_lp`] — the exact worst-case 1-regret ratio of a
//!   set `Q` against a witness tuple `p` (the LP of Nanongkai et al.,
//!   PVLDB 2010).
//! * [`regret::mrr1_exact`] — exact `mrr_1(Q)` over a database by
//!   maximising the witness LP over all (skyline) tuples.
//! * [`regret::is_happy_point`] — whether a tuple is the top-1 for *some*
//!   utility vector, i.e. a vertex of the upper convex hull. This is the
//!   predicate GEOGREEDY uses to prune candidates; solving it as an LP
//!   avoids building a d-dimensional convex hull, whose size can grow as
//!   `n^⌊d/2⌋`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod regret;
mod simplex;

pub use simplex::{Constraint, LpOutcome, LpSolution, Relation, Simplex};
