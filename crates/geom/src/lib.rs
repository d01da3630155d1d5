//! Geometry substrate for the k-regret minimizing set (k-RMS) problem.
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace:
//!
//! * [`Point`] — a database tuple with `d` nonnegative numeric attributes,
//!   interpreted as a point in the nonnegative orthant of `R^d`.
//! * [`Utility`] — a nonnegative unit vector modelling a linear utility
//!   function `f(p) = ⟨u, p⟩` (Section II-A of the paper).
//! * Uniform sampling of utility vectors from the nonnegative orthant of the
//!   unit sphere, and the standard-basis prefix used by FD-RMS.
//! * Pareto dominance tests used by the skyline operator.
//! * Brute-force top-k / ε-approximate top-k reference implementations used
//!   as ground truth by the index structures and the test suites.
//!
//! All scoring follows the paper's conventions: attribute values are scaled
//! to `[0, 1]`, utility vectors are normalised to unit length (`‖u‖ = 1`),
//! and ties between equal scores are broken by tuple id (a "consistent
//! rule" in the sense of Section II-A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dominance;
mod error;
mod point;
mod topk;
mod utility;

pub use dominance::{dominates, strictly_dominates, DominanceRelation};
pub use error::GeomError;
pub use point::{normalize_to_unit_box, Point, PointId};
pub use topk::{kth_score, rank_cmp, top1, top_k, top_k_approx, RankedPoint};
pub use utility::{sample_utilities, standard_basis, with_basis_prefix, Utility};

/// Numerical tolerance used by geometric predicates throughout the
/// workspace.
///
/// Attribute values live in `[0, 1]` and scores in `[0, √d]`, so an absolute
/// epsilon is appropriate.
pub const GEOM_EPS: f64 = 1e-12;
