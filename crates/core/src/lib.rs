//! # FD-RMS — a fully dynamic algorithm for k-regret minimizing sets
//!
//! From-scratch implementation of the primary contribution of Wang, Li,
//! Wong, Tan: *"A Fully Dynamic Algorithm for k-Regret Minimizing Sets"*
//! (ICDE 2021). Given a database `P ⊂ R^d_+`, a rank depth `k`, and a size
//! budget `r`, FD-RMS maintains — under arbitrary tuple insertions and
//! deletions — a subset `Q ⊆ P`, `|Q| ≤ r`, whose maximum k-regret ratio
//! is provably close to optimal (Theorem 2: `Q` is a
//! `(k, O(ε*_{k,r'} + δ))`-regret set with `r' = O(r / log m)` and
//! `δ = O(m^{-1/(d−1)})`, with high probability).
//!
//! ## How it works (Section III)
//!
//! 1. Draw `M` utility vectors — the first `d` are the standard basis, the
//!    rest uniform on the positive unit sphere — and maintain the
//!    ε-approximate top-k result `Φ_{k,ε}(u_i, P_t)` of each under every
//!    update, using a k-d tree over tuples (TI) and a utility index (UI)
//!    that scans every utility's threshold eight lanes at a time (the
//!    paper uses a cone tree there; the type keeps that name).
//! 2. Transpose those results into a set system: tuple `p` covers utility
//!    `u` iff `p ∈ Φ_{k,ε}(u, P_t)`. A set-cover solution over the first
//!    `m ≤ M` utilities, maintained *stably* (crate `rms-setcover`), is
//!    the k-RMS answer; `m` is tuned (binary search at build time,
//!    incremental afterwards — Algorithms 2 and 4) so the solution size is
//!    exactly `r`.
//!
//! ## Example
//!
//! ```
//! use fdrms::FdRms;
//! use rms_geom::Point;
//!
//! let points: Vec<Point> = (0..200)
//!     .map(|i| {
//!         let x = (i as f64) / 200.0;
//!         Point::new(i, vec![x, 1.0 - x]).unwrap()
//!     })
//!     .collect();
//! let mut fd = FdRms::builder(2)
//!     .k(1)
//!     .r(5)
//!     .epsilon(0.02)
//!     .max_utilities(256)
//!     .seed(7)
//!     .build(points)
//!     .unwrap();
//! assert!(fd.result().len() <= 5);
//!
//! fd.insert(Point::new(1000, vec![0.99, 0.99]).unwrap()).unwrap();
//! fd.delete(0).unwrap();
//! assert!(fd.result().len() <= 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod builder;
pub mod engine;
mod tuples;

pub use algorithm::{FdRms, UpdateStats};
pub use builder::{FdRmsBuilder, FdRmsError};
pub use engine::{BatchReport, Op};
