//! Static k-RMS baselines (Section IV-A of the paper).
//!
//! Clean-room Rust implementations of every algorithm FD-RMS is compared
//! against, plus [`DynamicAdapter`] — the harness that makes a static
//! algorithm "dynamic" the way the paper's experiments do: *"they re-run
//! from scratch to compute the up-to-date k-RMS result once the skyline
//! is updated by any insertion or deletion."*
//!
//! | name | paper ref | k > 1? | notes |
//! |------|-----------|--------|-------|
//! | [`Greedy`] | Nanongkai et al. PVLDB'10 [22] | no | adds the max-regret witness each round (exact LP regret) |
//! | [`GreedyStar`] | Chester et al. PVLDB'14 [11] | yes | randomized greedy over sampled utilities |
//! | [`GeoGreedy`] | Peng & Wong ICDE'14 [23] | no | Greedy restricted to happy points (hull-vertex test as one LP per tuple, no hull built) |
//! | [`DmmRrms`] | Asudeh et al. SIGMOD'17 [4] | no | discretized matrix min-max via threshold binary search + set cover |
//! | [`DmmGreedy`] | Asudeh et al. SIGMOD'17 [4] | no | greedy on the discretized regret matrix |
//! | [`EpsKernel`] | Agarwal et al. [2,3,10] | yes | direction-net extreme-point coreset, ε binary-searched to fit `r` |
//! | [`HittingSet`] | Agarwal et al. SEA'17 / Kumar & Sintos ALENEX'18 [3,19] | yes | sampled-utility set cover, ε binary-searched to fit `r` |
//! | [`Sphere`] | Xie et al. SIGMOD'18 [32] | no | basis + spread directions + greedy fill |
//! | [`TwoDSweep`] | the d = 2 exact family [4], [10], [11] | no | angular sweep + interval cover; effectively optimal for d = 2 |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod dmm;
mod greedy;
mod kernel;
mod sampled;
mod two_d;

pub use adapter::DynamicAdapter;
pub use dmm::{DmmGreedy, DmmRrms};
pub use greedy::{GeoGreedy, Greedy, GreedyStar};
pub use kernel::{EpsKernel, Sphere};
pub use sampled::HittingSet;
pub use two_d::TwoDSweep;

use rms_geom::Point;

/// A static k-RMS algorithm: given the database (and its skyline), return
/// a result of at most `r` tuples.
pub trait StaticRms {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Whether the algorithm supports rank depths `k > 1`.
    fn supports_k(&self, k: usize) -> bool;

    /// Computes a k-RMS result of size at most `r`.
    ///
    /// `skyline` is the Pareto-optimal subset of `full`; 1-RMS algorithms
    /// work on it exclusively, while `k > 1` algorithms must examine
    /// `full` (the k-th ranked tuple need not be on the skyline).
    fn compute(&self, skyline: &[Point], full: &[Point], k: usize, r: usize) -> Vec<Point>;
}
