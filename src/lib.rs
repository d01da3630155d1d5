//! # krms — fully dynamic k-regret minimizing sets
//!
//! Facade crate for the reproduction of *"A Fully Dynamic Algorithm for
//! k-Regret Minimizing Sets"* (Wang, Li, Wong, Tan — ICDE 2021). It
//! re-exports the public API of every workspace crate so that examples,
//! integration tests, and downstream users need a single dependency.
//!
//! ## Quick start
//!
//! ```
//! use krms::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Generate a small independent dataset and run FD-RMS on it.
//! let mut rng = StdRng::seed_from_u64(42);
//! let points = krms::data::generators::independent(&mut rng, 500, 4);
//! let mut fd = FdRms::builder(4)
//!     .k(1)
//!     .r(10)
//!     .epsilon(0.01)
//!     .max_utilities(1 << 10)
//!     .seed(7)
//!     .build(points.clone())
//!     .unwrap();
//! let q0 = fd.result();
//! assert!(q0.len() <= 10);
//!
//! // Insert a new tuple and delete an old one; the result stays maintained.
//! let p_new = Point::new(10_000, vec![0.99, 0.98, 0.97, 0.96]).unwrap();
//! fd.insert(p_new).unwrap();
//! fd.delete(points[0].id()).unwrap();
//! assert!(fd.result().len() <= 10);
//! ```

pub use fdrms as core;
pub use rms_baselines as baselines;
pub use rms_data as data;
pub use rms_eval as eval;
pub use rms_geom as geom;
pub use rms_index as index;
pub use rms_lp as lp;
pub use rms_metrics as metrics;
pub use rms_serve as serve;
pub use rms_setcover as setcover;
pub use rms_skyline as skyline;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::core::{BatchReport, FdRms, FdRmsBuilder, FdRmsError, Op};
    pub use crate::engine_ops;
    pub use crate::eval::{max_regret_ratio, RegretEstimator};
    pub use crate::geom::{Point, PointId, Utility};
    pub use crate::serve::{
        DeltaReceiver, ResultSnapshot, RmsHandle, RmsServer, RmsService, ServeConfig, SnapshotDelta,
    };
    pub use crate::skyline::{skyline, DynamicSkyline};
}

/// Converts a workload operation stream (crate `rms-data`) into the batch
/// engine's op representation (crate `fdrms`). The two layers define
/// their own types — the data layer must not depend on the algorithm
/// layer — so the facade provides the bridge:
///
/// ```
/// use krms::prelude::*;
///
/// let points: Vec<Point> = (0..60)
///     .map(|i| Point::new(i, vec![(i as f64) / 60.0, 1.0 - (i as f64) / 60.0]).unwrap())
///     .collect();
/// let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
/// let workload = krms::data::mixed_workload(&mut rng, points, Default::default());
/// let mut fd = FdRms::builder(2)
///     .r(3)
///     .max_utilities(64)
///     .build(workload.initial.clone())
///     .unwrap();
/// for batch in workload.batches(16) {
///     fd.apply_batch(engine_ops(batch)).unwrap();
/// }
/// assert!(fd.result().len() <= 3);
/// ```
pub fn engine_ops(ops: &[data::Operation]) -> Vec<core::Op> {
    ops.iter()
        .map(|op| match op {
            data::Operation::Insert(p) => core::Op::Insert(p.clone()),
            data::Operation::Delete(id) => core::Op::Delete(*id),
            data::Operation::Update(p) => core::Op::Update(p.clone()),
        })
        .collect()
}
