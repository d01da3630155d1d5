//! Configuration and validation for constructing [`FdRms`].

use crate::algorithm::FdRms;
use rms_geom::{Point, PointId};

/// Errors raised by FD-RMS construction and updates.
#[derive(Debug, Clone, PartialEq)]
pub enum FdRmsError {
    /// A configuration parameter is out of range.
    InvalidParameter(String),
    /// Insertion of a tuple id that is already live.
    DuplicateId(PointId),
    /// Deletion of a tuple id that is not live.
    UnknownId(PointId),
    /// A tuple's dimensionality does not match the structure's.
    DimensionMismatch {
        /// Configured dimensionality.
        expected: usize,
        /// Offending tuple's dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for FdRmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FdRmsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            FdRmsError::DuplicateId(id) => write!(f, "tuple {id} already present"),
            FdRmsError::UnknownId(id) => write!(f, "tuple {id} not present"),
            FdRmsError::DimensionMismatch { expected, got } => {
                write!(f, "expected dimension {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for FdRmsError {}

/// Builder for [`FdRms`] (the two tunables of the paper are `epsilon` and
/// `max_utilities`; Section III-C discusses how to choose them).
#[derive(Debug, Clone, Copy)]
pub struct FdRmsBuilder {
    pub(crate) d: usize,
    pub(crate) k: usize,
    pub(crate) r: usize,
    pub(crate) epsilon: f64,
    pub(crate) max_utilities: usize,
    pub(crate) seed: u64,
}

impl FdRmsBuilder {
    pub(crate) fn new(d: usize) -> Self {
        Self {
            d,
            k: 1,
            r: d.max(1),
            epsilon: 0.02,
            max_utilities: 1 << 12,
            seed: 42,
        }
    }

    /// Rank depth `k` of the regret definition (default 1, i.e. the
    /// r-regret query).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Result size budget `r` (Definition 1 requires `r ≥ d`).
    pub fn r(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Approximation factor ε of the maintained top-k results. Larger ε ⇒
    /// denser set system ⇒ larger `m` ⇒ slower but higher-quality results
    /// (Fig. 5 of the paper).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Upper bound `M` on the number of sampled utility vectors (the
    /// paper sweeps `2^10 … 2^20`).
    pub fn max_utilities(mut self, m: usize) -> Self {
        self.max_utilities = m;
        self
    }

    /// RNG seed for utility sampling (results are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Does nothing: [`FdRms::apply_batch`] recomputes on the calling
    /// thread. Kept only while the benchmark still calls it.
    pub fn batch_threads(self, _threads: usize) -> Self {
        self
    }

    /// Validates the configuration and runs Algorithm 2 (INITIALIZATION)
    /// on `initial`.
    pub fn build(self, initial: Vec<Point>) -> Result<FdRms, FdRmsError> {
        if self.d == 0 {
            return Err(FdRmsError::InvalidParameter("d must be positive".into()));
        }
        if self.k == 0 {
            return Err(FdRmsError::InvalidParameter("k must be positive".into()));
        }
        if self.r < self.d {
            return Err(FdRmsError::InvalidParameter(format!(
                "r = {} must be at least d = {} (Definition 1)",
                self.r, self.d
            )));
        }
        if !(0.0..1.0).contains(&self.epsilon) || self.epsilon <= 0.0 {
            return Err(FdRmsError::InvalidParameter(format!(
                "epsilon = {} must lie in (0, 1)",
                self.epsilon
            )));
        }
        if self.max_utilities <= self.r {
            return Err(FdRmsError::InvalidParameter(format!(
                "max_utilities = {} must exceed r = {}",
                self.max_utilities, self.r
            )));
        }
        for p in &initial {
            if p.dim() != self.d {
                return Err(FdRmsError::DimensionMismatch {
                    expected: self.d,
                    got: p.dim(),
                });
            }
        }
        FdRms::initialize(&self, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        let p = |d| Point::new_unchecked(0, vec![0.5; d]);
        assert!(matches!(
            FdRms::builder(0).build(vec![]),
            Err(FdRmsError::InvalidParameter(_))
        ));
        assert!(matches!(
            FdRms::builder(2).k(0).build(vec![p(2)]),
            Err(FdRmsError::InvalidParameter(_))
        ));
        assert!(matches!(
            FdRms::builder(3).r(2).build(vec![p(3)]),
            Err(FdRmsError::InvalidParameter(_))
        ));
        assert!(matches!(
            FdRms::builder(2).epsilon(0.0).build(vec![p(2)]),
            Err(FdRmsError::InvalidParameter(_))
        ));
        assert!(matches!(
            FdRms::builder(2).epsilon(1.0).build(vec![p(2)]),
            Err(FdRmsError::InvalidParameter(_))
        ));
        assert!(matches!(
            FdRms::builder(2).r(10).max_utilities(10).build(vec![p(2)]),
            Err(FdRmsError::InvalidParameter(_))
        ));
        assert!(matches!(
            FdRms::builder(2).build(vec![p(3)]),
            Err(FdRmsError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn error_display() {
        assert!(FdRmsError::DuplicateId(3).to_string().contains("3"));
        assert!(FdRmsError::UnknownId(4).to_string().contains("not present"));
        assert!(FdRmsError::InvalidParameter("x".into())
            .to_string()
            .contains("x"));
        assert!(FdRmsError::DimensionMismatch {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("dimension"));
    }
}
