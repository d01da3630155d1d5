//! Linear utility functions as nonnegative unit vectors.

use crate::error::GeomError;
use crate::point::Point;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use serde::{Deserialize, Serialize};

/// A linear utility function, represented by a nonnegative unit vector
/// `u ∈ U = {u ∈ R^d_+ : ‖u‖ = 1}` (Section II-A).
///
/// The score of a tuple `p` is the inner product `⟨u, p⟩`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Utility {
    weights: Box<[f64]>,
}

impl Utility {
    /// Creates a utility vector from raw weights, validating nonnegativity
    /// and normalising to unit length.
    pub fn new(weights: Vec<f64>) -> Result<Self, GeomError> {
        if weights.is_empty() {
            return Err(GeomError::EmptyDimensions);
        }
        for (dim, &value) in weights.iter().enumerate() {
            if !value.is_finite() {
                return Err(GeomError::NonFiniteCoordinate { dim, value });
            }
            if value < 0.0 {
                return Err(GeomError::NegativeCoordinate { dim, value });
            }
        }
        let norm = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
        if norm <= f64::EPSILON {
            return Err(GeomError::ZeroNorm);
        }
        let weights = weights.into_iter().map(|w| w / norm).collect();
        Ok(Self { weights })
    }

    /// The `i`-th standard basis vector of `R^d` (used by FD-RMS as the
    /// first `d` sampled utilities, Algorithm 2 Line 1).
    pub fn basis(d: usize, i: usize) -> Self {
        assert!(i < d, "basis index {i} out of range for dimension {d}");
        let mut weights = vec![0.0; d];
        weights[i] = 1.0;
        Self {
            weights: weights.into_boxed_slice(),
        }
    }

    /// The number of dimensions `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// The (unit-norm) weights.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The score `f(p) = ⟨u, p⟩` of a tuple under this utility function.
    ///
    /// Panics in debug builds if dimensionalities differ.
    #[inline]
    pub fn score(&self, p: &Point) -> f64 {
        self.score_coords(p.coords())
    }

    /// The score of a tuple given by its attributes alone: bit for bit
    /// what [`Utility::score`] returns for a point with these coordinates.
    ///
    /// Panics in debug builds if dimensionalities differ.
    #[inline]
    pub fn score_coords(&self, coords: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), coords.len());
        dot(&self.weights, coords)
    }

    /// Inner product with another utility vector (cosine similarity, since
    /// both are unit vectors).
    #[inline]
    pub fn cosine(&self, other: &Utility) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        dot(&self.weights, other.weights())
    }

    /// Euclidean distance to another utility vector, used by δ-net
    /// arguments (proof of Theorem 2).
    pub fn distance(&self, other: &Utility) -> f64 {
        self.weights
            .iter()
            .zip(other.weights.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Samples `count` utility vectors uniformly from the nonnegative orthant
/// of the unit sphere.
///
/// Uses the standard Gaussian-normalisation construction: draw `d`
/// independent standard normals, take absolute values, and normalise. The
/// result is uniform on the intersection of the sphere with `R^d_+`.
pub fn sample_utilities<R: Rng + ?Sized>(rng: &mut R, d: usize, count: usize) -> Vec<Utility> {
    assert!(d > 0, "dimension must be positive");
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut w = Vec::with_capacity(d);
        for _ in 0..d {
            let x: f64 = StandardNormal.sample(rng);
            w.push(x.abs());
        }
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= f64::EPSILON {
            continue; // astronomically unlikely; resample
        }
        for x in &mut w {
            *x /= norm;
        }
        out.push(Utility {
            weights: w.into_boxed_slice(),
        });
    }
    out
}

/// The `d` standard basis vectors of `R^d_+`.
pub fn standard_basis(d: usize) -> Vec<Utility> {
    (0..d).map(|i| Utility::basis(d, i)).collect()
}

/// Draws `m` utility vectors where the first `d` are the standard basis and
/// the remaining `m − d` are uniform samples — exactly the pool FD-RMS
/// uses (Algorithm 2, Line 1).
///
/// Panics if `m < d`.
pub fn with_basis_prefix<R: Rng + ?Sized>(rng: &mut R, d: usize, m: usize) -> Vec<Utility> {
    assert!(m >= d, "need at least d vectors to include the basis");
    let mut out = standard_basis(d);
    out.extend(sample_utilities(rng, d, m - d));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_normalises_and_validates() {
        let u = Utility::new(vec![3.0, 4.0]).unwrap();
        assert!((u.weights()[0] - 0.6).abs() < 1e-12);
        assert!((u.weights()[1] - 0.8).abs() < 1e-12);
        assert!(matches!(
            Utility::new(vec![0.0, 0.0]),
            Err(GeomError::ZeroNorm)
        ));
        assert!(matches!(
            Utility::new(vec![-1.0, 1.0]),
            Err(GeomError::NegativeCoordinate { .. })
        ));
        assert!(matches!(
            Utility::new(vec![]),
            Err(GeomError::EmptyDimensions)
        ));
        assert!(matches!(
            Utility::new(vec![f64::NAN]),
            Err(GeomError::NonFiniteCoordinate { .. })
        ));
    }

    #[test]
    fn basis_vectors() {
        let u = Utility::basis(3, 1);
        assert_eq!(u.weights(), &[0.0, 1.0, 0.0]);
        let b = standard_basis(4);
        assert_eq!(b.len(), 4);
        for (i, u) in b.iter().enumerate() {
            assert_eq!(u.weights()[i], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Utility::basis(2, 2);
    }

    #[test]
    fn score_matches_inner_product() {
        let u = Utility::new(vec![0.42, 0.91]).unwrap();
        // Example 1 from the paper: u1 = (0.42, 0.91) (already ~unit norm),
        // p2 = (0.6, 0.8) ⇒ score ≈ 0.98.
        let p2 = Point::new(2, vec![0.6, 0.8]).unwrap();
        assert!((u.score(&p2) - 0.98).abs() < 1e-2);
        assert_eq!(
            u.score_coords(p2.coords()).to_bits(),
            u.score(&p2).to_bits()
        );
    }

    #[test]
    fn sampled_utilities_are_unit_nonnegative() {
        let mut rng = StdRng::seed_from_u64(42);
        for u in sample_utilities(&mut rng, 5, 200) {
            let norm: f64 = u.weights().iter().map(|w| w * w).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
            assert!(u.weights().iter().all(|&w| w >= 0.0));
            assert_eq!(u.dim(), 5);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let a = sample_utilities(&mut StdRng::seed_from_u64(7), 4, 10);
        let b = sample_utilities(&mut StdRng::seed_from_u64(7), 4, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn basis_prefix_layout() {
        let mut rng = StdRng::seed_from_u64(1);
        let us = with_basis_prefix(&mut rng, 3, 8);
        assert_eq!(us.len(), 8);
        for (i, u) in us.iter().take(3).enumerate() {
            assert_eq!(u.weights()[i], 1.0);
        }
    }

    #[test]
    fn cosine_and_distance() {
        let a = Utility::basis(2, 0);
        let b = Utility::basis(2, 1);
        assert!((a.cosine(&b)).abs() < 1e-12);
        assert!((a.distance(&b) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn sampled_mean_direction_is_diagonalish() {
        // Uniform samples on the positive orthant should average near the
        // diagonal direction; a gross bias would indicate a broken sampler.
        let mut rng = StdRng::seed_from_u64(99);
        let us = sample_utilities(&mut rng, 3, 4000);
        let mut mean = [0.0f64; 3];
        for u in &us {
            for (m, w) in mean.iter_mut().zip(u.weights()) {
                *m += w;
            }
        }
        let n = us.len() as f64;
        for m in &mut mean {
            *m /= n;
        }
        let spread = mean
            .iter()
            .map(|m| (m - mean[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(spread < 0.03, "mean direction skewed: {mean:?}");
    }
}
