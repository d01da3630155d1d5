//! Synthetic dataset generators.
//!
//! `independent` and `anticorrelated` follow the constructions of
//! Börzsönyi, Kossmann, Stocker — "The Skyline Operator" (ICDE 2001),
//! which the paper cites (\[9\]) as the source of its Indep and AntiCor
//! datasets. `correlated` is the third classic family from that paper and
//! is used by the real-data stand-ins.

use rand::Rng;
use rms_geom::Point;

/// Truncated-normal sample in `[0, 1]` with the given mean and standard
/// deviation (rejection sampling, as in the original skyline generator).
fn trunc_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    loop {
        let v = mean + sd * box_muller(rng);
        if (0.0..=1.0).contains(&v) {
            return v;
        }
    }
}

/// Standard normal via Box–Muller (rand's distributions feature set is not
/// available offline).
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Independent dataset: `n` points uniform on the unit hypercube `[0,1]^d`,
/// attributes mutually independent.
pub fn independent<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Vec<Point> {
    assert!(d > 0);
    (0..n)
        .map(|id| {
            let coords = (0..d).map(|_| rng.gen::<f64>()).collect();
            Point::new_unchecked(id as u64, coords)
        })
        .collect()
}

/// Correlated dataset: points concentrated around the diagonal, so a tuple
/// good in one dimension tends to be good in all. Skylines are tiny.
///
/// Construction (Börzsönyi et al.): pick a base value `v` from a truncated
/// normal centred at 0.5, then set each attribute to a truncated normal
/// centred at `v` with small spread.
pub fn correlated<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Vec<Point> {
    assert!(d > 0);
    (0..n)
        .map(|id| {
            let v = trunc_normal(rng, 0.5, 0.25);
            let coords = (0..d).map(|_| trunc_normal(rng, v, 0.05)).collect();
            Point::new_unchecked(id as u64, coords)
        })
        .collect()
}

/// Anti-correlated dataset: points concentrated around the hyperplane
/// `Σ x_i ≈ d/2`, so a tuple good in one dimension tends to be bad in the
/// others. Skylines are large, which is the hard regime for k-RMS.
///
/// Construction (Börzsönyi et al.): draw a plane offset `v` from a tight
/// truncated normal around 0.5, spread `v·d` mass over the `d` attributes
/// by repeatedly moving mass between random pairs of coordinates.
pub fn anticorrelated<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Vec<Point> {
    assert!(d > 0);
    (0..n)
        .map(|id| {
            let v = trunc_normal(rng, 0.5, 0.05);
            let mut coords = vec![v; d];
            // Redistribute mass between pairs: keeps the sum constant while
            // anti-correlating the attributes.
            for _ in 0..d * 4 {
                let i = rng.gen_range(0..d);
                let j = rng.gen_range(0..d);
                if i == j {
                    continue;
                }
                // Maximum transferable mass keeping both in [0, 1].
                let max_shift = (coords[i]).min(1.0 - coords[j]);
                let shift = rng.gen::<f64>() * max_shift;
                coords[i] -= shift;
                coords[j] += shift;
            }
            Point::new_unchecked(id as u64, coords)
        })
        .collect()
}

/// Clustered mixture: `frac_corr` of the points from the correlated family
/// and the rest independent. Used by the real-data stand-ins to hit the
/// skyline-size regimes of Table I.
pub fn mixture<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize, frac_corr: f64) -> Vec<Point> {
    assert!((0.0..=1.0).contains(&frac_corr));
    let n_corr = (n as f64 * frac_corr).round() as usize;
    let mut pts = correlated(rng, n_corr, d);
    let indep = independent(rng, n - n_corr, d);
    pts.extend(
        indep
            .into_iter()
            .enumerate()
            .map(|(i, p)| p.with_id((n_corr + i) as u64)),
    );
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(20210405)
    }

    #[test]
    fn independent_shape_and_bounds() {
        let pts = independent(&mut rng(), 1000, 6);
        assert_eq!(pts.len(), 1000);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.id(), i as u64);
            assert_eq!(p.dim(), 6);
            assert!(p.coords().iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn correlated_attributes_correlate() {
        let pts = correlated(&mut rng(), 4000, 2);
        let corr = pearson(&pts, 0, 1);
        assert!(
            corr > 0.8,
            "expected strong positive correlation, got {corr}"
        );
    }

    #[test]
    fn anticorrelated_attributes_anticorrelate() {
        let pts = anticorrelated(&mut rng(), 4000, 2);
        let corr = pearson(&pts, 0, 1);
        assert!(corr < -0.5, "expected anti-correlation, got {corr}");
    }

    #[test]
    fn anticorrelated_sum_is_stable() {
        let d = 5;
        let pts = anticorrelated(&mut rng(), 2000, d);
        for p in &pts {
            let sum: f64 = p.coords().iter().sum();
            assert!((sum - d as f64 * 0.5).abs() < d as f64 * 0.3, "sum={sum}");
            assert!(p.coords().iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = anticorrelated(&mut StdRng::seed_from_u64(5), 50, 4);
        let b = anticorrelated(&mut StdRng::seed_from_u64(5), 50, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn mixture_fraction() {
        let pts = mixture(&mut rng(), 1000, 3, 0.3);
        assert_eq!(pts.len(), 1000);
        // Ids must stay unique and dense.
        let mut ids: Vec<u64> = pts.iter().map(|p| p.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn skyline_size_ordering_sanity() {
        // The classic regime: corr skyline << indep skyline << anticor
        // skyline for the same (n, d).
        let n = 3000;
        let d = 4;
        let sky = |pts: &[Point]| {
            pts.iter()
                .filter(|p| !pts.iter().any(|q| rms_geom::dominates(q, p)))
                .count()
        };
        let c = sky(&correlated(&mut rng(), n, d));
        let i = sky(&independent(&mut rng(), n, d));
        let a = sky(&anticorrelated(&mut rng(), n, d));
        assert!(c < i, "corr={c} indep={i}");
        assert!(i < a, "indep={i} anticor={a}");
    }

    fn pearson(pts: &[Point], i: usize, j: usize) -> f64 {
        let n = pts.len() as f64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for p in pts {
            let x = p.coord(i);
            let y = p.coord(j);
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let cov = sxy / n - (sx / n) * (sy / n);
        let vx = sxx / n - (sx / n) * (sx / n);
        let vy = syy / n - (sy / n) * (sy / n);
        cov / (vx.sqrt() * vy.sqrt())
    }
}
