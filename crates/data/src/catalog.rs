//! Named datasets matching the paper's evaluation (Table I).
//!
//! The four real datasets are replaced by synthetic stand-ins with the same
//! `(n, d)` and generator mixes chosen so that the skyline fraction falls in
//! the same regime as Table I:
//!
//! | name  | n       | d  | paper #skylines | stand-in recipe |
//! |-------|---------|----|-----------------|-----------------|
//! | BB    | 21 961  | 5  | 200 (0.9%)      | strongly correlated |
//! | AQ    | 382 168 | 9  | 21 065 (5.5%)   | correlated/independent mixture |
//! | CT    | 581 012 | 8  | 77 217 (13%)    | independent with mild anti-correlation |
//! | Movie | 13 176  | 12 | 3 293 (25%)     | independent (high-d ⇒ large skyline) |
//!
//! Indep and AntiCor are generated exactly as in the paper (\[9\]), default
//! `n = 100 K`, `d = 6`.
//!
//! Every spec carries a `scale` factor so experiments can run at a fraction
//! of the paper's cardinality while keeping d and the distribution shape;
//! the bench harness records the scale it used.

use crate::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_geom::Point;

/// The six datasets of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedDataset {
    /// Basketball player/season stand-in (21 961 × 5, tiny skyline).
    Bb,
    /// Beijing air-quality stand-in (382 168 × 9).
    Aq,
    /// Forest cover-type stand-in (581 012 × 8).
    Ct,
    /// MovieLens tag-genome stand-in (13 176 × 12, large skyline).
    Movie,
    /// Independent synthetic data (exact paper construction).
    Indep,
    /// Anti-correlated synthetic data (exact paper construction).
    AntiCor,
}

impl NamedDataset {
    /// All six datasets in the order the paper lists them.
    pub const ALL: [NamedDataset; 6] = [
        NamedDataset::Bb,
        NamedDataset::Aq,
        NamedDataset::Ct,
        NamedDataset::Movie,
        NamedDataset::Indep,
        NamedDataset::AntiCor,
    ];

    /// Display name used in tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            NamedDataset::Bb => "BB",
            NamedDataset::Aq => "AQ",
            NamedDataset::Ct => "CT",
            NamedDataset::Movie => "Movie",
            NamedDataset::Indep => "Indep",
            NamedDataset::AntiCor => "AntiCor",
        }
    }

    /// The default specification (paper-scale `n`, paper `d`).
    pub fn spec(self) -> DatasetSpec {
        match self {
            NamedDataset::Bb => DatasetSpec::new(self, 21_961, 5),
            NamedDataset::Aq => DatasetSpec::new(self, 382_168, 9),
            NamedDataset::Ct => DatasetSpec::new(self, 581_012, 8),
            NamedDataset::Movie => DatasetSpec::new(self, 13_176, 12),
            NamedDataset::Indep => DatasetSpec::new(self, 100_000, 6),
            NamedDataset::AntiCor => DatasetSpec::new(self, 100_000, 6),
        }
    }
}

/// A concrete dataset recipe: which family, how many tuples, how many
/// dimensions, and the RNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Which named dataset this spec derives from.
    pub dataset: NamedDataset,
    /// Number of tuples to generate.
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl DatasetSpec {
    /// Creates a spec with the default seed.
    pub fn new(dataset: NamedDataset, n: usize, d: usize) -> Self {
        Self {
            dataset,
            n,
            d,
            seed: 0x5eed_0000 ^ (d as u64) << 32 ^ n as u64,
        }
    }

    /// Returns a copy scaled to `n.ceil(n * scale)` tuples (dimension and
    /// distribution unchanged). `scale` must be in `(0, 1]`.
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
        self.n = ((self.n as f64) * scale).ceil().max(1.0) as usize;
        self
    }

    /// Returns a copy with a different cardinality.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Returns a copy with a different dimensionality.
    pub fn with_d(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materialises the dataset.
    pub fn generate(&self) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.dataset {
            // Strongly correlated ⇒ sub-1% skyline, like the BB stats data
            // where good players are good across the board.
            NamedDataset::Bb => generators::correlated(&mut rng, self.n, self.d),
            // Pollutant concentrations correlate with each other but not
            // with the meteorological attributes: mixture.
            NamedDataset::Aq => generators::mixture(&mut rng, self.n, self.d, 0.85),
            // Cartographic attributes: mostly independent with a mild
            // anti-correlated component (elevation vs temperature-like
            // trade-offs).
            NamedDataset::Ct => blend_anticor(&mut rng, self.n, self.d, 0.15),
            // Tag-relevance vectors behave like independent coordinates in
            // high dimension: large skylines.
            NamedDataset::Movie => generators::independent(&mut rng, self.n, self.d),
            NamedDataset::Indep => generators::independent(&mut rng, self.n, self.d),
            NamedDataset::AntiCor => generators::anticorrelated(&mut rng, self.n, self.d),
        }
    }
}

/// Independent points with a `frac` admixture of anti-correlated points.
fn blend_anticor<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize, frac: f64) -> Vec<Point> {
    let n_anti = (n as f64 * frac).round() as usize;
    let mut pts = generators::anticorrelated(rng, n_anti, d);
    let rest = generators::independent(rng, n - n_anti, d);
    pts.extend(
        rest.into_iter()
            .enumerate()
            .map(|(i, p)| p.with_id((n_anti + i) as u64)),
    );
    pts
}

/// Looks a dataset up by its (case-insensitive) paper name.
pub fn dataset_by_name(name: &str) -> Option<NamedDataset> {
    NamedDataset::ALL
        .into_iter()
        .find(|ds| ds.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table1_dimensions() {
        assert_eq!(NamedDataset::Bb.spec().n, 21_961);
        assert_eq!(NamedDataset::Bb.spec().d, 5);
        assert_eq!(NamedDataset::Aq.spec().d, 9);
        assert_eq!(NamedDataset::Ct.spec().n, 581_012);
        assert_eq!(NamedDataset::Movie.spec().d, 12);
        assert_eq!(NamedDataset::Indep.spec().n, 100_000);
        assert_eq!(NamedDataset::AntiCor.spec().d, 6);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(dataset_by_name("bb"), Some(NamedDataset::Bb));
        assert_eq!(dataset_by_name("ANTICOR"), Some(NamedDataset::AntiCor));
        assert_eq!(dataset_by_name("nope"), None);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = NamedDataset::Indep.spec().scaled(0.001);
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn scaled_changes_only_n() {
        let spec = NamedDataset::Ct.spec();
        let small = spec.scaled(0.01);
        assert_eq!(small.d, spec.d);
        assert_eq!(small.n, (spec.n as f64 * 0.01).ceil() as usize);
        let pts = small.generate();
        assert_eq!(pts.len(), small.n);
        assert!(pts.iter().all(|p| p.dim() == spec.d));
    }

    #[test]
    #[should_panic(expected = "scale must be in (0,1]")]
    fn scaled_rejects_bad_scale() {
        let _ = NamedDataset::Bb.spec().scaled(0.0);
    }

    #[test]
    fn standins_hit_table1_skyline_regimes() {
        // At 1/10 scale the *fraction* of skyline tuples should sit in the
        // same regime as Table I: BB ≪ AQ < CT < Movie.
        let frac = |ds: NamedDataset| {
            let pts = ds.spec().scaled(0.02).generate();
            let sky = pts
                .iter()
                .filter(|p| !pts.iter().any(|q| rms_geom::dominates(q, p)))
                .count();
            sky as f64 / pts.len() as f64
        };
        let bb = frac(NamedDataset::Bb);
        let movie = frac(NamedDataset::Movie);
        assert!(bb < 0.05, "BB skyline fraction too large: {bb}");
        assert!(movie > 0.1, "Movie skyline fraction too small: {movie}");
        assert!(bb < movie);
    }
}
