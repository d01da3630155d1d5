//! Lane-blocked row storage and its scoring sweep.
//!
//! Both indexes score many rows against one weight vector: the kd-tree
//! scores a leaf's tuples against a utility, the utility index scores all
//! `M` utilities against an inserted tuple. A row-major block makes that a
//! per-row dot product, which compiles to scalar multiply-adds. A
//! [`RowBlock`] instead stores its rows [`LANES`] at a time, coordinate by
//! coordinate, so one sweep over a block multiplies a whole column of
//! eight rows by one weight and compiles to packed `mulpd`/`addpd`.

/// Rows per lane block.
pub(crate) const LANES: usize = 8;

/// Inner product `⟨a, b⟩` over two equal-length slices.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Scores the eight rows of one lane block (`dim · LANES` values, as
/// yielded by [`RowBlock::blocks`]) against `w`.
///
/// Each lane adds its products in coordinate order, starting from `-0.0`
/// (the additive identity `Iterator::sum` starts from), so every lane is
/// bit-identical to [`dot`] of its row with `w` — and so to
/// `Utility::score`.
#[inline]
pub(crate) fn sweep(block: &[f64], w: &[f64]) -> [f64; LANES] {
    debug_assert_eq!(block.len(), w.len() * LANES);
    let mut acc = [-0.0f64; LANES];
    for (column, &wj) in block.chunks_exact(LANES).zip(w) {
        for (a, &x) in acc.iter_mut().zip(column) {
            *a += x * wj;
        }
    }
    acc
}

/// Rows of `dim` coordinates in lane-blocked layout: coordinate `j` of
/// row `i` sits at `(i / LANES · dim + j) · LANES + i % LANES`.
///
/// Storage grows a whole block at a time. Lanes past the last row hold
/// `0.0` in every coordinate, so they score `0` against any weights.
#[derive(Debug, Clone)]
pub(crate) struct RowBlock {
    dim: usize,
    len: usize,
    data: Vec<f64>,
}

impl RowBlock {
    /// An empty block of `dim`-coordinate rows.
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            dim,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Where row `i` starts: its coordinate `j` sits `j · LANES` further.
    #[inline]
    fn start(&self, i: usize) -> usize {
        i / LANES * self.dim * LANES + i % LANES
    }

    /// Appends a row.
    pub(crate) fn push(&mut self, row: &[f64]) {
        debug_assert_eq!(row.len(), self.dim);
        if self.len % LANES == 0 {
            self.data.resize(self.data.len() + self.dim * LANES, 0.0);
        }
        let start = self.start(self.len);
        for (slot, &x) in self.data[start..].iter_mut().step_by(LANES).zip(row) {
            *slot = x;
        }
        self.len += 1;
    }

    /// Removes row `i` by moving the last row into its place, like
    /// `Vec::swap_remove`.
    pub(crate) fn swap_remove(&mut self, i: usize) {
        assert!(i < self.len, "row {i} out of range ({} rows)", self.len);
        self.len -= 1;
        let (to, from) = (self.start(i), self.start(self.len));
        for j in (0..self.dim).map(|j| j * LANES) {
            self.data[to + j] = self.data[from + j];
            self.data[from + j] = 0.0;
        }
        if self.len % LANES == 0 {
            self.data.truncate(self.len / LANES * self.dim * LANES);
        }
    }

    /// The coordinates of row `i`.
    pub(crate) fn row(&self, i: usize) -> Vec<f64> {
        assert!(i < self.len, "row {i} out of range ({} rows)", self.len);
        let start = self.start(i);
        self.data[start..]
            .iter()
            .step_by(LANES)
            .take(self.dim)
            .copied()
            .collect()
    }

    /// The lane blocks in row order, each `dim · LANES` values for
    /// [`sweep`]. The last block's padding lanes score `0`.
    #[inline]
    pub(crate) fn blocks(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dim * LANES)
    }

    /// Rebuilds `scores` as `scores[i] = ⟨row i, w⟩` for every row.
    #[inline]
    pub(crate) fn scores_into(&self, w: &[f64], scores: &mut Vec<f64>) {
        scores.clear();
        for block in self.blocks() {
            scores.extend_from_slice(&sweep(block, w));
        }
        scores.truncate(self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rms_geom::{Point, Utility};

    fn random_rows(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect()
    }

    /// Checks every row and score of `block` against the row-major model.
    fn assert_mirrors(block: &RowBlock, model: &[Vec<f64>], u: &Utility) {
        assert_eq!(block.len, model.len());
        let mut scores = vec![9.9]; // stale content must be cleared
        block.scores_into(u.weights(), &mut scores);
        assert_eq!(scores.len(), model.len());
        for (i, row) in model.iter().enumerate() {
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&block.row(i)), bits(row), "row {i}");
            let want = u.score(&Point::new_unchecked(0, row.clone()));
            assert_eq!(scores[i].to_bits(), want.to_bits(), "row {i}");
        }
        assert_eq!(block.blocks().len(), model.len().div_ceil(LANES));
        for (b, lanes) in block.blocks().enumerate() {
            for (l, &s) in sweep(lanes, u.weights()).iter().enumerate() {
                if b * LANES + l >= model.len() {
                    assert_eq!(s, 0.0, "padding lane {l} of block {b}");
                }
            }
        }
    }

    #[test]
    fn blocked_scores_are_bit_identical_to_utility_score() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in 1..=9 {
            for n in [1usize, 7, 8, 9, 17, 25] {
                let u = rms_geom::sample_utilities(&mut rng, d, 1).pop().unwrap();
                let mut model = random_rows(&mut rng, n, d);
                // A negative zero coordinate pins the `-0.0` start.
                model[0][0] = -0.0;
                let mut block = RowBlock::new(d);
                for row in &model {
                    block.push(row);
                }
                assert_mirrors(&block, &model, &u);
                // Swap-removes that pull rows across block boundaries,
                // down to empty.
                while !model.is_empty() {
                    let i = rng.gen_range(0..model.len());
                    model.swap_remove(i);
                    block.swap_remove(i);
                    assert_mirrors(&block, &model, &u);
                }
                assert!(block.data.is_empty(), "d={d} n={n}");
            }
        }
    }
}
