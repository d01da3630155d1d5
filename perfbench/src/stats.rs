//! Exact quantiles from raw samples. Every latency the benchmark reports
//! is read from the sorted samples themselves, never from histogram
//! buckets.

/// Raw observations of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn from_values(values: &[f64]) -> Samples {
        Samples {
            values: values.to_vec(),
            sorted: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean; 0 without samples.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least `q·n`
    /// samples at or below it. 0 without samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = (q * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest percentile (floored to 0.1) whose nearest-rank sample
    /// still has at least ten samples above it; 0 below eleven samples.
    pub fn resolved_percentile(&self) -> f64 {
        let n = self.values.len() as f64;
        if n <= 10.0 {
            0.0
        } else {
            ((1.0 - 10.0 / n) * 1000.0).floor() / 10.0
        }
    }

    /// One human-readable line: count, p50, p90 and the highest resolved
    /// percentile, in the caller's unit.
    pub fn describe(&mut self, name: &str, unit: &str) -> String {
        let top = self.resolved_percentile();
        format!(
            "{name}: n={} p50={:.4}{unit} p90={:.4}{unit} p{top}={:.4}{unit} (highest percentile with >=10 samples beyond it)",
            self.len(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(top / 100.0),
        )
    }
}

/// The fewest qualifying slices a per-slice figure may rest on. A run
/// with fewer reports no figure and fails instead (see [`Sliced::slice_median`]).
pub const MIN_SLICES: usize = 20;

/// Raw samples grouped by time slice or by count.
#[derive(Debug, Default, Clone)]
pub struct Sliced {
    slices: Vec<Samples>,
}

impl Sliced {
    pub fn push(&mut self, slice: usize, v: f64) {
        if self.slices.len() <= slice {
            self.slices.resize_with(slice + 1, Samples::default);
        }
        self.slices[slice].push(v);
    }

    /// Consecutive runs of `size` samples, taken in the given order; a
    /// shorter tail forms a last slice of its own. Every full slice holds
    /// `size` samples however fast the samples arrive, so the number of
    /// slices, not their size, follows the program's speed.
    pub fn groups(ordered: impl IntoIterator<Item = f64>, size: usize) -> Sliced {
        let mut out = Sliced::default();
        for (i, v) in ordered.into_iter().enumerate() {
            out.push(i / size.max(1), v);
        }
        out
    }

    /// Adds another set's samples slice by slice.
    pub fn absorb(&mut self, other: &Sliced) {
        for (i, s) in other.slices.iter().enumerate() {
            if self.slices.len() <= i {
                self.slices.resize_with(i + 1, Samples::default);
            }
            self.slices[i].extend(s);
        }
    }

    /// Every sample, pooled.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.slices {
            all.extend(s);
        }
        all
    }

    /// The `q` quantile of each slice holding at least `min` samples.
    pub fn per_slice(&mut self, q: f64, min: usize) -> Samples {
        let mut out = Samples::default();
        for s in &mut self.slices {
            if s.len() >= min.max(1) {
                out.push(s.quantile(q));
            }
        }
        out
    }

    /// The median over slices of each slice's `q` quantile, counting the
    /// slices that hold at least `min` samples. A stall that slows at least
    /// half of the slices moves it; a co-tenant's burst that slows a few
    /// does not. `Err` when fewer than [`MIN_SLICES`] slices qualify: such
    /// a figure would rest on a few slices, or on none, and read as a 0.
    pub fn slice_median(&mut self, q: f64, min: usize) -> Result<f64, String> {
        let mut per_slice = self.per_slice(q, min);
        if per_slice.len() < MIN_SLICES {
            return Err(format!(
                "only {} of {} slices hold {min} samples; a figure needs {MIN_SLICES}",
                per_slice.len(),
                self.slices.len()
            ));
        }
        Ok(per_slice.median())
    }
}

/// Checks [`Samples::quantile`] against a counting reference on
/// pseudo-random inputs of several sizes (with ties): the reference
/// quantile is the least sample `v` with `#{x ≤ v} ≥ q·n`.
pub fn self_test() -> Result<(), String> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 10.0
    };
    for n in [1usize, 2, 3, 10, 11, 57, 200] {
        let values: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut samples = Samples::default();
        for &v in &values {
            samples.push(v);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let need = (q * n as f64).ceil().max(1.0) as usize;
            let reference = values
                .iter()
                .copied()
                .filter(|&v| values.iter().filter(|&&x| x <= v).count() >= need)
                .fold(f64::INFINITY, f64::min);
            let got = samples.quantile(q);
            if got != reference {
                return Err(format!(
                    "quantile({q}) of {n} samples: got {got}, want {reference}"
                ));
            }
        }
        let top = samples.resolved_percentile();
        if n > 10 {
            let rank = (top / 100.0 * n as f64).ceil() as usize;
            if n - rank < 10 {
                return Err(format!(
                    "p{top} of {n} samples has only {} beyond it",
                    n - rank
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_sorted_reference() {
        self_test().unwrap();
    }

    #[test]
    fn nearest_rank_on_small_input() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.9), 5.0);
        assert_eq!(s.quantile(0.2), 1.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn groups_hold_a_fixed_count() {
        let mut g = Sliced::groups((0..45).map(f64::from), 10);
        // Four full groups and a tail of five.
        assert_eq!(g.per_slice(1.0, 1).len(), 5);
        assert_eq!(g.per_slice(1.0, 10).len(), 4);
        assert_eq!(g.per_slice(1.0, 1).quantile(1.0), 44.0);
    }

    #[test]
    fn slice_median_refuses_too_few_slices() {
        let mut few = Sliced::groups((0..100).map(f64::from), 10);
        assert!(few.slice_median(0.5, 10).is_err());
        let mut enough = Sliced::groups((0..1000).map(f64::from), 10);
        // Per-slice medians are 4, 14, …, 994; their median is the 50th.
        assert_eq!(enough.slice_median(0.5, 10), Ok(494.0));
    }

    #[test]
    fn resolved_percentile_leaves_ten_beyond() {
        let mut s = Samples::default();
        for i in 0..1000 {
            s.push(f64::from(i));
        }
        assert_eq!(s.resolved_percentile(), 99.0);
    }
}
