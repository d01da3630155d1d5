//! Level arithmetic for the stable-solution hierarchy.

/// The base of the level hierarchy.
///
/// Level `j` holds sets whose cover sets have size in `[b^j, b^{j+1})`.
/// The paper fixes `b = 2` but notes (footnote 2) that any constant
/// greater than 1 works; FD-RMS uses [`LevelBase::TWO`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelBase(f64);

impl LevelBase {
    /// The paper's default base, 2.
    pub const TWO: LevelBase = LevelBase(2.0);

    /// Creates a base; panics unless `b > 1`.
    pub fn new(b: f64) -> Self {
        assert!(b > 1.0 && b.is_finite(), "level base must be > 1, got {b}");
        Self(b)
    }

    /// The numeric base.
    pub fn get(self) -> f64 {
        self.0
    }

    /// The level of a cover set of `size` elements: the largest `j` with
    /// `b^j ≤ size`. `size` must be ≥ 1.
    pub fn level_for(self, size: usize) -> u32 {
        debug_assert!(size >= 1, "cover sets are never empty");
        // Iterative powers avoid float-log edge cases near boundaries
        // (e.g. log2(8) returning 2.999…): we only ever compare against
        // exactly-computed powers.
        let size = size as f64;
        let mut level = 0u32;
        let mut next = self.0; // b^{level+1}
        while next <= size {
            level += 1;
            next *= self.0;
        }
        level
    }

    /// The condition-(2) threshold for level `j`: `b^{j+1}` rounded up to
    /// an integer count (a set violates stability when it intersects `A_j`
    /// in at least this many elements).
    pub fn threshold(self, level: u32) -> usize {
        self.0.powi(level as i32 + 1).ceil() as usize
    }
}

impl Default for LevelBase {
    fn default() -> Self {
        Self::TWO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_two_levels() {
        let b = LevelBase::TWO;
        assert_eq!(b.level_for(1), 0);
        assert_eq!(b.level_for(2), 1);
        assert_eq!(b.level_for(3), 1);
        assert_eq!(b.level_for(4), 2);
        assert_eq!(b.level_for(7), 2);
        assert_eq!(b.level_for(8), 3);
        assert_eq!(b.level_for(1 << 20), 20);
        assert_eq!(b.level_for((1 << 20) - 1), 19);
    }

    #[test]
    fn base_two_thresholds() {
        let b = LevelBase::TWO;
        assert_eq!(b.threshold(0), 2);
        assert_eq!(b.threshold(1), 4);
        assert_eq!(b.threshold(5), 64);
    }

    #[test]
    fn level_range_invariant() {
        // b^j ≤ size < b^{j+1} must hold for every size and base.
        for &base in &[1.5, 2.0, 3.0, 4.0] {
            let b = LevelBase::new(base);
            for size in 1..2000usize {
                let j = b.level_for(size);
                let low = base.powi(j as i32);
                let high = base.powi(j as i32 + 1);
                assert!(
                    low <= size as f64 + 1e-9 && (size as f64) < high + 1e-9,
                    "base {base}, size {size}, level {j}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "level base must be > 1")]
    fn base_one_rejected() {
        let _ = LevelBase::new(1.0);
    }

    #[test]
    fn fractional_base() {
        let b = LevelBase::new(1.5);
        assert_eq!(b.level_for(1), 0);
        assert_eq!(b.level_for(2), 1); // 1.5 ≤ 2 < 2.25
        assert_eq!(b.level_for(3), 2); // 2.25 ≤ 3 < 3.375
        assert_eq!(b.threshold(0), 2); // ceil(1.5)
    }
}
