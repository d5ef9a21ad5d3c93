//! Uniform tile partitioning of an `m × n` matrix with tile size `nb`
//! (edge tiles may be smaller).

/// Tile grid over an `m × n` matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tiling {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Uniform tile size (the paper's `nb`: 25, 50 or 70).
    pub nb: usize,
}

impl Tiling {
    /// Create a tiling; panics on a zero tile size.
    pub fn new(m: usize, n: usize, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        Self { m, n, nb }
    }

    /// Number of tile rows `⌈m/nb⌉`.
    pub fn tile_rows(&self) -> usize {
        self.m.div_ceil(self.nb)
    }

    /// Number of tile columns `⌈n/nb⌉`.
    pub fn tile_cols(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        self.tile_rows() * self.tile_cols()
    }

    /// Row range `(start, len)` of tile row `i`.
    pub fn row_range(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.tile_rows());
        let start = i * self.nb;
        (start, self.nb.min(self.m - start))
    }

    /// Column range `(start, len)` of tile column `j`.
    pub fn col_range(&self, j: usize) -> (usize, usize) {
        debug_assert!(j < self.tile_cols());
        let start = j * self.nb;
        (start, self.nb.min(self.n - start))
    }

    /// Flat tile index (tile-column-major, matching the V-stack layout).
    pub fn tile_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.tile_rows() && j < self.tile_cols());
        j * self.tile_rows() + i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let t = Tiling::new(100, 60, 20);
        assert_eq!(t.tile_rows(), 5);
        assert_eq!(t.tile_cols(), 3);
        assert_eq!(t.row_range(4), (80, 20));
        assert_eq!(t.col_range(2), (40, 20));
    }

    #[test]
    fn ragged_edges() {
        let t = Tiling::new(103, 65, 20);
        assert_eq!(t.tile_rows(), 6);
        assert_eq!(t.tile_cols(), 4);
        assert_eq!(t.row_range(5), (100, 3));
        assert_eq!(t.col_range(3), (60, 5));
    }

    #[test]
    fn ranges_tile_the_matrix_exactly() {
        let t = Tiling::new(77, 31, 10);
        let row_total: usize = (0..t.tile_rows()).map(|i| t.row_range(i).1).sum();
        let col_total: usize = (0..t.tile_cols()).map(|j| t.col_range(j).1).sum();
        assert_eq!(row_total, 77);
        assert_eq!(col_total, 31);
    }

    #[test]
    fn paper_dimensions() {
        // 26040 × 15930 at nb = 70 (the headline configuration).
        let t = Tiling::new(26040, 15930, 70);
        assert_eq!(t.tile_rows(), 372);
        assert_eq!(t.tile_cols(), 228); // 15930/70 = 227.57 -> 228
        assert_eq!(t.col_range(227).1, 15930 - 227 * 70);
    }

    #[test]
    fn tile_index_column_major() {
        let t = Tiling::new(40, 40, 10);
        assert_eq!(t.tile_index(0, 0), 0);
        assert_eq!(t.tile_index(3, 0), 3);
        assert_eq!(t.tile_index(0, 1), 4);
    }
}
