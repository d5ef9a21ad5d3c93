//! Property tests for the accuracy observatory (DESIGN.md §16): the
//! per-tile grids the compressor records must reconcile **exactly**
//! (`==`, not approximately) with the `TlrMatrix` they describe, for
//! random shapes, tile sizes, accuracy targets, and both tolerance
//! modes.
//!
//! This lives in its own integration-test binary on purpose: the trace
//! collector is process-global, and the single `proptest!` test below
//! runs its cases sequentially, so no other test can interleave grid
//! recordings into the window between `reset` and `snapshot`.

use proptest::prelude::*;
use seismic_la::scalar::C32;
use seismic_la::Matrix;
use tlr_mvm::{
    compress, trace, verify_compression_grids, CompressionConfig, CompressionMethod, TileRef,
    ToleranceMode,
};

/// Oscillatory kernel with seed-driven oscillation, mirroring the rank
/// structures seismic frequency matrices exhibit after reordering.
fn kernel(m: usize, n: usize, osc: f32) -> Matrix<C32> {
    Matrix::from_fn(m, n, |i, j| {
        let x = i as f32 / m as f32;
        let y = j as f32 / n as f32;
        let d = ((x - y) * (x - y) + 0.03).sqrt();
        C32::from_polar(1.0 / (1.0 + 3.0 * d), -osc * d)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any `(m, n, nb, acc, mode)`, the recorded accuracy grids
    /// reconcile exactly with the compressed operator: the rank grid
    /// sums to `total_rank()` cell-by-cell, the stored-bytes grid sums
    /// to `compressed_bytes()`, and in tile-relative mode every
    /// truncation tail honors the per-tile tolerance.
    #[test]
    fn grids_reconcile_exactly_with_the_matrix(
        m in 12usize..96,
        n in 12usize..96,
        nb in 4usize..28,
        osc in 1.0f32..40.0,
        acc_exp in 2i32..5,
        tile_relative in proptest::bool::ANY,
    ) {
        let a = kernel(m, n, osc);
        let acc = 10f32.powi(-acc_exp);
        let config = CompressionConfig {
            nb,
            acc,
            method: CompressionMethod::Svd,
            mode: if tile_relative {
                ToleranceMode::RelativeTile
            } else {
                ToleranceMode::RelativeGlobal
            },
        };
        trace::reset();
        trace::set_enabled(true);
        let tlr = compress(&a, config);
        let report = trace::snapshot();
        trace::set_enabled(false);
        trace::reset();

        // The library's own reconciliation: dims, per-cell ranks, and
        // both grid totals, all exact.
        let verdict = verify_compression_grids(&tlr, &report);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);

        // Independently recompute the sums here so the test does not
        // share arithmetic with the code under test.
        let rank_grid = report
            .grid_for("accuracy.tile_rank")
            .expect("rank grid recorded");
        let byte_grid = report
            .grid_for("accuracy.tile_stored_bytes")
            .expect("byte grid recorded");
        let tail_grid = report
            .grid_for("accuracy.tile_tail_ppb")
            .expect("tail grid recorded");
        let mt = tlr.tiling().tile_rows();
        let nt = tlr.tiling().tile_cols();
        prop_assert_eq!(rank_grid.cells.len(), mt * nt);
        prop_assert_eq!(byte_grid.cells.len(), mt * nt);
        prop_assert_eq!(tail_grid.cells.len(), mt * nt);

        let rank_sum: u64 = rank_grid.cells.iter().sum();
        prop_assert_eq!(rank_sum, tlr.total_rank() as u64);
        let byte_sum: u64 = byte_grid.cells.iter().sum();
        prop_assert_eq!(byte_sum, tlr.compressed_bytes() as u64);

        // Cell-by-cell: the byte grid is the stored form's byte count
        // (`TileRef::stored_bytes`), which the tile geometry fixes — a
        // rank-r skeleton stores r·(rows+cols−r) complex elements and one
        // index byte per column, a tile kept dense rows·cols elements, and
        // never more words than that.
        for i in 0..mt {
            for j in 0..nt {
                let cell = i * nt + j;
                prop_assert_eq!(rank_grid.cells[cell], tlr.rank(i, j) as u64);
                let tile = tlr.tile(i, j);
                prop_assert_eq!(byte_grid.cells[cell], tile.stored_bytes() as u64);
                let (rows, cols) = tile.shape();
                let (words, index) = match tile {
                    TileRef::LowRank(s) if s.rank() == 0 => (0, 0),
                    TileRef::LowRank(s) => (s.rank() * (rows + cols - s.rank()), cols),
                    TileRef::Dense(_) => (rows * cols, 0),
                };
                prop_assert_eq!(tile.stored_elements(), words);
                prop_assert_eq!(
                    tile.stored_bytes(),
                    words * std::mem::size_of::<C32>() + index
                );
                prop_assert!(words <= rows * cols);
            }
        }

        // Tile-relative mode bounds every per-tile truncation tail by
        // the tolerance (ppb scale, with slack for float rounding).
        if tile_relative {
            let bound = (f64::from(acc) * 1e9 * 1.1) as u64 + 1;
            for (cell, &ppb) in tail_grid.cells.iter().enumerate() {
                prop_assert!(
                    ppb <= bound,
                    "tile {cell}: tail {ppb} ppb exceeds acc bound {bound}"
                );
            }
        }
    }
}
