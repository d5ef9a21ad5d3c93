//! The ragged store the layout tests share, built by hand.

use seismic_la::scalar::C32;
use seismic_la::Matrix;
use tlr_mvm::{CompressionConfig, Skeleton, Tiling, TlrMatrix};

/// A ragged 70×106 store at `nb` 24, no compressor: per tile,
/// column-major, a skeleton of the listed rank or, for `None`, a dense
/// block. It holds dense tiles, rank-0 tiles, a rank-0 tile column (2),
/// `r = n` and a rank of every residue mod 4, so stack widths 3, 5 and 12
/// cut tiles mid-rank; the entries are exact sevenths in `[−2, 2]`.
/// `wse_sim::exec`'s tests build the same store.
pub fn ragged_store() -> TlrMatrix {
    const RANKS: [Option<usize>; 15] = [
        Some(5),
        None,
        Some(0),
        Some(1),
        Some(6),
        Some(3),
        Some(0),
        Some(0),
        Some(0),
        Some(4),
        Some(11),
        None,
        Some(2),
        Some(10),
        Some(9),
    ];
    let tiling = Tiling::new(70, 106, 24);
    let entry = |salt: usize| {
        move |i: usize, j: usize| {
            let part = |k: usize| ((k * 37 + salt * 11) % 29) as f32 / 7.0 - 2.0;
            C32::new(part(i * 31 + j), part(i * 31 + j + 13))
        }
    };
    let skeletons = RANKS
        .iter()
        .enumerate()
        .map(|(t, rank)| {
            let (_, m) = tiling.row_range(t % tiling.tile_rows());
            let (_, n) = tiling.col_range(t / tiling.tile_rows());
            rank.map(|r| {
                let order: Vec<usize> = (0..n).map(|k| (k * 7 + 3) % n).collect();
                Skeleton::new(
                    &Matrix::from_fn(m, r, entry(3 * t + 1)),
                    &Matrix::from_fn(n - r, r, entry(3 * t + 2)),
                    &order,
                )
            })
        })
        .collect();
    // Entry `(i, j)` of dense tile `t` is `entry(3t)(i, j)`.
    let nb = tiling.nb;
    let block = |r0: usize, c0: usize, m: usize, n: usize| {
        Matrix::from_fn(m, n, |i, j| {
            let (r, c) = (r0 + i, c0 + j);
            entry(3 * tiling.tile_index(r / nb, c / nb))(r % nb, c % nb)
        })
    };
    let store = TlrMatrix::new(
        tiling,
        CompressionConfig::paper_default().with_nb(24),
        skeletons,
        block,
    );
    assert_eq!((store.dense_tiles(), store.column_rank(2)), (2, 0));
    store
}
