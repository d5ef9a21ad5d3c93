//! The tile low-rank matrix: per-tile `U·Vᴴ` factors on a uniform tile
//! grid, with application, adjoint application, and storage accounting.
//!
//! [`TlrMatrix::apply_into`] / [`TlrMatrix::apply_adjoint_into`] are the
//! operator the MDD solve runs on: the tile-fused product on the
//! [`crate::fastpath`] kernels, over the tiles as stored — no second,
//! stacked copy of the bases. The slow, obviously-right form of the same
//! product is [`LowRank::apply_acc`] over `seismic_la::blas`; the tests
//! below and `core::accuracy`'s probe use it as the oracle.

use rayon::prelude::*;
use seismic_la::scalar::C32;
use seismic_la::{LowRank, Matrix};

use crate::compress::CompressionConfig;
use crate::fastpath::{gemv_acc_fast, gemv_conj_transpose_fast};
use crate::tiling::Tiling;

const CZERO: C32 = C32::new(0.0, 0.0);

/// TLR representation of an `m × n` complex matrix.
///
/// Tiles are stored tile-column-major (`idx = j·mt + i`), matching the
/// V-stack construction order.
pub struct TlrMatrix {
    tiling: Tiling,
    tiles: Vec<LowRank<C32>>,
    config: CompressionConfig,
    /// Largest tile rank: the length of one task's rank scratch.
    max_rank: usize,
}

impl TlrMatrix {
    /// Assemble from parts (normally produced by [`crate::compress::compress`]).
    pub fn new(tiling: Tiling, tiles: Vec<LowRank<C32>>, config: CompressionConfig) -> Self {
        assert_eq!(tiles.len(), tiling.tile_count());
        for (idx, t) in tiles.iter().enumerate() {
            let i = idx % tiling.tile_rows();
            let j = idx / tiling.tile_rows();
            let (_, rl) = tiling.row_range(i);
            let (_, cl) = tiling.col_range(j);
            assert_eq!(t.shape(), (rl, cl), "tile ({i},{j}) shape mismatch");
        }
        let max_rank = tiles.iter().map(LowRank::rank).max().unwrap_or(0);
        Self {
            tiling,
            tiles,
            config,
            max_rank,
        }
    }

    /// The tile grid.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// The configuration this matrix was compressed with.
    pub fn config(&self) -> &CompressionConfig {
        &self.config
    }

    /// Matrix shape `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.tiling.m, self.tiling.n)
    }

    /// Tile `(i, j)`.
    pub fn tile(&self, i: usize, j: usize) -> &LowRank<C32> {
        &self.tiles[self.tiling.tile_index(i, j)]
    }

    /// Rank of tile `(i, j)`.
    pub fn rank(&self, i: usize, j: usize) -> usize {
        self.tile(i, j).rank()
    }

    /// Sum of all tile ranks.
    pub fn total_rank(&self) -> usize {
        self.tiles.iter().map(|t| t.rank()).sum()
    }

    /// Largest tile rank.
    pub fn max_rank(&self) -> usize {
        self.max_rank
    }

    /// Sum of tile ranks in tile column `j` (`K_j`, the V-stack width).
    pub fn column_rank(&self, j: usize) -> usize {
        (0..self.tiling.tile_rows()).map(|i| self.rank(i, j)).sum()
    }

    /// Sum of tile ranks in tile row `i` (the classic U-stack width).
    pub fn row_rank(&self, i: usize) -> usize {
        (0..self.tiling.tile_cols()).map(|j| self.rank(i, j)).sum()
    }

    /// Stored bytes of all `U`/`V` bases (8 B per complex-FP32 entry).
    pub fn compressed_bytes(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| t.stored_elements() * std::mem::size_of::<C32>())
            .sum()
    }

    /// Dense storage the compression replaced.
    pub fn dense_bytes(&self) -> usize {
        self.tiling.m * self.tiling.n * std::mem::size_of::<C32>()
    }

    /// Dense-to-compressed size ratio (the paper's "7×").
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / self.compressed_bytes().max(1) as f64
    }

    /// Densify (tests and small problems only).
    pub fn reconstruct(&self) -> Matrix<C32> {
        let mut out = Matrix::zeros(self.tiling.m, self.tiling.n);
        for j in 0..self.tiling.tile_cols() {
            let (c0, _) = self.tiling.col_range(j);
            for i in 0..self.tiling.tile_rows() {
                let (r0, _) = self.tiling.row_range(i);
                out.set_block(r0, c0, &self.tile(i, j).to_dense());
            }
        }
        out
    }

    /// `y = Ã x`: [`TlrMatrix::apply_into`] on a fresh vector.
    pub fn apply(&self, x: &[C32]) -> Vec<C32> {
        let mut y = vec![CZERO; self.tiling.m];
        self.apply_into(x, &mut y);
        y
    }

    /// `y = Ã x` into a caller-owned buffer, tile-fused on the
    /// [`crate::fastpath`] kernels: per tile `t = V_ijᴴ x_j`, then
    /// `y_i += U_ij t`, so no rank-length intermediate is stored and
    /// nothing is shuffled. Parallel over tile rows (each owns one `nb`
    /// chunk of `y`); the rank scratch is one allocation per call, cut
    /// into one `max_rank` piece per tile row.
    pub fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        assert_eq!(x.len(), self.tiling.n, "input length mismatch");
        assert_eq!(y.len(), self.tiling.m, "output length mismatch");
        let kmax = self.max_rank.max(1);
        let mut scratch = vec![CZERO; self.tiling.tile_rows() * kmax];
        y.par_chunks_mut(self.tiling.nb)
            .zip(scratch.par_chunks_mut(kmax))
            .enumerate()
            .for_each(|(i, (seg, t))| {
                seg.fill(CZERO);
                for j in 0..self.tiling.tile_cols() {
                    let (c0, cl) = self.tiling.col_range(j);
                    let tile = self.tile(i, j);
                    let t = &mut t[..tile.rank()];
                    gemv_conj_transpose_fast(&tile.v, &x[c0..c0 + cl], t);
                    gemv_acc_fast(&tile.u, t, seg);
                }
            });
    }

    /// `x = Ãᴴ y`: [`TlrMatrix::apply_adjoint_into`] on a fresh vector.
    /// This is the adjoint LSQR needs.
    pub fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        let mut x = vec![CZERO; self.tiling.n];
        self.apply_adjoint_into(y, &mut x);
        x
    }

    /// `x = Ãᴴ y` into a caller-owned buffer: the same two kernels as
    /// [`TlrMatrix::apply_into`] with `U` and `V` exchanged
    /// (`t = U_ijᴴ y_i`, `x_j += V_ij t`), parallel over tile columns.
    pub fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        assert_eq!(y.len(), self.tiling.m, "input length mismatch");
        assert_eq!(x.len(), self.tiling.n, "output length mismatch");
        let kmax = self.max_rank.max(1);
        let mut scratch = vec![CZERO; self.tiling.tile_cols() * kmax];
        x.par_chunks_mut(self.tiling.nb)
            .zip(scratch.par_chunks_mut(kmax))
            .enumerate()
            .for_each(|(j, (seg, t))| {
                seg.fill(CZERO);
                for i in 0..self.tiling.tile_rows() {
                    let (r0, rl) = self.tiling.row_range(i);
                    let tile = self.tile(i, j);
                    let t = &mut t[..tile.rank()];
                    gemv_conj_transpose_fast(&tile.u, &y[r0..r0 + rl], t);
                    gemv_acc_fast(&tile.v, t, seg);
                }
            });
    }

    /// Iterate tiles with their grid coordinates.
    pub fn tiles_with_coords(&self) -> impl Iterator<Item = (usize, usize, &LowRank<C32>)> {
        let mt = self.tiling.tile_rows();
        self.tiles.iter().enumerate().map(move |(idx, t)| {
            let i = idx % mt;
            let j = idx / mt;
            (i, j, t)
        })
    }

    /// Re-truncate every tile to a looser accuracy without touching the
    /// dense source — tolerance laddering: compress once tightly, derive
    /// the whole Fig. 12 sweep by rounding. `acc` has the same semantics
    /// as the compression config (per-tile relative).
    pub fn recompress(&self, acc: f32) -> TlrMatrix {
        let mt = self.tiling.tile_rows();
        let tiles: Vec<LowRank<C32>> = (0..self.tiles.len())
            .into_par_iter()
            .map(|idx| {
                let i = idx % mt;
                let j = idx / mt;
                let t = self.tile(i, j);
                if t.rank() == 0 {
                    return t.clone();
                }
                // Per-tile relative tolerance against the tile's own norm
                // (≈ the factor pair's norm).
                let tile_norm = t.to_dense().fro_norm();
                t.recompress(acc * tile_norm)
            })
            .collect();
        let mut config = self.config;
        config.acc = acc;
        TlrMatrix::new(self.tiling, tiles, config)
    }

    /// Histogram of tile ranks (index = rank, value = tile count).
    pub fn rank_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_rank() + 1];
        for t in &self.tiles {
            hist[t.rank()] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressionConfig, CompressionMethod, ToleranceMode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seismic_la::blas::{dotc, gemv, gemv_conj_transpose};
    use seismic_la::scalar::c32;

    fn kernel(m: usize, n: usize) -> Matrix<C32> {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.02).sqrt();
            C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
        })
    }

    fn cfg(nb: usize, acc: f32) -> CompressionConfig {
        CompressionConfig {
            nb,
            acc,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        }
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<C32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                c32(
                    seismic_la::dense::normal_sample(&mut rng) as f32,
                    seismic_la::dense::normal_sample(&mut rng) as f32,
                )
            })
            .collect()
    }

    #[test]
    fn apply_matches_dense_within_tolerance() {
        let a = kernel(90, 70);
        let tlr = compress(&a, cfg(16, 1e-4));
        let x = rand_vec(70, 81);
        let y_tlr = tlr.apply(&x);
        let mut y_dense = vec![C32::new(0.0, 0.0); 90];
        gemv(&a, &x, &mut y_dense);
        let err: f32 = y_tlr
            .iter()
            .zip(&y_dense)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f32>()
            .sqrt();
        let ynorm = seismic_la::blas::nrm2(&y_dense);
        assert!(err <= 1e-3 * ynorm, "err {err} vs |y| {ynorm}");
    }

    #[test]
    fn adjoint_matches_dense() {
        let a = kernel(60, 45);
        let tlr = compress(&a, cfg(12, 1e-5));
        let y = rand_vec(60, 82);
        let x_tlr = tlr.apply_adjoint(&y);
        let mut x_dense = vec![C32::new(0.0, 0.0); 45];
        gemv_conj_transpose(&a, &y, &mut x_dense);
        for (g, w) in x_tlr.iter().zip(&x_dense) {
            assert!((*g - *w).abs() < 1e-3);
        }
    }

    #[test]
    fn adjoint_identity_exact_on_tlr_operator() {
        // ⟨Ãx, y⟩ = ⟨x, Ãᴴy⟩ must hold *exactly* (to roundoff) for the
        // compressed operator itself, independent of compression error.
        let a = kernel(48, 36);
        let tlr = compress(&a, cfg(10, 1e-2));
        let x = rand_vec(36, 83);
        let y = rand_vec(48, 84);
        let ax = tlr.apply(&x);
        let ahy = tlr.apply_adjoint(&y);
        let lhs = dotc(&y, &ax);
        let rhs = dotc(&ahy, &x);
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    /// The product the obviously-right way: every tile through
    /// [`LowRank::apply_acc`] (`seismic_la::blas`, one accumulator, a
    /// fresh rank vector per tile).
    fn reference_apply(tlr: &TlrMatrix, x: &[C32]) -> Vec<C32> {
        let mut y = vec![CZERO; tlr.shape().0];
        for (i, j, tile) in tlr.tiles_with_coords() {
            let (r0, rl) = tlr.tiling().row_range(i);
            let (c0, cl) = tlr.tiling().col_range(j);
            tile.apply_acc(&x[c0..c0 + cl], &mut y[r0..r0 + rl]);
        }
        y
    }

    fn reference_apply_adjoint(tlr: &TlrMatrix, y: &[C32]) -> Vec<C32> {
        let mut x = vec![CZERO; tlr.shape().1];
        for (i, j, tile) in tlr.tiles_with_coords() {
            let (r0, rl) = tlr.tiling().row_range(i);
            let (c0, cl) = tlr.tiling().col_range(j);
            tile.apply_adjoint_acc(&y[r0..r0 + rl], &mut x[c0..c0 + cl]);
        }
        x
    }

    fn dist(a: &[C32], b: &[C32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let d: Vec<C32> = a.iter().zip(b).map(|(p, q)| *p - *q).collect();
        seismic_la::blas::nrm2(&d)
    }

    /// Tile-fused fast path against the reference loop (rounding only:
    /// `1e-5·‖A‖_F·‖x‖`) and against the dense matrix (compression error:
    /// tile-relative `acc` sums to `acc·‖A‖_F`, doubled for rounding), on
    /// grids the kernels' tails have to get right: `nb` not dividing the
    /// shape, `nb` larger than both dimensions, tiles of rank zero and
    /// tiles of full rank.
    #[test]
    fn apply_and_adjoint_match_reference_loop_and_dense_on_hostile_grids() {
        let mut rng = ChaCha8Rng::seed_from_u64(85);
        // A zero block spanning whole tiles, so some tiles have rank 0.
        let mut holed = kernel(70, 52);
        holed.set_block(16, 0, &Matrix::zeros(32, 32));
        let cases: Vec<(&str, Matrix<C32>, usize, f32)> = vec![
            ("ragged", kernel(67, 41), 16, 1e-4),
            ("nb > dims", kernel(20, 15), 64, 1e-4),
            ("zero-rank tiles", holed, 16, 1e-4),
            (
                "full-rank tiles",
                Matrix::<C32>::random_normal(45, 38, &mut rng),
                12,
                1e-7,
            ),
            ("one row", kernel(1, 9), 4, 1e-4),
        ];
        for (name, a, nb, acc) in cases {
            let (m, n) = a.shape();
            let tlr = compress(&a, cfg(nb, acc));
            if name == "zero-rank tiles" {
                assert!(tlr.tiles_with_coords().any(|(_, _, t)| t.rank() == 0));
            }
            if name == "full-rank tiles" {
                assert_eq!(tlr.max_rank(), nb);
            }
            let (x, y) = (rand_vec(n, 86), rand_vec(m, 87));
            let a_norm = a.fro_norm();
            let (x_norm, y_norm) = (seismic_la::blas::nrm2(&x), seismic_la::blas::nrm2(&y));

            let ax = tlr.apply(&x);
            let d = dist(&ax, &reference_apply(&tlr, &x));
            assert!(
                d <= 1e-5 * a_norm * x_norm,
                "{name}: apply vs reference {d}"
            );
            let mut dense = vec![CZERO; m];
            gemv(&a, &x, &mut dense);
            let d = dist(&ax, &dense);
            assert!(
                d <= 2.0 * acc * a_norm * x_norm,
                "{name}: apply vs dense {d}"
            );

            let ahy = tlr.apply_adjoint(&y);
            let d = dist(&ahy, &reference_apply_adjoint(&tlr, &y));
            assert!(
                d <= 1e-5 * a_norm * y_norm,
                "{name}: adjoint vs reference {d}"
            );
            let mut dense = vec![CZERO; n];
            gemv_conj_transpose(&a, &y, &mut dense);
            let d = dist(&ahy, &dense);
            assert!(
                d <= 2.0 * acc * a_norm * y_norm,
                "{name}: adjoint vs dense {d}"
            );
        }
    }

    #[test]
    fn rank_accounting_consistent() {
        let a = kernel(64, 48);
        let tlr = compress(&a, cfg(16, 1e-3));
        let by_cols: usize = (0..tlr.tiling().tile_cols())
            .map(|j| tlr.column_rank(j))
            .sum();
        let by_rows: usize = (0..tlr.tiling().tile_rows()).map(|i| tlr.row_rank(i)).sum();
        assert_eq!(by_cols, tlr.total_rank());
        assert_eq!(by_rows, tlr.total_rank());
        let hist = tlr.rank_histogram();
        let hist_total: usize = hist.iter().enumerate().map(|(r, c)| r * c).sum();
        assert_eq!(hist_total, tlr.total_rank());
    }

    #[test]
    fn compressed_bytes_formula() {
        let a = kernel(40, 30);
        let tlr = compress(&a, cfg(10, 1e-3));
        let manual: usize = tlr
            .tiles_with_coords()
            .map(|(_, _, t)| (t.u.len() + t.v.len()) * 8)
            .sum();
        assert_eq!(manual, tlr.compressed_bytes());
        assert_eq!(tlr.dense_bytes(), 40 * 30 * 8);
    }

    #[test]
    fn recompress_ladders_tolerances() {
        let a = kernel(80, 64);
        let tight = compress(&a, cfg(16, 1e-5));
        let loose = tight.recompress(1e-2);
        // Looser: never more storage, tolerance still met against the
        // original dense matrix (1e-5 + 1e-2 ≤ 1.1e-2 triangle bound).
        assert!(loose.compressed_bytes() <= tight.compressed_bytes());
        let err = loose.reconstruct().sub(&a).fro_norm();
        assert!(err <= 1.2e-2 * a.fro_norm(), "err {err}");
        // And it should genuinely drop ranks on this smooth kernel.
        assert!(loose.total_rank() < tight.total_rank());
    }

    #[test]
    #[should_panic]
    fn wrong_input_length_panics() {
        let a = kernel(20, 15);
        let tlr = compress(&a, cfg(5, 1e-3));
        let _ = tlr.apply(&[C32::new(0.0, 0.0); 14]);
    }
}
