//! The tile low-rank matrix: one stored form per tile — the skeleton form
//! `C·[I Xᴴ]·Πᵀ` of its low-rank approximant ([`Skeleton`]) or the dense
//! block, whichever [`crate::compress::compress_tile`] chose ([`Tile`]) —
//! on a uniform tile grid, with application, adjoint application, and
//! storage accounting.
//!
//! [`TlrMatrix::apply_into`] / [`TlrMatrix::apply_adjoint_into`] are the
//! operator the MDD solve and the engine's sweep run on: the tile-fused
//! product on the [`crate::fastpath`] kernels, over the tiles as stored —
//! no second, stacked copy of the bases — and
//! [`TlrMatrix::adjoint_then_apply_into`] is the two of them in one pass
//! over the store, which is what an LSQR iteration costs. The slow,
//! obviously-right form of the same product is [`Tile::apply_acc`] over
//! `seismic_la::blas`; the tests below and `core::accuracy`'s probe use it
//! as the oracle.

use std::sync::Arc;

use rayon::prelude::*;
use seismic_la::blas::{gemv_acc, gemv_conj_transpose_acc};
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::compress::CompressionConfig;
use crate::fastpath::{gemv_acc_fast, gemv_conj_transpose_swapped, swap_re_im};
use crate::ops::subtract_scaled;
use crate::skeleton::Skeleton;
use crate::tiling::Tiling;

const CZERO: C32 = C32::new(0.0, 0.0);

/// One tile as stored ([`crate::compress::compress_tile`] chooses the
/// form).
///
/// Either form stands for a factor pair without storing it — a
/// [`Tile::LowRank`] tile for `(C, W)` with `W = Π·[I; X]`, a
/// [`Tile::Dense`] tile for `(A, I)`, the `r = n` case in which `X` is
/// empty — and `Tile::u_col` / `Tile::copy_v_col` hand that pair out
/// column by column, so every rank-derived number (stack widths, the §6.6
/// cost model, the wafer workload) is what that factorisation gives,
/// while [`Tile::stored_bytes`] counts what is actually held.
#[derive(Clone, Debug)]
pub enum Tile {
    /// The skeleton form of a rank-`r` approximant: `r·(m+n−r)` words and
    /// the column order.
    LowRank(Skeleton),
    /// The block itself, `m·n` words.
    Dense(Matrix<C32>),
}

impl Tile {
    /// Rank `r` of the skeleton; the column count of a dense tile.
    #[inline]
    pub fn rank(&self) -> usize {
        match self {
            Tile::LowRank(s) => s.rank(),
            Tile::Dense(a) => a.ncols(),
        }
    }

    /// `(m, n)` of the block this tile stands for.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Tile::LowRank(s) => s.shape(),
            Tile::Dense(a) => a.shape(),
        }
    }

    /// Number of stored scalars: `r·(m+n−r)`, or `m·n` for a dense tile.
    #[inline]
    pub fn stored_elements(&self) -> usize {
        match self {
            Tile::LowRank(s) => s.stored_elements(),
            Tile::Dense(a) => a.len(),
        }
    }

    /// Stored bytes: 8 per scalar (complex FP32), plus the column order of
    /// a skeleton — one byte per tile column up to 256 of them.
    #[inline]
    pub fn stored_bytes(&self) -> usize {
        let index = match self {
            Tile::LowRank(s) => s.index_bytes(),
            Tile::Dense(_) => 0,
        };
        self.stored_elements() * std::mem::size_of::<C32>() + index
    }

    /// Densify.
    pub fn to_dense(&self) -> Matrix<C32> {
        match self {
            Tile::LowRank(s) => s.factors().to_dense(),
            Tile::Dense(a) => a.clone(),
        }
    }

    /// `y += T x` on the reference kernels (`seismic_la::blas`), a
    /// skeleton through the `(C, W)` pair it stands for.
    pub fn apply_acc(&self, x: &[C32], y: &mut [C32]) {
        match self {
            Tile::LowRank(s) => s.factors().apply_acc(x, y),
            Tile::Dense(a) => gemv_acc(a, x, y),
        }
    }

    /// `y += Tᴴ x` on the reference kernels.
    pub fn apply_adjoint_acc(&self, x: &[C32], y: &mut [C32]) {
        match self {
            Tile::LowRank(s) => s.factors().apply_adjoint_acc(x, y),
            Tile::Dense(a) => gemv_conj_transpose_acc(a, x, y),
        }
    }

    /// Column `r` of the left factor: of `C`; of a dense tile, its own
    /// column `r`.
    pub(crate) fn u_col(&self, r: usize) -> &[C32] {
        match self {
            Tile::LowRank(s) => s.c_col(r),
            Tile::Dense(a) => a.col(r),
        }
    }

    /// Write column `r` of the right factor into `dst`: `e_{J[r]}` plus
    /// column `r` of `X`; for a dense tile the unit vector `e_r` alone.
    pub(crate) fn copy_v_col(&self, r: usize, dst: &mut [C32]) {
        match self {
            Tile::LowRank(s) => s.copy_w_col(r, dst),
            Tile::Dense(_) => {
                dst.fill(CZERO);
                dst[r] = C32::new(1.0, 0.0);
            }
        }
    }
}

/// `x += Aᴴ y` for a tile stored dense: `t = Aᴴ y` on the fast kernel into
/// the head of the caller's scratch (at least `A`'s column count long),
/// then the add — what `x += I·(Aᴴ y)` computed, without the `I`. `ys` is
/// `swap_re_im(y)`.
#[inline]
fn dense_adjoint_acc(a: &Matrix<C32>, y: &[C32], ys: &[C32], scratch: &mut [C32], x: &mut [C32]) {
    let t = &mut scratch[..a.ncols()];
    gemv_conj_transpose_swapped(a, y, ys, t);
    for (xv, &tv) in x.iter_mut().zip(&*t) {
        *xv += tv;
    }
}

/// TLR representation of an `m × n` complex matrix.
///
/// Tiles are stored tile-column-major (`idx = j·mt + i`), matching the
/// V-stack construction order. They never change after [`TlrMatrix::new`]
/// and are held behind an `Arc`, so a clone shares them: it costs a
/// reference count, not a copy of the operator.
#[derive(Clone)]
pub struct TlrMatrix {
    tiling: Tiling,
    tiles: Arc<[Tile]>,
    config: CompressionConfig,
    /// Largest tile rank.
    max_rank: usize,
}

impl TlrMatrix {
    /// Assemble from parts (normally produced by [`crate::compress::compress`]).
    pub fn new(tiling: Tiling, tiles: Vec<Tile>, config: CompressionConfig) -> Self {
        assert_eq!(tiles.len(), tiling.tile_count());
        for (idx, t) in tiles.iter().enumerate() {
            let i = idx % tiling.tile_rows();
            let j = idx / tiling.tile_rows();
            let (_, rl) = tiling.row_range(i);
            let (_, cl) = tiling.col_range(j);
            assert_eq!(t.shape(), (rl, cl), "tile ({i},{j}) shape mismatch");
        }
        let max_rank = tiles.iter().map(Tile::rank).max().unwrap_or(0);
        Self {
            tiling,
            tiles: tiles.into(),
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
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
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

    /// Tiles stored dense rather than as factors.
    pub fn dense_tiles(&self) -> usize {
        self.tiles
            .iter()
            .filter(|t| matches!(t, Tile::Dense(_)))
            .count()
    }

    /// Stored bytes of all tiles ([`Tile::stored_bytes`]): skeleton or
    /// dense block at 8 B per complex-FP32 entry, plus the skeletons'
    /// column orders.
    pub fn compressed_bytes(&self) -> usize {
        self.tiles.iter().map(Tile::stored_bytes).sum()
    }

    /// Dense storage the compression replaced.
    pub fn dense_bytes(&self) -> usize {
        self.tiling.m * self.tiling.n * std::mem::size_of::<C32>()
    }

    /// Dense-to-compressed size ratio (the paper's "7×"); at least 1,
    /// since no tile stores more words than its dense block.
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
    /// [`crate::fastpath`] kernels: per skeleton tile `t = x_J + Xᴴ x̃` on
    /// the tile's own ordering of `x_j`, then `y_i += C t`; per dense tile
    /// `y_i += A_ij x_j`. No rank-length intermediate is stored and
    /// nothing is shuffled between tiles. Parallel over tile rows (each
    /// owns one `nb` chunk of `y`); the scratch is one allocation per
    /// call, cut into one `2·nb` piece per tile row (`x_j` in the tile's
    /// order, and the swapped copy of its `x̃` part).
    pub fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        assert_eq!(x.len(), self.tiling.n, "input length mismatch");
        assert_eq!(y.len(), self.tiling.m, "output length mismatch");
        let nb = self.tiling.nb;
        let mut scratch = vec![CZERO; self.tiling.tile_rows() * 2 * nb];
        y.par_chunks_mut(nb)
            .zip(scratch.par_chunks_mut(2 * nb))
            .enumerate()
            .for_each(|(i, (seg, scratch))| {
                seg.fill(CZERO);
                for j in 0..self.tiling.tile_cols() {
                    let (c0, cl) = self.tiling.col_range(j);
                    let xj = &x[c0..c0 + cl];
                    match self.tile(i, j) {
                        Tile::LowRank(s) => s.apply_acc_fast(xj, scratch, seg),
                        Tile::Dense(a) => gemv_acc_fast(a, xj, seg),
                    }
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

    /// `x = Ãᴴ y` into a caller-owned buffer: per skeleton tile
    /// `s = Cᴴ y_i`, then `x_J += s` and `x̃ += X s` scattered back onto
    /// `x_j`; per dense tile `x_j += A_ijᴴ y_i`. Parallel over tile
    /// columns. The one scratch allocation holds the swapped copy of `y`
    /// both conjugated dots read — made once here, not once per tile — and
    /// one `nb` piece per tile column.
    pub fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        assert_eq!(y.len(), self.tiling.m, "input length mismatch");
        assert_eq!(x.len(), self.tiling.n, "output length mismatch");
        let nb = self.tiling.nb;
        let mut scratch = vec![CZERO; y.len() + self.tiling.tile_cols() * nb];
        let (ys, scratch) = scratch.split_at_mut(y.len());
        swap_re_im(y, ys);
        let ys = &*ys;
        x.par_chunks_mut(nb)
            .zip(scratch.par_chunks_mut(nb))
            .enumerate()
            .for_each(|(j, (seg, scratch))| {
                seg.fill(CZERO);
                for i in 0..self.tiling.tile_rows() {
                    let (r0, rl) = self.tiling.row_range(i);
                    let (yi, ysi) = (&y[r0..r0 + rl], &ys[r0..r0 + rl]);
                    match self.tile(i, j) {
                        Tile::LowRank(s) => s.apply_adjoint_acc_fast(yi, ysi, scratch, seg),
                        Tile::Dense(a) => dense_adjoint_acc(a, yi, ysi, scratch, seg),
                    }
                }
            });
    }

    /// `v ← Ãᴴu − βv`, then `w ← Ãv`, in one sweep over the tiles in
    /// storage order (tile-column-major): per tile column `j`, every
    /// tile's adjoint kernel into `z_j` in row order, the update of `v_j`
    /// — final the moment the column is done — and every tile's forward
    /// kernel into its `w_i`, over the tiles the adjoint just pulled into
    /// cache. The distance between a tile's two uses is one tile column
    /// of the store, where [`Self::apply_adjoint_into`] followed by
    /// [`Self::apply_into`] reads the whole store twice.
    ///
    /// Those two calls' kernels, scratch shapes and accumulation order per
    /// output element (`z_j` over `i` ascending, `w_i` over `j`
    /// ascending), hence their bits. Serial: the parallelism is across the
    /// matrices of a frequency stack, one sweep each (a lone matrix keeps
    /// one thread busy). `z` is `n` long and ends up holding `Ãᴴu`; the
    /// one scratch allocation is the swapped copy of `u`, the adjoint
    /// kernels' `nb` and the forward kernels' `2·nb`.
    pub fn adjoint_then_apply_into(
        &self,
        u: &[C32],
        beta: f32,
        v: &mut [C32],
        w: &mut [C32],
        z: &mut [C32],
    ) {
        assert_eq!(u.len(), self.tiling.m, "input length mismatch");
        assert_eq!(w.len(), self.tiling.m, "output length mismatch");
        assert_eq!(v.len(), self.tiling.n, "update length mismatch");
        assert_eq!(z.len(), self.tiling.n, "scratch length mismatch");
        let nb = self.tiling.nb;
        let mut scratch = vec![CZERO; u.len() + 3 * nb];
        let (us, scratch) = scratch.split_at_mut(u.len());
        swap_re_im(u, us);
        let us = &*us;
        let (adjoint_scratch, forward_scratch) = scratch.split_at_mut(nb);
        w.fill(CZERO);
        for j in 0..self.tiling.tile_cols() {
            let (c0, cl) = self.tiling.col_range(j);
            let (zj, vj) = (&mut z[c0..c0 + cl], &mut v[c0..c0 + cl]);
            zj.fill(CZERO);
            for i in 0..self.tiling.tile_rows() {
                let (r0, rl) = self.tiling.row_range(i);
                let (ui, usi) = (&u[r0..r0 + rl], &us[r0..r0 + rl]);
                match self.tile(i, j) {
                    Tile::LowRank(s) => s.apply_adjoint_acc_fast(ui, usi, adjoint_scratch, zj),
                    Tile::Dense(a) => dense_adjoint_acc(a, ui, usi, adjoint_scratch, zj),
                }
            }
            subtract_scaled(zj, beta, vj);
            for i in 0..self.tiling.tile_rows() {
                let (r0, rl) = self.tiling.row_range(i);
                let wi = &mut w[r0..r0 + rl];
                match self.tile(i, j) {
                    Tile::LowRank(s) => s.apply_acc_fast(vj, forward_scratch, wi),
                    Tile::Dense(a) => gemv_acc_fast(a, vj, wi),
                }
            }
        }
    }

    /// Iterate tiles with their grid coordinates.
    pub fn tiles_with_coords(&self) -> impl Iterator<Item = (usize, usize, &Tile)> {
        let mt = self.tiling.tile_rows();
        self.tiles.iter().enumerate().map(move |(idx, t)| {
            let i = idx % mt;
            let j = idx / mt;
            (i, j, t)
        })
    }

    /// Histogram of tile ranks (index = rank, value = tile count).
    pub fn rank_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_rank() + 1];
        for t in self.tiles.iter() {
            hist[t.rank()] += 1;
        }
        hist
    }
}

/// What the stored-form tests across this crate share.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::compress::{compress, CompressionMethod, ToleranceMode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// `tlr` with every dense tile re-expressed as the `(A, I)` factor
    /// pair it stands for: the skeleton with `r = n`, `C = A`, no `X` and
    /// the columns in their own order.
    pub(crate) fn dense_tiles_as_factors(tlr: &TlrMatrix) -> TlrMatrix {
        let tiles = tlr
            .tiles
            .iter()
            .map(|t| match t {
                Tile::Dense(a) => {
                    let n = a.ncols();
                    let order: Vec<usize> = (0..n).collect();
                    Tile::LowRank(Skeleton::new(a, &Matrix::zeros(0, n), &order))
                }
                Tile::LowRank(_) => t.clone(),
            })
            .collect();
        TlrMatrix::new(tlr.tiling, tiles, tlr.config)
    }

    /// Noise does not compress: a ragged 45×38 matrix at `nb` 12 whose
    /// tiles are all stored dense, but for the two a zero block covers
    /// (rank 0). A dense tile's rank is its column count: ten 12-wide
    /// tiles and four 2-wide ones.
    pub(crate) fn noise_tiles() -> TlrMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(89);
        let mut a = Matrix::<C32>::random_normal(45, 38, &mut rng);
        a.set_block(12, 0, &Matrix::zeros(12, 24));
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 12,
                acc: 1e-7,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        assert_eq!(tlr.dense_tiles(), tlr.tiling().tile_count() - 2);
        assert_eq!(tlr.total_rank(), 10 * 12 + 4 * 2);
        tlr
    }

    /// A ragged 50×52 matrix at `nb` 16 whose tile row 0 and tile column 1
    /// each hold a dense, a low-rank and a rank-0 tile: a smooth kernel
    /// with tile (0, 1) replaced by noise and tiles (0, 0), (2, 1) zeroed.
    pub(crate) fn mixed_tiles() -> (Matrix<C32>, TlrMatrix) {
        let (m, n) = (50, 52);
        let mut a = Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.02).sqrt();
            C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        a.set_block(0, 16, &Matrix::<C32>::random_normal(16, 16, &mut rng));
        a.set_block(0, 0, &Matrix::zeros(16, 16));
        a.set_block(32, 16, &Matrix::zeros(16, 16));
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 16,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let kind = |i, j| match tlr.tile(i, j) {
            Tile::Dense(_) => 'd',
            Tile::LowRank(s) if s.rank() == 0 => '0',
            Tile::LowRank(_) => 'l',
        };
        assert_eq!([kind(0, 0), kind(0, 1), kind(0, 2)], ['0', 'd', 'l']);
        assert_eq!([kind(0, 1), kind(1, 1), kind(2, 1)], ['d', 'l', '0']);
        (a, tlr)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{dense_tiles_as_factors, mixed_tiles, noise_tiles};
    use super::*;
    use crate::compress::{compress, CompressionConfig, CompressionMethod, ToleranceMode};
    use crate::fastpath::golden::{fnv1a, golden, golden_vec};
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
    /// [`Tile::apply_acc`] — a skeleton as the `(C, W)` pair it stands for
    /// on `seismic_la::LowRank::apply_acc` (`seismic_la::blas`, one
    /// accumulator, a fresh rank vector per tile).
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

    /// Grids the kernels' tails have to get right: `nb` not dividing the
    /// shape (edge tiles with `m < n` and `m > n`), `nb` larger than both
    /// dimensions, tiles of rank zero, one, `n − 1` and of full rank.
    fn hostile_grids() -> Vec<(&'static str, Matrix<C32>, usize, f32)> {
        let mut rng = ChaCha8Rng::seed_from_u64(85);
        // A zero block spanning whole tiles, so some tiles have rank 0.
        let mut holed = kernel(70, 52);
        holed.set_block(16, 0, &Matrix::zeros(32, 32));
        let rank_one = Matrix::from_fn(40, 34, |i, j| {
            C32::from_polar(1.0 + 0.01 * i as f32, 0.3 * i as f32)
                * C32::from_polar(2.0 - 0.02 * j as f32, -0.2 * j as f32)
        });
        vec![
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
            // 34 = 2·16 + 2: the last tile column is two wide, so its
            // rank-1 skeletons have r = n − 1 and a single row of X.
            ("rank one", rank_one, 16, 1e-4),
        ]
    }

    /// Tile-fused fast path against the reference loop — every skeleton
    /// through the `(C, W)` pair it stands for on `seismic_la::blas`
    /// (rounding only: `1e-5·‖A‖_F·‖x‖`) — and against the dense matrix
    /// (compression error: tile-relative `acc` sums to `acc·‖A‖_F`, doubled
    /// for rounding), with the adjoint dot-product test, on
    /// [`hostile_grids`] and on the matrix whose tile row 0 and tile
    /// column 1 each hold a dense, a skeleton and a rank-0 tile.
    #[test]
    fn apply_and_adjoint_match_reference_loop_and_dense_on_hostile_grids() {
        let mut cases = hostile_grids();
        let (mixed, _) = mixed_tiles();
        cases.push(("mixed", mixed, 16, 1e-4));
        for (name, a, nb, acc) in cases {
            let (m, n) = a.shape();
            let tlr = compress(&a, cfg(nb, acc));
            if name == "zero-rank tiles" {
                assert!(tlr.tiles_with_coords().any(|(_, _, t)| t.rank() == 0));
            }
            if name == "full-rank tiles" {
                assert_eq!(tlr.max_rank(), nb);
                assert_eq!(tlr.dense_tiles(), tlr.tiling().tile_count());
            }
            if name == "rank one" {
                assert_eq!((tlr.max_rank(), tlr.dense_tiles()), (1, 0));
                assert_eq!(tlr.tile(0, 2).shape(), (16, 2), "r = n − 1");
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

            let (lhs, rhs) = (dotc(&y, &ax), dotc(&ahy, &x));
            assert!(
                (lhs - rhs).abs() <= 1e-4 * a_norm * x_norm * y_norm,
                "{name}: ⟨y, Ãx⟩ = {lhs} but ⟨Ãᴴy, x⟩ = {rhs}"
            );
        }
    }

    /// The dense branch computes what the `(A, I)` factor pair it replaces
    /// computed: the identity product only ever added exact zeros, so the
    /// two stores agree under `==` (which takes `+0` and `-0` as equal),
    /// forward and adjoint, on every hostile grid and on a matrix mixing
    /// dense, low-rank and rank-0 tiles in one tile row and one tile column.
    #[test]
    fn dense_tiles_apply_as_the_factor_pairs_they_replace() {
        let mut stores: Vec<(&str, TlrMatrix)> = hostile_grids()
            .into_iter()
            .map(|(name, a, nb, acc)| (name, compress(&a, cfg(nb, acc))))
            .collect();
        stores.push(("mixed", mixed_tiles().1));
        let mut dense_seen = 0;
        for (name, hybrid) in stores {
            let factors = dense_tiles_as_factors(&hybrid);
            assert_eq!(factors.dense_tiles(), 0);
            assert_eq!(factors.total_rank(), hybrid.total_rank(), "{name}");
            assert_eq!(factors.rank_histogram(), hybrid.rank_histogram());
            dense_seen += hybrid.dense_tiles();
            let (m, n) = hybrid.shape();
            let (x, y) = (rand_vec(n, 91), rand_vec(m, 92));
            assert_eq!(hybrid.apply(&x), factors.apply(&x), "{name}: apply");
            assert_eq!(
                hybrid.apply_adjoint(&y),
                factors.apply_adjoint(&y),
                "{name}: adjoint"
            );
        }
        assert!(dense_seen > 0);
    }

    /// The one-pass sweep runs the kernels of `apply_adjoint_into` followed
    /// by `apply_into` in their order per output element, so it returns
    /// their bits (`to_bits`: a `−0` counts) — on every hostile grid, the
    /// mixed and the all-dense store, with and without a `βv` to subtract,
    /// into dirty buffers, and through a tile that holds a NaN.
    #[test]
    fn fused_sweep_is_the_two_passes_bit_for_bit() {
        let mut stores: Vec<(&str, TlrMatrix)> = hostile_grids()
            .into_iter()
            .map(|(name, a, nb, acc)| (name, compress(&a, cfg(nb, acc))))
            .collect();
        let (_, mixed) = mixed_tiles();
        let mut tiles = mixed.tiles.to_vec();
        let mut poisoned = tiles[mixed.tiling.tile_index(0, 1)].to_dense();
        poisoned[(3, 5)] = C32::new(f32::NAN, 1.0);
        tiles[mixed.tiling.tile_index(0, 1)] = Tile::Dense(poisoned);
        let poisoned = TlrMatrix::new(mixed.tiling, tiles, mixed.config);
        stores.push(("NaN tile", poisoned.clone()));
        stores.push(("mixed", mixed));
        stores.push(("noise", noise_tiles()));

        let bits = |v: &[C32]| -> Vec<(u32, u32)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (name, tlr) in &stores {
            let (m, n) = tlr.shape();
            for beta in [0.0f32, 0.7] {
                let (u, v0) = (rand_vec(m, 93), rand_vec(n, 94));

                let (mut z, mut v, mut w) = (rand_vec(n, 95), v0.clone(), rand_vec(m, 96));
                tlr.apply_adjoint_into(&u, &mut z);
                for (vi, zi) in v.iter_mut().zip(&z) {
                    *vi = *zi - vi.scale(beta);
                }
                tlr.apply_into(&v, &mut w);

                let (mut z1, mut v1, mut w1) = (rand_vec(n, 97), v0, rand_vec(m, 98));
                tlr.adjoint_then_apply_into(&u, beta, &mut v1, &mut w1, &mut z1);
                assert_eq!(bits(&v1), bits(&v), "{name}, β = {beta}: v");
                assert_eq!(bits(&w1), bits(&w), "{name}, β = {beta}: w");
                assert_eq!(bits(&z1), bits(&z), "{name}, β = {beta}: Ãᴴu");
            }
        }
        let nan = |v: &[C32]| v.iter().filter(|z| z.re.is_nan() || z.im.is_nan()).count();
        let (m, n) = poisoned.shape();
        let (mut v, mut w, mut z) = (vec![CZERO; n], vec![CZERO; m], vec![CZERO; n]);
        poisoned.adjoint_then_apply_into(&rand_vec(m, 93), 0.0, &mut v, &mut w, &mut z);
        assert!(nan(&v) > 0 && nan(&w) > 0, "the NaN reaches both outputs");
    }

    /// A ragged 70×82 store at `nb` 24 built by hand, no compressor: per
    /// tile (column-major) a skeleton of the listed rank or, for `None`, a
    /// dense block. The ranks cover every residue mod 4 (the kernels'
    /// block width), `r = n − 1`, `r = n` (an empty `X`) and rank 0.
    fn golden_store() -> TlrMatrix {
        const RANKS: [Option<usize>; 12] = [
            Some(5),
            None,
            Some(0),
            Some(1),
            Some(6),
            Some(3),
            Some(4),
            Some(11),
            None,
            Some(2),
            Some(10),
            Some(9),
        ];
        let tiling = Tiling::new(70, 82, 24);
        let tiles = RANKS
            .iter()
            .enumerate()
            .map(|(t, rank)| {
                let (_, m) = tiling.row_range(t % tiling.tile_rows());
                let (_, n) = tiling.col_range(t / tiling.tile_rows());
                let entry = |salt: usize| move |i: usize, j: usize| golden(i * 31 + j, salt);
                match *rank {
                    None => Tile::Dense(Matrix::from_fn(m, n, entry(3 * t))),
                    Some(r) => {
                        let order: Vec<usize> = (0..n).map(|k| (k * 7 + 3) % n).collect();
                        Tile::LowRank(Skeleton::new(
                            &Matrix::from_fn(m, r, entry(3 * t + 1)),
                            &Matrix::from_fn(n - r, r, entry(3 * t + 2)),
                            &order,
                        ))
                    }
                }
            })
            .collect();
        TlrMatrix::new(tiling, tiles, cfg(24, 1e-4))
    }

    const SWEEP_GOLDEN_BITS: [u64; 4] = [
        0x119e_e264_c612_85c4,
        0xb8bc_71d7_d93d_2666,
        0x5013_ff49_b582_2d7b,
        0x8d60_cca1_25d4_ba86,
    ];

    /// The tile-fused sweep's output bits on [`golden_store`] — the
    /// skeleton block kernels (`dotc_cols`, `axpy_cols`), the gather and
    /// scatter and the dense tiles' kernels, forward, adjoint and fused at
    /// `β` 0 and 0.7 — hashed: a change of blocking, lane width that
    /// reorders a sum, or summation order fails here. The same constants
    /// hold in debug and release builds, at SSE2 and at `x86-64-v3` width:
    /// no product is contracted into an FMA.
    #[test]
    fn sweep_golden_bits() {
        let tlr = golden_store();
        let (m, n) = tlr.shape();
        let mut h = [0xcbf2_9ce4_8422_2325_u64; 4];
        let mut y = golden_vec(m, 5);
        tlr.apply_into(&golden_vec(n, 4), &mut y);
        h[0] = fnv1a(h[0], &y);
        let mut x = golden_vec(n, 6);
        tlr.apply_adjoint_into(&golden_vec(m, 7), &mut x);
        h[1] = fnv1a(h[1], &x);
        for (k, beta) in [(2, 0.0f32), (3, 0.7)] {
            let (mut v, mut w, mut z) = (golden_vec(n, 8), golden_vec(m, 9), golden_vec(n, 10));
            tlr.adjoint_then_apply_into(&golden_vec(m, 11), beta, &mut v, &mut w, &mut z);
            h[k] = [v, w, z].iter().fold(h[k], |h, out| fnv1a(h, out));
        }
        assert_eq!(h, SWEEP_GOLDEN_BITS, "{h:#018x?}");
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

    /// `r·(m+n−r)·8 + n` bytes per skeleton tile (nothing at rank 0),
    /// `m·n·8` per dense one; against the `U·Vᴴ` pair's `r·(m+n)·8` a
    /// skeleton is `8r² − n` bytes smaller.
    #[test]
    fn compressed_bytes_formula() {
        let a = kernel(40, 30);
        let tlr = compress(&a, cfg(10, 1e-3));
        let (_, mixed) = mixed_tiles();
        for tlr in [&tlr, &mixed] {
            let (mut stored, mut as_pairs) = (0, 0);
            for (_, _, t) in tlr.tiles_with_coords() {
                let ((m, n), r) = (t.shape(), t.rank());
                let (bytes, pair) = match t {
                    Tile::LowRank(_) if r == 0 => (0, 0),
                    Tile::LowRank(_) => (r * (m + n - r) * 8 + n, r * (m + n) * 8),
                    Tile::Dense(_) => (m * n * 8, m * n * 8),
                };
                assert_eq!(t.stored_bytes(), bytes);
                assert!(bytes <= pair, "{m}x{n} rank {r}");
                stored += bytes;
                as_pairs += pair;
            }
            assert_eq!(stored, tlr.compressed_bytes());
            assert!(stored < as_pairs);
        }
        assert_eq!(tlr.dense_bytes(), 40 * 30 * 8);
        assert!(mixed.dense_tiles() > 0 && mixed.compressed_bytes() < mixed.dense_bytes());
    }

    #[test]
    #[should_panic]
    fn wrong_input_length_panics() {
        let a = kernel(20, 15);
        let tlr = compress(&a, cfg(5, 1e-3));
        let _ = tlr.apply(&[C32::new(0.0, 0.0); 14]);
    }
}
