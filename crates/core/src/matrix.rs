//! The tile low-rank matrix: one stored form per tile — the skeleton form
//! `C·[I Xᴴ]·Πᵀ` of its low-rank approximant ([`Skeleton`]) or the dense
//! block, whichever [`crate::compress::compress_tile`] chose — on a
//! uniform tile grid, with application, adjoint application, and
//! storage accounting.
//!
//! The store keeps a tile column's dense tiles as runs: each maximal run
//! of consecutive dense tiles in a tile column is one column-major panel,
//! the run's rows × the tile width, so the kernels stream a run whole
//! instead of making one call per 8- or 16-row tile. [`TlrMatrix::tile`]
//! reads a tile back as a borrowed [`TileRef`]: its skeleton, or its rows
//! of its run ([`DenseView`]).
//!
//! [`TlrMatrix::apply_into`] / [`TlrMatrix::apply_adjoint_into`] are the
//! operator the MDD solve and the engine's sweep run on: the tile-fused
//! product on the [`crate::fastpath`] kernels, over the tiles as stored —
//! no second, stacked copy of the bases — and
//! [`TlrMatrix::adjoint_then_apply_into`] is the two of them in one pass
//! over the store, which is what an LSQR iteration costs. All three walk
//! the tile columns in storage order on one thread. The slow,
//! obviously-right form of the same product is [`TileRef::apply_acc`] over
//! `seismic_la::blas`; the tests below and `core::accuracy`'s probe use it
//! as the oracle.

use std::ops::Range;
use std::sync::Arc;

use seismic_la::blas::{axpy, dotc, gemv_conj_transpose_stacked};
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::compress::CompressionConfig;
use crate::fastpath::{axpy_blocks, gemv_acc_fast, swap_re_im};
use crate::ops::subtract_scaled;
use crate::skeleton::Skeleton;
use crate::tiling::Tiling;

const CZERO: C32 = C32::new(0.0, 0.0);

/// A dense tile as the store holds it: `m` rows of a column-major run
/// panel whose columns are `ld` long, `data` starting at the tile's
/// first entry.
#[derive(Clone, Copy, Debug)]
pub struct DenseView<'a> {
    data: &'a [C32],
    ld: usize,
    m: usize,
    n: usize,
}

impl<'a> DenseView<'a> {
    /// `(m, n)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Column `c` of the tile (`m` entries).
    #[inline]
    pub fn col(&self, c: usize) -> &'a [C32] {
        let start = c * self.ld;
        &self.data[start..start + self.m]
    }

    /// A copy of the tile.
    pub fn to_matrix(&self) -> Matrix<C32> {
        Matrix::from_fn(self.m, self.n, |i, j| self.col(j)[i])
    }
}

/// Tile `(i, j)` of a [`TlrMatrix`] as stored, borrowed: its skeleton, or
/// its rows of the dense run it belongs to. Copying one copies a
/// reference.
///
/// Either form stands for a factor pair without storing it — a skeleton
/// for `(C, W)` with `W = Π·[I; X]`, a dense tile for `(A, I)`, the
/// `r = n` case in which `X` is empty — so every rank-derived number
/// (stack widths, the §6.6 cost model, the wafer workload) is what that
/// factorisation gives, while [`TileRef::stored_bytes`] counts what is
/// actually held.
///
/// The stacked layouts read a tile's rank columns in its stored form
/// through `TileRef::gather` and `TileRef::coefficients` (the V phase),
/// `TileRef::expand_acc` (the U phase) and `TileRef::apply_cols_acc`
/// (both).
#[derive(Clone, Copy, Debug)]
pub enum TileRef<'a> {
    /// A skeleton tile.
    LowRank(&'a Skeleton),
    /// A dense tile.
    Dense(DenseView<'a>),
}

impl<'a> TileRef<'a> {
    /// Rank `r` of the skeleton; the column count of a dense tile.
    #[inline]
    pub fn rank(&self) -> usize {
        match self {
            TileRef::LowRank(s) => s.rank(),
            TileRef::Dense(a) => a.n,
        }
    }

    /// `(m, n)` of the block this tile stands for.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        match self {
            TileRef::LowRank(s) => s.shape(),
            TileRef::Dense(a) => a.shape(),
        }
    }

    /// Number of stored scalars: `r·(m+n−r)`, or `m·n` for a dense tile.
    #[inline]
    pub fn stored_elements(&self) -> usize {
        match self {
            TileRef::LowRank(s) => s.stored_elements(),
            TileRef::Dense(a) => a.m * a.n,
        }
    }

    /// Stored bytes: 8 per scalar (complex FP32), plus the column order of
    /// a skeleton — one byte per tile column up to 256 of them.
    #[inline]
    pub fn stored_bytes(&self) -> usize {
        let index = match self {
            TileRef::LowRank(s) => s.index_bytes(),
            TileRef::Dense(_) => 0,
        };
        self.stored_elements() * std::mem::size_of::<C32>() + index
    }

    /// Whether `self` and `other` read the same stored words: true for a
    /// tile and the same tile of a clone of its matrix.
    pub fn ptr_eq(&self, other: &TileRef<'_>) -> bool {
        match (self, other) {
            (TileRef::LowRank(a), TileRef::LowRank(b)) => std::ptr::eq(*a, *b),
            (TileRef::Dense(a), TileRef::Dense(b)) => std::ptr::eq(a.data, b.data) && a.m == b.m,
            _ => false,
        }
    }

    /// Densify.
    pub fn to_dense(&self) -> Matrix<C32> {
        match self {
            TileRef::LowRank(s) => s.factors().to_dense(),
            TileRef::Dense(a) => a.to_matrix(),
        }
    }

    /// `y += T x` on the reference kernels (`seismic_la::blas`): a
    /// skeleton through the `(C, W)` pair it stands for, a dense tile one
    /// `axpy` per column.
    pub fn apply_acc(&self, x: &[C32], y: &mut [C32]) {
        match self {
            TileRef::LowRank(s) => s.factors().apply_acc(x, y),
            TileRef::Dense(a) => {
                assert_eq!((y.len(), x.len()), a.shape(), "apply_acc: shape mismatch");
                for (c, &xc) in x.iter().enumerate() {
                    axpy(xc, a.col(c), y);
                }
            }
        }
    }

    /// `y += Tᴴ x` on the reference kernels: a dense tile one `dotc` per
    /// column.
    pub fn apply_adjoint_acc(&self, x: &[C32], y: &mut [C32]) {
        match self {
            TileRef::LowRank(s) => s.factors().apply_adjoint_acc(x, y),
            TileRef::Dense(a) => {
                assert_eq!(
                    (x.len(), y.len()),
                    a.shape(),
                    "apply_adjoint_acc: shape mismatch"
                );
                for (c, yc) in y.iter_mut().enumerate() {
                    *yc += dotc(a.col(c), x);
                }
            }
        }
    }

    /// What the V phase reads of `x_j`: a skeleton's column order of it,
    /// gathered into `scratch` (at least `2n` entries, as
    /// [`Skeleton::apply_acc_fast`] takes it); a dense tile reads `x_j` as
    /// it is and gathers nothing.
    pub(crate) fn gather(&self, x: &[C32], scratch: &mut [C32]) {
        if let TileRef::LowRank(s) = self {
            s.gather(x, scratch);
        }
    }

    /// The V phase of the stacked layouts: `t[r]` is the coefficient rank
    /// column `r` multiplies — of a skeleton `(x_J + Xᴴ x̃)[r]` on the dot
    /// lanes, from what [`TileRef::gather`] left in `gathered`; of a dense
    /// tile `x[r]` itself, its right factor being the identity.
    pub(crate) fn coefficients(&self, x: &[C32], gathered: &[C32], t: &mut [C32]) {
        match self {
            TileRef::LowRank(s) => s.coefficients(gathered, t),
            TileRef::Dense(_) => t.copy_from_slice(x),
        }
    }

    /// Both phases over the rank columns `cols`, four at a time:
    /// `y += U[:, cols]·t` with `t` the [`TileRef::coefficients`] of those
    /// columns, kept in registers.
    pub(crate) fn apply_cols_acc(
        &self,
        cols: Range<usize>,
        x: &[C32],
        gathered: &[C32],
        y: &mut [C32],
    ) {
        match self {
            TileRef::LowRank(s) => s.forward_acc(cols, gathered, y),
            TileRef::Dense(a) => axpy_blocks(|c| a.col(c), cols.clone(), &x[cols], y),
        }
    }

    /// The U phase: `y += U·t`, `U` being `C` or the dense block, in the
    /// order [`gemv_acc_fast`] adds in.
    pub(crate) fn expand_acc(&self, t: &[C32], y: &mut [C32]) {
        match self {
            TileRef::LowRank(s) => axpy_blocks(|c| s.c_col(c), 0..t.len(), t, y),
            TileRef::Dense(a) => axpy_blocks(|c| a.col(c), 0..t.len(), t, y),
        }
    }
}

/// A maximal run of consecutive dense tiles of one tile column.
struct Run {
    /// The matrix rows it covers.
    rows: Range<usize>,
    /// The tiles one above the other: `rows.len()` × the tile width,
    /// column-major.
    panel: Matrix<C32>,
}

/// One tile column as stored.
struct Column {
    /// Its dense runs, top to bottom.
    runs: Vec<Run>,
    /// Its skeletons, top to bottom, each with the matrix rows it covers.
    skeletons: Vec<(Range<usize>, Skeleton)>,
}

/// Where a tile is stored in its [`Column`].
#[derive(Clone, Copy)]
enum Slot {
    /// In run `k`.
    Run(usize),
    /// Skeleton `k`.
    Skeleton(usize),
}

/// What every clone of a [`TlrMatrix`] shares.
struct Store {
    columns: Vec<Column>,
    /// Per tile, tile-column-major (`idx = j·mt + i`).
    slots: Vec<Slot>,
}

/// TLR representation of an `m × n` complex matrix.
///
/// Stored tile column by tile column (the V-stack construction order):
/// per tile column its dense runs and its skeletons. The store never
/// changes after [`TlrMatrix::new`] and is held behind an `Arc`, so a
/// clone shares it: it costs a reference count, not a copy of the
/// operator.
#[derive(Clone)]
pub struct TlrMatrix {
    tiling: Tiling,
    store: Arc<Store>,
    config: CompressionConfig,
    /// Largest tile rank.
    max_rank: usize,
}

impl TlrMatrix {
    /// Build the store of the operator whose blocks `block` returns
    /// (normally called by [`crate::compress::compress_blocks`], with the
    /// source it compressed). `skeletons` holds one entry per tile,
    /// tile-column-major: the tile's skeleton, or `None` for a tile
    /// stored dense. `block(r0, c0, m, n)` is the operator's `m × n`
    /// block at rows `r0..r0+m` and columns `c0..c0+n`; it is asked once
    /// per maximal run of consecutive dense tiles in a tile column, for
    /// the run's whole rectangle, and that matrix is the run's panel.
    ///
    /// # Panics
    ///
    /// If `skeletons` does not hold one entry per tile, a skeleton's shape
    /// is not its tile's, or a block is not the shape asked for.
    pub fn new(
        tiling: Tiling,
        config: CompressionConfig,
        skeletons: Vec<Option<Skeleton>>,
        block: impl Fn(usize, usize, usize, usize) -> Matrix<C32>,
    ) -> Self {
        assert_eq!(skeletons.len(), tiling.tile_count());
        let mut skeletons = skeletons.into_iter();
        let mut slots = Vec::with_capacity(tiling.tile_count());
        let mut max_rank = 0;
        let columns = (0..tiling.tile_cols())
            .map(|j| {
                let (c0, cl) = tiling.col_range(j);
                let mut runs: Vec<Range<usize>> = Vec::new();
                let mut column = Vec::new();
                for (i, s) in skeletons.by_ref().take(tiling.tile_rows()).enumerate() {
                    let (r0, rl) = tiling.row_range(i);
                    match s {
                        Some(s) => {
                            assert_eq!(s.shape(), (rl, cl), "tile ({i},{j}) shape mismatch");
                            max_rank = max_rank.max(s.rank());
                            slots.push(Slot::Skeleton(column.len()));
                            column.push((r0..r0 + rl, s));
                        }
                        None => {
                            max_rank = max_rank.max(cl);
                            match runs.last_mut() {
                                Some(run) if run.end == r0 => run.end = r0 + rl,
                                _ => runs.push(r0..r0 + rl),
                            }
                            slots.push(Slot::Run(runs.len() - 1));
                        }
                    }
                }
                let runs = runs
                    .into_iter()
                    .map(|rows| {
                        let panel = block(rows.start, c0, rows.len(), cl);
                        assert_eq!(panel.shape(), (rows.len(), cl), "dense run shape mismatch");
                        Run { rows, panel }
                    })
                    .collect();
                Column {
                    runs,
                    skeletons: column,
                }
            })
            .collect();
        Self {
            tiling,
            store: Arc::new(Store { columns, slots }),
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

    /// Tile `(i, j)` as stored.
    pub fn tile(&self, i: usize, j: usize) -> TileRef<'_> {
        let column = &self.store.columns[j];
        match self.store.slots[self.tiling.tile_index(i, j)] {
            Slot::Skeleton(k) => TileRef::LowRank(&column.skeletons[k].1),
            Slot::Run(k) => {
                let run = &column.runs[k];
                let (r0, m) = self.tiling.row_range(i);
                TileRef::Dense(DenseView {
                    data: &run.panel.as_slice()[r0 - run.rows.start..],
                    ld: run.rows.len(),
                    m,
                    n: run.panel.ncols(),
                })
            }
        }
    }

    /// Rank of tile `(i, j)`.
    pub fn rank(&self, i: usize, j: usize) -> usize {
        self.tile(i, j).rank()
    }

    /// Sum of all tile ranks.
    pub fn total_rank(&self) -> usize {
        self.tiles_with_coords().map(|(_, _, t)| t.rank()).sum()
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
        let skeletons: usize = self.store.columns.iter().map(|c| c.skeletons.len()).sum();
        self.tiling.tile_count() - skeletons
    }

    /// Stored bytes of all tiles ([`TileRef::stored_bytes`]): skeleton or
    /// dense block at 8 B per complex-FP32 entry, plus the skeletons'
    /// column orders.
    pub fn compressed_bytes(&self) -> usize {
        self.tiles_with_coords()
            .map(|(_, _, t)| t.stored_bytes())
            .sum()
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
        for (i, j, tile) in self.tiles_with_coords() {
            let (r0, _) = self.tiling.row_range(i);
            let (c0, _) = self.tiling.col_range(j);
            out.set_block(r0, c0, &tile.to_dense());
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
    /// [`crate::fastpath`] kernels, tile column by tile column in storage
    /// order (`column_forward`): per dense run `y_run += A_run x_j` over the
    /// run's full height, per skeleton tile `t = x_J + Xᴴ x̃` on the tile's
    /// own ordering of `x_j`, then `y_i += C t`. No rank-length
    /// intermediate is stored and nothing is shuffled between tiles. Each
    /// output element sums its tiles over `j` ascending. Serial, like the
    /// other two products; the one scratch allocation holds `2·nb` entries
    /// (`x_j` in a skeleton's order, and the swapped copy of its `x̃` part).
    pub fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        assert_eq!(x.len(), self.tiling.n, "input length mismatch");
        assert_eq!(y.len(), self.tiling.m, "output length mismatch");
        let mut scratch = vec![CZERO; 2 * self.tiling.nb];
        y.fill(CZERO);
        for j in 0..self.tiling.tile_cols() {
            let (c0, cl) = self.tiling.col_range(j);
            self.column_forward(j, &x[c0..c0 + cl], &mut scratch, y);
        }
    }

    /// `x = Ãᴴ y`: [`TlrMatrix::apply_adjoint_into`] on a fresh vector.
    /// This is the adjoint LSQR needs.
    pub fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        let mut x = vec![CZERO; self.tiling.n];
        self.apply_adjoint_into(y, &mut x);
        x
    }

    /// `x = Ãᴴ y` into a caller-owned buffer: `column_adjoint` into each
    /// `x_j`, tile column by tile column, serial. The one scratch
    /// allocation holds the swapped copy of `y` every conjugated dot reads
    /// — made once here, not once per tile — and the skeletons' `nb`.
    pub fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        assert_eq!(y.len(), self.tiling.m, "input length mismatch");
        assert_eq!(x.len(), self.tiling.n, "output length mismatch");
        let mut scratch = vec![CZERO; y.len() + self.tiling.nb];
        let (ys, scratch) = scratch.split_at_mut(y.len());
        swap_re_im(y, ys);
        for j in 0..self.tiling.tile_cols() {
            let (c0, cl) = self.tiling.col_range(j);
            self.column_adjoint(j, y, ys, scratch, &mut x[c0..c0 + cl]);
        }
    }

    /// `y += A_{:j} x_j` for tile column `j`: each dense run on
    /// [`gemv_acc_fast`] over its full height, then each skeleton.
    /// `scratch` holds at least `2·nb` entries.
    fn column_forward(&self, j: usize, xj: &[C32], scratch: &mut [C32], y: &mut [C32]) {
        let column = &self.store.columns[j];
        for run in &column.runs {
            gemv_acc_fast(&run.panel, xj, &mut y[run.rows.clone()]);
        }
        for (rows, s) in &column.skeletons {
            s.apply_acc_fast(xj, scratch, &mut y[rows.clone()]);
        }
    }

    /// `z_j = Σ_i A_ijᴴ u_i` for tile column `j` (overwrite), the adjoint
    /// all three products share. First the column's dense runs as the
    /// blocks of one stack: each run's rows against its own part of `u` on
    /// one set of dot lanes, folded once per four columns
    /// (`seismic_la::blas::gemv_conj_transpose_stacked`). Then each
    /// skeleton in row order: `s = Cᴴ u_i`, `x̃ += X s`, `[s; x̃]`
    /// scattered onto `z_j`. `us` is `swap_re_im(u)`; `scratch` holds at
    /// least `nb` entries.
    fn column_adjoint(&self, j: usize, u: &[C32], us: &[C32], scratch: &mut [C32], zj: &mut [C32]) {
        let column = &self.store.columns[j];
        let runs = column.runs.iter().map(|run| {
            let rows = run.rows.clone();
            (&run.panel, &u[rows.clone()], &us[rows])
        });
        gemv_conj_transpose_stacked(runs, zj);
        for (rows, s) in &column.skeletons {
            s.apply_adjoint_acc_fast(&u[rows.clone()], &us[rows.clone()], scratch, zj);
        }
    }

    /// `v ← Ãᴴu − βv`, then `w ← Ãv`, in one sweep over the store in
    /// storage order: per tile column `j`, `column_adjoint` into `z_j`, the
    /// update of `v_j` — final the moment the column is done — and
    /// `column_forward` of `v_j` into `w`, over the tiles the adjoint just
    /// pulled into cache. The distance between a tile's two uses is one
    /// tile column of the store, where [`Self::apply_adjoint_into`]
    /// followed by [`Self::apply_into`] reads the whole store twice.
    ///
    /// Those two calls' kernels, scratch shapes and accumulation order per
    /// output element, hence their bits. Serial: the parallelism is across
    /// the matrices of a frequency stack, one sweep each (a lone matrix
    /// keeps one thread busy). `z` is `n` long and ends up holding `Ãᴴu`;
    /// the one scratch allocation is the swapped copy of `u`, the adjoint
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
        let (adjoint_scratch, forward_scratch) = scratch.split_at_mut(nb);
        w.fill(CZERO);
        for j in 0..self.tiling.tile_cols() {
            let (c0, cl) = self.tiling.col_range(j);
            let (zj, vj) = (&mut z[c0..c0 + cl], &mut v[c0..c0 + cl]);
            self.column_adjoint(j, u, us, adjoint_scratch, zj);
            subtract_scaled(zj, beta, vj);
            self.column_forward(j, vj, forward_scratch, w);
        }
    }

    /// Iterate tiles with their grid coordinates, tile-column-major.
    pub fn tiles_with_coords(&self) -> impl Iterator<Item = (usize, usize, TileRef<'_>)> {
        let mt = self.tiling.tile_rows();
        (0..self.tiling.tile_count()).map(move |idx| {
            let (i, j) = (idx % mt, idx / mt);
            (i, j, self.tile(i, j))
        })
    }

    /// Histogram of tile ranks (index = rank, value = tile count).
    pub fn rank_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_rank() + 1];
        for (_, _, t) in self.tiles_with_coords() {
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
        let skeletons = tlr
            .tiles_with_coords()
            .map(|(_, _, t)| match t {
                TileRef::Dense(a) => {
                    let n = a.shape().1;
                    let order: Vec<usize> = (0..n).collect();
                    let zeros = Matrix::zeros(0, n);
                    Some(Skeleton::new(&a.to_matrix(), &zeros, &order))
                }
                TileRef::LowRank(s) => Some(s.clone()),
            })
            .collect();
        TlrMatrix::new(tlr.tiling, tlr.config, skeletons, |_, _, _, _| {
            unreachable!("no tile is dense")
        })
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
            TileRef::Dense(_) => 'd',
            TileRef::LowRank(s) if s.rank() == 0 => '0',
            TileRef::LowRank(_) => 'l',
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
    use seismic_la::scalar::{c32, C64};

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
    /// [`TileRef::apply_acc`] — a skeleton as the `(C, W)` pair it stands for
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
    /// computed, forward: the identity product only ever added exact
    /// zeros, so the two stores agree under `==` (which takes `+0` and `-0`
    /// as equal), on every hostile grid and on a matrix mixing dense,
    /// low-rank and rank-0 tiles in one tile row and one tile column. The
    /// adjoint sums a tile column's dense tiles on one set of dot lanes,
    /// which the factor pairs do not, so there both stores are held to the
    /// reconstruction in `f64` within `4ε₃₂·‖A‖_F·‖y‖`.
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
            let (want, bound) = adjoint_f64(&hybrid, &y);
            for (store, tlr) in [("dense tiles", &hybrid), ("factor pairs", &factors)] {
                let err = dist_f64(&tlr.apply_adjoint(&y), &want);
                assert!(err <= bound, "{name}, {store}: adjoint {err} > {bound}");
            }
        }
        assert!(dense_seen > 0);
    }

    /// `Ãᴴy` of the reconstruction in `f64`, and the bound a product of
    /// the stored words in `f32` keeps to, `4ε₃₂·‖A‖_F·‖y‖`.
    fn adjoint_f64(tlr: &TlrMatrix, y: &[C32]) -> (Vec<C64>, f64) {
        let a = tlr.reconstruct();
        let a = Matrix::from_fn(a.nrows(), a.ncols(), |i, j| a[(i, j)].widen());
        let y: Vec<C64> = y.iter().map(|v| v.widen()).collect();
        let mut want = vec![C64::new(0.0, 0.0); a.ncols()];
        gemv_conj_transpose(&a, &y, &mut want);
        let norm = |v: &[C64]| v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let bound = 4.0 * f64::from(f32::EPSILON) * norm(a.as_slice()) * norm(&y);
        (want, bound)
    }

    fn dist_f64(got: &[C32], want: &[C64]) -> f64 {
        assert_eq!(got.len(), want.len());
        got.iter()
            .zip(want)
            .map(|(g, w)| (g.widen() - *w).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// A store built by hand ([`hand_built_store`]) at `nb` 10 whose tile
    /// columns are all skeleton (0), all dense (1), and mixed dense,
    /// skeleton and rank 0 (2, and 3, seven wide: a block of four and a
    /// tail of three); the last tile row is `last` rows high. The
    /// skeletons' ranks cover every residue mod 4.
    fn column_mix_store(last: usize) -> TlrMatrix {
        const RANKS: [Option<usize>; 16] = [
            Some(3),
            Some(5),
            Some(2),
            Some(1),
            None,
            None,
            None,
            None,
            None,
            Some(4),
            Some(0),
            None,
            Some(0),
            None,
            Some(6),
            None,
        ];
        hand_built_store(Tiling::new(30 + last, 37, 10), &RANKS, 3)
    }

    const COLUMN_ADJOINT_BITS: u64 = 0xe6c6_9a87_4344_a939;

    /// The per-column adjoint — a tile column's dense runs on one set of
    /// dot lanes, then its skeletons — against every tile through
    /// [`TileRef::apply_adjoint_acc`], within `4ε₃₂·‖A‖_F·‖y‖`, with a last
    /// tile row of one, two and three rows; its output bits on those
    /// stores hashed (two to four dense tiles per column, so the order
    /// they are stacked in is pinned, as `sweep_golden_bits`' one per
    /// column cannot; the same constant in debug and release builds —
    /// recaptured when the dense tiles became runs, because the dot lanes
    /// no longer restart at each 10-row tile); and
    /// a NaN in one dense tile reaches the column of `x` its entry sits in
    /// and no other, in a block of four, a single column and a tail of
    /// three run as four.
    #[test]
    fn column_adjoint_stacks_the_dense_tiles_of_a_tile_column() {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for last in 1..=3 {
            let tlr = column_mix_store(last);
            let dense = [0, 1, 2, 3].map(|j| {
                (0..4)
                    .filter(|&i| matches!(tlr.tile(i, j), TileRef::Dense(_)))
                    .count()
            });
            assert_eq!(dense, [0, 4, 2, 2], "dense tiles per tile column");
            assert_eq!(tlr.tile(2, 2).rank() + tlr.tile(0, 3).rank(), 0);
            let y = rand_vec(tlr.shape().0, 99);
            let got = tlr.apply_adjoint(&y);
            let (_, bound) = adjoint_f64(&tlr, &y);
            let d = f64::from(dist(&got, &reference_apply_adjoint(&tlr, &y)));
            assert!(d <= bound, "last tile row {last}: {d} > {bound}");
            h = fnv1a(h, &tlr.apply_adjoint(&golden_vec(tlr.shape().0, 7)));

            for (i, j, row, col) in [(1, 1, 4, 1), (3, 1, 0, 9), (0, 2, 7, 3), (3, 3, 2, 6)] {
                assert!(matches!(tlr.tile(i, j), TileRef::Dense(_)));
                let ((r0, rl), (c0, _)) = (tlr.tiling.row_range(i), tlr.tiling.col_range(j));
                let bad = rebuilt(&tlr, |a| {
                    a[(r0 + row.min(rl - 1), c0 + col)] = C32::new(1.0, f32::NAN)
                });
                for (k, v) in bad.apply_adjoint(&y).iter().enumerate() {
                    assert_eq!(
                        v.is_finite(),
                        k != c0 + col,
                        "NaN in tile ({i},{j}) column {col}: x[{k}] = {v}"
                    );
                }
            }
        }
        assert_eq!(h, COLUMN_ADJOINT_BITS, "{h:#018x}");
    }

    /// Tile columns holding dense runs of one tile, of two and of the
    /// whole column, between skeletons and rank-0 tiles, at `nb` with a
    /// last tile row `last` rows high: five tile rows, and five tile
    /// columns, the last seven wide. Returns the parts it was built from
    /// ([`hand_built_parts`]) beside the store.
    fn run_store(nb: usize, last: usize) -> (Vec<Option<Skeleton>>, Matrix<C32>, TlrMatrix) {
        const D: Option<usize> = None;
        #[rustfmt::skip]
        const RANKS: [Option<usize>; 25] = [
            D, Some(3), D, D, Some(0),
            D, D, D, D, D,
            Some(0), D, Some(2), D, D,
            Some(5), Some(1), D, Some(0), D,
            D, D, Some(0), Some(4), D,
        ];
        let tiling = Tiling::new(4 * nb + last, 4 * nb + 7, nb);
        let (skeletons, a) = hand_built_parts(tiling, &RANKS, 11);
        let tlr = TlrMatrix::new(tiling, cfg(nb, 1e-4), skeletons.clone(), |r0, c0, m, n| {
            a.block(r0, c0, m, n)
        });
        (skeletons, a, tlr)
    }

    /// `tlr` built again by [`TlrMatrix::new`] from copies of its
    /// skeletons and from its reconstruction — whose dense tiles are the
    /// stored blocks — after `edit`.
    fn rebuilt(tlr: &TlrMatrix, edit: impl FnOnce(&mut Matrix<C32>)) -> TlrMatrix {
        let skeletons = tlr
            .tiles_with_coords()
            .map(|(_, _, t)| match t {
                TileRef::LowRank(s) => Some(s.clone()),
                TileRef::Dense(_) => None,
            })
            .collect();
        let mut a = tlr.reconstruct();
        edit(&mut a);
        TlrMatrix::new(tlr.tiling, tlr.config, skeletons, |r0, c0, m, n| {
            a.block(r0, c0, m, n)
        })
    }

    /// `y = Ãx` tile by tile, on the kernels the store ran before dense
    /// runs: each dense tile a block of its own.
    fn per_tile_apply(tlr: &TlrMatrix, x: &[C32]) -> Vec<C32> {
        let t = tlr.tiling();
        let (mut y, mut scratch) = (vec![CZERO; t.m], vec![CZERO; 2 * t.nb]);
        for (i, j, tile) in tlr.tiles_with_coords() {
            let ((r0, rl), (c0, cl)) = (t.row_range(i), t.col_range(j));
            let (xj, yi) = (&x[c0..c0 + cl], &mut y[r0..r0 + rl]);
            match tile {
                TileRef::LowRank(s) => s.apply_acc_fast(xj, &mut scratch, yi),
                TileRef::Dense(a) => gemv_acc_fast(&a.to_matrix(), xj, yi),
            }
        }
        y
    }

    /// `x = Ãᴴy` tile by tile: per tile column its dense tiles, each a
    /// block of its own, on one set of dot lanes, then its skeletons.
    fn per_tile_adjoint(tlr: &TlrMatrix, y: &[C32]) -> Vec<C32> {
        let t = tlr.tiling();
        let (mut x, mut scratch) = (vec![CZERO; t.n], vec![CZERO; t.nb]);
        let mut ys = vec![CZERO; t.m];
        swap_re_im(y, &mut ys);
        for j in 0..t.tile_cols() {
            let (c0, cl) = t.col_range(j);
            let rows = |i: usize| {
                let (r0, rl) = t.row_range(i);
                r0..r0 + rl
            };
            let dense: Vec<(Matrix<C32>, Range<usize>)> = (0..t.tile_rows())
                .filter_map(|i| match tlr.tile(i, j) {
                    TileRef::Dense(a) => Some((a.to_matrix(), rows(i))),
                    TileRef::LowRank(_) => None,
                })
                .collect();
            let blocks = dense
                .iter()
                .map(|(a, r)| (a, &y[r.clone()], &ys[r.clone()]));
            let xj = &mut x[c0..c0 + cl];
            gemv_conj_transpose_stacked(blocks, xj);
            for i in 0..t.tile_rows() {
                if let TileRef::LowRank(s) = tlr.tile(i, j) {
                    s.apply_adjoint_acc_fast(&y[rows(i)], &ys[rows(i)], &mut scratch, xj);
                }
            }
        }
        x
    }

    /// `4ε₃₂·‖A‖_F·‖v‖` of the reconstruction, in `f64`.
    fn rounding_bound(tlr: &TlrMatrix, v: &[C32]) -> f64 {
        let norm = |v: &[C32]| {
            v.iter()
                .map(|z| f64::from(z.norm_sqr()))
                .sum::<f64>()
                .sqrt()
        };
        4.0 * f64::from(f32::EPSILON) * norm(tlr.reconstruct().as_slice()) * norm(v)
    }

    fn bits(v: &[C32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// On [`run_store`] at `nb` 8, 10 and 12 with a last tile row of one
    /// to four rows: the runs are the maximal ones; every run's panel is
    /// the `block` of its rows, bit for bit; every `tile(i, j)` view is the
    /// skeleton or the block it was built from; the three products hold
    /// the per-tile reference ([`TileRef::apply_acc`] /
    /// [`TileRef::apply_adjoint_acc`]) within `4ε₃₂·‖A‖_F·‖x‖`, and equal a
    /// per-tile walk on the fast kernels bit for bit wherever every tile
    /// row but the last is a multiple of four rows high (the dot lanes
    /// restart at the same rows); the forward product equals it at every
    /// `nb`.
    #[test]
    fn dense_runs_are_the_tiles_they_stack() {
        for nb in [8, 10, 12] {
            for last in 1..=4 {
                let at = format!("nb {nb}, last tile row {last}");
                let (skeletons, a, tlr) = run_store(nb, last);
                let t = *tlr.tiling();
                let runs: Vec<Vec<(usize, usize)>> = tlr
                    .store
                    .columns
                    .iter()
                    .map(|c| c.runs.iter().map(|r| (r.rows.start, r.rows.end)).collect())
                    .collect();
                let m = t.m;
                let want = [
                    vec![(0, nb), (2 * nb, 4 * nb)],
                    vec![(0, m)],
                    vec![(nb, 2 * nb), (3 * nb, m)],
                    vec![(2 * nb, 3 * nb), (4 * nb, m)],
                    vec![(0, 2 * nb), (4 * nb, m)],
                ];
                assert_eq!(runs, want, "{at}: runs");
                assert_eq!(tlr.dense_tiles(), 16, "{at}");
                for (j, column) in tlr.store.columns.iter().enumerate() {
                    let (c0, cl) = t.col_range(j);
                    for run in &column.runs {
                        let block = a.block(run.rows.start, c0, run.rows.len(), cl);
                        let what = format!("{at}: run {:?} of tile column {j}", run.rows);
                        assert_eq!(bits(run.panel.as_slice()), bits(block.as_slice()), "{what}");
                    }
                }
                for (idx, skeleton) in skeletons.iter().enumerate() {
                    let (i, j) = (idx % t.tile_rows(), idx / t.tile_rows());
                    let ((r0, rl), (c0, cl)) = (t.row_range(i), t.col_range(j));
                    let view = tlr.tile(i, j);
                    let (want, bytes) = match skeleton {
                        Some(s) => (
                            s.factors().to_dense(),
                            s.stored_elements() * 8 + s.index_bytes(),
                        ),
                        None => (a.block(r0, c0, rl, cl), rl * cl * 8),
                    };
                    assert_eq!(
                        matches!(view, TileRef::Dense(_)),
                        skeleton.is_none(),
                        "{at}: ({i},{j})"
                    );
                    assert_eq!(view.shape(), (rl, cl), "{at}: ({i},{j})");
                    assert_eq!(view.stored_bytes(), bytes, "{at}: ({i},{j})");
                    let got = view.to_dense();
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "{at}: ({i},{j})"
                    );
                }

                let (m, n) = tlr.shape();
                let (x, y) = (rand_vec(n, 31), rand_vec(m, 32));
                let ax = tlr.apply(&x);
                let ahy = tlr.apply_adjoint(&y);
                let d = f64::from(dist(&ax, &reference_apply(&tlr, &x)));
                assert!(d <= rounding_bound(&tlr, &x), "{at}: apply {d}");
                let d = f64::from(dist(&ahy, &reference_apply_adjoint(&tlr, &y)));
                assert!(d <= rounding_bound(&tlr, &y), "{at}: adjoint {d}");

                let beta = 0.7;
                let (mut v, mut w, mut z) = (x.clone(), rand_vec(m, 33), rand_vec(n, 34));
                tlr.adjoint_then_apply_into(&y, beta, &mut v, &mut w, &mut z);
                let v_ref: Vec<C32> = reference_apply_adjoint(&tlr, &y)
                    .iter()
                    .zip(&x)
                    .map(|(z, x)| *z - x.scale(beta))
                    .collect();
                let d = f64::from(dist(&z, &reference_apply_adjoint(&tlr, &y)));
                assert!(d <= rounding_bound(&tlr, &y), "{at}: fused Ãᴴu {d}");
                let d = f64::from(dist(&w, &reference_apply(&tlr, &v_ref)));
                let bound = rounding_bound(&tlr, &v_ref) + rounding_bound(&tlr, &y);
                assert!(d <= 2.0 * bound, "{at}: fused Ãv {d}");

                assert_eq!(bits(&ax), bits(&per_tile_apply(&tlr, &x)), "{at}: apply");
                assert_eq!(bits(&w), bits(&per_tile_apply(&tlr, &v)), "{at}: fused Ãv");
                if nb % 4 == 0 {
                    let walk = per_tile_adjoint(&tlr, &y);
                    assert_eq!(bits(&ahy), bits(&walk), "{at}: adjoint");
                    assert_eq!(bits(&z), bits(&walk), "{at}: fused Ãᴴu");
                }
            }
        }
    }

    /// A NaN in one tile of a dense run — the top of a two-tile run, the
    /// middle of a whole tile column, the short last tile row — reaches
    /// the one column of `x` (adjoint) and the one row of `y` (forward)
    /// its entry sits in, and nothing else of the run.
    #[test]
    fn a_nan_in_a_run_stays_in_its_tile() {
        for nb in [8, 10] {
            let (skeletons, a, tlr) = run_store(nb, 3);
            let t = *tlr.tiling();
            let (m, n) = tlr.shape();
            let (x, y) = (rand_vec(n, 35), rand_vec(m, 36));
            for (i, j, row, col) in [(2, 0, 5, 1), (1, 1, 0, 7), (4, 2, 2, 3), (1, 4, 7, 6)] {
                assert!(
                    skeletons[t.tile_index(i, j)].is_none(),
                    "tile ({i},{j}) is dense"
                );
                let ((r0, _), (c0, _)) = (t.row_range(i), t.col_range(j));
                let mut a = a.clone();
                a[(r0 + row, c0 + col)] = C32::new(f32::NAN, 1.0);
                let bad = TlrMatrix::new(t, tlr.config, skeletons.clone(), |r0, c0, m, n| {
                    a.block(r0, c0, m, n)
                });
                for (k, v) in bad.apply_adjoint(&y).iter().enumerate() {
                    assert_eq!(
                        v.is_finite(),
                        k != c0 + col,
                        "nb {nb} ({i},{j}): x[{k}] = {v}"
                    );
                }
                for (k, v) in bad.apply(&x).iter().enumerate() {
                    assert_eq!(
                        v.is_finite(),
                        k != r0 + row,
                        "nb {nb} ({i},{j}): y[{k}] = {v}"
                    );
                }
            }
        }
    }

    /// A clone — what the layouts and the engine's cache hold — reads
    /// every run and skeleton of the matrix it was cloned from, and a
    /// matrix rebuilt from copies of the tiles reads none of them.
    #[test]
    fn a_clone_shares_every_run_and_skeleton() {
        let (_, _, tlr) = run_store(8, 2);
        let clone = tlr.clone();
        let rebuilt = rebuilt(&tlr, |_| {});
        for (i, j, tile) in tlr.tiles_with_coords() {
            assert!(clone.tile(i, j).ptr_eq(&tile), "({i},{j})");
            assert!(!rebuilt.tile(i, j).ptr_eq(&tile), "({i},{j})");
        }
        // A view reads its run from its first row to the panel's end.
        let same_run = |a: TileRef, b: TileRef| match (a, b) {
            (TileRef::Dense(a), TileRef::Dense(b)) => {
                a.data.as_ptr_range().end == b.data.as_ptr_range().end
            }
            _ => false,
        };
        assert!(same_run(tlr.tile(2, 0), tlr.tile(3, 0)));
        assert!(!same_run(tlr.tile(0, 0), tlr.tile(2, 0)));
        assert!(!tlr.tile(2, 0).ptr_eq(&tlr.tile(3, 0)));
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
        assert!(matches!(mixed.tile(0, 1), TileRef::Dense(_)));
        let (c0, _) = mixed.tiling.col_range(1);
        let poisoned = rebuilt(&mixed, |a| a[(3, c0 + 5)] = C32::new(f32::NAN, 1.0));
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

    /// A ragged 70×82 store at `nb` 24 built by hand
    /// ([`hand_built_store`]). The ranks cover every residue mod 4 (the
    /// kernels' block width), `r = n − 1`, `r = n` (an empty `X`) and
    /// rank 0.
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
        hand_built_store(Tiling::new(70, 82, 24), &RANKS, 7)
    }

    /// A store built by hand, no compressor, from [`hand_built_parts`].
    fn hand_built_store(tiling: Tiling, ranks: &[Option<usize>], step: usize) -> TlrMatrix {
        let (skeletons, a) = hand_built_parts(tiling, ranks, step);
        TlrMatrix::new(tiling, cfg(tiling.nb, 1e-4), skeletons, |r0, c0, m, n| {
            a.block(r0, c0, m, n)
        })
    }

    /// The parts of a store built by hand, as [`TlrMatrix::new`] takes
    /// them: per tile, column-major, a skeleton of the listed rank whose
    /// column order is `k ↦ (k·step + 3) mod n`, or `None` for a dense
    /// tile; and the matrix the dense tiles are blocks of (zero under the
    /// skeletons). The entries are [`golden`] values: tile `t`'s `(i, j)`
    /// entry of a dense block is `golden(i·31 + j, 3t)`. `step` must be
    /// prime to every tile width.
    fn hand_built_parts(
        tiling: Tiling,
        ranks: &[Option<usize>],
        step: usize,
    ) -> (Vec<Option<Skeleton>>, Matrix<C32>) {
        let entry = |salt: usize| move |i: usize, j: usize| golden(i * 31 + j, salt);
        let skeletons = ranks
            .iter()
            .enumerate()
            .map(|(t, rank)| {
                let (_, m) = tiling.row_range(t % tiling.tile_rows());
                let (_, n) = tiling.col_range(t / tiling.tile_rows());
                let order: Vec<usize> = (0..n).map(|k| (k * step + 3) % n).collect();
                rank.map(|r| {
                    Skeleton::new(
                        &Matrix::from_fn(m, r, entry(3 * t + 1)),
                        &Matrix::from_fn(n - r, r, entry(3 * t + 2)),
                        &order,
                    )
                })
            })
            .collect();
        let nb = tiling.nb;
        let a = Matrix::from_fn(tiling.m, tiling.n, |i, j| {
            let t = tiling.tile_index(i / nb, j / nb);
            match ranks[t] {
                None => entry(3 * t)(i % nb, j % nb),
                Some(_) => CZERO,
            }
        });
        (skeletons, a)
    }

    const SWEEP_GOLDEN_BITS: [u64; 4] = [
        0x119e_e264_c612_85c4,
        0x1bec_0c79_ec66_9cbd,
        0x4362_73ab_e3cc_c569,
        0xf2a9_c0b5_5f96_82fc,
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
                    TileRef::LowRank(_) if r == 0 => (0, 0),
                    TileRef::LowRank(_) => (r * (m + n - r) * 8 + n, r * (m + n) * 8),
                    TileRef::Dense(_) => (m * n * 8, m * n * 8),
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
