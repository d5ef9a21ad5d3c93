//! Stacked-bases execution layouts for TLR-MVM.
//!
//! * [`ThreePhase`] — the classic x86/ARM/GPU pipeline (paper Figs. 4–7):
//!   V-batch → memory shuffle → U-batch.
//! * [`CommAvoiding`] — the paper's new CS-2 layout (Fig. 9): the U bases
//!   of each *tile column* are stored side-by-side so phases 1 and 3 fuse
//!   per column; the cross-fabric shuffle disappears, at the price of one
//!   partial `y` vector per tile column reduced on the host.
//!
//! Both are views of a [`TlrMatrix`]: each holds a clone of it (its tiles
//! are shared, not copied) and the index tables of its stacking — rank
//! offsets per tile column and row, and the shuffle map — and reads every
//! tile in its stored form through [`TlrMatrix::tile`] — a skeleton, or a
//! dense tile's rows of its run panel, read in place. The V phase of a
//! skeleton tile is `x_J + Xᴴx̃`, of a dense tile `x_j` itself; the U
//! phase is `C·t`, or the dense block times `x_j`. They serve the paper's
//! three-phase / communication-avoiding tables and the WSE simulator's
//! per-PE chunks, forward only, one kernel per layout; the MDD solve and
//! the engine's sweep run [`TlrMatrix::apply_into`] and its adjoint,
//! which need neither the stacking nor the shuffle.
//!
//! A [`RankChunk`] is a view of contiguous rank columns of one tile column
//! ([`ColumnStack`]), free to start or end inside a tile's rank range;
//! [`ChunkRun`] executes a set of them as independent PEs with a host
//! reduction — the one communication-avoiding kernel:
//! [`CommAvoiding::apply`] runs it with one chunk per tile column,
//! [`CommAvoiding::apply_chunked`] at a stack width, and the WSE
//! simulator's functional execution on its placed chunks.
//!
//! Nothing here allocates inside a traced span: partial outputs, segment
//! tables and the kernels' gather scratch are allocated by
//! [`ChunkRun::new`] and the phase callers before the span opens (lint
//! rule HP01 is lexical and cannot see through a call).

use rayon::prelude::*;
use seismic_la::scalar::C32;

use crate::accounting::{absolute_bytes, mvm_flops, relative_bytes};
use crate::cast::to_u64;
use crate::fastpath::gather;
use crate::invariant::assert_finite;
use crate::matrix::TlrMatrix;
use crate::tiling::Tiling;
use crate::trace;

const CZERO: C32 = C32::new(0.0, 0.0);

/// `[0, s₀, s₀+s₁, …]`: where each of `sizes` starts in their
/// concatenation, and the total last.
fn prefix_sums(sizes: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut out = vec![0];
    out.extend(sizes.scan(0, |acc, s| {
        *acc += s;
        Some(*acc)
    }));
    out
}

/// Classic three-phase TLR-MVM layout: a view of the matrix's tiles in
/// V-stack order (tile column by tile column) and U-stack order (tile row
/// by tile row).
pub struct ThreePhase {
    tlr: TlrMatrix,
    /// Flat offsets of each column segment in the `yv` vector
    /// (`nt + 1` entries, the total rank last).
    col_offsets: Vec<usize>,
    /// Flat offsets of each row segment in the `yu` vector.
    row_offsets: Vec<usize>,
    /// The phase-2 projection from V- to U-ordering (paper Fig. 6),
    /// stored as the *inverse* permutation: `yu[q] = yv[shuffle_inv[q]]`.
    /// Phase 2 executes as a gather over this map
    /// ([`crate::fastpath::gather`]) — sequential stores and random
    /// loads overlap better than random stores.
    shuffle_inv: Vec<usize>,
}

/// Reusable intermediate buffers for [`ThreePhase::apply_with_scratch`].
///
/// A single scratch can be reused across *different* operators (e.g.
/// swept over every frequency of a stack): buffers grow to the largest
/// total rank seen and are then reused without further allocation.
#[derive(Default)]
pub struct ThreePhaseScratch {
    yv: Vec<C32>,
    yu: Vec<C32>,
}

impl ThreePhaseScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow (never shrink) both rank-length buffers to `total_rank`.
    fn reserve_rank(&mut self, total_rank: usize) {
        if self.yv.len() < total_rank {
            self.yv.resize(total_rank, CZERO);
            self.yu.resize(total_rank, CZERO);
        }
    }
}

impl ThreePhase {
    /// Build the stacked layout's index tables over a TLR matrix's tiles.
    pub fn new(tlr: &TlrMatrix) -> Self {
        let tiling = tlr.tiling();
        let (mt, nt) = (tiling.tile_rows(), tiling.tile_cols());
        let col_offsets = prefix_sums((0..nt).map(|j| tlr.column_rank(j)));
        let row_offsets = prefix_sums((0..mt).map(|i| tlr.row_rank(i)));

        // Shuffle: walk yv order (j, then i, then r) and record, at the
        // position of the same (i, j, r) coefficient in yu order (i, then
        // j, then r), where it comes from — phase 2 runs as a gather over
        // this inverse map. Row stack i is filled in column order, so its
        // next free slot is all the walk needs to remember.
        let mut shuffle_inv = vec![0usize; col_offsets[nt]];
        let mut next = row_offsets[..mt].to_vec();
        let mut p = 0usize;
        for j in 0..nt {
            for (i, q) in next.iter_mut().enumerate() {
                for _ in 0..tlr.rank(i, j) {
                    shuffle_inv[*q] = p;
                    (*q, p) = (*q + 1, p + 1);
                }
            }
        }

        Self {
            tlr: tlr.clone(),
            col_offsets,
            row_offsets,
            shuffle_inv,
        }
    }

    /// Total rank Σ k_{ij} (length of the intermediate vectors).
    pub fn total_rank(&self) -> usize {
        self.shuffle_inv.len()
    }

    /// The tile grid this layout was built from.
    pub fn tiling(&self) -> &Tiling {
        self.tlr.tiling()
    }

    /// Output length of [`ThreePhase::apply`] (matrix rows).
    pub fn nrows(&self) -> usize {
        self.tiling().m
    }

    /// Input length of [`ThreePhase::apply`] (matrix cols).
    pub fn ncols(&self) -> usize {
        self.tiling().n
    }

    /// Phase 1 (paper Fig. 5): batched `yv_j = V_jᴴ x_j` into a
    /// caller-owned buffer (`yv.len() == total_rank`), tile column by tile
    /// column, each tile in its stored form; allocation-free past the
    /// per-call segment table and gather scratch.
    pub fn v_batch_into(&self, x: &[C32], yv: &mut [C32]) {
        let tiling = self.tiling();
        assert_eq!(x.len(), tiling.n);
        assert_eq!(yv.len(), self.total_rank());
        assert_finite("three_phase.v_batch.x", x);
        // Segment table and per-column gather scratch are built before
        // the span opens: the traced hot phase is pure batched MVM work
        // (lint rule HP01).
        let nb = tiling.nb;
        let mut scratch = vec![CZERO; 2 * nb * tiling.tile_cols()];
        let mut segments: Vec<(&mut [C32], &mut [C32])> = Vec::with_capacity(tiling.tile_cols());
        let mut rest = &mut yv[..];
        for (j, gather) in scratch.chunks_mut(2 * nb).enumerate() {
            let len = self.col_offsets[j + 1] - self.col_offsets[j];
            let (seg, tail) = rest.split_at_mut(len);
            segments.push((seg, gather));
            rest = tail;
        }
        let _span = trace::span("tlr_mvm.v_batch");
        if trace::is_enabled() {
            // §6.6 cost per column stack: 4 real (K_j × cl_j) MVMs.
            let (mut fl, mut rel, mut abs) = (0u64, 0u64, 0u64);
            for (j, seg) in segments.iter().enumerate() {
                let ((_, cl), kj) = (tiling.col_range(j), seg.0.len());
                if kj == 0 {
                    continue;
                }
                fl += 4 * mvm_flops(kj, cl);
                rel += 4 * relative_bytes(kj, cl);
                abs += 4 * absolute_bytes(kj, cl);
            }
            trace::add_cost("tlr_mvm.v_batch", fl, rel, abs);
        }
        segments
            .par_iter_mut()
            .enumerate()
            .for_each(|(j, (seg, gather))| {
                let (c0, cl) = tiling.col_range(j);
                let xj = &x[c0..c0 + cl];
                let mut off = 0;
                for i in 0..tiling.tile_rows() {
                    let tile = self.tlr.tile(i, j);
                    let k = tile.rank();
                    tile.gather(xj, gather);
                    tile.coefficients(xj, gather, &mut seg[off..off + k]);
                    off += k;
                }
            });
        assert_finite("three_phase.v_batch.yv", yv);
    }

    /// Phase 2 (paper Fig. 6): project coefficients from V- to
    /// U-ordering, into a caller-owned buffer (`yu.len() == total_rank`).
    pub fn shuffle_into(&self, yv: &[C32], yu: &mut [C32]) {
        assert_eq!(yv.len(), self.total_rank());
        assert_eq!(yu.len(), self.total_rank());
        let _span = trace::span("tlr_mvm.shuffle");
        // Pure data movement: read + write 8 bytes per rank entry.
        let moved = 16 * to_u64(self.total_rank());
        trace::add_bytes("tlr_mvm.shuffle", moved, moved);
        gather(yu, &self.shuffle_inv, yv);
        assert_finite("three_phase.shuffle.yu", yu);
    }

    /// Phase 3 (paper Fig. 7): batched `y_i = U_i · yu_i` into a
    /// caller-owned buffer, tile row by tile row. `y` must be **zeroed**
    /// by the caller (`y.len() == nrows()`): the row kernel accumulates.
    pub fn u_batch_into(&self, yu: &[C32], y: &mut [C32]) {
        let tiling = self.tiling();
        assert_eq!(yu.len(), self.total_rank());
        assert_eq!(y.len(), tiling.m);
        // As in `v_batch_into`: segment table built before the span (HP01).
        let mut segments: Vec<&mut [C32]> = Vec::with_capacity(tiling.tile_rows());
        let mut rest = &mut y[..];
        for i in 0..tiling.tile_rows() {
            let (_, rl) = tiling.row_range(i);
            let (seg, tail) = rest.split_at_mut(rl);
            segments.push(seg);
            rest = tail;
        }
        let _span = trace::span("tlr_mvm.u_batch");
        if trace::is_enabled() {
            // §6.6 cost per row stack: 4 real (m_i × R_i) MVMs.
            let (mut fl, mut rel, mut abs) = (0u64, 0u64, 0u64);
            for (i, seg) in segments.iter().enumerate() {
                let (mi, ri) = (seg.len(), self.row_offsets[i + 1] - self.row_offsets[i]);
                if ri == 0 {
                    continue;
                }
                fl += 4 * mvm_flops(mi, ri);
                rel += 4 * relative_bytes(mi, ri);
                abs += 4 * absolute_bytes(mi, ri);
            }
            trace::add_cost("tlr_mvm.u_batch", fl, rel, abs);
        }
        segments.par_iter_mut().enumerate().for_each(|(i, seg)| {
            let mut off = self.row_offsets[i];
            for j in 0..tiling.tile_cols() {
                let tile = self.tlr.tile(i, j);
                let k = tile.rank();
                tile.expand_acc(&yu[off..off + k], seg);
                off += k;
            }
        });
        assert_finite("three_phase.u_batch.y", y);
    }

    /// Full three-phase TLR-MVM: `y = Ã x`, on a fresh scratch.
    pub fn apply(&self, x: &[C32]) -> Vec<C32> {
        let mut y = vec![CZERO; self.nrows()];
        self.apply_with_scratch(x, &mut ThreePhaseScratch::new(), &mut y);
        y
    }

    /// Full three-phase TLR-MVM into caller-owned buffers: `y = Ã x`
    /// with both rank-length intermediates taken from `scratch`, so
    /// neither is allocated once the scratch has grown to this operator's
    /// total rank.
    pub fn apply_with_scratch(&self, x: &[C32], scratch: &mut ThreePhaseScratch, y: &mut [C32]) {
        let k = self.total_rank();
        scratch.reserve_rank(k);
        self.v_batch_into(x, &mut scratch.yv[..k]);
        self.shuffle_into(&scratch.yv[..k], &mut scratch.yu[..k]);
        y.fill(CZERO);
        self.u_batch_into(&scratch.yu[..k], y);
    }
}

/// One tile column of the communication-avoiding layout (paper Fig. 9):
/// the index table of its rank dimension — the tiles' rank columns stacked
/// tile row by tile row, each with the row count of its tile. The bases
/// stay in the tiles.
pub struct ColumnStack {
    /// Tile-column index.
    col: usize,
    /// First matrix column covered / width.
    c0: usize,
    /// Width of this tile column.
    cl: usize,
    /// Per tile row `i`: its first rank column; `mt + 1` entries, the
    /// last `K_j`.
    tile_start: Vec<usize>,
    /// Actual row count of each rank column (`rl_i`).
    row_len: Vec<usize>,
}

impl ColumnStack {
    /// Number of rank columns `K_j`.
    pub fn rank(&self) -> usize {
        self.row_len.len()
    }

    /// The tile row rank column `k` belongs to.
    fn tile_row(&self, k: usize) -> usize {
        self.tile_start.partition_point(|&s| s <= k) - 1
    }
}

/// A contiguous slice of a tile column's rank dimension: the workload of
/// a single CS-2 processing element, a view of its [`ColumnStack`] and of
/// the matrix's tiles.
///
/// Built only by [`CommAvoiding::chunks`], which keeps `start < end ≤ K_j`
/// — `w = end − start ≥ 1` rank columns, which may start and end anywhere
/// inside a tile's rank range — and `tiles` the tile rows of the first
/// and the last of them.
#[derive(Clone, Copy)]
pub struct RankChunk<'a> {
    tlr: &'a TlrMatrix,
    column: &'a ColumnStack,
    start: usize,
    end: usize,
    tiles: (usize, usize),
}

impl<'a> RankChunk<'a> {
    /// Tile-column index this chunk belongs to.
    pub fn col(&self) -> usize {
        self.column.col
    }

    /// The input entries this chunk reads: its tile column's `c0..c0 + cl`.
    pub fn x_range(&self) -> std::ops::Range<usize> {
        self.column.c0..self.column.c0 + self.column.cl
    }

    /// Chunk width `w` (number of rank columns).
    pub fn width(&self) -> usize {
        self.end - self.start
    }

    /// Height of the modelled U slice: the tile size `nb` of the grid.
    pub fn u_rows(&self) -> usize {
        self.tlr.tiling().nb
    }

    /// Valid row count of each rank column (`rl_i` of its tile row).
    pub fn row_len(&self) -> &'a [usize] {
        &self.column.row_len[self.start..self.end]
    }

    /// The output rows this chunk writes: from its first rank column's
    /// tile row to the end of its last one's.
    pub fn row_span(&self) -> std::ops::Range<usize> {
        let tiling = self.tlr.tiling();
        let ((first, _), (last, rl)) = (
            tiling.row_range(self.tiles.0),
            tiling.row_range(self.tiles.1),
        );
        first..last + rl
    }

    /// Fused kernel: `y_span = Σ_r u_r (v_rᴴ x)` over
    /// [`RankChunk::row_span`], reading `x` at [`RankChunk::x_range`]. Per
    /// tile the chunk covers, its share of the tile's rank columns four at
    /// a time: their V coefficients from the tile's stored form, then the
    /// U phase on the tile's rows. `gathered` holds the gather
    /// ([`crate::TileRef`]'s column order of `x_j`) of tile row `held`, made
    /// anew when this chunk needs another tile's.
    fn apply_into(
        &self,
        x: &[C32],
        gathered: &mut [C32],
        held: &mut Option<usize>,
        y_span: &mut [C32],
    ) {
        let span = self.row_span();
        assert_eq!(y_span.len(), span.len(), "y_span length");
        let (x, cs, tiling) = (&x[self.x_range()], self.column, self.tlr.tiling());
        y_span.fill(CZERO);
        for i in self.tiles.0..=self.tiles.1 {
            // This chunk's rank columns of tile i, numbered in the tile.
            let s = cs.tile_start[i];
            let cols = self.start.max(s) - s..self.end.min(cs.tile_start[i + 1]) - s;
            let (r0, rl) = tiling.row_range(i);
            let y = &mut y_span[r0 - span.start..][..rl];
            let tile = self.tlr.tile(i, cs.col);
            if *held != Some(i) {
                tile.gather(x, gathered);
                *held = Some(i);
            }
            tile.apply_cols_acc(cols, x, gathered, y);
        }
    }

    /// The modelled PE SRAM words of this chunk: a `cl × w` V slice and an
    /// `nb × w` U slice, `(cl + nb)·w` complex words, whatever form its
    /// tiles are stored in.
    pub fn stored_elements(&self) -> usize {
        (self.column.cl + self.u_rows()) * self.width()
    }
}

/// One run of rank chunks on one input, as independent PEs: per chunk its
/// partial over [`RankChunk::row_span`], and per stretch of consecutive
/// chunks of one tile column the gather scratch they share — all cut from
/// one caller-owned buffer when the run is built, before any traced span
/// opens (HP01), so [`ChunkRun::apply`] and [`ChunkRun::reduce_into`]
/// allocate nothing.
pub struct ChunkRun<'b> {
    x: &'b [C32],
    stretches: Vec<Stretch<'b>>,
}

/// Consecutive chunks of one tile column: one parallel task, whose chunks
/// run in order over one gather scratch, so a tile two of them split is
/// gathered once.
struct Stretch<'b> {
    chunks: &'b [RankChunk<'b>],
    gathered: &'b mut [C32],
    partials: Vec<&'b mut [C32]>,
}

impl<'b> ChunkRun<'b> {
    /// Size `buf` for `chunks` and cut it per stretch and per chunk.
    pub fn new(chunks: &'b [RankChunk<'b>], x: &'b [C32], buf: &'b mut Vec<C32>) -> Self {
        let same_column = |a: &RankChunk, b: &RankChunk| std::ptr::eq(a.column, b.column);
        let cut = |ch: &RankChunk| ch.row_span().len();
        let gather_len = |run: &[RankChunk]| 2 * run[0].column.cl;
        let len = chunks.chunk_by(same_column).map(gather_len).sum::<usize>()
            + chunks.iter().map(cut).sum::<usize>();
        buf.resize(len, CZERO);
        let mut rest = &mut buf[..];
        let mut take = |len: usize| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            head
        };
        let stretches = chunks
            .chunk_by(same_column)
            .map(|run| Stretch {
                chunks: run,
                gathered: take(gather_len(run)),
                partials: run.iter().map(|ch| take(cut(ch))).collect(),
            })
            .collect();
        Self { x, stretches }
    }

    /// Every chunk's fused kernel, one parallel task per stretch.
    pub fn apply(&mut self) {
        let x = self.x;
        self.stretches.par_iter_mut().for_each(|stretch| {
            let mut held = None;
            for (ch, part) in stretch.chunks.iter().zip(&mut stretch.partials) {
                ch.apply_into(x, stretch.gathered, &mut held, part);
            }
        });
    }

    /// The host reduction: `y[row_span] += partial`, chunk by chunk in
    /// order.
    pub fn reduce_into(&self, y: &mut [C32]) {
        for stretch in &self.stretches {
            for (ch, part) in stretch.chunks.iter().zip(&stretch.partials) {
                for (yi, &p) in y[ch.row_span()].iter_mut().zip(part.iter()) {
                    *yi += p;
                }
            }
        }
    }
}

/// The communication-avoiding layout: one [`ColumnStack`] per tile column
/// over the matrix's tiles.
pub struct CommAvoiding {
    tlr: TlrMatrix,
    columns: Vec<ColumnStack>,
}

impl CommAvoiding {
    /// Build the layout's index tables over a TLR matrix's tiles.
    pub fn new(tlr: &TlrMatrix) -> Self {
        let tiling = tlr.tiling();
        let columns = (0..tiling.tile_cols())
            .map(|j| {
                let (c0, cl) = tiling.col_range(j);
                let mut row_len = Vec::with_capacity(tlr.column_rank(j));
                for i in 0..tiling.tile_rows() {
                    let (_, rl) = tiling.row_range(i);
                    row_len.resize(row_len.len() + tlr.rank(i, j), rl);
                }
                ColumnStack {
                    col: j,
                    c0,
                    cl,
                    tile_start: prefix_sums((0..tiling.tile_rows()).map(|i| tlr.rank(i, j))),
                    row_len,
                }
            })
            .collect();
        Self {
            tlr: tlr.clone(),
            columns,
        }
    }

    /// The tile grid.
    pub fn tiling(&self) -> &Tiling {
        self.tlr.tiling()
    }

    /// Column stacks.
    pub fn columns(&self) -> &[ColumnStack] {
        &self.columns
    }

    /// `y = Ã x`: each tile column produces a partial `y` over its rows
    /// (fused V+U, no shuffle), then the host reduces the partials —
    /// exactly the paper's CS-2 execution with the reduction step
    /// "handled by the host". [`CommAvoiding::apply_chunked`] with one
    /// chunk per tile column.
    pub fn apply(&self, x: &[C32]) -> Vec<C32> {
        self.apply_chunked(x, usize::MAX)
    }

    /// Attribute the §6.6 fused-kernel cost (4 real V MVMs + 4 real U
    /// MVMs per tile column) to the `comm_avoiding.fused` phase.
    fn trace_fused_cost(&self) {
        if !trace::is_enabled() {
            return;
        }
        let nb = self.tiling().nb;
        let (mut fl, mut rel, mut abs) = (0u64, 0u64, 0u64);
        for cs in &self.columns {
            let kj = cs.rank();
            if kj == 0 {
                continue;
            }
            fl += 4 * (mvm_flops(kj, cs.cl) + mvm_flops(nb, kj));
            rel += 4 * (relative_bytes(kj, cs.cl) + relative_bytes(nb, kj));
            abs += 4 * (absolute_bytes(kj, cs.cl) + absolute_bytes(nb, kj));
        }
        trace::add_cost("comm_avoiding.fused", fl, rel, abs);
    }

    /// All rank chunks at a given stack width (the per-PE work units):
    /// each tile column's rank dimension cut every `stack_width` columns.
    pub fn chunks(&self, stack_width: usize) -> Vec<RankChunk<'_>> {
        assert!(stack_width > 0);
        self.columns
            .iter()
            .flat_map(|column| {
                let k = column.rank();
                (0..k).step_by(stack_width).map(move |start| {
                    let end = start.saturating_add(stack_width).min(k);
                    RankChunk {
                        tlr: &self.tlr,
                        column,
                        start,
                        end,
                        tiles: (column.tile_row(start), column.tile_row(end - 1)),
                    }
                })
            })
            .collect()
    }

    /// Apply via explicit chunks of at most `stack_width` rank columns:
    /// the [`ChunkRun`] the WSE simulator executes, so the two agree bit
    /// for bit.
    pub fn apply_chunked(&self, x: &[C32], stack_width: usize) -> Vec<C32> {
        let tiling = self.tiling();
        assert_eq!(x.len(), tiling.n);
        assert_finite("comm_avoiding.apply_chunked.x", x);
        let chunks = self.chunks(stack_width);
        self.trace_fused_cost();
        // The run's buffers are cut before the span opens (HP01).
        let (mut buf, mut y) = (Vec::new(), vec![CZERO; tiling.m]);
        let mut run = ChunkRun::new(&chunks, x, &mut buf);
        {
            let _span = trace::span("comm_avoiding.fused");
            run.apply();
        }
        let _span = trace::span("comm_avoiding.host_reduce");
        let spans: usize = chunks.iter().map(|ch| ch.row_span().len()).sum();
        let moved = 8 * to_u64(spans + tiling.m);
        trace::add_bytes("comm_avoiding.host_reduce", moved, moved);
        run.reduce_into(&mut y);
        assert_finite("comm_avoiding.apply_chunked.y", &y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressionConfig, CompressionMethod, ToleranceMode};
    use seismic_la::blas::gemv;
    use seismic_la::Matrix;

    fn kernel(m: usize, n: usize) -> Matrix<C32> {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.02).sqrt();
            C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
        })
    }

    fn tlr(m: usize, n: usize, nb: usize) -> TlrMatrix {
        compress(
            &kernel(m, n),
            CompressionConfig {
                nb,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        )
    }

    fn test_x(n: usize) -> Vec<C32> {
        (0..n)
            .map(|i| C32::new((i as f32 * 0.17).sin(), (i as f32 * 0.07).cos()))
            .collect()
    }

    fn assert_close(a: &[C32], b: &[C32], tol: f32) {
        assert_eq!(a.len(), b.len());
        let scale = seismic_la::blas::nrm2(b).max(1.0);
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() <= tol * scale, "{x} vs {y}");
        }
    }

    #[test]
    fn three_phase_matches_tile_apply() {
        let t = tlr(70, 55, 16);
        let layout = ThreePhase::new(&t);
        let x = test_x(55);
        let y1 = layout.apply(&x);
        let y2 = t.apply(&x);
        assert_close(&y1, &y2, 1e-5);
    }

    #[test]
    fn comm_avoiding_matches_three_phase() {
        let t = tlr(70, 55, 16);
        let tp = ThreePhase::new(&t);
        let ca = CommAvoiding::new(&t);
        let x = test_x(55);
        assert_close(&ca.apply(&x), &tp.apply(&x), 1e-5);
    }

    #[test]
    fn chunked_matches_unchunked_for_all_widths() {
        let t = tlr(64, 48, 12);
        let ca = CommAvoiding::new(&t);
        let x = test_x(48);
        let want = ca.apply(&x);
        for w in [1usize, 2, 3, 7, 16, 64, 1000] {
            let got = ca.apply_chunked(&x, w);
            assert_close(&got, &want, 1e-5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let t = tlr(48, 36, 10);
        let layout = ThreePhase::new(&t);
        let mut seen = vec![false; layout.total_rank()];
        for &q in &layout.shuffle_inv {
            assert!(!seen[q]);
            seen[q] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The three phases run one after another are the whole apply.
    #[test]
    fn phases_have_expected_lengths() {
        let t = tlr(48, 36, 10);
        let layout = ThreePhase::new(&t);
        let x = test_x(36);
        let k = layout.total_rank();
        let (mut yv, mut yu, mut y) = (vec![CZERO; k], vec![CZERO; k], vec![CZERO; 48]);
        layout.v_batch_into(&x, &mut yv);
        layout.shuffle_into(&yv, &mut yu);
        layout.u_batch_into(&yu, &mut y);
        assert_eq!(y, layout.apply(&x));
    }

    #[test]
    fn chunk_widths_respect_stack_width() {
        let t = tlr(60, 44, 12);
        let ca = CommAvoiding::new(&t);
        let w = 5;
        for ch in ca.chunks(w) {
            assert!(ch.width() > 0 && ch.width() <= w);
            assert_eq!(ch.row_len().len(), ch.width());
            let words = (ch.x_range().len() + ch.u_rows()) * ch.width();
            assert_eq!(ch.stored_elements(), words);
            assert_eq!(ch.u_rows(), 12);
        }
        // Total chunk width must equal total rank.
        let total: usize = ca.chunks(w).iter().map(|c| c.width()).sum();
        assert_eq!(total, t.total_rank());
    }

    /// No base is copied: both layouts read the caller's own tiles, every
    /// chunk's row lengths lie inside its column's table and it reads the
    /// layout's matrix, and together the chunks model `(cl + nb)` words
    /// per rank column of each tile column.
    #[test]
    fn chunks_borrow_the_column_stacks_without_copying() {
        let t = tlr(67, 41, 16);
        let (tp, ca) = (ThreePhase::new(&t), CommAvoiding::new(&t));
        for (i, j, tile) in t.tiles_with_coords() {
            let (in_tp, in_ca) = (tp.tlr.tile(i, j), ca.tlr.tile(i, j));
            assert!(in_tp.ptr_eq(&tile) && in_ca.ptr_eq(&tile), "({i},{j})");
        }
        let within = |inner: &[usize], outer: &[usize]| {
            let (outer, inner) = (outer.as_ptr_range(), inner.as_ptr_range());
            outer.start <= inner.start && inner.end <= outer.end
        };
        let modelled: usize = ca.columns().iter().map(|cs| (cs.cl + 16) * cs.rank()).sum();
        for w in [1usize, 3, 7, 1000] {
            let mut stored = 0;
            for ch in ca.chunks(w) {
                let cs = &ca.columns()[ch.col()];
                assert!(within(ch.row_len(), &cs.row_len) && std::ptr::eq(ch.tlr, &ca.tlr));
                stored += ch.stored_elements();
            }
            assert_eq!(stored, modelled, "w={w}");
        }
    }

    /// Each chunk's partial covers its own row span and nothing more, the
    /// spans stay inside the unpadded output, and the chunks of one tile
    /// column form one stretch with one `2·cl` gather scratch.
    #[test]
    fn chunk_partials_are_exactly_their_row_spans() {
        let t = tlr(67, 41, 16);
        let ca = CommAvoiding::new(&t);
        let x = test_x(41);
        for w in [1usize, 2, 5, 64] {
            let chunks = ca.chunks(w);
            let mut buf = Vec::new();
            let run = ChunkRun::new(&chunks, &x, &mut buf);
            let columns = ca.columns().iter().filter(|cs| cs.rank() > 0).count();
            assert_eq!(run.stretches.len(), columns);
            let mut seen = 0;
            for stretch in &run.stretches {
                let cl = stretch.chunks[0].x_range().len();
                assert_eq!(stretch.gathered.len(), 2 * cl);
                for (ch, part) in stretch.chunks.iter().zip(&stretch.partials) {
                    assert_eq!(ch.col(), stretch.chunks[0].col());
                    let span = ch.row_span();
                    assert_eq!(part.len(), span.len());
                    assert!(span.end <= 67);
                    seen += 1;
                }
            }
            assert_eq!(seen, chunks.len());
        }
    }

    #[test]
    fn apply_with_scratch_is_bit_identical_to_apply() {
        let t = tlr(70, 55, 16);
        let layout = ThreePhase::new(&t);
        let x = test_x(55);
        let want = layout.apply(&x);
        let mut scratch = ThreePhaseScratch::new();
        let mut y = vec![CZERO; 70];
        for _ in 0..3 {
            // Reused (dirty) scratch must not change a single bit.
            layout.apply_with_scratch(&x, &mut scratch, &mut y);
            for (a, b) in y.iter().zip(&want) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn scratch_is_shareable_across_operators() {
        let t_big = tlr(70, 55, 16);
        let t_small = tlr(40, 30, 8);
        let big = ThreePhase::new(&t_big);
        let small = ThreePhase::new(&t_small);
        let mut scratch = ThreePhaseScratch::new();
        let mut y = vec![CZERO; 70];
        big.apply_with_scratch(&test_x(55), &mut scratch, &mut y);
        let want_small = small.apply(&test_x(30));
        let mut y_small = vec![CZERO; 40];
        // Scratch grown by the big operator, reused by the small one.
        small.apply_with_scratch(&test_x(30), &mut scratch, &mut y_small);
        assert_close(&y_small, &want_small, 1e-6);
    }

    /// An all-zero matrix compresses to rank 0 everywhere, so every stack
    /// is `cl × 0` and every phase runs on empty operands (and the
    /// comm-avoiding layout on no chunks at all): the result is the zero
    /// vector, not a panic — forward on both layouts, and through the
    /// matrix's own adjoint.
    #[test]
    fn all_zero_matrix_applies_and_adjoint_applies_as_zero() {
        let cfg = CompressionConfig {
            nb: 16,
            acc: 1e-4,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let t = compress(&Matrix::zeros(37, 29), cfg);
        assert_eq!(t.total_rank(), 0);
        let (x, y) = (test_x(29), test_x(37));
        let tp = ThreePhase::new(&t);
        let ca = CommAvoiding::new(&t);
        assert_eq!(tp.apply(&x), vec![CZERO; 37]);
        assert_eq!(ca.apply(&x), vec![CZERO; 37]);
        assert_eq!(ca.apply_chunked(&x, 4), vec![CZERO; 37]);
        assert_eq!(t.apply_adjoint(&y), vec![CZERO; 29]);
    }

    /// The views read a dense tile as the `(A, I)` pair it stands for:
    /// built from the hybrid store they hold the index tables of the same
    /// matrix with those pairs stored, and compute what it computes — the
    /// identity's V phase only ever added exact zeros, so the two agree
    /// under `==` (which takes `+0` and `-0` as equal) — three-phase,
    /// comm-avoiding and chunked at widths that cut dense tiles mid-rank.
    #[test]
    fn stacked_views_expand_dense_tiles_to_the_factor_pairs_they_replace() {
        use crate::matrix::test_support::{dense_tiles_as_factors, mixed_tiles, noise_tiles};
        for hybrid in [mixed_tiles().1, noise_tiles()] {
            assert!(hybrid.dense_tiles() > 0);
            let factors = dense_tiles_as_factors(&hybrid);
            let x = test_x(hybrid.shape().1);
            let (tp, tp_f) = (ThreePhase::new(&hybrid), ThreePhase::new(&factors));
            assert_eq!(tp.col_offsets, tp_f.col_offsets);
            assert_eq!(tp.row_offsets, tp_f.row_offsets);
            assert_eq!(tp.shuffle_inv, tp_f.shuffle_inv);
            assert_eq!(tp.apply(&x), tp_f.apply(&x));
            let (ca, ca_f) = (CommAvoiding::new(&hybrid), CommAvoiding::new(&factors));
            assert_eq!(ca.columns.len(), ca_f.columns.len());
            for (c, c_f) in ca.columns.iter().zip(&ca_f.columns) {
                assert_eq!(c.tile_start, c_f.tile_start);
                assert_eq!(c.row_len, c_f.row_len);
                assert_eq!((c.col, c.c0, c.cl), (c_f.col, c_f.c0, c_f.cl));
            }
            for w in [1usize, 3, 5, usize::MAX] {
                assert_eq!(ca.apply_chunked(&x, w), ca_f.apply_chunked(&x, w), "w={w}");
            }
        }
    }

    #[test]
    fn ragged_edge_tiles_round_trip() {
        let t = tlr(67, 41, 16); // ragged in both dimensions
        let ca = CommAvoiding::new(&t);
        let tp = ThreePhase::new(&t);
        let x = test_x(41);
        let dense = t.reconstruct();
        let mut want = vec![C32::new(0.0, 0.0); 67];
        gemv(&dense, &x, &mut want);
        assert_close(&ca.apply(&x), &want, 1e-4);
        assert_close(&tp.apply(&x), &want, 1e-4);
        assert_close(&ca.apply_chunked(&x, 4), &want, 1e-4);
    }
}
