//! Stacked-bases execution layouts for TLR-MVM.
//!
//! * [`ThreePhase`] — the classic x86/ARM/GPU pipeline (paper Figs. 4–7):
//!   V-batch → memory shuffle → U-batch.
//! * [`CommAvoiding`] — the paper's new CS-2 layout (Fig. 9): the U bases
//!   of each *tile column* are stored side-by-side so phases 1 and 3 fuse
//!   per column; the cross-fabric shuffle disappears, at the price of one
//!   partial `y` vector per tile column reduced on the host.
//!
//! Both are *second copies* of the bases, built from a [`TlrMatrix`] for
//! the paper's three-phase / communication-avoiding tables and for the
//! WSE simulator's per-PE chunks. Each computes the forward product only,
//! with one kernel per layout; the MDD solve and the engine's sweep run
//! on the tiles as stored ([`TlrMatrix::apply_into`] and its adjoint),
//! which needs neither the copy nor the shuffle.
//!
//! The stacks hold factors only, so a tile stored dense is expanded here
//! to the factorisation it stands for — `U` column `r` is the block's
//! column `r`, `V` column `r` is `e_r` — written straight into the stacks.
//! Giving the wafer model a dense chunk instead is ROADMAP item 3(b).
//!
//! A [`RankChunk`] is a borrowed view of contiguous columns of one
//! [`ColumnStack`]; [`ChunkRun`] executes a set of them as independent
//! PEs with a host reduction — the one communication-avoiding kernel:
//! [`CommAvoiding::apply`] runs it with one chunk per column stack,
//! [`CommAvoiding::apply_chunked`] at a stack width, and the WSE
//! simulator's functional execution on its placed chunks.
//!
//! Nothing here allocates inside a traced span: partial outputs, segment
//! tables and the rank scratch the fused kernels write `Vᴴx` into are
//! allocated by [`ChunkRun::new`] and the phase callers before the span
//! opens (lint rule HP01 is lexical and cannot see through a call).

#![allow(
    clippy::needless_range_loop,
    reason = "index-based loops here walk multiple parallel arrays; iterator zips would obscure \
              the stride structure the kernels are about"
)]

use rayon::prelude::*;
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::accounting::{absolute_bytes, mvm_flops, relative_bytes};
use crate::fastpath::{dotc_cols, gather, gemv_acc_fast, gemv_conj_transpose_fast, swap_re_im};
use crate::invariant::assert_finite;
use crate::matrix::TlrMatrix;
use crate::precision::to_u64;
use crate::tiling::Tiling;
use crate::trace;

const CZERO: C32 = C32::new(0.0, 0.0);

/// Classic three-phase TLR-MVM layout.
pub struct ThreePhase {
    tiling: Tiling,
    /// Per tile column `j`: `(cl_j × K_j)` horizontal concat of `V_{i,j}`.
    vstacks: Vec<Matrix<C32>>,
    /// Per tile row `i`: `(rl_i × R_i)` horizontal concat of `U_{i,j}`.
    ustacks: Vec<Matrix<C32>>,
    /// Flat offsets of each column segment in the `yv` vector.
    col_offsets: Vec<usize>,
    /// Flat offsets of each row segment in the `yu` vector.
    row_offsets: Vec<usize>,
    /// The phase-2 projection from V- to U-ordering (paper Fig. 6),
    /// stored as the *inverse* permutation: `yu[q] = yv[shuffle_inv[q]]`.
    /// Phase 2 executes as a gather over this map
    /// ([`crate::fastpath::gather`]) — sequential stores and random
    /// loads overlap better than random stores.
    shuffle_inv: Vec<usize>,
    total_rank: usize,
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
    /// Build the stacked layout from a TLR matrix.
    pub fn new(tlr: &TlrMatrix) -> Self {
        let tiling = *tlr.tiling();
        let mt = tiling.tile_rows();
        let nt = tiling.tile_cols();

        // V stacks (per column) and flat yv offsets.
        let mut vstacks = Vec::with_capacity(nt);
        let mut col_offsets = Vec::with_capacity(nt + 1);
        let mut acc = 0usize;
        for j in 0..nt {
            col_offsets.push(acc);
            let (_, cl) = tiling.col_range(j);
            let kj = tlr.column_rank(j);
            let mut vs = Matrix::zeros(cl, kj);
            let mut off = 0;
            for i in 0..mt {
                let t = tlr.tile(i, j);
                for r in 0..t.rank() {
                    t.copy_v_col(r, vs.col_mut(off + r));
                }
                off += t.rank();
            }
            acc += kj;
            vstacks.push(vs);
        }
        col_offsets.push(acc);
        let total_rank = acc;

        // U stacks (per row) and flat yu offsets.
        let mut ustacks = Vec::with_capacity(mt);
        let mut row_offsets = Vec::with_capacity(mt + 1);
        let mut acc_u = 0usize;
        for i in 0..mt {
            row_offsets.push(acc_u);
            let (_, rl) = tiling.row_range(i);
            let ri = tlr.row_rank(i);
            let mut us = Matrix::zeros(rl, ri);
            let mut off = 0;
            for j in 0..nt {
                let t = tlr.tile(i, j);
                for r in 0..t.rank() {
                    us.col_mut(off + r).copy_from_slice(t.u_col(r));
                }
                off += t.rank();
            }
            acc_u += ri;
            ustacks.push(us);
        }
        row_offsets.push(acc_u);
        debug_assert_eq!(acc_u, total_rank);

        // Shuffle: walk yv order (j, then i, then r) and record, at the
        // position of the same (i, j, r) coefficient in yu order (i, then
        // j, then r), where it comes from — phase 2 runs as a gather over
        // this inverse map.
        let mut shuffle_inv = vec![0usize; total_rank];
        // Per (i, j): rank offset of tile (i,j) inside row stack i.
        let mut row_tile_offset = vec![vec![0usize; nt]; mt];
        for i in 0..mt {
            let mut off = 0;
            for j in 0..nt {
                row_tile_offset[i][j] = off;
                off += tlr.rank(i, j);
            }
        }
        let mut p = 0usize;
        for j in 0..nt {
            for i in 0..mt {
                let k = tlr.rank(i, j);
                let base = row_offsets[i] + row_tile_offset[i][j];
                for r in 0..k {
                    shuffle_inv[base + r] = p;
                    p += 1;
                }
            }
        }

        Self {
            tiling,
            vstacks,
            ustacks,
            col_offsets,
            row_offsets,
            shuffle_inv,
            total_rank,
        }
    }

    /// Total rank Σ k_{ij} (length of the intermediate vectors).
    pub fn total_rank(&self) -> usize {
        self.total_rank
    }

    /// The tile grid this layout was built from.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Output length of [`ThreePhase::apply`] (matrix rows).
    pub fn nrows(&self) -> usize {
        self.tiling.m
    }

    /// Input length of [`ThreePhase::apply`] (matrix cols).
    pub fn ncols(&self) -> usize {
        self.tiling.n
    }

    /// Phase 1 (paper Fig. 5): batched `yv_j = Vstack_jᴴ x_j` into a
    /// caller-owned buffer (`yv.len() == total_rank`); allocation-free
    /// past the per-call segment table.
    pub fn v_batch_into(&self, x: &[C32], yv: &mut [C32]) {
        assert_eq!(x.len(), self.tiling.n);
        assert_eq!(yv.len(), self.total_rank);
        assert_finite("three_phase.v_batch.x", x);
        // Segment table is built before the span opens: the traced hot
        // phase is pure batched MVM work (lint rule HP01).
        let mut segments: Vec<&mut [C32]> = Vec::with_capacity(self.vstacks.len());
        let mut rest = &mut yv[..];
        for j in 0..self.vstacks.len() {
            let len = self.col_offsets[j + 1] - self.col_offsets[j];
            let (seg, tail) = rest.split_at_mut(len);
            segments.push(seg);
            rest = tail;
        }
        let _span = trace::span("tlr_mvm.v_batch");
        if trace::is_enabled() {
            // §6.6 cost per column stack: 4 real (K_j × cl_j) MVMs.
            let (mut fl, mut rel, mut abs) = (0u64, 0u64, 0u64);
            for vs in &self.vstacks {
                let (cl, kj) = (vs.nrows(), vs.ncols());
                if kj == 0 {
                    continue;
                }
                fl += 4 * mvm_flops(kj, cl);
                rel += 4 * relative_bytes(kj, cl);
                abs += 4 * absolute_bytes(kj, cl);
            }
            trace::add_cost("tlr_mvm.v_batch", fl, rel, abs);
        }
        segments.par_iter_mut().enumerate().for_each(|(j, seg)| {
            let (c0, cl) = self.tiling.col_range(j);
            gemv_conj_transpose_fast(&self.vstacks[j], &x[c0..c0 + cl], seg);
        });
        assert_finite("three_phase.v_batch.yv", yv);
    }

    /// Phase 2 (paper Fig. 6): project coefficients from V- to
    /// U-ordering, into a caller-owned buffer (`yu.len() == total_rank`).
    pub fn shuffle_into(&self, yv: &[C32], yu: &mut [C32]) {
        assert_eq!(yv.len(), self.total_rank);
        assert_eq!(yu.len(), self.total_rank);
        let _span = trace::span("tlr_mvm.shuffle");
        // Pure data movement: read + write 8 bytes per rank entry.
        let moved = 16 * to_u64(self.total_rank);
        trace::add_bytes("tlr_mvm.shuffle", moved, moved);
        gather(yu, &self.shuffle_inv, yv);
        assert_finite("three_phase.shuffle.yu", yu);
    }

    /// Phase 3 (paper Fig. 7): batched `y_i = Ustack_i · yu_i` into a
    /// caller-owned buffer. `y` must be **zeroed** by the caller
    /// (`y.len() == nrows()`): the row-stack kernel accumulates.
    pub fn u_batch_into(&self, yu: &[C32], y: &mut [C32]) {
        assert_eq!(yu.len(), self.total_rank);
        assert_eq!(y.len(), self.tiling.m);
        // As in `v_batch_into`: segment table built before the span (HP01).
        let mut segments: Vec<&mut [C32]> = Vec::with_capacity(self.ustacks.len());
        let mut rest = &mut y[..];
        for i in 0..self.ustacks.len() {
            let (_, rl) = self.tiling.row_range(i);
            let (seg, tail) = rest.split_at_mut(rl);
            segments.push(seg);
            rest = tail;
        }
        let _span = trace::span("tlr_mvm.u_batch");
        if trace::is_enabled() {
            // §6.6 cost per row stack: 4 real (m_i × R_i) MVMs.
            let (mut fl, mut rel, mut abs) = (0u64, 0u64, 0u64);
            for us in &self.ustacks {
                let (mi, ri) = (us.nrows(), us.ncols());
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
            let lo = self.row_offsets[i];
            let hi = self.row_offsets[i + 1];
            gemv_acc_fast(&self.ustacks[i], &yu[lo..hi], seg);
        });
        assert_finite("three_phase.u_batch.y", y);
    }

    /// Full three-phase TLR-MVM: `y = Ã x`, on a fresh scratch.
    pub fn apply(&self, x: &[C32]) -> Vec<C32> {
        let mut y = vec![CZERO; self.tiling.m];
        self.apply_with_scratch(x, &mut ThreePhaseScratch::new(), &mut y);
        y
    }

    /// Full three-phase TLR-MVM into caller-owned buffers: `y = Ã x`
    /// with both rank-length intermediates taken from `scratch`, so
    /// nothing is allocated once the scratch has grown to this operator's
    /// total rank.
    pub fn apply_with_scratch(&self, x: &[C32], scratch: &mut ThreePhaseScratch, y: &mut [C32]) {
        scratch.reserve_rank(self.total_rank);
        let k = self.total_rank;
        self.v_batch_into(x, &mut scratch.yv[..k]);
        self.shuffle_into(&scratch.yv[..k], &mut scratch.yu[..k]);
        y.fill(CZERO);
        self.u_batch_into(&scratch.yu[..k], y);
    }
}

/// One tile column of the communication-avoiding layout: `V` bases stacked
/// as usual, `U` bases of the *same column* stored side-by-side with
/// per-rank-column row-block metadata (paper Fig. 9).
pub struct ColumnStack {
    /// Tile-column index.
    col: usize,
    /// First matrix column covered / width.
    c0: usize,
    /// Width of this tile column.
    cl: usize,
    /// `(cl × K_j)` stacked V bases.
    vstack: Matrix<C32>,
    /// `(nb × K_j)` stacked U bases, rows zero-padded to `nb` for edge
    /// tile rows (the CS-2 code pads for SRAM bank alignment anyway).
    ustack: Matrix<C32>,
    /// Tile-row index of each rank column.
    row_block: Vec<usize>,
    /// Actual row count of each rank column (`rl_i`).
    row_len: Vec<usize>,
}

impl ColumnStack {
    /// Number of rank columns `K_j`.
    pub fn rank(&self) -> usize {
        self.row_block.len()
    }

    /// Split this column's rank dimension into chunks of at most
    /// `stack_width` rank columns — the unit of work one CS-2 PE owns.
    /// The stacks are column-major, so every chunk is a view of
    /// contiguous columns: nothing is copied.
    pub fn split(&self, stack_width: usize) -> impl Iterator<Item = RankChunk<'_>> {
        assert!(stack_width > 0);
        let (k, cl, nb) = (self.rank(), self.cl, self.ustack.nrows());
        (0..k).step_by(stack_width).map(move |start| {
            let end = start.saturating_add(stack_width).min(k);
            RankChunk {
                col: self.col,
                c0: self.c0,
                cl,
                nb,
                v: &self.vstack.as_slice()[start * cl..end * cl],
                u: &self.ustack.as_slice()[start * nb..end * nb],
                row_block: &self.row_block[start..end],
                row_len: &self.row_len[start..end],
            }
        })
    }
}

/// A contiguous slice of a column stack's rank dimension: the workload of
/// a single CS-2 processing element, borrowed from its [`ColumnStack`].
///
/// Built only by [`ColumnStack::split`], which keeps the slices in
/// agreement: `w ≥ 1` rank columns, `v` is `cl × w` and `u` is `nb × w`
/// column-major, and `row_block` is non-decreasing.
#[derive(Clone, Copy, Debug)]
pub struct RankChunk<'a> {
    col: usize,
    c0: usize,
    cl: usize,
    nb: usize,
    v: &'a [C32],
    u: &'a [C32],
    row_block: &'a [usize],
    row_len: &'a [usize],
}

impl<'a> RankChunk<'a> {
    /// Tile-column index this chunk belongs to.
    pub fn col(&self) -> usize {
        self.col
    }

    /// The input entries this chunk reads: its tile column's `c0..c0 + cl`.
    pub fn x_range(&self) -> std::ops::Range<usize> {
        self.c0..self.c0 + self.cl
    }

    /// Chunk width `w` (number of rank columns).
    pub fn width(&self) -> usize {
        self.row_block.len()
    }

    /// Height of the U slice: the tile size `nb` the stack was built at.
    pub fn u_rows(&self) -> usize {
        self.nb
    }

    /// Valid row count of each rank column (`rl_i` of its tile row).
    pub fn row_len(&self) -> &'a [usize] {
        self.row_len
    }

    /// The output rows this chunk writes: from its first rank column's
    /// tile row to the end of its last one's.
    pub fn row_span(&self) -> std::ops::Range<usize> {
        let w = self.width();
        self.row_block[0] * self.nb..self.row_block[w - 1] * self.nb + self.row_len[w - 1]
    }

    /// Fused kernel: `y_span = Σ_r u_r (v_rᴴ x)` over
    /// [`RankChunk::row_span`], reading `x` and `xs = swap_re_im(x)` at
    /// [`RankChunk::x_range`]. The V phase runs four rank columns at a
    /// time on the lanes of [`crate::fastpath::gemv_conj_transpose_fast`];
    /// `yv` is caller-owned scratch of length [`RankChunk::width`].
    pub fn apply_into(&self, x: &[C32], xs: &[C32], yv: &mut [C32], y_span: &mut [C32]) {
        let w = self.width();
        let lens = (yv.len(), y_span.len());
        assert_eq!(lens, (w, self.row_span().len()), "yv / y_span lengths");
        let (x, xs) = (&x[self.x_range()], &xs[self.x_range()]);
        let v_col = |r: usize| &self.v[r * self.cl..(r + 1) * self.cl];
        for (q, out) in yv.chunks_mut(4).enumerate() {
            // A short last block repeats its last column and drops it.
            let d = dotc_cols::<C32, 4>(
                std::array::from_fn(|c| v_col((4 * q + c).min(w - 1))),
                x,
                xs,
            );
            out.copy_from_slice(&d[..out.len()]);
        }
        y_span.fill(CZERO);
        let base = self.row_block[0] * self.nb;
        for (r, &coeff) in yv.iter().enumerate() {
            let dst0 = self.row_block[r] * self.nb - base;
            let len = self.row_len[r];
            let ucol = &self.u[r * self.nb..][..len];
            for (d, &u) in y_span[dst0..dst0 + len].iter_mut().zip(ucol) {
                *d += u * coeff;
            }
        }
    }

    /// Complex words stored by this chunk (V + U slices).
    pub fn stored_elements(&self) -> usize {
        self.v.len() + self.u.len()
    }
}

/// One run of rank chunks on one input, as independent PEs: the swapped
/// copy of `x` every V phase reads, and per chunk its rank scratch and its
/// partial over [`RankChunk::row_span`] — all cut from one caller-owned
/// buffer when the run is built, before any traced span opens (HP01), so
/// [`ChunkRun::apply`] and [`ChunkRun::reduce_into`] allocate nothing.
pub struct ChunkRun<'b> {
    chunks: &'b [RankChunk<'b>],
    x: &'b [C32],
    xs: &'b [C32],
    /// Per chunk: `(yv, partial)`.
    segments: Vec<(&'b mut [C32], &'b mut [C32])>,
}

impl<'b> ChunkRun<'b> {
    /// Size `buf` for `chunks` on `x`, swap `x` into its head and cut the
    /// rest per chunk.
    pub fn new(chunks: &'b [RankChunk<'b>], x: &'b [C32], buf: &'b mut Vec<C32>) -> Self {
        let cut = |ch: &RankChunk| ch.width() + ch.row_span().len();
        buf.resize(x.len() + chunks.iter().map(cut).sum::<usize>(), CZERO);
        let (xs, mut rest) = buf.split_at_mut(x.len());
        swap_re_im(x, xs);
        let segments = chunks
            .iter()
            .map(|ch| {
                let (seg, tail) = std::mem::take(&mut rest).split_at_mut(cut(ch));
                rest = tail;
                seg.split_at_mut(ch.width())
            })
            .collect();
        Self {
            chunks,
            x,
            xs,
            segments,
        }
    }

    /// Every chunk's [`RankChunk::apply_into`], one parallel task each.
    pub fn apply(&mut self) {
        let (chunks, x, xs) = (self.chunks, self.x, self.xs);
        self.segments
            .par_iter_mut()
            .enumerate()
            .for_each(|(c, (yv, part))| chunks[c].apply_into(x, xs, yv, part));
    }

    /// The host reduction: `y[row_span] += partial`, chunk by chunk in
    /// order.
    pub fn reduce_into(&self, y: &mut [C32]) {
        for (ch, (_, part)) in self.chunks.iter().zip(&self.segments) {
            for (yi, &p) in y[ch.row_span()].iter_mut().zip(part.iter()) {
                *yi += p;
            }
        }
    }
}

/// The communication-avoiding layout: one [`ColumnStack`] per tile column.
pub struct CommAvoiding {
    tiling: Tiling,
    columns: Vec<ColumnStack>,
}

impl CommAvoiding {
    /// Build the layout from a TLR matrix.
    pub fn new(tlr: &TlrMatrix) -> Self {
        let tiling = *tlr.tiling();
        let mt = tiling.tile_rows();
        let nt = tiling.tile_cols();
        let nb = tiling.nb;
        let columns = (0..nt)
            .map(|j| {
                let (c0, cl) = tiling.col_range(j);
                let kj = tlr.column_rank(j);
                let mut vstack = Matrix::zeros(cl, kj);
                let mut ustack = Matrix::zeros(nb, kj);
                let mut row_block = Vec::with_capacity(kj);
                let mut row_len = Vec::with_capacity(kj);
                let mut off = 0;
                for i in 0..mt {
                    let t = tlr.tile(i, j);
                    let (_, rl) = tiling.row_range(i);
                    for r in 0..t.rank() {
                        t.copy_v_col(r, vstack.col_mut(off + r));
                        ustack.col_mut(off + r)[..rl].copy_from_slice(t.u_col(r));
                        row_block.push(i);
                        row_len.push(rl);
                    }
                    off += t.rank();
                }
                ColumnStack {
                    col: j,
                    c0,
                    cl,
                    vstack,
                    ustack,
                    row_block,
                    row_len,
                }
            })
            .collect();
        Self { tiling, columns }
    }

    /// The tile grid.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Column stacks.
    pub fn columns(&self) -> &[ColumnStack] {
        &self.columns
    }

    /// `y = Ã x`: each tile column produces a partial `y` over its rows
    /// (fused V+U, no shuffle), then the host reduces the partials —
    /// exactly the paper's CS-2 execution with the reduction step
    /// "handled by the host". [`CommAvoiding::apply_chunked`] with one
    /// chunk per column stack.
    pub fn apply(&self, x: &[C32]) -> Vec<C32> {
        self.apply_chunked(x, usize::MAX)
    }

    /// Attribute the §6.6 fused-kernel cost (4 real V MVMs + 4 real U
    /// MVMs per tile column) to the `comm_avoiding.fused` phase.
    fn trace_fused_cost(&self) {
        if !trace::is_enabled() {
            return;
        }
        let nb = self.tiling.nb;
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

    /// All rank chunks at a given stack width (the per-PE work units),
    /// borrowed from the column stacks.
    pub fn chunks(&self, stack_width: usize) -> Vec<RankChunk<'_>> {
        self.columns
            .iter()
            .flat_map(|c| c.split(stack_width))
            .collect()
    }

    /// Apply via explicit chunks of at most `stack_width` rank columns:
    /// the [`ChunkRun`] the WSE simulator executes, so the two agree bit
    /// for bit.
    pub fn apply_chunked(&self, x: &[C32], stack_width: usize) -> Vec<C32> {
        assert_eq!(x.len(), self.tiling.n);
        assert_finite("comm_avoiding.apply_chunked.x", x);
        let chunks = self.chunks(stack_width);
        self.trace_fused_cost();
        // The run's buffers are cut before the span opens (HP01).
        let (mut buf, mut y) = (Vec::new(), vec![CZERO; self.tiling.m]);
        let mut run = ChunkRun::new(&chunks, x, &mut buf);
        {
            let _span = trace::span("comm_avoiding.fused");
            run.apply();
        }
        let _span = trace::span("comm_avoiding.host_reduce");
        let spans: usize = chunks.iter().map(|ch| ch.row_span().len()).sum();
        let moved = 8 * to_u64(spans + self.tiling.m);
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
            assert_eq!(ch.v.len(), ch.x_range().len() * ch.width());
            assert_eq!(ch.u.len(), ch.u_rows() * ch.width());
            assert_eq!(ch.u_rows(), 12);
        }
        // Total chunk width must equal total rank.
        let total: usize = ca.chunks(w).iter().map(|c| c.width()).sum();
        assert_eq!(total, t.total_rank());
    }

    /// Chunks are views: every chunk's V and U slices lie inside its
    /// column stack's, and together they hold exactly the stacks' words.
    #[test]
    fn chunks_borrow_the_column_stacks_without_copying() {
        let ca = CommAvoiding::new(&tlr(67, 41, 16));
        let within = |inner: &[C32], outer: &Matrix<C32>| {
            let outer = outer.as_slice().as_ptr_range();
            let inner = inner.as_ptr_range();
            outer.start <= inner.start && inner.end <= outer.end
        };
        for w in [1usize, 3, 7, 1000] {
            let mut stored = 0;
            for cs in ca.columns() {
                for ch in cs.split(w) {
                    assert!(within(ch.v, &cs.vstack) && within(ch.u, &cs.ustack));
                    stored += ch.stored_elements();
                }
            }
            let stacks: usize = ca
                .columns()
                .iter()
                .map(|cs| cs.vstack.len() + cs.ustack.len())
                .sum();
            assert_eq!(stored, stacks, "w={w}");
        }
    }

    /// Each chunk's partial covers its own row span and nothing more,
    /// and the spans stay inside the unpadded output.
    #[test]
    fn chunk_partials_are_exactly_their_row_spans() {
        let t = tlr(67, 41, 16);
        let ca = CommAvoiding::new(&t);
        let x = test_x(41);
        for w in [1usize, 2, 5, 64] {
            let chunks = ca.chunks(w);
            let mut buf = Vec::new();
            let run = ChunkRun::new(&chunks, &x, &mut buf);
            assert_eq!(run.segments.len(), chunks.len());
            for (ch, (yv, part)) in chunks.iter().zip(&run.segments) {
                let span = ch.row_span();
                assert_eq!((yv.len(), part.len()), (ch.width(), span.len()));
                assert!(span.end <= 67);
            }
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

    /// The stacked views expand a dense tile to the `(A, I)` pair it
    /// stands for, in place: built from the hybrid store they are
    /// element for element what the same matrix with those pairs stored
    /// gives — which is what keeps every stacked-path checksum still.
    #[test]
    fn stacked_views_expand_dense_tiles_to_the_factor_pairs_they_replace() {
        use crate::matrix::test_support::{dense_tiles_as_factors, mixed_tiles, noise_tiles};
        for hybrid in [mixed_tiles().1, noise_tiles()] {
            assert!(hybrid.dense_tiles() > 0);
            let factors = dense_tiles_as_factors(&hybrid);
            let (tp, tp_f) = (ThreePhase::new(&hybrid), ThreePhase::new(&factors));
            assert_eq!(tp.vstacks, tp_f.vstacks);
            assert_eq!(tp.ustacks, tp_f.ustacks);
            assert_eq!(tp.col_offsets, tp_f.col_offsets);
            assert_eq!(tp.row_offsets, tp_f.row_offsets);
            assert_eq!(tp.shuffle_inv, tp_f.shuffle_inv);
            assert_eq!(tp.total_rank, tp_f.total_rank);
            let (ca, ca_f) = (CommAvoiding::new(&hybrid), CommAvoiding::new(&factors));
            assert_eq!(ca.columns.len(), ca_f.columns.len());
            for (c, c_f) in ca.columns.iter().zip(&ca_f.columns) {
                assert_eq!(c.vstack, c_f.vstack);
                assert_eq!(c.ustack, c_f.ustack);
                assert_eq!(c.row_block, c_f.row_block);
                assert_eq!(c.row_len, c_f.row_len);
                assert_eq!((c.col, c.c0, c.cl), (c_f.col, c_f.c0, c_f.cl));
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
