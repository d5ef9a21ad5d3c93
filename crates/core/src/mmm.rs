//! TLR-MMM: tile low-rank matrix-*matrix* multiplication — the paper's §8
//! "open research opportunity": processing multiple virtual sources
//! simultaneously by recasting TLR-MVM into a multi-right-hand-side
//! kernel.
//!
//! Arithmetic intensity grows with the RHS count `s` (the bases are
//! re-used `s` times), which "re-exacerbates the memory wall" in the
//! opposite direction: the kernel leaves the bandwidth-bound regime, but
//! per-PE SRAM must now hold `s` input and output panels.

use crate::fastpath::{gemv_acc_fast, swap_re_im};
use rayon::prelude::*;
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::accounting::{absolute_bytes, mvm_flops, TlrMvmCost};
use crate::invariant::assert_finite;
use crate::layouts::CommAvoiding;
use crate::matrix::{dense_adjoint_acc, Tile, TlrMatrix};
use crate::precision::to_u64;
use crate::trace;

/// `Y = Ã X` with `X: n × s` (one column per virtual source),
/// rayon-parallel over tile rows. The per-tile product runs as two small
/// GEMMs on the tile's own ordering of the panel rows (`T = X_J + XᴴX̃`,
/// `Y += C T`; one, `Y += A X`, for a tile stored dense) so the bases are
/// read once per tile, not once per source.
///
/// ```
/// use seismic_la::{Matrix, C32};
/// use tlr_mvm::{compress, tlr_mmm, CompressionConfig, CompressionMethod, ToleranceMode};
///
/// let a = Matrix::from_fn(64, 48, |i, j| {
///     let d = (i as f32 / 64.0 - j as f32 / 48.0).abs();
///     C32::from_polar(1.0 / (1.0 + 2.0 * d), -8.0 * d)
/// });
/// let tlr = compress(&a, CompressionConfig {
///     nb: 16,
///     acc: 1e-4,
///     method: CompressionMethod::Svd,
///     mode: ToleranceMode::RelativeTile,
/// });
/// // Four virtual sources at once: one MMM instead of four MVMs.
/// let x = Matrix::from_fn(48, 4, |i, j| C32::new((i + j) as f32 * 0.01, 0.0));
/// let y = tlr_mmm(&tlr, &x);
/// assert_eq!((y.nrows(), y.ncols()), (64, 4));
/// // Column s of Y is the MVM against column s of X.
/// let y0 = tlr.apply(x.col(0));
/// assert!(y.col(0).iter().zip(&y0).all(|(a, b)| (*a - *b).abs() < 1e-4));
/// ```
pub fn tlr_mmm(tlr: &TlrMatrix, x: &Matrix<C32>) -> Matrix<C32> {
    let t = tlr.tiling();
    assert_eq!(x.nrows(), t.n, "X row count must match operator columns");
    assert_finite("tlr_mmm.x", x.as_slice());
    let s = x.ncols();
    let mt = t.tile_rows();
    // Row panels are allocated before the span opens: the traced hot
    // phase is pure tile arithmetic (lint rule HP01).
    let mut row_panels: Vec<Matrix<C32>> = (0..mt)
        .map(|i| {
            let (_, rl) = t.row_range(i);
            Matrix::zeros(rl, s)
        })
        .collect();
    let _span = trace::span("tlr_mmm.apply");
    if trace::is_enabled() {
        let c = tlr_mmm_cost(tlr, x.ncols());
        trace::add_cost("tlr_mmm.apply", c.flops, c.relative_bytes, c.absolute_bytes);
    }

    row_panels.par_iter_mut().enumerate().for_each(|(i, y)| {
        let (_, rl) = t.row_range(i);
        for j in 0..t.tile_cols() {
            let (c0, cl) = t.col_range(j);
            let tile = tlr.tile(i, j);
            if tile.rank() == 0 {
                continue;
            }
            debug_assert_eq!(tile.shape(), (rl, cl), "tile shape mismatch");
            match tile {
                Tile::LowRank(sk) => {
                    // The panel rows in the tile's stored order: the k
                    // skeleton rows, then the others.
                    let k = sk.rank();
                    let mut xp = Matrix::zeros(cl, s);
                    for col in 0..s {
                        sk.permute_into(&x.col(col)[c0..c0 + cl], xp.col_mut(col));
                    }
                    // T = X_J + Xᴴ X̃ (k × s), then Y += C T — accumulated
                    // straight into the row panel per source column
                    // (check-free inner loop), skipping the `contrib`
                    // intermediate entirely.
                    let mut tcoef = seismic_la::blas::gemm_conj_transpose_left(
                        &sk.x(),
                        &xp.block(k, 0, cl - k, s),
                    );
                    let c = sk.c();
                    for col in 0..s {
                        for (t, &p) in tcoef.col_mut(col).iter_mut().zip(xp.col(col)) {
                            *t += p;
                        }
                        gemv_acc_fast(&c, tcoef.col(col), y.col_mut(col));
                    }
                }
                Tile::Dense(a) => {
                    for col in 0..s {
                        gemv_acc_fast(a, &x.col(col)[c0..c0 + cl], y.col_mut(col));
                    }
                }
            }
        }
    });

    let mut y = Matrix::zeros(t.m, s);
    for (i, panel) in row_panels.iter().enumerate() {
        let (r0, _) = t.row_range(i);
        y.set_block(r0, 0, panel);
    }
    assert_finite("tlr_mmm.y", y.as_slice());
    y
}

/// `X = Ãᴴ Y` with `Y: m × s` — the adjoint MMM for block solvers.
/// A skeleton tile contributes `S = CᴴY_i`, then `[S; X S]` scattered back
/// onto `X_j`; a tile stored dense `X_j += Aᴴ Y_i`, column by column.
pub fn tlr_mmm_adjoint(tlr: &TlrMatrix, y: &Matrix<C32>) -> Matrix<C32> {
    let t = tlr.tiling();
    assert_eq!(y.nrows(), t.m, "Y row count must match operator rows");
    assert_finite("tlr_mmm_adjoint.y", y.as_slice());
    let s = y.ncols();
    let nt = t.tile_cols();
    // Column panels are allocated before the span opens (lint rule HP01).
    let mut col_panels: Vec<Matrix<C32>> = (0..nt)
        .map(|j| {
            let (_, cl) = t.col_range(j);
            Matrix::zeros(cl, s)
        })
        .collect();
    // One tile-column-long vector per tile column, and the swapped copy
    // of `Y` the dense tiles' conjugated dots read.
    let nb = t.nb;
    let mut scratch = vec![C32::new(0.0, 0.0); nt * nb];
    let mut ys = Matrix::zeros(t.m, s);
    swap_re_im(y.as_slice(), ys.as_mut_slice());
    let _span = trace::span("tlr_mmm.adjoint");
    if trace::is_enabled() {
        // Same tile traffic as the forward MMM, transposed roles.
        let c = tlr_mmm_cost(tlr, y.ncols());
        trace::add_cost(
            "tlr_mmm.adjoint",
            c.flops,
            c.relative_bytes,
            c.absolute_bytes,
        );
    }

    col_panels
        .par_iter_mut()
        .zip(scratch.par_chunks_mut(nb))
        .enumerate()
        .for_each(|(j, (x, tcol))| {
            for i in 0..t.tile_rows() {
                let (r0, rl) = t.row_range(i);
                let tile = tlr.tile(i, j);
                if tile.rank() == 0 {
                    continue;
                }
                match tile {
                    Tile::LowRank(sk) => {
                        let yi = y.block(r0, 0, rl, s);
                        // S = Cᴴ Y_i (k × s), then per source column
                        // [s; X s] in stored order, scattered onto X_j.
                        let k = sk.rank();
                        let tcoef = seismic_la::blas::gemm_conj_transpose_left(&sk.c(), &yi);
                        let xk = sk.x();
                        for col in 0..s {
                            let (head, rest) = tcol[..x.nrows()].split_at_mut(k);
                            head.copy_from_slice(tcoef.col(col));
                            rest.fill(C32::new(0.0, 0.0));
                            gemv_acc_fast(&xk, head, rest);
                            sk.scatter_add(&tcol[..x.nrows()], x.col_mut(col));
                        }
                    }
                    Tile::Dense(a) => {
                        for col in 0..s {
                            dense_adjoint_acc(
                                a,
                                &y.col(col)[r0..r0 + rl],
                                &ys.col(col)[r0..r0 + rl],
                                tcol,
                                x.col_mut(col),
                            );
                        }
                    }
                }
            }
        });

    let mut x = Matrix::zeros(t.n, s);
    for (j, panel) in col_panels.iter().enumerate() {
        let (c0, _) = t.col_range(j);
        x.set_block(c0, 0, panel);
    }
    assert_finite("tlr_mmm_adjoint.x", x.as_slice());
    x
}

/// Communication-avoiding MMM over the stacked layout: per tile column,
/// `T_j = Vstack_jᴴ X_j` then the U scatter — the natural CS-2 extension
/// where each PE's chunk processes all `s` sources before the host
/// reduction.
///
/// ```
/// use seismic_la::{Matrix, C32};
/// use tlr_mvm::{
///     comm_avoiding_mmm, compress, tlr_mmm, CommAvoiding, CompressionConfig,
///     CompressionMethod, ToleranceMode,
/// };
///
/// let a = Matrix::from_fn(60, 45, |i, j| {
///     let d = (i as f32 / 60.0 - j as f32 / 45.0).abs();
///     C32::from_polar(1.0 / (1.0 + 3.0 * d), -6.0 * d)
/// });
/// let tlr = compress(&a, CompressionConfig {
///     nb: 12,
///     acc: 1e-4,
///     method: CompressionMethod::Svd,
///     mode: ToleranceMode::RelativeTile,
/// });
/// let ca = CommAvoiding::new(&tlr);
/// let x = Matrix::from_fn(45, 3, |i, j| C32::new(0.02 * i as f32, 0.01 * j as f32));
/// // The shuffle-free CS-2 layout computes the same product.
/// let y_ca = comm_avoiding_mmm(&ca, &x);
/// let y_tp = tlr_mmm(&tlr, &x);
/// assert!(y_ca.sub(&y_tp).fro_norm() < 1e-4 * y_tp.fro_norm().max(1.0));
/// ```
pub fn comm_avoiding_mmm(ca: &CommAvoiding, x: &Matrix<C32>) -> Matrix<C32> {
    let t = ca.tiling();
    assert_eq!(x.nrows(), t.n);
    assert_finite("comm_avoiding_mmm.x", x.as_slice());
    let s = x.ncols();
    let nb = t.nb;
    let padded_m = t.tile_rows() * nb;
    // Partials are allocated before the span opens (lint rule HP01).
    let mut partials: Vec<Matrix<C32>> = ca
        .columns()
        .iter()
        .map(|_| Matrix::zeros(padded_m, s))
        .collect();
    let _span = trace::span("tlr_mmm.comm_avoiding");

    partials.par_iter_mut().enumerate().for_each(|(c, part)| {
        let cs = &ca.columns()[c];
        let xj = x.block(cs.c0, 0, cs.cl, s);
        let tcoef = seismic_la::blas::gemm_conj_transpose_left(&cs.vstack, &xj);
        for col in 0..s {
            for r in 0..cs.rank() {
                let coeff = tcoef[(r, col)];
                if coeff == C32::new(0.0, 0.0) {
                    continue;
                }
                let dst0 = cs.row_block[r] * nb;
                let len = cs.row_len[r];
                let ucol = &cs.ustack.col(r)[..len];
                let out = &mut part.col_mut(col)[dst0..dst0 + len];
                for (o, &u) in out.iter_mut().zip(ucol) {
                    *o += u * coeff;
                }
            }
        }
    });

    let mut y = Matrix::zeros(t.m, s);
    for part in &partials {
        for col in 0..s {
            let src = part.col(col);
            for (yi, &pi) in y.col_mut(col).iter_mut().zip(src) {
                *yi += pi;
            }
        }
    }
    assert_finite("comm_avoiding_mmm.y", y.as_slice());
    y
}

/// Cost of one TLR-MMM with `s` right-hand sides in the
/// complex-as-4-real execution model: flops scale by `s`, but the base
/// matrices are read once per chunk — arithmetic intensity grows ~`s`×
/// until the panel traffic dominates.
pub fn tlr_mmm_cost(tlr: &TlrMatrix, s: usize) -> TlrMvmCost {
    let t = tlr.tiling();
    let nb = t.nb;
    let s64 = to_u64(s);
    let mut cost = TlrMvmCost::default();
    for j in 0..t.tile_cols() {
        let (_, cl) = t.col_range(j);
        let kj = tlr.column_rank(j);
        if kj == 0 {
            continue;
        }
        let (kj64, cl64, nb64) = (to_u64(kj), to_u64(cl), to_u64(nb));
        // Flops: s MVMs worth.
        cost.flops += 4 * s64 * (mvm_flops(kj, cl) + mvm_flops(nb, kj));
        // Bytes: bases read once (the MMM win); panels read/written per s.
        // Relative model: bases + s·(x + t + y) vectors.
        let bases = 4u64 * 4 * (kj64 * cl64 + nb64 * kj64);
        let panels = 4u64 * 4 * s64 * (cl64 + 2 * kj64 + nb64);
        cost.relative_bytes += bases + panels;
        // Absolute (flat SRAM): no cache, no reuse — each of the s
        // sources pays the full per-MVM traffic, so absolute intensity
        // does not improve with s (the §8 re-exacerbated memory wall).
        cost.absolute_bytes += 4 * s64 * (absolute_bytes(kj, cl) + absolute_bytes(nb, kj));
        cost.total_rank += kj64;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressionConfig, CompressionMethod, ToleranceMode};
    use seismic_la::blas::gemm as dense_gemm;

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
                acc: 1e-5,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        )
    }

    fn rhs(n: usize, s: usize) -> Matrix<C32> {
        Matrix::from_fn(n, s, |i, j| {
            C32::new((i as f32 * 0.3 + j as f32).sin(), (i as f32 * 0.17).cos())
        })
    }

    #[test]
    fn mmm_matches_dense_gemm() {
        let t = tlr(60, 45, 12);
        let x = rhs(45, 5);
        let y = tlr_mmm(&t, &x);
        let want = dense_gemm(&t.reconstruct(), &x);
        assert!(y.sub(&want).fro_norm() < 1e-4 * want.fro_norm());
    }

    #[test]
    fn mmm_columns_match_mvm() {
        let t = tlr(50, 40, 10);
        let x = rhs(40, 4);
        let y = tlr_mmm(&t, &x);
        for col in 0..4 {
            let yv = t.apply(x.col(col));
            for (a, b) in y.col(col).iter().zip(&yv) {
                assert!((*a - *b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn adjoint_mmm_matches_mvm_adjoint() {
        let t = tlr(48, 36, 12);
        let y = rhs(48, 3);
        let x = tlr_mmm_adjoint(&t, &y);
        for col in 0..3 {
            let xv = t.apply_adjoint(y.col(col));
            for (a, b) in x.col(col).iter().zip(&xv) {
                assert!((*a - *b).abs() < 1e-4);
            }
        }
    }

    /// A tile stored dense goes through the kernels `apply` /
    /// `apply_adjoint` use, one source column at a time: on a matrix whose
    /// tiles are all dense or rank 0 the MMM is the MVM bit for bit; on one
    /// that also holds low-rank tiles (whose `VᴴX` runs on the reference
    /// GEMM) it is within rounding, for one right-hand side and for four.
    #[test]
    fn mmm_on_dense_tiles_matches_mvm_column_by_column() {
        use crate::matrix::test_support::{mixed_tiles, noise_tiles};
        let bits = |v: &[C32]| -> Vec<(u32, u32)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let dist = |a: &[C32], b: &[C32]| {
            let d: Vec<C32> = a.iter().zip(b).map(|(p, q)| *p - *q).collect();
            seismic_la::blas::nrm2(&d)
        };
        for (t, exact) in [(noise_tiles(), true), (mixed_tiles().1, false)] {
            let (m, n) = t.shape();
            let a_norm = t.reconstruct().fro_norm();
            for s in [1, 4] {
                let (x, y) = (rhs(n, s), rhs(m, s));
                let (fwd, adj) = (tlr_mmm(&t, &x), tlr_mmm_adjoint(&t, &y));
                for col in 0..s {
                    let (want_f, want_a) = (t.apply(x.col(col)), t.apply_adjoint(y.col(col)));
                    if exact {
                        assert_eq!(bits(fwd.col(col)), bits(&want_f), "forward");
                        assert_eq!(bits(adj.col(col)), bits(&want_a), "adjoint");
                    }
                    assert!(dist(fwd.col(col), &want_f) <= 1e-5 * a_norm * x.fro_norm());
                    assert!(dist(adj.col(col), &want_a) <= 1e-5 * a_norm * y.fro_norm());
                }
            }
        }
    }

    #[test]
    fn comm_avoiding_mmm_agrees() {
        let t = tlr(67, 53, 16); // ragged
        let ca = CommAvoiding::new(&t);
        let x = rhs(53, 6);
        let y1 = comm_avoiding_mmm(&ca, &x);
        let y2 = tlr_mmm(&t, &x);
        assert!(y1.sub(&y2).fro_norm() < 1e-4 * y2.fro_norm().max(1.0));
    }

    #[test]
    fn intensity_grows_with_rhs_count() {
        // §8: the MMM recast raises arithmetic intensity (relative model)
        // because the bases amortize over the sources.
        let t = tlr(80, 64, 16);
        let i1 = tlr_mmm_cost(&t, 1).relative_intensity();
        let i8 = tlr_mmm_cost(&t, 8).relative_intensity();
        let i64 = tlr_mmm_cost(&t, 64).relative_intensity();
        assert!(i8 > 2.0 * i1, "i1={i1} i8={i8}");
        assert!(i64 > i8);
        // Absolute (flat-SRAM) intensity does NOT improve: no cache, no
        // reuse — this is exactly why the memory wall re-appears on CS-2.
        let a1 = tlr_mmm_cost(&t, 1).absolute_intensity();
        let a64 = tlr_mmm_cost(&t, 64).absolute_intensity();
        assert!((a1 - a64).abs() < 0.05 * a1);
    }

    #[test]
    fn single_rhs_cost_matches_mvm_cost() {
        let t = tlr(64, 48, 16);
        let mvm = crate::accounting::tlr_mvm_cost(&t);
        let mmm = tlr_mmm_cost(&t, 1);
        assert_eq!(mvm.flops, mmm.flops);
        assert_eq!(mvm.absolute_bytes, mmm.absolute_bytes);
    }
}
