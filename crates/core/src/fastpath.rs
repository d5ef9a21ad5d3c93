//! Register-blocked kernels for the TLR-MVM hot phases, in safe Rust.
//!
//! Each kernel is a drop-in for a [`seismic_la::blas`] routine with a
//! different (fixed) summation order, which is what lets it keep several
//! independent accumulator chains in flight:
//!
//! * [`gather`] — the phase-2 shuffle as an inverse-permutation gather
//!   (sequential stores, random loads);
//! * [`dotc_fast`] / [`gemv_conj_transpose_fast`] — four-accumulator
//!   conjugated dots and eight-column-blocked Aᴴx for the V-batch
//!   (shares each `x` load across eight columns);
//! * [`gemv_acc_fast`] — four-column register-blocked accumulation for
//!   the U-batch (reads `y` once per four columns instead of once per
//!   column).
//!
//! The inner loops carry no bounds checks and need no `unsafe` to get
//! there: every blocked column is re-sliced to `&a.col(j)[..m]` before the
//! loop, so LLVM sees one length `m` shared by the loop bound and every
//! operand and drops the per-element checks itself. The only check left
//! per element is the data-dependent one in [`gather`]. The unit tests
//! below pin the result bits (`fastpath_golden_bits`) as well as the
//! agreement with the reference kernels; `perfgate` gates the speed
//! against `BENCH_table2.json`.

use seismic_la::blas::axpy;
use seismic_la::dense::Matrix;
use seismic_la::scalar::Scalar;

/// Permutation gather `dst[p] = src[idx[p]]` — the three-phase shuffle
/// (paper Fig. 6) as a gather over the inverse permutation.
///
/// Sequential stores, random loads: the loads are independent, so they
/// overlap freely. Each one is bounds-checked against `src` where it
/// happens (one well-predicted compare per element); an out-of-range
/// index panics at the offending element, after the elements before it
/// have been written. Entries of `idx` past `dst.len()` are ignored.
#[inline]
pub fn gather<S: Scalar>(dst: &mut [S], idx: &[usize], src: &[S]) {
    assert!(dst.len() <= idx.len());
    for (d, &q) in dst.iter_mut().zip(idx) {
        *d = src[q];
    }
}

/// Conjugated dot `xᴴ y` with four independent accumulators.
///
/// The plain zip loop serializes on one accumulator, and LLVM must not
/// reassociate FP adds on its own. Splitting the sum is a semantic change
/// (different rounding order) we make deliberately; the remainder of the
/// length modulo four is folded into the first accumulator.
#[inline]
pub fn dotc_fast<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert!(x.len() == y.len());
    let mut a0 = S::ZERO;
    let mut a1 = S::ZERO;
    let mut a2 = S::ZERO;
    let mut a3 = S::ZERO;
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (p, q) in xc.zip(yc) {
        a0 += p[0].conj() * q[0];
        a1 += p[1].conj() * q[1];
        a2 += p[2].conj() * q[2];
        a3 += p[3].conj() * q[3];
    }
    for (&p, &q) in xr.iter().zip(yr) {
        a0 += p.conj() * q;
    }
    (a0 + a1) + (a2 + a3)
}

/// `y = Aᴴ x` (overwrite) with eight-column blocking — drop-in for
/// [`seismic_la::blas::gemv_conj_transpose`] on the V-batch path.
///
/// Eight conjugated dots advance in lockstep sharing each `x` load, so
/// the block reads `1.125` values per product instead of `2`, and the
/// eight independent accumulator chains keep the FP pipes full — the
/// win on a load-throughput-bound host. The column tail falls back to
/// [`dotc_fast`].
#[inline]
pub fn gemv_conj_transpose_fast<S: Scalar>(a: &Matrix<S>, x: &[S], y: &mut [S]) {
    assert_eq!(a.nrows(), x.len(), "gemv_h_fast: x length mismatch");
    assert_eq!(a.ncols(), y.len(), "gemv_h_fast: y length mismatch");
    let m = x.len();
    let n = y.len();
    let mut j = 0;
    while j + 8 <= n {
        let c0 = &a.col(j)[..m];
        let c1 = &a.col(j + 1)[..m];
        let c2 = &a.col(j + 2)[..m];
        let c3 = &a.col(j + 3)[..m];
        let c4 = &a.col(j + 4)[..m];
        let c5 = &a.col(j + 5)[..m];
        let c6 = &a.col(j + 6)[..m];
        let c7 = &a.col(j + 7)[..m];
        let mut a0 = S::ZERO;
        let mut a1 = S::ZERO;
        let mut a2 = S::ZERO;
        let mut a3 = S::ZERO;
        let mut a4 = S::ZERO;
        let mut a5 = S::ZERO;
        let mut a6 = S::ZERO;
        let mut a7 = S::ZERO;
        for i in 0..m {
            let xi = x[i];
            a0 += c0[i].conj() * xi;
            a1 += c1[i].conj() * xi;
            a2 += c2[i].conj() * xi;
            a3 += c3[i].conj() * xi;
            a4 += c4[i].conj() * xi;
            a5 += c5[i].conj() * xi;
            a6 += c6[i].conj() * xi;
            a7 += c7[i].conj() * xi;
        }
        y[j] = a0;
        y[j + 1] = a1;
        y[j + 2] = a2;
        y[j + 3] = a3;
        y[j + 4] = a4;
        y[j + 5] = a5;
        y[j + 6] = a6;
        y[j + 7] = a7;
        j += 8;
    }
    while j < n {
        y[j] = dotc_fast(a.col(j), x);
        j += 1;
    }
}

/// `y += A x` with four-column register blocking — drop-in for
/// [`seismic_la::blas::gemv_acc`] on the U-batch path.
///
/// The column-sweep `gemv_acc` streams `y` through the cache once per
/// column; blocking four columns cuts that traffic 4×. The column tail
/// falls back to [`axpy`].
#[inline]
pub fn gemv_acc_fast<S: Scalar>(a: &Matrix<S>, x: &[S], y: &mut [S]) {
    assert_eq!(a.ncols(), x.len(), "gemv_acc_fast: x length mismatch");
    assert_eq!(a.nrows(), y.len(), "gemv_acc_fast: y length mismatch");
    let m = y.len();
    let n = x.len();
    let mut j = 0;
    while j + 4 <= n {
        let c0 = &a.col(j)[..m];
        let c1 = &a.col(j + 1)[..m];
        let c2 = &a.col(j + 2)[..m];
        let c3 = &a.col(j + 3)[..m];
        let x0 = x[j];
        let x1 = x[j + 1];
        let x2 = x[j + 2];
        let x3 = x[j + 3];
        for i in 0..m {
            y[i] = y[i] + c0[i] * x0 + c1[i] * x1 + c2[i] * x2 + c3[i] * x3;
        }
        j += 4;
    }
    while j < n {
        axpy(x[j], a.col(j), y);
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_la::blas::{gemv_acc, gemv_conj_transpose};
    use seismic_la::scalar::c32;
    use seismic_la::C32;

    fn close(a: C32, b: C32, tol: f32) -> bool {
        (a - b).abs() < tol
    }

    fn vecs_close(a: &[C32], b: &[C32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&p, &q)) in a.iter().zip(b).enumerate() {
            assert!(close(p, q, tol), "element {i}: {p:?} vs {q:?}");
        }
    }

    fn test_vec(n: usize, phase: f32) -> Vec<C32> {
        (0..n)
            .map(|i| {
                let t = i as f32 * 0.37 + phase;
                c32(t.sin(), t.cos() * 0.5)
            })
            .collect()
    }

    /// Inexact (÷7) but libm-free values: every product and partial sum
    /// rounds, so the result bits depend on the summation order and on
    /// nothing platform-specific.
    fn golden(i: usize, salt: usize) -> C32 {
        let part = |k: usize| ((k * 37 + salt * 11) % 29) as f32 / 7.0 - 2.0;
        c32(part(i), part(i + 13))
    }

    fn golden_vec(n: usize, salt: usize) -> Vec<C32> {
        (0..n).map(|i| golden(i, salt)).collect()
    }

    fn fnv1a(mut h: u64, v: &[C32]) -> u64 {
        for z in v {
            for b in
                z.re.to_bits()
                    .to_le_bytes()
                    .into_iter()
                    .chain(z.im.to_bits().to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    const GOLDEN_BITS: [u64; 4] = [
        0x825b_b236_c60e_1c3d,
        0x7764_75ba_d411_baae,
        0xd793_5990_ea73_da92,
        0xa731_89a4_958f_e2a4,
    ];

    /// The four kernels' output bits, hashed over shapes that cover full
    /// blocks and every tail length. The constants were captured from the
    /// `get_unchecked` kernels this module replaced: a change of blocking
    /// factor or summation order fails here, not only in `perfgate`.
    #[test]
    fn fastpath_golden_bits() {
        let mut shapes = vec![(32, 300), (63, 37), (16, 100)];
        shapes.extend((0..12).map(|n| (5, n)));
        shapes.extend((0..12).map(|m| (m, 9)));
        let mut h = [0xcbf2_9ce4_8422_2325_u64; 4];
        for (m, n) in shapes {
            let a = Matrix::from_fn(m, n, |i, j| golden(0, i * 31 + j));
            let (xm, xn) = (golden_vec(m, 1), golden_vec(n, 2));
            let mut y = vec![C32::ZERO; n];
            gemv_conj_transpose_fast(&a, &xm, &mut y);
            h[0] = fnv1a(h[0], &y);
            let mut y = golden_vec(m, 3);
            gemv_acc_fast(&a, &xn, &mut y);
            h[1] = fnv1a(h[1], &y);
            h[2] = fnv1a(h[2], &[dotc_fast(&xm, &golden_vec(m, 4))]);
            let src = golden_vec(m * n + 1, 5);
            let idx: Vec<usize> = (0..m * n).map(|p| (p * 7 + 3) % src.len()).collect();
            let mut dst = vec![C32::ZERO; idx.len()];
            gather(&mut dst, &idx, &src);
            h[3] = fnv1a(h[3], &dst);
        }
        assert_eq!(h, GOLDEN_BITS, "{h:#018x?}");
    }

    #[test]
    fn fastpath_gather_matches_safe_loop() {
        // A permutation with non-trivial structure, a gather from a larger
        // source, a destination shorter than the index vector (the
        // surplus indices are ignored, even out-of-range ones), and the
        // empty gather.
        for (ndst, nidx, nsrc) in [(16, 16, 16), (9, 9, 9), (7, 7, 31), (5, 9, 9), (0, 0, 0)] {
            let src = test_vec(nsrc, 0.0);
            let mut idx: Vec<usize> = (0..nidx).map(|p| (p * 7 + 3) % nsrc).collect();
            if let Some(last) = idx.get_mut(ndst) {
                *last = nsrc + 1;
            }
            let mut safe = vec![C32::ZERO; ndst];
            for (p, d) in safe.iter_mut().enumerate() {
                *d = src[idx[p]];
            }
            let mut fast = vec![C32::ZERO; ndst];
            gather(&mut fast, &idx, &src);
            // Pure moves — the results must be bit-identical, not just close.
            assert_eq!(fast, safe);
        }
    }

    /// The index is checked where it is used, so the panic comes at the
    /// offending element (the three before it are already written)
    /// rather than before the first write.
    #[test]
    #[should_panic]
    fn fastpath_gather_rejects_out_of_range_index() {
        let src = test_vec(4, 0.0);
        let idx = vec![0usize, 1, 2, 9];
        let mut dst = vec![C32::ZERO; 4];
        gather(&mut dst, &idx, &src);
    }

    #[test]
    #[should_panic]
    fn fastpath_gather_rejects_short_index_vector() {
        gather(&mut [C32::ZERO; 3], &[0, 1], &test_vec(4, 0.0));
    }

    #[test]
    fn fastpath_dotc_matches_reference_for_all_tail_lengths() {
        for n in 0..33 {
            let x = test_vec(n, 0.1);
            let y = test_vec(n, 1.7);
            let fast = dotc_fast(&x, &y);
            let reference = seismic_la::blas::dotc(&x, &y);
            assert!(
                close(fast, reference, 1e-4 * (n as f32 + 1.0)),
                "n={n}: {fast:?} vs {reference:?}"
            );
        }
    }

    #[test]
    fn fastpath_gemv_conj_transpose_matches_reference() {
        for (m, n) in [
            (16, 12),
            (17, 5),
            (10, 6),
            (9, 7),
            (3, 8),
            (20, 9),
            (21, 10),
            (19, 11),
            (12, 15),
            (64, 64),
            // Degenerate: no rows (the output is still overwritten), no
            // columns, fewer columns than one block.
            (0, 0),
            (0, 3),
            (0, 9),
            (7, 0),
            (7, 1),
            (7, 3),
        ] {
            let a = Matrix::from_fn(m, n, |i, j| c32((i * 3 + j) as f32 * 0.01, j as f32 * 0.02));
            let x = test_vec(m, 0.4);
            let mut reference = vec![C32::ZERO; n];
            gemv_conj_transpose(&a, &x, &mut reference);
            let mut fast = test_vec(n, 9.0);
            gemv_conj_transpose_fast(&a, &x, &mut fast);
            vecs_close(&fast, &reference, 1e-3);
        }
    }

    #[test]
    fn fastpath_gemv_acc_matches_reference_for_all_column_tails() {
        // Every column tail, fewer columns than one block (`n < 4`), no
        // columns (`y` untouched) and no rows.
        let tails = (0..=12).map(|n| (23, n));
        for (m, n) in tails.chain([(0, 0), (0, 3), (0, 6)]) {
            let a = Matrix::from_fn(m, n, |i, j| c32(i as f32 * 0.03 - j as f32 * 0.05, 0.11));
            let x = test_vec(n, 2.2);
            let mut reference = test_vec(m, 5.0);
            let mut fast = reference.clone();
            gemv_acc(&a, &x, &mut reference);
            gemv_acc_fast(&a, &x, &mut fast);
            vecs_close(&fast, &reference, 1e-3);
        }
    }
}
