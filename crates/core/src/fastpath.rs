//! Register-blocked kernels for the TLR-MVM hot phases, in safe Rust.
//!
//! Each kernel is a drop-in for a [`seismic_la::blas`] routine with a
//! different (fixed) summation order, which is what lets it keep several
//! independent accumulator chains in flight:
//!
//! * [`gather`] — the phase-2 shuffle as an inverse-permutation gather
//!   (sequential stores, random loads);
//! * [`gemv_acc_fast`] — four-column register-blocked accumulation for
//!   the U-batch (reads `y` once per four columns instead of once per
//!   column).
//!
//! The conjugated dot of the skeleton tiles is
//! `seismic_la::blas::dotc_lanes` (reached through
//! [`seismic_la::blas::dotc_cols`]), the kernel the write side's QR and
//! Jacobi factorisations run on too; [`crate::TlrMatrix`]'s adjoint runs
//! a tile column's dense runs through its lane step as the blocks of one
//! stack (`seismic_la::blas::gemv_conj_transpose_stacked`), and its
//! forward product runs [`gemv_acc_fast`] over each run's full height.
//!
//! The inner loops carry no bounds checks and need no `unsafe` to get
//! there: every operand is re-sliced to one shared length (or cut into
//! fixed-size arrays by `as_chunks`) before the loop, so LLVM sees the
//! loop bound and every operand agree and drops the per-element checks
//! itself. The only check left per element is the data-dependent one in
//! [`gather`]. The unit tests below pin the result bits
//! (`fastpath_golden_bits`) as well as the agreement with the reference
//! kernels; `tests/lane_ratios.rs` holds no absolute timing of them, only
//! quotients within one release run of the stacked dot (the adjoint's
//! V batch) — over [`gemv_acc_fast`] (the U batch), which notices a
//! compiler that stops vectorising the dot, and over the plain
//! `seismic_la::blas` V-batch kernel.

pub(crate) use seismic_la::blas::dotc_cols;
pub use seismic_la::blas::swap_re_im;
use seismic_la::dense::Matrix;
use seismic_la::scalar::{Scalar, C32};

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

/// `y += Σ_c cols[c]·x[c]` in one pass over `y`: the `N` products of a row
/// are added to it left to right.
#[inline]
pub(crate) fn axpy_cols<S: Scalar, const N: usize>(cols: [&[S]; N], x: [S; N], y: &mut [S]) {
    let m = y.len();
    let cols = cols.map(|c| &c[..m]);
    for i in 0..m {
        let mut acc = y[i];
        for c in 0..N {
            acc += cols[c][i] * x[c];
        }
        y[i] = acc;
    }
}

/// `y += Σ_k col(cols.start + k)·t[k]`: four columns per pass over `y`, the
/// tail in one block of three, two or one — the order [`gemv_acc_fast`]
/// adds in, over any run of columns of a stored tile.
#[inline]
pub(crate) fn axpy_blocks<'a>(
    col: impl Fn(usize) -> &'a [C32],
    cols: core::ops::Range<usize>,
    t: &[C32],
    y: &mut [C32],
) {
    fn block<'a, const N: usize>(
        col: &impl Fn(usize) -> &'a [C32],
        j: usize,
        t: &[C32],
        y: &mut [C32],
    ) {
        axpy_cols::<C32, N>(
            core::array::from_fn(|c| col(j + c)),
            core::array::from_fn(|c| t[c]),
            y,
        );
    }
    assert_eq!(
        cols.len(),
        t.len(),
        "axpy_blocks: one coefficient per column"
    );
    for (k, tk) in t.chunks(4).enumerate() {
        let j = cols.start + 4 * k;
        match tk.len() {
            1 => block::<1>(&col, j, tk, y),
            2 => block::<2>(&col, j, tk, y),
            3 => block::<3>(&col, j, tk, y),
            _ => block::<4>(&col, j, tk, y),
        }
    }
}

/// `y += A x` with four-column register blocking — drop-in for
/// [`seismic_la::blas::gemv_acc`] on the U-batch path.
///
/// The column-sweep `gemv_acc` streams `y` through the cache once per
/// column; blocking four columns cuts that traffic 4×. The column tail is
/// one block of three, two or one (`axpy_cols`), which rounds as the
/// column-at-a-time tail did.
#[inline]
pub fn gemv_acc_fast<S: Scalar>(a: &Matrix<S>, x: &[S], y: &mut [S]) {
    assert_eq!(a.ncols(), x.len(), "gemv_acc_fast: x length mismatch");
    assert_eq!(a.nrows(), y.len(), "gemv_acc_fast: y length mismatch");
    fn tail<S: Scalar, const N: usize>(a: &Matrix<S>, j: usize, x: &[S], y: &mut [S]) {
        axpy_cols::<S, N>(
            core::array::from_fn(|c| a.col(j + c)),
            core::array::from_fn(|c| x[j + c]),
            y,
        );
    }
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
    match n - j {
        3 => tail::<S, 3>(a, j, x, y),
        2 => tail::<S, 2>(a, j, x, y),
        1 => tail::<S, 1>(a, j, x, y),
        _ => {}
    }
}

/// What the golden-bit tests (`fastpath_golden_bits`, and
/// `sweep_golden_bits` in `core::matrix`) share: inputs and a hash of
/// output bits.
#[cfg(test)]
pub(crate) mod golden {
    use seismic_la::scalar::{c32, C32};

    /// Inexact (÷7) but libm-free values in `[−2, 2]²`: every product and
    /// partial sum rounds, so the result bits depend on the summation
    /// order and on nothing platform-specific.
    pub(crate) fn golden(i: usize, salt: usize) -> C32 {
        let part = |k: usize| ((k * 37 + salt * 11) % 29) as f32 / 7.0 - 2.0;
        c32(part(i), part(i + 13))
    }

    pub(crate) fn golden_vec(n: usize, salt: usize) -> Vec<C32> {
        (0..n).map(|i| golden(i, salt)).collect()
    }

    /// FNV-1a over the little-endian bits of `v`, continuing from `h`.
    pub(crate) fn fnv1a(mut h: u64, v: &[C32]) -> u64 {
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
}

#[cfg(test)]
mod tests {
    use super::golden::{fnv1a, golden, golden_vec};
    use super::*;
    use seismic_la::blas::{gemv_acc, gemv_conj_transpose_stacked};
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

    const GOLDEN_BITS: [u64; 2] = [0x7764_75ba_d411_baae, 0xa731_89a4_958f_e2a4];

    /// The two kernels' output bits, hashed over shapes that cover full
    /// blocks and every tail length: a change of blocking factor or
    /// summation order fails here, whatever it does to a timing. The
    /// constants for `gemv_acc_fast` and `gather` are the ones captured from
    /// the `get_unchecked` kernels this module once held, the same in debug
    /// and release builds (no product is contracted into an FMA).
    #[test]
    fn fastpath_golden_bits() {
        let mut shapes = vec![(32, 300), (63, 37), (16, 100)];
        shapes.extend((0..12).map(|n| (5, n)));
        shapes.extend((0..12).map(|m| (m, 9)));
        let mut h = [0xcbf2_9ce4_8422_2325_u64; 2];
        for (m, n) in shapes {
            let a = Matrix::from_fn(m, n, |i, j| golden(0, i * 31 + j));
            let xn = golden_vec(n, 2);
            let mut y = golden_vec(m, 3);
            gemv_acc_fast(&a, &xn, &mut y);
            h[0] = fnv1a(h[0], &y);
            let src = golden_vec(m * n + 1, 5);
            let idx: Vec<usize> = (0..m * n).map(|p| (p * 7 + 3) % src.len()).collect();
            let mut dst = vec![C32::ZERO; idx.len()];
            gather(&mut dst, &idx, &src);
            h[1] = fnv1a(h[1], &dst);
        }
        assert_eq!(h, GOLDEN_BITS, "{h:#018x?}");
    }

    const STACKED_GOLDEN_BITS: u64 = 0x7fd7_11b5_2d96_42dc;

    /// The stacked dot's output bits (`gemv_conj_transpose_stacked`, the
    /// dense half of `TlrMatrix`'s per-column adjoint), hashed over stacks
    /// whose blocks end on every lane tail and widths that run every column
    /// form — four in lockstep, three as four, two and one singly. The
    /// same constant holds in debug and release builds.
    #[test]
    fn stacked_dot_golden_bits() {
        let stacks: [&[usize]; 6] = [&[], &[2], &[8, 3], &[16, 16, 16], &[5, 0, 9, 1], &[7, 6, 4]];
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for heights in stacks {
            for n in (0..=9).chain([16]) {
                let blocks: Vec<(Matrix<C32>, Vec<C32>, Vec<C32>)> = heights
                    .iter()
                    .enumerate()
                    .map(|(b, &m)| {
                        let a = Matrix::from_fn(m, n, |i, j| golden(i * 31 + j, b));
                        let x = golden_vec(m, b + 1);
                        let mut xs = vec![C32::ZERO; m];
                        swap_re_im(&x, &mut xs);
                        (a, x, xs)
                    })
                    .collect();
                let stack: Vec<(&Matrix<C32>, &[C32], &[C32])> = blocks
                    .iter()
                    .map(|(a, x, xs)| (a, x.as_slice(), xs.as_slice()))
                    .collect();
                let mut y = golden_vec(n, 9);
                gemv_conj_transpose_stacked(&stack, &mut y);
                h = fnv1a(h, &y);
            }
        }
        assert_eq!(h, STACKED_GOLDEN_BITS, "{h:#018x}");
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

    /// The module's one conjugated dot, `dotc_cols`, in each of its forms
    /// (four columns in lockstep, three through the repeated column, two
    /// and one singly) against the reference `dotc`, over every row tail
    /// of the four-lane step.
    #[test]
    fn fastpath_dotc_matches_reference_for_all_tail_lengths() {
        fn check<const N: usize>(n: usize) {
            let cols: Vec<Vec<C32>> = (0..N).map(|c| test_vec(n, 0.1 + 0.3 * c as f32)).collect();
            let x = test_vec(n, 1.7);
            let mut xs = vec![C32::ZERO; n];
            swap_re_im(&x, &mut xs);
            let fast = dotc_cols::<C32, N>(core::array::from_fn(|c| cols[c].as_slice()), &x, &xs);
            for (c, (&got, col)) in fast.iter().zip(&cols).enumerate() {
                let reference = seismic_la::blas::dotc(col, &x);
                assert!(
                    close(got, reference, 1e-4 * (n as f32 + 1.0)),
                    "N={N} column {c} n={n}: {got:?} vs {reference:?}"
                );
            }
        }
        for n in 0..33 {
            check::<1>(n);
            check::<2>(n);
            check::<3>(n);
            check::<4>(n);
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
