//! Register-blocked kernels for the TLR-MVM hot phases, in safe Rust.
//!
//! Each kernel is a drop-in for a [`seismic_la::blas`] routine with a
//! different (fixed) summation order, which is what lets it keep several
//! independent accumulator chains in flight:
//!
//! * [`gather`] — the phase-2 shuffle as an inverse-permutation gather
//!   (sequential stores, random loads);
//! * [`gemv_conj_transpose_fast`] — `Aᴴx` for the V-batch: four columns ×
//!   four complex lanes per step, written so that every float lane does
//!   the same multiply-add and LLVM emits packed arithmetic (DESIGN.md
//!   §12); [`gemv_conj_transpose_swapped`] is the same kernel for a
//!   caller that already holds the swapped copy of `x` it reads
//!   ([`swap_re_im`]) — [`crate::TlrMatrix::apply_adjoint_into`] makes it
//!   once per input, not once per tile;
//! * [`gemv_acc_fast`] — four-column register-blocked accumulation for
//!   the U-batch (reads `y` once per four columns instead of once per
//!   column).
//!
//! The inner loops carry no bounds checks and need no `unsafe` to get
//! there: every operand is re-sliced to one shared length (or cut into
//! fixed-size arrays by `as_chunks`) before the loop, so LLVM sees the
//! loop bound and every operand agree and drops the per-element checks
//! itself. The only check left per element is the data-dependent one in
//! [`gather`]. The unit tests below pin the result bits
//! (`fastpath_golden_bits`) as well as the agreement with the reference
//! kernels; `perfgate` holds no absolute timing of them, only quotients
//! within one run — V-batch ÷ U-batch, which is what notices a compiler
//! that stops vectorising the dot, and blocked ÷ plain V-batch.

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

/// Rows per swapped-copy block of [`gemv_conj_transpose_fast`]: the copy
/// lives in a `[C32; DOT_BLOCK]` on the stack, so the kernel never
/// touches the heap whatever the row count.
const DOT_BLOCK: usize = 64;

/// `C32` lanes each column advances per step of the conjugated dot.
const DOT_LANES: usize = 4;

/// `N` conjugated dots over one row block, every lane doing the same
/// multiply-add: with `xs[i] = (x[i].im, x[i].re)`, `p1 += a ⊙ x` and
/// `p2 += a ⊙ xs` are element-wise products over consecutive floats, and
/// `conj(a)·x = (Σ p1.re + p1.im, Σ p2.re − p2.im)` is folded once per
/// column. All slices share one length. `as_chunks` hands the loop
/// `[C32; DOT_LANES]` operands, which is what lets LLVM drop every bounds
/// check and emit packed multiplies and adds; rows past the last full
/// step go to the leading lanes.
///
/// Never inlined, on purpose: compiled out of line the loop vectorises
/// the same way whoever calls it, whereas inlined into `repro perfbench`'s
/// closure the identical source ran at half speed (a call per 4 × 64
/// products costs nothing measurable).
#[inline(never)]
fn dotc_lanes<const N: usize>(cols: [&[C32]; N], x: &[C32], xs: &[C32]) -> [C32; N] {
    fn fmac(p1: &mut C32, p2: &mut C32, a: C32, x: C32, xs: C32) {
        p1.re += a.re * x.re;
        p1.im += a.im * x.im;
        p2.re += a.re * xs.re;
        p2.im += a.im * xs.im;
    }
    let (x_steps, x_tail) = x.as_chunks::<DOT_LANES>();
    let (xs_steps, xs_tail) = xs.as_chunks::<DOT_LANES>();
    let steps = x_steps.len();
    let xs_steps = &xs_steps[..steps];
    let cols = cols.map(|c| c.as_chunks::<DOT_LANES>());
    let col_steps = cols.map(|(c, _)| &c[..steps]);
    let mut p1 = [[C32::ZERO; DOT_LANES]; N];
    let mut p2 = [[C32::ZERO; DOT_LANES]; N];
    for s in 0..steps {
        for c in 0..N {
            for l in 0..DOT_LANES {
                fmac(
                    &mut p1[c][l],
                    &mut p2[c][l],
                    col_steps[c][s][l],
                    x_steps[s][l],
                    xs_steps[s][l],
                );
            }
        }
    }
    for c in 0..N {
        for (l, ((&a, &xv), &sv)) in cols[c].1.iter().zip(x_tail).zip(xs_tail).enumerate() {
            fmac(&mut p1[c][l], &mut p2[c][l], a, xv, sv);
        }
    }
    let mut out = [C32::ZERO; N];
    for c in 0..N {
        for l in 0..DOT_LANES {
            out[c].re += p1[c][l].re + p1[c][l].im;
            out[c].im += p2[c][l].re - p2[c][l].im;
        }
    }
    out
}

/// `xs[i] = (x[i].im, x[i].re)`: the swapped copy of `x` that
/// the conjugated-dot lanes read beside `x` itself.
#[inline]
pub fn swap_re_im(x: &[C32], xs: &mut [C32]) {
    assert_eq!(x.len(), xs.len(), "swap_re_im: length mismatch");
    for (s, v) in xs.iter_mut().zip(x) {
        *s = C32::new(v.im, v.re);
    }
}

/// `N ≤ 4` conjugated dots on [`dotc_lanes`] in the forms it compiles
/// well to: four columns in lockstep (a block of three repeats its last
/// column and drops the repeat), or one column at a time. Every column's
/// dot is the same lanes whichever way it is reached.
#[inline]
pub(crate) fn dotc_cols<const N: usize>(cols: [&[C32]; N], x: &[C32], xs: &[C32]) -> [C32; N] {
    if N >= 3 {
        let d = dotc_lanes::<4>(core::array::from_fn(|c| cols[c.min(N - 1)]), x, xs);
        core::array::from_fn(|c| d[c])
    } else {
        cols.map(|c| dotc_lanes([c], x, xs)[0])
    }
}

/// `y += A[r0.., :]ᴴ x` over the `x.len()` rows from `r0`, four columns
/// at a time and the column tail in one block.
#[inline]
fn conj_transpose_block(a: &Matrix<C32>, r0: usize, x: &[C32], xs: &[C32], y: &mut [C32]) {
    fn cols<const N: usize>(
        a: &Matrix<C32>,
        j: usize,
        rows: core::ops::Range<usize>,
        x: &[C32],
        xs: &[C32],
        y: &mut [C32],
    ) {
        let cols: [&[C32]; N] = core::array::from_fn(|c| &a.col(j + c)[rows.clone()]);
        for (yj, d) in y[j..j + N].iter_mut().zip(dotc_cols(cols, x, xs)) {
            *yj += d;
        }
    }
    let rows = r0..r0 + x.len();
    let n = y.len();
    let mut j = 0;
    while j + 4 <= n {
        cols::<4>(a, j, rows.clone(), x, xs, y);
        j += 4;
    }
    match n - j {
        3 => cols::<3>(a, j, rows, x, xs, y),
        2 => cols::<2>(a, j, rows, x, xs, y),
        1 => cols::<1>(a, j, rows, x, xs, y),
        _ => {}
    }
}

/// `y = Aᴴ x` (overwrite) — drop-in for
/// [`seismic_la::blas::gemv_conj_transpose`] on the V-batch path, written
/// so LLVM vectorises it.
///
/// A conjugated dot is a serial reduction of complex products whose real
/// and imaginary lanes do different arithmetic, and LLVM may neither
/// reassociate the sum nor invent the shuffle, so the obvious loop runs
/// scalar. Here every lane is isomorphic (see `dotc_lanes`): four
/// columns advance in lockstep, four `C32` per step, against `x` and a
/// swapped copy of `x` kept on the stack per `DOT_BLOCK`-row block;
/// taller operands accumulate block by block. A caller that applies many
/// operands to one `x` makes the copy itself and calls
/// [`gemv_conj_transpose_swapped`].
#[inline]
pub fn gemv_conj_transpose_fast(a: &Matrix<C32>, x: &[C32], y: &mut [C32]) {
    assert_eq!(a.nrows(), x.len(), "gemv_h_fast: x length mismatch");
    assert_eq!(a.ncols(), y.len(), "gemv_h_fast: y length mismatch");
    y.fill(C32::ZERO);
    let mut swapped = [C32::ZERO; DOT_BLOCK];
    for (b, xb) in x.chunks(DOT_BLOCK).enumerate() {
        let xs = &mut swapped[..xb.len()];
        swap_re_im(xb, xs);
        conj_transpose_block(a, b * DOT_BLOCK, xb, xs, y);
    }
}

/// [`gemv_conj_transpose_fast`] on a caller-owned swapped copy
/// `xs = swap_re_im(x)`: the same blocks in the same order, so the same
/// bits.
#[inline]
pub fn gemv_conj_transpose_swapped(a: &Matrix<C32>, x: &[C32], xs: &[C32], y: &mut [C32]) {
    assert_eq!(a.nrows(), x.len(), "gemv_h_swapped: x length mismatch");
    assert_eq!(x.len(), xs.len(), "gemv_h_swapped: xs length mismatch");
    assert_eq!(a.ncols(), y.len(), "gemv_h_swapped: y length mismatch");
    y.fill(C32::ZERO);
    let blocks = x.chunks(DOT_BLOCK).zip(xs.chunks(DOT_BLOCK));
    for (b, (xb, xsb)) in blocks.enumerate() {
        conj_transpose_block(a, b * DOT_BLOCK, xb, xsb, y);
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
    use seismic_la::blas::{gemv_acc, gemv_conj_transpose};
    use seismic_la::scalar::{c32, C64};
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

    const GOLDEN_BITS: [u64; 3] = [
        0x05fa_5b9a_4dde_3596,
        0x7764_75ba_d411_baae,
        0xa731_89a4_958f_e2a4,
    ];

    /// The three kernels' output bits, hashed over shapes that cover full
    /// blocks and every tail length: a change of blocking factor or
    /// summation order fails here, not only in `perfgate`. The constants
    /// for `gemv_acc_fast` and `gather` are the ones captured from the
    /// `get_unchecked` kernels this module once held; the one for
    /// `gemv_conj_transpose_fast` is the isomorphic-lane kernel's, the same
    /// in debug and release builds (no product is contracted into an FMA).
    #[test]
    fn fastpath_golden_bits() {
        let mut shapes = vec![(32, 300), (63, 37), (16, 100)];
        shapes.extend((0..12).map(|n| (5, n)));
        shapes.extend((0..12).map(|m| (m, 9)));
        let mut h = [0xcbf2_9ce4_8422_2325_u64; 3];
        for (m, n) in shapes {
            let a = Matrix::from_fn(m, n, |i, j| golden(0, i * 31 + j));
            let (xm, xn) = (golden_vec(m, 1), golden_vec(n, 2));
            let mut y = vec![C32::ZERO; n];
            gemv_conj_transpose_fast(&a, &xm, &mut y);
            h[0] = fnv1a(h[0], &y);
            let mut y = golden_vec(m, 3);
            gemv_acc_fast(&a, &xn, &mut y);
            h[1] = fnv1a(h[1], &y);
            let src = golden_vec(m * n + 1, 5);
            let idx: Vec<usize> = (0..m * n).map(|p| (p * 7 + 3) % src.len()).collect();
            let mut dst = vec![C32::ZERO; idx.len()];
            gather(&mut dst, &idx, &src);
            h[2] = fnv1a(h[2], &dst);
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
            let fast = dotc_cols::<N>(core::array::from_fn(|c| cols[c].as_slice()), &x, &xs);
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

    /// `Aᴴx` evaluated by the reference kernel in `f64`, and the
    /// magnitude sum `Σ_i |a_ij||x_i|` the rounding bound scales with.
    fn conj_transpose_f64(a: &Matrix<C32>, x: &[C32]) -> (Vec<C64>, Vec<f64>) {
        let a64 = Matrix::from_fn(a.nrows(), a.ncols(), |i, j| a[(i, j)].widen());
        let x64: Vec<C64> = x.iter().map(|v| v.widen()).collect();
        let mut want = vec![C64::ZERO; a.ncols()];
        gemv_conj_transpose(&a64, &x64, &mut want);
        let mags = (0..a.ncols())
            .map(|j| {
                a64.col(j)
                    .iter()
                    .zip(&x64)
                    .map(|(p, q)| p.abs() * q.abs())
                    .sum()
            })
            .collect();
        (want, mags)
    }

    /// Full four-column blocks and every column tail, full four-row steps
    /// and every row tail, one and two (and a bit) 64-row blocks, against
    /// the `f64` reference with the bound a length-`m` FP32 dot admits:
    /// `|Δ_j| ≤ 4·m·ε₃₂·Σ_i |a_ij||x_i|`.
    #[test]
    fn fastpath_gemv_conj_transpose_within_rounding_bound_of_f64_reference() {
        let rows = (0..=9).chain([15, 16, 17, 63, 64, 65, 70, 129]);
        for m in rows {
            for n in (0..=9).chain([37]) {
                let a = Matrix::from_fn(m, n, |i, j| golden(i, j + 3));
                let x = test_vec(m, 0.4);
                let (want, mags) = conj_transpose_f64(&a, &x);
                // Dirty output: the kernel overwrites.
                let mut got = test_vec(n, 9.0);
                gemv_conj_transpose_fast(&a, &x, &mut got);
                for j in 0..n {
                    let err = (got[j].widen() - want[j]).abs();
                    let bound = 4.0 * m as f64 * f64::from(f32::EPSILON) * mags[j];
                    assert!(err <= bound, "{m}x{n} col {j}: {err} > {bound}");
                }
            }
        }
    }

    /// A NaN or infinity anywhere in `x` or in a column of `a` reaches
    /// that column's output: no lane is skipped or masked.
    #[test]
    fn fastpath_gemv_conj_transpose_propagates_non_finite_inputs() {
        for bad in [f32::NAN, f32::INFINITY] {
            for (m, n) in [(70, 9), (5, 3), (64, 4)] {
                for row in [0, m / 2, m - 1] {
                    let a = Matrix::from_fn(m, n, golden);
                    let mut x = test_vec(m, 0.4);
                    x[row] = c32(bad, 1.0);
                    let mut y = vec![C32::ZERO; n];
                    gemv_conj_transpose_fast(&a, &x, &mut y);
                    assert!(y.iter().all(|v| !v.is_finite()), "x[{row}]={bad} {m}x{n}");

                    let mut a = a;
                    a[(row, n - 1)] = c32(1.0, bad);
                    let x = test_vec(m, 0.4);
                    gemv_conj_transpose_fast(&a, &x, &mut y);
                    assert!(!y[n - 1].is_finite(), "a[{row},{}]={bad}", n - 1);
                    assert!(y[..n - 1].iter().all(|v| v.is_finite()));
                }
            }
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
