//! BLAS-like kernels used throughout the workspace.
//!
//! All matrix kernels sweep columns (axpy-style), matching the access
//! pattern the paper's CS-2 `fmac` loops use and keeping the inner loop on
//! contiguous memory. None is parallel: TLR tiles are small (`nb <= 70`),
//! so the concurrency lives across tiles, in the callers.

use core::borrow::Borrow;

use crate::dense::Matrix;
use crate::scalar::{Real, Scalar};

/// `y += alpha * x`.
#[inline]
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Conjugated dot product `xᴴ y`.
#[inline]
pub fn dotc<S: Scalar>(x: &[S], y: &[S]) -> S {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = S::ZERO;
    for (&xi, &yi) in x.iter().zip(y) {
        acc += xi.conj() * yi;
    }
    acc
}

/// Scalars each column advances per step of the lane kernels below: four
/// `C32` fill one 256-bit register.
const LANES: usize = 4;

/// `a + x ⊙ y`, the parts multiplied pairwise: `(a.re + x.re·y.re,
/// a.im + x.im·y.im)`. Every float lane does the same multiply-add, which
/// is what lets LLVM pack a step of `LANES` of them.
#[inline(always)]
fn hadamard_add<S: Scalar>(a: S, x: S, y: S) -> S {
    S::from_parts(
        a.real() + x.real() * y.real(),
        a.imag() + x.imag() * y.imag(),
    )
}

/// `xs[i] = (x[i].im, x[i].re)`: the swapped copy of `x` the lane kernels
/// read beside `x` itself (all zeros for a real scalar).
#[inline]
pub fn swap_re_im<S: Scalar>(x: &[S], xs: &mut [S]) {
    assert_eq!(x.len(), xs.len(), "swap_re_im: length mismatch");
    for (s, v) in xs.iter_mut().zip(x) {
        *s = S::from_parts(v.imag(), v.real());
    }
}

/// `N` conjugated dots `cols[c]ᴴ x` in one pass, every lane doing the same
/// multiply-add: with `xs = swap_re_im(x)`, `p1 += a ⊙ x` and `p2 += a ⊙ xs`
/// are element-wise products over consecutive floats, and
/// `conj(a)·x = (Σ p1.re + p1.im, Σ p2.re − p2.im)` is folded once per
/// column. All slices share one length (checked once per call). `as_chunks`
/// hands the loop `[S; LANES]` operands, zipped step by step, which is what
/// lets LLVM drop every bounds check and emit packed multiplies and adds;
/// rows past the last full step go to the leading lanes.
///
/// This is the workspace's one vectorised conjugated dot: the MVM's
/// V-batch and skeleton kernels (`tlr_mvm::fastpath`) and the QR and
/// Jacobi factorisations here all run on it, and [`dotc_lanes_stacked`]
/// runs its lane step and fold down a stack of blocks.
///
/// Never inlined, on purpose: compiled out of line the loop vectorises the
/// same way whoever calls it, whereas inlined into a benchmark closure the
/// identical source ran at half speed (a call per 4 × 64 products costs
/// nothing measurable).
#[inline(never)]
pub fn dotc_lanes<S: Scalar, const N: usize>(cols: [&[S]; N], x: &[S], xs: &[S]) -> [S; N] {
    let mut p1 = [[S::ZERO; LANES]; N];
    let mut p2 = [[S::ZERO; LANES]; N];
    lane_step(&mut p1, &mut p2, cols, x, xs);
    lane_fold(&p1, &p2)
}

/// One block of a stack the stacked dot kernels run down: a matrix, the
/// vector its rows are dotted with and that vector's swapped copy
/// (`swap_re_im(x_b)`).
pub type StackedBlock<'a, S> = (&'a Matrix<S>, &'a [S], &'a [S]);

/// `N` conjugated dots down a stack of blocks, `Σ_b a_b[:, cols[c]]ᴴ x_b`,
/// each block a [`StackedBlock`] `(a_b, x_b, xs_b)`, by value or by
/// reference (a slice of them, or an iterator that makes them). The lane
/// step of [`dotc_lanes`] runs over every block's rows in turn, into one
/// set of lanes, and the lanes are folded once at the end, not once per
/// block. Each block's rows past its last full step go to the leading
/// lanes, so one block gives [`dotc_lanes`]' bits. Column indices may
/// repeat (a block of three run as four); no block gives zeros.
///
/// Never inlined, for the reason [`dotc_lanes`] is not.
#[inline(never)]
pub fn dotc_lanes_stacked<'a, S: Scalar + 'a, const N: usize>(
    blocks: impl IntoIterator<Item: Borrow<StackedBlock<'a, S>>>,
    cols: [usize; N],
) -> [S; N] {
    let mut p1 = [[S::ZERO; LANES]; N];
    let mut p2 = [[S::ZERO; LANES]; N];
    for block in blocks {
        let &(a, x, xs) = block.borrow();
        debug_assert!(a.nrows() == x.len() && x.len() == xs.len());
        let a_cols: [&[S]; N] = core::array::from_fn(|k| a.col(cols[k]));
        lane_step(&mut p1, &mut p2, a_cols, x, xs);
    }
    lane_fold(&p1, &p2)
}

/// The lane step of the dot kernels above: `p1 += a ⊙ x`, `p2 += a ⊙ xs`
/// over the rows of `cols`, `LANES` rows per step and the tail into the
/// leading lanes. At most four columns: the steps of four are zipped with
/// `x`'s and `xs`', so the loop indexes nothing. (Indexing the columns'
/// steps by step number left one bounds check per step in the
/// four-column loop: LLVM proves it only after the column slices are out
/// of the array `map` builds, when the loop passes have run.)
#[inline(always)]
fn lane_step<S: Scalar, const N: usize>(
    p1: &mut [[S; LANES]; N],
    p2: &mut [[S; LANES]; N],
    cols: [&[S]; N],
    x: &[S],
    xs: &[S],
) {
    const { assert!(N <= 4, "at most four columns per lane step") };
    assert!(
        xs.len() == x.len() && cols.iter().all(|c| c.len() == x.len()),
        "lane step: length mismatch"
    );
    let (x_steps, x_tail) = x.as_chunks::<LANES>();
    let (xs_steps, xs_tail) = xs.as_chunks::<LANES>();
    let cols = cols.map(|c| c.as_chunks::<LANES>());
    // Fewer than four columns repeat the last one, whose steps are never
    // read.
    let [c0, c1, c2, c3] = core::array::from_fn(|k| cols[k.min(N - 1)].0);
    let steps = x_steps.iter().zip(xs_steps).zip(c0).zip(c1).zip(c2).zip(c3);
    for (((((xv, sv), a0), a1), a2), a3) in steps {
        let a = [a0, a1, a2, a3];
        for c in 0..N {
            for l in 0..LANES {
                p1[c][l] = hadamard_add(p1[c][l], a[c][l], xv[l]);
                p2[c][l] = hadamard_add(p2[c][l], a[c][l], sv[l]);
            }
        }
    }
    for c in 0..N {
        for (l, ((&a, &xv), &sv)) in cols[c].1.iter().zip(x_tail).zip(xs_tail).enumerate() {
            p1[c][l] = hadamard_add(p1[c][l], a, xv);
            p2[c][l] = hadamard_add(p2[c][l], a, sv);
        }
    }
}

/// The fold of the dot kernels above, once per column:
/// `(Σ p1.re + p1.im, Σ p2.re − p2.im)`.
#[inline(always)]
fn lane_fold<S: Scalar, const N: usize>(p1: &[[S; LANES]; N], p2: &[[S; LANES]; N]) -> [S; N] {
    core::array::from_fn(|c| {
        let (mut re, mut im) = (S::Real::ZERO, S::Real::ZERO);
        for l in 0..LANES {
            re += p1[c][l].real() + p1[c][l].imag();
            im += p2[c][l].real() - p2[c][l].imag();
        }
        S::from_parts(re, im)
    })
}

/// `N ≤ 4` conjugated dots `cols[c]ᴴ x` on [`dotc_lanes`] in the forms it compiles
/// well to: four columns in lockstep (a block of three repeats its last
/// column and drops the repeat), or one column at a time. Every column's
/// dot is the same lanes whichever way it is reached.
#[inline]
pub fn dotc_cols<S: Scalar, const N: usize>(cols: [&[S]; N], x: &[S], xs: &[S]) -> [S; N] {
    if N >= 3 {
        let d = dotc_lanes::<S, 4>(core::array::from_fn(|c| cols[c.min(N - 1)]), x, xs);
        core::array::from_fn(|c| d[c])
    } else {
        cols.map(|c| dotc_lanes([c], x, xs)[0])
    }
}

/// `y = Σ_b a_bᴴ x_b` (overwrite) down a stack of blocks of `y.len()`
/// columns each, as [`dotc_lanes_stacked`] takes them (the stack is walked
/// once per block of columns, so it must be cheap to clone), in the forms
/// [`dotc_cols`] runs: four columns in lockstep, a tail of three as four
/// with its last column repeated, one or two singly. An empty stack leaves
/// `y` zero.
pub fn gemv_conj_transpose_stacked<'a, S: Scalar + 'a, I>(blocks: I, y: &mut [S])
where
    I: IntoIterator<Item: Borrow<StackedBlock<'a, S>>> + Clone,
{
    for block in blocks.clone() {
        let &(a, x, xs) = block.borrow();
        assert!(
            a.ncols() == y.len() && a.nrows() == x.len() && x.len() == xs.len(),
            "gemv_h_stacked: block shape mismatch"
        );
    }
    for (k, yk) in y.chunks_mut(4).enumerate() {
        let j = 4 * k;
        match yk.len() {
            4 => yk.copy_from_slice(&dotc_lanes_stacked(
                blocks.clone(),
                [j, j + 1, j + 2, j + 3],
            )),
            3 => yk.copy_from_slice(
                &dotc_lanes_stacked(blocks.clone(), [j, j + 1, j + 2, j + 2])[..3],
            ),
            _ => {
                for (c, yc) in yk.iter_mut().enumerate() {
                    *yc = dotc_lanes_stacked(blocks.clone(), [j + c])[0];
                }
            }
        }
    }
}

/// `‖x‖²`: each `|x_i|²` taken in the working precision and accumulated in
/// `f64`, element `i` into lane `i mod LANES`, the lanes combined as
/// `(a₀ + a₁) + (a₂ + a₃)`. Rounding `|x_i|²` in the working precision is
/// what the column pivoting of [`crate::qr::pivoted_qr_until`] has always
/// seen: on near-tied columns it decides the pivot, so it is kept (squares
/// taken in `f64` moved 17 of the 3,060 RRQR tiles of the benchmark's
/// `sweep-large` stack by one rank).
#[inline(never)]
pub fn norm_sq<S: Scalar>(x: &[S]) -> f64 {
    let (steps, tail) = x.as_chunks::<LANES>();
    let mut acc = [0.0f64; LANES];
    for step in steps {
        for (l, &v) in step.iter().enumerate() {
            acc[l] += v.abs_sqr().to_f64();
        }
    }
    for (l, &v) in tail.iter().enumerate() {
        acc[l] += v.abs_sqr().to_f64();
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Euclidean norm with f64 accumulation.
pub fn nrm2<S: Scalar>(x: &[S]) -> S::Real {
    let mut acc = 0.0f64;
    for v in x {
        acc += v.abs_sqr().to_f64();
    }
    S::Real::from_f64(acc.sqrt())
}

/// `y = A x` (overwrite), column-sweep.
pub fn gemv<S: Scalar>(a: &Matrix<S>, x: &[S], y: &mut [S]) {
    assert_eq!(a.ncols(), x.len(), "gemv: x length mismatch");
    assert_eq!(a.nrows(), y.len(), "gemv: y length mismatch");
    y.fill(S::ZERO);
    gemv_acc(a, x, y);
}

/// `y += A x`, column-sweep.
pub fn gemv_acc<S: Scalar>(a: &Matrix<S>, x: &[S], y: &mut [S]) {
    assert_eq!(a.ncols(), x.len(), "gemv_acc: x length mismatch");
    assert_eq!(a.nrows(), y.len(), "gemv_acc: y length mismatch");
    for (j, &xj) in x.iter().enumerate() {
        if xj == S::ZERO {
            continue;
        }
        axpy(xj, a.col(j), y);
    }
}

/// `y = Aᴴ x` (overwrite); each output element is a conjugated column dot.
pub fn gemv_conj_transpose<S: Scalar>(a: &Matrix<S>, x: &[S], y: &mut [S]) {
    assert_eq!(a.nrows(), x.len(), "gemv_h: x length mismatch");
    assert_eq!(a.ncols(), y.len(), "gemv_h: y length mismatch");
    for (j, yj) in y.iter_mut().enumerate() {
        *yj = dotc(a.col(j), x);
    }
}

/// `y += Aᴴ x`.
pub fn gemv_conj_transpose_acc<S: Scalar>(a: &Matrix<S>, x: &[S], y: &mut [S]) {
    assert_eq!(a.nrows(), x.len(), "gemv_h_acc: x length mismatch");
    assert_eq!(a.ncols(), y.len(), "gemv_h_acc: y length mismatch");
    for (j, yj) in y.iter_mut().enumerate() {
        *yj += dotc(a.col(j), x);
    }
}

/// `C = A B`.
pub fn gemm<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    assert_eq!(a.ncols(), b.nrows(), "gemm: inner dimension mismatch");
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    for j in 0..b.ncols() {
        let bj = b.col(j);
        let cj = c.col_mut(j);
        for (k, &bkj) in bj.iter().enumerate() {
            if bkj == S::ZERO {
                continue;
            }
            axpy(bkj, a.col(k), cj);
        }
    }
    c
}

/// `C = Aᴴ B`.
pub fn gemm_conj_transpose_left<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    assert_eq!(a.nrows(), b.nrows(), "gemm_h: dimension mismatch");
    let mut c = Matrix::zeros(a.ncols(), b.ncols());
    for j in 0..b.ncols() {
        let bj = b.col(j);
        for i in 0..a.ncols() {
            c[(i, j)] = dotc(a.col(i), bj);
        }
    }
    c
}

/// `C = A Bᴴ`.
pub fn gemm_conj_transpose_right<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    assert_eq!(a.ncols(), b.ncols(), "gemm_bh: dimension mismatch");
    let mut c = Matrix::zeros(a.nrows(), b.nrows());
    for j in 0..b.nrows() {
        let cj = c.col_mut(j);
        for k in 0..a.ncols() {
            let w = b[(j, k)].conj();
            if w == S::ZERO {
                continue;
            }
            axpy(w, a.col(k), cj);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{c32, C32};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn naive_gemv(a: &Matrix<C32>, x: &[C32]) -> Vec<C32> {
        (0..a.nrows())
            .map(|i| {
                let mut s = C32::ZERO;
                for j in 0..a.ncols() {
                    s += a[(i, j)] * x[j];
                }
                s
            })
            .collect()
    }

    fn rand_vec(n: usize, rng: &mut ChaCha8Rng) -> Vec<C32> {
        use crate::dense::normal_sample;
        (0..n)
            .map(|_| c32(normal_sample(rng) as f32, normal_sample(rng) as f32))
            .collect()
    }

    #[test]
    fn gemv_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::<C32>::random_normal(9, 7, &mut rng);
        let x = rand_vec(7, &mut rng);
        let mut y = vec![C32::ZERO; 9];
        gemv(&a, &x, &mut y);
        let want = naive_gemv(&a, &x);
        for (got, want) in y.iter().zip(&want) {
            assert!((*got - *want).abs() < 1e-4);
        }
    }

    #[test]
    fn gemv_conj_transpose_is_adjoint() {
        // <A x, y> == <x, Aᴴ y>
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Matrix::<C32>::random_normal(8, 5, &mut rng);
        let x = rand_vec(5, &mut rng);
        let y = rand_vec(8, &mut rng);
        let mut ax = vec![C32::ZERO; 8];
        gemv(&a, &x, &mut ax);
        let mut ahy = vec![C32::ZERO; 5];
        gemv_conj_transpose(&a, &y, &mut ahy);
        let lhs = dotc(&y, &ax); // <y, Ax>
        let rhs = dotc(&ahy, &x); // <Aᴴy, x>
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn gemm_associates_with_gemv() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = Matrix::<C32>::random_normal(6, 4, &mut rng);
        let b = Matrix::<C32>::random_normal(4, 3, &mut rng);
        let x = rand_vec(3, &mut rng);
        let ab = gemm(&a, &b);
        let mut bx = vec![C32::ZERO; 4];
        gemv(&b, &x, &mut bx);
        let mut abx1 = vec![C32::ZERO; 6];
        gemv(&a, &bx, &mut abx1);
        let mut abx2 = vec![C32::ZERO; 6];
        gemv(&ab, &x, &mut abx2);
        for (p, q) in abx1.iter().zip(&abx2) {
            assert!((*p - *q).abs() < 1e-3);
        }
    }

    #[test]
    fn gemm_h_left_matches_explicit() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = Matrix::<C32>::random_normal(6, 4, &mut rng);
        let b = Matrix::<C32>::random_normal(6, 3, &mut rng);
        let c1 = gemm_conj_transpose_left(&a, &b);
        let c2 = gemm(&a.conj_transpose(), &b);
        assert!(c1.sub(&c2).max_abs() < 1e-4);
    }

    #[test]
    fn gemm_h_right_matches_explicit() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = Matrix::<C32>::random_normal(6, 4, &mut rng);
        let b = Matrix::<C32>::random_normal(5, 4, &mut rng);
        let c1 = gemm_conj_transpose_right(&a, &b);
        let c2 = gemm(&a, &b.conj_transpose());
        assert!(c1.sub(&c2).max_abs() < 1e-4);
    }

    /// The lengths the lane kernels are checked at: every tail of the
    /// four-lane step around one and two steps, a full 16, every tail
    /// around 32, and 64.
    const LANE_LENGTHS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 32, 33, 64];

    fn lane_vec(n: usize, salt: usize, rng: &mut ChaCha8Rng) -> Vec<C32> {
        let mut v = rand_vec(n, rng);
        // Magnitudes graded over four decades, so no two terms are alike.
        for (i, z) in v.iter_mut().enumerate() {
            *z = z.scale(10f32.powi(-(((i * 7 + salt) % 5) as i32)));
        }
        v
    }

    fn swapped(x: &[C32]) -> Vec<C32> {
        let mut xs = vec![C32::ZERO; x.len()];
        swap_re_im(x, &mut xs);
        xs
    }

    /// `dotc_lanes` (through `dotc_cols`, in all four widths) against `xᴴy`
    /// summed in `f64`, within the bound a length-`n` FP32 dot admits,
    /// `|Δ| ≤ 2·n·ε₃₂·Σ|a_i||x_i|`; a zero column gives exactly zero.
    #[test]
    fn dotc_lanes_within_rounding_bound_of_f64_reference() {
        fn check<const N: usize>(n: usize, rng: &mut ChaCha8Rng) {
            let mut cols: Vec<Vec<C32>> = (0..N).map(|c| lane_vec(n, c, rng)).collect();
            cols[N - 1].fill(C32::ZERO);
            let x = lane_vec(n, 9, rng);
            let got = dotc_cols::<C32, N>(
                core::array::from_fn(|c| cols[c].as_slice()),
                &x,
                &swapped(&x),
            );
            for (c, col) in cols.iter().enumerate() {
                let (mut want, mut mag) = (crate::scalar::C64::ZERO, 0.0f64);
                for (a, v) in col.iter().zip(&x) {
                    want += a.widen().conj() * v.widen();
                    mag += f64::from(a.abs()) * f64::from(v.abs());
                }
                let err = (got[c].widen() - want).abs();
                let bound = 2.0 * n as f64 * f64::from(f32::EPSILON) * mag;
                assert!(err <= bound, "N={N} n={n} col {c}: {err} > {bound}");
            }
            assert_eq!(got[N - 1], C32::ZERO, "zero column, N={N} n={n}");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for n in LANE_LENGTHS {
            check::<1>(n, &mut rng);
            check::<2>(n, &mut rng);
            check::<3>(n, &mut rng);
            check::<4>(n, &mut rng);
        }
    }

    /// `dotc_lanes_stacked` against `Σ_b a_bᴴ x_b` summed in `f64`, within
    /// `4·M·ε₃₂·Σ|a||x|` (`M` the stacked rows), on every stack of one to
    /// three blocks of heights 0 to 9 (each lane tail, and blocks with no
    /// rows): one column at a time, four in lockstep, and three as four
    /// with the last one repeated, whose repeat returns the same bits. A
    /// single block gives `dotc_lanes`' bits; no rows give exactly zero.
    #[test]
    fn dotc_lanes_stacked_within_rounding_bound_of_f64_reference() {
        const COLS: usize = 5;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut stacks = Vec::new();
        for h0 in 0..10 {
            stacks.push(vec![h0]);
            for h1 in 0..10 {
                stacks.push(vec![h0, h1]);
                stacks.extend((0..10).map(|h2| vec![h0, h1, h2]));
            }
        }
        for heights in stacks {
            let blocks: Vec<(Matrix<C32>, Vec<C32>)> = heights
                .iter()
                .enumerate()
                .map(|(b, &h)| {
                    let a = Matrix::from_col_major(h, COLS, lane_vec(h * COLS, b, &mut rng));
                    (a, lane_vec(h, b + 3, &mut rng))
                })
                .collect();
            let swaps: Vec<Vec<C32>> = blocks.iter().map(|(_, x)| swapped(x)).collect();
            let stack: Vec<(&Matrix<C32>, &[C32], &[C32])> = blocks
                .iter()
                .zip(&swaps)
                .map(|((a, x), xs)| (a, x.as_slice(), xs.as_slice()))
                .collect();
            let rows: usize = heights.iter().sum();
            let check = |c: usize, got: C32, form: &str| {
                let (mut want, mut mag) = (crate::scalar::C64::ZERO, 0.0f64);
                for (a, x) in &blocks {
                    for (p, q) in a.col(c).iter().zip(x) {
                        want += p.widen().conj() * q.widen();
                        mag += f64::from(p.abs()) * f64::from(q.abs());
                    }
                }
                let err = (got.widen() - want).abs();
                let bound = 4.0 * rows as f64 * f64::from(f32::EPSILON) * mag;
                assert!(
                    err <= bound,
                    "{form}, heights {heights:?}, col {c}: {err} > {bound}"
                );
            };
            for c in 0..COLS {
                let one = dotc_lanes_stacked(&stack, [c])[0];
                check(c, one, "N = 1");
                if let [(a, x, xs)] = stack[..] {
                    assert_eq!(one, dotc_lanes([a.col(c)], x, xs)[0], "one block, col {c}");
                }
            }
            let four = dotc_lanes_stacked(&stack, [0, 1, 2, 3]);
            (0..4).for_each(|c| check(c, four[c], "N = 4"));
            let three = dotc_lanes_stacked(&stack, [1, 2, 4, 4]);
            [1, 2, 4]
                .into_iter()
                .zip(three)
                .for_each(|(c, d)| check(c, d, "three as four"));
            assert_eq!(three[3].real().to_bits(), three[2].real().to_bits());
            assert_eq!(three[3].imag().to_bits(), three[2].imag().to_bits());
            if rows == 0 {
                assert_eq!(four, [C32::ZERO; 4]);
            }
        }
    }

    /// A column pair whose dot product is subnormal in `f32` (the case that
    /// once turned Jacobi's phase into NaN): the lanes return it finite,
    /// within the bound plus one subnormal step per term.
    #[test]
    fn dotc_lanes_keeps_a_subnormal_dot_finite() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in LANE_LENGTHS {
            let a: Vec<C32> = rand_vec(n, &mut rng)
                .iter()
                .map(|z| z.scale(3e-23))
                .collect();
            let x: Vec<C32> = rand_vec(n, &mut rng)
                .iter()
                .map(|z| z.scale(2e-23))
                .collect();
            let got = dotc_lanes([a.as_slice()], &x, &swapped(&x))[0];
            assert!(got.is_finite(), "n={n}: {got:?}");
            assert!(
                got.abs() < f32::MIN_POSITIVE,
                "n={n}: {got:?} is not subnormal"
            );
            let want: crate::scalar::C64 = a
                .iter()
                .zip(&x)
                .map(|(p, q)| p.widen().conj() * q.widen())
                .sum();
            let mag: f64 = a
                .iter()
                .zip(&x)
                .map(|(p, q)| f64::from(p.abs()) * f64::from(q.abs()))
                .sum();
            let step = f64::from(f32::from_bits(1));
            let bound = 2.0 * n as f64 * (f64::from(f32::EPSILON) * mag + 2.0 * step);
            let err = (got.widen() - want).abs();
            assert!(err <= bound, "n={n}: {err} > {bound}");
        }
    }

    /// `norm_sq` against `‖x‖²` summed in `f64` from exact squares: each
    /// `|x_i|²` rounds once per product and once in the sum of the two, so
    /// `|Δ| ≤ 3ε₃₂·‖x‖²`; a zero column gives exactly zero.
    #[test]
    fn norm_sq_within_rounding_bound_of_f64_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for n in LANE_LENGTHS {
            let x = lane_vec(n, 1, &mut rng);
            let want: f64 = x.iter().map(|z| z.widen().norm_sqr()).sum();
            let err = (norm_sq(&x) - want).abs();
            assert!(err <= 3.0 * f64::from(f32::EPSILON) * want, "n={n}: {err}");
            assert!(crate::scalar::exactly_zero_f64(norm_sq(&vec![
                C32::ZERO;
                n
            ])));
        }
    }

    #[test]
    fn nrm2_and_axpy() {
        let x = vec![c32(3.0, 0.0), c32(0.0, 4.0)];
        assert!((nrm2(&x) - 5.0).abs() < 1e-6);
        let mut y = vec![c32(1.0, 0.0), c32(0.0, 1.0)];
        axpy(c32(2.0, 0.0), &x, &mut y);
        assert_eq!(y[0], c32(7.0, 0.0));
        assert_eq!(y[1], c32(0.0, 9.0));
    }
}
