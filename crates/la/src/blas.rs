//! BLAS-like kernels used throughout the workspace.
//!
//! All matrix kernels sweep columns (axpy-style), matching the access
//! pattern the paper's CS-2 `fmac` loops use and keeping the inner loop on
//! contiguous memory. None is parallel: TLR tiles are small (`nb <= 70`),
//! so the concurrency lives across tiles, in the callers.

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

/// `Σ_{i<len} term(i)` on four accumulators, term `i` into accumulator
/// `i mod 4`, combined as `(a₀ + a₁) + (a₂ + a₃)`: a column reduction is
/// otherwise one serial chain of dependent adds, which is what these
/// factorisations spend their time waiting on.
#[inline(always)]
pub(crate) fn sum4<T: Copy + core::ops::Add<Output = T>>(
    zero: T,
    len: usize,
    term: impl Fn(usize) -> T,
) -> T {
    let mut acc = [zero; 4];
    let head = len - len % 4;
    for i in (0..head).step_by(4) {
        acc[0] = acc[0] + term(i);
        acc[1] = acc[1] + term(i + 1);
        acc[2] = acc[2] + term(i + 2);
        acc[3] = acc[3] + term(i + 3);
    }
    for i in head..len {
        acc[i - head] = acc[i - head] + term(i);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `‖x‖²` accumulated in `f64` ([`sum4`]).
#[inline]
pub(crate) fn norm_sq<S: Scalar>(x: &[S]) -> f64 {
    sum4(0.0f64, x.len(), |i| x[i].abs_sqr().to_f64())
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
