//! The linear-operator abstraction shared by the MDC/MDD solver stack.
//!
//! Two entry points per direction: `apply` / `apply_adjoint` return a
//! fresh vector and are the only *required* methods; `apply_into` /
//! `apply_adjoint_into` write a caller-owned buffer and are what the
//! solvers call, so an iteration allocates no operator output. Every
//! implementor in the workspace writes the `_into` pair natively and
//! defines the allocating pair as `vec![0; n]` + `_into`, so both give
//! the same bits; an operator that implements only the required pair
//! (a timing or counting wrapper) reaches the solver through the
//! provided defaults.

use seismic_la::blas::{gemv, gemv_conj_transpose};
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::matrix::TlrMatrix;

const CZERO: C32 = C32::new(0.0, 0.0);

/// A complex linear operator `A: ℂⁿ → ℂᵐ` with an adjoint — the interface
/// LSQR and the MDC operator are written against, so dense, TLR, and
/// composite operators are interchangeable.
pub trait LinearOperator: Sync {
    /// Output dimension `m`.
    fn nrows(&self) -> usize;
    /// Input dimension `n`.
    fn ncols(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &[C32]) -> Vec<C32>;
    /// `x = Aᴴ y`.
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32>;
    /// `y = A x` into a caller-owned buffer (`y.len() == nrows()`; the
    /// previous contents are overwritten). Defaults to [`Self::apply`]
    /// and a copy.
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        y.copy_from_slice(&self.apply(x));
    }
    /// `x = Aᴴ y` into a caller-owned buffer (`x.len() == ncols()`).
    /// Defaults to [`Self::apply_adjoint`] and a copy.
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        x.copy_from_slice(&self.apply_adjoint(y));
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn ncols(&self) -> usize {
        (**self).ncols()
    }
    fn apply(&self, x: &[C32]) -> Vec<C32> {
        (**self).apply(x)
    }
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        (**self).apply_adjoint(y)
    }
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        (**self).apply_into(x, y);
    }
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        (**self).apply_adjoint_into(y, x);
    }
}

impl LinearOperator for Matrix<C32> {
    fn nrows(&self) -> usize {
        Matrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        Matrix::ncols(self)
    }
    fn apply(&self, x: &[C32]) -> Vec<C32> {
        let mut y = vec![CZERO; Matrix::nrows(self)];
        self.apply_into(x, &mut y);
        y
    }
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        let mut x = vec![CZERO; Matrix::ncols(self)];
        self.apply_adjoint_into(y, &mut x);
        x
    }
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        gemv(self, x, y);
    }
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        gemv_conj_transpose(self, y, x);
    }
}

impl LinearOperator for TlrMatrix {
    fn nrows(&self) -> usize {
        self.shape().0
    }
    fn ncols(&self) -> usize {
        self.shape().1
    }
    fn apply(&self, x: &[C32]) -> Vec<C32> {
        TlrMatrix::apply(self, x)
    }
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        TlrMatrix::apply_adjoint(self, y)
    }
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        TlrMatrix::apply_into(self, x, y);
    }
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        TlrMatrix::apply_adjoint_into(self, y, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seismic_la::blas::dotc;

    fn rand_cvec(n: usize, seed: u64) -> Vec<C32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                C32::new(
                    seismic_la::dense::normal_sample(&mut rng) as f32,
                    seismic_la::dense::normal_sample(&mut rng) as f32,
                )
            })
            .collect()
    }

    #[test]
    fn dense_operator_adjoint_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let a = Matrix::<C32>::random_normal(8, 5, &mut rng);
        let x = rand_cvec(5, 102);
        let y = rand_cvec(8, 103);
        let lhs = dotc(&y, &a.apply(&x));
        let rhs = dotc(&a.apply_adjoint(&y), &x);
        assert!((lhs - rhs).abs() < 1e-3);
    }
}
