//! The linear-operator abstraction shared by the MDC/MDD solver stack.

use seismic_la::blas::{gemv, gemv_conj_transpose};
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::matrix::TlrMatrix;

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
}

impl LinearOperator for Matrix<C32> {
    fn nrows(&self) -> usize {
        Matrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        Matrix::ncols(self)
    }
    fn apply(&self, x: &[C32]) -> Vec<C32> {
        let mut y = vec![C32::new(0.0, 0.0); Matrix::nrows(self)];
        gemv(self, x, &mut y);
        y
    }
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        let mut x = vec![C32::new(0.0, 0.0); Matrix::ncols(self)];
        gemv_conj_transpose(self, y, &mut x);
        x
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
