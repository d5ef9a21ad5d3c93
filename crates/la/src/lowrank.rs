//! Low-rank factor pair `A ≈ U·Vᴴ` — the common output of every
//! compression backend (truncated SVD, RRQR, randomized SVD).

use crate::blas::{gemm_conj_transpose_right, gemv_acc, gemv_conj_transpose};
use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Rank-`k` factorization `A ≈ U Vᴴ` with `U: m×k`, `V: n×k`.
///
/// The `V` factor is stored *unconjugated and untransposed* (`n×k`), matching
/// the paper's "V bases": the first TLR-MVM phase computes `Vᴴ x` with a
/// conjugate-transpose gemv over the stacked bases.
#[derive(Clone, Debug)]
pub struct LowRank<S: Scalar> {
    /// Left factor `U` (`m × k`).
    pub u: Matrix<S>,
    /// Right factor `V` (`n × k`), applied conjugate-transposed.
    pub v: Matrix<S>,
}

impl<S: Scalar> LowRank<S> {
    /// Pair up factors; panics if the rank dimensions disagree.
    pub fn new(u: Matrix<S>, v: Matrix<S>) -> Self {
        assert_eq!(
            u.ncols(),
            v.ncols(),
            "U and V must share the rank dimension"
        );
        Self { u, v }
    }

    /// Rank `k`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.u.ncols()
    }

    /// `(m, n)` of the approximated matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.u.nrows(), self.v.nrows())
    }

    /// Number of stored scalars (`k·(m+n)`).
    #[inline]
    pub fn stored_elements(&self) -> usize {
        self.u.len() + self.v.len()
    }

    /// Densify: `U Vᴴ`.
    pub fn to_dense(&self) -> Matrix<S> {
        gemm_conj_transpose_right(&self.u, &self.v)
    }

    /// `y += (U Vᴴ) x` via the two-stage product (`t = Vᴴx`, `y += U t`).
    pub fn apply_acc(&self, x: &[S], y: &mut [S]) {
        debug_assert_eq!(x.len(), self.v.nrows(), "x length must match n");
        debug_assert_eq!(y.len(), self.u.nrows(), "y length must match m");
        let mut t = vec![S::ZERO; self.rank()];
        gemv_conj_transpose(&self.v, x, &mut t);
        gemv_acc(&self.u, &t, y);
    }

    /// `y += (U Vᴴ)ᴴ x = (V Uᴴ) x` — adjoint application for LSQR.
    pub fn apply_adjoint_acc(&self, x: &[S], y: &mut [S]) {
        debug_assert_eq!(x.len(), self.u.nrows(), "x length must match m");
        debug_assert_eq!(y.len(), self.v.nrows(), "y length must match n");
        let mut t = vec![S::ZERO; self.rank()];
        gemv_conj_transpose(&self.u, x, &mut t);
        gemv_acc(&self.v, &t, y);
    }

    /// An exact (rank = n) representation of a dense matrix: `U = A`,
    /// `V = I`. Used when a tile refuses to compress below full rank.
    pub fn dense_as_lowrank(a: &Matrix<S>) -> Self {
        let n = a.ncols();
        Self {
            u: a.clone(),
            v: Matrix::eye(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{dotc, gemm, gemv};
    use crate::scalar::C64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn apply_matches_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let u = Matrix::<C64>::random_normal(8, 3, &mut rng);
        let v = Matrix::<C64>::random_normal(6, 3, &mut rng);
        let lr = LowRank::new(u, v);
        let d = lr.to_dense();
        let x: Vec<C64> = (0..6)
            .map(|i| crate::scalar::c64(0.3 * i as f64, 1.0 - i as f64))
            .collect();
        let mut y1 = vec![C64::ZERO; 8];
        lr.apply_acc(&x, &mut y1);
        let mut y2 = vec![C64::ZERO; 8];
        gemv(&d, &x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn adjoint_consistency() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let u = Matrix::<C64>::random_normal(7, 2, &mut rng);
        let v = Matrix::<C64>::random_normal(5, 2, &mut rng);
        let lr = LowRank::new(u, v);
        let x: Vec<C64> = (0..5).map(|i| crate::scalar::c64(i as f64, -1.0)).collect();
        let y: Vec<C64> = (0..7).map(|i| crate::scalar::c64(1.0, i as f64)).collect();
        let mut ax = vec![C64::ZERO; 7];
        lr.apply_acc(&x, &mut ax);
        let mut ahy = vec![C64::ZERO; 5];
        lr.apply_adjoint_acc(&y, &mut ahy);
        let lhs = dotc(&y, &ax);
        let rhs = dotc(&ahy, &x);
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn dense_as_lowrank_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let a = Matrix::<C64>::random_normal(5, 4, &mut rng);
        let lr = LowRank::dense_as_lowrank(&a);
        assert_eq!(lr.rank(), 4);
        assert!(lr.to_dense().sub(&a).fro_norm() < 1e-14);
        // U·I roundtrip with gemm for good measure
        let prod = gemm(&lr.u, &Matrix::<C64>::eye(4));
        assert!(prod.sub(&a).fro_norm() < 1e-14);
    }
}
