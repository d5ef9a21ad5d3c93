//! The linear-operator abstraction shared by the MDC/MDD solver stack.
//!
//! Three layers, each provided in terms of the one before. `apply` /
//! `apply_adjoint` return a fresh vector and are the only *required*
//! methods. `apply_into` / `apply_adjoint_into` write a caller-owned
//! buffer, so a sweep or an MVM job allocates no
//! operator output. [`LinearOperator::adjoint_then_apply_into`] is the
//! bidiagonalization half-step pair `v ← Aᴴu − βv`, `w ← Av` in one call —
//! the only operator call LSQR makes — so an operator that holds its data
//! in memory can run both products over each piece while it is in cache
//! and stream itself once per iteration, not twice.
//!
//! Every implementor in the workspace writes the `_into` pair natively and
//! defines the allocating pair as `vec![0; n]` + `_into`, and every
//! override of the fused call runs the kernels of the `_into` pair in the
//! order the provided default runs them, per output element: all three
//! layers give the same bits. An operator that implements only the
//! required pair (a timing or counting wrapper) reaches the solvers
//! through the provided defaults, as two passes.

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
    /// `v ← Aᴴu − βv`, then `w ← Av` with the updated `v`: the adjoint
    /// half-step of one Golub–Kahan iteration and the forward half-step of
    /// the next. `scratch` is `ncols()` long and holds nothing the caller
    /// may read afterwards. The default is [`Self::apply_adjoint_into`]
    /// into `scratch`, the update, [`Self::apply_into`] — two passes over
    /// the operator, nothing allocated here; an override makes it one pass
    /// and must return the default's bits.
    fn adjoint_then_apply_into(
        &self,
        u: &[C32],
        beta: f32,
        v: &mut [C32],
        w: &mut [C32],
        scratch: &mut [C32],
    ) {
        self.apply_adjoint_into(u, scratch);
        subtract_scaled(scratch, beta, v);
        self.apply_into(v, w);
    }
    /// Bytes one pass over the operator reads, as a scheduling hint (a
    /// composite runs its largest blocks first); 0 when unknown.
    fn stored_bytes(&self) -> usize {
        0
    }
}

/// `v ← z − βv`, the update between the two halves of
/// [`LinearOperator::adjoint_then_apply_into`]: the one expression the
/// provided default and every override share, so their bits cannot drift.
#[inline]
pub(crate) fn subtract_scaled(z: &[C32], beta: f32, v: &mut [C32]) {
    for (vi, zi) in v.iter_mut().zip(z) {
        *vi = *zi - vi.scale(beta);
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
    fn adjoint_then_apply_into(
        &self,
        u: &[C32],
        beta: f32,
        v: &mut [C32],
        w: &mut [C32],
        scratch: &mut [C32],
    ) {
        (**self).adjoint_then_apply_into(u, beta, v, w, scratch);
    }
    fn stored_bytes(&self) -> usize {
        (**self).stored_bytes()
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
    fn adjoint_then_apply_into(
        &self,
        u: &[C32],
        beta: f32,
        v: &mut [C32],
        w: &mut [C32],
        scratch: &mut [C32],
    ) {
        TlrMatrix::adjoint_then_apply_into(self, u, beta, v, w, scratch);
    }
    fn stored_bytes(&self) -> usize {
        self.compressed_bytes()
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
