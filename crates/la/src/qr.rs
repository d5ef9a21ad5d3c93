//! Householder QR and rank-revealing (column-pivoted) QR.
//!
//! RRQR is one of the algebraic compression backends the paper cites
//! (rank-revealing QR, Chan 1987 / Golub & Van Loan) for building the
//! per-tile `U·Vᴴ` factors.

use crate::blas::norm_sq;
use crate::dense::Matrix;
use crate::scalar::{exactly_zero_f64, Real, Scalar, C64};

/// Compact-WY-free Householder QR factorization: `A = Q R` with `Q`
/// represented by reflectors stored below the diagonal of `factors`.
pub struct Qr<S: Scalar> {
    factors: Matrix<S>,
    taus: Vec<S>,
}

impl<S: Scalar> Qr<S> {
    /// Upper-triangular `R` (`min(m,n) x n`).
    pub fn r(&self) -> Matrix<S> {
        let (m, n) = self.factors.shape();
        let k = m.min(n);
        Matrix::from_fn(k, n, |i, j| {
            if i <= j {
                self.factors[(i, j)]
            } else {
                S::ZERO
            }
        })
    }

    /// Thin `Q` (`m x min(m,n)`), formed by applying reflectors to the
    /// leading columns of the identity.
    pub fn q_thin(&self) -> Matrix<S> {
        let (m, n) = self.factors.shape();
        let k = m.min(n);
        let mut q = Matrix::zeros(m, k);
        for j in 0..k {
            q[(j, j)] = S::ONE;
        }
        // Apply H_{k-1} ... H_0 to each column of the identity block.
        for col in 0..k {
            for h in (0..k).rev() {
                apply_reflector_to_slice(&self.factors, self.taus[h], h, q.col_mut(col));
            }
        }
        q
    }
}

/// Apply reflector `h` (`v = [1, factors[h+1.., h]]`) to `x` in place:
/// `x -= tau · v · (vᴴ x)`.
fn apply_reflector_to_slice<S: Scalar>(factors: &Matrix<S>, tau: S, h: usize, x: &mut [S]) {
    if tau == S::ZERO {
        return;
    }
    let v = &factors.col(h)[h + 1..];
    let (head, tail) = x[h..].split_at_mut(1);
    let mut w = head[0];
    for (vi, xi) in v.iter().zip(tail.iter()) {
        w += vi.conj() * *xi;
    }
    w *= tau;
    head[0] -= w;
    for (vi, xi) in v.iter().zip(tail.iter_mut()) {
        let delta = w * *vi;
        *xi -= delta;
    }
}

/// Generate an elementary reflector for the vector `x` (LAPACK `larfg`
/// convention): returns `(tau, beta)` and overwrites `x[1..]` with the
/// reflector tail (`v[0] == 1` implicitly), `x[0]` with `beta`.
fn make_reflector<S: Scalar>(x: &mut [S]) -> S {
    let alpha = x[0];
    let mut tail_sq = 0.0f64;
    for v in &x[1..] {
        tail_sq += v.abs_sqr().to_f64();
    }
    let alpha_abs_sq = alpha.abs_sqr().to_f64();
    if exactly_zero_f64(tail_sq) && alpha.imag().exactly_zero() {
        // Already in the right form.
        return S::ZERO;
    }
    let norm = (alpha_abs_sq + tail_sq).sqrt();
    // beta = -sign(Re(alpha)) * norm, real.
    let beta_r = if alpha.real() >= S::Real::ZERO {
        -S::Real::from_f64(norm)
    } else {
        S::Real::from_f64(norm)
    };
    let beta = S::from_real(beta_r);
    // tau = (beta - alpha) / beta
    let tau = (beta - alpha) * beta.inv();
    // v = x / (alpha - beta)
    let scale = (alpha - beta).inv();
    for v in x[1..].iter_mut() {
        *v *= scale;
    }
    x[0] = beta;
    tau
}

/// Unpivoted Householder QR.
pub fn qr<S: Scalar>(a: &Matrix<S>) -> Qr<S> {
    let mut f = a.clone();
    let (m, n) = f.shape();
    let k = m.min(n);
    let mut taus = Vec::with_capacity(k);
    for j in 0..k {
        // Form reflector from f[j.., j].
        let tau = {
            let col = &mut f.col_mut(j)[j..];
            make_reflector(col)
        };
        taus.push(tau);
        if tau == S::ZERO {
            continue;
        }
        // Zero the trailing columns with Hᴴ (LAPACK convention: the
        // reflector satisfies Hᴴx = βe₁, so R = Hₖᴴ…H₁ᴴ A).
        for c in j + 1..n {
            apply_reflector_trailing(&mut f, tau.conj(), j, c);
        }
    }
    Qr { factors: f, taus }
}

/// Apply the reflector stored in column `h` (rows `h..`) to column `c`.
fn apply_reflector_trailing<S: Scalar>(f: &mut Matrix<S>, tau: S, h: usize, c: usize) {
    let m = f.nrows();
    let (vcol, ccol) = f.cols_mut_pair(h, c);
    let v = &vcol[h..];
    let cc = &mut ccol[h..];
    let mut w = cc[0];
    for i in 1..m - h {
        w += v[i].conj() * cc[i];
    }
    w *= tau;
    cc[0] -= w;
    for i in 1..m - h {
        let delta = w * v[i];
        cc[i] -= delta;
    }
}

/// Column-pivoted QR with early termination: stops once the Frobenius norm
/// of the trailing block drops below `tol_fro` (absolute), revealing the
/// numerical rank.
pub struct PivotedQr<S: Scalar> {
    factors: Matrix<S>,
    taus: Vec<S>,
    /// `perm[j]` = original index of the column now in position `j`.
    pub perm: Vec<usize>,
    /// Numerical rank detected at the requested tolerance.
    pub rank: usize,
    /// Frobenius norm of the trailing block the factorization stopped
    /// on: `‖A − Q_k R_k Pᵀ‖_F`, at most `tol_fro`, and `0` when it ran
    /// to `min(m, n)` steps.
    pub residual_fro: f64,
    /// The factorization was abandoned at its [`RankStop`]: `rank` is the
    /// stop rank and nothing past it was computed (`residual_fro` is `0`).
    pub stopped: bool,
}

/// A rank at which [`pivoted_qr_until`] may give up: once step `rank` is
/// done, if the leading rows `R_top = [R₁₁ R₁₂]` (`rank × n`) have
/// `σ_min(R_top) > τ`, `τ = sigma + per_norm·‖A‖_F`, the factorization is
/// abandoned. A `τ` below zero abandons it there whatever `R_top` is, and
/// before any arithmetic — for a caller that has no use for that rank or
/// more.
///
/// The test is a Cholesky factorization of `R_top·R_topᴴ − τ²I` in `f64`
/// (the Gram matrix built by one rank-1 update per column of the
/// trapezoid): it succeeds only if that matrix is positive definite, that
/// is `σ_min(R_top) > τ`. Later steps touch rows `rank..` only and permute
/// columns, so `R_top` is final up to a column order its singular values
/// do not see; it is the leading rows of every later `R_k`, so by
/// interlacing `σ_rank(Q_k R_k Pᵀ) ≥ σ_min(R_top) > τ` whatever `k` the
/// run would have reached: a caller that only needs to know "at least
/// `rank` singular values above `τ`" has its answer. `‖A‖_F` is the QR's
/// own first trailing-norm sum, so the proportional part costs no pass
/// over the matrix.
#[derive(Clone, Copy, Debug)]
pub struct RankStop {
    /// The step after which the bound is evaluated (once).
    pub rank: usize,
    /// The absolute part of the threshold on `σ_min(R_top)`.
    pub sigma: f64,
    /// The part of the threshold proportional to `‖A‖_F`.
    pub per_norm: f64,
}

impl RankStop {
    /// Whether the leading `rank` rows of `f` (the factorization after step
    /// `rank`) prove `σ_min(R_top) > τ` for a matrix of Frobenius norm
    /// `a_norm`.
    fn proves<S: Scalar>(&self, f: &Matrix<S>, a_norm: f64) -> bool {
        let tau = self.sigma + self.per_norm * a_norm;
        if tau < 0.0 {
            return true;
        }
        let k = self.rank;
        // Lower triangle of M = R_top·R_topᴴ, row-major: m[i·k + j], j ≤ i.
        let mut m = vec![C64::ZERO; k * k];
        let mut col = vec![C64::ZERO; k];
        for c in 0..f.ncols() {
            let len = k.min(c + 1);
            for (dst, v) in col.iter_mut().zip(&f.col(c)[..len]) {
                *dst = C64::new(v.real().to_f64(), v.imag().to_f64());
            }
            for i in 0..len {
                let ri = col[i];
                for (mij, rj) in m[i * k..=i * k + i].iter_mut().zip(&col) {
                    *mij += ri * rj.conj();
                }
            }
        }
        // Cholesky of M − τ²I in place: L[i][j] overwrites m[i·k + j].
        let shift = tau * tau;
        for j in 0..k {
            let row_j = j * k;
            let d = m[row_j + j].re - shift - norm_sq(&m[row_j..row_j + j]);
            // A NaN from overflowed arithmetic proves nothing either.
            if d.is_nan() || d <= 0.0 {
                return false;
            }
            let ljj = d.sqrt();
            m[row_j + j] = C64::new(ljj, 0.0);
            for i in j + 1..k {
                let row_i = i * k;
                let mut acc = m[row_i + j];
                for l in 0..j {
                    acc -= m[row_i + l] * m[row_j + l].conj();
                }
                m[row_i + j] = acc.scale(ljj.recip());
            }
        }
        true
    }
}

impl<S: Scalar> PivotedQr<S> {
    /// Low-rank factors `(U, V)` with `A ≈ U Vᴴ`, `U: m×rank`, `V: n×rank`.
    pub fn low_rank_factors(&self) -> (Matrix<S>, Matrix<S>) {
        (self.q_times(&Matrix::eye(self.rank)), self.right_factor())
    }

    /// `Q_k · C` for a `rank × c` matrix `C` (`m × c`): the reflectors are
    /// applied to `[C; 0]`, so `Q_k` itself is never formed.
    pub fn q_times(&self, c: &Matrix<S>) -> Matrix<S> {
        let m = self.factors.nrows();
        let k = self.rank;
        debug_assert_eq!(c.nrows(), k, "q_times needs a rank-row matrix");
        let mut out = Matrix::zeros(m, c.ncols());
        for col in 0..c.ncols() {
            let x = out.col_mut(col);
            x[..k].copy_from_slice(c.col(col));
            for h in (0..k).rev() {
                apply_reflector_to_slice(&self.factors, self.taus[h], h, x);
            }
        }
        out
    }

    /// `R_k` (`rank × n`, upper trapezoidal), columns in pivot order:
    /// `A·P ≈ Q_k R_k`.
    pub fn r(&self) -> Matrix<S> {
        let k = self.rank;
        Matrix::from_fn(k, self.factors.ncols(), |i, j| {
            if i <= j {
                self.factors[(i, j)]
            } else {
                S::ZERO
            }
        })
    }

    /// `V = P·R_kᴴ` (`n × rank`): row `i` of `R_k` conjugated into column
    /// `i`, scattered through the permutation.
    pub fn right_factor(&self) -> Matrix<S> {
        let n = self.factors.ncols();
        let k = self.rank;
        let mut v = Matrix::zeros(n, k);
        for (jj, &orig) in self.perm.iter().enumerate() {
            let r_col = &self.factors.col(jj)[..k.min(jj + 1)];
            for (i, r) in r_col.iter().enumerate() {
                v[(orig, i)] = r.conj();
            }
        }
        v
    }
}

/// Column-pivoted Householder QR, truncated at absolute Frobenius tolerance
/// `tol_fro` (pass `0.0` for a full decomposition).
pub fn pivoted_qr<S: Scalar>(a: &Matrix<S>, tol_fro: S::Real) -> PivotedQr<S> {
    pivoted_qr_until(a, tol_fro, None)
}

/// [`pivoted_qr`] that may also be abandoned at a [`RankStop`]
/// ([`PivotedQr::stopped`] says whether it was).
pub fn pivoted_qr_until<S: Scalar>(
    a: &Matrix<S>,
    tol_fro: S::Real,
    stop: Option<RankStop>,
) -> PivotedQr<S> {
    let mut f = a.clone();
    let (m, n) = f.shape();
    let kmax = m.min(n);
    let mut taus: Vec<S> = Vec::with_capacity(kmax);
    let mut perm: Vec<usize> = (0..n).collect();
    // Squared residual column norms, recomputed exactly to avoid the
    // classical downdating cancellation problem on f32 data.
    let mut rank = 0;
    let mut residual_fro = 0.0f64;
    let mut stopped = false;
    // ‖A‖_F: the first step's trailing-norm sum, for the `RankStop`.
    let mut a_norm = 0.0f64;
    let tol_sq = tol_fro.to_f64() * tol_fro.to_f64();
    for j in 0..kmax {
        // Residual norms of trailing columns.
        let mut best = j;
        let mut best_norm = -1.0f64;
        let mut total = 0.0f64;
        for c in j..n {
            let s = norm_sq(&f.col(c)[j..]);
            total += s;
            if s > best_norm {
                best_norm = s;
                best = c;
            }
        }
        if j == 0 {
            a_norm = total.sqrt();
        }
        if total <= tol_sq {
            residual_fro = total.sqrt();
            break;
        }
        if best != j {
            swap_cols(&mut f, j, best);
            perm.swap(j, best);
        }
        let tau = {
            let col = &mut f.col_mut(j)[j..];
            make_reflector(col)
        };
        taus.push(tau);
        rank = j + 1;
        if tau != S::ZERO {
            for c in j + 1..n {
                apply_reflector_trailing(&mut f, tau.conj(), j, c);
            }
        }
        if stop.is_some_and(|s| s.rank == rank && s.proves(&f, a_norm)) {
            stopped = true;
            break;
        }
    }
    PivotedQr {
        factors: f,
        taus,
        perm,
        rank,
        residual_fro,
        stopped,
    }
}

fn swap_cols<S: Scalar>(f: &mut Matrix<S>, a: usize, b: usize) {
    if a == b {
        return;
    }
    let (ca, cb) = f.cols_mut_pair(a, b);
    ca.swap_with_slice(cb);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm;
    use crate::scalar::{C32, C64};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_unitary_cols(q: &Matrix<C64>, tol: f64) {
        let g = crate::blas::gemm_conj_transpose_left(q, q);
        for i in 0..g.nrows() {
            for j in 0..g.ncols() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)].abs() - want).abs() < tol,
                    "gram[{i},{j}] = {:?}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn qr_reconstructs() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = Matrix::<C64>::random_normal(10, 6, &mut rng);
        let f = qr(&a);
        let q = f.q_thin();
        let r = f.r();
        check_unitary_cols(&q, 1e-10);
        let qr_prod = gemm(&q, &r);
        assert!(qr_prod.sub(&a).fro_norm() < 1e-10 * a.fro_norm());
    }

    #[test]
    fn qr_wide_matrix() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let a = Matrix::<C64>::random_normal(4, 9, &mut rng);
        let f = qr(&a);
        let q = f.q_thin();
        let r = f.r();
        assert_eq!(q.shape(), (4, 4));
        assert_eq!(r.shape(), (4, 9));
        let qr_prod = gemm(&q, &r);
        assert!(qr_prod.sub(&a).fro_norm() < 1e-10 * a.fro_norm());
    }

    /// Build an exactly rank-k matrix.
    fn rank_k(m: usize, n: usize, k: usize, seed: u64) -> Matrix<C64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let u = Matrix::<C64>::random_normal(m, k, &mut rng);
        let v = Matrix::<C64>::random_normal(k, n, &mut rng);
        gemm(&u, &v)
    }

    #[test]
    fn pivoted_qr_reveals_rank() {
        let a = rank_k(20, 16, 5, 21);
        let f = pivoted_qr(&a, 1e-9 * a.fro_norm());
        assert_eq!(f.rank, 5);
        let (u, v) = f.low_rank_factors();
        assert_eq!(u.shape(), (20, 5));
        assert_eq!(v.shape(), (16, 5));
        let approx = crate::blas::gemm_conj_transpose_right(&u, &v);
        assert!(approx.sub(&a).fro_norm() < 1e-8 * a.fro_norm());
    }

    #[test]
    fn pivoted_qr_full_rank_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let a = Matrix::<C64>::random_normal(8, 8, &mut rng);
        let f = pivoted_qr(&a, 0.0);
        assert_eq!(f.rank, 8);
        let (u, v) = f.low_rank_factors();
        let approx = crate::blas::gemm_conj_transpose_right(&u, &v);
        assert!(approx.sub(&a).fro_norm() < 1e-10 * a.fro_norm());
    }

    #[test]
    fn pivoted_qr_f32_tolerance() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let u = Matrix::<C32>::random_normal(30, 3, &mut rng);
        let v = Matrix::<C32>::random_normal(3, 24, &mut rng);
        let a = gemm(&u, &v);
        let f = pivoted_qr(&a, 1e-3 * a.fro_norm());
        assert!(f.rank <= 6, "rank {} too large", f.rank);
        let (uu, vv) = f.low_rank_factors();
        let approx = crate::blas::gemm_conj_transpose_right(&uu, &vv);
        assert!(approx.sub(&a).fro_norm() <= 2e-3 * a.fro_norm());
    }

    #[test]
    fn pivoted_qr_zero_matrix() {
        let a = Matrix::<C64>::zeros(5, 4);
        let f = pivoted_qr(&a, 1e-12);
        assert_eq!(f.rank, 0);
        let (u, v) = f.low_rank_factors();
        assert_eq!(u.ncols(), 0);
        assert_eq!(v.ncols(), 0);
    }

    #[test]
    fn a_nan_in_r_top_proves_nothing() {
        let stop = RankStop {
            rank: 2,
            sigma: 0.5,
            per_norm: 0.0,
        };
        let mut r = Matrix::<C64>::eye(2);
        r[(1, 1)] = C64::new(3.0, 0.0);
        assert!(stop.proves(&r, 1.0));
        r[(0, 1)] = C64::new(f64::NAN, 0.0);
        assert!(!stop.proves(&r, 1.0));
        r[(0, 1)] = C64::ZERO;
        r[(0, 0)] = C64::new(f64::NAN, 0.0);
        assert!(!stop.proves(&r, 1.0));
    }
}
