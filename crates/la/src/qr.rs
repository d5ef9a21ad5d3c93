//! Householder QR and rank-revealing (column-pivoted) QR.
//!
//! RRQR is one of the algebraic compression backends the paper cites
//! (rank-revealing QR, Chan 1987 / Golub & Van Loan) for building the
//! per-tile `U·Vᴴ` factors.

use crate::blas::{axpy, dotc_cols, norm_sq, swap_re_im};
use crate::dense::Matrix;
use crate::scalar::{exactly_zero_f64, Real, Scalar, C64};

/// Compact-WY-free Householder QR factorization: `A = Q R` with `Q`
/// represented by reflectors stored below the diagonal of `factors`.
pub struct Qr<S: Scalar> {
    factors: Matrix<S>,
    refl: Reflectors<S>,
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
        self.refl.apply_q(k, &mut q);
        q
    }
}

/// The Householder reflectors of a factorisation, each written out in
/// full — `v_h = [1, factors[h+1.., h]]` — beside its swapped copy
/// (`blas::swap_re_im`), the operands of the lane kernels: one buffer per
/// factorisation that grows as the steps make them, so neither the
/// trailing updates nor `Q·C` allocate or copy per step.
struct Reflectors<S: Scalar> {
    /// `v_h` then its swapped copy, each `m − h` long, for `h = 0, 1, …`.
    buf: Vec<S>,
    /// `τ_h`: `H_h = I − τ_h·v_h·v_hᴴ`.
    taus: Vec<S>,
    m: usize,
}

impl<S: Scalar> Reflectors<S> {
    /// Room for `k` reflectors of an `m`-row factorisation.
    fn new(m: usize, k: usize) -> Self {
        Self {
            buf: Vec::with_capacity(k * (2 * m + 1 - k)),
            taus: Vec::with_capacity(k),
            m,
        }
    }

    /// Record reflector `h = taus.len()`, its tail in column `h` of
    /// `factors`.
    fn push(&mut self, factors: &Matrix<S>, tau: S) {
        let h = self.taus.len();
        let (start, len) = (self.buf.len(), self.m - h);
        self.buf.push(S::ONE);
        self.buf.extend_from_slice(&factors.col(h)[h + 1..]);
        self.buf.resize(start + 2 * len, S::ZERO);
        let (v, vs) = self.buf[start..].split_at_mut(len);
        swap_re_im(v, vs);
        self.taus.push(tau);
    }

    /// `x −= τ·v_h·(v_hᴴx)` on rows `h..` of every column `x` of `cols`
    /// (column major, `m` rows each): four columns per pass, the lane dots
    /// of the block and then its rank-1 update, and the column tail in one
    /// block. The update is the plain complex `axpy`: LLVM vectorises it as
    /// it stands, faster than on lanes (a second operand stream for `vs`).
    fn apply(&self, h: usize, tau: S, cols: &mut [S]) {
        fn block<S: Scalar, const N: usize>(
            (v, vs): (&[S], &[S]),
            tau: S,
            cols: &mut [S],
            m: usize,
        ) {
            let h = m - v.len();
            let mut rest = cols;
            let cols: [&mut [S]; N] = core::array::from_fn(|_| {
                let (col, tail) = core::mem::take(&mut rest).split_at_mut(m);
                rest = tail;
                &mut col[h..]
            });
            // dotc_cols gives xᴴv = conj(vᴴx); x + (−w)·v is x − w·v to the bit.
            let d = dotc_cols::<S, N>(cols.each_ref().map(|c| &**c), v, vs);
            for (col, d) in cols.into_iter().zip(d) {
                axpy(-(d.conj() * tau), v, col);
            }
        }
        let m = self.m;
        let start = h * (2 * m + 1 - h);
        let (v, vs) = self.buf[start..start + 2 * (m - h)].split_at(m - h);
        let mut blocks = cols.chunks_exact_mut(4 * m);
        for b in &mut blocks {
            block::<S, 4>((v, vs), tau, b, m);
        }
        let tail = blocks.into_remainder();
        match tail.len() / m {
            3 => block::<S, 3>((v, vs), tau, tail, m),
            2 => block::<S, 2>((v, vs), tau, tail, m),
            1 => block::<S, 1>((v, vs), tau, tail, m),
            _ => {}
        }
    }

    /// `x ← H₀·H₁⋯H_{k−1}·x` for every column `x` of `out`: one reflector
    /// at a time, the last first, each applied to all of `out`.
    fn apply_q(&self, k: usize, out: &mut Matrix<S>) {
        for (h, &tau) in self.taus[..k].iter().enumerate().rev() {
            if tau != S::ZERO {
                self.apply(h, tau, out.as_mut_slice());
            }
        }
    }
}

/// Generate an elementary reflector for the vector `x` (LAPACK `larfg`
/// convention): returns `(tau, beta)` and overwrites `x[1..]` with the
/// reflector tail (`v[0] == 1` implicitly), `x[0]` with `beta`.
fn make_reflector<S: Scalar>(x: &mut [S]) -> S {
    let alpha = x[0];
    let tail_sq = norm_sq(&x[1..]);
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
    let mut refl = Reflectors::new(m, k);
    for j in 0..k {
        // Form reflector from f[j.., j].
        let tau = make_reflector(&mut f.col_mut(j)[j..]);
        refl.push(&f, tau);
        if tau == S::ZERO {
            continue;
        }
        // Zero the trailing columns with Hᴴ (LAPACK convention: the
        // reflector satisfies Hᴴx = βe₁, so R = Hₖᴴ…H₁ᴴ A).
        refl.apply(j, tau.conj(), &mut f.as_mut_slice()[(j + 1) * m..]);
    }
    Qr { factors: f, refl }
}

/// Column-pivoted QR with early termination: stops once the Frobenius norm
/// of the trailing block drops below `tol_fro` (absolute), revealing the
/// numerical rank.
pub struct PivotedQr<S: Scalar> {
    factors: Matrix<S>,
    refl: Reflectors<S>,
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
            out.col_mut(col)[..k].copy_from_slice(c.col(col));
        }
        self.refl.apply_q(k, &mut out);
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
    let mut perm: Vec<usize> = (0..n).collect();
    // Squared residual column norms: summed once, then downdated by the
    // row each step moves into R (LAPACK xGEQP3), and summed again where
    // the downdate has cancelled or the stop test is near.
    let mut norms = DowndatedNorms::new::<S>((0..n).map(|c| norm_sq(f.col(c))));
    let mut refl = Reflectors::new(m, kmax);
    let mut rank = 0;
    let mut residual_fro = 0.0f64;
    let mut stopped = false;
    // ‖A‖_F: the first step's trailing-norm sum, for the `RankStop`.
    let mut a_norm = 0.0f64;
    let tol_sq = tol_fro.to_f64() * tol_fro.to_f64();
    for j in 0..kmax {
        let mut total = norms.total(j);
        if j == 0 {
            a_norm = total.sqrt();
        }
        // The stop test reads sums: near the tolerance every trailing norm
        // is summed again, so the QR stops at the step summed norms give.
        if norms.stale && total <= STOP_RESUM * tol_sq {
            norms.resum_all(j, |c| norm_sq(&f.col(c)[j..]));
            total = norms.total(j);
        }
        if total <= tol_sq {
            residual_fro = total.sqrt();
            break;
        }
        let mut best = j;
        let mut best_norm = -1.0f64;
        for c in j..n {
            let s = norms.get(c);
            if s > best_norm {
                best_norm = s;
                best = c;
            }
        }
        if best != j {
            swap_cols(&mut f, j, best);
            perm.swap(j, best);
            norms.swap(j, best);
        }
        let tau = make_reflector(&mut f.col_mut(j)[j..]);
        refl.push(&f, tau);
        rank = j + 1;
        if tau != S::ZERO {
            refl.apply(j, tau.conj(), &mut f.as_mut_slice()[(j + 1) * m..]);
        }
        for c in j + 1..n {
            let col = f.col(c);
            let left = norms.get(c) - col[j].abs_sqr().to_f64();
            norms.update(c, left, || norm_sq(&col[j + 1..]));
        }
        if stop.is_some_and(|s| s.rank == rank && s.proves(&f, a_norm)) {
            stopped = true;
            break;
        }
    }
    PivotedQr {
        factors: f,
        refl,
        perm,
        rank,
        residual_fro,
        stopped,
    }
}

/// [`pivoted_qr_until`] sums every trailing norm again once the
/// downdated trailing energy is within this factor of `tol_fro²`. The
/// downdates stay within a relative `√ε` or so of the sums (their guard
/// sees to that), so the factor 2 leaves the stop test to sums whenever it
/// could go either way.
const STOP_RESUM: f64 = 2.0;

/// Squared column norms kept current by downdating: after a step changes
/// a column by a known amount, its norm is the old one minus (or plus)
/// that amount, with no pass over the column. A downdate that has fallen
/// below `√ε` (of the working precision) times the column's last full sum
/// has lost too many digits to cancellation and is summed again — LAPACK
/// xGEQP3's guard, here in `f64`.
pub(crate) struct DowndatedNorms {
    /// Per column: the current squared norm, and the norm as it was last
    /// summed in full.
    norms: Vec<[f64; 2]>,
    guard: f64,
    /// Some current norm is a downdate rather than a sum.
    stale: bool,
}

impl DowndatedNorms {
    /// From full sums, for a working precision `S`.
    pub(crate) fn new<S: Scalar>(sums: impl Iterator<Item = f64>) -> Self {
        Self {
            norms: sums.map(|s| [s; 2]).collect(),
            guard: S::Real::EPSILON.to_f64().sqrt(),
            stale: false,
        }
    }

    /// The current squared norm of column `c`.
    pub(crate) fn get(&self, c: usize) -> f64 {
        self.norms[c][0]
    }

    /// `Σ_{c ≥ from}` of the current squared norms, in column order.
    fn total(&self, from: usize) -> f64 {
        self.norms[from..].iter().map(|n| n[0]).sum()
    }

    /// Take the downdated value `value` for column `c`, or `sum()` in its
    /// place when the guard fires.
    pub(crate) fn update(&mut self, c: usize, value: f64, sum: impl FnOnce() -> f64) {
        if value < self.guard * self.norms[c][1] {
            self.norms[c] = [sum(); 2];
        } else {
            self.norms[c][0] = value;
            self.stale = true;
        }
    }

    /// Sum every norm from column `from` on again.
    fn resum_all(&mut self, from: usize, sum: impl Fn(usize) -> f64) {
        for (c, n) in self.norms.iter_mut().enumerate().skip(from) {
            *n = [sum(c); 2];
        }
        self.stale = false;
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.norms.swap(a, b);
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

    /// The downdate is taken while it keeps at least `√ε` of the column's
    /// last sum, and summed again below that.
    #[test]
    fn downdated_norms_sum_again_below_the_guard() {
        let guard = f64::from(f32::EPSILON).sqrt();
        let mut norms = DowndatedNorms::new::<C32>([1.0, 4.0].into_iter());
        norms.update(0, 1.5 * guard, || panic!("summed above the guard"));
        assert!(norms.stale);
        assert_eq!(norms.get(0).to_bits(), (1.5 * guard).to_bits());
        norms.update(0, 0.5 * guard, || 0.25);
        assert_eq!(norms.get(0).to_bits(), 0.25f64.to_bits());
        // The guard is relative to the new sum now, not to the first one.
        norms.update(0, 0.5 * guard, || panic!("guard still reads the old sum"));
        norms.update(1, -1e-9, || 2.0);
        assert_eq!(norms.get(1).to_bits(), 2.0f64.to_bits());
    }

    /// A graded matrix of rank 4 (`σ` = 1, 1e-1, 1e-2, 1e-3, then `f32`
    /// rounding) truncated at `1e-5·‖A‖_F`: by step 4 every trailing column
    /// has lost all but ~1e-12 of its squared norm, far more than a downdate
    /// in `f32` keeps (its error is ~ε₃₂ of the sum), so only the guard's
    /// fresh sums let the QR see the tolerance met. It stops at rank 4 with
    /// the residual it reports, on the pivots the matrix gives in `C64`.
    #[test]
    fn graded_matrix_stops_at_its_rank_through_the_downdate_guard() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let (m, n) = (48, 12);
        let mut u = qr(&Matrix::<C64>::random_normal(m, 4, &mut rng)).q_thin();
        let v = qr(&Matrix::<C64>::random_normal(n, 4, &mut rng)).q_thin();
        for (j, sigma) in [1.0, 1e-1, 1e-2, 1e-3].into_iter().enumerate() {
            for e in u.col_mut(j) {
                *e = e.scale(sigma);
            }
        }
        let a = crate::blas::gemm_conj_transpose_right(&u, &v);
        let a32 = Matrix::<C32>::from_fn(m, n, |i, j| a[(i, j)].narrow());
        let tol = 1e-5 * a32.fro_norm();
        let f = pivoted_qr(&a32, tol);
        assert_eq!(f.rank, 4);
        let (q, r) = (f.q_times(&Matrix::eye(4)), f.r());
        let approx = gemm(&q, &r);
        let residual = a32.permute_cols(&f.perm).sub(&approx).fro_norm();
        assert!(
            f.residual_fro <= f64::from(tol),
            "{} > {tol}",
            f.residual_fro
        );
        assert!(
            (f.residual_fro - f64::from(residual)).abs() <= 1e-6 * f64::from(a32.fro_norm()),
            "reported {} vs measured {residual}",
            f.residual_fro
        );
        let a64 = Matrix::<C64>::from_fn(m, n, |i, j| a32[(i, j)].widen());
        let f64r = pivoted_qr(&a64, f64::from(tol));
        assert_eq!(f.perm[..4], f64r.perm[..4]);
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
