//! One-sided Jacobi SVD for real and complex matrices, and the
//! truncation-aware tile compression built on it.
//!
//! [`jacobi_svd`] is the full decomposition: every column pair of the
//! input is orthogonalised to working precision, whatever happens to the
//! singular values afterwards. `rsvd` calls it on matrices that are
//! already small.
//!
//! [`svd_compress`] keeps only the part of the spectrum above a
//! tolerance, so it does not pay for the rest: a column-pivoted QR
//! ([`crate::qr::pivoted_qr`]) stops at the numerical rank `k`, and Jacobi runs on
//! the `n × k` factor `P·R_kᴴ` alone. Pivoting leaves that factor's
//! columns graded by norm, which is the Drmač–Veselić preconditioning —
//! Jacobi converges on it in a few sweeps — and the columns of a tile
//! that are rounding noise never reach it. Jacobi stops there at the
//! column angle the truncation reads (`TRUNCATION_COS_TOL`), not at
//! working precision, and a tile the caller would store dense is proved
//! so from the QR's leading rows and never reaches Jacobi at all
//! ([`svd_truncate`]). Cost follows the rank kept, not `nb`.

#![allow(
    clippy::needless_range_loop,
    reason = "index-based loops here walk multiple parallel arrays; iterator zips would obscure \
              the stride structure the kernels are about"
)]

use crate::blas::{dotc_lanes, norm_sq, swap_re_im};
use crate::dense::Matrix;
use crate::lowrank::LowRank;
use crate::qr::{pivoted_qr_until, DowndatedNorms, PivotedQr, RankStop};
use crate::scalar::{exactly_zero_f64, Real, Scalar};

/// Full (thin) singular value decomposition `A = U diag(s) Vᴴ`.
pub struct Svd<S: Scalar> {
    /// `m × r` left singular vectors, `r = min(m, n)`.
    pub u: Matrix<S>,
    /// Singular values, descending.
    pub s: Vec<S::Real>,
    /// `n × r` right singular vectors.
    pub v: Matrix<S>,
}

impl<S: Scalar> Svd<S> {
    /// Reconstruct `U diag(s) Vᴴ`.
    pub fn reconstruct(&self) -> Matrix<S> {
        let r = self.s.len();
        let mut us = self.u.clone();
        for j in 0..r {
            let sj = self.s[j];
            for e in us.col_mut(j) {
                *e = e.mul_real(sj);
            }
        }
        crate::blas::gemm_conj_transpose_right(&us, &self.v)
    }

    /// Smallest rank `k` whose discarded tail satisfies
    /// `sqrt(Σ_{i≥k} σᵢ²) ≤ tol` (absolute Frobenius tolerance).
    pub fn rank_for_tolerance(&self, tol: S::Real) -> usize {
        self.rank_for_tail_sq(tol.to_f64() * tol.to_f64())
    }

    /// [`Self::rank_for_tolerance`] on the squared tolerance, in `f64`.
    fn rank_for_tail_sq(&self, tol_sq: f64) -> usize {
        let mut tail = 0.0f64;
        let mut k = self.s.len();
        // Walk from the smallest singular value, growing the discarded tail.
        for i in (0..self.s.len()).rev() {
            let next = tail + self.s[i].to_f64().powi(2);
            if next > tol_sq {
                break;
            }
            tail = next;
            k = i;
        }
        k
    }

    /// Frobenius norm of the tail discarded by a rank-`k` truncation:
    /// `sqrt(Σ_{i≥k} σᵢ²)` — by the Eckart–Young theorem this is the
    /// *exact* backward error `‖A − A_k‖_F` of [`Self::truncate`], so it
    /// is what the accuracy observatory records per tile.
    pub fn tail_energy(&self, k: usize) -> f64 {
        self.s[k.min(self.s.len())..]
            .iter()
            .map(|s| {
                let v = s.to_f64();
                v * v
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Truncate to rank `k`, folding the singular values into `U`
    /// (`U_k Σ_k`, `V_k`) so the result is a plain [`LowRank`] pair.
    pub fn truncate(&self, k: usize) -> LowRank<S> {
        let k = k.min(self.s.len());
        let m = self.u.nrows();
        let n = self.v.nrows();
        let mut u = Matrix::zeros(m, k);
        let mut v = Matrix::zeros(n, k);
        for j in 0..k {
            let sj = self.s[j];
            for (dst, src) in u.col_mut(j).iter_mut().zip(self.u.col(j)) {
                *dst = src.mul_real(sj);
            }
            v.col_mut(j).copy_from_slice(self.v.col(j));
        }
        LowRank::new(u, v)
    }
}

/// Maximum number of Jacobi sweeps before declaring convergence failure
/// (never reached in practice for `n ≤` a few hundred).
const MAX_SWEEPS: usize = 60;

/// One-sided Jacobi SVD. Handles `m < n` by factoring `Aᴴ` and swapping
/// the factors. Every column pair ends orthogonal to `|cos| ≤ ε√n`.
pub fn jacobi_svd<S: Scalar>(a: &Matrix<S>) -> Svd<S> {
    let (m, n) = a.shape();
    if m < n {
        let t = jacobi_svd(&a.conj_transpose());
        return Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        };
    }
    jacobi_sweeps(a, S::Real::EPSILON.to_f64() * (n as f64).sqrt())
}

/// One-sided Jacobi on `a` (`m ≥ n`): `W = A·V` with `V` unitary, a
/// column pair rotated while `|w_pᴴw_q| > cos_tol·‖w_p‖‖w_q‖`. The
/// returned singular values are the column norms of `W`, its columns
/// normalised are `U`.
fn jacobi_sweeps<S: Scalar>(a: &Matrix<S>, cos_tol: f64) -> Svd<S> {
    let (m, n) = a.shape();
    debug_assert!(m >= n, "jacobi_sweeps needs a tall matrix");
    let mut w = a.clone();
    let mut v = Matrix::<S>::eye(n);
    // Squared column norms of `w`, read off each rotation's 2×2 update:
    // a pair that is already orthogonal costs its dot product alone, one
    // that is rotated no pass beyond the rotation.
    let mut norms = DowndatedNorms::new::<S>((0..n).map(|j| norm_sq(w.col(j))));
    // Swapped copy of column p, the `x` of the lane dots against every q.
    let mut ps = vec![S::ZERO; m];

    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            swap_re_im(w.col(p), &mut ps);
            for q in p + 1..n {
                let (app, aqq) = (norms.get(p), norms.get(q));
                if exactly_zero_f64(app) && exactly_zero_f64(aqq) {
                    continue;
                }
                // w_pᴴ w_q, as the conjugate of w_qᴴ w_p.
                let apq = dotc_lanes([w.col(q)], w.col(p), &ps)[0].conj();
                let apq_abs = apq.abs().to_f64();
                if apq_abs <= cos_tol * (app * aqq).sqrt() {
                    continue;
                }
                // A dot product so deep in the subnormal range that its
                // reciprocal overflows gives no direction to rotate by
                // (and would poison both columns with `0·∞`): columns
                // that small are zero to working precision.
                let inv_abs = S::Real::from_f64(apq_abs.recip());
                if !inv_abs.is_finite() {
                    continue;
                }
                rotated = true;
                // Phase so that w_pᴴ (w_q e^{-iφ}) is real positive.
                let phase = apq.mul_real(inv_abs);
                // Real 2x2 symmetric eigen-rotation on [[app, r],[r, aqq]].
                let r = apq_abs;
                let tau = (aqq - app) / (2.0 * r);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let (c, s) = (S::Real::from_f64(c), S::Real::from_f64(c * t));
                // e^{iφ} = phase, so column q enters the rotation times
                // conj(phase); the factor is folded into its two
                // coefficients once instead of into every element.
                let phq = phase.conj();
                let (cph, sph) = (phq.mul_real(c), phq.mul_real(s));
                rotate_pair(&mut w, p, q, c, s, cph, sph);
                rotate_pair(&mut v, p, q, c, s, cph, sph);
                swap_re_im(w.col(p), &mut ps);
                // The rotation diagonalises [[app, r], [r, aqq]]: its
                // eigenvalues app − t·r and aqq + t·r are the new norms.
                norms.update(p, app - t * r, || norm_sq(w.col(p)));
                norms.update(q, aqq + t * r, || norm_sq(w.col(q)));
            }
        }
        if !rotated {
            break;
        }
    }
    // Extract singular values and normalize U columns. The values are the
    // norms summed, not downdated: the truncation reads them.
    let mut s: Vec<S::Real> = (0..n)
        .map(|j| S::Real::from_f64(norm_sq(w.col(j)).sqrt()))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        s[j].partial_cmp(&s[i])
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    let w_sorted = w.permute_cols(&order);
    let v_sorted = v.permute_cols(&order);
    s = order.iter().map(|&i| s[i]).collect();

    let mut u = w_sorted;
    for j in 0..n {
        let sj = s[j];
        if sj > S::Real::ZERO {
            let inv = sj.recip();
            for e in u.col_mut(j) {
                *e = e.mul_real(inv);
            }
        }
        // Zero singular value: leave the (zero) column; downstream
        // truncation never keeps it.
    }
    Svd { u, s, v: v_sorted }
}

/// Share of the tolerance the rank-revealing QR stage may spend:
/// [`svd_compress`] stops the pivoted QR at `tol / QR_TOL_DIVISOR`.
///
/// Error budget. The QR residual `E₁ = A − Q_k R_k Pᵀ` lies in the
/// orthogonal complement of `range(Q_k)` and the truncation error of the
/// small SVD, `E₂ = Q_k (B − B_r)ᴴ`, lies inside it, so
/// `‖A − U Vᴴ‖_F² = ‖E₁‖_F² + ‖E₂‖_F²`. The SVD stage is given what the
/// QR stage left, `‖E₂‖_F² ≤ tol² − ‖E₁‖_F²`, which is at least
/// `tol²·(1 − 1/32²)`: the sum never exceeds `tol²`, and the rank kept is
/// that of an optimal truncation at no less than `0.9995·tol`. That
/// truncation is optimal for the QR approximant, not for `A`, so a tile
/// can keep one rank more than the one-stage SVD would: of the 6240
/// tiles of the benchmark's `compress-stack` stack 17 do at a divisor of
/// 8, 11 at 16, one at 32 and at 64, while the time per tile grows 7 %
/// per doubling (DESIGN.md §17).
const QR_TOL_DIVISOR: f64 = 32.0;

/// The column angle at which the Jacobi stage of [`svd_truncate`] stops
/// rotating a pair: `|w_pᴴw_q| ≤ δ·‖w_p‖‖w_q‖`, where [`jacobi_svd`]
/// goes on to `ε√n`. The truncation reads column norms only, and `δ`
/// changes neither what it guarantees nor the rank it keeps:
///
/// - Error. `W = B·V` with `V` unitary at any `δ`, so the energy of the
///   dropped columns of `W` — the `tail` reported — is exactly the error of
///   dropping them, and `‖A − U Vᴴ‖_F ≤ tol` holds as before.
/// - Rank. The squared column norms of `W` are the diagonal of
///   `Vᴴ·BᴴB·V`, which the `σᵢ²` majorize (Schur–Horn): the sum of its `j`
///   smallest entries is never below the sum of the `j` smallest `σᵢ²`.
///   The tail read at any rank is at least the converged one, so the rank
///   kept cannot fall below it.
///
/// No rank changed at `1e-2` on any of the 30,972 SVD tiles of the
/// benchmark's `compress-stack`, `solve-large` and `serve-mix` stacks, or
/// at the twelve accuracy-gate points; the first change appears at `3e-2`,
/// on one tile (DESIGN.md §17).
const TRUNCATION_COS_TOL: f64 = 1e-2;

/// Rounding room of the dense certificate of [`svd_truncate`]: the QR is
/// abandoned at the stop rank when `σ_min(R_top) > tol + c·ε·√n·‖A‖_F`.
/// The `c·ε·√n·‖A‖_F` covers the rounding of the column norms Jacobi would
/// compute, which `la/tests/jacobi_oracle.rs` pins at `4·ε·√n·σ₁`.
const DENSE_PROOF_ROUNDING: f64 = 8.0;

/// Truncated SVD compression at absolute Frobenius tolerance `tol`:
/// `‖A − U Vᴴ‖_F ≤ tol` with the singular values folded into `U`; `V`'s
/// columns are orthonormal to the angle `TRUNCATION_COS_TOL`.
///
/// Two stages (see the module header and `QR_TOL_DIVISOR`): pivoted QR
/// to the numerical rank, then an optimal (Eckart–Young) truncation of
/// that rank-`k` approximant by a Jacobi SVD of its small factor —
/// [`svd_truncate`] without a stop rank.
pub fn svd_compress<S: Scalar>(a: &Matrix<S>, tol: S::Real) -> LowRank<S> {
    svd_compress_with_tail(a, tol).0
}

/// [`svd_compress`] that also returns the backward error it made
/// ([`TruncatedSvd::tail`]) — the per-tile accuracy signal the compression
/// observatory records.
pub fn svd_compress_with_tail<S: Scalar>(a: &Matrix<S>, tol: S::Real) -> (LowRank<S>, f64) {
    match svd_truncate(a, tol, None) {
        Some(t) => (LowRank::new(t.left(), t.v), t.tail),
        // Only a stop rank ends the truncation early; the exact pair is
        // what such an exit stands for.
        None => (LowRank::dense_as_lowrank(a), 0.0),
    }
}

/// What the two stages of [`svd_truncate`] leave, before the left factor
/// is expanded: `A ≈ Q_k · core · Vᴴ`.
pub struct TruncatedSvd<S: Scalar> {
    /// The QR stage; holds `Q_k` as reflectors.
    pub qr: PivotedQr<S>,
    /// `k × r`: the kept right singular vectors of the small factor, the
    /// singular values folded in.
    pub core: Matrix<S>,
    /// `n × r` right factor, unit columns orthogonal to the angle
    /// `TRUNCATION_COS_TOL` (`|cos| ≤ 1e-2`).
    pub v: Matrix<S>,
    /// `‖A − Q_k·core·Vᴴ‖_F = sqrt(‖E₁‖_F² + Σ_{i≥r} σᵢ²)`: the QR
    /// residual plus the discarded singular values, both already computed.
    pub tail: f64,
}

impl<S: Scalar> TruncatedSvd<S> {
    /// Rank kept.
    pub fn rank(&self) -> usize {
        self.core.ncols()
    }

    /// The left factor `U = Q_k · core` (`m × r`).
    pub fn left(&self) -> Matrix<S> {
        self.qr.q_times(&self.core)
    }
}

/// The truncation behind [`svd_compress`], with an optional `stop_rank`:
/// a rank from which the caller has no use for the factors (a TLR tile
/// that would be stored dense). `None` is returned, the QR abandoned and
/// Jacobi never run, once the QR stage proves the truncation would keep
/// at least that many.
///
/// The proof is [`RankStop`] on the leading rows `[R₁₁ R₁₂]` at
/// `τ = tol + c·ε·√n·‖A‖_F` (`DENSE_PROOF_ROUNDING`): it gives
/// `σ_stop(Q_k R_k Pᵀ) > τ`, Jacobi's column norms are within the rounding
/// room of those singular values, and by `TRUNCATION_COS_TOL`'s
/// majorization argument the tail read at any rank below `stop_rank`
/// exceeds `tol² ≥ tol² − ‖E₁‖_F²`, so `keep ≥ stop_rank` follows. It is a
/// sufficient condition only: a tile it misses is truncated as usual, bit
/// for bit as without a stop rank.
///
/// The Jacobi stage stops at the column angle `TRUNCATION_COS_TOL`, not
/// at working precision: `core·Vᴴ` is `Bᴴ` to rounding and the `tail` is
/// the exact error at any angle, but `V`'s columns are orthonormal only to
/// that angle.
pub fn svd_truncate<S: Scalar>(
    a: &Matrix<S>,
    tol: S::Real,
    stop_rank: Option<usize>,
) -> Option<TruncatedSvd<S>> {
    let tol = tol.to_f64();
    let eps = S::Real::EPSILON.to_f64();
    let stop = stop_rank.map(|rank| RankStop {
        rank,
        sigma: tol,
        per_norm: DENSE_PROOF_ROUNDING * eps * (a.ncols() as f64).sqrt(),
    });
    let qr = pivoted_qr_until(a, S::Real::from_f64(tol / QR_TOL_DIVISOR), stop);
    if qr.stopped {
        return None;
    }
    let residual_sq = qr.residual_fro * qr.residual_fro;
    // A ≈ Q_k Bᴴ with B = P·R_kᴴ (n × k, k ≤ n, columns graded by norm),
    // and B = U_s Σ V_sᴴ gives A ≈ (Q_k V_s Σ) U_sᴴ.
    let svd = jacobi_sweeps(&qr.right_factor(), TRUNCATION_COS_TOL);
    let keep = svd.rank_for_tail_sq(tol * tol - residual_sq);
    let tail = svd.tail_energy(keep);
    // Bᴴ = V_s Σ U_sᴴ is the same decomposition with the sides swapped.
    let small = Svd {
        u: svd.v,
        s: svd.s,
        v: svd.u,
    }
    .truncate(keep);
    Some(TruncatedSvd {
        qr,
        core: small.u,
        v: small.v,
        tail: (residual_sq + tail * tail).sqrt(),
    })
}

/// Apply the complex Jacobi rotation to columns `p`, `q`:
/// `p_new = c·p − s·(φ̄·q)`, `q_new = s·p + c·(φ̄·q)` with real `c`, `s`
/// and the unit phase `φ̄` already folded into `cph = c·φ̄`, `sph = s·φ̄`.
///
/// Kept out of line: inlined twice into `jacobi_sweeps`, it slowed the
/// benchmark's `compress-stack` operation by 6 % (2-vCPU Xeon guest).
#[inline(never)]
fn rotate_pair<S: Scalar>(
    m: &mut Matrix<S>,
    p: usize,
    q: usize,
    c: S::Real,
    s: S::Real,
    cph: S,
    sph: S,
) {
    let (cp, cq) = m.cols_mut_pair(p, q);
    for (a, b) in cp.iter_mut().zip(cq.iter_mut()) {
        let new_a = a.mul_real(c) - sph * *b;
        let new_b = a.mul_real(s) + cph * *b;
        *a = new_a;
        *b = new_b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, gemm_conj_transpose_left};
    use crate::scalar::{C32, C64};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_svd<SC: Scalar>(a: &Matrix<SC>, tol: f64) {
        let svd = jacobi_svd(a);
        // Reconstruction
        let rec = svd.reconstruct();
        let err = rec.sub(a).fro_norm().to_f64();
        let norm = a.fro_norm().to_f64().max(1.0);
        assert!(err < tol * norm, "reconstruction err {err} vs norm {norm}");
        // Descending singular values
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // U, V have orthonormal columns (where σ > 0)
        let gu = gemm_conj_transpose_left(&svd.u, &svd.u);
        let gv = gemm_conj_transpose_left(&svd.v, &svd.v);
        for i in 0..svd.s.len() {
            if svd.s[i].to_f64() > 1e-10 {
                assert!((gu[(i, i)].abs().to_f64() - 1.0).abs() < 100.0 * tol);
            }
            assert!((gv[(i, i)].abs().to_f64() - 1.0).abs() < 100.0 * tol);
        }
    }

    #[test]
    fn svd_c64_tall() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let a = Matrix::<C64>::random_normal(12, 7, &mut rng);
        check_svd(&a, 1e-12);
    }

    #[test]
    fn svd_c64_wide() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let a = Matrix::<C64>::random_normal(5, 11, &mut rng);
        check_svd(&a, 1e-12);
    }

    #[test]
    fn svd_c32_square() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let a = Matrix::<C32>::random_normal(16, 16, &mut rng);
        check_svd(&a, 1e-4);
    }

    #[test]
    fn svd_real_f64() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let a = Matrix::<f64>::from_fn(9, 6, |i, j| {
            ((i * 31 + j * 17 + 5) % 23) as f64 / 23.0 - 0.5
                + crate::dense::normal_sample(&mut rng) * 0.1
        });
        check_svd(&a, 1e-12);
    }

    #[test]
    fn svd_diagonal_matrix_exact_values() {
        let mut a = Matrix::<C64>::zeros(4, 4);
        for (i, &d) in [5.0, 3.0, 2.0, 0.5].iter().enumerate() {
            a[(i, i)] = crate::scalar::c64(d, 0.0);
        }
        let svd = jacobi_svd(&a);
        let want = [5.0, 3.0, 2.0, 0.5];
        for (got, want) in svd.s.iter().zip(want) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn svd_rank_deficient() {
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let u = Matrix::<C64>::random_normal(10, 3, &mut rng);
        let v = Matrix::<C64>::random_normal(3, 8, &mut rng);
        let a = gemm(&u, &v);
        let svd = jacobi_svd(&a);
        // σ₄..σ₈ should vanish
        for &sv in &svd.s[3..] {
            assert!(sv < 1e-10, "tail singular value {sv}");
        }
        let rec = svd.reconstruct();
        assert!(rec.sub(&a).fro_norm() < 1e-10 * a.fro_norm());
    }

    #[test]
    fn rank_for_tolerance_tail_semantics() {
        let mut a = Matrix::<C64>::zeros(5, 5);
        for (i, &d) in [4.0, 2.0, 1.0, 0.1, 0.01].iter().enumerate() {
            a[(i, i)] = crate::scalar::c64(d, 0.0);
        }
        let svd = jacobi_svd(&a);
        // tail {0.01} has norm 0.01; tail {0.1, 0.01} ~ 0.1005
        assert_eq!(svd.rank_for_tolerance(0.02), 4);
        assert_eq!(svd.rank_for_tolerance(0.2), 3);
        assert_eq!(svd.rank_for_tolerance(10.0), 0);
        assert_eq!(svd.rank_for_tolerance(0.0), 5);
    }

    #[test]
    fn svd_compress_respects_tolerance() {
        let mut rng = ChaCha8Rng::seed_from_u64(46);
        let a = Matrix::<C32>::random_normal(40, 40, &mut rng);
        let tol = 0.1f32 * a.fro_norm();
        let lr = svd_compress(&a, tol);
        let err = lr.to_dense().sub(&a).fro_norm();
        assert!(err <= tol * 1.05, "err {err} > tol {tol}");
        assert!(lr.rank() < 40);
    }

    #[test]
    fn tail_energy_matches_measured_truncation_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        let a = Matrix::<C64>::random_normal(20, 14, &mut rng);
        let svd = jacobi_svd(&a);
        for k in [0usize, 3, 7, 14, 99] {
            let lr = svd.truncate(k);
            let measured = lr.to_dense().sub(&a).fro_norm();
            let predicted = svd.tail_energy(k);
            assert!(
                (measured - predicted).abs() <= 1e-10 * a.fro_norm(),
                "k={k}: measured {measured} vs tail {predicted}"
            );
        }
        // Full rank keeps everything: no discarded energy.
        assert!(svd.tail_energy(14) < 1e-12);
    }

    #[test]
    fn svd_compress_with_tail_reports_the_error_it_made() {
        let mut rng = ChaCha8Rng::seed_from_u64(48);
        let a = Matrix::<C32>::random_normal(32, 32, &mut rng);
        let tol = 0.2f32 * a.fro_norm();
        let (lr, tail) = svd_compress_with_tail(&a, tol);
        let measured = f64::from(lr.to_dense().sub(&a).fro_norm());
        assert!(tail <= f64::from(tol) * 1.001, "tail {tail} > tol {tol}");
        assert!(
            (measured - tail).abs() <= 1e-3 * f64::from(a.fro_norm()),
            "measured {measured} vs tail {tail}"
        );
    }

    fn compress_err(a: &Matrix<C32>, lr: &LowRank<C32>) -> f32 {
        lr.to_dense().sub(a).fro_norm()
    }

    #[test]
    fn svd_compress_zero_tile_has_rank_zero_and_empty_factors() {
        let a = Matrix::<C32>::zeros(16, 12);
        for tol in [0.0f32, 1e-6] {
            let (lr, tail) = svd_compress_with_tail(&a, tol);
            assert_eq!(lr.rank(), 0);
            assert_eq!(lr.u.shape(), (16, 0));
            assert_eq!(lr.v.shape(), (12, 0));
            assert!(exactly_zero_f64(tail));
        }
    }

    #[test]
    fn svd_compress_rank_one_tile_has_rank_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(49);
        let u = Matrix::<C32>::random_normal(24, 1, &mut rng);
        let v = Matrix::<C32>::random_normal(1, 20, &mut rng);
        let a = gemm(&u, &v);
        let tol = 1e-4 * a.fro_norm();
        let lr = svd_compress(&a, tol);
        assert_eq!(lr.rank(), 1);
        assert!(compress_err(&a, &lr) <= tol);
    }

    #[test]
    fn svd_compress_zero_tolerance_is_a_full_decomposition() {
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        let a = Matrix::<C32>::random_normal(18, 18, &mut rng);
        let (lr, tail) = svd_compress_with_tail(&a, 0.0);
        assert_eq!(lr.rank(), 18);
        assert!(exactly_zero_f64(tail));
        assert!(compress_err(&a, &lr) <= 1e-5 * a.fro_norm());
    }

    #[test]
    fn svd_compress_tolerance_above_the_norm_keeps_nothing() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let a = Matrix::<C32>::random_normal(10, 14, &mut rng);
        // One tolerance stops the QR before its first step, the other only
        // the SVD stage.
        for factor in [40.0f32, 1.001] {
            let (lr, tail) = svd_compress_with_tail(&a, factor * a.fro_norm());
            assert_eq!(lr.rank(), 0, "factor {factor}");
            assert_eq!(lr.shape(), (10, 14));
            let norm = f64::from(a.fro_norm());
            assert!((tail - norm).abs() <= 1e-5 * norm, "tail {tail} vs {norm}");
        }
    }

    #[test]
    fn svd_compress_edge_tiles_wide_and_tall() {
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        for (m, n) in [(5usize, 32usize), (32, 5), (1, 9), (9, 1)] {
            // Rank ≤ 3 plus a perturbation well under the tolerance.
            let k = 3.min(m).min(n);
            let base = gemm(
                &Matrix::<C32>::random_normal(m, k, &mut rng),
                &Matrix::<C32>::random_normal(k, n, &mut rng),
            );
            let a = base.add(&Matrix::<C32>::random_normal(m, n, &mut rng).scale_real(1e-5));
            let tol = 1e-3 * a.fro_norm();
            let (lr, tail) = svd_compress_with_tail(&a, tol);
            assert_eq!(lr.shape(), (m, n));
            assert_eq!(lr.rank(), k, "{m}x{n}");
            let err = f64::from(compress_err(&a, &lr));
            assert!(err <= f64::from(tol), "{m}x{n}: err {err} > tol {tol}");
            assert!((err - tail).abs() <= 1e-5 * f64::from(a.fro_norm()));
        }
    }

    /// `m × n` matrix with singular values `sigma` (descending, `min(m, n)`
    /// of them) and random singular vectors, rounded to `C32`.
    fn with_spectrum(m: usize, n: usize, sigma: &[f64], seed: u64) -> Matrix<C32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let r = sigma.len();
        let mut left = crate::qr::qr(&Matrix::<C64>::random_normal(m, r, &mut rng)).q_thin();
        let right = crate::qr::qr(&Matrix::<C64>::random_normal(n, r, &mut rng)).q_thin();
        for (i, &s) in sigma.iter().enumerate() {
            for e in left.col_mut(i) {
                *e = e.scale(s);
            }
        }
        let a = crate::blas::gemm_conj_transpose_right(&left, &right);
        Matrix::from_fn(m, n, |i, j| a[(i, j)].narrow())
    }

    /// The certificate's reach: a tile whose stop-rank singular value lies
    /// between `1.1·τ` and `2·tol` keeps the stop rank and is proved
    /// dense. The bound on `R₁₁` it replaced asked `1/‖R₁₁⁻¹‖_F > 2·tol`,
    /// and `1/‖R₁₁⁻¹‖_F ≤ σ_stop`, so it could prove none of these.
    #[test]
    fn dense_certificate_reaches_below_twice_the_tolerance() {
        let tol = 1e-3f32;
        let mut cases = 0;
        for (m, n) in [
            (32usize, 32usize),
            (16, 16),
            (27, 9),
            (9, 27),
            (20, 24),
            (32, 5),
        ] {
            let stop = (m * n).div_ceil(m + n);
            for (seed, frac) in [0.05f64, 0.3, 0.6, 0.95].into_iter().enumerate() {
                // σ = 1 down to the stop rank, the stop-rank value in the
                // window, and a tail far below the tolerance.
                let mut sigma = vec![1e-4 * f64::from(tol); m.min(n)];
                sigma[..stop - 1].fill(1.0);
                let norm = ((stop - 1) as f64).sqrt();
                let eps_room = DENSE_PROOF_ROUNDING * f64::from(f32::EPSILON) * (n as f64).sqrt();
                let tau = f64::from(tol) + eps_room * norm;
                let (lo, hi) = (1.1 * tau, 2.0 * f64::from(tol));
                assert!(lo < hi, "{m}x{n}: empty window");
                sigma[stop - 1] = lo + frac * (hi - lo);
                let a = with_spectrum(m, n, &sigma, 60 + seed as u64);
                assert_eq!(svd_compress(&a, tol).rank(), stop, "{m}x{n}");
                assert!(
                    svd_truncate(&a, tol, Some(stop)).is_none(),
                    "{m}x{n}: σ_stop {} not certified (τ {tau})",
                    sigma[stop - 1]
                );
                cases += 1;
            }
        }
        assert_eq!(cases, 24);
    }

    /// `svd_truncate` stops Jacobi at the angle `TRUNCATION_COS_TOL`, and
    /// the `tail` it reports is still the error it made: on graded spectra
    /// crossing the tolerance, at several cut points, it equals the
    /// measured `‖A − U Vᴴ‖_F` and stays inside `tol`.
    #[test]
    fn truncation_tail_is_the_measured_error_at_the_stopping_angle() {
        for (m, n, rho) in [
            (32, 32, 0.7f64),
            (24, 16, 0.5),
            (16, 28, 0.6),
            (40, 40, 0.85),
        ] {
            let r = m.min(n);
            let sigma: Vec<f64> = (0..r).map(|i| rho.powi(i as i32)).collect();
            let a = with_spectrum(m, n, &sigma, (m * n) as u64);
            let norm = f64::from(a.fro_norm());
            for cut in [1e-1f64, 1e-2, 1e-3] {
                let tol = (cut * norm) as f32;
                let Some(t) = svd_truncate(&a, tol, None) else {
                    panic!("no stop rank, no early exit");
                };
                assert!(
                    t.rank() > 0 && t.rank() < r,
                    "{m}x{n} cut {cut}: rank {}",
                    t.rank()
                );
                let u = t.left();
                let err = f64::from(
                    crate::blas::gemm_conj_transpose_right(&u, &t.v)
                        .sub(&a)
                        .fro_norm(),
                );
                assert!(
                    t.tail <= f64::from(tol) * 1.0001,
                    "tail {} > tol {tol}",
                    t.tail
                );
                assert!(
                    (err - t.tail).abs() <= 1e-5 * norm,
                    "{m}x{n} cut {cut}: measured {err} vs tail {}",
                    t.tail
                );
            }
        }
    }

    /// A stop rank that does not fire changes no bit: the QR runs the same
    /// steps and Jacobi sees the same factor, so rank, `core`, `V` and
    /// `tail` are those of the run without one — on tiles where the stop is
    /// past the QR's rank, at it but not proved, and where it fires.
    #[test]
    fn unfired_stop_rank_changes_no_bit() {
        let (mut fired, mut ran) = (0, 0);
        for (m, n) in [(32usize, 32usize), (16, 16), (32, 13), (7, 30)] {
            let stop = (m * n).div_ceil(m + n);
            for (seed, rho) in [0.3f64, 0.6, 0.8, 0.95].into_iter().enumerate() {
                let sigma: Vec<f64> = (0..m.min(n)).map(|i| rho.powi(i as i32)).collect();
                let a = with_spectrum(m, n, &sigma, (m * n + seed) as u64);
                for tol in [1e-1f32, 1e-2, 1e-4] {
                    let Some(free) = svd_truncate(&a, tol, None) else {
                        panic!("no stop rank, no early exit");
                    };
                    let Some(t) = svd_truncate(&a, tol, Some(stop)) else {
                        assert!(free.rank() >= stop, "fired below the stop rank");
                        fired += 1;
                        continue;
                    };
                    ran += 1;
                    assert_eq!(t.qr.rank, free.qr.rank);
                    assert_eq!(t.core.as_slice(), free.core.as_slice());
                    assert_eq!(t.v.as_slice(), free.v.as_slice());
                    assert_eq!(t.tail.to_bits(), free.tail.to_bits());
                }
            }
        }
        assert!(fired > 0 && ran > 0, "fired {fired}, ran {ran}");
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Matrix::<C64>::zeros(6, 3);
        let svd = jacobi_svd(&a);
        assert!(svd.s.iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank_for_tolerance(0.0), 0);
    }
}
