//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seismic_la::blas::{dotc, gemm, gemm_conj_transpose_right, gemv, gemv_conj_transpose};
use seismic_la::scalar::{c64, Real, Scalar, C32, C64};
use seismic_la::{jacobi_svd, pivoted_qr, qr, svd_compress, svd_truncate, Matrix};

fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix<C64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::<C64>::random_normal(m, n, &mut rng)
}

fn random_vec(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            c64(
                seismic_la::dense::normal_sample(&mut rng),
                seismic_la::dense::normal_sample(&mut rng),
            )
        })
        .collect()
}

/// `m × n` matrix with singular values `ρⁱ` and random singular vectors.
fn geometric_spectrum(m: usize, n: usize, rho: f64, seed: u64) -> Matrix<C64> {
    let r = m.min(n);
    let mut left = qr(&random_matrix(m, r, seed)).q_thin();
    let right = qr(&random_matrix(n, r, seed.wrapping_add(7))).q_thin();
    for i in 0..r {
        let sigma = rho.powi(i as i32);
        for e in left.col_mut(i) {
            *e = e.scale(sigma);
        }
    }
    gemm_conj_transpose_right(&left, &right)
}

/// A tolerance that falls between two consecutive tails of the spectrum
/// `ρⁱ` (geometric mean, so neither neighbouring rank is marginal), no
/// lower than `floor` relative to `σ₁ = 1`.
fn tolerance_between_tails(r: usize, rho: f64, cut: f64, floor: f64) -> f64 {
    let tail = |k: usize| (k..r).map(|i| rho.powi(2 * i as i32)).sum::<f64>().sqrt();
    let deepest = ((floor.ln() / rho.ln()) as usize).min(r - 1).max(1);
    let j = 1 + ((deepest - 1) as f64 * cut) as usize;
    (tail(j - 1) * tail(j)).sqrt()
}

/// The `svd_compress` contract against the full-SVD (Eckart–Young)
/// truncation of the same matrix.
fn check_svd_compress<S: Scalar>(a: &Matrix<S>, tol: f64) -> Result<(), TestCaseError> {
    let (m, n) = a.shape();
    let tol_s = S::Real::from_f64(tol);
    let lr = svd_compress(a, tol_s);
    let k = lr.rank();
    prop_assert_eq!(lr.u.shape(), (m, k));
    prop_assert_eq!(lr.v.shape(), (n, k));
    let err = lr.to_dense().sub(a).fro_norm().to_f64();
    prop_assert!(err <= tol * (1.0 + 1e-3), "err {} > tol {}", err, tol);
    let optimal = jacobi_svd(a).rank_for_tolerance(tol_s);
    prop_assert!(
        optimal <= k && k <= optimal + 1,
        "{}x{}: rank {} vs optimal {}",
        m,
        n,
        k,
        optimal
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two-stage `svd_compress` on tall / wide / square matrices whose
    /// geometric spectrum crosses the tolerance: error inside `tol`,
    /// rank never below the optimal truncation's and at most one above.
    #[test]
    fn svd_compress_tracks_optimal_truncation(
        base in 2usize..20,
        extra in 1usize..10,
        kind in 0usize..3,
        rho in 0.3f64..0.8,
        cut in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let (m, n) = match kind {
            0 => (base + extra, base),
            1 => (base, base + extra),
            _ => (base, base),
        };
        let a = geometric_spectrum(m, n, rho, seed);
        check_svd_compress(&a, tolerance_between_tails(base, rho, cut, 1e-10))?;
        let a32 = Matrix::<C32>::from_fn(m, n, |i, j| a[(i, j)].narrow());
        check_svd_compress(&a32, tolerance_between_tails(base, rho, cut, 1e-4))?;
    }

    /// The dense certificate of `svd_truncate` is sound and reaches what it
    /// should: on tiles whose spectrum steps down at a rank `keep` placed
    /// around the stop rank `⌈m·n/(m+n)⌉`, on both sides, an early exit
    /// only ever happens where the full truncation keeps at least the stop
    /// rank — never on a tile that would be stored as factors — a run that
    /// is not cut short is the truncation itself, and every tile that does
    /// keep the stop rank is proved dense: there `σ_stop ≥ floor`, a
    /// thousand times the tolerance, far above the bound
    /// `τ = tol + c·ε·√n·‖A‖_F` on the QR's leading rows.
    #[test]
    fn dense_certificate_never_fires_below_the_stop_rank(
        m in 4usize..28,
        n in 4usize..28,
        offset in -3i32..=3,
        floor in 0.02f64..1.0,
        seed in 0u64..1000,
    ) {
        let r = m.min(n);
        let stop = (m * n).div_ceil(m + n);
        let keep = (stop as i32 + offset).clamp(1, r as i32) as usize;
        // σ falls from 1 to `floor` over the first `keep` values, then
        // drops by four orders: the tolerance sits in the gap, above the
        // whole tail (at most √27·1e-4·floor).
        let mut left = qr(&random_matrix(m, r, seed)).q_thin();
        let right = qr(&random_matrix(n, r, seed.wrapping_add(7))).q_thin();
        for i in 0..r {
            let sigma = if i < keep {
                floor.powf(i as f64 / keep.max(2) as f64)
            } else {
                1e-4 * floor
            };
            for e in left.col_mut(i) {
                *e = e.scale(sigma);
            }
        }
        let a64 = gemm_conj_transpose_right(&left, &right);
        let a = Matrix::<C32>::from_fn(m, n, |i, j| a64[(i, j)].narrow());
        let tol = (1e-3 * floor) as f32;
        let full = svd_compress(&a, tol);
        prop_assert_eq!(full.rank(), keep);
        match svd_truncate(&a, tol, Some(stop)) {
            None => prop_assert!(keep >= stop, "{}x{}: fired at keep {} < stop {}", m, n, keep, stop),
            Some(t) => {
                prop_assert!(keep < stop, "{}x{}: missed keep {} ≥ stop {}", m, n, keep, stop);
                prop_assert_eq!(t.rank(), keep);
                let left = t.left();
                prop_assert_eq!(left.as_slice(), full.u.as_slice());
                prop_assert_eq!(t.v.as_slice(), full.v.as_slice());
            }
        }
    }

    /// ⟨Ax, y⟩ = ⟨x, Aᴴy⟩ for all shapes.
    #[test]
    fn gemv_adjoint_identity(m in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
        let a = random_matrix(m, n, seed);
        let x = random_vec(n, seed.wrapping_add(1));
        let y = random_vec(m, seed.wrapping_add(2));
        let mut ax = vec![C64::ZERO; m];
        gemv(&a, &x, &mut ax);
        let mut ahy = vec![C64::ZERO; n];
        gemv_conj_transpose(&a, &y, &mut ahy);
        let lhs = dotc(&y, &ax);
        let rhs = dotc(&ahy, &x);
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        prop_assert!((lhs - rhs).abs() / scale < 1e-10);
    }

    /// QR reconstructs A for arbitrary shapes.
    #[test]
    fn qr_reconstruction(m in 1usize..20, n in 1usize..20, seed in 0u64..1000) {
        let a = random_matrix(m, n, seed);
        let f = qr(&a);
        let rec = gemm(&f.q_thin(), &f.r());
        prop_assert!(rec.sub(&a).fro_norm() < 1e-10 * (1.0 + a.fro_norm()));
    }

    /// Jacobi SVD: reconstruction + descending singular values.
    #[test]
    fn svd_reconstruction(m in 1usize..18, n in 1usize..18, seed in 0u64..1000) {
        let a = random_matrix(m, n, seed);
        let svd = jacobi_svd(&a);
        let rec = svd.reconstruct();
        prop_assert!(rec.sub(&a).fro_norm() < 1e-10 * (1.0 + a.fro_norm()));
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        // Largest singular value bounds the spectral action on any vector.
        let x = random_vec(n, seed.wrapping_add(9));
        let mut ax = vec![C64::ZERO; m];
        gemv(&a, &x, &mut ax);
        let xnorm = seismic_la::blas::nrm2(&x);
        if xnorm > 0.0 && !svd.s.is_empty() {
            prop_assert!(seismic_la::blas::nrm2(&ax) <= svd.s[0] * xnorm * (1.0 + 1e-8));
        }
    }

    /// Every compression backend honours its tolerance contract.
    #[test]
    fn compression_tolerance_contract(
        m in 2usize..20,
        n in 2usize..20,
        k in 1usize..5,
        tol_exp in 1i32..8,
        seed in 0u64..500,
    ) {
        // Low-rank + small perturbation.
        let base = {
            let u = random_matrix(m, k.min(m).min(n), seed);
            let v = random_matrix(k.min(m).min(n), n, seed.wrapping_add(3));
            gemm(&u, &v)
        };
        let tol = 10f64.powi(-tol_exp) * (1.0 + base.fro_norm());

        let svd_lr = svd_compress(&base, tol);
        prop_assert!(svd_lr.to_dense().sub(&base).fro_norm() <= tol * 1.0001);

        let pqr = pivoted_qr(&base, tol);
        let (u, v) = pqr.low_rank_factors();
        let rec = gemm_conj_transpose_right(&u, &v);
        prop_assert!(rec.sub(&base).fro_norm() <= tol * 1.0001);
    }

    /// SVD truncation error equals the discarded tail exactly.
    #[test]
    fn svd_truncation_error_is_tail(m in 3usize..16, n in 3usize..16, seed in 0u64..500, kfrac in 0.1f64..0.9) {
        let a = random_matrix(m, n, seed);
        let svd = jacobi_svd(&a);
        let r = svd.s.len();
        let k = ((r as f64) * kfrac) as usize;
        let lr = svd.truncate(k);
        let err = lr.to_dense().sub(&a).fro_norm();
        let tail: f64 = svd.s[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        prop_assert!((err - tail).abs() < 1e-9 * (1.0 + tail));
    }
}
