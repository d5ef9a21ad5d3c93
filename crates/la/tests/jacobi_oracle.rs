//! `jacobi_svd` against the routine it replaced. The sweeps, the
//! convergence test and `MAX_SWEEPS` are the same; what changed is how the
//! arithmetic is grouped (cached column norms, four-accumulator
//! reductions, the phase folded into the rotation's coefficients), so the
//! two may differ by rounding and by nothing else. The old routine is kept
//! here, singular values only, as the oracle.
//!
//! The hostile cases also found what neither grouping excuses: on an
//! exactly rank-deficient `C32` matrix the null columns shrink until their
//! dot product is subnormal, its reciprocal overflows `f32`, and the phase
//! `apq·∞` turned every singular value into NaN. `jacobi_svd` now leaves
//! such a pair alone; the last test pins that.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use seismic_la::blas::{dotc, gemm, gemm_conj_transpose_left};
use seismic_la::scalar::{Real, Scalar, C32, C64};
use seismic_la::{jacobi_svd, Matrix};

/// Singular values, descending, by the one-sided Jacobi iteration as it
/// was: both column norms recomputed for every pair on one `f64` chain,
/// the dot product on one accumulator, the rotation as five products.
fn singular_values_before<S: Scalar>(a: &Matrix<S>) -> Vec<f64> {
    let (m, n) = a.shape();
    if m < n {
        return singular_values_before(&a.conj_transpose());
    }
    let norm_sq =
        |w: &Matrix<S>, j: usize| -> f64 { w.col(j).iter().map(|x| x.abs_sqr().to_f64()).sum() };
    let mut w = a.clone();
    let tol = S::Real::EPSILON.to_f64() * (n as f64).sqrt();
    for _sweep in 0..60 {
        let mut rotated = false;
        for p in 0..n {
            for q in p + 1..n {
                let (app, aqq) = (norm_sq(&w, p), norm_sq(&w, q));
                if app == 0.0 && aqq == 0.0 {
                    continue;
                }
                let apq = dotc(w.col(p), w.col(q));
                let r = apq.abs().to_f64();
                if r <= tol * (app * aqq).sqrt() {
                    continue;
                }
                // The one line that is not the old routine's: it had no
                // underflow guard and returned NaN where this one skips.
                let inv = S::Real::from_f64(r.recip());
                if !inv.is_finite() {
                    continue;
                }
                rotated = true;
                let phase = apq.mul_real(inv);
                let tau = (aqq - app) / (2.0 * r);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let cs = S::from_real(S::Real::from_f64(c));
                let sn = S::from_real(S::Real::from_f64(c * t));
                let phq = phase.conj();
                let (cp, cq) = w.cols_mut_pair(p, q);
                for (x, y) in cp.iter_mut().zip(cq.iter_mut()) {
                    let yq = phq * *y;
                    (*x, *y) = (cs * *x - sn * yq, sn * *x + cs * yq);
                }
            }
        }
        if !rotated {
            break;
        }
    }
    let mut s: Vec<f64> = (0..n)
        .map(|j| S::Real::from_f64(norm_sq(&w, j).sqrt()).to_f64())
        .collect();
    s.sort_by(|x, y| y.partial_cmp(x).expect("finite singular values"));
    s
}

/// `UᴴU` and `VᴴV` are the identity, to `bound`, on the columns whose
/// singular value is not numerically zero (a null direction's left vector
/// is left unnormalised, and `m < n` swaps the two sides).
fn assert_orthonormal<S: Scalar>(what: &str, svd: &seismic_la::Svd<S>, bound: f64) {
    let sigma1 = svd.s.first().map_or(0.0, |s| s.to_f64());
    let live = svd
        .s
        .iter()
        .take_while(|s| s.to_f64() > 1e-3 * sigma1)
        .count();
    for (name, q) in [("U", &svd.u), ("V", &svd.v)] {
        let g = gemm_conj_transpose_left(q, q);
        for i in 0..live {
            for j in 0..live {
                let want = if i == j { 1.0 } else { 0.0 };
                let got = g[(i, j)].abs().to_f64();
                assert!(
                    (got - want).abs() <= bound,
                    "{what}: ({name}ᴴ{name})[{i},{j}] = {got}"
                );
            }
        }
    }
}

/// One hostile-ish random matrix: tall, wide or square, and every fourth
/// one rank-deficient, every fifth with zero columns.
fn random_case<S: Scalar>(
    case: usize,
    rng: &mut ChaCha8Rng,
    normal: impl Fn(usize, usize, &mut ChaCha8Rng) -> Matrix<S>,
) -> Matrix<S> {
    let (m, n) = (rng.gen_range(1..26usize), rng.gen_range(1..26usize));
    let mut a = if case % 4 == 3 {
        let k = rng.gen_range(1..m.min(n) + 1);
        gemm(&normal(m, k, rng), &normal(k, n, rng))
    } else {
        normal(m, n, rng)
    };
    if case % 5 == 4 {
        for j in (0..n).step_by(3) {
            a.col_mut(j).fill(S::ZERO);
        }
    }
    a
}

fn check<S: Scalar>(
    seed: u64,
    orthonormal_bound: f64,
    normal: impl Fn(usize, usize, &mut ChaCha8Rng) -> Matrix<S> + Copy,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let eps = S::Real::EPSILON.to_f64();
    for case in 0..200 {
        let a = random_case(case, &mut rng, normal);
        let (m, n) = a.shape();
        let what = format!("case {case} ({m}x{n})");
        let svd = jacobi_svd(&a);
        let before = singular_values_before(&a);
        assert_eq!(svd.s.len(), before.len(), "{what}");
        // Rounding accumulates over the ~n rotations a column sees per
        // sweep, hence the √n: the largest difference over these 400
        // matrices is 7.1·ε·σ₁ (14×17), 1.9·ε·√n·σ₁.
        let bound = 4.0 * eps * (m.min(n) as f64).sqrt() * before[0];
        for (i, (got, want)) in svd.s.iter().zip(&before).enumerate() {
            assert!(
                (got.to_f64() - want).abs() <= bound,
                "{what}: σ[{i}] {got} vs {want} (bound {bound})"
            );
        }
        assert_orthonormal(&what, &svd, orthonormal_bound);
    }
}

#[test]
fn singular_values_are_the_previous_routines_on_200_random_c32_shapes() {
    check::<C32>(71, 1e-4, |m, n, rng| {
        Matrix::<C32>::random_normal(m, n, rng)
    });
}

#[test]
fn singular_values_are_the_previous_routines_on_200_random_c64_shapes() {
    check::<C64>(72, 1e-12, |m, n, rng| {
        Matrix::<C64>::random_normal(m, n, rng)
    });
}

/// A wide matrix with exact zero columns: its transpose is exactly
/// rank-deficient, the null columns decay sweep after sweep instead of
/// stalling at rounding noise, and their dot product underflows.
#[test]
fn exactly_rank_deficient_c32_input_gives_finite_singular_values() {
    let mut rng = ChaCha8Rng::seed_from_u64(73);
    let mut seen_tiny = false;
    for _ in 0..20 {
        let mut a = Matrix::<C32>::random_normal(14, 17, &mut rng);
        for j in (0..17).step_by(3) {
            a.col_mut(j).fill(C32::ZERO);
        }
        let svd = jacobi_svd(&a);
        assert!(svd.s.iter().all(|s| s.is_finite()), "{:?}", svd.s);
        assert!(svd.u.all_finite() && svd.v.all_finite());
        // Eleven live columns: rank 11, three null directions.
        assert!(svd.s[10] > 1e-2 * svd.s[0]);
        assert!(svd.s[11] < 1e-5 * svd.s[0]);
        seen_tiny |= svd.s[13] < 1e-30;
    }
    assert!(
        seen_tiny,
        "no case drove a null column into the underflow range"
    );
}
