//! CGLS (conjugate gradients on the normal equations) — the classical
//! alternative to LSQR for MDD-style least squares; mathematically
//! equivalent in exact arithmetic, slightly less numerically robust.
//! Included as the baseline iterative scheme for solver ablations.

use seismic_la::blas::nrm2;
use seismic_la::scalar::C32;
use tlr_mvm::{trace, LinearOperator};

use crate::lsqr::{norm_stop, trace_row, LsqrOptions, StopReason};

/// CGLS outcome (mirrors [`crate::lsqr::LsqrResult`]).
#[derive(Clone, Debug)]
pub struct CglsResult {
    /// Solution estimate.
    pub x: Vec<C32>,
    /// Residual norm ‖b − Ax‖ per iteration (recomputed exactly).
    pub residual_history: Vec<f32>,
    /// Iterations completed (`residual_history.len()`).
    pub iterations: usize,
    /// Why the solve returned.
    pub stop: StopReason,
}

fn norm_sqr(v: &[C32]) -> f32 {
    v.iter().map(|e| e.norm_sqr()).sum()
}

/// Solve `min ‖Ax − b‖ (+ λ²‖x‖²)` with CGLS.
///
/// As in [`crate::lsqr::lsqr`], the operator writes into two buffers
/// (`q = Ap`, `s = Aᴴr`) allocated once before the loop, and the
/// iteration that ends the solve stops at its residual: `s = Aᴴr` is
/// computed only for an iteration that has a successor.
pub fn cgls<A: LinearOperator + ?Sized>(a: &A, b: &[C32], opts: LsqrOptions) -> CglsResult {
    let _span = trace::span("cgls.solve");
    let m = a.nrows();
    let n = a.ncols();
    assert_eq!(b.len(), m);
    let damp_sq = opts.damp * opts.damp;

    let mut x = vec![C32::new(0.0, 0.0); n];
    let mut r = b.to_vec(); // r = b − A x (x = 0)
    let mut s = vec![C32::new(0.0, 0.0); n];
    a.apply_adjoint_into(&r, &mut s);
    // Damped: s = Aᴴr − λ²x (x = 0 initially).
    let mut p = s.clone();
    let mut q = vec![C32::new(0.0, 0.0); m];
    let mut gamma = norm_sqr(&s);
    let b_norm = nrm2(b);
    let mut history = Vec::with_capacity(opts.max_iters);

    let mut row_start = trace::is_enabled().then(std::time::Instant::now);
    let mut stop = StopReason::MaxIters;
    for iter in 1..=opts.max_iters {
        if let Some(why) = norm_stop(gamma) {
            stop = why;
            break;
        }
        a.apply_into(&p, &mut q);
        let q_norm_sq = norm_sqr(&q) + damp_sq * norm_sqr(&p);
        if let Some(why) = norm_stop(q_norm_sq) {
            stop = why;
            break;
        }
        let alpha = gamma / q_norm_sq;
        for (xi, pi) in x.iter_mut().zip(&p) {
            *xi += pi.scale(alpha);
        }
        for (ri, qi) in r.iter_mut().zip(&q) {
            *ri -= qi.scale(alpha);
        }
        let res = nrm2(&r);
        history.push(res);
        trace_row("cgls", &mut row_start, iter, res, b_norm);
        if opts.rel_tol > 0.0 && res <= opts.rel_tol * b_norm {
            stop = StopReason::Converged;
            break;
        }
        if iter == opts.max_iters {
            break;
        }
        // The next search direction: only an iteration that has a
        // successor pays for `s = Aᴴr`.
        a.apply_adjoint_into(&r, &mut s);
        if damp_sq > 0.0 {
            for (si, xi) in s.iter_mut().zip(&x) {
                *si -= xi.scale(damp_sq);
            }
        }
        let gamma_new = norm_sqr(&s);
        let beta = gamma_new / gamma;
        gamma = gamma_new;
        for (pi, si) in p.iter_mut().zip(&s) {
            *pi = *si + pi.scale(beta);
        }
    }

    CglsResult {
        x,
        iterations: history.len(),
        residual_history: history,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsqr::lsqr;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seismic_la::Matrix;

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
    fn cgls_solves_well_conditioned() {
        let mut rng = ChaCha8Rng::seed_from_u64(131);
        let mut a = Matrix::<C32>::random_normal(10, 10, &mut rng);
        for i in 0..10 {
            a[(i, i)] += C32::new(8.0, 0.0);
        }
        let x_true = rand_cvec(10, 132);
        let b = a.apply(&x_true);
        let res = cgls(
            &a,
            &b,
            LsqrOptions {
                max_iters: 200,
                rel_tol: 1e-7,
                damp: 0.0,
            },
        );
        for (g, w) in res.x.iter().zip(&x_true) {
            assert!((*g - *w).abs() < 1e-3);
        }
    }

    #[test]
    fn cgls_agrees_with_lsqr() {
        let mut rng = ChaCha8Rng::seed_from_u64(133);
        let a = Matrix::<C32>::random_normal(20, 8, &mut rng);
        let b = rand_cvec(20, 134);
        let opts = LsqrOptions {
            max_iters: 100,
            rel_tol: 0.0,
            damp: 0.0,
        };
        let xc = cgls(&a, &b, opts).x;
        let xl = lsqr(&a, &b, opts).x;
        let diff: f32 = xc
            .iter()
            .zip(&xl)
            .map(|(c, l)| (*c - *l).norm_sqr())
            .sum::<f32>()
            .sqrt();
        assert!(diff < 1e-2 * nrm2(&xl).max(1.0), "diff {diff}");
    }

    #[test]
    fn cgls_residual_decreases() {
        let mut rng = ChaCha8Rng::seed_from_u64(135);
        let a = Matrix::<C32>::random_normal(14, 9, &mut rng);
        let b = rand_cvec(14, 136);
        let res = cgls(
            &a,
            &b,
            LsqrOptions {
                max_iters: 30,
                rel_tol: 0.0,
                damp: 0.0,
            },
        );
        // CGLS residual is monotone in exact arithmetic; allow tiny f32
        // wiggle.
        for w in res.residual_history.windows(2) {
            assert!(w[1] <= w[0] * 1.001);
        }
    }

    #[test]
    fn stop_reason_names_how_the_solve_ended() {
        let mut rng = ChaCha8Rng::seed_from_u64(139);
        let a = Matrix::<C32>::random_normal(14, 9, &mut rng);
        let b = rand_cvec(14, 140);
        let opts = |max_iters, rel_tol| LsqrOptions {
            max_iters,
            rel_tol,
            damp: 0.0,
        };
        let res = cgls(&a, &b, opts(7, 0.0));
        assert_eq!((res.iterations, res.stop), (7, StopReason::MaxIters));

        let mut sq = Matrix::<C32>::random_normal(10, 10, &mut rng);
        for i in 0..10 {
            sq[(i, i)] += C32::new(8.0, 0.0);
        }
        let res = cgls(&sq, &sq.apply(&rand_cvec(10, 141)), opts(500, 1e-4));
        assert_eq!(res.stop, StopReason::Converged);

        // Aᴴb = 0: nothing to descend along.
        let res = cgls(&a, &[C32::new(0.0, 0.0); 14], opts(30, 0.0));
        assert_eq!((res.iterations, res.stop), (0, StopReason::Breakdown));

        let mut bad_b = b.clone();
        bad_b[2] = C32::new(0.0, f32::INFINITY);
        let res = cgls(&a, &bad_b, opts(30, 0.0));
        assert_eq!((res.iterations, res.stop), (0, StopReason::NonFinite));
    }

    #[test]
    fn damped_cgls_shrinks_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(137);
        let a = Matrix::<C32>::random_normal(12, 12, &mut rng);
        let b = rand_cvec(12, 138);
        let free = cgls(
            &a,
            &b,
            LsqrOptions {
                max_iters: 50,
                rel_tol: 0.0,
                damp: 0.0,
            },
        );
        let damped = cgls(
            &a,
            &b,
            LsqrOptions {
                max_iters: 50,
                rel_tol: 0.0,
                damp: 2.0,
            },
        );
        assert!(nrm2(&damped.x) < nrm2(&free.x));
    }
}
