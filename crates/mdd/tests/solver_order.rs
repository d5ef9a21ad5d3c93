//! LSQR skips the adjoint of the iteration that ends a solve, and makes
//! its adjoint and the next forward product in one operator call.
//! Everything `x` and the residual history are computed from keeps its
//! operand order, so both must equal — bit for bit — what the loop gave
//! when every iteration ran forward apply *and* adjoint, as two calls,
//! before touching `x`. That loop is kept here, verbatim but for tracing,
//! as the oracle — with the one reassociation the fused call brought:
//! `Av` is the product of the un-normalised `v`, scaled by `1/α`
//! afterwards.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seismic_la::blas::nrm2;
use seismic_la::scalar::C32;
use seismic_la::Matrix;
use seismic_mdd::{lsqr, LsqrOptions, StopReason};
use tlr_mvm::LinearOperator;

const CZERO: C32 = C32::new(0.0, 0.0);

fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix<C32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::<C32>::random_normal(m, n, &mut rng)
}

fn scale(v: &mut [C32], s: f32) {
    for e in v.iter_mut() {
        *e = e.scale(s);
    }
}

/// LSQR with the adjoint inside every iteration, ahead of the rotation.
fn lsqr_adjoint_every_iteration(
    a: &Matrix<C32>,
    b: &[C32],
    opts: LsqrOptions,
) -> (Vec<C32>, Vec<f32>) {
    let (m, n) = a.shape();
    let mut x = vec![CZERO; n];
    let mut history = Vec::new();
    let mut u = b.to_vec();
    let mut beta = nrm2(&u);
    scale(&mut u, 1.0 / beta);
    let mut v = vec![CZERO; n];
    a.apply_adjoint_into(&u, &mut v);
    let mut alpha = nrm2(&v);
    let mut av = vec![CZERO; m];
    a.apply_into(&v, &mut av);
    scale(&mut av, 1.0 / alpha);
    scale(&mut v, 1.0 / alpha);
    let mut w = v.clone();
    let mut phibar = beta;
    let mut rhobar = alpha;
    let b_norm = beta;
    let mut ahu = vec![CZERO; n];
    for _ in 0..opts.max_iters {
        for (ui, avi) in u.iter_mut().zip(&av) {
            *ui = *avi - ui.scale(alpha);
        }
        beta = nrm2(&u);
        scale(&mut u, 1.0 / beta);
        a.apply_adjoint_into(&u, &mut ahu);
        for (vi, ahui) in v.iter_mut().zip(&ahu) {
            *vi = *ahui - vi.scale(beta);
        }
        alpha = nrm2(&v);
        a.apply_into(&v, &mut av);
        scale(&mut av, 1.0 / alpha);
        scale(&mut v, 1.0 / alpha);
        let (rhobar1, phibar1) = if opts.damp > 0.0 {
            let rb1 = rhobar.hypot(opts.damp);
            (rb1, phibar * (rhobar / rb1))
        } else {
            (rhobar, phibar)
        };
        let rho = rhobar1.hypot(beta);
        let c = rhobar1 / rho;
        let s = beta / rho;
        let theta = s * alpha;
        rhobar = -c * alpha;
        let phi = c * phibar1;
        phibar = s * phibar1;
        let t1 = phi / rho;
        let t2 = -theta / rho;
        for (xi, wi) in x.iter_mut().zip(&w) {
            *xi += wi.scale(t1);
        }
        for (wi, vi) in w.iter_mut().zip(&v) {
            *wi = *vi + wi.scale(t2);
        }
        history.push(phibar);
        if opts.rel_tol > 0.0 && phibar <= opts.rel_tol * b_norm {
            break;
        }
    }
    (x, history)
}

fn assert_same_bits(what: &str, got: (&[C32], &[f32]), want: (&[C32], &[f32])) {
    let bits = |v: &[C32]| -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    assert_eq!(bits(got.0), bits(want.0), "{what}: x");
    let hist = |h: &[f32]| -> Vec<u32> { h.iter().map(|r| r.to_bits()).collect() };
    assert_eq!(hist(got.1), hist(want.1), "{what}: residual history");
}

#[test]
fn x_and_history_are_those_of_the_loop_that_ran_every_adjoint() {
    // Overdetermined and noisy, so 30 iterations neither converge nor
    // break down; the diagonally dominant square system meets `rel_tol`.
    let a = rand_matrix(40, 31, 401);
    let b = rand_matrix(40, 1, 402).into_vec();
    let mut sq = rand_matrix(24, 24, 403);
    for i in 0..24 {
        sq[(i, i)] += C32::new(8.0, 0.0);
    }
    let sq_b = rand_matrix(24, 1, 404).into_vec();

    for damp in [0.0f32, 0.7] {
        for max_iters in [1usize, 2, 8, 30] {
            let opts = LsqrOptions {
                max_iters,
                rel_tol: 0.0,
                damp,
            };
            let what = format!("max_iters {max_iters} damp {damp}");
            let got = lsqr(&a, &b, opts);
            assert_eq!(
                (got.iterations, got.stop),
                (max_iters, StopReason::MaxIters)
            );
            let (x, history) = lsqr_adjoint_every_iteration(&a, &b, opts);
            assert_same_bits(
                &format!("lsqr {what}"),
                (&got.x, &got.residual_history),
                (&x, &history),
            );
        }

        let opts = LsqrOptions {
            max_iters: 500,
            rel_tol: 1e-4,
            damp,
        };
        let got = lsqr(&sq, &sq_b, opts);
        assert_eq!(got.stop, StopReason::Converged);
        assert!(got.iterations > 1 && got.iterations < 500);
        let (x, history) = lsqr_adjoint_every_iteration(&sq, &sq_b, opts);
        assert_same_bits(
            &format!("lsqr rel_tol damp {damp}"),
            (&got.x, &got.residual_history),
            (&x, &history),
        );
    }
}

/// The one visible difference: a breakdown that only the skipped adjoint
/// would have seen. `A = (1, 1)ᵀ`, `b = (1, 0)`: `u₂ = (0, 1)`, `β₂ = 1`,
/// and `α₂ = ‖Aᴴu₂ − β₂v₁‖ = |1 − 1|` is exactly zero. With room for a
/// second iteration the first one computes `α₂` and reports the
/// breakdown; as the last iteration it does not, and the solve ran its
/// `max_iters` — with the same `x`, the least-squares solution `1/2`.
#[test]
fn a_breakdown_only_the_last_adjoint_would_see_is_reported_as_max_iters() {
    let a = Matrix::from_fn(2, 1, |_, _| C32::new(1.0, 0.0));
    let b = [C32::new(1.0, 0.0), CZERO];
    let run = |max_iters| {
        lsqr(
            &a,
            &b,
            LsqrOptions {
                max_iters,
                rel_tol: 0.0,
                damp: 0.0,
            },
        )
    };
    let room = run(30);
    assert_eq!((room.iterations, room.stop), (1, StopReason::Breakdown));
    let last = run(1);
    assert_eq!((last.iterations, last.stop), (1, StopReason::MaxIters));
    assert!((room.x[0] - C32::new(0.5, 0.0)).abs() < 1e-6);
    assert_eq!(room.x, last.x);
    assert_eq!(room.residual_history, last.residual_history);
}
