//! Complex operator-based LSQR (Paige & Saunders 1982) — the iterative
//! solver the paper uses for MDD ("30 iterations of LSQR", §6.2).
//!
//! The operator is reached through one call,
//! [`LinearOperator::adjoint_then_apply_into`] — `v ← Aᴴu − βv` and
//! `w = Av` together — into buffers allocated before the loop: an
//! iteration allocates nothing of its own, and an operator that overrides
//! the call (a TLR stack) is streamed once per iteration, not twice. The
//! result says why the solve returned ([`StopReason`]): the norms `β`, `α`
//! are computed anyway, so a NaN ends the solve at the iteration that
//! produced it instead of `max_iters` iterations later, and an exhausted
//! Krylov space is a status, not a silent early exit.
//!
//! One iteration is the fused call → `α`, `θ`, `ρ̄`, `w` → `β` → rotation
//! → `x` update → history / stop test. The call pairs the adjoint that
//! closes one bidiagonalization step with the forward product that opens
//! the next — the first one computes `α₁v₁ = Aᴴu₁` and `Av₁` (`β = 0`) —
//! so a solve of `k ≥ 1` iterations makes exactly `k` operator calls, and
//! the iteration that ends it (`max_iters` reached, `rel_tol` met, `β`
//! exactly zero) has paid for nothing it does not read. The forward
//! product is taken of `v` before it is normalised and scaled by `1/α`
//! afterwards: `Av = (Av̂)·(1/α)`. Two things follow for [`StopReason`]:
//! the `α` that would have followed the last iteration is never computed,
//! so a breakdown only it would have seen is reported as `MaxIters` /
//! `Converged`; and an `α` that comes back zero or non-finite ends the
//! solve after the previous iteration's `x` update and history entry,
//! with a forward product nobody reads. `max_iters = 0` has no iteration
//! to fuse into: it makes the one adjoint call that classifies `α₁`.

use std::time::Instant;

use seismic_la::blas::nrm2;
use seismic_la::scalar::{exactly_zero_f32, C32};
use tlr_mvm::cast::to_u64;
use tlr_mvm::{trace, LinearOperator};

/// LSQR options.
#[derive(Clone, Copy, Debug)]
pub struct LsqrOptions {
    /// Maximum iterations (the paper runs 30).
    pub max_iters: usize,
    /// Relative residual stopping tolerance (`‖r‖/‖b‖`); set to 0 to
    /// always run `max_iters`.
    pub rel_tol: f32,
    /// Tikhonov damping `λ` (`min ‖Ax − b‖² + λ²‖x‖²`); 0 disables.
    pub damp: f32,
}

impl Default for LsqrOptions {
    fn default() -> Self {
        Self {
            max_iters: 30,
            rel_tol: 0.0,
            damp: 0.0,
        }
    }
}

/// Why an iterative solve returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Ran the `max_iters` it was given (what a paper-style fixed
    /// 30-iteration solve reports).
    MaxIters,
    /// The residual estimate met `rel_tol`.
    Converged,
    /// A bidiagonalization norm (`β` or `α`)
    /// came out exactly zero: the Krylov space is exhausted and the
    /// iterate is the exact solution of everything reachable from `b`.
    Breakdown,
    /// One of those norms was NaN or infinite. The solve stops there;
    /// `x` is the last iterate computed from finite quantities.
    NonFinite,
}

/// LSQR outcome.
#[derive(Clone, Debug)]
pub struct LsqrResult {
    /// The solution estimate.
    pub x: Vec<C32>,
    /// Estimated residual norm per iteration (`φ̄`, LSQR's monotone
    /// residual estimate).
    pub residual_history: Vec<f32>,
    /// Iterations completed (`residual_history.len()`).
    pub iterations: usize,
    /// Why the solve returned.
    pub stop: StopReason,
}

fn scale(v: &mut [C32], s: f32) {
    for e in v.iter_mut() {
        *e = e.scale(s);
    }
}

fn axpy_real(alpha: f32, x: &[C32], y: &mut [C32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi.scale(alpha);
    }
}

/// [`StopReason`] for a freshly computed norm that ends the solve, if it
/// does: exactly zero or not finite.
fn norm_stop(norm: f32) -> Option<StopReason> {
    if !norm.is_finite() {
        Some(StopReason::NonFinite)
    } else if exactly_zero_f32(norm) {
        Some(StopReason::Breakdown)
    } else {
        None
    }
}

/// Per-iteration residual/timing trace (paper §6.2: "30 iterations of
/// LSQR"): one row per iteration, carrying the time since the previous
/// row (`since`, which is `None` — and the clock never read — while
/// tracing is disabled).
fn trace_row(since: &mut Option<Instant>, iter: usize, residual: f32, b_norm: f32) {
    if let Some(t0) = *since {
        let now = Instant::now();
        let ns = u64::try_from((now - t0).as_nanos()).unwrap_or(u64::MAX);
        trace::record_solver_iteration("lsqr", to_u64(iter), residual, b_norm, ns);
        *since = Some(now);
    }
}

/// Solve `min ‖A x − b‖₂ (+ λ²‖x‖²)` with LSQR.
///
/// The operator is applied through
/// [`LinearOperator::adjoint_then_apply_into`], once per iteration, into
/// buffers allocated once before the loop.
pub fn lsqr<A: LinearOperator + ?Sized>(a: &A, b: &[C32], opts: LsqrOptions) -> LsqrResult {
    let _span = trace::span("lsqr.solve");
    let m = a.nrows();
    let n = a.ncols();
    assert_eq!(b.len(), m, "rhs length mismatch");

    let mut x = vec![C32::new(0.0, 0.0); n];
    let mut history = Vec::with_capacity(opts.max_iters);
    let done = |x, history: Vec<f32>, stop| LsqrResult {
        x,
        iterations: history.len(),
        residual_history: history,
        stop,
    };

    // β₁ u₁ = b.
    let mut u = b.to_vec();
    let b_norm = nrm2(&u);
    if let Some(stop) = norm_stop(b_norm) {
        return done(x, history, stop);
    }
    scale(&mut u, 1.0 / b_norm);
    let mut phibar = b_norm;
    let damp = opts.damp;

    let mut v = vec![C32::new(0.0, 0.0); n];
    if opts.max_iters == 0 {
        a.apply_adjoint_into(&u, &mut v);
        let stop = norm_stop(nrm2(&v)).unwrap_or(StopReason::MaxIters);
        return done(x, history, stop);
    }
    let mut w = vec![C32::new(0.0, 0.0); n];
    // Operator outputs, reused by every iteration.
    let mut av = vec![C32::new(0.0, 0.0); m];
    let mut scratch = vec![C32::new(0.0, 0.0); n];
    // α₁ v₁ = Aᴴ u₁ is the general step from v₀ = w₀ = 0 behind an identity
    // rotation: β = 0 subtracts nothing, and θ = 0, ρ̄ = −c·α = α,
    // w = v + (−0)·w = v come out exact.
    let mut beta = 0.0f32;
    let (mut c, mut s, mut rho) = (-1.0f32, 0.0f32, 1.0f32);

    let mut row_start = trace::is_enabled().then(Instant::now);
    let mut stop = StopReason::MaxIters;
    for iter in 1..=opts.max_iters {
        // α v = Aᴴ u − β v, and A of it, in one pass over the operator.
        a.adjoint_then_apply_into(&u, beta, &mut v, &mut av, &mut scratch);
        let alpha = nrm2(&v);
        if let Some(why) = norm_stop(alpha) {
            stop = why;
            break;
        }
        let inv_alpha = 1.0 / alpha;
        scale(&mut v, inv_alpha);
        // θ, ρ̄ and w = v − (θ/ρ) w of the step just closed.
        let theta = s * alpha;
        let rhobar = -c * alpha;
        let t2 = -theta / rho;
        for (wi, vi) in w.iter_mut().zip(&v) {
            *wi = *vi + wi.scale(t2);
        }

        // β u = A v − α u, where `av` holds A of the un-normalised v.
        for (ui, avi) in u.iter_mut().zip(&av) {
            *ui = avi.scale(inv_alpha) - ui.scale(alpha);
        }
        beta = nrm2(&u);
        if !beta.is_finite() {
            stop = StopReason::NonFinite;
            break;
        }
        if beta > 0.0 {
            scale(&mut u, 1.0 / beta);
        }

        // Eliminate the damping term (if any) from the bidiagonalization.
        let (rhobar1, phibar1) = if damp > 0.0 {
            let rb1 = rhobar.hypot(damp);
            let cs1 = rhobar / rb1;
            (rb1, phibar * cs1)
        } else {
            (rhobar, phibar)
        };

        // Both bidiagonal entries vanished and the rotation would divide
        // by zero.
        rho = rhobar1.hypot(beta);
        if exactly_zero_f32(rho) {
            stop = StopReason::Breakdown;
            break;
        }
        c = rhobar1 / rho;
        s = beta / rho;
        let phi = c * phibar1;
        phibar = s * phibar1;

        // x += (φ/ρ) w.
        axpy_real(phi / rho, &w, &mut x);

        history.push(phibar);
        trace_row(&mut row_start, iter, phibar, b_norm);
        // Krylov space exhausted: this iteration's update was the last
        // one that can change `x` (the next `u`, `v` are zero vectors).
        if exactly_zero_f32(beta) {
            stop = StopReason::Breakdown;
            break;
        }
        if opts.rel_tol > 0.0 && phibar <= opts.rel_tol * b_norm {
            stop = StopReason::Converged;
            break;
        }
    }

    done(x, history, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn solves_square_system() {
        let mut rng = ChaCha8Rng::seed_from_u64(111);
        // Well-conditioned: diag-dominant.
        let mut a = Matrix::<C32>::random_normal(12, 12, &mut rng);
        for i in 0..12 {
            a[(i, i)] += C32::new(8.0, 0.0);
        }
        let x_true = rand_cvec(12, 112);
        let b = tlr_mvm::LinearOperator::apply(&a, &x_true);
        let res = lsqr(
            &a,
            &b,
            LsqrOptions {
                max_iters: 200,
                rel_tol: 1e-7,
                damp: 0.0,
            },
        );
        for (g, w) in res.x.iter().zip(&x_true) {
            assert!((*g - *w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn overdetermined_least_squares_residual_orthogonal() {
        let mut rng = ChaCha8Rng::seed_from_u64(113);
        let a = Matrix::<C32>::random_normal(20, 8, &mut rng);
        let b = rand_cvec(20, 114);
        let res = lsqr(
            &a,
            &b,
            LsqrOptions {
                max_iters: 100,
                rel_tol: 0.0,
                damp: 0.0,
            },
        );
        // At the LS optimum, Aᴴ(b − Ax) ≈ 0.
        let ax = tlr_mvm::LinearOperator::apply(&a, &res.x);
        let r: Vec<C32> = b.iter().zip(&ax).map(|(bi, axi)| *bi - *axi).collect();
        let g = tlr_mvm::LinearOperator::apply_adjoint(&a, &r);
        let gnorm = nrm2(&g);
        assert!(gnorm < 1e-3 * nrm2(&b), "gradient {gnorm}");
    }

    #[test]
    fn residual_history_is_monotone() {
        let mut rng = ChaCha8Rng::seed_from_u64(115);
        let a = Matrix::<C32>::random_normal(15, 10, &mut rng);
        let b = rand_cvec(15, 116);
        let res = lsqr(&a, &b, LsqrOptions::default());
        for w in res.residual_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-6));
        }
    }

    #[test]
    fn damping_shrinks_solution_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(117);
        let a = Matrix::<C32>::random_normal(15, 15, &mut rng);
        let b = rand_cvec(15, 118);
        let free = lsqr(
            &a,
            &b,
            LsqrOptions {
                max_iters: 60,
                rel_tol: 0.0,
                damp: 0.0,
            },
        );
        let damped = lsqr(
            &a,
            &b,
            LsqrOptions {
                max_iters: 60,
                rel_tol: 0.0,
                damp: 2.0,
            },
        );
        assert!(nrm2(&damped.x) < nrm2(&free.x));
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(119);
        let a = Matrix::<C32>::random_normal(6, 4, &mut rng);
        let b = vec![C32::new(0.0, 0.0); 6];
        let res = lsqr(&a, &b, LsqrOptions::default());
        assert_eq!(res.iterations, 0);
        assert_eq!(res.stop, StopReason::Breakdown);
        assert!(res.x.iter().all(|v| *v == C32::new(0.0, 0.0)));
    }

    #[test]
    fn stop_reason_names_how_the_solve_ended() {
        let mut rng = ChaCha8Rng::seed_from_u64(141);
        let a = Matrix::<C32>::random_normal(15, 10, &mut rng);
        let b = rand_cvec(15, 142);
        let run = |a: &Matrix<C32>, b: &[C32], max_iters, rel_tol| {
            let opts = LsqrOptions {
                max_iters,
                rel_tol,
                damp: 0.0,
            };
            lsqr(a, b, opts)
        };

        // Healthy fixed-length solve: every iteration runs.
        let res = run(&a, &b, 8, 0.0);
        assert_eq!((res.iterations, res.stop), (8, StopReason::MaxIters));
        assert_eq!(res.residual_history.len(), 8);

        // Tolerance met long before the budget.
        let mut sq = Matrix::<C32>::random_normal(10, 10, &mut rng);
        for i in 0..10 {
            sq[(i, i)] += C32::new(8.0, 0.0);
        }
        let res = run(&sq, &rand_cvec(10, 143), 500, 1e-4);
        assert_eq!(res.stop, StopReason::Converged);
        assert!(res.iterations < 500);

        // Krylov space exhausted after one step: A diagonal, b = e₁, so
        // β₂ = ‖A v₁ − α₁ u₁‖ is exactly zero and x = e₁/2 is exact.
        let diag = Matrix::from_fn(3, 3, |i, j| {
            C32::new(if i == j { 2.0 + i as f32 } else { 0.0 }, 0.0)
        });
        let e1 = [C32::new(1.0, 0.0), C32::new(0.0, 0.0), C32::new(0.0, 0.0)];
        let res = run(&diag, &e1, 30, 0.0);
        assert_eq!((res.iterations, res.stop), (1, StopReason::Breakdown));
        assert_eq!(res.x[0], C32::new(0.5, 0.0));

        // A NaN right-hand side never starts; an operator that overflows
        // stops at the iteration that sees it, with the last finite x.
        let mut bad_b = b.clone();
        bad_b[3] = C32::new(f32::NAN, 0.0);
        let res = run(&a, &bad_b, 30, 0.0);
        assert_eq!((res.iterations, res.stop), (0, StopReason::NonFinite));
        let huge = Matrix::from_fn(4, 4, |i, j| C32::new(if i == j { 3e19 } else { 1e19 }, 0.0));
        let res = run(&huge, &rand_cvec(4, 144), 30, 0.0);
        assert_eq!(res.stop, StopReason::NonFinite);
        assert!(res.iterations < 30);
        assert!(res.x.iter().all(|v| v.re.is_finite() && v.im.is_finite()));
    }
}
